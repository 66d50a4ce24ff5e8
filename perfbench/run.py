"""Stdlib benchmark of the chainrank CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ./src.
One closed-loop client runs one `python -m chainrank ...` process at a time,
so every command's wall-clock includes interpreter start and import. Inputs
are generated from --seed; the program only sees the generated files. Every
answer is checked (see workloads.py and checks.py).

--trace 0 prints the end-to-end metrics of BENCHMARK.json, with times scaled
to a fixed host speed (see REFERENCE_S); --trace 1 runs the same commands
in-process through chainrank.cli.main, each once untraced and once traced, and
prints the per-layer metrics. The last line of standard output is one JSON
object; a readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import pkgutil
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from tracing import Tracer
from workloads import PROBE_TIMEOUT, TIMED_CPU_LIMIT, WORKLOADS, Command, judge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
# Shared hosts change speed for minutes at a time (a fixed job's time moved by
# up to 40% between runs here), which shifts every command of a run alike. End-
# to-end times are therefore reported at a fixed host speed: scaled by
# REFERENCE_S over the median time of reference.py, run next to each set-up
# sample. REFERENCE_S is that median on the host the benchmark was recorded on.
REFERENCE_S = 0.1
TAIL_BEYOND = 10
IMPORT_ONLY = "import time; t = time.perf_counter(); import chainrank; print(time.perf_counter() - t)"


def child_env(extra: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CHAINRANK_ENUM_CAP"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update(extra)
    return env


class Outcome(NamedTuple):
    code: int
    stdout: str
    stderr: str
    wall: float
    rss_mb: float


class Launcher:
    """Runs children through launcher.py; started while this process is still small.

    Owns a private directory for the run's inputs and the children's output.
    """

    def __init__(self, workload: str):
        OUT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        shutil.rmtree(self.workdir)

    def run(self, argv: list[str], cmd: Command, timeout: float | None = None) -> Outcome:
        """Wall-clock covers fork to reap; max RSS is the child's own, from wait4."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        request = {"argv": argv, "env": child_env(cmd.env), "cwd": str(ROOT), "stdout": str(out_path),
                   "stderr": str(err_path), "mem_limit": cmd.mem_limit, "cpu_limit": TIMED_CPU_LIMIT,
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("perfbench: the launcher process died")
        reply = json.loads(line)
        return Outcome(reply["code"], out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
                       reply["wall"], reply["rss_mb"])


def chainrank_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "chainrank", *args]


def import_time(launcher: Launcher, code: str) -> float:
    """One fresh interpreter importing chainrank: wall-clock, or the import time it prints."""
    o = launcher.run([sys.executable, "-c", code], Command([]))
    if o.code != 0:
        raise SystemExit(f"perfbench: importing chainrank failed:\n{o.stderr}")
    return float(o.stdout) if o.stdout.strip() else o.wall


def reference_time(launcher: Launcher) -> float:
    o = launcher.run([sys.executable, str(HERE / "reference.py")], Command([]))
    if o.code != 0:
        raise SystemExit(f"perfbench: the reference job failed:\n{o.stderr}")
    return o.wall


def measure_setup(launcher: Launcher, code: str) -> list[float]:
    import_time(launcher, code)  # compiles bytecode before timing
    return [import_time(launcher, code) for _ in range(SETUP_REPEATS)]


def build(workload, seed: int, units: int, workdir: Path) -> list[Command]:
    shared: dict = {}
    return [c for u in range(units) for c in workload.unit(seed, u, workdir, shared)]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above): the highest percentile with TAIL_BEYOND samples above it.

    Short smoke runs have no such percentile; they report the maximum.
    """
    ordered = sorted(values)
    i = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) - 1 if len(ordered) <= TAIL_BEYOND else 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def timed_run(launcher: Launcher, workload, seed: int, seconds: int) -> tuple[dict, int, int, bool]:
    commands = build(workload, seed, max(1, round(seconds / workload.unit_s)), launcher.workdir)
    import_time(launcher, "import chainrank")  # compiles bytecode before timing
    # set-up samples are spread over the run, so a slow spell of a shared host
    # moves their median no more than it moves the commands'
    setup_at = {i * len(commands) // SETUP_REPEATS for i in range(SETUP_REPEATS)}
    setups, refs, walls, rss, failures, records = [], [], [], [], [], []
    for i, cmd in enumerate(commands):
        if i in setup_at:
            setups.append(import_time(launcher, "import chainrank"))
            refs.append(reference_time(launcher))
        o = launcher.run(chainrank_argv(cmd.args), cmd)
        walls.append(o.wall)
        rss.append(o.rss_mb)
        reason = judge(cmd, o.code, o.stdout, o.stderr)
        if reason:
            failures.append(f"{' '.join(cmd.args)}: {reason}")
        records.append({"args": cmd.args, "wall_s": o.wall, "rss_mb": o.rss_mb, "failure": reason})
    (OUT / f"{workload.name}-commands.json").write_text(json.dumps(records, indent=1))
    probes = workload.probes(seed, launcher.workdir) if workload.probes else []
    probe_failures = 0
    for cmd in probes:
        o = launcher.run(chainrank_argv(cmd.args), cmd, timeout=PROBE_TIMEOUT)
        reason = judge(cmd, o.code, o.stdout, o.stderr)
        probe_failures += reason is not None
        log(f"probe {'FAIL' if reason else 'ok  '} {cmd.probe} ({o.wall:.1f} s, {o.rss_mb:.0f} MB)"
            + (f": {reason}" if reason else ""))
    tail_s, tail_pct, beyond = tail(walls)
    attempted = len(commands) + len(probes)
    times = {"setup_s": statistics.median(setups), "wall_s": sum(walls),
             "cmd_p50_s": statistics.median(walls), "cmd_tail_s": tail_s}
    speed = REFERENCE_S / statistics.median(refs)
    log(f"{len(commands)} timed commands; tail is p{tail_pct:.1f}, {beyond} samples beyond it; "
        f"{len(failures)} failed; {probe_failures}/{len(probes)} probes failed")
    log(f"host speed factor {speed:.3f}; unscaled " + ", ".join(f"{k} {v:.4f}" for k, v in times.items()))
    for line in failures[:10]:
        log(f"FAILED {line}")
    values = {name: value * speed for name, value in times.items()}
    values["peak_rss_mb"] = max(rss)
    values["pass_ratio"] = (attempted - len(failures) - probe_failures) / attempted
    return values, len(commands), len(failures), not failures


def call_main(main, cmd: Command) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(cmd.args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, reported with its traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def traced_run(launcher: Launcher, workload, seed: int, seconds: int) -> tuple[dict, int, int, bool]:
    import_s = statistics.median(measure_setup(launcher, IMPORT_ONLY))
    sys.path.insert(0, str(SRC))
    os.environ.pop("CHAINRANK_ENUM_CAP", None)
    package = importlib.import_module("chainrank")
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            importlib.import_module(f"chainrank.{info.name}")
    cli = sys.modules["chainrank.cli"]
    commands = build(workload, seed, max(1, round(seconds / workload.unit_s / 2)), launcher.workdir)
    tracer = Tracer("chainrank")
    failures, walls = [], [0.0, 0.0]
    for i, cmd in enumerate(commands):
        # each command runs untraced and traced; alternating which goes first
        # keeps first-call warm-up from landing on one side of the overhead
        for traced in ((0, 1) if i % 2 == 0 else (1, 0)):
            if traced:
                tracer.install()
            start = time.perf_counter()
            code, stdout, stderr = call_main(cli.main, cmd)
            walls[traced] += time.perf_counter() - start
            tracer.uninstall()
            reason = judge(cmd, code, stdout, stderr)
            if reason:
                failures.append(f"{' '.join(cmd.args)}: {reason}")
    trace_path = OUT / f"{workload.name}-trace.json"
    tracer.write(trace_path)
    log(f"{len(commands)} commands in-process: untraced {walls[0]:.3f} s, traced {walls[1]:.3f} s; "
        f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}; {len(failures)} failed")
    for line in failures[:10]:
        log(f"FAILED {line}")
    values = tracer.layer_metrics()
    values["setup.import_s"] = import_s
    values["trace.overhead_s"] = walls[1] - walls[0]
    return values, 2 * len(commands), len(failures), not failures


def log(line: str) -> None:
    print(f"perfbench: {line}", file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chainrank" / "__init__.py").is_file():
        log(f"no chainrank sources under {SRC}; run from a source checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    launcher = Launcher(workload.name)
    try:
        values, attempted, failed, correct = run(launcher, workload, args.seed, args.seconds)
    finally:
        launcher.close()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        log(f"missing spans, reported as null: {', '.join(missing)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
