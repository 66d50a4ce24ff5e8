"""In-process span tracing of chainrank's public functions, from outside.

Each traced function is replaced by a wrapper at every module attribute of the
package that holds it, so calls through `from .x import f` copies are seen
too. Operator specs are wrapped where the operator factories return them.
Spans live in one in-memory list (name, start, end, parent index) and are
written once, after the traced pass. A traced name that no longer exists is
reported as missing rather than failing the run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

TRACED = {
    "chain_edit": ("min_chain_set", "chain_completion", "chain_deletion", "weighted_min_chain",
                   "monotone_min_chain", "all_chain_tournaments"),
    "match_pref": ("select_match_pref", "weights_for"),
    "prob_model": ("mle_search", "log_likelihood", "canonical_state", "sample_state", "sample_tournament"),
    "cli": ("main", "run_simulation", "kendall_tau_b"),
    "interleave": ("interleave", "greedy_chain_tournament"),
    "core": ("chain_rankings", "hamming"),
    "fileio": ("load_tournament",),
    "axiom_lab": ("impossibility_suite",),
}
MEMBER_SETS = ("chain_edit.min_chain_set", "chain_edit.chain_completion", "chain_edit.chain_deletion")
SPEC_FIELDS = ("evaluate", "edit_chain")
SIMULATION = "cli.run_simulation"
SIM_PHASES = {
    "prob_model.sample_state": "sample",
    "prob_model.sample_tournament": "sample",
    "operators.evaluate": "solve",
    "operators.edit_chain": "solve",
}


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.members: list[int] = []
        self.tournaments_returned = 0
        self.installed: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        traced.traced_name = name
        return traced

    def _counting(self, name: str, fn):
        """A span wrapper that also counts the size of what fn returns."""
        traced = self._span(name, fn)

        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            if name in MEMBER_SETS:
                self.members.append(len(result.members))
            else:
                self.tournaments_returned += len(result)
            return result

        counted.traced_name = name
        return counted

    def _spec_factory(self, fn):
        """Wrap a factory so the OperatorSpec it returns has traced fields."""

        def factory(*args, **kwargs):
            spec = fn(*args, **kwargs)
            changes = {
                f: self._span(f"operators.{f}", getattr(spec, f))
                for f in SPEC_FIELDS
                if callable(getattr(spec, f, None)) and not hasattr(getattr(spec, f), "traced_name")
            }
            return dataclasses.replace(spec, **changes) if changes else spec

        factory.traced_name = f"operators.{getattr(fn, '__name__', 'factory')}"
        return factory

    def _patch_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        self.installed.clear()
        pkg = self.package
        for modname, attrs in TRACED.items():
            module = sys.modules.get(f"{pkg}.{modname}")
            for attr in attrs:
                fn = getattr(module, attr, None)
                if callable(fn):
                    name = f"{modname}.{attr}"
                    counted = name in MEMBER_SETS or attr == "all_chain_tournaments"
                    self._patch_everywhere(fn, (self._counting if counted else self._span)(name, fn))
                    self.installed.add(name)
        axiom_lab = sys.modules.get(f"{pkg}.axiom_lab")
        for attr, fn in list(vars(axiom_lab).items()) if axiom_lab else ():
            if attr.startswith("check_") and callable(fn):
                self._patch_everywhere(fn, self._span(f"axiom_lab.{attr}", fn))
                self.installed.add("axiom_lab.checks")
        operators = sys.modules.get(f"{pkg}.operators")
        for attr, fn in list(vars(operators).items()) if operators else ():
            if callable(fn) and (attr.endswith("_operator") or attr in ("resolve_operator", "dual_symmetrized")):
                self._patch_everywhere(fn, self._spec_factory(fn))
                self.installed.update(f"operators.{f}" for f in SPEC_FIELDS)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(t0, 7), round(t1, 7), parent] for n, t0, t1, parent in self.spans]
        path.write_text(json.dumps({"names": names, "spans": rows, "fields": ["name", "start", "end", "parent"]}))

    def layer_metrics(self) -> dict[str, float | int | None]:
        """Per-layer self times and counts; None where the traced name is gone."""
        spans = self.spans
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        phase: dict[str, float] = defaultdict(float)
        in_sim = [-1] * len(spans)
        sim_solves = trials = 0
        for i, (name, _, _, parent) in enumerate(spans):
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
            in_sim[i] = i if name == SIMULATION else (in_sim[parent] if parent >= 0 else -1)
            if parent >= 0 and spans[parent][0] == SIMULATION:
                phase[SIM_PHASES.get(name, "metrics")] += dur[i]
                trials += name == "prob_model.sample_state"
            if name == "chain_edit.min_chain_set" and in_sim[i] >= 0:
                sim_solves += 1
        self_s["axiom_lab.checks"] = sum((v for k, v in self_s.items() if k.startswith("axiom_lab.check_")), 0.0)

        def have(name, value):
            return value if name in self.installed else None

        out: dict[str, float | int | None] = {}
        for name in self.installed:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        for key in ("sample", "solve", "metrics"):
            out[f"simulate.{key}_s"] = have(SIMULATION, phase[key])
        out["operators.solves_per_trial"] = have(SIMULATION, sim_solves / trials if trials else 0.0)
        out["chain_edit.members_returned"] = have(MEMBER_SETS[0], sum(self.members))
        out["chain_edit.members_max"] = have(MEMBER_SETS[0], max(self.members, default=0))
        out["chain_edit.all_chain_tournaments.returned"] = have(
            "chain_edit.all_chain_tournaments", self.tournaments_returned)
        return out
