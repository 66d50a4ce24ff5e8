"""Seeded workloads: the commands each one runs and how each answer is checked.

A workload is a sequence of units. A unit draws its inputs from (workload,
seed, unit index), or reuses one drawn earlier in the run, and lists the CLI
commands run on them, in order; later commands are checked against answers of
earlier ones. The
number of units in a run is fixed by --seconds and the workload's nominal unit
cost, so every run of one workload does the same amount of work on any commit.

Probes test the exit-code and memory contract. They run once per run, outside
the timed commands, and count only in pass_ratio.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks as ck
from checks import require

MIB = 1 << 20
TIMED_MEM_LIMIT = 2048 * MIB
TIMED_CPU_LIMIT = 120
PROBE_MEM_LIMIT = 512 * MIB
PROBE_TIMEOUT = 60.0


def _no_output_check(stdout: str) -> None:
    return None


@dataclass
class Command:
    """One CLI call: chainrank arguments and the check of its standard output."""

    args: list[str]
    check: Callable[[str], None] = _no_output_check
    exits: tuple[int, ...] = (0,)
    env: dict[str, str] = field(default_factory=dict)
    probe: str = ""
    mem_limit: int = TIMED_MEM_LIMIT


def judge(cmd: Command, code: int | None, stdout: str, stderr: str) -> str | None:
    """None when the call kept its contract, else the reason it did not."""
    if code not in cmd.exits:
        return f"exit {code}, expected {'/'.join(map(str, cmd.exits))}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    if code == 0:
        gc.disable()  # checks build large acyclic structures; collection only slows them
        try:
            cmd.check(stdout)
        except (ck.CheckError, ValueError, KeyError, TypeError, IndexError, AttributeError, StopIteration) as exc:
            return f"{type(exc).__name__}: {exc}"
        finally:
            gc.enable()
    return None


def _rng(workload: str, seed: int, unit: int | str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{unit}")


def _uniform(rng: random.Random, m: int, n: int):
    return tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(m))


def _write_csv(path: Path, K) -> str:
    path.write_text("\n".join(",".join(map(str, row)) for row in K) + "\n")
    return str(path)


def _edit_all(K, path: str, ref: dict) -> Command:
    def check(stdout: str) -> None:
        data = json.loads(stdout)
        if "expected" in ref:
            # the planted set is known exactly, which implies every generic check
            distance, members = ref["expected"]
            require(data.get("distance") == distance, "distance differs from the planted one")
            got = tuple(tuple(map(tuple, M)) for M in data.get("members", ()))
            require(got == members, "optimum set differs from the planted one")
            ref["distance"], ref["members"] = distance, members
        else:
            ref["distance"], ref["members"] = ck.chain_set(K, data)

    return Command(["edit", path, "--all", "--json"], check)


def _edit_restricted(K, path: str, ref: dict, mode: str) -> Command:
    def check(stdout: str) -> None:
        distance, members = ck.chain_set(K, json.loads(stdout), mode)
        require(distance >= ref["distance"], f"--{mode} beat the unrestricted distance")
        if mode in ref:
            require(members == ref[mode], f"--{mode} set differs from the planted one")
        ref[mode + "_members"] = members

    return Command(["edit", path, f"--{mode}", "--json"], check)


def _edit_weighted(K, path: str, ref: dict) -> Command:
    def check(stdout: str) -> None:
        distance, (pick,) = ck.chain_set(K, json.loads(stdout))
        require(pick in ref["members"], "weighted pick is not in the optimum set")
        require(pick == ck.match_pref_pick(K, ref["members"]), "weighted pick is not the match-pref pick")

    return Command(["edit", path, "--weighted", "row-major", "--json"], check)


def _rank(K, path: str, ref: dict, operator: str) -> Command:
    pick = ck.match_pref_pick if operator.startswith("match-pref") else ck.monotone_pick

    def check(stdout: str) -> None:
        chain = ck.rank_answer(K, json.loads(stdout))
        require(chain in ref["members"], f"{operator} pick is not in the optimum set")
        require(chain == pick(K, ref["members"]), f"{operator} picked the wrong member")

    return Command(["rank", path, "-o", operator, "--json"], check)


def _extra(K, path: str, ref: dict, kind: str) -> Command:
    if kind in ("complete", "delete"):
        return _edit_restricted(K, path, ref, kind)
    if kind == "weighted":
        return _edit_weighted(K, path, ref)
    return _rank(K, path, ref, kind)


# -- edit-search: uniform random matrices whose smaller side is 7 or 8 --------

# half the inputs are 8x8 so that the median command falls inside the search-bound
# 8x8 cluster instead of the gap between it and the startup-bound 7-column inputs
SEARCH_SIZES = ((8, 8), (7, 7), (8, 8), (8, 7), (8, 8), (16, 8))
SEARCH_EXTRAS = ("complete", "delete", "weighted", "match-pref:row-major", "chain-min-mon")
WEIGHT_BIT_BUDGET = 120


def edit_search_unit(seed: int, u: int, workdir: Path, shared: dict) -> list[Command]:
    m, n = SEARCH_SIZES[u % len(SEARCH_SIZES)]
    K = _uniform(_rng("edit-search", seed, u), m, n)
    path = _write_csv(workdir / f"search-{u}.csv", K)
    ref: dict = {}
    cmds = [_edit_all(K, path, ref)]
    # shift by one each cycle so every size meets every extra command
    kind = SEARCH_EXTRAS[(u + u // len(SEARCH_SIZES)) % len(SEARCH_EXTRAS)]
    if kind != "weighted" or m * n <= WEIGHT_BIT_BUDGET:
        cmds.append(_extra(K, path, ref, kind))
    return cmds


def edit_search_probes(seed: int, workdir: Path) -> list[Command]:
    rng = _rng("edit-search", seed, "probe")
    small = _write_csv(workdir / "probe-7x7.csv", _uniform(rng, 7, 7))
    big = _write_csv(workdir / "probe-9x9.csv", _uniform(rng, 9, 9))
    bad = workdir / "probe-matrix5.json"
    bad.write_text(json.dumps({"rows": 1, "cols": 1, "matrix": 5}) + "\n")
    return [
        Command(["edit", small], exits=(2,), env={"CHAINRANK_ENUM_CAP": "abc"},
                probe="CHAINRANK_ENUM_CAP=abc exits 2"),
        Command(["edit", str(bad)], exits=(2,), probe='JSON "matrix": 5 exits 2'),
        Command(["--cap", "-1", "edit", small], exits=(2,), probe="--cap -1 exits 2"),
        Command(["edit", big], exits=(3,), probe="9x9 edit exits 3"),
    ]


# -- edit-members: planted chains with k adjacent-swap errors -----------------

# One size keeps the median command inside the cluster of like --all runs
# rather than at the gap between two sizes; 11 errors give 2048 members.
MEMBER_COLUMNS, MEMBER_ERRORS = 6, 11
MEMBER_EXTRAS = ("match-pref:row-major", "chain-min-mon", "complete", "delete")


def planted(rng: random.Random, n: int, k: int):
    """A chain over n columns observed with k adjacent-swap errors.

    Columns are listed in chain order; rows are shuffled. Every inner prefix
    p_1..p_{n-1} appears k+1 times, so any chain tournament within distance k
    keeps a copy of each and must use this column order. An error row
    p_i + {column i+2} is then one edit from exactly p_i and p_{i+2}, so the
    optimum set is every choice of those two per error row: 2^k members at
    distance k. Completion picks p_{i+2} and deletion p_i, uniquely.
    """
    prefix = [(1 << j) - 1 for j in range(n + 1)]
    rows = [(prefix[j],) for j in range(1, n) for _ in range(k + 1)]
    for _ in range(k):
        i = rng.randint(0, n - 2)
        rows.append((prefix[i] | 1 << (i + 1), prefix[i], prefix[i + 2]))
    rng.shuffle(rows)

    row_cells = {mask: tuple((mask >> b) & 1 for b in range(n)) for r in rows for mask in r}

    def cells(mask_row):
        return tuple(row_cells[mask] for mask in mask_row)

    K = cells(r[0] for r in rows)
    options = [r[1:] or r for r in rows]
    members = tuple(sorted(cells(choice) for choice in itertools.product(*options)))
    complete = (cells(o[-1] for o in options),)
    delete = (cells(o[0] for o in options),)
    return K, (k, members), complete, delete


def edit_members_unit(seed: int, u: int, workdir: Path, shared: dict) -> list[Command]:
    K, expected, complete, delete = planted(_rng("edit-members", seed, u), MEMBER_COLUMNS, MEMBER_ERRORS)
    path = _write_csv(workdir / f"members-{u}.csv", K)
    ref = {"expected": expected, "complete": complete, "delete": delete}
    kind = MEMBER_EXTRAS[u % len(MEMBER_EXTRAS)]
    return [_edit_all(K, path, ref), _extra(K, path, ref, kind)]


def edit_members_probes(seed: int, workdir: Path) -> list[Command]:
    # a fixed input: whether a random 50x8 exhausts memory today depends on the draw
    K = _uniform(_rng("edit-members", 0, "probe"), 50, 8)
    path = _write_csv(workdir / "probe-50x8.csv", K)

    def check(stdout: str) -> None:
        ck.chain_set(K, json.loads(stdout))

    return [Command(["edit", path, "--json"], check, exits=(0, 3), mem_limit=PROBE_MEM_LIMIT,
                    probe="50x8 edit within 512 MiB: exit 0 or 3")]


# -- mle: likelihood --mle on 4x4 and 5x4 ------------------------------------

MLE_SIZES = ((4, 4), (5, 4))
MLE_NOISE = ((0.1, 0.1), (0.3, 0.3), (0.1, 0.3), (0.0, 0.2), (0.2, 0.0))
LL_TOL = 1e-9


def _noise_args(ap: float, am: float) -> list[str]:
    if ap == am:
        return ["--beta", str(ap)]
    return ["--alpha-plus", str(ap), "--alpha-minus", str(am)]


def _mle(K, path: str, ref: dict, ap: float, am: float) -> Command:
    def check(stdout: str) -> None:
        data = json.loads(stdout)
        raw = data.get("mle")
        require(isinstance(raw, list) and raw, "mle must be a non-empty list")
        members = tuple(ck.matrix(M, len(K), len(K[0])) for M in raw)
        require(all(a < b for a, b in zip(members, members[1:])), "MLE members not distinct and sorted")
        require(all(ck.is_chain(M) for M in members), "MLE member is not a chain tournament")
        require(data.get("min_distance") == ref["distance"], "min_distance differs from edit --all")
        same = set(members) == set(ref["members"])
        require(data.get("equals_min_chain_set") is same, "equals_min_chain_set is wrong")
        if ap == am:
            require(same, "symmetric-noise MLE set differs from the closest chain set")
        elif ap == 0.0:
            require(members == ref["complete_members"], "alpha+=0 MLE set differs from the completion set")
        elif am == 0.0:
            require(members == ref["delete_members"], "alpha-=0 MLE set differs from the deletion set")
        scores = [ck.log_likelihood(K, M, ap, am) for M in members]
        best = max(scores)
        require(min(scores) >= best - LL_TOL, "MLE members have unequal likelihoods")
        for key in ("members", "complete_members", "delete_members"):
            for M in ref[key]:
                require(ck.log_likelihood(K, M, ap, am) <= best + LL_TOL, "a chain tournament beats the MLE set")

    return Command(["likelihood", path, "--mle", *_noise_args(ap, am), "--json"], check)


def _state(rng: random.Random, K, path: str, state_path: Path, ap: float, am: float) -> Command:
    m, n = len(K), len(K[0])
    order = list(range(n))
    rng.shuffle(order)
    prefixes = [sum(1 << c for c in order[:j]) for j in range(n + 1)]
    chain = tuple(tuple((p >> b) & 1 for b in range(n)) for p in (rng.choice(prefixes) for _ in range(m)))
    x, y = ck.canonical_state(chain)
    state_path.write_text(json.dumps({"x": x, "y": y}) + "\n")
    truth = ck.state_tournament(x, y)

    def check(stdout: str) -> None:
        data = json.loads(stdout)
        ll = ck.log_likelihood(K, truth, ap, am)
        if ll == float("-inf"):
            require(data.get("log_likelihood") is None and data.get("likelihood") == 0.0, "impossible observation")
        else:
            require(abs(data["log_likelihood"] - ll) <= LL_TOL, "log-likelihood is wrong")
            prob = math.exp(ll)
            require(abs(data["likelihood"] - prob) <= LL_TOL * prob, "likelihood is wrong")

    return Command(["likelihood", path, "--state", str(state_path), *_noise_args(ap, am), "--json"], check)


def mle_unit(seed: int, u: int, workdir: Path, shared: dict) -> list[Command]:
    """One noise setting on one size; each size's input and references are made once per run."""
    m, n = MLE_SIZES[u % len(MLE_SIZES)]
    ap, am = MLE_NOISE[(u // len(MLE_SIZES)) % len(MLE_NOISE)]
    cmds = []
    if (m, n) not in shared:
        K = _uniform(_rng("mle", seed, f"{m}x{n}"), m, n)
        path = _write_csv(workdir / f"mle-{m}x{n}.csv", K)
        ref: dict = {}
        shared[m, n] = K, path, ref
        cmds += [_edit_all(K, path, ref), _edit_restricted(K, path, ref, "complete"),
                 _edit_restricted(K, path, ref, "delete")]
    K, path, ref = shared[m, n]
    return cmds + [
        _mle(K, path, ref, ap, am),
        _state(_rng("mle", seed, u), K, path, workdir / f"mle-{u}-state.json", ap, am),
    ]


def mle_probes(seed: int, workdir: Path) -> list[Command]:
    K = _uniform(_rng("mle", 0, "probe"), 20, 2)
    path = _write_csv(workdir / "probe-20x2.csv", K)

    def check(stdout: str) -> None:
        data = json.loads(stdout)
        members = [ck.matrix(M, 20, 2) for M in data["mle"]]
        require(all(ck.is_chain(M) for M in members), "MLE member is not a chain tournament")
        require(data.get("equals_min_chain_set") is True, "symmetric-noise MLE set differs from minCh")

    return [Command(["likelihood", path, "--mle", "--beta", "0.1", "--json"], check, exits=(0, 3),
                    mem_limit=PROBE_MEM_LIMIT, probe="20x2 likelihood --mle within 512 MiB: exit 0 or 3")]


# -- sweep: simulate plus the axiom lab -------------------------------------

SWEEP_OPERATORS = ("count", "ci", "chain-min-lex", "chain-min-mon", "match-pref:row-major")
SWEEP_TRIALS = 20
AXIOMS = ["anon", "dual", "iim", "mon", "pos-resp", "chain-min", "chain-def"]


def _same_as_before(shared: dict, key: str, stdout: str) -> None:
    require(shared.setdefault(key, stdout) == stdout, f"{key} output changed between identical runs")


def _simulate(shared: dict, sim_seed: int) -> Command:
    args = ["simulate", "--m", "6", "--n", "6", "--beta", "0.1", "--operators", ",".join(SWEEP_OPERATORS),
            "--trials", str(SWEEP_TRIALS), "--seed", str(sim_seed), "--json"]

    def check(stdout: str) -> None:
        _same_as_before(shared, f"simulate --seed {sim_seed}", stdout)
        data = json.loads(stdout)
        require(data["config"]["operators"] == list(SWEEP_OPERATORS), "operators echoed wrongly")
        require(data["config"]["trials"] == SWEEP_TRIALS, "trials echoed wrongly")
        res = data["results"]
        for op in SWEEP_OPERATORS:
            require(0.0 <= res[op]["exact_match"] <= 1.0, "exact_match outside [0, 1]")
            require(-1.0 <= res[op]["tie_aware_rank_correlation"] <= 1.0, "rank correlation outside [-1, 1]")
        require(res["count"]["edit_cost"] is None, "count has no edit chain")
        exact = res["chain-min-lex"]["edit_cost"]
        require(res["chain-min-mon"]["edit_cost"] == exact == res["match-pref:row-major"]["edit_cost"],
                "exact operators disagree on the optimum distance")
        require(res["ci"]["edit_cost"] >= exact, "ci's greedy chain beat the optimum")

    return Command(args, check)


def _axioms_scope(shared: dict) -> Command:
    def check(stdout: str) -> None:
        _same_as_before(shared, "axioms --scope", stdout)
        verdicts = json.loads(stdout)
        require([v["axiom"] for v in verdicts] == AXIOMS, "axiom verdicts missing or out of order")
        require(all(v["operator"] == "chain-min-lex" and v["checked"] > 0 for v in verdicts), "empty verdict")
        require(verdicts[AXIOMS.index("chain-min")]["holds"] is True, "chain-min-lex is not chain-minimal")

    return Command(["axioms", "-o", "chain-min-lex", "--scope", "2x2,2x3,3x3"], check)


def _paper_suite(shared: dict) -> Command:
    def check(stdout: str) -> None:
        _same_as_before(shared, "axioms --paper-suite", stdout)
        require(json.loads(stdout)["ok"] is True, "counterexample suite deviates from its predictions")

    return Command(["axioms", "--paper-suite", "--json"], check)


def sweep_unit(seed: int, u: int, workdir: Path, shared: dict) -> list[Command]:
    # each simulate invocation runs twice; the shorter axiom commands take turns
    # every third unit, so the median and tail commands both fall among the simulates
    sim = _simulate(shared, _rng("sweep", seed, u).randrange(1 << 31))
    if u % 3 == 0:
        return [sim, sim, _axioms_scope(shared)]
    if u % 3 == 1:
        return [sim, sim, _paper_suite(shared)]
    return [sim, sim]


@dataclass(frozen=True)
class Workload:
    """A run does round(seconds / unit_s) units; unit_s is a unit's nominal cost when recorded."""

    name: str
    unit_s: float
    unit: Callable[[int, int, Path, dict], list[Command]]
    probes: Callable[[int, Path], list[Command]] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("edit-search", 1.8, edit_search_unit, edit_search_probes),
        Workload("edit-members", 1.9, edit_members_unit, edit_members_probes),
        Workload("mle", 2.2, mle_unit, mle_probes),
        Workload("sweep", 1.8, sweep_unit),
    )
}
