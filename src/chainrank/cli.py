"""Command-line interface.

Subcommands: rank, edit, axioms, simulate, likelihood, weights.
Exit codes: 0 ok, 1 standard output closed early (nothing is written to
stderr), 2 input error, 3 resource cap exceeded, 4 internal assertion.
The enumeration cap for exact chain editing defaults to 8 on the smaller side
and can be overridden with the CHAINRANK_ENUM_CAP environment variable.
main returns the exit code; the process entry, chainrank.__main__.run, exits
with it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import TYPE_CHECKING

# each subcommand imports the engine it runs, and the file reader if it reads
# a file, so a command loads only those
from .core import OPERATOR_NAMES, _Value, chain_rankings, hamming
from .errors import AmbiguityError, ContractError, InputError, ResourceCapError

if TYPE_CHECKING:
    from .prob_model import NoiseParams
    from .rankings import TotalPreorder

ALL_METRICS = ("exact_match", "tie_aware_rank_correlation", "edit_cost")
# most cells m x n a simulated tournament may hold; at 262,144x8, five
# operators take about 330 MB
SIMULATE_CELL_CAP = 1 << 21


def _enum_cap(args) -> int | None:
    if args.cap is not None:
        cap = args.cap
    else:
        env = os.environ.get("CHAINRANK_ENUM_CAP")
        if not env:
            return None
        try:
            cap = int(env)
        except ValueError:
            raise InputError(f"CHAINRANK_ENUM_CAP must be a whole number, not {env!r}") from None
    if cap < 1:
        raise InputError(f"the enumeration cap must be at least 1, not {cap}")
    return cap


def _ranks_json(order: TotalPreorder) -> list[list[int]]:
    return [sorted(rank) for rank in order.ranks]


def _count(blocks) -> int:
    """How many members the blocks of a listing (see chain_edit._expand) stand for."""
    return sum(math.prod(map(len, block)) for block in blocks)


def _write_members(blocks, cols: int, head: dict | None = None, key: str = "") -> None:
    """Write the members the blocks of a listing stand for, without building them.

    With head, the output is json.dumps({**head, key: [every member's cell
    lists]}, sort_keys=True) and a newline, for a key that sorts after every
    field of head; without, print("-"); print(M) per member. Each distinct
    row mask is rendered once, each run of a block's rows that have one
    choice is joined once, and one product over the rows that have several
    gives the block's members.
    """
    sep, between_rows = (", ", "], [") if head else (" ", "\n")
    opening, closing, between = ("[[", "]]", ", ") if head else ("-\n", "\n", "")
    text = functools.cache(lambda mask: sep.join(str(mask >> b & 1) for b in range(cols)))
    write = sys.stdout.write
    if head:
        write(f'{json.dumps(head, sort_keys=True)[:-1]}, "{key}": [')
    lead = ""
    for block in blocks:
        parts, run = [], []  # each part: the texts its rows may take
        for choices in block:
            if len(choices) == 1:
                run.append(text(choices[0]))
                continue
            if run:
                parts.append((between_rows.join(run),))
                run = []
            parts.append(tuple(map(text, choices)))
        if run:
            parts.append((between_rows.join(run),))
        for rows in itertools.product(*parts):
            write(f"{lead}{opening}{between_rows.join(rows)}{closing}")
            lead = between
    if head:
        write("]}\n")


def cmd_rank(args) -> int:
    from . import fileio
    from .operators import resolve_operator
    from .rankings import format_ranking_pair

    cap = _enum_cap(args)
    spec = resolve_operator(args.operator, cap)
    tf = fileio.load_tournament(args.input)
    K = tf.tournament
    pair = spec.evaluate(K)
    chain = spec.choice(K) if spec.choice else None
    if args.json:
        out = {
            "operator": spec.name,
            "a_ranks": _ranks_json(pair.a_order),
            "b_ranks": _ranks_json(pair.b_order),
            "chain": chain.cells if chain else None,
            "distance": hamming(K, chain) if chain else None,
        }
        print(json.dumps(out, sort_keys=True))
        return 0
    print(f"operator: {spec.name}")
    print(format_ranking_pair(pair, tf.a_labels, tf.b_labels))
    if chain is not None:
        print(f"selected chain tournament (distance {hamming(K, chain)}):")
        print(chain)
    return 0


def cmd_edit(args) -> int:
    from . import fileio
    from .chain_edit import _COMPLETE, _DELETE, _EDIT, _optimum

    cap = _enum_cap(args)
    K = fileio.load_tournament(args.input).tournament
    if args.weighted:
        # the unique weighted optimum is the match-preference pick, which needs no weights
        from .match_pref import parse_order_name, select_match_pref

        selected = select_match_pref(K, parse_order_name(args.weighted), cap)
        if args.json:
            block = tuple(zip(selected.row_masks))  # a single choice in every row
            _write_members([block], K.cols, {"distance": hamming(K, selected)}, "members")
            return 0
        print(f"weighted selection (distance {hamming(K, selected)}):")
        print(selected)
        return 0
    cost = _COMPLETE if args.complete else _DELETE if args.delete else _EDIT
    distance, blocks = _optimum(K, cost, cap)
    blocks = list(blocks)  # a listing over MEMBER_CAP is refused here, before any output
    if args.json:
        _write_members(blocks, K.cols, {"distance": distance}, "members")
        return 0
    print(f"distance: {distance}")
    print(f"members: {_count(blocks)}")
    _write_members(blocks, K.cols)
    return 0


def _parse_scope(spec: str) -> tuple[tuple[int, int], ...]:
    sizes = []
    for part in spec.split(","):
        part = part.strip().lower()
        try:
            m, n = part.split("x")
            sizes.append((int(m), int(n)))
        except ValueError:
            raise InputError(f"bad scope entry {part!r}; expected like 2x3") from None
    return tuple(sizes)


def cmd_axioms(args) -> int:
    from . import axiom_lab
    from .operators import resolve_operator

    cap = _enum_cap(args)
    if args.paper_suite:
        report = axiom_lab.impossibility_suite(cap)
        if args.json:
            print(json.dumps(report.to_json(), sort_keys=True))
        else:
            for row in report.rows:
                status = "ok" if row.ok else "UNEXPECTED"
                print(
                    f"[{status}] {row.label}: {row.operator} / {row.axiom} -> "
                    f"holds={row.verdict.holds} (expected {row.expected_holds})"
                )
            print("suite:", "ok" if report.ok else "DEVIATES FROM PREDICTIONS")
        if not report.ok:
            for row in report.failures:
                print(json.dumps(row.verdict.to_json(), sort_keys=True), file=sys.stderr)
            return 4
        return 0
    spec = resolve_operator(args.operator, cap)
    scope = axiom_lab.Scope(exhaustive=_parse_scope(args.scope))
    verdicts = axiom_lab.scope_verdicts(spec, scope, cap)
    print(json.dumps([v.to_json() for v in verdicts], sort_keys=True, indent=2))
    return 0


def kendall_tau_b(p: TotalPreorder, q: TotalPreorder) -> float:
    """Tie-aware rank correlation over the pair classification of two preorders
    of the same players.

    The players are counted per cell (rank in p, rank in q). Two players of
    different cells are concordant or discordant by the sign of
    (px - py)(qx - qy), so each pair of cells adds the product of their
    counts, and a preorder's ties are the pairs within each of its ranks.
    That is linear in the players and quadratic in the distinct cells, of
    which there are at most as many as players.
    """
    cells: dict[tuple[int, int], int] = {}
    for px, rank in enumerate(p.ranks):
        for x in rank:
            key = (px, q.rank_of(x))
            cells[key] = cells.get(key, 0) + 1
    counted = list(cells.items())
    concordant = discordant = 0
    for i, ((px, qx), cx) in enumerate(counted):
        for (py, qy), cy in counted[i + 1 :]:
            sign = (px - py) * (qx - qy)
            if sign > 0:
                concordant += cx * cy
            elif sign < 0:
                discordant += cx * cy
    total = len(p.players) * (len(p.players) - 1) // 2
    ties_p, ties_q = (sum(len(r) * (len(r) - 1) // 2 for r in o.ranks) for o in (p, q))
    denom = math.sqrt((total - ties_p) * (total - ties_q))
    if denom == 0:
        return 0.0
    return (concordant - discordant) / denom


class ExperimentConfig(_Value):
    m: int
    n: int
    alpha: NoiseParams
    operator_names: tuple[str, ...]
    trials: int
    seed: int
    metrics: tuple[str, ...] = ALL_METRICS

    def _check(self) -> None:
        if self.trials < 1:
            raise InputError("trials must be at least 1")
        # a size below 1x1 is refused as an input error when sampling
        if min(self.m, self.n) > 0 and self.m * self.n > SIMULATE_CELL_CAP:
            raise ResourceCapError(
                f"simulate {self.m}x{self.n} holds {self.m * self.n} cells, "
                f"over the cap of {SIMULATE_CELL_CAP}"
            )
        for metric in self.metrics:
            if metric not in ALL_METRICS:
                raise InputError(f"unknown metric {metric!r}")
        for kind, names in (("operator", self.operator_names), ("metric", self.metrics)):
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise InputError(f"{kind} {name!r} is listed more than once")


def _run_trial(config: ExperimentConfig, specs, trial: int) -> dict:
    from .prob_model import derive_seed, k_theta, sample_state, sample_tournament

    theta = sample_state(config.m, config.n, derive_seed(config.seed, trial, 0))
    observed = sample_tournament(theta, config.alpha, derive_seed(config.seed, trial, 1))
    truth = chain_rankings(k_theta(theta))
    row: dict = {}
    for spec in specs:
        predicted = spec.evaluate(observed)
        values: dict = {}
        if "exact_match" in config.metrics:
            values["exact_match"] = 1.0 if predicted == truth else 0.0
        if "tie_aware_rank_correlation" in config.metrics:
            values["tie_aware_rank_correlation"] = 0.5 * (
                kendall_tau_b(truth.a_order, predicted.a_order)
                + kendall_tau_b(truth.b_order, predicted.b_order)
            )
        if "edit_cost" in config.metrics:
            values["edit_cost"] = (
                float(hamming(observed, spec.edit_chain(observed)))
                if spec.edit_chain
                else None
            )
        row[spec.name] = values
    return row


def run_simulation(config: ExperimentConfig, cap: int | None = None):
    """Mean metric per operator; per-trial RNG streams derive from (seed, trial)."""
    from .operators import resolve_operator

    specs = [resolve_operator(name, cap) for name in config.operator_names]
    # a running total per operator and metric, added in trial order from 0 as
    # sum() adds before Python 3.12, so the means are bit-identical on every
    # version and memory does not grow with the trials
    totals = {spec.name: dict.fromkeys(config.metrics, 0) for spec in specs}
    for trial in range(config.trials):
        for name, values in _run_trial(config, specs, trial).items():
            total = totals[name]
            for metric, value in values.items():
                total[metric] = None if value is None else total[metric] + value
    return {
        name: {metric: None if t is None else t / config.trials for metric, t in total.items()}
        for name, total in totals.items()
    }


def _noise(args) -> NoiseParams:
    from .prob_model import NoiseParams

    if args.beta is not None:
        return NoiseParams.symmetric(args.beta)
    return NoiseParams(args.alpha_plus, args.alpha_minus)


def cmd_simulate(args) -> int:
    cap = _enum_cap(args)
    alpha = _noise(args)
    metrics = tuple(args.metrics.split(",")) if args.metrics else ALL_METRICS
    config = ExperimentConfig(
        m=args.m,
        n=args.n,
        alpha=alpha,
        operator_names=tuple(args.operators.split(",")),
        trials=args.trials,
        seed=args.seed,
        metrics=metrics,
    )
    # --workers is checked but unused: trials are pure-Python work under one
    # interpreter lock, where threads add only overhead, and a trial's exact
    # operators share the solve of its tournament, so trials run serially
    if args.workers < 1:
        raise InputError(f"workers must be at least 1, not {args.workers}")
    results = run_simulation(config, cap)
    header = ["operator", *config.metrics]
    # each operator's means to six places, empty where a metric does not apply
    rows = [
        [name, *("" if results[name][m] is None else f"{results[name][m]:.6f}" for m in config.metrics)]
        for name in config.operator_names
    ]
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("".join(",".join(row) + "\n" for row in [header, *rows]))
        except OSError as exc:
            raise InputError(f"cannot write {args.csv}: {exc}") from exc
    if args.json:
        out = {
            "config": {
                "m": config.m,
                "n": config.n,
                "alpha_plus": alpha.alpha_plus,
                "alpha_minus": alpha.alpha_minus,
                "operators": list(config.operator_names),
                "trials": config.trials,
                "seed": config.seed,
                "metrics": list(config.metrics),
            },
            "results": results,
        }
        print(json.dumps(out, sort_keys=True))
    else:
        print(
            f"m={config.m} n={config.n} alpha=({alpha.alpha_plus},{alpha.alpha_minus}) "
            f"trials={config.trials} seed={config.seed}"
        )
        for row in [header, *rows]:
            print("  ".join(value or "n/a" for value in row))
    return 0


def cmd_likelihood(args) -> int:
    from . import fileio
    from .prob_model import closest_chain_cost, likelihood, log_likelihood, mle_optimum

    cap = _enum_cap(args)
    K = fileio.load_tournament(args.input).tournament
    alpha = _noise(args)
    if args.state:
        theta = fileio.load_state(args.state)
        prob = likelihood(K, theta, alpha)
        ll = log_likelihood(K, theta, alpha)
        if args.json:
            print(
                json.dumps(
                    {"likelihood": prob, "log_likelihood": None if ll == -math.inf else ll},
                    sort_keys=True,
                )
            )
        else:
            print(f"likelihood: {prob!r}")
            print(f"log-likelihood: {ll!r}")
        return 0
    cost, blocks = mle_optimum(K, alpha, cap)
    blocks = list(blocks)
    distance, worst = closest_chain_cost(K, alpha, cost, cap)
    # the sets are equal when no closest chain tournament costs more than the
    # MLE set, and no block of the MLE set holds one farther than the distance
    far = (sum(max((c ^ r).bit_count() for c in cs) for cs, r in zip(block, K.row_masks)) for block in blocks)
    same = worst == cost and max(far) == distance
    note = (
        "= minCh(K): MLE set coincides with the closest chain tournaments"
        if same
        else "!= minCh(K): MLE set differs from the closest chain tournaments"
    )
    if args.json:
        head = {"equals_min_chain_set": same, "min_distance": distance}
        _write_members(blocks, K.cols, head, "mle")
        return 0
    print(f"MLE tournaments: {_count(blocks)}  [{note}]")
    _write_members(blocks, K.cols)
    return 0


def cmd_weights(args) -> int:
    from .match_pref import parse_order_name, weight_fractions, weights_for

    pref = parse_order_name(args.order)
    fractions = weight_fractions(pref, args.m, args.n)
    if args.json:
        out = {
            "scaled": [list(r) for r in weights_for(pref, args.m, args.n)],
            "scale": 1 << (args.m * args.n),
            "weights": [[str(w) for w in row] for row in fractions],
        }
        print(json.dumps(out, sort_keys=True))
        return 0
    for row in fractions:
        print(" ".join(str(w) for w in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainrank",
        description="Rank both sides of a bipartite tournament via chain editing and its relaxations.",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        help="enumeration cap for exact chain editing (default 8, env CHAINRANK_ENUM_CAP)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="rank a tournament with a named operator")
    p_rank.add_argument("input", help="tournament file (csv or json)")
    p_rank.add_argument(
        "--operator", "-o", required=True, help=f"one of: {', '.join(OPERATOR_NAMES)}"
    )
    p_rank.add_argument("--json", action="store_true")
    p_rank.set_defaults(func=cmd_rank)

    p_edit = sub.add_parser("edit", help="exact chain editing")
    p_edit.add_argument("input")
    group = p_edit.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="all closest chain tournaments (default)")
    group.add_argument("--weighted", metavar="ORDER", help="unique weighted selection for a match-preference order")
    group.add_argument("--complete", action="store_true", help="edge additions only")
    group.add_argument("--delete", action="store_true", help="edge removals only")
    p_edit.add_argument("--json", action="store_true")
    p_edit.set_defaults(func=cmd_edit)

    p_ax = sub.add_parser("axioms", help="axiom verdicts over a scope, or the counterexample suite")
    p_ax.add_argument("--operator", "-o", default="ci")
    group = p_ax.add_mutually_exclusive_group(required=True)
    group.add_argument("--scope", help="exhaustive sizes, e.g. 2x2,2x3")
    group.add_argument(
        "--paper-suite",
        action="store_true",
        help="replay the built-in counterexample suite and verify every expected verdict",
    )
    p_ax.add_argument("--json", action="store_true")
    p_ax.set_defaults(func=cmd_axioms)

    p_sim = sub.add_parser("simulate", help="noise-channel recovery experiment")
    p_sim.add_argument("--m", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--beta", type=float, default=None, help="symmetric noise rate")
    p_sim.add_argument("--alpha-plus", type=float, default=0.0)
    p_sim.add_argument("--alpha-minus", type=float, default=0.0)
    p_sim.add_argument("--operators", required=True, help="comma-separated operator names")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--metrics", default=None, help=f"subset of {','.join(ALL_METRICS)}")
    p_sim.add_argument("--workers", type=int, default=1, help="at least 1; trials run serially")
    p_sim.add_argument("--csv", default=None, help="also write the table to this file")
    p_sim.add_argument("--json", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_lik = sub.add_parser("likelihood", help="likelihood of an observation, or its MLE set")
    p_lik.add_argument("input")
    group = p_lik.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="state file (JSON with x and y arrays)")
    group.add_argument("--mle", action="store_true")
    p_lik.add_argument("--beta", type=float, default=None)
    p_lik.add_argument("--alpha-plus", type=float, default=0.0)
    p_lik.add_argument("--alpha-minus", type=float, default=0.0)
    p_lik.add_argument("--json", action="store_true")
    p_lik.set_defaults(func=cmd_likelihood)

    p_w = sub.add_parser("weights", help="the exact weights realising a match-preference order")
    p_w.add_argument("--order", required=True, help="row-major or col-major")
    p_w.add_argument("--m", type=int, required=True)
    p_w.add_argument("--n", type=int, required=True)
    p_w.add_argument("--json", action="store_true")
    p_w.set_defaults(func=cmd_weights)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: what is still buffered goes nowhere,
        # so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AmbiguityError, ContractError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4

