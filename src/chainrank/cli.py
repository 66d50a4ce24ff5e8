"""Command-line interface.

Subcommands: rank, edit, axioms, simulate, likelihood, weights.
Exit codes: 0 ok, 2 input error, 3 resource cap exceeded, 4 internal assertion.
The enumeration cap for exact chain editing defaults to 8 on the smaller side
and can be overridden with the CHAINRANK_ENUM_CAP environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING

# each subcommand imports the engine it runs, so a command loads only that
from . import fileio
from .core import (
    OPERATOR_NAMES,
    RankingPair,
    TotalPreorder,
    _Value,
    chain_rankings,
    format_preorder,
    hamming,
)
from .errors import AmbiguityError, ContractError, InputError, ResourceCapError

if TYPE_CHECKING:
    from .prob_model import NoiseParams

ALL_METRICS = ("exact_match", "tie_aware_rank_correlation", "edit_cost")


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


def _print_pair(pair: RankingPair, a_labels=None, b_labels=None) -> None:
    print("A:", format_preorder(pair.a_order, labels=a_labels))
    print("B:", format_preorder(pair.b_order, strict="⊏", labels=b_labels))


def _ranks_json(order: TotalPreorder) -> list[list[int]]:
    return [sorted(rank) for rank in order.ranks]


def _cells_json(M) -> list[list[int]]:
    return [list(row) for row in M.cells]


def _render_members(members, cols: int, cell_sep: str, row_sep: str) -> list[str]:
    """Each member as text, every distinct row mask rendered once and shared by all."""
    rows = {
        mask: cell_sep.join(str(mask >> b & 1) for b in range(cols))
        for mask in set().union(*(M.row_masks for M in members))
    }
    return [row_sep.join(map(rows.__getitem__, M.row_masks)) for M in members]


def _print_members(members, cols: int) -> None:
    """print("-"); print(M) for every member, without going through Tournament.__str__."""
    sys.stdout.write("".join(f"-\n{text}\n" for text in _render_members(members, cols, " ", "\n")))


def _members_json(members, cols: int) -> str:
    """json.dumps of every member's cell lists, every distinct row encoded once."""
    texts = _render_members(members, cols, ", ", "], [")
    return "[" + ", ".join(f"[[{text}]]" for text in texts) + "]"


def cmd_rank(args) -> int:
    from .operators import resolve_operator

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
            "chain": _cells_json(chain) if chain else None,
            "distance": hamming(K, chain) if chain else None,
        }
        print(json.dumps(out, sort_keys=True))
        return 0
    print(f"operator: {spec.name}")
    _print_pair(pair, tf.a_labels, tf.b_labels)
    if chain is not None:
        print(f"selected chain tournament (distance {hamming(K, chain)}):")
        print(chain)
    return 0


def cmd_edit(args) -> int:
    from .chain_edit import chain_completion, chain_deletion, min_chain_set, weighted_min_chain

    cap = _enum_cap(args)
    K = fileio.load_tournament(args.input).tournament
    if args.weighted:
        from .match_pref import parse_order_name, weights_for

        pref = parse_order_name(args.weighted)
        selected = weighted_min_chain(K, weights_for(pref, K.rows, K.cols), cap)
        if args.json:
            out = {
                "distance": hamming(K, selected),
                "members": [_cells_json(selected)],
            }
            print(json.dumps(out, sort_keys=True))
            return 0
        print(f"weighted selection (distance {hamming(K, selected)}):")
        print(selected)
        return 0
    if args.complete:
        result = chain_completion(K, cap)
    elif args.delete:
        result = chain_deletion(K, cap)
    else:
        result = min_chain_set(K, cap)
    if args.json:
        # json.dumps({"distance": ..., "members": ...}, sort_keys=True)
        print(f'{{"distance": {result.distance}, "members": {_members_json(result.members, K.cols)}}}')
        return 0
    print(f"distance: {result.distance}")
    print(f"members: {len(result.members)}")
    _print_members(result.members, K.cols)
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
    from dataclasses import replace

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
    # the checks revisit the same tournaments: solve each one once across all seven
    spec = replace(spec, evaluate=axiom_lab._memo_eval(spec))
    scope = axiom_lab.Scope(exhaustive=_parse_scope(args.scope))
    verdicts = [
        axiom_lab.check_anon(spec, scope),
        axiom_lab.check_dual(spec, scope),
        axiom_lab.check_iim(spec, scope),
        axiom_lab.check_mon(spec, scope),
        axiom_lab.check_pos_resp(spec, scope),
        axiom_lab.check_chain_min_scope(spec, scope, cap),
        axiom_lab.check_chain_def_scope(spec, scope),
    ]
    print(json.dumps([v.to_json() for v in verdicts], sort_keys=True, indent=2))
    return 0


def kendall_tau_b(p: TotalPreorder, q: TotalPreorder) -> float:
    """Tie-aware rank correlation over the pair classification of two preorders."""
    ranks = [(p.rank_of(x), q.rank_of(x)) for x in sorted(p.players)]
    concordant = discordant = ties_p = ties_q = total = 0
    for i, (px, qx) in enumerate(ranks):
        for py, qy in ranks[i + 1 :]:
            total += 1
            sp = (px > py) - (px < py)
            sq = (qx > qy) - (qx < qy)
            if sp == 0:
                ties_p += 1
            if sq == 0:
                ties_q += 1
            if sp and sq:
                if sp == sq:
                    concordant += 1
                else:
                    discordant += 1
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
    metrics: tuple[str, ...]

    def __init__(
        self,
        m: int,
        n: int,
        alpha: NoiseParams,
        operator_names: tuple[str, ...],
        trials: int,
        seed: int,
        metrics: tuple[str, ...] = ALL_METRICS,
    ):
        if trials < 1:
            raise InputError("trials must be at least 1")
        for metric in metrics:
            if metric not in ALL_METRICS:
                raise InputError(f"unknown metric {metric!r}")
        self._init(m, n, alpha, operator_names, trials, seed, metrics)


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


def run_simulation(config: ExperimentConfig, cap: int | None = None, workers: int = 1):
    """Mean metric per operator; per-trial RNG streams derive from (seed, trial).

    Trials run one after another whatever workers is (at least 1): they are
    pure-Python work under one interpreter lock, where threads add only
    overhead, and a trial's exact operators share the solve of its tournament.
    """
    from .operators import resolve_operator

    if workers < 1:
        raise InputError(f"workers must be at least 1, not {workers}")
    specs = [resolve_operator(name, cap) for name in config.operator_names]
    rows = [_run_trial(config, specs, t) for t in range(config.trials)]
    results: dict[str, dict[str, float | None]] = {}
    for spec in specs:
        aggregated: dict[str, float | None] = {}
        for metric in config.metrics:
            values = [row[spec.name][metric] for row in rows]
            aggregated[metric] = (
                None if values[0] is None else sum(values) / len(values)
            )
        results[spec.name] = aggregated
    return results


def _format_value(value) -> str:
    return "n/a" if value is None else f"{value:.6f}"


def cmd_simulate(args) -> int:
    from .prob_model import NoiseParams

    cap = _enum_cap(args)
    if args.beta is not None:
        alpha = NoiseParams.symmetric(args.beta)
    else:
        alpha = NoiseParams(args.alpha_plus, args.alpha_minus)
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
    results = run_simulation(config, cap, workers=args.workers)
    header = ["operator", *config.metrics]
    lines = [
        f"m={config.m} n={config.n} alpha=({alpha.alpha_plus},{alpha.alpha_minus}) "
        f"trials={config.trials} seed={config.seed}"
    ]
    lines.append("  ".join(header))
    for name in config.operator_names:
        row = [name] + [_format_value(results[name][metric]) for metric in config.metrics]
        lines.append("  ".join(row))
    text = "\n".join(lines)
    if args.csv:
        rows = [header] + [
            [name] + ["" if results[name][m] is None else f"{results[name][m]:.6f}" for m in config.metrics]
            for name in config.operator_names
        ]
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("".join(",".join(row) + "\n" for row in rows))
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
        print(text)
    return 0


def cmd_likelihood(args) -> int:
    from .chain_edit import min_chain_set
    from .prob_model import (
        NoiseParams,
        likelihood,
        log_likelihood,
        mle_is_min_chain_set,
        mle_search,
    )

    cap = _enum_cap(args)
    K = fileio.load_tournament(args.input).tournament
    if args.beta is not None:
        alpha = NoiseParams.symmetric(args.beta)
    else:
        alpha = NoiseParams(args.alpha_plus, args.alpha_minus)
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
    if mle_is_min_chain_set(alpha):
        # the MLE set is the closest chain tournaments: expand it once
        exact = min_chain_set(K, cap)
        members = exact.members
    else:
        members = mle_search(K, alpha, cap)
        exact = min_chain_set(K, cap)
    same = members is exact.members or set(members) == set(exact.members)
    note = (
        "= minCh(K): MLE set coincides with the closest chain tournaments"
        if same
        else "!= minCh(K): MLE set differs from the closest chain tournaments"
    )
    if args.json:
        # json.dumps({"mle": ..., "equals_min_chain_set": ..., "min_distance": ...}, sort_keys=True)
        print(
            f'{{"equals_min_chain_set": {json.dumps(same)}, "min_distance": {exact.distance}, '
            f'"mle": {_members_json(members, K.cols)}}}'
        )
        return 0
    print(f"MLE tournaments: {len(members)}  [{note}]")
    _print_members(members, K.cols)
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
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AmbiguityError, ContractError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
