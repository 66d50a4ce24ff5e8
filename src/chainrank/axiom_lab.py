"""Machine-checkable axiom verdicts and counterexample search.

Axioms quantified over the infinite tournament space are checked over a
declared finite scope (exhaustive small sizes, seeded random samples, or
explicit instances); every verdict carries its scope, so "holds" always means
"holds on this scope", never a proof. Failure verdicts carry a witness that
re-validates standalone through `recheck`.

Quantified checks enumerate tournaments in canonical order and return the
first violation found, so verdicts are deterministic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import match_pref as mp
from .chain_edit import min_chain_set
from .core import (
    RankingPair,
    Tournament,
    all_tournaments,
    chain_rankings,
    dual,
    permute,
    rank_count,
)
from .errors import InputError, ResourceCapError
from .interleave import is_chain_definable
from .operators import (
    OperatorSpec,
    chain_min_lex_operator,
    chain_min_mon_operator,
    ci_operator,
    count_operator,
    match_pref_operator,
    resolve_operator,
)

AXIOMS = ("anon", "dual", "iim", "mon", "pos-resp", "chain-min", "chain-def")

# most tournaments an exhaustive size may hold (2^(mn) for size m x n); the
# largest size of the impossibility suite, 4x3, holds exactly this many
EXHAUSTIVE_CAP = 1 << 12


@dataclass(frozen=True)
class Scope:
    """What a quantified axiom check ranges over."""

    exhaustive: tuple[tuple[int, int], ...] = ()
    random_sizes: tuple[tuple[int, int], ...] = ()
    random_count: int = 0
    seed: int = 0
    tournaments: tuple[Tournament, ...] = ()

    def __post_init__(self):
        for m, n in self.exhaustive:
            if m < 1 or n < 1:
                raise InputError(f"scope size {m}x{n} needs at least one row and one column")
            if m * n >= EXHAUSTIVE_CAP.bit_length():  # 2^(mn) > EXHAUSTIVE_CAP
                raise ResourceCapError(
                    f"exhaustive scope {m}x{n} holds 2^{m * n} tournaments, "
                    f"over the cap of {EXHAUSTIVE_CAP}"
                )

    def describe(self) -> str:
        parts = []
        if self.tournaments:
            parts.append(f"{len(self.tournaments)} explicit instance(s)")
        if self.exhaustive:
            parts.append(
                "exhaustive " + ", ".join(f"{m}x{n}" for m, n in self.exhaustive)
            )
        if self.random_sizes and self.random_count:
            sizes = ", ".join(f"{m}x{n}" for m, n in self.random_sizes)
            parts.append(f"{self.random_count} seeded random per {sizes} (seed {self.seed})")
        return "; ".join(parts) if parts else "empty scope"

    def iter_tournaments(self):
        yield from self.tournaments
        for m, n in self.exhaustive:
            yield from all_tournaments(m, n)
        if self.random_count:
            rng = random.Random(self.seed)
            for m, n in self.random_sizes:
                full = (1 << n) - 1
                for _ in range(self.random_count):
                    masks = tuple(rng.randint(0, full) for _ in range(m))
                    yield Tournament(m, n, masks)


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of one axiom check over one scope."""

    axiom: str
    operator: str
    holds: bool
    scope: str
    checked: int
    witness: dict | None = None

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "operator": self.operator,
            "holds": self.holds,
            "scope": self.scope,
            "checked": self.checked,
            "witness": self.witness,
        }


def _memo_eval(op: OperatorSpec):
    cache: dict[Tournament, RankingPair] = {}

    def ev(K: Tournament) -> RankingPair:
        pair = cache.get(K)
        if pair is None:
            pair = op.evaluate(K)
            cache[K] = pair
        return pair

    return ev


def _cells(K: Tournament) -> list[list[int]]:
    return [list(row) for row in K.cells]


# -- single-instance predicates (used by the scoped checks and by recheck) --


def anon_instance_violation(op, K, sigma, pi):
    """First (a, a2) row pair breaking label-invariance, or None."""
    ev = op.evaluate if isinstance(op, OperatorSpec) else op
    before = ev(K).a_order
    after = ev(permute(K, sigma, pi)).a_order
    for a in range(1, K.rows + 1):
        for a2 in range(1, K.rows + 1):
            if a == a2:
                continue
            if before.le(a, a2) != after.le(sigma[a - 1], sigma[a2 - 1]):
                return (a, a2)
    return None


def dual_instance_violation(op, K):
    """First (b, b2) pair where the B ranking disagrees with the dual's A ranking."""
    ev = op.evaluate if isinstance(op, OperatorSpec) else op
    b_order = ev(K).b_order
    dual_a_order = ev(dual(K)).a_order
    for b in range(1, K.cols + 1):
        for b2 in range(1, K.cols + 1):
            if b != b2 and b_order.le(b, b2) != dual_a_order.le(b, b2):
                return (b, b2)
    return None


def iim_instance_violates(op, K1, K2, a, a2) -> bool:
    """True when the relative ranking of a, a2 differs despite identical rows."""
    if K1.row_mask(a) != K2.row_mask(a) or K1.row_mask(a2) != K2.row_mask(a2):
        raise InputError(f"rows {a} and {a2} are not identical across the two tournaments")
    ev = op.evaluate if isinstance(op, OperatorSpec) else op
    p1, p2 = ev(K1), ev(K2)
    return (
        p1.a_order.le(a, a2) != p2.a_order.le(a, a2)
        or p1.a_order.le(a2, a) != p2.a_order.le(a2, a)
    )


def mon_instance_violation(op, K):
    """First (a, a2) with nested neighbourhoods ranked the wrong way, or None."""
    ev = op.evaluate if isinstance(op, OperatorSpec) else op
    pair = ev(K)
    for a in range(1, K.rows + 1):
        for a2 in range(1, K.rows + 1):
            if a == a2:
                continue
            nested = K.row_masks[a - 1] & K.row_masks[a2 - 1] == K.row_masks[a - 1]
            if nested and not pair.a_order.le(a, a2):
                return (a, a2)
    return None


def pos_resp_instance_violates(op, K, a, a2, b) -> bool:
    """True when granting a2 the extra win at (a2, b) fails to put it strictly above a."""
    if K.cell(a2, b) != 0:
        raise InputError(f"cell ({a2}, {b}) already holds a win")
    ev = op.evaluate if isinstance(op, OperatorSpec) else op
    if not ev(K).a_order.le(a, a2):
        raise InputError(f"{a} is not ranked weakly below {a2} in the base tournament")
    bumped = ev(K.with_cell(a2, b, 1)).a_order
    return not bumped.strictly_below(a, a2)


# -- scoped checks --


def check_anon(op: OperatorSpec, scope: Scope) -> AxiomVerdict:
    """Rankings must be invariant under relabelling both sides."""
    ev = _memo_eval(op)
    checked = 0
    for K in scope.iter_tournaments():
        base = ev(K).a_order
        for sigma in itertools.permutations(range(1, K.rows + 1)):
            for pi in itertools.permutations(range(1, K.cols + 1)):
                checked += 1
                after = ev(permute(K, sigma, pi)).a_order
                for a in range(1, K.rows + 1):
                    for a2 in range(1, K.rows + 1):
                        if a == a2:
                            continue
                        if base.le(a, a2) != after.le(sigma[a - 1], sigma[a2 - 1]):
                            witness = {
                                "tournament": _cells(K),
                                "sigma": list(sigma),
                                "pi": list(pi),
                                "pair": [a, a2],
                            }
                            return AxiomVerdict(
                                "anon", op.name, False, scope.describe(), checked, witness
                            )
    return AxiomVerdict("anon", op.name, True, scope.describe(), checked)


def check_dual(op: OperatorSpec, scope: Scope) -> AxiomVerdict:
    """The B ranking of K must equal the A ranking of the dual of K."""
    ev = _memo_eval(op)
    checked = 0
    for K in scope.iter_tournaments():
        checked += 1
        bad = dual_instance_violation(ev, K)
        if bad is not None:
            witness = {"tournament": _cells(K), "pair": list(bad)}
            return AxiomVerdict("dual", op.name, False, scope.describe(), checked, witness)
    return AxiomVerdict("dual", op.name, True, scope.describe(), checked)


def check_iim(op: OperatorSpec, scope: Scope, pairs=()) -> AxiomVerdict:
    """The relative ranking of two rows may depend only on those rows.

    Exhaustive sizes are checked by bucketing all tournaments on the contents
    of the two chosen rows; within a bucket the verdict for the pair must be
    constant. Sampled sizes draw a base tournament, a row pair, and a
    perturbation of the other rows. Explicit (K1, K2, a, a2) quadruples are
    checked directly.
    """
    ev = _memo_eval(op)
    checked = 0
    for K1, K2, a, a2 in pairs:
        checked += 1
        if iim_instance_violates(ev, K1, K2, a, a2):
            witness = {
                "tournament": _cells(K1),
                "tournament_2": _cells(K2),
                "pair": [a, a2],
            }
            return AxiomVerdict("iim", op.name, False, scope.describe(), checked, witness)
    for m, n in scope.exhaustive:
        space = list(all_tournaments(m, n))
        for a, a2 in itertools.combinations(range(1, m + 1), 2):
            buckets: dict[tuple[int, int], tuple[Tournament, tuple[bool, bool]]] = {}
            for K in space:
                checked += 1
                pair = ev(K)
                verdict = (pair.a_order.le(a, a2), pair.a_order.le(a2, a))
                key = (K.row_masks[a - 1], K.row_masks[a2 - 1])
                prior = buckets.get(key)
                if prior is None:
                    buckets[key] = (K, verdict)
                elif prior[1] != verdict:
                    witness = {
                        "tournament": _cells(prior[0]),
                        "tournament_2": _cells(K),
                        "pair": [a, a2],
                    }
                    return AxiomVerdict(
                        "iim", op.name, False, scope.describe(), checked, witness
                    )
    if scope.random_count:
        rng = random.Random(scope.seed)
        full = 0
        for m, n in scope.random_sizes:
            if m < 2:
                continue
            full = (1 << n) - 1
            for _ in range(scope.random_count):
                K1 = Tournament(m, n, tuple(rng.randint(0, full) for _ in range(m)))
                a, a2 = rng.sample(range(1, m + 1), 2)
                masks = [
                    mask if i + 1 in (a, a2) else rng.randint(0, full)
                    for i, mask in enumerate(K1.row_masks)
                ]
                K2 = Tournament(m, n, tuple(masks))
                checked += 1
                if iim_instance_violates(ev, K1, K2, a, a2):
                    witness = {
                        "tournament": _cells(K1),
                        "tournament_2": _cells(K2),
                        "pair": [a, a2],
                    }
                    return AxiomVerdict(
                        "iim", op.name, False, scope.describe(), checked, witness
                    )
    return AxiomVerdict("iim", op.name, True, scope.describe(), checked)


def check_mon(op: OperatorSpec, scope: Scope) -> AxiomVerdict:
    """A nested neighbourhood must never outrank its superset."""
    ev = _memo_eval(op)
    checked = 0
    for K in scope.iter_tournaments():
        checked += 1
        bad = mon_instance_violation(ev, K)
        if bad is not None:
            witness = {"tournament": _cells(K), "pair": list(bad)}
            return AxiomVerdict("mon", op.name, False, scope.describe(), checked, witness)
    return AxiomVerdict("mon", op.name, True, scope.describe(), checked)


def check_pos_resp(op: OperatorSpec, scope: Scope) -> AxiomVerdict:
    """An extra win must break ties in favour of the winner."""
    ev = _memo_eval(op)
    checked = 0
    for K in scope.iter_tournaments():
        pair = ev(K)
        for a2 in range(1, K.rows + 1):
            for b in range(1, K.cols + 1):
                if K.cell(a2, b) != 0:
                    continue
                bumped = None
                for a in range(1, K.rows + 1):
                    if a == a2 or not pair.a_order.le(a, a2):
                        continue
                    checked += 1
                    if bumped is None:
                        bumped = ev(K.with_cell(a2, b, 1)).a_order
                    if not bumped.strictly_below(a, a2):
                        witness = {
                            "tournament": _cells(K),
                            "pair": [a, a2],
                            "cell": [a2, b],
                        }
                        return AxiomVerdict(
                            "pos-resp", op.name, False, scope.describe(), checked, witness
                        )
    return AxiomVerdict("pos-resp", op.name, True, scope.describe(), checked)


def check_chain_min(op: OperatorSpec, K: Tournament, cap: int | None = None) -> AxiomVerdict:
    """The output must match the rankings of some closest chain tournament."""
    pair = op.evaluate(K)
    attainable = {chain_rankings(M) for M in min_chain_set(K, cap).members}
    holds = pair in attainable
    witness = None
    if not holds:
        witness = {
            "tournament": _cells(K),
            "a_ranks": [sorted(r) for r in pair.a_order.ranks],
            "b_ranks": [sorted(r) for r in pair.b_order.ranks],
        }
    return AxiomVerdict(
        "chain-min", op.name, holds, f"single instance {K.rows}x{K.cols}", 1, witness
    )


def check_chain_def(op: OperatorSpec, K: Tournament) -> AxiomVerdict:
    """The two rank counts may differ by at most one."""
    pair = op.evaluate(K)
    holds = is_chain_definable(pair)
    witness = None
    if not holds:
        witness = {
            "tournament": _cells(K),
            "rank_counts": [rank_count(pair.a_order), rank_count(pair.b_order)],
        }
    return AxiomVerdict(
        "chain-def", op.name, holds, f"single instance {K.rows}x{K.cols}", 1, witness
    )


def check_chain_min_scope(op: OperatorSpec, scope: Scope, cap: int | None = None) -> AxiomVerdict:
    checked = 0
    for K in scope.iter_tournaments():
        checked += 1
        verdict = check_chain_min(op, K, cap)
        if not verdict.holds:
            return AxiomVerdict(
                "chain-min", op.name, False, scope.describe(), checked, verdict.witness
            )
    return AxiomVerdict("chain-min", op.name, True, scope.describe(), checked)


def check_chain_def_scope(op: OperatorSpec, scope: Scope) -> AxiomVerdict:
    checked = 0
    for K in scope.iter_tournaments():
        checked += 1
        verdict = check_chain_def(op, K)
        if not verdict.holds:
            return AxiomVerdict(
                "chain-def", op.name, False, scope.describe(), checked, verdict.witness
            )
    return AxiomVerdict("chain-def", op.name, True, scope.describe(), checked)


def recheck(op: OperatorSpec, verdict: AxiomVerdict) -> bool:
    """Re-run a failure verdict's witness standalone; True = violation reproduced."""
    w = verdict.witness
    if w is None:
        raise InputError("verdict carries no witness")
    K = Tournament.from_cells(w["tournament"])
    if verdict.axiom == "anon":
        return (
            anon_instance_violation(op, K, tuple(w["sigma"]), tuple(w["pi"])) is not None
        )
    if verdict.axiom == "dual":
        return dual_instance_violation(op, K) is not None
    if verdict.axiom == "iim":
        K2 = Tournament.from_cells(w["tournament_2"])
        return iim_instance_violates(op, K, K2, *w["pair"])
    if verdict.axiom == "mon":
        return mon_instance_violation(op, K) is not None
    if verdict.axiom == "pos-resp":
        return pos_resp_instance_violates(op, K, w["pair"][0], w["pair"][1], w["cell"][1])
    if verdict.axiom == "chain-min":
        return not check_chain_min(op, K).holds
    if verdict.axiom == "chain-def":
        return not check_chain_def(op, K).holds
    raise InputError(f"unknown axiom {verdict.axiom!r}")


# -- the known counterexample instances --

ANON_COUNTEREXAMPLE = Tournament.from_cells([[1, 0], [0, 1]])

IIM_PAIR = (
    Tournament.from_cells([[1, 0, 0], [0, 1, 0], [0, 1, 1]]),
    Tournament.from_cells([[1, 0, 0], [0, 1, 0], [1, 0, 1]]),
)

POS_RESP_COUNTEREXAMPLE = Tournament.from_cells(
    [[1, 1, 1], [1, 1, 0], [0, 0, 1], [0, 0, 1]]
)

CHAIN_DEF_IMPOSSIBILITY = Tournament.from_cells([[0, 0], [0, 1], [1, 0], [1, 1]])


@dataclass(frozen=True)
class SuiteRow:
    label: str
    operator: str
    axiom: str
    expected_holds: bool
    verdict: AxiomVerdict

    @property
    def ok(self) -> bool:
        return self.verdict.holds == self.expected_holds


@dataclass(frozen=True)
class ImpossibilityReport:
    rows: tuple[SuiteRow, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def failures(self) -> tuple[SuiteRow, ...]:
        return tuple(row for row in self.rows if not row.ok)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "rows": [
                {
                    "label": row.label,
                    "operator": row.operator,
                    "axiom": row.axiom,
                    "expected_holds": row.expected_holds,
                    "verdict": row.verdict.to_json(),
                }
                for row in self.rows
            ],
        }


def impossibility_suite(cap: int | None = None) -> ImpossibilityReport:
    """Replay the known counterexample instances and assert the expected verdicts.

    Chain-minimal operators must fail anonymity on the 2x2 diagonal, fail
    independence on the 3x3 pair with shared top rows, and fail positive
    responsiveness on the 4x3 instance with a unique one-edit repair. The win
    counter, which satisfies the other three axioms of the four-way
    impossibility, must fail chain-definability on the 4x2 instance. The
    cardinality interleaving operator must show its full verdict row.
    """
    rows: list[SuiteRow] = []
    chain_min_family = [
        chain_min_lex_operator(cap),
        chain_min_mon_operator(cap),
        resolve_operator("chain-min-dual", cap),
        match_pref_operator(mp.MatchPreference.row_major(), cap, label="match-pref:row-major"),
    ]
    for op in chain_min_family:
        rows.append(
            SuiteRow(
                "chain-min-vs-anon",
                op.name,
                "anon",
                False,
                check_anon(op, Scope(tournaments=(ANON_COUNTEREXAMPLE,))),
            )
        )
        rows.append(
            SuiteRow(
                "chain-min-vs-iim",
                op.name,
                "iim",
                False,
                check_iim(op, Scope(), pairs=((IIM_PAIR[0], IIM_PAIR[1], 1, 2),)),
            )
        )
        rows.append(
            SuiteRow(
                "chain-min-vs-pos-resp",
                op.name,
                "pos-resp",
                False,
                check_pos_resp(op, Scope(tournaments=(POS_RESP_COUNTEREXAMPLE,))),
            )
        )
        rows.append(
            SuiteRow(
                "chain-min-control",
                op.name,
                "chain-min",
                True,
                check_chain_min(op, ANON_COUNTEREXAMPLE, cap),
            )
        )

    count = count_operator()
    for axiom, checker in (
        ("anon", check_anon),
        ("dual", check_dual),
        ("pos-resp", check_pos_resp),
    ):
        rows.append(
            SuiteRow(
                "four-axiom-conflict-premises",
                count.name,
                axiom,
                True,
                checker(count, Scope(tournaments=(CHAIN_DEF_IMPOSSIBILITY,))),
            )
        )
    rows.append(
        SuiteRow(
            "four-axiom-conflict",
            count.name,
            "chain-def",
            False,
            check_chain_def(count, CHAIN_DEF_IMPOSSIBILITY),
        )
    )

    ci = ci_operator()
    small = Scope(exhaustive=((2, 2), (2, 3)))
    rows.append(SuiteRow("ci-verdict-row", ci.name, "chain-def", True, check_chain_def_scope(ci, small)))
    rows.append(SuiteRow("ci-verdict-row", ci.name, "anon", True, check_anon(ci, small)))
    rows.append(SuiteRow("ci-verdict-row", ci.name, "dual", True, check_dual(ci, small)))
    rows.append(SuiteRow("ci-verdict-row", ci.name, "mon", True, check_mon(ci, small)))
    rows.append(
        SuiteRow(
            "ci-verdict-row",
            ci.name,
            "iim",
            False,
            check_iim(ci, Scope(), pairs=((IIM_PAIR[0], IIM_PAIR[1], 1, 2),)),
        )
    )
    search = Scope(exhaustive=((2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (4, 3)))
    rows.append(SuiteRow("ci-verdict-row", ci.name, "pos-resp", False, check_pos_resp(ci, search)))

    report = ImpossibilityReport(tuple(rows))
    for row in report.rows:
        if not row.verdict.holds and row.verdict.witness is not None:
            op = resolve_operator(row.operator, cap)
            if not recheck(op, row.verdict):
                raise AssertionError(
                    f"witness for {row.operator}/{row.axiom} failed to re-validate"
                )
    return report
