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

import collections
import contextlib
import itertools
import random
from dataclasses import replace

from . import chain_edit
from .chain_edit import min_chain_distance
from .core import Tournament, _Value, all_tournaments, dual, hamming, permute
from .errors import InputError, ResourceCapError
from .interleave import is_chain_definable, ranks_to_chain
from .operators import OperatorSpec, resolve_operator
from .rankings import RankingPair, rank_count

AXIOMS = ("anon", "dual", "iim", "mon", "pos-resp", "chain-min", "chain-def")

# most tournaments an exhaustive size may hold (2^(mn) for size m x n); the
# largest size of the impossibility suite, 4x3, holds exactly this many
EXHAUSTIVE_CAP = 1 << 12


class Scope(_Value):
    """What a quantified axiom check ranges over."""

    exhaustive: tuple[tuple[int, int], ...] = ()
    random_sizes: tuple[tuple[int, int], ...] = ()
    random_count: int = 0
    seed: int = 0
    tournaments: tuple[Tournament, ...] = ()

    def _check(self) -> None:
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


class AxiomVerdict(_Value):
    """Outcome of one axiom check over one scope."""

    axiom: str
    operator: str
    holds: bool
    scope: str
    checked: int
    witness: dict | None = None

    def to_json(self) -> dict:
        return dict(zip(self._fields, self._values()))


class _Memo:
    """An evaluate behind a memo of one table per column count, keyed on row
    masks, so it keeps no tournament alive. Each result passes through one
    intern table, so every distinct total preorder, and every distinct pair
    of them, is one object: the memo grows with the distinct answers."""

    def __init__(self, ev):
        self.ev, self.results, self.interned = ev, collections.defaultdict(dict), {}

    def __call__(self, K: Tournament) -> RankingPair:
        results = self.results[K.cols]
        pair = results.get(K.row_masks)
        if pair is None:
            pair, intern = self.ev(K), self.interned.setdefault
            pair = RankingPair(intern(pair.a_order, pair.a_order), intern(pair.b_order, pair.b_order))
            pair = results[K.row_masks] = intern(pair, pair)
        return pair


def _memoized(op):
    """op's evaluate (op itself when it is a bare evaluate) behind a _Memo.

    An evaluate that already is a _Memo is returned as it is, so the checks
    run on one _with_memo operator share its memo.
    """
    ev = op.evaluate if isinstance(op, OperatorSpec) else op
    return ev if isinstance(ev, _Memo) else _Memo(ev)


def _with_memo(op: OperatorSpec) -> OperatorSpec:
    """op with its evaluate behind one _Memo, shared by every check op is passed to."""
    return replace(op, evaluate=_memoized(op))


def _cells(K: Tournament) -> list[list[int]]:
    return [list(row) for row in K.cells]


def _verdict(axiom: str, op: OperatorSpec, scope: str, witnesses) -> AxiomVerdict:
    """Count the cases witnesses yields, None for each pass, up to the first witness."""
    checked = 0
    for witness in witnesses:
        checked += 1
        if witness is not None:
            return AxiomVerdict(axiom, op.name, False, scope, checked, witness)
    return AxiomVerdict(axiom, op.name, True, scope, checked)


def _pair_witness(K: Tournament, bad) -> dict | None:
    return None if bad is None else {"tournament": _cells(K), "pair": list(bad)}


def _relabel_violation(before, after, sigma):
    """First pair (a, a2) that before orders unlike after orders (sigma(a), sigma(a2))."""
    rows = range(1, len(sigma) + 1)
    for a in rows:
        for a2 in rows:
            if a != a2 and before.le(a, a2) != after.le(sigma[a - 1], sigma[a2 - 1]):
                return (a, a2)
    return None


def iim_instance_violates(op, K1, K2, a, a2) -> bool:
    """True when the relative ranking of a, a2 differs despite identical rows."""
    if K1.row_mask(a) != K2.row_mask(a) or K1.row_mask(a2) != K2.row_mask(a2):
        raise InputError(f"rows {a} and {a2} are not identical across the two tournaments")
    return _iim_witness(_memoized(op), K1, K2, a, a2) is not None


def _iim_witness(ev, K1, K2, a, a2) -> dict | None:
    """A case's witness, None when ev ranks rows a and a2, equal in K1 and K2, alike in both."""
    p1, p2 = ev(K1).a_order, ev(K2).a_order
    if p1.le(a, a2) == p2.le(a, a2) and p1.le(a2, a) == p2.le(a2, a):
        return None
    return {"tournament": _cells(K1), "tournament_2": _cells(K2), "pair": [a, a2]}


# -- one case stream per single-tournament axiom: from a memoized evaluate, the
# tournaments and the enumeration cap, None per passing case, a witness per failing one --


def _anon(ev, tournaments, cap=None):
    """One case per relabelling (sigma, pi) of each tournament's rows and columns."""
    for K in tournaments:
        before = ev(K).a_order
        for sigma in itertools.permutations(range(1, K.rows + 1)):
            for pi in itertools.permutations(range(1, K.cols + 1)):
                bad = _relabel_violation(before, ev(permute(K, sigma, pi)).a_order, sigma)
                yield None if bad is None else {
                    "tournament": _cells(K),
                    "sigma": list(sigma),
                    "pi": list(pi),
                    "pair": list(bad),
                }


def _dual(ev, tournaments, cap=None):
    """One case per tournament: its B ranking against its dual's A ranking."""
    for K in tournaments:
        identity = tuple(range(1, K.cols + 1))
        yield _pair_witness(K, _relabel_violation(ev(K).b_order, ev(dual(K)).a_order, identity))


def _mon(ev, tournaments, cap=None):
    """One case per tournament: its first nested row pair ranked the wrong way."""
    for K in tournaments:
        a_order, masks = ev(K).a_order, K.row_masks
        wrong = (
            (a, a2)
            for a, a2 in itertools.permutations(range(1, K.rows + 1), 2)
            if masks[a - 1] & masks[a2 - 1] == masks[a - 1] and not a_order.le(a, a2)
        )
        yield _pair_witness(K, next(wrong, None))


def _pos_resp(ev, tournaments, cap=None):
    """One case per lost cell (a2, b) and row a ranked weakly below a2."""
    for K in tournaments:
        a_order = ev(K).a_order
        for a2 in range(1, K.rows + 1):
            for b in range(1, K.cols + 1):
                if K.cell(a2, b) != 0:
                    continue
                bumped = None
                for a in range(1, K.rows + 1):
                    if a == a2 or not a_order.le(a, a2):
                        continue
                    if bumped is None:
                        bumped = ev(K.with_cell(a2, b, 1)).a_order
                    yield None if bumped.strictly_below(a, a2) else {
                        "tournament": _cells(K),
                        "pair": [a, a2],
                        "cell": [a2, b],
                    }


def _chain_min(ev, tournaments, cap=None):
    """One case per tournament: its rankings among those of its closest chain tournaments.

    In a chain tournament with s A-ranks and t B-ranks, the i-th weakest
    A-rank beats the weakest g(i) B-ranks, g strictly increasing into 0..t
    with 1..t-1 in its image. So one chain tournament has a pair with
    |s - t| = 1, and two have one with s = t: ranks_to_chain's, and the dual
    of the swapped pair's. The pair is a member exactly when one of them is
    at the least distance, which is taken for every tournament, so the
    search cap applies whatever the pair. The second is built only when
    s = t and the first is not at that distance.
    """
    for K in tournaments:
        pair = ev(K)  # first: an exact operator's solve is then min_chain_distance's too
        distance = min_chain_distance(K, cap)
        member = (
            pair.a_order.players == frozenset(range(1, K.rows + 1))
            and pair.b_order.players == frozenset(range(1, K.cols + 1))
            and is_chain_definable(pair)
            and (
                hamming(K, ranks_to_chain(pair)) == distance
                or rank_count(pair.a_order) == rank_count(pair.b_order)
                and hamming(K, dual(ranks_to_chain(RankingPair(pair.b_order, pair.a_order)))) == distance
            )
        )
        yield None if member else {
            "tournament": _cells(K),
            "a_ranks": [sorted(r) for r in pair.a_order.ranks],
            "b_ranks": [sorted(r) for r in pair.b_order.ranks],
        }


def _chain_def(ev, tournaments, cap=None):
    """One case per tournament: whether its rankings are chain-definable."""
    for K in tournaments:
        pair = ev(K)
        yield None if is_chain_definable(pair) else {
            "tournament": _cells(K),
            "rank_counts": [rank_count(pair.a_order), rank_count(pair.b_order)],
        }


_CASES = {
    "anon": _anon,
    "dual": _dual,
    "mon": _mon,
    "pos-resp": _pos_resp,
    "chain-min": _chain_min,
    "chain-def": _chain_def,
}


def _check_cases(axiom, op, label, tournaments, cap=None) -> AxiomVerdict:
    """The verdict of axiom's case stream over tournaments, described by label."""
    return _verdict(axiom, op, label, _CASES[axiom](_memoized(op), tournaments, cap))


def check_anon(op: OperatorSpec, scope: Scope) -> AxiomVerdict:
    """Rankings must be invariant under relabelling both sides."""
    return _check_cases("anon", op, scope.describe(), scope.iter_tournaments())


def check_dual(op: OperatorSpec, scope: Scope) -> AxiomVerdict:
    """The B ranking of K must equal the A ranking of the dual of K."""
    return _check_cases("dual", op, scope.describe(), scope.iter_tournaments())


def check_iim(op: OperatorSpec, scope: Scope, pairs=()) -> AxiomVerdict:
    """The relative ranking of two rows may depend only on those rows.

    Exhaustive sizes compare each tournament with the first in canonical order
    that shares its two chosen rows, whose other rows are all 0 as mask 0
    sorts first: the verdict for the pair must be the same. Sampled sizes draw
    a base tournament, a row pair, and a perturbation of the other rows.
    Explicit (K1, K2, a, a2) quadruples are checked directly.
    """
    ev = _memoized(op)

    def witnesses():
        for case in pairs:  # checked for identical rows, which the other cases have by construction
            yield _iim_witness(ev, *case) if iim_instance_violates(ev, *case) else None
        for m, n in scope.exhaustive:
            for a, a2 in itertools.combinations(range(1, m + 1), 2):
                before, between, after = (0,) * (a - 1), (0,) * (a2 - a - 1), (0,) * (m - a2)
                for K in all_tournaments(m, n):
                    masks = (*before, K.row_masks[a - 1], *between, K.row_masks[a2 - 1], *after)
                    yield _iim_witness(ev, Tournament._unchecked(m, n, masks), K, a, a2)
        rng = random.Random(scope.seed)
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
                yield _iim_witness(ev, K1, Tournament(m, n, tuple(masks)), a, a2)

    return _verdict("iim", op, scope.describe(), witnesses())


def check_mon(op: OperatorSpec, scope: Scope) -> AxiomVerdict:
    """A nested neighbourhood must never outrank its superset."""
    return _check_cases("mon", op, scope.describe(), scope.iter_tournaments())


def check_pos_resp(op: OperatorSpec, scope: Scope) -> AxiomVerdict:
    """An extra win must break ties in favour of the winner."""
    return _check_cases("pos-resp", op, scope.describe(), scope.iter_tournaments())


def check_chain_min(op: OperatorSpec, K: Tournament, cap: int | None = None) -> AxiomVerdict:
    """The output must match the rankings of some closest chain tournament."""
    return _check_cases("chain-min", op, f"single instance {K.rows}x{K.cols}", (K,), cap)


def check_chain_def(op: OperatorSpec, K: Tournament) -> AxiomVerdict:
    """The two rank counts may differ by at most one."""
    return _check_cases("chain-def", op, f"single instance {K.rows}x{K.cols}", (K,))


def check_chain_min_scope(op: OperatorSpec, scope: Scope, cap: int | None = None) -> AxiomVerdict:
    return _check_cases("chain-min", op, scope.describe(), scope.iter_tournaments(), cap)


def check_chain_def_scope(op: OperatorSpec, scope: Scope) -> AxiomVerdict:
    return _check_cases("chain-def", op, scope.describe(), scope.iter_tournaments())


@contextlib.contextmanager
def _one_solve_per_table():
    """Within the block, chain_edit's solves share a memo of one entry per
    distinct class table, at most EXHAUSTIVE_CAP of them, so every row order
    of one multiset of rows is one search. An entry is keyed on one flat tuple
    and holds each distinct cost row and argmin tuple once, as every search
    builds its own. The memo calls chain_edit._search by name, so a patched
    search is the one it calls. Only the context that runs the block sees the
    memo, until the block ends, normally or by an exception."""
    solves, intern = {}, {}.setdefault

    def memo(classes, cap):
        key = (cap, *itertools.chain.from_iterable(classes))
        solve = solves.get(key)
        if solve is None:
            solve = cost, tuples = chain_edit._search(classes, cap)
            if len(solves) < EXHAUSTIVE_CAP:
                argmins = [tuple(intern(a, a) for a in t) for t in tuples]
                solve = cost, {intern(t, t): n for t, n in zip(argmins, tuples.values())}
                solves[tuple(intern(x, x) for x in key)] = solve
        return solve

    token = chain_edit._scope_memo.set(memo)
    try:
        yield
    finally:
        chain_edit._scope_memo.reset(token)


def scope_verdicts(op: OperatorSpec, scope: Scope, cap: int | None = None) -> list[AxiomVerdict]:
    """The seven scoped verdicts in AXIOMS order, each tournament evaluated once.

    The checks share one memo of op.evaluate, and their solves one memo of one
    search per class table (see _one_solve_per_table), so min_chain_distance
    reuses the solve behind an exact operator's evaluation of a tournament,
    whichever check made it.
    """
    op = _with_memo(op)
    with _one_solve_per_table():
        return [
            check_anon(op, scope),
            check_dual(op, scope),
            check_iim(op, scope),
            check_mon(op, scope),
            check_pos_resp(op, scope),
            check_chain_min_scope(op, scope, cap),
            check_chain_def_scope(op, scope),
        ]


def recheck(op: OperatorSpec, verdict: AxiomVerdict) -> bool:
    """Re-run a failure verdict's witness standalone, searching under the cap
    of its size; True when its tournament alone yields that witness again."""
    w = verdict.witness
    if w is None:
        raise InputError("verdict carries no witness")
    K = Tournament.from_cells(w["tournament"])
    if verdict.axiom == "iim":
        return iim_instance_violates(op, K, Tournament.from_cells(w["tournament_2"]), *w["pair"])
    if verdict.axiom not in _CASES:
        raise InputError(f"unknown axiom {verdict.axiom!r}")
    return w in _CASES[verdict.axiom](_memoized(op), (K,), min(K.rows, K.cols))


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


class SuiteRow(_Value):
    label: str
    operator: str
    axiom: str
    expected_holds: bool
    verdict: AxiomVerdict

    @property
    def ok(self) -> bool:
        return self.verdict.holds == self.expected_holds

    def to_json(self) -> dict:
        return {**dict(zip(self._fields, self._values())), "verdict": self.verdict.to_json()}


class ImpossibilityReport(_Value):
    rows: tuple[SuiteRow, ...] = ()

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def failures(self) -> tuple[SuiteRow, ...]:
        return tuple(row for row in self.rows if not row.ok)

    def to_json(self) -> dict:
        return {"ok": self.ok, "rows": [row.to_json() for row in self.rows]}


@_one_solve_per_table()
def impossibility_suite(cap: int | None = None) -> ImpossibilityReport:
    """Replay the known counterexample instances and assert the expected verdicts.

    Chain-minimal operators must fail anonymity on the 2x2 diagonal, fail
    independence on the 3x3 pair with shared top rows, and fail positive
    responsiveness on the 4x3 instance with a unique one-edit repair. The win
    counter, which satisfies the other three axioms of the four-way
    impossibility, must fail chain-definability on the 4x2 instance. The
    cardinality interleaving operator must show its full verdict row. Each
    operator's checks share one memo, and each failure's witness re-validates
    on a freshly resolved operator as its row is recorded. Every solve of the
    suite, rechecks included, shares one memo of one search per distinct
    class table (see _one_solve_per_table).
    """
    rows: list[SuiteRow] = []

    def expect(label: str, holds: bool, verdict: AxiomVerdict) -> None:
        if verdict.witness is not None and not recheck(resolve_operator(verdict.operator, cap), verdict):
            raise AssertionError(f"witness for {verdict.operator}/{verdict.axiom} failed to re-validate")
        rows.append(SuiteRow(label, verdict.operator, verdict.axiom, holds, verdict))

    anon = Scope(tournaments=(ANON_COUNTEREXAMPLE,))
    iim = ((*IIM_PAIR, 1, 2),)
    pos_resp = Scope(tournaments=(POS_RESP_COUNTEREXAMPLE,))
    for name in ("chain-min-lex", "chain-min-mon", "chain-min-dual", "match-pref:row-major"):
        op = _with_memo(resolve_operator(name, cap))
        expect("chain-min-vs-anon", False, check_anon(op, anon))
        expect("chain-min-vs-iim", False, check_iim(op, Scope(), pairs=iim))
        expect("chain-min-vs-pos-resp", False, check_pos_resp(op, pos_resp))
        expect("chain-min-control", True, check_chain_min(op, ANON_COUNTEREXAMPLE, cap))

    count = _with_memo(resolve_operator("count"))
    for check in (check_anon, check_dual, check_pos_resp):
        premise = check(count, Scope(tournaments=(CHAIN_DEF_IMPOSSIBILITY,)))
        expect("four-axiom-conflict-premises", True, premise)
    expect("four-axiom-conflict", False, check_chain_def(count, CHAIN_DEF_IMPOSSIBILITY))

    ci = _with_memo(resolve_operator("ci"))
    small = Scope(exhaustive=((2, 2), (2, 3)))
    for check in (check_chain_def_scope, check_anon, check_dual, check_mon):
        expect("ci-verdict-row", True, check(ci, small))
    expect("ci-verdict-row", False, check_iim(ci, Scope(), pairs=iim))
    search = Scope(exhaustive=((2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (4, 3)))
    expect("ci-verdict-row", False, check_pos_resp(ci, search))

    return ImpossibilityReport(tuple(rows))
