"""Exact chain editing under per-cell costs.

A chain tournament is exactly a tournament whose rows are all prefixes of a
single column ordering: nested neighbourhoods extend to a maximal chain, and
a maximal chain of column subsets is a permutation. Every problem here is
one search: each result cell has an exact-integer cost of being 0 and of
being 1 (None where that value is not allowed), and the search enumerates
column orderings of the smaller side, letting every row independently pick
a least-cost prefix. On a wide matrix it searches the dual, whose cells are
complements, so each cell's two costs swap. Every optimum arises from some
(optimal ordering, per-row argmin prefix) combination, so expanding the
argmins of the optimal orderings yields the complete optimum set.

Unit costs give chain editing; forbidding removals or additions gives
completion and deletion; cell weights give the weighted selection; zero
costs give every chain tournament; and prob_model gets maximum likelihood
from the cost -log P(observed | truth). No float ever enters an argmin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (
    Tournament,
    all_tournaments,
    canonical_key,
    dual,
    hamming,
    has_chain_property,
)
from .errors import AmbiguityError, InputError, ResourceCapError

DEFAULT_ENUM_CAP = 8

# cost[observed][result] of one cell
_EDIT = ((0, 1), (1, 0))
_COMPLETE = ((0, 1), (None, 0))
_DELETE = ((0, None), (1, 0))


@dataclass(frozen=True)
class MinChainSet:
    """All chain tournaments at minimum (restricted) distance from a source."""

    distance: int
    members: tuple[Tournament, ...]


def _cell_costs(K: Tournament, cost):
    """The cost matrices (c0, c1) of K under cost[observed][result], rows as tuples."""
    (z0, z1), (o0, o1) = cost
    cols = range(K.cols)
    c0 = [tuple(o0 if mask >> b & 1 else z0 for b in cols) for mask in K.row_masks]
    c1 = [tuple(o1 if mask >> b & 1 else z1 for b in cols) for mask in K.row_masks]
    return c0, c1


def _prefix_costs(r0, r1, count: int) -> list:
    """count times a row's cost for each column subset mask as its prefix; inf if not allowed."""
    costs = [0]
    for z, o in zip(r0, r1):
        z = math.inf if z is None else count * z
        o = math.inf if o is None else count * o
        costs = [c + z for c in costs] + [c + o for c in costs]
    return costs


def _search(c0, c1, cap: int | None):
    """Least total cost of a chain tournament, and the argmins that reach it.

    c0[a][b] and c1[a][b] are the costs of result cell (a, b) being 0 and 1,
    None where that value is not allowed; rows are tuples. Returns (cost,
    options): options lazily yields, for each optimal column ordering, every
    row's list of argmin prefix masks on the searched side (the dual when the
    matrix is wide). The cost is inf, and options empty, when nothing is
    allowed.
    """
    if len(c0[0]) > len(c0):
        c0, c1 = list(zip(*c1)), list(zip(*c0))
    n = len(c0[0])
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if n > cap:
        raise ResourceCapError(
            f"exact search enumerates {n}! column orderings which exceeds the "
            f"cap of {cap}; raise the cap or use an interleaving operator"
        )
    # identical rows pick identical prefixes: one cost table per distinct row,
    # multiplied by its multiplicity (which keeps every argmin)
    rows = list(zip(c0, c1))
    counts = dict.fromkeys(rows, 0)
    for row in rows:
        counts[row] += 1
    by_prefix = list(zip(*[_prefix_costs(*row, count) for row, count in counts.items()]))
    best, optimal = math.inf, []
    for order in itertools.permutations([1 << b for b in range(n)]):
        prefixes = list(itertools.accumulate(order, initial=0))
        total = sum(map(min, *map(by_prefix.__getitem__, prefixes)))
        if total < best:
            best, optimal = total, [prefixes]
        elif total == best:
            optimal.append(prefixes)
    if best == math.inf:
        optimal = []

    def options():
        index = {row: i for i, row in enumerate(counts)}
        row_class = [index[row] for row in rows]
        for prefixes in optimal:
            argmins = []
            for costs in zip(*map(by_prefix.__getitem__, prefixes)):
                low = min(costs)
                argmins.append([p for p, c in zip(prefixes, costs) if c == low])
            yield [argmins[i] for i in row_class]

    return best, options()


def _members(options, m: int, n: int) -> tuple[Tournament, ...]:
    """The distinct m-by-n tournaments the options combine to, canonically ordered."""
    seen: set[tuple[int, ...]] = set()
    for per_row in options:
        seen.update(itertools.product(*per_row))
    if n > m:
        out = [dual(Tournament(n, m, masks)) for masks in seen]
    else:
        out = [Tournament(m, n, masks) for masks in seen]
    return tuple(sorted(out, key=canonical_key))


def _optimum(K: Tournament, cost, cap: int | None) -> MinChainSet:
    distance, options = _search(*_cell_costs(K, cost), cap)
    return MinChainSet(distance, _members(options, K.rows, K.cols))


def min_chain_set(K: Tournament, cap: int | None = None) -> MinChainSet:
    """The complete set of chain tournaments closest to K in Hamming distance."""
    return _optimum(K, _EDIT, cap)


def min_chain_distance(K: Tournament, cap: int | None = None) -> int:
    """Minimum Hamming distance from K to any chain tournament."""
    return _search(*_cell_costs(K, _EDIT), cap)[0]


def chain_completion(K: Tournament, cap: int | None = None) -> MinChainSet:
    """Closest chain tournaments reachable by edge additions only."""
    return _optimum(K, _COMPLETE, cap)


def chain_deletion(K: Tournament, cap: int | None = None) -> MinChainSet:
    """Closest chain tournaments reachable by edge removals only."""
    return _optimum(K, _DELETE, cap)


def _check_weights(K: Tournament, weights) -> list[list[int]]:
    rows = [list(r) for r in weights]
    if len(rows) != K.rows or any(len(r) != K.cols for r in rows):
        raise InputError("weight matrix must match the tournament dimensions")
    for r in rows:
        for w in r:
            if not isinstance(w, int) or isinstance(w, bool) or w <= 0:
                raise InputError("weights must be strictly positive integers")
    return rows


def weighted_min_chain(K: Tournament, weights, cap: int | None = None) -> Tournament:
    """The unique chain tournament minimising the weighted Hamming distance.

    Weights must be strictly positive integers so every comparison is exact.
    A tied optimum raises AmbiguityError listing the tied tournaments; weights
    built by match_pref.weights_for can never tie.
    """
    wt = _check_weights(K, weights)
    c0 = [tuple(w * v for v, w in zip(row, ws)) for row, ws in zip(K.cells, wt)]
    c1 = [tuple(w * (1 - v) for v, w in zip(row, ws)) for row, ws in zip(K.cells, wt)]
    out = _members(_search(c0, c1, cap)[1], K.rows, K.cols)
    if len(out) != 1:
        listing = "; ".join(str(M.cells) for M in out)
        raise AmbiguityError(f"weighted argmin is not unique: {listing}")
    return out[0]


def swap_rows(K: Tournament, a1: int, a2: int) -> Tournament:
    """Exchange two rows."""
    K._check_row(a1)
    K._check_row(a2)
    masks = list(K.row_masks)
    masks[a1 - 1], masks[a2 - 1] = masks[a2 - 1], masks[a1 - 1]
    return Tournament(K.rows, K.cols, tuple(masks))


def _extends_row_order(K: Tournament, M: Tournament) -> bool:
    for i in range(K.rows):
        for j in range(K.rows):
            if i == j:
                continue
            ki, kj = K.row_masks[i], K.row_masks[j]
            if ki & kj == ki and M.row_masks[i] & M.row_masks[j] != M.row_masks[i]:
                return False
    return True


def monotone_min_chain(K: Tournament, cap: int | None = None) -> Tournament:
    """The canonically least closest chain tournament whose row order extends K's.

    At least one member of the optimum set extends the neighbourhood-subset
    relation of K (successive row swaps repair any inversion without raising
    the distance), so the filter below is never empty.
    """
    qualifying = [M for M in min_chain_set(K, cap).members if _extends_row_order(K, M)]
    if not qualifying:
        raise AssertionError("no order-extending optimum exists; solver invariant broken")
    return qualifying[0]


def brute_force_min_chain(K: Tournament) -> MinChainSet:
    """Independent oracle: scan all 2^(mn) matrices for the closest chains."""
    if K.rows * K.cols > 16:
        raise ResourceCapError("brute force is limited to 16 cells")
    best = None
    members: list[Tournament] = []
    for cand in all_tournaments(K.rows, K.cols):
        if not has_chain_property(cand):
            continue
        d = hamming(K, cand)
        if best is None or d < best:
            best = d
            members = [cand]
        elif d == best:
            members.append(cand)
    return MinChainSet(best, tuple(sorted(members, key=canonical_key)))


def all_chain_tournaments(m: int, n: int, cap: int | None = None) -> tuple[Tournament, ...]:
    """Every m-by-n chain tournament, canonically ordered.

    Every row costs nothing whatever its prefix, so the search's optimum set
    is every chain tournament, and the cap applies to min(m, n) exactly as
    for editing.
    """
    zeros = [(0,) * n] * m
    return _members(_search(zeros, zeros, cap)[1], m, n)
