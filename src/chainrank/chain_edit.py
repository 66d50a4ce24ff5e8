"""Exact chain editing under per-cell costs.

A chain tournament is exactly a tournament whose rows are all prefixes of a
single column ordering: nested neighbourhoods extend to a maximal chain, and
a maximal chain of column subsets is a permutation. Every problem here is
one search: each result cell has an exact-integer cost of being 0 and of
being 1 (None where that value is not allowed), and the search ranges over
column orderings of the smaller side, letting every row independently pick
a least-cost prefix. On a wide matrix it searches the dual, whose cells are
complements, so each cell's two costs swap. The orderings are walked depth
first over their prefixes with a branch-and-bound cut that never drops a
tied optimum (see _search). Every optimum arises from some (optimal
ordering, per-row argmin prefix) combination, so the search returns the
optimum set in factored form: per optimal ordering, each row's tied argmin
prefixes. Expanding them yields the complete optimum set, and MEMBER_CAP
bounds that expansion. A single member picked by a lexicographic order on
its cells (the canonical pick and the match-preference pick) is read off the
factored form instead, row by row, without expanding it (see least_member).

One solve serves every exact pick of a tournament: _solve keeps the last
factored optimum it found, keyed on (tournament, cost table, cap), so the
optimum set, the canonical, monotone and match-preference picks, and a
symmetric-noise MLE of one matrix share one search. The memo holds a single
entry, so its memory is that of one solve whatever a process goes on to
solve, and it is functools.lru_cache's, which is safe to call from several
threads: a thread never reads another input's entry, and a miss only solves
again.

Unit costs give chain editing; forbidding removals or additions gives
completion and deletion; cell weights give the weighted selection; zero
costs give every chain tournament; and prob_model gets maximum likelihood
from the cost -log P(observed | truth). No float ever enters an argmin.
"""

from __future__ import annotations

import functools
import itertools
import math

from .core import Tournament, _Value, dual
from .errors import AmbiguityError, InputError, ResourceCapError

DEFAULT_ENUM_CAP = 8
# most (ordering, argmin) combinations _members expands before it refuses
MEMBER_CAP = 1 << 16

# cost[observed][result] of one cell
_EDIT = ((0, 1), (1, 0))
_COMPLETE = ((0, 1), (None, 0))
_DELETE = ((0, None), (1, 0))


class MinChainSet(_Value):
    """All chain tournaments at minimum (restricted) distance from a source."""

    distance: int
    members: tuple[Tournament, ...]

    def __init__(self, distance: int, members: tuple[Tournament, ...]):
        self._init(distance, members)


def _cell_costs(K: Tournament, cost):
    """The cost matrices (c0, c1) of K under cost[observed][result], rows as tuples."""
    (z0, z1), (o0, o1) = cost
    cols = range(K.cols)
    c0 = [tuple(o0 if mask >> b & 1 else z0 for b in cols) for mask in K.row_masks]
    c1 = [tuple(o1 if mask >> b & 1 else z1 for b in cols) for mask in K.row_masks]
    return c0, c1


def _prefix_costs(r0, r1, count: int) -> tuple[list, list]:
    """count times a row's cost for each column subset mask as its prefix, and
    a lower bound on its cost for every superset of that mask; inf if not allowed.
    """
    costs, lower = [0], [0]
    for z, o in zip(r0, r1):
        z = math.inf if z is None else count * z
        o = math.inf if o is None else count * o
        low = min(z, o)
        costs = [c + z for c in costs] + [c + o for c in costs]
        lower = [c + low for c in lower] + [c + o for c in lower]
    return costs, lower


def _search(c0, c1, cap: int | None):
    """Least total cost of a chain tournament, and the argmins that reach it.

    c0[a][b] and c1[a][b] are the costs of result cell (a, b) being 0 and 1,
    None where that value is not allowed; rows are tuples. Returns (cost,
    options): options lazily yields, for each optimal column ordering, every
    row's list of argmin prefix masks on the searched side (the dual when the
    matrix is wide). The cost is inf, and options empty, when nothing is
    allowed.

    The orderings are searched depth first over their prefixes, so orderings
    that share a prefix share its work. A node with prefix Q holds each row's
    least cost over the prefixes on its path. Every later prefix contains Q,
    so it costs a row at least the cost of the row's cells in Q being 1 plus
    the cheaper value of each other cell (for unit costs, the number of
    columns in Q that the row lacks). The sum over rows of the smaller of
    these two is a lower bound on every ordering below the node. Children
    are tried in ascending bound order. A node is cut only when its bound
    exceeds the best total found so far, or is inf: a node whose bound
    equals the best may still hold a tied optimal ordering, and every tied
    ordering's argmins belong to the complete optimum set.
    """
    if len(c0[0]) > len(c0):
        c0, c1 = list(zip(*c1)), list(zip(*c0))
    n = len(c0[0])
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if n > cap:
        raise ResourceCapError(
            f"exact search ranges over {n}! column orderings which exceeds the "
            f"cap of {cap}; raise the cap or use an interleaving operator"
        )
    # identical rows pick identical prefixes: one cost table per distinct row,
    # multiplied by its multiplicity (which keeps every argmin)
    rows = list(zip(c0, c1))
    counts = dict.fromkeys(rows, 0)
    for row in rows:
        counts[row] += 1
    tables = [_prefix_costs(*row, count) for row, count in counts.items()]
    by_prefix = list(zip(*[costs for costs, _ in tables]))
    lower = list(zip(*[low for _, low in tables]))
    full = (1 << n) - 1
    best, optimal = math.inf, []

    def visit(path, run):
        # run already holds the empty and the full prefix, which every ordering
        # has, so a child with one column left is scored exactly
        nonlocal best, optimal
        rest = full ^ path[-1]
        leaves = rest.bit_count() == 2
        children = []
        while rest:
            prefix = path[-1] | (rest & -rest)
            rest &= rest - 1
            child = list(map(min, run, by_prefix[prefix]))
            if leaves:
                total = sum(child)
                if total < best:
                    best, optimal = total, [path + (prefix, full)]
                elif total == best:
                    optimal.append(path + (prefix, full))
            else:
                children.append((sum(map(min, child, lower[prefix])), prefix, child))
        children.sort()  # prefixes differ, so the run lists are never compared
        for bound, prefix, child in children:
            if bound > best or bound == math.inf:
                break
            visit(path + (prefix,), child)

    run = list(map(min, by_prefix[0], by_prefix[full]))
    if n == 1:
        best, optimal = sum(run), [(0, full)]
    else:
        visit((0,), run)
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


@functools.lru_cache(maxsize=1)
def _solve(K: Tournament, cost, cap: int | None):
    """_search on K's cells under cost[observed][result], its options as a tuple.

    The result is shared by every caller that solves the same input, so no
    caller may change it.
    """
    distance, options = _search(*_cell_costs(K, cost), cap)
    return distance, tuple(options)


def _members(options, m: int, n: int) -> tuple[Tournament, ...]:
    """The distinct m-by-n tournaments the options combine to, canonically ordered.

    Raises ResourceCapError, before expanding anything, when the options
    combine to more than MEMBER_CAP tuples (an upper bound on the members,
    as different options may give the same tournament).
    """
    options = tuple(options)  # no copy of a _solve result
    count = sum(math.prod(map(len, per_row)) for per_row in options)
    if count > MEMBER_CAP:
        raise ResourceCapError(
            f"the optimum set has up to {count} members which exceeds the member "
            f"cap of {MEMBER_CAP}"
        )
    seen: set[tuple[int, ...]] = set()
    for per_row in options:
        seen.update(itertools.product(*per_row))
    if n > m:
        out = [dual(Tournament(n, m, masks)) for masks in seen]
    else:
        out = [Tournament(m, n, masks) for masks in seen]
    # row-major cells, 0 before 1, are ordered as the rows' bit-reversed masks
    # are, so each distinct row mask gets one integer key
    rows = set().union(*(M.row_masks for M in out))
    key = {mask: int(f"{mask:0{n}b}"[::-1], 2) for mask in rows}
    return tuple(sorted(out, key=lambda M: tuple(map(key.__getitem__, M.row_masks))))


def least_member(K: Tournament, order, flip: Tournament, cap: int | None = None) -> Tournament:
    """The member M of min_chain_set(K) whose cells XOR flip, listed in order, are least.

    order lists every cell (a, b) of K exactly once, 1-based, so distinct
    members give distinct vectors and the least one is unique: zero flip
    with row-major order gives the canonically least member, flip = K with a
    match-preference order the match-preference selection.

    Nothing is expanded, so MEMBER_CAP does not apply. Every cell belongs to
    one row of the searched side, and for a fixed optimal ordering those rows
    pick their argmin prefixes independently, so the least vector of that
    ordering takes, in every row, the argmin whose own cells are least. The
    answer is the least of these over the optimal orderings. A wide matrix
    is searched on its dual, whose row b holds the complements of column b.
    """
    m, n = K.rows, K.cols
    tall = n <= m
    # weight[r][i]: vector position of bit i of searched row r as a power of
    # two, the first position most significant; vectors compare as their sums
    weight = [[0] * (n if tall else m) for _ in range(m if tall else n)]
    for pos, (a, b) in enumerate(reversed(order)):
        r, i = (a - 1, b - 1) if tall else (b - 1, a - 1)
        weight[r][i] = 1 << pos
    base = flip.row_masks if tall else dual(flip).row_masks

    @functools.cache
    def value(r: int, prefix: int) -> int:
        cells = prefix ^ base[r]
        return sum(w for i, w in enumerate(weight[r]) if cells >> i & 1)

    def pick(per_row):
        masks = tuple(
            min(prefixes, key=functools.partial(value, r)) for r, prefixes in enumerate(per_row)
        )
        return sum(itertools.starmap(value, enumerate(masks))), masks

    # equal vectors are the same member, so the masks never decide a tie
    _, masks = min(map(pick, _solve(K, _EDIT, cap)[1]))
    return Tournament(m, n, masks) if tall else dual(Tournament(n, m, masks))


def _optimum(K: Tournament, cost, cap: int | None) -> MinChainSet:
    distance, options = _solve(K, cost, cap)
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


def monotone_min_chain(K: Tournament, cap: int | None = None) -> Tournament:
    """The canonically least closest chain tournament whose row order extends K's.

    At least one member of the optimum set extends the neighbourhood-subset
    relation of K (successive row swaps repair any inversion without raising
    the distance), so some member always qualifies.
    """
    masks = K.row_masks
    subsets = [
        (i, j)
        for i, ki in enumerate(masks)
        for j, kj in enumerate(masks)
        if i != j and ki & kj == ki
    ]
    for M in min_chain_set(K, cap).members:
        # the rows of a chain are nested: M_i is inside M_j iff it is no larger
        sizes = [mask.bit_count() for mask in M.row_masks]
        if all(sizes[i] <= sizes[j] for i, j in subsets):
            return M
    raise AssertionError("no order-extending optimum exists; solver invariant broken")


def all_chain_tournaments(m: int, n: int, cap: int | None = None) -> tuple[Tournament, ...]:
    """Every m-by-n chain tournament, canonically ordered.

    Every row costs nothing whatever its prefix, so the search's optimum set
    is every chain tournament, and the cap applies to min(m, n) exactly as
    for editing.
    """
    zeros = [(0,) * n] * m
    return _members(_search(zeros, zeros, cap)[1], m, n)
