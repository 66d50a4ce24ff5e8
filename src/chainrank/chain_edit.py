"""Exact chain editing under per-cell costs.

A chain tournament is exactly a tournament whose rows are all prefixes of a
single column ordering: nested neighbourhoods extend to a maximal chain, and
a maximal chain of column subsets is a permutation. Every problem here is one
search: each result cell has an exact-integer cost of being 0 and of being 1
(None where that value is not allowed), and the search ranges over column
orderings, letting every row independently pick a least-cost prefix. It runs
best first over (prefix, unsettled least costs) states, stores none above
the cost of an ordering found by a first greedy dive, and expands every
state up to the optimum, so it drops no tied optimum (see _search). Every
optimum arises from some (optimal ordering, per-row argmin prefix)
combination, and rows with equal costs have equal argmins, so the search
takes a class table, one cost row and size per distinct row mask, read off
the tournament's row_counts (see _classes), and returns the optimum set
factored per class: each distinct argmin tuple, each class's tied argmin
prefixes along an optimal ordering, with its number of optimal orderings.
A listing of the complete optimum set, in canonical order, is read off the
argmin tuples and class sizes as blocks (see _expand), each standing for
every member that takes, in each row, one of the block's masks for that
row: one block for one argmin tuple of a tall or square input, whose
members are never collected or sorted, else one block per distinct member. min_chain_set and its siblings build
their members from the blocks, the command line writes a listing from them
without building any, and MEMBER_CAP bounds the member tuples of every
listing. The single-member picks, which expand nothing, are read off the
factored form in picks.

Every problem is solved tall, searching orderings of the smaller side.
dual(K) transposes and complements K and maps its chain tournaments one to
one onto those of dual(K), so a wide K is solved as dual(K), with cost[o][r]
taken as cost[1 - o][1 - r], and the members are mapped back by dual.
_classes applies this rule, and each caller maps its own weights, flips and
results; picks.least_member maps its whole question onto dual(K) at entry.

One solve serves every exact pick of a tournament: _solve keeps the last
factored optimum it found, keyed on what the search reads, the class table
in the tall orientation and the cap, so the optimum set, the canonical,
monotone and match-preference picks, and a symmetric-noise MLE of one
matrix, of its dual or of a reordering of rows that keeps the classes'
order share one search. The memo holds a single entry, so its memory is
that of one solve whatever a process goes on to solve, and it is
functools.lru_cache's, which is safe to call from several threads: a thread
never reads another input's entry, and a miss only solves again.

Unit costs give chain editing; forbidding removals or additions gives
completion and deletion; cell weights give the weighted selection; zero
costs give every chain tournament; and prob_model gets maximum likelihood
from the cost -log P(observed | truth). No float ever enters an argmin.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator

from .core import Tournament, _row_key, _Value, dual
from .errors import AmbiguityError, InputError, ResourceCapError

DEFAULT_ENUM_CAP = 8
# most member tuples _expand walks, over every distinct argmin tuple, before it refuses
MEMBER_CAP = 1 << 16
# most states _search stores before it refuses: far from a chain a raised
# --cap otherwise stores states until memory runs out
STATE_CAP = 1 << 18

# cost[observed][result] of one cell
_EDIT = ((0, 1), (1, 0))
_COMPLETE = ((0, 1), (None, 0))
_DELETE = ((0, None), (1, 0))


class MinChainSet(_Value):
    """All chain tournaments at minimum (restricted) distance from a source."""

    distance: int
    members: tuple[Tournament, ...]


def _classes(K: Tournament, cost):
    """(classes, row_class, tall, wide): the class table of tall under
    cost[observed][result], each of its rows' class, tall, and whether K was
    wide, tall being K or, when K has more columns than rows, dual(K) with
    cost[o][r] taken as cost[1 - o][1 - r]. The table holds one (c0 row, c1
    row, size) entry per (row mask, size) of tall.row_counts, in its order,
    c0 and c1 each cell's cost of being 0 and of being 1."""
    (z0, z1), (o0, o1) = cost
    wide = K.cols > K.rows
    if wide:
        K, (z0, z1), (o0, o1) = dual(K), (o1, o0), (z1, z0)
    cols = range(K.cols)
    classes = tuple(
        (tuple(o0 if mask >> b & 1 else z0 for b in cols), tuple(o1 if mask >> b & 1 else z1 for b in cols), k)
        for mask, k in K.row_counts.items()
    )
    return classes, tuple(map(dict(zip(K.row_counts, itertools.count())).__getitem__, K.row_masks)), K, wide


def _search(classes, cap: int | None):
    """Least total cost of a chain tournament, and the argmins that reach it.

    classes holds one (c0, c1, size) entry per class of size rows with equal
    costs: c0[b] and c1[b] are the costs of a row's result cell b being 0
    and 1, None where that value is not allowed. Returns (cost, tuples).
    tuples maps each distinct argmin tuple, each class's tuple of argmin
    prefix masks along an optimal column ordering, smallest first, to its
    number of optimal orderings: equal rows have equal argmins, so each is
    kept once per class, not once per row. The cost is inf, and tuples
    empty, when nothing is allowed.

    The orderings are searched best first over states: a prefix Q and each
    unsettled class's least cost over the prefixes on a path to Q, the empty
    and full ones included. A class's bound at Q, its cells in Q at 1 and
    all others at their cheaper value, is at most its cost at every later
    prefix and grows along a path, so a class whose least cost is at most
    its bound is settled: it leaves the state and its cost joins the settled
    total. What lies below a state then depends on the state alone, so each
    keeps its least settled total and every predecessor reaching it there.
    States pop by that total plus their unsettled bounds, a sum that never
    falls along a path and, with one column left, is the ordering's cost,
    as every class is settled. First a dive from the empty prefix, each time
    to the child of least sum (the lowest column on ties), gives one
    ordering's cost as the least so far, and no state whose sum is strictly
    above that least is stored: every state at the optimum, tied ones
    included, is kept, and the same states pop. Every state up to the
    optimum is expanded, so the tied optimal orderings are the predecessor
    paths into the one-column-left states at the optimum, walked back one
    prefix size at a time: paths that agree at a state on each class's least
    cost and argmins from there on merge into one count. Costs and bounds
    are kept for reached prefixes only, each its parent's plus the added
    column's change. A forbidden value costs more than the spread of the
    allowed totals, which may be negative, so a total above top forbids
    something; the least starts at top or below, so nothing is stored when
    nothing is allowed. A search that would store more than STATE_CAP
    states raises ResourceCapError.
    """
    n = len(classes[0][0])
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if n > cap:
        raise ResourceCapError(
            f"exact search ranges over {n}! column orderings which exceeds the "
            f"cap of {cap}; raise the cap or use an interleaving operator"
        )
    # allowed totals lie in [-top, top] (filter drops None and zeros)
    top = sum(k * sum(map(abs, filter(None, r0 + r1))) for r0, r1, k in classes)
    value, tables = {None: 2 * top + 1}.get, []
    for r0, r1, k in classes:  # each class's costs of its cells being 0 and 1, times its size
        z, o = tuple(map(k.__mul__, map(value, r0, r0))), tuple(map(k.__mul__, map(value, r1, r1)))
        least = tuple(map(min, z, o))
        rise, grow = tuple(map(operator.sub, o, z)), tuple(map(operator.sub, o, least))
        tables.append((sum(z), sum(o), sum(least), rise, grow))
    empty, full, low, rise, grow = zip(*tables)
    done = (1 << n) - 1
    costs, bounds = {0: empty}, {0: low}
    rise, grow = list(zip(*rise)), list(zip(*grow))  # per column: each class's change of cost, of bound
    seen, heap, tick = {}, [], itertools.count()

    def children(prefix):
        for b in range(n):
            child = prefix | 1 << b
            if child != prefix:
                if child not in costs:
                    costs[child] = tuple(map(operator.add, costs[prefix], rise[b]))
                    bounds[child] = tuple(map(operator.add, bounds[prefix], grow[b]))
                yield child

    def settle(prefix, runs, settled):
        # the state's runs (None once settled), settled total and sum at prefix
        key, total = [], settled
        for run, cost, bound in zip(runs, costs[prefix], bounds[prefix]):
            if run is not None:
                if cost < run:
                    run = cost
                if run <= bound:
                    settled, total, run = settled + run, total + run, None
                else:
                    total += bound
            key.append(run)
        return tuple(key), settled, total

    def reach(parent, prefix, runs, settled):
        nonlocal best
        key, settled, total = settle(prefix, runs, settled)
        if total > best:
            return
        state = (prefix, key)
        entry = seen.get(state)
        if entry is None or settled < entry[0]:
            if entry is None and len(seen) == STATE_CAP:
                raise ResourceCapError(
                    f"exact search over {n} columns needs to store more than {len(seen)} states, "
                    f"which exceeds the state cap of {STATE_CAP}; use an interleaving operator"
                )
            seen[state] = [settled, [parent]]
            if prefix.bit_count() < n - 1:
                heapq.heappush(heap, (total, next(tick), state, settled))
            else:  # at most best, as a state above it is not stored
                best = total
        elif settled == entry[0]:
            entry[1].append(parent)

    # best, the least ordering cost so far, starts at the dive's or top
    prefix, (runs, settled, best) = 0, settle(0, full, 0)
    while prefix.bit_count() < n - 1:
        step = {child: settle(child, runs, settled) for child in children(prefix)}
        prefix = min(step, key=lambda child: step[child][2])
        runs, settled, best = step[prefix]
    best = min(best, top)
    reach(None, 0, full, 0)
    while heap:
        total, _, state, settled = heapq.heappop(heap)
        if total > best:
            break
        if settled != seen[state][0]:  # reached again at less
            continue
        prefix, runs = state
        for child in children(prefix):
            reach(state, child, runs, settled)
    # each state's tails: each class's (least cost, argmins) on the prefixes
    # from the state's to the full one, and how many paths share them
    last = {tuple((c, (done,)) for c in full): 1}
    level = {s: last for s, e in seen.items() if e[0] == best and s[0].bit_count() == n - 1}
    for _ in range(n):  # back one prefix size at a time, to the empty prefix's parent None
        below: dict = {}  # each parent's tails and their counts
        for (prefix, runs), tails in level.items():
            for tail, count in tails.items():
                tail = tuple(
                    (c, (prefix,)) if c < least else (least, (prefix, *argmins) if c == least else argmins)
                    for c, (least, argmins) in zip(costs[prefix], tail)
                )
                for parent in seen[prefix, runs][1]:
                    merged = below.setdefault(parent, {})
                    merged[tail] = merged.get(tail, 0) + count
        level = below
    tuples = {tuple(argmins for _, argmins in tail): count for tail, count in level.get(None, {}).items()}
    return best if tuples else math.inf, tuples


@functools.lru_cache(maxsize=1)
def _solve(classes, cap: int | None):
    """_search's (cost, tuples) on the class table of a tall or square input:
    the optimum set factored per class, whose size grows with the classes
    times the distinct argmin tuples, not with the rows.

    Callers pass both arguments by position, as lru_cache keys a keyword
    argument apart and would solve one input twice. The result is shared by
    every caller that solves the same class table, so no caller may change it.
    """
    return _search(classes, cap)


def _expand(classes, row_class, tuples, m: int, n: int, wide: bool):
    """A generator of the blocks listing the distinct m-by-n tournaments that
    the factored optimum (row_class, tuples) of a search on the class table
    classes of an m-by-n matrix combines to (their duals when wide), in
    canonical order.

    A block holds, per row, a tuple of row masks, and stands for the members
    that take one of them in every row, in itertools.product order (see
    _rows); blocks never share a member. Raises ResourceCapError, on the
    first read and before expanding anything, when the argmin tuples combine
    to more than MEMBER_CAP member tuples: the sum over argmin tuples of the
    product over classes of |argmins| to the power of the class's size, an
    upper bound on the members, as different argmin tuples may give the same
    tournament.

    With one distinct argmin tuple of a tall or square input, each row's
    argmins are distinct prefixes of one optimal ordering, so distinct
    choices give distinct members, and one block of each row's argmins lists
    the members in canonical order: _search gives each class's argmins
    nested, smallest first, which is core._row_key order, so nothing is
    collected or sorted. Otherwise two argmin tuples may give the same
    member, or dual may reorder them, so the distinct members are collected
    from each tuple's product over its classes' argmins, mapped through dual
    when wide, sorted once by their rows' keys, computed once per distinct
    mask, and given as one block each, every row with a single choice.
    """
    count = sum(math.prod(len(a) ** k for a, (_, _, k) in zip(t, classes)) for t in tuples)
    if count > MEMBER_CAP:
        # a count can have more digits than int() converts to a string
        size = f"up to {count}" if count < 10**30 else "more than 10^30"
        raise ResourceCapError(
            f"the optimum set has {size} members which exceeds the member cap of {MEMBER_CAP}"
        )
    if len(tuples) == 1 and not wide:
        (argmins,) = tuples
        yield tuple(map(argmins.__getitem__, row_class))
        return
    seen: set[tuple[int, ...]] = set()
    for argmins in tuples:
        seen.update(itertools.product(*map(argmins.__getitem__, row_class)))
    if wide:
        seen, n = {dual(Tournament._unchecked(m, n, masks)).row_masks for masks in seen}, m
    single = {mask: (mask,) for mask in set().union(*seen)}
    key = {mask: _row_key(mask, n) for mask in single}.__getitem__
    for masks in sorted(seen, key=lambda masks: tuple(map(key, masks))):
        yield tuple(map(single.__getitem__, masks))


def _rows(blocks):
    """The row masks of every member the blocks list, in order."""
    for block in blocks:
        yield from itertools.product(*block)


def _members(K: Tournament, blocks) -> tuple[Tournament, ...]:
    """The K-sized tournaments the blocks list."""
    return tuple(Tournament._unchecked(K.rows, K.cols, masks) for masks in _rows(blocks))


def _optimum(K: Tournament, cost, cap: int | None):
    """(distance, blocks): the least total cost of a chain tournament from K
    under cost[observed][result], and _expand's generator of the blocks
    listing every chain tournament at that cost, in canonical order."""
    classes, row_class, tall, wide = _classes(K, cost)
    distance, tuples = _solve(classes, cap)
    return distance, _expand(classes, row_class, tuples, tall.rows, tall.cols, wide)


def min_chain_set(K: Tournament, cap: int | None = None) -> MinChainSet:
    """The complete set of chain tournaments closest to K in Hamming distance."""
    distance, blocks = _optimum(K, _EDIT, cap)
    return MinChainSet(distance, _members(K, blocks))


def min_chain_distance(K: Tournament, cap: int | None = None) -> int:
    """Minimum Hamming distance from K to any chain tournament."""
    return _optimum(K, _EDIT, cap)[0]


def chain_completion(K: Tournament, cap: int | None = None) -> MinChainSet:
    """Closest chain tournaments reachable by edge additions only."""
    distance, blocks = _optimum(K, _COMPLETE, cap)
    return MinChainSet(distance, _members(K, blocks))


def chain_deletion(K: Tournament, cap: int | None = None) -> MinChainSet:
    """Closest chain tournaments reachable by edge removals only."""
    distance, blocks = _optimum(K, _DELETE, cap)
    return MinChainSet(distance, _members(K, blocks))


def _check_weights(K: Tournament, weights) -> tuple[tuple[int, ...], ...]:
    rows = tuple(map(tuple, weights))
    if len(rows) != K.rows or any(len(r) != K.cols for r in rows):
        raise InputError("weight matrix must match the tournament dimensions")
    if any(not isinstance(w, int) or isinstance(w, bool) or w <= 0 for r in rows for w in r):
        raise InputError("weights must be strictly positive integers")
    return rows


def weighted_min_chain(K: Tournament, weights, cap: int | None = None) -> Tournament:
    """The unique chain tournament minimising the weighted Hamming distance.

    Weights must be strictly positive integers so every comparison is exact.
    A tied optimum raises AmbiguityError listing the tied tournaments; weights
    built by match_pref.weights_for can never tie.
    """
    rows = _check_weights(K, weights)
    unit, row_class, tall, wide = _classes(K, _EDIT)
    # equal masks may weigh differently, so each row of tall is its own class:
    # its mask's unit costs times its weights, cell (b, a) of dual(K) weighing
    # weights[a][b]
    classes = tuple((tuple(map(operator.mul, c0, ws)), tuple(map(operator.mul, c1, ws)), 1)
                    for (c0, c1, _), ws in zip(map(unit.__getitem__, row_class), zip(*rows) if wide else rows))
    tuples = _solve(classes, cap)[1]
    out = _members(K, _expand(classes, range(tall.rows), tuples, tall.rows, tall.cols, wide))
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


# stays here, not in picks, as perfbench traces it as chain_edit.monotone_min_chain
def monotone_min_chain(K: Tournament, cap: int | None = None) -> Tournament:
    """The canonically least closest chain tournament whose row order extends K's.

    This is the canonically least closest chain tournament M itself, so
    chain-min-lex and chain-min-mon are one operator, and chain-min-dual
    picks it for a canonical K. M's rows are prefixes of an optimal
    ordering, each at its row's smallest argmin there: a smaller argmin
    would give a smaller member at the same distance. If K_i is
    inside K_j, a column added to a prefix raises row i's cost at least as
    much as row j's, so row i's smallest argmin is no longer than row j's,
    and M_i is inside M_j.

    Nothing is expanded, so MEMBER_CAP does not apply: this is least_member
    with no flip in row-major order, whose pick in every row is its smallest
    argmin or, for a wide K solved as dual(K), every dual row's largest (the
    fewest ones in its column of M).
    """
    from .picks import least_member

    return least_member(K, None, None, cap)


def all_chain_tournaments(m: int, n: int, cap: int | None = None) -> tuple[Tournament, ...]:
    """Every m-by-n chain tournament, canonically ordered.

    Under zero costs every chain tournament is an optimum of any m-by-n
    tournament, the all-zero one here, and the cap applies to min(m, n)
    exactly as for editing.
    """
    zero = Tournament(m, n, (0,) * m)
    return _members(zero, _optimum(zero, ((0, 0), (0, 0)), cap)[1])
