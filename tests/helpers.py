"""Shared fixtures: reference example matrices, ranking shorthand, independent oracles."""

import bisect
import functools
import itertools
import json
import math

from hypothesis import strategies as st

from chainrank import (
    InputError,
    MinChainSet,
    NotChainError,
    RankingPair,
    ResourceCapError,
    SelectionFunctionPair,
    StateOfWorld,
    TotalPreorder,
    Tournament,
    all_tournaments,
    canonical_key,
    canonical_state,
    hamming,
    has_chain_property,
    interleave,
    log_likelihood,
    min_chain_set,
    resolve_operator,
    vectorize,
    xor,
)
from chainrank.chain_edit import MEMBER_CAP
from chainrank.fileio import TournamentFile, _check_labels, _parse

# running example with the chain property and its non-chain variant
EX1 = Tournament.from_cells([[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]])
EX2 = Tournament.from_cells([[1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 1, 1]])

# the four closest chain tournaments of EX2, in reference listing order
EX2_MINCH = (
    Tournament.from_cells([[1, 1, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]]),
    Tournament.from_cells([[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]]),
    Tournament.from_cells([[1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 1, 1]]),
    Tournament.from_cells([[1, 0, 1, 0], [1, 1, 1, 0], [1, 1, 1, 1]]),
)
K4 = EX2_MINCH[3]

# the 12x8 exam in which six students answered only question 1 and six only
# question 2: 4,320 + 720 + 4,320 + 720 optimal orderings give 4 distinct
# argmin tuples, which combine to 2^6 + 1 + 2^6 + 1 member tuples, 128
# distinct members at distance 6
SPLIT_EXAM = Tournament.from_cells([[1] + [0] * 7] * 6 + [[0, 1] + [0] * 6] * 6)

# the 4x5 cardinality-interleaving walkthrough
TABLE1 = Tournament.from_cells(
    [
        [1, 1, 1, 1, 0],
        [0, 1, 0, 0, 1],
        [0, 1, 0, 1, 1],
        [0, 1, 1, 0, 0],
    ]
)

ANON_K = Tournament.from_cells([[1, 0], [0, 1]])
IIM_K1 = Tournament.from_cells([[1, 0, 0], [0, 1, 0], [0, 1, 1]])
IIM_K2 = Tournament.from_cells([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
POS_RESP_K = Tournament.from_cells([[1, 1, 1], [1, 1, 0], [0, 0, 1], [0, 0, 1]])
IMPOSS_K = Tournament.from_cells([[0, 0], [0, 1], [1, 0], [1, 1]])


def preorder(shorthand: str) -> TotalPreorder:
    """Parse ranking shorthand like '213' or '{12}34' (weakest first, single digits)."""
    ranks = []
    i = 0
    while i < len(shorthand):
        ch = shorthand[i]
        if ch == "{":
            j = shorthand.index("}", i)
            ranks.append(frozenset(int(c) for c in shorthand[i + 1 : j]))
            i = j + 1
        else:
            ranks.append(frozenset([int(ch)]))
            i += 1
    return TotalPreorder(tuple(ranks))


def pair(a_short: str, b_short: str) -> RankingPair:
    return RankingPair(preorder(a_short), preorder(b_short))


def brute_force_min_chain(K, feasible=None):
    """Full-scan oracle: the closest chain tournaments to K among those passing `feasible`."""
    if K.rows * K.cols > 16:
        raise ResourceCapError("brute force is limited to 16 cells")
    best = None
    members = []
    for cand in all_tournaments(K.rows, K.cols):
        if not has_chain_property(cand):
            continue
        if feasible is not None and not feasible(cand):
            continue
        d = hamming(K, cand)
        if best is None or d < best:
            best, members = d, [cand]
        elif d == best:
            members.append(cand)
    return MinChainSet(best, tuple(sorted(members, key=canonical_key)))


def canonical_min_oracle(K):
    """The canonically least closest chain tournament, from the expanded optimum set."""
    return min(min_chain_set(K).members, key=canonical_key)


def match_pref_oracle(K, pref):
    """The closest chain tournament whose difference vector under pref is least."""
    return min(min_chain_set(K).members, key=lambda M: vectorize(xor(K, M), pref))


def monotone_oracle(K):
    """The first optimum member, canonically, keeping every row inclusion of K (pairwise test)."""
    for M in min_chain_set(K).members:
        if all(
            M.row_masks[i] & M.row_masks[j] == M.row_masks[i]
            for i, ki in enumerate(K.row_masks)
            for j, kj in enumerate(K.row_masks)
            if i != j and ki & kj == ki
        ):
            return M
    return None


def two_patterns(m, n):
    """Cells of m rows alternating between the first n and the last n of 2n
    columns. For n = 4, 4,608 of the 40,320 column orderings are optimal."""
    return [[int((b < n) == (a % 2 == 0)) for b in range(2 * n)] for a in range(m)]


def planted_chain(rng, n, k):
    """A chain over n columns observed with k adjacent-swap error rows, and its optimum.

    Every inner prefix p_1..p_{n-1} of the column order 1..n appears k+1
    times, so a chain tournament within distance k keeps a copy of each and
    uses that order: it is the one optimal ordering. An error row p_i plus
    column i+2 is one edit from exactly p_i and p_{i+2}, so the closest chain
    tournaments are every choice of those two per error row: 2^k members at
    distance k, completion picking p_{i+2} and deletion p_i. Rows are
    shuffled. Returns (K, members, completion, deletion), the members in
    canonical order.
    """
    prefix = [(1 << j) - 1 for j in range(n + 1)]
    rows = [(prefix[j],) for j in range(1, n) for _ in range(k + 1)]
    for _ in range(k):
        i = rng.randrange(n - 1)
        rows.append((prefix[i] | 1 << (i + 1), prefix[i], prefix[i + 2]))
    rng.shuffle(rows)
    m = len(rows)
    options = [r[1:] or r for r in rows]
    members = [Tournament(m, n, masks) for masks in itertools.product(*options)]
    return (
        Tournament(m, n, tuple(r[0] for r in rows)),
        tuple(sorted(members, key=canonical_key)),
        Tournament(m, n, tuple(o[-1] for o in options)),
        Tournament(m, n, tuple(o[0] for o in options)),
    )


def transpose(K):
    """K with rows and columns exchanged (no complement): chains stay chains."""
    return Tournament.from_cells(list(zip(*K.cells)))


def ordering_argmins(c0, c1):
    """Score every column ordering of every row of the cost matrices (c0, c1).

    Returns (cost, optimal): the least total cost (inf when nothing is
    allowed, every ordering then counting as optimal) and, for each optimal
    ordering, each row's tuple of argmin prefix masks along it, smallest
    first.
    """
    rows, cols = len(c0), len(c0[0])

    @functools.lru_cache(maxsize=None)
    def prefix_cost(a, mask):
        total = 0
        for b in range(cols):
            c = c1[a][b] if mask >> b & 1 else c0[a][b]
            if c is None:
                return math.inf
            total += c
        return total

    best, optimal = math.inf, []
    for order in itertools.permutations(range(cols)):
        prefixes = [0]
        for b in order:
            prefixes.append(prefixes[-1] | 1 << b)
        per_row = []
        total = 0
        for a in range(rows):
            costs = [prefix_cost(a, p) for p in prefixes]
            low = min(costs)
            total += low
            per_row.append(tuple(p for p, c in zip(prefixes, costs) if c == low))
        if total < best:
            best, optimal = total, [per_row]
        elif total == best:
            optimal.append(per_row)
    return best, optimal


def cell_costs(K, cost):
    """The per-row cost matrices (c0, c1) of K under cost[observed][result]."""
    return tuple([tuple(cost[v][r] for v in row) for row in K.cells] for r in (0, 1))


def permutation_search(c0, c1):
    """Reference for chain_edit._search: score every column ordering of every row.

    Returns (cost, count, members): the least total cost (inf when nothing is
    allowed), the number of member tuples the distinct per-row argmin tuples
    of the optimal orderings combine to, and, when that is at most
    MEMBER_CAP, the set of optimal tournaments as row-mask tuples of the
    input orientation (else None).
    """
    m, n = len(c0), len(c0[0])
    if n > m:
        # the transpose of a chain tournament is one: scan orderings of the rows
        c0, c1 = list(zip(*c0)), list(zip(*c1))
    rows, cols = len(c0), len(c0[0])
    best, optimal = ordering_argmins(c0, c1)
    if best == math.inf:
        return best, 0, set()
    count = sum(math.prod(map(len, per_row)) for per_row in set(map(tuple, optimal)))
    if count > MEMBER_CAP:
        return best, count, None
    members = set()
    for per_row in optimal:
        for masks in itertools.product(*per_row):
            if n > m:
                masks = tuple(
                    sum(1 << a for a in range(rows) if masks[a] >> b & 1) for b in range(cols)
                )
            members.add(masks)
    return best, count, members


@functools.lru_cache(maxsize=None)
def chain_states(m, n):
    """Every m-by-n chain tournament, by full scan, with its canonical state."""
    return tuple(
        (C, canonical_state(C)) for C in all_tournaments(m, n) if has_chain_property(C)
    )


@functools.lru_cache(maxsize=None)
def chains_by_definition():
    """Every chain tournament from 1x1 to 3x4 and 4x3, by full scan of the cells.

    Each comes as (K, N, coN): N[a] is the set of columns row a defeats and
    coN[b] the set of rows defeating column b. K is a chain when every two
    row neighbourhoods are nested.
    """
    out = []
    for m, n in itertools.product(range(1, 5), repeat=2):
        if m * n > 12:
            continue
        for K in all_tournaments(m, n):
            N = {a: frozenset(b for b, v in enumerate(row, 1) if v) for a, row in enumerate(K.cells, 1)}
            if all(N[a] <= N[a2] or N[a2] <= N[a] for a in N for a2 in N):
                coN = {b: frozenset(a for a in N if b in N[a]) for b in range(1, n + 1)}
                out.append((K, N, coN))
    return tuple(out)


def brute_force_mle(K, alpha):
    """Scan oracle for MLE: score every chain tournament through its canonical state.

    States with the same deterministic tournament have the same likelihood,
    so this covers the whole state space; ties are exact float equality of
    the rate-aggregated log-likelihood.
    """
    best = -math.inf
    members = []
    for cand, theta in chain_states(K.rows, K.cols):
        ll = log_likelihood(K, theta, alpha)
        if ll > best:
            best = ll
            members = [cand]
        elif ll == best and ll > -math.inf:
            members.append(cand)
    if not members:
        raise InputError(
            "noise rates assign probability zero to this observation under every state"
        )
    return tuple(members)


def superset_of(K):
    """Feasibility predicate: candidate contains every win of K (additions only)."""

    def check(cand):
        return all(
            k & c == k for k, c in zip(K.row_masks, cand.row_masks)
        )

    return check


def subset_of(K):
    """Feasibility predicate: candidate keeps no win K lacks (removals only)."""

    def check(cand):
        return all(
            c & k == c for k, c in zip(K.row_masks, cand.row_masks)
        )

    return check


def weighted_distance(K, K2, weights):
    """Independent weighted Hamming distance."""
    total = 0
    for a in range(1, K.rows + 1):
        for b in range(1, K.cols + 1):
            if K.cell(a, b) != K2.cell(a, b):
                total += weights[a - 1][b - 1]
    return total


def cellwise_likelihood(K, theta, alpha):
    """The per-cell product definition of the observation probability."""
    prob = 1.0
    for a in range(1, K.rows + 1):
        for b in range(1, K.cols + 1):
            capable = theta.x[a - 1] >= theta.y[b - 1]
            if K.cell(a, b) == 1:
                prob *= (1.0 - alpha.alpha_minus) if capable else alpha.alpha_plus
            else:
                prob *= alpha.alpha_minus if capable else (1.0 - alpha.alpha_plus)
    return prob


def random_tournament(rng, m, n):
    full = (1 << n) - 1
    return Tournament(m, n, tuple(rng.randint(0, full) for _ in range(m)))


def recording(fg):
    """fg, and the list it fills with one (A pool, B pool, f's pick, g's pick)
    per interleaving round, each as a set."""
    rounds = []

    def f(K, a_rem, b_rem):
        out = frozenset(fg.f(K, a_rem, b_rem))
        rounds.append((set(a_rem), set(b_rem), set(out)))
        return out

    def g(K, a_rem, b_rem):
        out = frozenset(fg.g(K, a_rem, b_rem))
        assert rounds[-1][:2] == (set(a_rem), set(b_rem))
        rounds[-1] += (set(out),)
        return out

    return SelectionFunctionPair(fg.name, f, g), rounds


def greedy_chain_by_rounds(K, fg):
    """interleave.greedy_chain_tournament by its rule: rows removed in round i
    get that round's B pool as their neighbourhood."""
    recorded, rounds = recording(fg)
    interleave(K, recorded)
    masks = [0] * K.rows
    for _, b_pool, f_out, _ in rounds:
        for a in f_out:
            masks[a - 1] = mask_of_by_bits(b_pool)
    return Tournament(K.rows, K.cols, tuple(masks))


@st.composite
def repeated_row_tournaments(draw):
    """Up to 12x5 tournaments whose rows repeat a few distinct masks: half of
    them chains, whose rows are prefixes of one column order; sizes 1xn and
    mx1 among them."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        pool = [sum(1 << b for b in order[:k]) for k in range(n + 1)]
    else:
        pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    return Tournament(m, n, tuple(draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))))


def cells_by_shifts(K):
    """Tournament.cells, shifting every row's mask once per column."""
    return tuple(tuple(mask >> b & 1 for b in range(K.cols)) for mask in K.row_masks)


def str_by_rows(K):
    """str(K) rendering every row, one line of space-separated cells each."""
    return "\n".join(" ".join(str(v) for v in row) for row in cells_by_shifts(K))


def to_csv_by_rows(K):
    """fileio.to_csv rendering every row, one line of comma-separated cells each."""
    return "\n".join(",".join(str(v) for v in row) for row in cells_by_shifts(K)) + "\n"


def rank_json_by_rows(K, operator, cap=None):
    """What `rank --json` prints for K under operator: json.dumps of its
    answer, the chosen chain as every row's cell list."""
    spec = resolve_operator(operator, cap)
    pair = spec.evaluate(K)
    chain = spec.choice(K) if spec.choice else None
    out = {
        "operator": spec.name,
        "a_ranks": [sorted(rank) for rank in pair.a_order.ranks],
        "b_ranks": [sorted(rank) for rank in pair.b_order.ranks],
        "chain": cells_by_shifts(chain) if chain else None,
        "distance": hamming(K, chain) if chain else None,
    }
    return json.dumps(out, sort_keys=True) + "\n"


def canonical_state_by_sort(K):
    """prob_model.canonical_state by one sorted win count per row: a row's
    skill is the number of rows with at most as many wins, found by bisection."""
    if not has_chain_property(K):
        raise NotChainError("canonical states exist only for chain tournaments")
    wins = sorted(mask.bit_count() for mask in K.row_masks)
    skill = {mask: bisect.bisect_right(wins, mask.bit_count()) for mask in set(K.row_masks)}
    y = (min((xa for mask, xa in skill.items() if mask >> b0 & 1), default=K.rows + 1) for b0 in range(K.cols))
    return StateOfWorld(tuple(map(skill.__getitem__, K.row_masks)), tuple(y))


def parse_csv_by_rows(text):
    """fileio.parse_csv, parsing and checking every matrix line, equal lines
    included: every line's integers first, in line order, then the cells."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([int(tok.strip()) for tok in line.split(",")])
        except ValueError:
            raise InputError(f"line {lineno}: cells must be integers 0 or 1") from None
    if not rows:
        raise InputError("no matrix rows found")
    return TournamentFile(Tournament.from_cells(rows))


def from_cells_by_cells(cells):
    """Tournament.from_cells, checking and ORing one cell at a time."""
    rows = [list(r) for r in cells]
    if not rows or not rows[0]:
        raise InputError("a tournament needs at least one row and one column player")
    masks = []
    for r in rows:
        if len(r) != len(rows[0]):
            raise InputError("matrix rows have unequal lengths")
        mask = 0
        for j, v in enumerate(r):
            if v not in (0, 1):
                raise InputError(f"cell value {v!r} is not 0 or 1")
            if v:
                mask |= 1 << j
        masks.append(mask)
    return Tournament(len(rows), len(rows[0]), tuple(masks))


def parse_json_by_rows(text):
    """fileio.parse_json, checking the type of every cell of every row, equal
    rows included, then building the tournament from every row."""
    data = _parse(text)
    if not isinstance(data, dict) or "matrix" not in data:
        raise InputError('JSON tournament needs a "matrix" field')
    matrix = data["matrix"]
    if not isinstance(matrix, list) or not all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in matrix
    ):
        raise InputError('"matrix" must be a list of rows of integers 0 or 1')
    K = Tournament.from_cells(matrix)
    for key, expected in (("rows", K.rows), ("cols", K.cols)):
        if key in data and data[key] != expected:
            raise InputError(f'"{key}" is {data[key]} but the matrix has {expected}')
    return TournamentFile(
        K,
        _check_labels(data.get("a_labels"), K.rows, "A"),
        _check_labels(data.get("b_labels"), K.cols, "B"),
    )


def col_masks_by_bits(K):
    """K.col_masks, ORing one bit at a time into each column's mask."""
    masks = [0] * K.cols
    for a0, row in enumerate(K.row_masks):
        while row:
            low = row & -row
            masks[low.bit_length() - 1] |= 1 << a0
            row ^= low
    return tuple(masks)


def mask_of_by_bits(labels):
    """core.mask_of, one shift per label; a label below 1 is a negative shift."""
    mask = 0
    for lab in labels:
        mask |= 1 << (lab - 1)
    return mask


def labels_of_by_bits(mask):
    """core.labels_of, testing one bit at a time."""
    return frozenset(b + 1 for b in range(mask.bit_length()) if mask >> b & 1)


def state_gap_by_pairs(x, y):
    """The message StateOfWorld's check gives a state with numeric levels x and
    y, or None: every ordered pair of same-side levels against every level of
    the other side, the first failing pair in index order."""
    for a, xa in enumerate(x, start=1):
        for a2, xa2 in enumerate(x, start=1):
            if xa < xa2 and not any(xa < yb <= xa2 for yb in y):
                return f"rows {a} and {a2} have a skill gap no column level explains"
    for b, yb in enumerate(y, start=1):
        for b2, yb2 in enumerate(y, start=1):
            if yb < yb2 and not any(yb <= xa < yb2 for xa in x):
                return f"columns {b} and {b2} have a skill gap no row level explains"
    return None


def chain_violation_by_pairs(K):
    """The first row pair (1-based) with incomparable neighbourhoods, or None,
    by scanning every pair in index order."""
    masks = K.row_masks
    for i in range(K.rows):
        for j in range(i + 1, K.rows):
            inter = masks[i] & masks[j]
            if inter != masks[i] and inter != masks[j]:
                return (i + 1, j + 1)
    return None


def kendall_tau_b_by_pairs(p, q):
    """Tie-aware rank correlation over the pair classification of two
    preorders, by classifying every pair of players."""
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


def _obstruction(masks):
    """Two rows and two columns, ((i, b), (j, c)), in which row i beats column
    b that row j loses to and row j beats column c that row i loses to, or
    None for a chain: the distinct masks, fewest bits first, are each inside
    the next unless some such neighbouring pair is incomparable."""
    first = {}
    for i, mask in enumerate(masks):
        first.setdefault(mask, i)
    distinct = sorted(first, key=int.bit_count)
    for low, high in zip(distinct, distinct[1:]):
        if low & high != low:
            b, c = (low & ~high).bit_length() - 1, (high & ~low).bit_length() - 1
            return (first[low], b), (first[high], c)
    return None


def obstruction_oracle(K, allowed=(0, 1)):
    """Branching oracle: the closest chain tournaments to K that flip only cells
    whose observed value is in allowed, as a MinChainSet.

    Chain tournaments are exactly those without an obstruction (two rows and
    two columns in which each row beats a column the other row loses to), so
    every chain tournament near K flips one of an obstruction's four cells.
    The search branches on those cells, flipping each at most once, and
    deepens the distance one step at a time; (0,) allows completion's
    additions only and (1,) deletion's removals only. At the least distance,
    a branch whose flips lie inside an optimum flips a cell of that optimum
    next, so every optimum is found. Its leaves number about 4^distance,
    whatever the number of columns, so it reaches columns that a scan of
    orderings cannot.
    """
    found = set()

    def branch(masks, flipped, budget, seen):
        if flipped in seen:
            return
        seen.add(flipped)
        cells = _obstruction(masks)
        if cells is None:
            found.add(masks)
            return
        if budget == 0:
            return
        (i, b), (j, c) = cells
        for a, col in ((i, b), (j, b), (i, c), (j, c)):
            if (a, col) not in flipped and K.row_masks[a] >> col & 1 in allowed:
                flipped_masks = list(masks)
                flipped_masks[a] ^= 1 << col
                branch(tuple(flipped_masks), flipped | {(a, col)}, budget - 1, seen)

    for distance in itertools.count():
        branch(K.row_masks, frozenset(), distance, set())
        if found:
            members = (Tournament(K.rows, K.cols, masks) for masks in found)
            return MinChainSet(distance, tuple(sorted(members, key=canonical_key)))


def iim_by_first_seen(evaluate, m, n):
    """(holds, checked, witness) of the independence check over every m-by-n
    tournament: for each row pair, each tournament is compared with the first
    one met in canonical order with the same two rows, kept in a dict of every
    pair of those rows' masks seen."""
    space = [K.row_masks for K in all_tournaments(m, n)]
    checked = 0
    for a, a2 in itertools.combinations(range(1, m + 1), 2):
        first = {}
        for masks in space:
            K = Tournament(m, n, masks)
            K1 = first.setdefault((masks[a - 1], masks[a2 - 1]), K)
            checked += 1
            p1, p2 = evaluate(K1).a_order, evaluate(K).a_order
            if p1.le(a, a2) != p2.le(a, a2) or p1.le(a2, a) != p2.le(a2, a):
                cells = [[list(row) for row in T.cells] for T in (K1, K)]
                return False, checked, {"tournament": cells[0], "tournament_2": cells[1], "pair": [a, a2]}
    return True, checked, None
