"""States of the world, the binary noise channel, likelihoods and MLE search.

A state assigns numeric skill levels to both sides, constrained so that every
strict skill gap is witnessed by a player of the opposite side (otherwise two
states indistinguishable by any match outcome would differ). The deterministic
tournament of a state marks (a, b) a win exactly when a's skill reaches b's;
such tournaments are exactly the chain tournaments, and every chain tournament
is reproduced by its canonical state built from neighbourhood counts.

Observed tournaments flip each true outcome independently: a false positive
with rate alpha_plus, a false negative with rate alpha_minus. The
log-likelihood is a sum of per-cell terms, so maximum likelihood is chain
editing with the per-cell cost -log P(observed | truth), taken as exact
integers; a cell value of probability zero is simply not allowed. Symmetric
noise below one half therefore gives the closest chain tournaments, and a
zero rate gives completion or deletion. Whether the MLE set is the closest
chain set is read off both optimum sets factored, listing neither: each set
holds the other exactly when the other's costliest member, priced with its
cell costs, costs its optimum.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

from .core import Tournament, _Value, has_chain_property
from .errors import InputError, NotChainError

_MASK64 = (1 << 64) - 1


class StateOfWorld(_Value):
    """Skill vectors for the row and column players.

    Validated at construction: whenever one player is strictly more skilled
    than a same-side other, some opposite-side skill level lies in the gap.
    """

    x: tuple
    y: tuple

    def _check(self) -> None:
        x, y = self.x, self.y
        if not x or not y:
            raise InputError("a state needs at least one skill level per side")
        for xa in list(x) + list(y):
            if not isinstance(xa, (int, float)) or isinstance(xa, bool) or xa != xa:
                raise InputError("skill levels must be numbers")
        for levels, other, count, side, explainer in (
            (x, y, bisect.bisect_right, "rows", "column"),
            (y, x, bisect.bisect_left, "columns", "row"),
        ):
            pair = _unexplained_gap(levels, sorted(other), count)
            if pair:
                raise InputError(
                    f"{side} {pair[0]} and {pair[1]} have a skill gap no {explainer} level explains"
                )


def _unexplained_gap(levels, other, count) -> tuple[int, int] | None:
    """The first pair (a, a2) of 1-based indices, ordered by a and then a2,
    with levels[a] < levels[a2] and no level of the sorted other in the gap
    between them: (u, w] when count is bisect_right, [u, w) when it is
    bisect_left.

    Consecutive distinct levels whose gap holds no other level are joined
    into blocks. A gap between two levels is the union of the consecutive
    gaps between them, so a pair fails exactly when its two levels differ
    and lie in one block, and a fails with some a2 exactly when its level is
    not its block's top.
    """
    ranks = sorted(set(levels))
    block = {ranks[0]: ranks[0]}  # each distinct level's block, named by its least level
    for low, high in zip(ranks, ranks[1:]):
        block[high] = high if count(other, high) > count(other, low) else block[low]
    top = {start: level for level, start in block.items()}  # levels rise, so the last is the top
    for a, u in enumerate(levels, start=1):
        if u < top[block[u]]:
            a2 = next(a2 for a2, w in enumerate(levels, start=1) if u < w and block[w] == block[u])
            return a, a2
    return None


class NoiseParams(_Value):
    """False positive and false negative rates of the observation channel."""

    alpha_plus: float
    alpha_minus: float

    def _check(self) -> None:
        for rate in (self.alpha_plus, self.alpha_minus):
            if not 0.0 <= rate <= 1.0:
                raise InputError(f"noise rate {rate} outside [0, 1]")

    @classmethod
    def symmetric(cls, beta: float) -> "NoiseParams":
        return cls(beta, beta)


def k_theta(theta: StateOfWorld) -> Tournament:
    """The deterministic tournament of a state: a win wherever x_a >= y_b; one
    mask per distinct skill level."""
    masks = {xa: sum(1 << b0 for b0, yb in enumerate(theta.y) if xa >= yb) for xa in set(theta.x)}
    return Tournament(len(theta.x), len(theta.y), tuple(map(masks.__getitem__, theta.x)))


def canonical_state(K: Tournament) -> StateOfWorld:
    """The integer-valued state reproducing a chain tournament.

    Row skill = number of rows with a neighbourhood contained in its own;
    column skill = least skill among the rows defeating it, or one past the
    row count for undefeated columns. Equal rows have equal skills, so each
    is a sum of K.row_counts over the distinct rows, of which a chain has at
    most n + 1.
    """
    if not has_chain_property(K):
        raise NotChainError("canonical states exist only for chain tournaments")
    skill = {mask: sum(k for row, k in K.row_counts.items() if row | mask == mask) for mask in K.row_counts}
    y = (min((xa for mask, xa in skill.items() if mask >> b0 & 1), default=K.rows + 1) for b0 in range(K.cols))
    return StateOfWorld(tuple(map(skill.__getitem__, K.row_masks)), tuple(y))


def _mismatch_counts(K: Tournament, theta: StateOfWorld) -> tuple[int, int, int, int]:
    """(false pos, true pos, true neg, false neg) cell counts of K against theta's tournament."""
    truth = k_theta(theta)
    if (K.rows, K.cols) != (truth.rows, truth.cols):
        raise InputError(
            f"state is {truth.rows}x{truth.cols} but tournament is {K.rows}x{K.cols}"
        )
    full = (1 << K.cols) - 1
    fp = tp = tn = fn = 0
    for r, t in zip(K.row_masks, truth.row_masks):
        fp += (r & ~t).bit_count()
        tp += (r & t).bit_count()
        tn += (full & ~(r | t)).bit_count()
        fn += (t & ~r).bit_count()
    return fp, tp, tn, fn


def likelihood(K: Tournament, theta: StateOfWorld, alpha: NoiseParams) -> float:
    """Probability of observing K when the true state is theta.

    Uses the product form over rows: each row contributes one factor per
    false positive, true positive, true negative and false negative cell.
    """
    fp, tp, tn, fn = _mismatch_counts(K, theta)
    return (
        alpha.alpha_plus**fp
        * (1.0 - alpha.alpha_minus) ** tp
        * (1.0 - alpha.alpha_plus) ** tn
        * alpha.alpha_minus**fn
    )


def log_likelihood(K: Tournament, theta: StateOfWorld, alpha: NoiseParams) -> float:
    """Natural log of the likelihood; -inf when the observation is impossible."""
    counts = _mismatch_counts(K, theta)
    rates = (
        alpha.alpha_plus,
        1.0 - alpha.alpha_minus,
        1.0 - alpha.alpha_plus,
        alpha.alpha_minus,
    )
    # aggregate by rate before taking logs so that e.g. one false positive
    # plus one false negative scores bitwise-identically to two false
    # positives under a symmetric channel (exact tie detection)
    by_rate: dict[float, int] = {}
    for count, rate in zip(counts, rates):
        if count:
            by_rate[rate] = by_rate.get(rate, 0) + count
    total = 0.0
    for rate in sorted(by_rate):
        if rate == 0.0:
            return -math.inf
        total += by_rate[rate] * math.log(rate)
    return total


def _cell_cost_table(alpha: NoiseParams):
    """cost[observed][truth] = -log P(observed | truth) in exact integers; None where P = 0.

    Every float logarithm is num / 2^k, so scaling all of them by the largest
    2^k is exact.
    """
    ap, am = alpha.alpha_plus, alpha.alpha_minus
    if ap + am == 1.0:
        # the observation says nothing about the truth, but 1 - am may differ
        # from ap in the last bit: give both truths the same cost
        prob = ((am, am), (ap, ap))
    else:
        prob = ((1.0 - ap, am), (ap, 1.0 - am))
    ratios = [[(-math.log(p)).as_integer_ratio() if p else None for p in row] for row in prob]
    scale = max(r[1] for row in ratios for r in row if r is not None)
    return tuple(tuple(None if r is None else r[0] * (scale // r[1]) for r in row) for row in ratios)


def _mle_costs(alpha: NoiseParams):
    """The cost table mle_search solves under.

    When both match costs are equal, both mismatch costs are equal and a
    mismatch costs more, the total cost of a chain tournament at Hamming
    distance d from K is m*n*match + d*(mismatch - match), so the MLE set is
    the closest chain tournaments: the unit edit costs of min_chain_set.
    """
    from .chain_edit import _EDIT

    table = _cell_cost_table(alpha)
    (match0, miss0), (miss1, match1) = table
    if None not in (match0, miss0, miss1, match1) and match0 == match1 < miss0 == miss1:
        return _EDIT
    return table


def _costliest(classes, tuples):
    """The largest total cost under the class table classes of a member of
    the factored optimum tuples of a search on the same rows, inf where one
    takes a forbidden value or tuples is empty: the rows of a class pick
    among its argmins independently, so it is the largest over argmin tuples
    of the sum of each class's size times its costliest argmin's cost."""
    def cost(c0, c1, mask):
        cells = [c1[b] if mask >> b & 1 else c0[b] for b in range(len(c0))]
        return math.inf if None in cells else sum(cells)

    totals = (sum(k * max(cost(c0, c1, p) for p in ps) for (c0, c1, k), ps in zip(classes, t)) for t in tuples)
    return max(totals, default=math.inf)


def compare_min_chain_set(K: Tournament, alpha: NoiseParams, cap: int | None = None) -> tuple[int, bool]:
    """(d, same): the distance d from K to its closest chain tournaments, and
    whether they are exactly the MLE set, taken as empty where no state gives K.

    Read off the MLE solve, which mle_blocks has just made, and the unit-cost
    solve of min_chain_set, one solve when the MLE costs are the unit ones:
    nothing in a set costs less than its optimum, so each holds the other
    exactly when the other's costliest member costs its optimum.
    """
    from .chain_edit import _EDIT, _classes, _solve

    mle, unit = _classes(K, _mle_costs(alpha))[0], _classes(K, _EDIT)[0]
    (cost, mle_tuples), (d, unit_tuples) = _solve(mle, cap), _solve(unit, cap)
    return d, _costliest(unit, mle_tuples) == d and _costliest(mle, unit_tuples) == cost


def mle_blocks(K: Tournament, alpha: NoiseParams, cap: int | None = None):
    """chain_edit._expand's generator of the blocks listing
    mle_search(K, alpha, cap) in order."""
    from .chain_edit import _optimum

    cost, blocks = _optimum(K, _mle_costs(alpha), cap)
    if cost == math.inf:
        raise InputError(
            "noise rates assign probability zero to this observation under every state"
        )
    return blocks


def mle_search(K: Tournament, alpha: NoiseParams, cap: int | None = None) -> tuple[Tournament, ...]:
    """Deterministic tournaments of the states maximising the likelihood of K.

    States with the same deterministic tournament have the same likelihood,
    and those tournaments are the chain tournaments, so the answer is the
    chain tournaments of least total cost -log P(observed | truth). The
    search and its cap are those of chain editing, and under the unit edit
    costs the solve is shared with min_chain_set.
    """
    from .chain_edit import _members

    return _members(K, mle_blocks(K, alpha, cap))


def derive_seed(seed: int, *indices: int) -> int:
    """Mix a base seed with stream indices into an independent 64-bit seed."""
    h = seed & _MASK64
    for v in indices:
        h ^= (v + 0x9E3779B97F4A7C15) & _MASK64
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def sample_tournament(theta: StateOfWorld, alpha: NoiseParams, seed: int) -> Tournament:
    """Draw an observed tournament from the noise channel, cell by cell."""
    rng = random.Random(seed)
    masks = []
    for xa in theta.x:
        mask = 0
        for b0, yb in enumerate(theta.y):
            p_one = (1.0 - alpha.alpha_minus) if xa >= yb else alpha.alpha_plus
            if rng.random() < p_one:
                mask |= 1 << b0
        masks.append(mask)
    return Tournament(len(theta.x), len(theta.y), tuple(masks))


def sample_state(m: int, n: int, seed: int) -> StateOfWorld:
    """Random canonical state: a random column ordering with random per-row prefixes."""
    if m < 1 or n < 1:
        raise InputError("state dimensions must be at least 1x1")
    rng = random.Random(seed)
    order = [1 << c for c in range(n)]
    rng.shuffle(order)
    prefixes = list(itertools.accumulate(order, initial=0))
    masks = tuple(prefixes[rng.randint(0, n)] for _ in range(m))
    return canonical_state(Tournament(m, n, masks))
