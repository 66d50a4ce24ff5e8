"""Shared fixtures: reference example matrices, ranking shorthand, independent oracles."""

import functools
import math

from chainrank import (
    InputError,
    RankingPair,
    TotalPreorder,
    Tournament,
    all_tournaments,
    canonical_state,
    hamming,
    has_chain_property,
    log_likelihood,
)

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


def brute_force_members(K, feasible=None):
    """Full-scan oracle: (distance, members) over all chains passing `feasible`."""
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
    return best, tuple(members)


@functools.lru_cache(maxsize=None)
def chain_states(m, n):
    """Every m-by-n chain tournament, by full scan, with its canonical state."""
    return tuple(
        (C, canonical_state(C)) for C in all_tournaments(m, n) if has_chain_property(C)
    )


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
