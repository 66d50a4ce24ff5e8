"""Independent checks of chainrank's outputs.

Nothing here imports chainrank. Every expected value is recomputed from the
input matrix with plain Python, so a defect in the program cannot hide behind
the same defect in its checker. A matrix is a tuple of row tuples of 0/1
cells; members of one optimum set all have the same shape, so tuple order is
the program's canonical (row-major lexicographic) order.
"""

from __future__ import annotations

import math


class CheckError(Exception):
    """An output that breaks the program's documented contract."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def matrix(obj, rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    """Validate a JSON cell list of the given shape and freeze it."""
    require(isinstance(obj, list) and len(obj) == rows, f"expected {rows} rows")
    out = []
    for row in obj:
        require(isinstance(row, list) and len(row) == cols, f"expected {cols} columns")
        require(all(v in (0, 1) and not isinstance(v, bool) for v in row), "cells must be 0/1")
        out.append(tuple(row))
    return tuple(out)


def masks(M) -> list[int]:
    return [sum(v << j for j, v in enumerate(row)) for row in M]


def is_chain(M) -> bool:
    """Row neighbourhoods totally ordered by inclusion."""
    ordered = sorted(set(masks(M)), key=int.bit_count)
    return all(a & b == a for a, b in zip(ordered, ordered[1:]))


def hamming(K, M) -> int:
    return sum(a != b for ra, rb in zip(K, M) for a, b in zip(ra, rb))


def contains(big, small) -> bool:
    """Every win of `small` is a win of `big`."""
    return all(b >= s for rb, rs in zip(big, small) for b, s in zip(rb, rs))


def chain_set(K, data: dict, mode: str = "edit"):
    """Check an `edit --json` answer; return (distance, members).

    Members must be distinct, canonically sorted chain tournaments at the
    reported distance; completion may only add wins and deletion only remove.
    """
    distance = data.get("distance")
    require(isinstance(distance, int) and distance >= 0, "distance must be a non-negative integer")
    raw = data.get("members")
    require(isinstance(raw, list) and raw, "members must be a non-empty list")
    members = tuple(matrix(M, len(K), len(K[0])) for M in raw)
    require(all(a < b for a, b in zip(members, members[1:])), "members not distinct and canonically sorted")
    for M in members:
        require(is_chain(M), "member is not a chain tournament")
        require(hamming(K, M) == distance, "member is not at the reported distance")
        if mode == "complete":
            require(contains(M, K), "completion removed a win")
        elif mode == "delete":
            require(contains(K, M), "deletion added a win")
    return distance, members


def row_inclusions(K) -> list[tuple[int, int]]:
    """Row pairs (i, j), i != j, whose neighbourhoods in K satisfy N_i <= N_j."""
    km = masks(K)
    return [(i, j) for i in range(len(km)) for j in range(len(km)) if i != j and km[i] & km[j] == km[i]]


def match_pref_pick(K, members):
    """The member whose row-major difference vector with K is least."""
    return min(members, key=lambda M: [a ^ b for ra, rb in zip(K, M) for a, b in zip(ra, rb)])


def monotone_pick(K, members):
    """The canonically least member whose row order extends K's."""
    pairs = row_inclusions(K)
    for M in members:
        mm = masks(M)
        if all(mm[i] & mm[j] == mm[i] for i, j in pairs):
            return M
    raise CheckError("no member extends the row order of the input")


def chain_rankings(M) -> tuple[list[list[int]], list[list[int]]]:
    """Rankings of a chain tournament, weakest rank first, 1-based labels."""
    rows: dict[int, list[int]] = {}
    for a, mask in enumerate(masks(M), start=1):
        rows.setdefault(mask, []).append(a)
    cols: dict[int, list[int]] = {}
    for b in range(len(M[0])):
        col = sum(M[a][b] << a for a in range(len(M)))
        cols.setdefault(col, []).append(b + 1)
    a_ranks = [rows[m] for m in sorted(rows, key=int.bit_count)]
    b_ranks = [cols[m] for m in sorted(cols, key=int.bit_count, reverse=True)]
    return a_ranks, b_ranks


def rank_answer(K, data: dict):
    """Check a `rank --json` answer of an exact operator; return its chain."""
    chain = matrix(data.get("chain"), len(K), len(K[0]))
    require(is_chain(chain), "selected chain is not a chain tournament")
    require(data.get("distance") == hamming(K, chain), "reported distance is not the chain's")
    a_ranks, b_ranks = chain_rankings(chain)
    require(data.get("a_ranks") == a_ranks, "A ranking does not match the selected chain")
    require(data.get("b_ranks") == b_ranks, "B ranking does not match the selected chain")
    return chain


def log_likelihood(K, truth, alpha_plus: float, alpha_minus: float) -> float:
    """log P(observe K | truth) under the binary noise channel."""
    fp = tp = tn = fn = 0
    for rk, rt in zip(K, truth):
        for k, t in zip(rk, rt):
            if t:
                tp += k
                fn += 1 - k
            else:
                fp += k
                tn += 1 - k
    total = 0.0
    for count, rate in ((fp, alpha_plus), (tp, 1 - alpha_minus), (tn, 1 - alpha_plus), (fn, alpha_minus)):
        if count:
            if rate == 0.0:
                return -math.inf
            total += count * math.log(rate)
    return total


def state_tournament(x, y):
    """The deterministic tournament of a state: a win wherever x_a >= y_b."""
    return tuple(tuple(int(xa >= yb) for yb in y) for xa in x)


def canonical_state(M) -> tuple[list[int], list[int]]:
    """Integer skill levels that reproduce the chain tournament M."""
    rm = masks(M)
    x = [sum(1 for other in rm if other & mask == other) for mask in rm]
    y = []
    for b in range(len(M[0])):
        beaten_by = [x[a] for a in range(len(M)) if M[a][b]]
        y.append(min(beaten_by) if beaten_by else len(M) + 1)
    return x, y
