"""Interleaving operators: chain-definable ranking by iterated top-rank removal.

Each round, an A-selection function picks the strongest remaining rows and a
B-selection function the strongest remaining columns; both batches are removed
and become the next rank (earlier removal = higher rank). Any pair of
selection functions obeying the contract below terminates and produces
rankings whose rank counts differ by at most one, and conversely every
operator with that rank-count property arises this way.

interleave keeps only the current pools and returns the ranking pair. Each
round's selections are its ranks, so the pair alone fixes every round's pools
and every player's removal round; the greedy chain is read off the ranks.

Selection function contract, enforced per call:
  * the selection is a subset of the remaining pool;
  * it is non-empty whenever the pool is non-empty;
  * once the opposite side is exhausted it must return the whole pool.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Mapping

from .core import Tournament, _Value, mask_of
from .errors import ContractError, InputError
from .rankings import RankingPair, TotalPreorder, rank_count

Selection = Callable[[Tournament, frozenset, frozenset], Iterable[int]]


class SelectionFunctionPair(_Value):
    """An (f, g) pair of A- and B-side selection functions."""

    name: str
    f: Selection
    g: Selection


def _validate_selection(out, pool, other_pool, side: str, index: int) -> frozenset[int]:
    out = frozenset(out)
    if not out <= pool:
        raise ContractError(
            f"{side}-selection returned labels outside the remaining pool at round {index}"
        )
    if pool and not out:
        raise ContractError(
            f"{side}-selection returned an empty set while players remain at round {index}"
        )
    if not other_pool and out != pool:
        raise ContractError(
            f"{side}-selection must return every remaining player once the other side "
            f"is exhausted (round {index})"
        )
    return out


def interleave(K: Tournament, fg: SelectionFunctionPair) -> RankingPair:
    """Run the interleaving procedure; earlier removal means a higher rank."""
    a_rem = frozenset(range(1, K.rows + 1))
    b_rem = frozenset(range(1, K.cols + 1))
    a_ranks: list[frozenset[int]] = []
    b_ranks: list[frozenset[int]] = []
    index = 0
    bound = max(K.rows, K.cols) + 1
    while a_rem or b_rem:
        if index >= bound:
            raise AssertionError("interleaving exceeded its termination bound")
        f_out = _validate_selection(fg.f(K, a_rem, b_rem), a_rem, b_rem, "A", index)
        g_out = _validate_selection(fg.g(K, a_rem, b_rem), b_rem, a_rem, "B", index)
        if f_out:
            a_ranks.append(f_out)
        if g_out:
            b_ranks.append(g_out)
        a_rem -= f_out
        b_rem -= g_out
        index += 1
    return RankingPair(TotalPreorder(tuple(reversed(a_ranks))), TotalPreorder(tuple(reversed(b_ranks))))


def _ci_rule(side: int, K: Tournament, a_rem: frozenset, b_rem: frozenset) -> frozenset:
    """ci's selection on the rows (side 0) or on the columns (side 1); see ci_selection."""
    pool, other = (b_rem, a_rem) if side else (a_rem, b_rem)
    if not pool:
        return pool
    masks = K.col_masks if side else K.row_masks
    other_mask = mask_of(other)
    met = {p: (masks[p - 1] & other_mask).bit_count() for p in pool}
    best = (min if side else max)(met.values())
    return frozenset(p for p, count in met.items() if count == best)


_CI = SelectionFunctionPair("ci", partial(_ci_rule, 0), partial(_ci_rule, 1))


def ci_selection() -> SelectionFunctionPair:
    """Cardinality-based selections: from each side's pool, every player whose
    mask meets the other side's pool an extreme number of times. That is most
    remaining wins on A, and fewest remaining losses on B, which is A's rule on
    dual(K), read off K's column masks so that no round builds the dual.

    Ties are kept in full, never broken; this is what makes the resulting
    operator anonymous.
    """
    return _CI


def take_everything_selection() -> SelectionFunctionPair:
    """Remove both sides whole in one round; yields flat rankings."""
    return SelectionFunctionPair(
        "take-everything",
        lambda K, a_rem, b_rem: a_rem,
        lambda K, a_rem, b_rem: b_rem,
    )


def greedy_chain_tournament(K: Tournament, fg: SelectionFunctionPair) -> Tournament:
    """The chain tournament built greedily along the interleaving rounds.

    Rows removed at round i get the still-remaining columns B_i as their
    neighbourhood, so neighbourhoods are nested by construction. A heuristic:
    its edit cost can exceed the exact minimum.
    """
    return _greedy_chain(K, interleave(K, fg))


def _greedy_chain(K: Tournament, pair: RankingPair) -> Tournament:
    """greedy_chain_tournament from the pair interleave returned on K.

    Each round removes one rank from each side until that side is exhausted,
    so with s A-ranks and t B-ranks the i-th weakest A-rank was removed at
    round s - i, when the weakest i + t - s B-ranks remained.
    """
    return _realise(K.rows, K.cols, pair, rank_count(pair.b_order) - rank_count(pair.a_order))


def _realise(m: int, n: int, pair: RankingPair, offset: int) -> Tournament:
    """The m x n chain tournament whose rows in the i-th weakest A-rank have
    the weakest i + offset B-ranks as neighbourhood."""
    cumulative = [0]
    for y_rank in pair.b_order.ranks:
        cumulative.append(cumulative[-1] | mask_of(y_rank))
    masks = [0] * m
    for i, x_rank in enumerate(pair.a_order.ranks, start=1):
        neighbourhood = cumulative[i + offset]
        for a in x_rank:
            masks[a - 1] = neighbourhood
    return Tournament(m, n, tuple(masks))


def is_chain_definable(pair: RankingPair) -> bool:
    """True when the two rank counts differ by at most one."""
    return abs(rank_count(pair.a_order) - rank_count(pair.b_order)) <= 1


def ranks_to_chain(pair: RankingPair) -> Tournament:
    """A chain tournament realising a chain-definable ranking pair.

    Rows in the i-th weakest rank receive as neighbourhood the union of the
    weakest g(i) column ranks, where g(i) = i when the A side has at most as
    many ranks as the B side and g(i) = i - 1 when it has one more. The
    rankings of the result are exactly the input pair.
    """
    s = rank_count(pair.a_order)
    t = rank_count(pair.b_order)
    if abs(s - t) > 1:
        raise InputError(
            f"rank counts {s} and {t} differ by more than one; "
            "no chain tournament realises these rankings"
        )
    a_players, b_players = pair.a_order.players, pair.b_order.players
    m, n = len(a_players), len(b_players)
    if a_players != frozenset(range(1, m + 1)):
        raise InputError("A-side players must be labelled 1..m")
    if b_players != frozenset(range(1, n + 1)):
        raise InputError("B-side players must be labelled 1..n")
    return _realise(m, n, pair, min(t - s, 0))


def selection_from_rankings(table: Mapping[Tournament, RankingPair]) -> SelectionFunctionPair:
    """Selection functions that reproduce stored chain-definable rankings.

    For a tournament in the table, each side yields its top remaining rank
    until the other side is exhausted, then the rest of its pool (nothing once
    its own pool is); interleaving with the result reproduces the stored pair.
    Tournaments outside the table fall back to take-everything (flat
    rankings), which keeps the pair total and contract-satisfying.
    """
    for K, pair in table.items():
        if not is_chain_definable(pair):
            raise InputError(
                f"stored rankings for a {K.rows}x{K.cols} tournament have rank "
                f"counts {rank_count(pair.a_order)} and {rank_count(pair.b_order)}; "
                "not chain-definable"
            )
    frozen = dict(table)

    def top(side: int, K: Tournament, a_rem: frozenset, b_rem: frozenset) -> frozenset:
        pool, other = (b_rem, a_rem) if side else (a_rem, b_rem)
        pair = frozen.get(K)
        if pair is None or not pool or not other:
            return pool
        rank_of = (pair.b_order if side else pair.a_order).rank_of
        best = max(map(rank_of, pool))
        return frozenset(p for p in pool if rank_of(p) == best)

    return SelectionFunctionPair("from-rankings", partial(top, 0), partial(top, 1))
