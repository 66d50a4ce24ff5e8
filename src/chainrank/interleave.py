"""Interleaving operators: chain-definable ranking by iterated top-rank removal.

Each round, an A-selection function picks the strongest remaining rows and a
B-selection function the strongest remaining columns; both batches are removed
and become the next rank (earlier removal = higher rank). Any pair of
selection functions obeying the contract below terminates and produces
rankings whose rank counts differ by at most one, and conversely every
operator with that rank-count property arises this way.

Selection function contract, enforced per call:
  * the selection is a subset of the remaining pool;
  * it is non-empty whenever the pool is non-empty;
  * once the opposite side is exhausted it must return the whole pool.
"""

from __future__ import annotations

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


class InterleaveRound(_Value):
    index: int
    a_remaining: frozenset[int]
    b_remaining: frozenset[int]
    f_selected: frozenset[int]
    g_selected: frozenset[int]


class InterleaveTrace(_Value):
    """Full iteration record: per-round pools and selections, plus removal rounds."""

    rounds: tuple[InterleaveRound, ...]
    a_round: tuple[int, ...]
    b_round: tuple[int, ...]

    def r(self, a: int) -> int:
        """Round at which row a was removed."""
        return self.a_round[a - 1]

    def s(self, b: int) -> int:
        """Round at which column b was removed."""
        return self.b_round[b - 1]


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


def interleave(K: Tournament, fg: SelectionFunctionPair) -> tuple[RankingPair, InterleaveTrace]:
    """Run the interleaving procedure; earlier removal means a higher rank."""
    a_rem = frozenset(range(1, K.rows + 1))
    b_rem = frozenset(range(1, K.cols + 1))
    rounds: list[InterleaveRound] = []
    a_round = [0] * K.rows
    b_round = [0] * K.cols
    index = 0
    bound = max(K.rows, K.cols) + 1
    while a_rem or b_rem:
        if index >= bound:
            raise AssertionError("interleaving exceeded its termination bound")
        f_out = _validate_selection(fg.f(K, a_rem, b_rem), a_rem, b_rem, "A", index)
        g_out = _validate_selection(fg.g(K, a_rem, b_rem), b_rem, a_rem, "B", index)
        rounds.append(InterleaveRound(index, a_rem, b_rem, f_out, g_out))
        for a in f_out:
            a_round[a - 1] = index
        for b in g_out:
            b_round[b - 1] = index
        a_rem -= f_out
        b_rem -= g_out
        index += 1
    a_ranks = [rnd.f_selected for rnd in reversed(rounds) if rnd.f_selected]
    b_ranks = [rnd.g_selected for rnd in reversed(rounds) if rnd.g_selected]
    pair = RankingPair(TotalPreorder(tuple(a_ranks)), TotalPreorder(tuple(b_ranks)))
    trace = InterleaveTrace(tuple(rounds), tuple(a_round), tuple(b_round))
    return pair, trace


def ci_selection() -> SelectionFunctionPair:
    """Cardinality-based selections: most remaining wins on A, fewest remaining losses on B.

    Ties are kept in full, never broken; this is what makes the resulting
    operator anonymous.
    """

    def f(K: Tournament, a_rem, b_rem):
        if not a_rem:
            return frozenset()
        b_mask = mask_of(b_rem)
        wins = {a: (K.row_masks[a - 1] & b_mask).bit_count() for a in a_rem}
        top = max(wins.values())
        return frozenset(a for a, w in wins.items() if w == top)

    def g(K: Tournament, a_rem, b_rem):
        if not b_rem:
            return frozenset()
        a_mask = mask_of(a_rem)
        losses = {b: (K.col_masks[b - 1] & a_mask).bit_count() for b in b_rem}
        low = min(losses.values())
        return frozenset(b for b, l in losses.items() if l == low)

    return SelectionFunctionPair("ci", f, g)


def take_everything_selection() -> SelectionFunctionPair:
    """Remove both sides whole in one round; yields flat rankings."""
    return SelectionFunctionPair(
        "take-everything",
        lambda K, a_rem, b_rem: a_rem,
        lambda K, a_rem, b_rem: b_rem,
    )


def greedy_chain_tournament(K: Tournament, fg: SelectionFunctionPair) -> Tournament:
    """The chain tournament built greedily along the interleaving trace.

    Rows removed at round i get the still-remaining columns B_i as their
    neighbourhood, so neighbourhoods are nested by construction. A heuristic:
    its edit cost can exceed the exact minimum.
    """
    return _greedy_chain(K, interleave(K, fg)[1])


def _greedy_chain(K: Tournament, trace: InterleaveTrace) -> Tournament:
    """greedy_chain_tournament along a trace already run on K."""
    b_masks = [mask_of(rnd.b_remaining) for rnd in trace.rounds]
    return Tournament(K.rows, K.cols, tuple(b_masks[r] for r in trace.a_round))


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
    m = len(pair.a_order.players)
    n = len(pair.b_order.players)
    if pair.a_order.players != frozenset(range(1, m + 1)):
        raise InputError("A-side players must be labelled 1..m")
    if pair.b_order.players != frozenset(range(1, n + 1)):
        raise InputError("B-side players must be labelled 1..n")
    shift = 0 if s in (t - 1, t) else 1
    cumulative = [0]
    for y_rank in pair.b_order.ranks:
        cumulative.append(cumulative[-1] | mask_of(y_rank))
    masks = [0] * m
    for i, x_rank in enumerate(pair.a_order.ranks, start=1):
        neighbourhood = cumulative[i - shift]
        for a in x_rank:
            masks[a - 1] = neighbourhood
    return Tournament(m, n, tuple(masks))


def selection_from_rankings(table: Mapping[Tournament, RankingPair]) -> SelectionFunctionPair:
    """Selection functions that reproduce stored chain-definable rankings.

    For a tournament in the table, each side repeatedly yields its top
    remaining rank; interleaving with the result reproduces the stored pair.
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

    def top(order: TotalPreorder, pool: frozenset) -> frozenset:
        best = max(order.rank_of(p) for p in pool)
        return frozenset(p for p in pool if order.rank_of(p) == best)

    def f(K: Tournament, a_rem, b_rem):
        pair = frozen.get(K)
        if pair is None or not b_rem:
            return a_rem
        return top(pair.a_order, a_rem)

    def g(K: Tournament, a_rem, b_rem):
        pair = frozen.get(K)
        if pair is None or not a_rem:
            return b_rem
        return top(pair.b_order, b_rem)

    return SelectionFunctionPair("from-rankings", f, g)
