"""Rankings of the two sides of a tournament, and their text form.

A ranking is a total preorder, an ordered partition of one side's 1-based
players into ranks, weakest rank first; an operator's answer is a pair of
them, one per side. phi_count reads the win-count rankings off a tournament,
which on a chain tournament are its neighbourhood-subset rankings.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from .core import Tournament, _set, _Value
from .errors import InputError


class TotalPreorder(_Value):
    """An ordered partition of a player set into ranks, weakest rank first; the
    ranks hold the only copy of the players, which players builds on each read."""

    ranks: tuple[frozenset[int], ...]

    def __init__(self, ranks: tuple[frozenset[int], ...]):
        seen: set[int] = set()
        if not ranks:
            raise InputError("a total preorder needs at least one rank")
        for rank in ranks:
            if not isinstance(rank, frozenset):
                raise InputError("ranks must be frozensets; use from_ranks to coerce")
            if not rank:
                raise InputError("ranks must be non-empty")
            if rank & seen:
                raise InputError("ranks must be pairwise disjoint")
            seen |= rank
        _set(self, "__dict__", {"ranks": ranks})

    @classmethod
    def from_ranks(cls, ranks: Iterable[Iterable[int]]) -> "TotalPreorder":
        return cls(tuple(frozenset(r) for r in ranks))

    @property
    def players(self) -> frozenset[int]:
        return frozenset().union(*self.ranks)

    @functools.cached_property
    def _rank_index(self) -> dict[int, int]:
        return {p: i for i, rank in enumerate(self.ranks) for p in rank}

    def rank_of(self, player: int) -> int:
        """0-based rank index, weakest rank = 0."""
        try:
            return self._rank_index[player]
        except KeyError:
            raise InputError(f"player {player} is not ranked") from None

    def le(self, p: int, q: int) -> bool:
        """True when q is ranked at least as strong as p."""
        return self.rank_of(p) <= self.rank_of(q)

    def strictly_below(self, p: int, q: int) -> bool:
        return self.rank_of(p) < self.rank_of(q)

    def tied(self, p: int, q: int) -> bool:
        return self.rank_of(p) == self.rank_of(q)


def rank_count(p: TotalPreorder) -> int:
    """Number of rank classes."""
    return len(p.ranks)


class RankingPair(_Value):
    """Rankings of the two sides of one tournament."""

    a_order: TotalPreorder
    b_order: TotalPreorder


def _by_popcount(masks: Sequence[int], descending: bool = False) -> TotalPreorder:
    """Players 1..k grouped by the popcount of their masks, fewest bits first by default."""
    groups: dict[int, set[int]] = {}
    for p, mask in enumerate(masks, 1):
        groups.setdefault(mask.bit_count(), set()).add(p)
    return TotalPreorder.from_ranks(groups[c] for c in sorted(groups, reverse=descending))


def phi_count(K: Tournament) -> RankingPair:
    """Rank rows by number of wins and columns by (descending) number of losses.

    On a chain tournament the neighbourhoods are nested, so inclusion order
    is win-count order and this is core.chain_rankings(K).
    """
    return RankingPair(_by_popcount(K.row_masks), _by_popcount(K.col_masks, descending=True))


def format_preorder(
    p: TotalPreorder,
    strict: str = "≺",
    tie: str = "≈",
    labels: Sequence[str] | None = None,
) -> str:
    """Render weakest-first, braces around tied players (e.g. ``1 ≺ {2 ≈ 3}``)."""

    def name(player: int) -> str:
        return labels[player - 1] if labels else str(player)

    parts = []
    for rank in p.ranks:
        members = sorted(rank)
        if len(members) == 1:
            parts.append(name(members[0]))
        else:
            parts.append("{" + f" {tie} ".join(name(x) for x in members) + "}")
    return f" {strict} ".join(parts)


def format_ranking_pair(
    pair: RankingPair,
    a_labels: Sequence[str] | None = None,
    b_labels: Sequence[str] | None = None,
) -> str:
    a = format_preorder(pair.a_order, labels=a_labels)
    b = format_preorder(pair.b_order, strict="⊏", labels=b_labels)
    return f"A: {a}\nB: {b}"
