"""Match-preference relations and the deterministic chain-editing selection.

A match preference is a total priority order over matrix cells: the earlier a
cell appears, the more willing we are to change it during chain editing. The
selection picks, among all closest chain tournaments, the one whose difference
vector (cells listed in priority order) is lexicographically least, i.e. the
one that concentrates changes on high-priority cells.

The equivalent weighted formulation assigns cell (a, b) the weight
1 + 2^(-p) for its 1-based priority position p. Scaling every weight by
2^(mn) keeps the arithmetic in exact integers: the uniqueness of the weighted
optimum rests on strict inequalities between sums of distinct powers of two,
which floating point would destroy.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .core import Tournament, _Value, chain_rankings
from .errors import InputError, ResourceCapError

if TYPE_CHECKING:
    from fractions import Fraction

    from .rankings import RankingPair

DEFAULT_BIT_BUDGET = 120

ROW_MAJOR = "row_major_lex"
COL_MAJOR = "col_major_lex"
EXPLICIT = "explicit"


class MatchPreference(_Value):
    """Total priority order over matrix index pairs (1-based, earliest = most changeable)."""

    kind: str
    explicit: tuple[tuple[int, int], ...] | None = None

    def _check(self) -> None:
        if self.kind not in (ROW_MAJOR, COL_MAJOR, EXPLICIT):
            raise InputError(f"unknown match-preference kind {self.kind!r}")
        if self.kind == EXPLICIT and not self.explicit:
            raise InputError("explicit match preference needs a priority list")

    @classmethod
    def row_major(cls) -> "MatchPreference":
        return cls(ROW_MAJOR)

    @classmethod
    def col_major(cls) -> "MatchPreference":
        return cls(COL_MAJOR)

    @classmethod
    def from_pairs(cls, pairs) -> "MatchPreference":
        return cls(EXPLICIT, tuple((int(a), int(b)) for a, b in pairs))

    def order(self, m: int, n: int) -> tuple[tuple[int, int], ...]:
        """The cell pairs of [m]x[n] in ascending priority order."""
        rows, cols = range(1, m + 1), range(1, n + 1)
        if self.kind == ROW_MAJOR:
            return tuple(itertools.product(rows, cols))
        if self.kind == COL_MAJOR:
            return tuple((a, b) for b, a in itertools.product(cols, rows))
        if set(self.explicit) != set(itertools.product(rows, cols)) or len(self.explicit) != m * n:
            raise InputError(
                f"explicit match preference must list every cell of a {m}x{n} "
                "matrix exactly once"
            )
        return self.explicit

    def positions(self, m: int, n: int) -> dict[tuple[int, int], int]:
        """1-based priority position of every cell."""
        return {ab: i + 1 for i, ab in enumerate(self.order(m, n))}


# the names of the built-in orders, on the command line and in operator names
ORDER_ALIASES = {
    **dict.fromkeys(("row-major", "row_major", "lex"), ROW_MAJOR),
    **dict.fromkeys(("col-major", "col_major", "colex"), COL_MAJOR),
}


def parse_order_name(name: str) -> MatchPreference:
    if name not in ORDER_ALIASES:
        raise InputError(f"unknown match-preference order {name!r}")
    return MatchPreference(ORDER_ALIASES[name])


def vectorize(K: Tournament, pref: MatchPreference) -> tuple[int, ...]:
    """Entries of K collected in ascending priority order."""
    return tuple(K.cell(a, b) for a, b in pref.order(K.rows, K.cols))


def select_match_pref(K: Tournament, pref: MatchPreference, cap: int | None = None) -> Tournament:
    """The unique closest chain tournament with lexicographically least difference vector.

    Distinct matrices at equal distance differ somewhere, so their difference
    vectors never coincide; the pick is read off the factored optimum set
    without expanding it. The built-in orders reach least_member by name, so
    only an explicit preference lists the m*n cells.
    """
    from . import picks  # here, so that `chainrank weights` loads no pick engine

    if pref.kind == EXPLICIT:
        return picks.least_member(K, pref.order(K.rows, K.cols), K, cap)
    return picks.least_member(K, None if pref.kind == ROW_MAJOR else picks.COL_MAJOR, K, cap)


def rank_match_pref(K: Tournament, pref: MatchPreference, cap: int | None = None) -> RankingPair:
    """Rankings of the match-preference selection."""
    return chain_rankings(select_match_pref(K, pref, cap))


def weights_for(
    pref: MatchPreference, m: int, n: int, bit_budget: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Integer cell weights whose unique weighted optimum is the match-preference selection.

    The returned weights are 2^(mn) * (1 + 2^(-p)) = 2^(mn) + 2^(mn - p) for
    the 1-based priority position p of each cell; dividing by 2^(mn) recovers
    the rational weights exactly.
    """
    if m < 1 or n < 1:
        raise InputError(f"weights need at least one row and one column, not {m}x{n}")
    budget = DEFAULT_BIT_BUDGET if bit_budget is None else bit_budget
    total = m * n
    if total > budget:
        raise ResourceCapError(
            f"{m}x{n} weights need {total}-bit precision, over the budget of {budget}"
        )
    pos = pref.positions(m, n)
    scale = 1 << total
    return tuple(
        tuple(scale + (scale >> pos[(a, b)]) for b in range(1, n + 1))
        for a in range(1, m + 1)
    )


def weight_fractions(
    pref: MatchPreference, m: int, n: int, bit_budget: int | None = None
) -> tuple[tuple[Fraction, ...], ...]:
    """The weights as exact rationals 1 + 2^(-p)."""
    from fractions import Fraction

    weights = weights_for(pref, m, n, bit_budget)
    scale = 1 << (m * n)
    return tuple(tuple(Fraction(w, scale) for w in row) for row in weights)
