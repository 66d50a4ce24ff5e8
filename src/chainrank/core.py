"""Bipartite tournament data model.

A tournament is an m-by-n binary result matrix between row players A = 1..m
and column players B = 1..n. Rows are stored as bit masks (bit b-1 holds the
result against column b) so that neighbourhood subset tests and symmetric
differences are single word operations; the solvers do millions of them.

All values here are immutable after construction and every operation is a
pure function. Player labels are 1-based everywhere in the public API,
matching the usual matrix convention; masks are the internal representation.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .errors import InputError, NotChainError

# the operators operators.resolve_operator accepts; here so that listing them
# (the CLI's help, for one) does not load the operators
OPERATOR_NAMES = (
    "count",
    "chain-min-lex",
    "chain-min-mon",
    "chain-min-dual",
    "match-pref:<row-major|col-major|file.json>",
    "ci",
)


# sets a field past a value type's frozen __setattr__
_set = object.__setattr__


class _Value:
    """Base of the immutable value types.

    A subclass names its fields as class annotations and sets them once, in
    its own __init__, with _init (or _set). Values of the same class are
    equal, and hash alike, when their field tuples are; assigning or deleting
    any attribute raises AttributeError. The types built and hashed in bulk
    define their own __eq__ and __hash__ over the same tuple.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def mask_of(labels: Iterable[int]) -> int:
    """Bit mask for a set of 1-based labels."""
    mask = 0
    for lab in labels:
        mask |= 1 << (lab - 1)
    return mask


def labels_of(mask: int) -> frozenset[int]:
    """1-based labels present in a bit mask."""
    labels = set()
    b = 1
    while mask:
        if mask & 1:
            labels.add(b)
        mask >>= 1
        b += 1
    return frozenset(labels)


class Tournament(_Value):
    """An m-by-n tournament; cell (a, b) is 1 when row player a defeats column player b."""

    rows: int
    cols: int
    row_masks: tuple[int, ...]

    def __init__(self, rows: int, cols: int, row_masks: tuple[int, ...]):
        if rows < 1 or cols < 1:
            raise InputError("a tournament needs at least one row and one column player")
        if len(row_masks) != rows:
            raise InputError(f"expected {rows} row masks, got {len(row_masks)}")
        full = (1 << cols) - 1
        for mask in row_masks:
            if not 0 <= mask <= full:
                raise InputError("row mask has bits outside the column range")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "row_masks", row_masks)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self.row_masks == other.row_masks
                and self.rows == other.rows
                and self.cols == other.cols
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.row_masks))

    @classmethod
    def from_cells(cls, cells: Sequence[Sequence[int]]) -> "Tournament":
        rows = [list(r) for r in cells]
        if not rows or not rows[0]:
            raise InputError("a tournament needs at least one row and one column player")
        n = len(rows[0])
        masks = []
        for r in rows:
            if len(r) != n:
                raise InputError("matrix rows have unequal lengths")
            mask = 0
            for j, v in enumerate(r):
                if v not in (0, 1):
                    raise InputError(f"cell value {v!r} is not 0 or 1")
                if v:
                    mask |= 1 << j
            masks.append(mask)
        return cls(len(rows), n, tuple(masks))

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple((mask >> b) & 1 for b in range(self.cols)) for mask in self.row_masks
        )

    def cell(self, a: int, b: int) -> int:
        self._check_row(a)
        self._check_col(b)
        return (self.row_masks[a - 1] >> (b - 1)) & 1

    def row_mask(self, a: int) -> int:
        self._check_row(a)
        return self.row_masks[a - 1]

    @cached_property
    def col_masks(self) -> tuple[int, ...]:
        masks = [0] * self.cols
        for a0, row in enumerate(self.row_masks):
            while row:
                low = row & -row
                masks[low.bit_length() - 1] |= 1 << a0
                row ^= low
        return tuple(masks)

    def col_mask(self, b: int) -> int:
        self._check_col(b)
        return self.col_masks[b - 1]

    def with_cell(self, a: int, b: int, value: int) -> "Tournament":
        """Copy with cell (a, b) set to value."""
        if value not in (0, 1):
            raise InputError(f"cell value {value!r} is not 0 or 1")
        self._check_row(a)
        self._check_col(b)
        bit = 1 << (b - 1)
        masks = list(self.row_masks)
        masks[a - 1] = (masks[a - 1] | bit) if value else (masks[a - 1] & ~bit)
        return Tournament(self.rows, self.cols, tuple(masks))

    def _check_row(self, a: int) -> None:
        if not 1 <= a <= self.rows:
            raise InputError(f"row label {a} out of range 1..{self.rows}")

    def _check_col(self, b: int) -> None:
        if not 1 <= b <= self.cols:
            raise InputError(f"column label {b} out of range 1..{self.cols}")

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.cells)


def canonical_key(K: Tournament) -> tuple:
    """Total order key over all tournaments: size first, then row-major cells."""
    cols = range(K.cols)
    return (K.rows, K.cols, tuple(mask >> b & 1 for mask in K.row_masks for b in cols))


def all_tournaments(m: int, n: int):
    """Yield every m-by-n tournament in canonical (row-major cell) order."""
    total = m * n
    for bits in range(1 << total):
        masks = []
        for a0 in range(m):
            mask = 0
            for b0 in range(n):
                if (bits >> (total - 1 - (a0 * n + b0))) & 1:
                    mask |= 1 << b0
            masks.append(mask)
        yield Tournament(m, n, tuple(masks))


class TotalPreorder(_Value):
    """An ordered partition of a player set into ranks, weakest rank first."""

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
        _set(self, "ranks", ranks)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.ranks == other.ranks
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ranks,))

    @classmethod
    def from_ranks(cls, ranks: Iterable[Iterable[int]]) -> "TotalPreorder":
        return cls(tuple(frozenset(r) for r in ranks))

    @cached_property
    def players(self) -> frozenset[int]:
        out: set[int] = set()
        for rank in self.ranks:
            out |= rank
        return frozenset(out)

    @cached_property
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


def preorder_from_scores(players: Iterable[int], score, descending: bool = False) -> TotalPreorder:
    """Group players by score into ranks; by default lower score = weaker."""
    groups: dict = {}
    for p in players:
        groups.setdefault(score(p), set()).add(p)
    keys = sorted(groups, reverse=descending)
    return TotalPreorder.from_ranks(groups[k] for k in keys)


class RankingPair(_Value):
    """Rankings of the two sides of one tournament."""

    a_order: TotalPreorder
    b_order: TotalPreorder

    def __init__(self, a_order: TotalPreorder, b_order: TotalPreorder):
        _set(self, "a_order", a_order)
        _set(self, "b_order", b_order)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.a_order == other.a_order and self.b_order == other.b_order
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a_order, self.b_order))


def neighborhood(K: Tournament, a: int) -> frozenset[int]:
    """Columns defeated by row player a."""
    return labels_of(K.row_mask(a))


def co_neighborhood(K: Tournament, b: int) -> frozenset[int]:
    """Rows that defeat column player b."""
    return labels_of(K.col_mask(b))


def chain_violation(K: Tournament) -> tuple[int, int] | None:
    """First row pair (1-based) with incomparable neighbourhoods, or None."""
    masks = K.row_masks
    for i in range(K.rows):
        for j in range(i + 1, K.rows):
            inter = masks[i] & masks[j]
            if inter != masks[i] and inter != masks[j]:
                return (i + 1, j + 1)
    return None


def has_chain_property(K: Tournament) -> bool:
    """True when row neighbourhoods are totally ordered by inclusion."""
    return chain_violation(K) is None


def chain_rankings(K: Tournament) -> RankingPair:
    """The neighbourhood-subset rankings of a chain tournament.

    Rows with larger neighbourhoods rank higher; columns with larger
    co-neighbourhoods (more defeats) rank lower. Both orders list the
    weakest rank first.
    """
    bad = chain_violation(K)
    if bad is not None:
        raise NotChainError(
            f"rows {bad[0]} and {bad[1]} have incomparable neighbourhoods; "
            "not a chain tournament"
        )
    a_groups: dict[int, set[int]] = {}
    for a in range(1, K.rows + 1):
        a_groups.setdefault(K.row_masks[a - 1], set()).add(a)
    a_order = TotalPreorder.from_ranks(
        a_groups[mask] for mask in sorted(a_groups, key=lambda x: x.bit_count())
    )
    b_groups: dict[int, set[int]] = {}
    for b in range(1, K.cols + 1):
        b_groups.setdefault(K.col_masks[b - 1], set()).add(b)
    b_order = TotalPreorder.from_ranks(
        b_groups[mask]
        for mask in sorted(b_groups, key=lambda x: x.bit_count(), reverse=True)
    )
    return RankingPair(a_order, b_order)


def dual(K: Tournament) -> Tournament:
    """The dual tournament: transpose and complement, swapping the two sides."""
    full = (1 << K.rows) - 1
    return Tournament(K.cols, K.rows, tuple(full & ~c for c in K.col_masks))


def _check_permutation(perm: Sequence[int], size: int, what: str) -> None:
    if sorted(perm) != list(range(1, size + 1)):
        raise InputError(f"{what} is not a permutation of 1..{size}")


def permute(
    K: Tournament,
    sigma: Sequence[int] | None = None,
    pi: Sequence[int] | None = None,
) -> Tournament:
    """Relabel rows by sigma and columns by pi (maps from old label to new label)."""
    if sigma is None:
        sigma = tuple(range(1, K.rows + 1))
    if pi is None:
        pi = tuple(range(1, K.cols + 1))
    _check_permutation(sigma, K.rows, "row permutation")
    _check_permutation(pi, K.cols, "column permutation")
    identity_pi = all(pi[b0] == b0 + 1 for b0 in range(K.cols))
    new_masks = [0] * K.rows
    for a0, mask in enumerate(K.row_masks):
        if not identity_pi:
            remapped = 0
            rest = mask
            while rest:
                low = rest & -rest
                remapped |= 1 << (pi[low.bit_length() - 1] - 1)
                rest ^= low
            mask = remapped
        new_masks[sigma[a0] - 1] = mask
    return Tournament(K.rows, K.cols, tuple(new_masks))


def _check_same_size(K: Tournament, K2: Tournament) -> None:
    if (K.rows, K.cols) != (K2.rows, K2.cols):
        raise InputError(
            f"size mismatch: {K.rows}x{K.cols} vs {K2.rows}x{K2.cols}"
        )


def hamming(K: Tournament, K2: Tournament) -> int:
    """Number of cells on which the two tournaments differ."""
    _check_same_size(K, K2)
    return sum((r1 ^ r2).bit_count() for r1, r2 in zip(K.row_masks, K2.row_masks))


def xor(K: Tournament, K2: Tournament) -> Tournament:
    """Cellwise difference indicator: 1 exactly where the two tournaments differ."""
    _check_same_size(K, K2)
    return Tournament(
        K.rows, K.cols, tuple(r1 ^ r2 for r1, r2 in zip(K.row_masks, K2.row_masks))
    )


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
