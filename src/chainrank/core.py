"""Bipartite tournament data model.

A tournament is an m-by-n binary result matrix between row players A = 1..m
and column players B = 1..n. Rows are stored as bit masks (bit b-1 holds the
result against column b) so that neighbourhood subset tests and symmetric
differences are single word operations; the solvers do millions of them.

All values here are immutable after construction and every operation is a
pure function. Player labels are 1-based everywhere in the public API,
matching the usual matrix convention; masks are the internal representation.
The rankings read off a tournament are in rankings.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import types
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InputError, NotChainError

if TYPE_CHECKING:
    from .rankings import RankingPair

# the operators operators.resolve_operator accepts and the metrics an
# experiment reports; here so that listing them (the CLI's help, for one)
# loads neither the operators nor the experiment
OPERATOR_NAMES = (
    "count",
    "chain-min-lex",
    "chain-min-mon",
    "chain-min-dual",
    "match-pref:<row-major|col-major|file.json>",
    "ci",
)
ALL_METRICS = ("exact_match", "tie_aware_rank_correlation", "edit_cost")


# sets a field past a value type's frozen __setattr__
_set = object.__setattr__
# from_cells' cell bytes as digits: 0 and 1 as "0" and "1", any other as "2", which int(text, 2) refuses
_DIGITS = bytes(48 + min(b, 2) for b in range(256))


class _Value:
    """Base of the immutable value types.

    A subclass declares its fields once, as class annotations in order; a
    field's class-level value, when it has one, is its default. The
    constructor binds positional and keyword arguments to the fields as a
    dataclass's would (a missing, extra, repeated or unknown argument raises
    TypeError), sets them, then calls the subclass's _check method, if it
    defines one, which validates the fields and raises to refuse them.
    Values of the same class are equal, and hash alike, when their field
    tuples are; assigning or deleting any attribute raises AttributeError.
    Tournament and the rankings' TotalPreorder keep their own __init__, which
    checks and sets the fields without binding arguments: both are built in
    bulk (the axiom lab builds a tournament per relabelling, and every
    ranking pair holds two preorders), and the generic constructor with a
    _check took about twice as long for each.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    # no check by default: a test for None is cheaper than calling an empty method
    _check = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        read = operator.attrgetter(*cls._fields)
        # the field tuple: attrgetter of one name returns the value alone; a
        # staticmethod, so that self._read is the reader, not a bound method
        cls._read = staticmethod(read if len(cls._fields) > 1 else lambda value: (read(value),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            name = self.__class__.__qualname__
            if len(args) > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
            values = dict(zip(fields, args))
            for field in kwargs:
                if field in values:
                    raise TypeError(f"{name}() got multiple values for argument {field!r}")
                if field not in fields:
                    raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            values = {**self._defaults, **values, **kwargs}
            if len(values) < len(fields):
                missing = ", ".join(field for field in fields if field not in values)
                raise TypeError(f"{name}() is missing the argument(s) {missing}")
            args = [values[field] for field in fields]
        # one object.__setattr__ call for all the fields, not one each; a dict
        # set whole, unlike an updated __dict__, keeps attribute reads fast
        _set(self, "__dict__", dict(zip(fields, args)))
        if self._check is not None:
            self._check()

    def _values(self) -> tuple:
        return self._read(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._read(self) == other._read(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._read(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def mask_of(labels: Iterable[int]) -> int:
    """Bit mask for a set of 1-based labels; a label below 1 raises IndexError."""
    labels = tuple(labels)
    bits = bytearray(b"0") * (max(labels, default=0) + 1)  # label 1 last; the 0 parses no labels
    for lab in labels:
        bits[len(bits) - lab] = 49  # "1"; counted from the front, a label below 1 falls past the end
    return int(bits, 2)


def labels_of(mask: int) -> frozenset[int]:
    """1-based labels present in a bit mask."""
    return frozenset(b for b, bit in enumerate(bin(mask)[:1:-1], 1) if bit == "1")


class Tournament(_Value):
    """An m-by-n tournament; cell (a, b) is 1 when row player a defeats column player b.

    Rows are regrouped and rendered from row_counts, built once and not a field: a
    read-only map of each distinct row mask to its row count, in first-appearance order."""

    rows: int
    cols: int
    row_masks: tuple[int, ...]

    def __init__(self, rows: int, cols: int, row_masks: tuple[int, ...]):
        row_masks = tuple(row_masks)  # a list would be neither hashable nor equal to the tuple
        if rows < 1 or cols < 1:
            raise InputError("a tournament needs at least one row and one column player")
        if len(row_masks) != rows:
            raise InputError(f"expected {rows} row masks, got {len(row_masks)}")
        full = (1 << cols) - 1
        for mask in row_masks:
            if not 0 <= mask <= full:
                raise InputError("row mask has bits outside the column range")
        _set(self, "__dict__", {"rows": rows, "cols": cols, "row_masks": row_masks})

    @classmethod
    def _unchecked(cls, rows: int, cols: int, row_masks: tuple[int, ...]) -> "Tournament":
        """A tournament built without __init__'s checks, for a caller that builds
        many from row masks it has already checked as __init__ would."""
        K = object.__new__(cls)
        _set(K, "__dict__", {"rows": rows, "cols": cols, "row_masks": row_masks})
        return K

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
            try:  # a row of integer cells in one C-level step
                masks.append(int(bytes(r[::-1]).translate(_DIGITS), 2))
            except (TypeError, ValueError):  # any other row is read cell by cell
                if bad := [v for v in r if v not in (0, 1)]:
                    raise InputError(f"cell value {bad[0]!r} is not 0 or 1") from None
                masks.append(sum(1 << j for j, v in enumerate(r) if v))
        return cls(len(rows), n, tuple(masks))

    @functools.cached_property
    def row_counts(self) -> types.MappingProxyType:
        return types.MappingProxyType(collections.Counter(self.row_masks))

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        # one tuple per distinct row, shared by the rows that equal it
        rows = {mask: tuple(map(int, format(mask, f"0{self.cols}b")[::-1])) for mask in self.row_counts}
        return tuple(map(rows.__getitem__, self.row_masks))

    def cell(self, a: int, b: int) -> int:
        self._check_row(a)
        self._check_col(b)
        return (self.row_masks[a - 1] >> (b - 1)) & 1

    def row_mask(self, a: int) -> int:
        self._check_row(a)
        return self.row_masks[a - 1]

    @functools.cached_property
    def col_masks(self) -> tuple[int, ...]:
        # each distinct row as n characters, joined last row first: every n-th from n - b is column b
        n = self.cols
        row_bits = {row: format(row, f"0{n}b") for row in self.row_counts}
        bits = "".join(map(row_bits.__getitem__, reversed(self.row_masks)))
        return tuple(int(bits[n - b :: n], 2) for b in range(1, n + 1))

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
        text = {mask: " ".join(format(mask, f"0{self.cols}b")[::-1]) for mask in self.row_counts}
        return "\n".join(map(text.__getitem__, self.row_masks))


def _row_key(mask: int, n: int) -> int:
    """The bit reversal of an n-bit row mask: rows of n columns compare by
    their cells, column 1 first and 0 before 1, as their keys do."""
    return int(bin(mask | 1 << n)[:2:-1], 2)


def canonical_key(K: Tournament) -> tuple:
    """Total order key over all tournaments: size first, then row-major cells, row by row."""
    return (K.rows, K.cols, tuple(_row_key(mask, K.cols) for mask in K.row_masks))


def all_tournaments(m: int, n: int):
    """Yield every m-by-n tournament in canonical order: row masks by _row_key, in product order."""
    Tournament(m, n, (0,) * m)  # refuses a size without players; the rest are built unchecked
    masks = sorted(range(1 << n), key=lambda mask: _row_key(mask, n))
    for row_masks in itertools.product(masks, repeat=m):
        yield Tournament._unchecked(m, n, row_masks)


def neighborhood(K: Tournament, a: int) -> frozenset[int]:
    """Columns defeated by row player a."""
    return labels_of(K.row_mask(a))


def co_neighborhood(K: Tournament, b: int) -> frozenset[int]:
    """Rows that defeat column player b."""
    return labels_of(K.col_mask(b))


def chain_violation(K: Tournament) -> tuple[int, int] | None:
    """First row pair (1-based) with incomparable neighbourhoods, or None.

    Only a non-chain is scanned for the pair to name: its first row with an
    incomparable later row, from each met mask's last incomparable row, then
    the first such later row; linear in rows plus the distinct masks squared.
    """
    masks = K.row_masks
    if has_chain_property(K):
        return None
    last = {mask: j for j, mask in enumerate(masks)}  # each distinct mask's last row
    reach = {}  # each met mask's last incomparable row, or -1
    for i, mask in enumerate(masks):
        if mask not in reach:
            reach[mask] = max((j for other, j in last.items() if mask & other not in (mask, other)), default=-1)
        if reach[mask] > i:
            return i + 1, 1 + next(j for j in range(i + 1, K.rows) if mask & masks[j] not in (mask, masks[j]))


def has_chain_property(K: Tournament) -> bool:
    """True when row neighbourhoods are totally ordered by inclusion: the
    distinct rows, fewest wins first, are each inside the next."""
    distinct = sorted(K.row_counts, key=int.bit_count)
    return all(low & high == low for low, high in zip(distinct, distinct[1:]))


# stays here, not in rankings, as perfbench traces it as core.chain_rankings
def chain_rankings(K: Tournament) -> RankingPair:
    """The neighbourhood-subset rankings of a chain tournament.

    Rows with larger neighbourhoods rank higher; columns with larger
    co-neighbourhoods (more defeats) rank lower. Both orders list the
    weakest rank first. Nested neighbourhoods are ordered by inclusion
    exactly as by size, so these are the win-count rankings phi_count(K).
    """
    from .rankings import phi_count

    bad = chain_violation(K)
    if bad is not None:
        raise NotChainError(
            f"rows {bad[0]} and {bad[1]} have incomparable neighbourhoods; "
            "not a chain tournament"
        )
    return phi_count(K)


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
    new_masks = [0] * K.rows
    for a0, mask in enumerate(K.row_masks):
        remapped = 0
        while mask:
            low = mask & -mask
            remapped |= 1 << (pi[low.bit_length() - 1] - 1)
            mask ^= low
        new_masks[sigma[a0] - 1] = remapped
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
