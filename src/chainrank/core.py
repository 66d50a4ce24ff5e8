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

import itertools
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InputError, NotChainError

if TYPE_CHECKING:
    from .rankings import RankingPair

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


class _lazy:
    """An attribute computed on its first read and then stored on the instance.

    A non-data descriptor: the value is stored with _set, past the frozen
    __setattr__, under the method's own name, so every later read finds it in
    the instance and never calls this again. Unlike functools.cached_property,
    which takes a lock on every first read before Python 3.12, it takes none:
    two threads that race on a first read compute the same value twice.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.func(obj)
        _set(obj, self.name, value)
        return value


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
    Tournament and the rankings' TotalPreorder and RankingPair are built in
    bulk, so they keep their own __init__, __eq__ and __hash__ over the same
    fields.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    # no check by default: a test for None is cheaper than calling an empty method
    _check = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

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
    return frozenset(b + 1 for b in range(mask.bit_length()) if mask >> b & 1)


class Tournament(_Value):
    """An m-by-n tournament; cell (a, b) is 1 when row player a defeats column player b."""

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
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "row_masks", row_masks)

    @classmethod
    def _unchecked(cls, rows: int, cols: int, row_masks: tuple[int, ...]) -> "Tournament":
        """A tournament built without __init__'s checks, for a caller that builds
        many from row masks it has already checked as __init__ would."""
        K = object.__new__(cls)
        _set(K, "__dict__", {"rows": rows, "cols": cols, "row_masks": row_masks})
        return K

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

    @_lazy
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

    The rows form a chain exactly when the distinct masks, fewest bits first,
    are each inside the next, which takes a sort; only a non-chain is scanned
    pair by pair, in index order, for the pair to name.
    """
    masks = K.row_masks
    distinct = sorted(set(masks), key=int.bit_count)
    if all(low & high == low for low, high in zip(distinct, distinct[1:])):
        return None
    for i in range(K.rows):
        for j in range(i + 1, K.rows):
            inter = masks[i] & masks[j]
            if inter != masks[i] and inter != masks[j]:
                return (i + 1, j + 1)
    return None


def has_chain_property(K: Tournament) -> bool:
    """True when row neighbourhoods are totally ordered by inclusion."""
    return chain_violation(K) is None


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
