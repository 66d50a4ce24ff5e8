"""Single-member picks off the factored optimum set of chain editing.

A pick is the one member of min_chain_set(K) whose cells, XOR a flip matrix
and listed in a given cell order, are least: the canonically least member,
which chain_edit.monotone_min_chain returns, and the match-preference
selection. It is read off chain_edit's factored optimum, each class's
argmins per distinct argmin tuple, in time linear in rows.
"""

from __future__ import annotations

import itertools
import operator

from .chain_edit import _EDIT, _solve
from .core import Tournament, dual


def least_member(K: Tournament, order, flip: Tournament | None, cap: int | None = None) -> Tournament:
    """The member M of min_chain_set(K) whose cells XOR flip, listed in order, are least.

    order lists every cell (a, b) of K exactly once, 1-based, or is None for
    row-major order, so distinct members give distinct vectors and the least
    one is unique; flip None flips nothing. No flip with row-major order
    gives the canonically least member, flip = K with a match-preference
    order the match-preference selection.

    Nothing is expanded, so MEMBER_CAP does not apply. A wide K is answered
    on its dual: cell (b, a) of dual(M) XOR dual(flip) is cell (a, b) of M
    XOR flip. For a fixed argmin tuple the rows pick their argmin prefixes
    independently, and every cell belongs to one row, so the least vector
    of that tuple takes, in every row, the argmin whose own cells are least
    (see _least_prefix). Rows with the same search class (equal argmins),
    the same flip row and the same order of their own cells pick alike, so
    each distinct argmin tuple is read once per class of such rows, and the
    tuples' picks are compared cell by cell only when they differ.
    """
    rows, cols = K.rows, K.cols
    wide = cols > rows
    if wide:
        K = dual(K)
    _, search_class, tuples = _solve(K, _EDIT, cap, None)
    m, n = K.rows, K.cols
    full = (1 << n) - 1
    if flip is None:
        flips = (full if wide else 0,) * m
    else:
        flips = (dual(flip) if wide else flip).row_masks
    if order is None:
        ranked = itertools.repeat(tuple(range(1, n + 1)))
    else:
        # each row's columns in order: a stable sort by row keeps the order of
        # each row's n cells
        row_at, col_at = map(operator.itemgetter, (1, 0) if wide else (0, 1))
        by_row = list(map(col_at, sorted(order, key=row_at)))
        ranked = (tuple(by_row[i : i + n]) for i in range(0, m * n, n))
    classes: dict = {}  # (search class, flip row, columns in order): index
    row_class = [classes.setdefault(key, len(classes)) for key in zip(search_class, flips, ranked)]
    smallest, largest = operator.itemgetter(0), operator.itemgetter(-1)

    def picked(c, f, ranks):
        # the class's pick in every distinct argmin tuple: a smaller argmin
        # is inside a larger one, so with f empty the smallest is least, and
        # with f full the largest
        argmins = map(operator.itemgetter(c), tuples)
        if f == 0 or f == full:
            return map(largest if f else smallest, argmins)
        return (_least_prefix(a, f, ranks) for a in argmins)

    picks = set(zip(*itertools.starmap(picked, classes)))
    if len(picks) == 1:
        (pick,) = picks
    else:
        grid = itertools.product(range(1, rows + 1), range(1, cols + 1)) if order is None else order
        if wide:
            grid = ((b, a) for a, b in grid)
        cells = [(row_class[a - 1], flips[a - 1], b - 1) for a, b in grid]
        pick = min(picks, key=lambda p: [(p[i] ^ f) >> b & 1 for i, f, b in cells])
    M = Tournament._unchecked(m, n, tuple(map(pick.__getitem__, row_class)))
    return dual(M) if wide else M


def _least_prefix(argmins, flip: int, ranks) -> int:
    """The argmin prefix whose cells XOR flip are least, compared in the order of
    the 1-based columns ranks.

    The argmins of one ordering are nested, smallest first, so two of them
    differ exactly in the columns the larger adds, and the larger is less
    when flip holds the first of those.
    """
    least = argmins[0]
    for prefix in argmins[1:]:
        added = prefix ^ least
        first = next(b for b in ranks if added >> b - 1 & 1)
        if flip >> first - 1 & 1:
            least = prefix
    return least
