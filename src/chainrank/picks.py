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

from .chain_edit import _EDIT, _classes, _solve
from .core import Tournament, dual

COL_MAJOR = "col-major"  # least_member's name for column-major order; None is row-major


def least_member(K: Tournament, order, flip: Tournament | None, cap: int | None = None) -> Tournament:
    """The member M of min_chain_set(K) whose cells XOR flip, listed in order, are least.

    order lists every cell (a, b) of K exactly once, 1-based, or names a
    built-in order, None row-major or COL_MAJOR column-major, in either of
    which every row ranks its own cells by column. Distinct members give
    distinct vectors, so the least one is unique; flip None flips nothing. No
    flip with row-major order gives the canonically least member, flip = K
    with a match-preference order the match-preference selection.

    Nothing is expanded, so MEMBER_CAP does not apply. A wide K is mapped
    onto its dual once, at entry, so all that follows sees a tall K: cell
    (b, a) of dual(M) XOR dual(flip) is cell (a, b) of M XOR flip, so the
    order's cells are transposed, which swaps row- and column-major, and no
    flip becomes an all-ones one. For a fixed argmin tuple the rows pick
    their argmin prefixes independently, and every cell belongs to one row,
    so the least vector of that tuple takes, in every row, the argmin whose
    own cells are least (see _least_prefix). Rows with the same search class
    (equal argmins), the same flip row and the same order of their own cells
    pick alike, so each distinct argmin tuple is read once per class of such
    rows. Where the tuples' picks differ, every row of a class holds one
    value per column, so only the first cell of each (class, column) in the
    order can decide: tied picks are compared per (class, column), the
    classes numbered by their first row.
    """
    if K.cols > K.rows:
        order = COL_MAJOR if order is None else None if order == COL_MAJOR else [(b, a) for a, b in order]
        flip = Tournament._unchecked(K.cols, K.rows, ((1 << K.rows) - 1,) * K.cols) if flip is None else dual(flip)
        return dual(least_member(dual(K), order, flip, cap))
    table, search_class = _classes(K, _EDIT)[:2]
    tuples = _solve(table, cap)[1]
    m, n = K.rows, K.cols
    flips = (0,) * m if flip is None else flip.row_masks
    if order is None or order == COL_MAJOR:
        ranked = itertools.repeat(tuple(range(1, n + 1)))
    else:
        # each row's columns in order: a stable sort by row keeps the order of
        # each row's n cells
        by_row = [b for _, b in sorted(order, key=operator.itemgetter(0))]
        ranked = (tuple(by_row[i : i + n]) for i in range(0, m * n, n))
    classes: dict = {}  # (search class, flip row, columns in order): index
    row_class = [classes.setdefault(key, len(classes)) for key in zip(search_class, flips, ranked)]

    def picked(c, f, ranks):
        # the class's pick in every distinct argmin tuple
        return (_least_prefix(argmins[c], f, ranks) for argmins in tuples)

    picks = set(zip(*itertools.starmap(picked, classes)))
    if len(picks) == 1:
        (pick,) = picks
    else:
        keys = [(c, b) for c in range(len(classes)) for b in range(n)]
        if order == COL_MAJOR:
            keys.sort(key=operator.itemgetter(1))
        elif order is not None:
            keys = dict.fromkeys((row_class[a - 1], b - 1) for a, b in order)
        class_flips = [f for _, f, _ in classes]
        pick = min(picks, key=lambda p: [(p[c] ^ class_flips[c]) >> b & 1 for c, b in keys])
    return Tournament._unchecked(m, n, tuple(map(pick.__getitem__, row_class)))


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
