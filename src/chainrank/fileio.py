"""The input file formats: tournaments, states and match preferences.

Two tournament formats are supported:
  * csv: one row per line of comma-separated 0/1 cells, each distinct line
    parsed once; blank lines and lines starting with '#' are ignored.
  * json: {"rows": m, "cols": n, "matrix": [[...]]}, optionally with
    "a_labels" and "b_labels" arrays of player names, strings or integers;
    each distinct matrix row is checked once.

A state file is JSON {"x": [...], "y": [...]} of skill levels.

A match-preference file is a JSON list of 1-based [row, col] integer pairs,
most changeable cell first, listing every cell exactly once.

Every file is read by _read, past a leading byte-order mark, and its JSON
parsed by _parse: each read or parse error becomes InputError in one place.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .core import Tournament, _Value
from .errors import InputError

if TYPE_CHECKING:
    from .match_pref import MatchPreference
    from .prob_model import StateOfWorld


def _read(path: str, what: str = "") -> str:
    """The text of a UTF-8 file, less any byte-order mark; what names the file in the message."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what}{path}: {exc}") from exc


def _parse(text: str, what: str = ""):
    """The JSON value of text; what names the file in the message. Beyond
    JSONDecodeError, json.loads raises a plain ValueError for an integer over
    the interpreter's digit limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what}not valid JSON: {exc}") from exc


class TournamentFile(_Value):
    tournament: Tournament
    a_labels: tuple[str, ...] | None = None
    b_labels: tuple[str, ...] | None = None


def parse_csv(text: str) -> TournamentFile:
    cells, lines = {}, []  # each distinct matrix line's cells, by first appearance; every matrix line
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line not in cells:
            try:
                cells[line] = [int(tok.strip()) for tok in line.split(",")]
            except ValueError:
                raise InputError(f"line {lineno}: cells must be integers 0 or 1") from None
        lines.append(line)
    if not cells:
        raise InputError("no matrix rows found")
    return TournamentFile(_from_distinct(cells, lines))


def _from_distinct(cells: dict, keys: list) -> Tournament:
    """The rows cells[key] for key in keys, each distinct row checked once, in order of first appearance."""
    distinct = Tournament.from_cells(cells.values())
    masks = dict(zip(cells, distinct.row_masks))
    return Tournament(len(keys), distinct.cols, map(masks.__getitem__, keys))


def to_csv(K: Tournament) -> str:
    return str(K).replace(" ", ",") + "\n"


def _check_labels(labels, count: int, side: str) -> tuple[str, ...] | None:
    if labels is None:
        return None
    if not isinstance(labels, list):
        raise InputError(f"{side} labels must be a list of names")
    if not all(isinstance(x, (str, int)) and not isinstance(x, bool) for x in labels):
        raise InputError(f"{side} labels must be strings or integers")
    labels = [str(x) for x in labels]
    if len(labels) != count:
        raise InputError(f"{side} labels must list exactly {count} names")
    if any("\ud800" <= c <= "\udfff" for name in labels for c in name):
        raise InputError(f"{side} labels must be valid Unicode text")
    return tuple(labels)


def parse_json(text: str) -> TournamentFile:
    data = _parse(text)
    if not isinstance(data, dict) or "matrix" not in data:
        raise InputError('JSON tournament needs a "matrix" field')
    matrix = data["matrix"]
    if not isinstance(matrix, list):
        raise InputError('"matrix" must be a list of rows of integers 0 or 1')
    keys = list(map(repr, matrix))  # 1, 1.0, true and "1" never share a key
    cells = dict(zip(keys, matrix))
    if not all(isinstance(row, list) and all(type(v) is int for v in row) for row in cells.values()):
        raise InputError('"matrix" must be a list of rows of integers 0 or 1')
    K = _from_distinct(cells, keys)
    for key, expected in (("rows", K.rows), ("cols", K.cols)):
        if key in data and data[key] != expected:
            raise InputError(f'"{key}" is {data[key]} but the matrix has {expected}')
    return TournamentFile(
        K,
        _check_labels(data.get("a_labels"), K.rows, "A"),
        _check_labels(data.get("b_labels"), K.cols, "B"),
    )


def to_json(K: Tournament, a_labels=None, b_labels=None) -> str:
    data = {"rows": K.rows, "cols": K.cols, "matrix": [list(row) for row in K.cells]}
    if a_labels:
        data["a_labels"] = list(a_labels)
    if b_labels:
        data["b_labels"] = list(b_labels)
    return json.dumps(data, sort_keys=True) + "\n"


def parse_tournament(text: str) -> TournamentFile:
    """Sniff the format: JSON when the first non-blank character is '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json(text)
    return parse_csv(text)


def load_tournament(path: str) -> TournamentFile:
    return parse_tournament(_read(path))


def load_state(path: str) -> StateOfWorld:
    from .prob_model import StateOfWorld

    data = _parse(_read(path), "state file is ")
    if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in ("x", "y")):
        raise InputError('a state file needs "x" and "y" arrays')
    return StateOfWorld(tuple(data["x"]), tuple(data["y"]))


def load_match_preference(path: str) -> MatchPreference:
    from .match_pref import MatchPreference

    pairs = _parse(_read(path, "match-preference file "), f"match-preference file {path} is ")
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p) for p in pairs
    ):
        raise InputError("match-preference file must hold a JSON list of [row, col] pairs")
    return MatchPreference.from_pairs(pairs)
