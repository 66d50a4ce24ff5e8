"""Tournament and state file formats.

Two tournament formats are supported:
  * csv: one row per line of comma-separated 0/1 cells; blank lines and
    lines starting with '#' are ignored.
  * json: {"rows": m, "cols": n, "matrix": [[...]]}, optionally with
    "a_labels" and "b_labels" arrays of player names.

A state file is JSON {"x": [...], "y": [...]}.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .core import Tournament, _Value
from .errors import InputError

if TYPE_CHECKING:
    from .prob_model import StateOfWorld


class TournamentFile(_Value):
    tournament: Tournament
    a_labels: tuple[str, ...] | None
    b_labels: tuple[str, ...] | None

    def __init__(
        self,
        tournament: Tournament,
        a_labels: tuple[str, ...] | None = None,
        b_labels: tuple[str, ...] | None = None,
    ):
        self._init(tournament, a_labels, b_labels)


def parse_csv(text: str) -> TournamentFile:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([int(tok.strip()) for tok in line.split(",")])
        except ValueError:
            raise InputError(f"line {lineno}: cells must be integers 0 or 1") from None
    if not rows:
        raise InputError("no matrix rows found")
    return TournamentFile(Tournament.from_cells(rows))


def to_csv(K: Tournament) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in K.cells) + "\n"


def _check_labels(labels, count: int, side: str) -> tuple[str, ...] | None:
    if labels is None:
        return None
    if not isinstance(labels, list):
        raise InputError(f"{side} labels must be a list of names")
    labels = [str(x) for x in labels]
    if len(labels) != count:
        raise InputError(f"{side} labels must list exactly {count} names")
    return tuple(labels)


def parse_json(text: str) -> TournamentFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "matrix" not in data:
        raise InputError('JSON tournament needs a "matrix" field')
    matrix = data["matrix"]
    if not isinstance(matrix, list) or not all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in matrix
    ):
        raise InputError('"matrix" must be a list of rows of integers 0 or 1')
    K = Tournament.from_cells(matrix)
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_tournament(text)


def load_state(path: str) -> StateOfWorld:
    from .prob_model import StateOfWorld

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"state file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in ("x", "y")):
        raise InputError('a state file needs "x" and "y" arrays')
    return StateOfWorld(tuple(data["x"]), tuple(data["y"]))
