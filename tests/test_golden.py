"""Recorded digests of the commands that read the factored optimum.

Every entry of golden_cli.json is an argv, the exit code cli.main returns for
it, and the SHA-256 of what it writes to stdout and to stderr. The test runs
each entry in-process, in a directory holding the input files built below, so
a change to any listing, pick, count or refusal message fails it. Digests
cannot tell a right answer from a wrong one: the oracle tests check
correctness, and this test guards against unintended change.

The inputs are built from random.Random(seed).random() alone, whose sequence
Python keeps the same across versions. They are tall, square and wide, with
one or several optimal orderings, and two of them are beyond a cap: rows of
two disjoint column patterns, whose optimum set is beyond MEMBER_CAP, and an
input over a lowered --cap. Three inputs of 12 columns or rows are searched
under --cap 12, with 80 to 288 tied optimal orderings, beyond the default
cap of 8; a planted 71x6 and its transpose list 2,304 members each. The
states for likelihood --state are drawn the same way. simulate, weights and
one malformed file of each format are pinned beside them, and so are the
axiom lab's scoped verdicts and its counterexample suite.

A change that alters an output on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden.py

and lists each changed digest, and why, with the change.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from chainrank.cli import main

from helpers import two_patterns

CORPUS = Path(__file__).with_name("golden_cli.json")


def _uniform(seed, m, n, p=0.5):
    rng = random.Random(seed)
    return [[int(rng.random() < p) for _ in range(n)] for _ in range(m)]


def _planted(seed, m, n, beta=0.1):
    """Rows that are prefixes of columns 1..n, each cell then flipped with probability beta."""
    rng = random.Random(seed)
    rows = []
    for _ in range(m):
        k = int(rng.random() * (n + 1))
        rows.append([int(b < k) ^ (rng.random() < beta) for b in range(n)])
    return rows


INPUTS = {
    "tall": _uniform(1, 9, 4),
    "square": _uniform(2, 5, 5),
    "wide": _uniform(3, 3, 7),
    "tied": _uniform(12, 8, 5),  # 38 optimal orderings
    "planted": _planted(2, 30, 5),  # one optimal ordering, 48 members
    "planted-wide": [list(col) for col in zip(*_planted(6, 24, 4))],  # one ordering of its dual
    "two-patterns": two_patterns(100, 4),  # 4,608 optimal orderings
}

# searches over more columns than the default cap of 8, run under --cap 12
BEYOND_CAP = {
    "planted-12x12": _planted(1, 12, 12, 0.05),  # 80 optimal orderings
    "planted-12x12-tied": _planted(6, 12, 12, 0.05),  # 288 optimal orderings
    "planted-10x12": [list(col) for col in zip(*_planted(7, 12, 10))],  # 132 orderings of its dual
}

BEYOND_CAP_COMMANDS = [
    ["edit"],
    ["rank", "-o", "chain-min-lex"],
    ["rank", "-o", "chain-min-dual"],
    ["rank", "-o", "match-pref:col-major"],
    ["likelihood", "--mle", "--alpha-plus", "0.1", "--alpha-minus", "0.3"],
]

# one optimal ordering with 2,304 members, listed tall and wide
LISTINGS = {
    "planted-71x6": _planted(30, 71, 6),
    "planted-6x71": [list(col) for col in zip(*_planted(30, 71, 6))],
}

COMMANDS = [
    ["edit"],
    ["edit", "--all"],
    ["edit", "--complete"],
    ["edit", "--delete"],
    ["edit", "--weighted", "row-major"],
    ["edit", "--weighted", "col-major"],
    ["rank", "-o", "ci"],
    ["rank", "-o", "count"],
    ["rank", "-o", "chain-min-lex"],
    ["rank", "-o", "chain-min-mon"],
    ["rank", "-o", "chain-min-dual"],
    ["rank", "-o", "match-pref:row-major"],
    ["rank", "-o", "match-pref:col-major"],
    ["rank", "-o", "match-pref:{name}-order.json"],
    ["likelihood", "--mle", "--beta", "0.1"],
    ["likelihood", "--mle", "--alpha-plus", "0.1", "--alpha-minus", "0.2"],
]

# the five operators of perfbench's sweep, and chain-min-dual
SWEEP = "count,ci,chain-min-lex,chain-min-mon,match-pref:row-major,chain-min-dual"

# commands run once each, in text and JSON
SINGLE = [
    ["simulate", "--m", "6", "--n", "6", "--beta", "0.1", "--operators", SWEEP, "--trials", "20", "--seed", "3"],
    # the exam shape: many rows, few columns
    ["simulate", "--m", "300", "--n", "8", "--beta", "0.1", "--operators", "ci,chain-min-lex", "--trials", "1", "--seed", "0"],
    ["likelihood", "square.csv", "--state", "square-state.json", "--beta", "0.1"],
    ["likelihood", "tall.csv", "--state", "tall-state.json", "--alpha-plus", "0.1", "--alpha-minus", "0.2"],
    # zero noise: an observation that is not the state's tournament is impossible
    ["likelihood", "square.csv", "--state", "square-state.json"],
    ["weights", "--order", "row-major", "--m", "3", "--n", "4"],
    ["weights", "--order", "col-major", "--m", "3", "--n", "4"],
    ["weights", "--order", "row-major", "--m", "11", "--n", "11"],
    ["edit", "bad.csv"],
    ["rank", "bad.json", "-o", "count"],
    ["likelihood", "square.csv", "--state", "bad-state.json", "--beta", "0.1"],
    ["rank", "square.csv", "-o", "match-pref:bad-order.json"],
]

# the axiom lab: every scoped verdict of six operators over the small sizes,
# sweep's scope, and the counterexample suite. --scope prints the same JSON
# with or without --json, so each scope runs once.
AXIOM_OPERATORS = ["count", "ci", "chain-min-lex", "chain-min-mon", "chain-min-dual", "match-pref:row-major"]
AXIOM_SCOPES = ["1x1,1x2,2x1,1x3,3x1,2x2,2x3,3x2,3x3", "1x4,4x1,2x4,4x2"]

MALFORMED = {
    "bad.csv": "1,0\nx,1\n",
    "bad.json": '{"rows": 2, "matrix": [[1, 0], [0, 1], [1, 1]]}',
    "bad-state.json": '{"x": [1, 2]}',
    "bad-order.json": "[[1, 1], [1, 1]]",
}


def _state(seed, m, n):
    """Skill levels 1..t, t = min(m, n), each held by some row and some column,
    so every gap between two levels of one side holds a level of the other."""
    rng = random.Random(seed)
    t = min(m, n)
    sides = []
    for count in (m, n):
        levels = list(range(1, t + 1)) + [1 + int(rng.random() * t) for _ in range(count - t)]
        levels.sort(key=lambda _: rng.random())
        sides.append(levels)
    return {"x": sides[0], "y": sides[1]}


def write_inputs(directory: Path) -> None:
    """Each input as NAME.csv, a shuffled order of its cells as NAME-order.json,
    two states as NAME-state.json, and the malformed files."""
    for seed, (name, rows) in enumerate(INPUTS.items()):
        (directory / f"{name}.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
        rng = random.Random(seed)
        cells = [[a, b] for a in range(1, len(rows) + 1) for b in range(1, len(rows[0]) + 1)]
        cells.sort(key=lambda _: rng.random())
        (directory / f"{name}-order.json").write_text(json.dumps(cells))
    for name, rows in {**BEYOND_CAP, **LISTINGS}.items():
        (directory / f"{name}.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    for seed, name in enumerate(("square", "tall"), start=20):
        rows = INPUTS[name]
        (directory / f"{name}-state.json").write_text(json.dumps(_state(seed, len(rows), len(rows[0]))))
    for name, text in MALFORMED.items():
        (directory / name).write_text(text)


def commands():
    """Every argv of the corpus: each command on each input, in text and JSON,
    two refusals of the lowered enumeration cap, each single command in text
    and JSON, the searches under a raised cap in text and JSON, the
    listings, and the axiom lab."""
    for name in INPUTS:
        for command in COMMANDS:
            argv = [command[0], f"{name}.csv", *(arg.format(name=name) for arg in command[1:])]
            yield argv
            yield [*argv, "--json"]
    yield ["--cap", "4", "edit", "square.csv"]
    yield ["--cap", "4", "rank", "square.csv", "-o", "chain-min-lex", "--json"]
    for argv in SINGLE:
        yield argv
        yield [*argv, "--json"]
    for name in BEYOND_CAP:
        for command in BEYOND_CAP_COMMANDS:
            argv = ["--cap", "12", command[0], f"{name}.csv", *command[1:]]
            yield argv
            yield [*argv, "--json"]
    for name in LISTINGS:
        yield ["edit", f"{name}.csv", "--all", "--json"]
    for operator in AXIOM_OPERATORS:
        for scope in AXIOM_SCOPES:
            yield ["axioms", "-o", operator, "--scope", scope]
    yield ["axioms", "-o", "chain-min-lex", "--scope", "2x2,2x3,3x3"]
    yield ["axioms", "--paper-suite"]
    yield ["axioms", "--paper-suite", "--json"]


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "argv": argv,
        "code": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def test_corpus_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CHAINRANK_ENUM_CAP", raising=False)
    write_inputs(tmp_path)
    recorded = json.loads(CORPUS.read_text())
    assert [entry["argv"] for entry in recorded] == list(commands())
    changed = [entry["argv"] for entry in recorded if run(entry["argv"]) != entry]
    assert not changed, f"{len(changed)} outputs differ from the recording, first {changed[0]}"


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("CHAINRANK_ENUM_CAP", None)
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_inputs(Path(tmp))
        entries = [run(argv) for argv in commands()]
        os.chdir(here)
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"recorded {len(entries)} commands to {CORPUS}", file=sys.stderr)
