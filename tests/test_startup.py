"""What importing the package and running one subcommand load."""

import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import chainrank
from chainrank.axiom_lab import AxiomVerdict, ImpossibilityReport, Scope, SuiteRow
from chainrank.chain_edit import MinChainSet
from chainrank.cli import ALL_METRICS, ExperimentConfig
from chainrank.core import Tournament
from chainrank.errors import InputError, ResourceCapError
from chainrank.fileio import TournamentFile
from chainrank.interleave import InterleaveRound, InterleaveTrace, SelectionFunctionPair
from chainrank.match_pref import MatchPreference
from chainrank.prob_model import NoiseParams, StateOfWorld
from chainrank.rankings import RankingPair, TotalPreorder

# run in a fresh interpreter: the modules a subcommand adds to sys.modules
FOOTPRINT = """
import contextlib, io, json, sys
before = set(sys.modules)
from chainrank import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(json.loads(sys.argv[1]))
    except SystemExit:
        pass
print(json.dumps(sorted(set(sys.modules) - before)))
"""

ENGINES = ("axiom_lab", "operators", "prob_model", "match_pref", "interleave", "chain_edit")
# what a dataclass costs at start-up: the module and the introspection it imports
DATACLASS_MODULES = ("dataclasses", "inspect")


def loaded_by(args):
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, json.dumps(args)],
        capture_output=True, text=True, check=True,
    )
    return set(json.loads(proc.stdout))


def source_lines(modules):
    """The source lines of the chainrank modules among the module names."""
    total = 0
    for name in modules:
        if name.partition(".")[0] == "chainrank":
            with open(importlib.util.find_spec(name).origin, encoding="utf-8") as source:
                total += sum(1 for _ in source)
    return total


# each subcommand's arguments, {square} standing for a 4x3 input, and the most
# source lines of chainrank modules it may load, where bounded: each module
# that a command loads is compiled unless its bytecode is cached, and
# compiling a module after the heavy imports are resident sets the command's
# peak RSS
SUBCOMMANDS = [
    ("edit", ["edit", "{square}", "--all"], 1650),
    ("likelihood", ["likelihood", "{square}", "--mle", "--beta", "0.1"], 1960),
    ("rank", ["rank", "{square}", "-o", "chain-min-lex"], None),
    ("weights", ["weights", "--order", "row-major", "--m", "2", "--n", "2"], None),
    ("axioms", ["axioms", "-o", "ci", "--scope", "2x2"], None),
    ("simulate", ["simulate", "--m", "3", "--n", "3", "--beta", "0.1", "--operators",
                  "count,ci,chain-min-lex,chain-min-mon,match-pref:row-major",
                  "--trials", "2", "--seed", "1"], None),
]


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("1,0,1\n0,1,1\n1,1,0\n0,0,1\n")
    return str(path)


class TestImportFootprint:
    def test_bare_import_loads_no_engine(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import json, sys, chainrank; print(json.dumps(sorted(sys.modules)))"],
            capture_output=True, text=True, check=True,
        )
        loaded = {m for m in json.loads(proc.stdout) if m.startswith("chainrank")}
        assert loaded == {"chainrank"}

    def test_edit(self, square):
        loaded = loaded_by(["edit", square, "--all"])
        assert "chainrank.chain_edit" in loaded
        for name in ("chainrank.axiom_lab", "chainrank.operators", "chainrank.prob_model",
                     "chainrank.match_pref", "chainrank.rankings", "chainrank.picks",
                     "concurrent.futures", "fractions", *DATACLASS_MODULES):
            assert name not in loaded

    def test_edit_weighted_loads_match_pref(self, square):
        loaded = loaded_by(["edit", square, "--weighted", "row-major"])
        assert "chainrank.match_pref" in loaded and "chainrank.operators" not in loaded
        assert not set(DATACLASS_MODULES) & loaded

    def test_likelihood(self, square):
        loaded = loaded_by(["likelihood", square, "--mle", "--beta", "0.1"])
        assert "chainrank.prob_model" in loaded
        for name in ("chainrank.axiom_lab", "chainrank.operators", "chainrank.match_pref",
                     "chainrank.rankings", "chainrank.picks", *DATACLASS_MODULES):
            assert name not in loaded

    def test_simulate_single_worker_starts_no_pool(self):
        loaded = loaded_by(["simulate", "--m", "3", "--n", "3", "--beta", "0.1",
                            "--operators", "ci", "--trials", "2", "--seed", "1"])
        assert "chainrank.operators" in loaded and "chainrank.axiom_lab" not in loaded
        assert "concurrent.futures" not in loaded

    def test_likelihood_state_solves_nothing(self, square, tmp_path):
        state = tmp_path / "state.json"
        state.write_text('{"x": [1, 2, 2, 3], "y": [1, 2, 3]}')
        loaded = loaded_by(["likelihood", square, "--state", str(state), "--beta", "0.1"])
        assert "chainrank.prob_model" in loaded and "chainrank.chain_edit" not in loaded

    @pytest.mark.parametrize("op, engine", [("count", None), ("ci", "chainrank.interleave")])
    def test_rank_without_chain_editing(self, square, op, engine):
        loaded = loaded_by(["rank", square, "-o", op])
        assert "chainrank.operators" in loaded
        engines = {f"chainrank.{name}" for name in ENGINES} - {"chainrank.operators"}
        assert engines & loaded == ({engine} if engine else set())

    @pytest.mark.parametrize("op", ["chain-min-lex", "chain-min-mon", "chain-min-dual"])
    def test_rank_chain_min(self, square, op):
        loaded = loaded_by(["rank", square, "-o", op])
        assert "chainrank.chain_edit" in loaded
        for name in ("chainrank.interleave", "chainrank.match_pref", "chainrank.prob_model",
                     "chainrank.axiom_lab"):
            assert name not in loaded

    def test_simulate_reads_no_file(self):
        loaded = loaded_by(["simulate", "--m", "3", "--n", "3", "--beta", "0.1",
                            "--operators", "ci,chain-min-lex", "--trials", "2", "--seed", "1"])
        assert "chainrank.prob_model" in loaded and "chainrank.fileio" not in loaded

    def test_axioms_reads_no_file(self):
        loaded = loaded_by(["axioms", "-o", "ci", "--scope", "2x2"])
        assert "chainrank.axiom_lab" in loaded and "chainrank.fileio" not in loaded
        loaded = loaded_by(["axioms", "--paper-suite"])
        assert "chainrank.axiom_lab" in loaded and "chainrank.fileio" not in loaded

    def test_help_builds_parser_without_engines(self):
        loaded = loaded_by(["rank", "--help"])
        assert not {f"chainrank.{name}" for name in ENGINES} & loaded

    def test_source_lines_per_subcommand(self, square, record_property):
        for command, args, bound in SUBCOMMANDS:
            lines = source_lines(loaded_by([arg.format(square=square) for arg in args]))
            record_property(f"{command}_source_lines", lines)
            if bound is not None:
                assert lines <= bound, command


# Python 3.13's argparse prints a metavar shared by an option's flags once
OPERATOR_FLAGS = "--operator, -o OPERATOR" if sys.version_info >= (3, 13) else "--operator OPERATOR, -o OPERATOR"
RANK_HELP = f"""\
usage: chainrank rank [-h] --operator OPERATOR [--json] input

positional arguments:
  input                 tournament file (csv or json)

options:
  -h, --help            show this help message and exit
  {OPERATOR_FLAGS}
                        one of: count, chain-min-lex, chain-min-mon, chain-
                        min-dual, match-pref:<row-major|col-major|file.json>,
                        ci
  --json
"""


def test_rank_help_text():
    proc = subprocess.run(
        [sys.executable, "-m", "chainrank", "rank", "--help"],
        capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"},
    )
    assert proc.returncode == 0
    assert proc.stdout == RANK_HELP


class TestLazyExports:
    def test_every_export_is_its_module_attribute(self):
        for module, names in chainrank._EXPORTS.items():
            defining = importlib.import_module(f"chainrank.{module}")
            for name in names:
                assert getattr(chainrank, name) is getattr(defining, name), name
        assert sorted(chainrank.__all__) == sorted(chainrank._MODULE_OF)
        assert set(chainrank.__all__) <= set(dir(chainrank))

    def test_interleave_is_the_function_in_every_import_order(self):
        for code in (
            "import chainrank.operators, chainrank",
            "import chainrank.interleave, chainrank",
            "import chainrank; chainrank.interleave; import chainrank.interleave",
            "from chainrank import interleave as f; import chainrank",
        ):
            check = code + "; import sys; assert chainrank.interleave is sys.modules['chainrank.interleave'].interleave"
            subprocess.run([sys.executable, "-c", check], check=True)

    def test_submodules_still_import(self):
        from chainrank import axiom_lab

        assert axiom_lab.Scope is importlib.import_module("chainrank.axiom_lab").Scope
        assert chainrank.core is importlib.import_module("chainrank.core")

    def test_unknown_name(self):
        with pytest.raises(AttributeError):
            chainrank.no_such_name


def _select(K, pool, other_pool):
    return pool


K22 = Tournament(2, 2, (1, 3))
ORDER = TotalPreorder((frozenset({1}), frozenset({2})))
VERDICT = AxiomVerdict("anon", "ci", True, "exhaustive 2x2", 16)

# every plain value class, its fields in order with a sample value each, and
# how many of them come first without a default (the rest hold their default)
VALUES = [
    (Tournament, {"rows": 2, "cols": 2, "row_masks": (1, 3)}, 3),
    (TotalPreorder, {"ranks": ORDER.ranks}, 1),
    (RankingPair, {"a_order": ORDER, "b_order": ORDER}, 2),
    (TournamentFile, {"tournament": K22, "a_labels": None, "b_labels": None}, 1),
    (MinChainSet, {"distance": 1, "members": (K22,)}, 2),
    (StateOfWorld, {"x": (1, 2), "y": (1, 2)}, 2),
    (NoiseParams, {"alpha_plus": 0.1, "alpha_minus": 0.3}, 2),
    (MatchPreference, {"kind": "row_major_lex", "explicit": None}, 1),
    (SelectionFunctionPair, {"name": "all", "f": _select, "g": _select}, 3),
    (InterleaveRound, {"index": 1, "a_remaining": frozenset({1, 2}), "b_remaining": frozenset({1}),
                       "f_selected": frozenset({2}), "g_selected": frozenset({1})}, 5),
    (InterleaveTrace, {"rounds": (), "a_round": (1, 1), "b_round": (1,)}, 3),
    (Scope, {"exhaustive": (), "random_sizes": (), "random_count": 0, "seed": 0,
             "tournaments": ()}, 0),
    (AxiomVerdict, {"axiom": "anon", "operator": "ci", "holds": True, "scope": "exhaustive 2x2",
                    "checked": 16, "witness": None}, 5),
    (SuiteRow, {"label": "diagonal", "operator": "ci", "axiom": "anon", "expected_holds": True,
                "verdict": VERDICT}, 5),
    (ImpossibilityReport, {"rows": ()}, 0),
    (ExperimentConfig, {"m": 2, "n": 2, "alpha": NoiseParams(0.1, 0.1), "operator_names": ("ci",),
                        "trials": 3, "seed": 1, "metrics": ALL_METRICS}, 6),
]


@pytest.mark.parametrize("cls, fields, required", VALUES, ids=[v[0].__name__ for v in VALUES])
class TestValueClasses:
    """The value types behave as the frozen dataclasses they replaced."""

    def test_construction(self, cls, fields, required):
        values = tuple(fields.values())
        value = cls(*values[:required])
        assert value == cls(*values) == cls(**fields)
        assert tuple(getattr(value, name) for name in fields) == values

    def test_equality_hash_and_repr(self, cls, fields, required):
        reference = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)(**fields)
        value = cls(**fields)
        assert hash(value) == hash(tuple(fields.values())) == hash(reference)
        assert repr(value) == repr(reference)
        assert value != reference and reference != value
        assert value != tuple(fields.values())

    def test_frozen(self, cls, fields, required):
        value = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.other = None
        assert value == cls(**fields)

    def test_argument_binding(self, cls, fields, required):
        names, values = list(fields), tuple(fields.values())
        assert cls(values[0], **{name: fields[name] for name in names[1:]}) == cls(*values)
        defaulted = [(name, object, dataclasses.field(default=fields[name])) for name in names[required:]]
        reference = dataclasses.make_dataclass(cls.__name__, names[:required] + defaulted, frozen=True)
        refused = [
            ((*values, None), {}),  # one positional argument too many
            ((), {**fields, "no_such_field": None}),  # an unknown keyword
            (values[:1], fields),  # the first field given both positionally and by keyword
        ]
        if required:
            refused.append((values[:required - 1], {}))  # a missing required argument
        for args, kwargs in refused:
            for build in (reference, cls):
                with pytest.raises(TypeError):
                    build(*args, **kwargs)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Tournament(0, 2, ()), InputError,
     "a tournament needs at least one row and one column player"),
    (lambda: Tournament(2, 2, (1,)), InputError, "expected 2 row masks, got 1"),
    (lambda: Tournament(1, 2, (4,)), InputError, "row mask has bits outside the column range"),
    (lambda: TotalPreorder(()), InputError, "a total preorder needs at least one rank"),
    (lambda: TotalPreorder(({1},)), InputError,
     "ranks must be frozensets; use from_ranks to coerce"),
    (lambda: TotalPreorder((frozenset(),)), InputError, "ranks must be non-empty"),
    (lambda: TotalPreorder((frozenset({1}), frozenset({1, 2}))), InputError,
     "ranks must be pairwise disjoint"),
    (lambda: StateOfWorld((), (1,)), InputError,
     "a state needs at least one skill level per side"),
    (lambda: StateOfWorld((True,), (1,)), InputError, "skill levels must be numbers"),
    (lambda: StateOfWorld((1, 3), (1,)), InputError,
     "rows 1 and 2 have a skill gap no column level explains"),
    (lambda: StateOfWorld((1,), (2, 3)), InputError,
     "columns 1 and 2 have a skill gap no row level explains"),
    (lambda: NoiseParams(0.1, 1.5), InputError, "noise rate 1.5 outside [0, 1]"),
    (lambda: MatchPreference("diagonal"), InputError, "unknown match-preference kind 'diagonal'"),
    (lambda: MatchPreference("explicit"), InputError,
     "explicit match preference needs a priority list"),
    (lambda: Scope(exhaustive=((0, 2),)), InputError,
     "scope size 0x2 needs at least one row and one column"),
    (lambda: Scope(exhaustive=((4, 4),)), ResourceCapError,
     "exhaustive scope 4x4 holds 2^16 tournaments, over the cap of 4096"),
    (lambda: ExperimentConfig(2, 2, NoiseParams(0.1, 0.1), ("ci",), 0, 1), InputError,
     "trials must be at least 1"),
    (lambda: ExperimentConfig(2, 2, NoiseParams(0.1, 0.1), ("ci",), 1, 1, ("speed",)), InputError,
     "unknown metric 'speed'"),
])
def test_value_validation(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_cached_properties():
    K = Tournament(3, 2, (1, 3, 0))
    assert K.col_masks == (3, 2) and K.col_masks is K.col_masks
    assert ORDER.players == frozenset({1, 2}) and ORDER.rank_of(2) == 1
