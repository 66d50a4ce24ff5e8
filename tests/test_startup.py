"""What importing the package and running one subcommand load."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import chainrank

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


def loaded_by(args):
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, json.dumps(args)],
        capture_output=True, text=True, check=True,
    )
    return set(json.loads(proc.stdout))


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
                     "chainrank.match_pref", "concurrent.futures", "fractions"):
            assert name not in loaded

    def test_edit_weighted_loads_match_pref(self, square):
        loaded = loaded_by(["edit", square, "--weighted", "row-major"])
        assert "chainrank.match_pref" in loaded and "chainrank.operators" not in loaded

    def test_likelihood(self, square):
        loaded = loaded_by(["likelihood", square, "--mle", "--beta", "0.1"])
        assert "chainrank.prob_model" in loaded
        for name in ("chainrank.axiom_lab", "chainrank.operators", "chainrank.match_pref"):
            assert name not in loaded

    def test_simulate_single_worker_starts_no_pool(self):
        loaded = loaded_by(["simulate", "--m", "3", "--n", "3", "--beta", "0.1",
                            "--operators", "ci", "--trials", "2", "--seed", "1"])
        assert "chainrank.operators" in loaded and "chainrank.axiom_lab" not in loaded
        assert "concurrent.futures" not in loaded

    def test_help_builds_parser_without_engines(self):
        loaded = loaded_by(["rank", "--help"])
        assert not {f"chainrank.{name}" for name in ENGINES} & loaded


RANK_HELP = """\
usage: chainrank rank [-h] --operator OPERATOR [--json] input

positional arguments:
  input                 tournament file (csv or json)

options:
  -h, --help            show this help message and exit
  --operator OPERATOR, -o OPERATOR
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
