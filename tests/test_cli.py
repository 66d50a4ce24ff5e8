import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainrank import (
    NoiseParams,
    ResourceCapError,
    Tournament,
    axiom_lab,
    chain_completion,
    chain_deletion,
    chain_edit,
    cli,
    hamming,
    min_chain_set,
    mle_search,
    resolve_operator,
    select_match_pref,
)
from chainrank.cli import kendall_tau_b, main
from chainrank.rankings import TotalPreorder
from chainrank.fileio import parse_tournament, to_csv, to_json
from chainrank.match_pref import parse_order_name
from chainrank.prob_model import k_theta, sample_state

from helpers import (
    EX2,
    TABLE1,
    kendall_tau_b_by_pairs,
    planted_chain,
    preorder,
    random_tournament,
    two_patterns,
)


@pytest.fixture
def table1_file(tmp_path):
    path = tmp_path / "table1.csv"
    path.write_text(to_csv(TABLE1))
    return str(path)


@pytest.fixture
def ex2_file(tmp_path):
    path = tmp_path / "ex2.csv"
    path.write_text(to_csv(EX2))
    return str(path)


class TestRoundTrips:
    def test_csv(self):
        text = to_csv(TABLE1)
        again = parse_tournament(text)
        assert again.tournament == TABLE1
        assert to_csv(again.tournament) == text

    def test_json(self):
        text = to_json(EX2, a_labels=["x", "y", "z"], b_labels=["p", "q", "r", "s"])
        again = parse_tournament(text)
        assert again.tournament == EX2
        assert again.a_labels == ("x", "y", "z")
        assert to_json(again.tournament, again.a_labels, again.b_labels) == text

    def test_csv_comments_and_blanks(self):
        parsed = parse_tournament("# header\n\n1,0\n0,1\n")
        assert parsed.tournament == Tournament.from_cells([[1, 0], [0, 1]])

    def test_json_dimension_check(self):
        from chainrank import InputError

        with pytest.raises(InputError):
            parse_tournament('{"rows": 9, "matrix": [[1,0]]}')


class TestRank:
    def test_ci_on_table1(self, table1_file, capsys):
        assert main(["rank", table1_file, "-o", "ci"]) == 0
        out = capsys.readouterr().out
        assert "A: 4 ≺ 2 ≺ 3 ≺ 1" in out
        assert "B: 2 ⊏ 5 ⊏ {3 ≈ 4} ⊏ 1" in out

    def test_match_pref_shows_selection(self, ex2_file, capsys):
        assert main(["rank", ex2_file, "-o", "match-pref:row-major"]) == 0
        out = capsys.readouterr().out
        assert "A: 1 ≺ 2 ≺ 3" in out
        assert "distance 2" in out
        assert "1 1 1 1" in out

    def test_singleton(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("0\n")
        assert main(["rank", str(path), "-o", "count"]) == 0
        out = capsys.readouterr().out
        assert "A: 1" in out and "B: 1" in out

    def test_json_output(self, table1_file, capsys):
        assert main(["rank", table1_file, "-o", "ci", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["a_ranks"] == [[4], [2], [3], [1]]
        assert data["b_ranks"] == [[2], [5], [3, 4], [1]]
        assert data["chain"] is None

    def test_labels_used_in_text(self, tmp_path, capsys):
        path = tmp_path / "named.json"
        path.write_text(to_json(Tournament.from_cells([[1, 0], [0, 1]]),
                                a_labels=["ann", "bob"], b_labels=["q1", "q2"]))
        assert main(["rank", str(path), "-o", "count"]) == 0
        assert "ann" in capsys.readouterr().out


class TestEdit:
    def test_all(self, ex2_file, capsys):
        assert main(["edit", ex2_file, "--all", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["distance"] == 2
        assert len(data["members"]) == 4

    def test_chain_input(self, tmp_path, capsys):
        path = tmp_path / "chain.csv"
        path.write_text("1,0\n1,1\n")
        assert main(["edit", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["distance"] == 0 and data["members"] == [[[1, 0], [1, 1]]]

    def test_complete(self, tmp_path, capsys):
        path = tmp_path / "diag.csv"
        path.write_text("1,0\n0,1\n")
        assert main(["edit", str(path), "--complete", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["distance"] == 1
        assert [[1, 0], [1, 1]] in data["members"] and [[1, 1], [0, 1]] in data["members"]

    def test_all_json_matches_cells(self, tmp_path, capsys):
        # planted 40x5: a chain over columns in order, four rows one edit from
        # two prefixes each, so the optimum set has many members
        prefix = [(1 << j) - 1 for j in range(6)]
        masks = [prefix[j] for j in range(6) for _ in range(6)]
        masks += [prefix[i] | 1 << (i + 1) for i in (0, 1, 2, 3)]
        K = Tournament(40, 5, tuple(masks))
        path = tmp_path / "planted.csv"
        path.write_text(to_csv(K))
        assert main(["edit", str(path), "--json"]) == 0
        result = min_chain_set(K)
        assert len(result.members) == 16
        expected = {
            "distance": result.distance,
            "members": [[list(r) for r in M.cells] for M in result.members],
        }
        assert capsys.readouterr().out == json.dumps(expected, sort_keys=True) + "\n"

    def test_weighted(self, ex2_file, capsys):
        assert main(["edit", ex2_file, "--weighted", "row-major", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["members"] == [[[1, 0, 1, 0], [1, 1, 1, 0], [1, 1, 1, 1]]]

    def test_weighted_beyond_the_weight_budget(self, tmp_path, capsys):
        # 128 cells would need 128-bit weights: the pick needs none
        path = tmp_path / "k.csv"
        path.write_text(to_csv(random_tournament(random.Random(16), 16, 8)))
        assert main(["rank", str(path), "-o", "match-pref:row-major", "--json"]) == 0
        chain = json.loads(capsys.readouterr().out)["chain"]
        assert main(["edit", str(path), "--weighted", "row-major", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["members"] == [chain]


class TestAxiomsCommand:
    def test_scope_run(self, capsys):
        assert main(["axioms", "-o", "count", "--scope", "2x2"]) == 0
        data = json.loads(capsys.readouterr().out)
        holds = {v["axiom"]: v["holds"] for v in data}
        assert holds["anon"] and holds["dual"] and holds["iim"] and holds["pos-resp"]

    def test_paper_suite_exit_zero(self, capsys):
        assert main(["axioms", "--paper-suite"]) == 0
        out = capsys.readouterr().out
        assert "suite: ok" in out

    def test_unknown_operator(self, capsys):
        assert main(["axioms", "-o", "mystery", "--scope", "2x2"]) == 2

    def test_shared_evaluation_matches_unshared_checks(self, capsys):
        scope = axiom_lab.Scope(exhaustive=((2, 2), (2, 3), (3, 2)))
        witnesses = 0
        for name in ("count", "chain-min-lex", "chain-min-mon", "match-pref:row-major", "ci"):
            assert main(["axioms", "-o", name, "--scope", "2x2,2x3,3x2"]) == 0
            shared = json.loads(capsys.readouterr().out)
            spec = resolve_operator(name)
            unshared = [
                axiom_lab.check_anon(spec, scope),
                axiom_lab.check_dual(spec, scope),
                axiom_lab.check_iim(spec, scope),
                axiom_lab.check_mon(spec, scope),
                axiom_lab.check_pos_resp(spec, scope),
                axiom_lab.check_chain_min_scope(spec, scope),
                axiom_lab.check_chain_def_scope(spec, scope),
            ]
            assert shared == [v.to_json() for v in unshared]
            witnesses += sum(v.witness is not None for v in unshared)
        assert witnesses > 0

    def test_bad_scope(self, capsys):
        assert main(["axioms", "-o", "count", "--scope", "2by2"]) == 2


# SHA-256 of the stdout of `axioms`, recorded when every check ran its own
# loop and memo
AXIOMS_SCOPE_DIGESTS = {
    ("count", "2x2,2x3,3x3"): "ccb0c239e5b66aa102c4ca565df83627a0804bc48bb453dfafce3fdbc954377c",
    ("count", "1x3,3x1,2x4,4x2"): "d2595b268d32299194bf47297a60fce2652cd3dc20eafa814347a1f75a94c8b1",
    ("ci", "2x2,2x3,3x3"): "b041db8843338003ca7805e01cc0578ec34aa75fd4a85272d30024548462e614",
    ("ci", "1x3,3x1,2x4,4x2"): "ded7d729383da946011959c967f967611d94b75bb5e49e67da5e1cc7dd6f14e4",
    ("chain-min-lex", "2x2,2x3,3x3"): "3b08883b3363cd1e3249d801742f68b70499c7557a78dbcab045df6cf2c9ea63",
    ("chain-min-lex", "1x3,3x1,2x4,4x2"): "0abbb1cc8d809b2334cfe03e7f42864500920e8193fe8e23884957c8044bbdc5",
    ("chain-min-mon", "2x2,2x3,3x3"): "dd015a61ca0031888946d77d007271942042918ef81be2ed020f4bd7ec16de61",
    ("chain-min-mon", "1x3,3x1,2x4,4x2"): "cb4276b78c1e3d72f871e37849b1f3084b96a740059417e7b129fae1577b810b",
    ("chain-min-dual", "2x2,2x3,3x3"): "c546f5d650ca7c297ceddad9c89ae092e0bd79565ab7158f3e9b4e90715b2416",
    ("chain-min-dual", "1x3,3x1,2x4,4x2"): "c0271cecfa8d2a10c17a098c1054046dda9a08f1737a68027b7351f9d7bd8345",
    ("match-pref:row-major", "2x2,2x3,3x3"): "7957f5103016bc3203288b5c3db0f73720ad9fcee8e743465c164419a977c46b",
    ("match-pref:row-major", "1x3,3x1,2x4,4x2"): "cbd84858b7065cbce1ada9e144b1dfec143546e34dc8176ad0d739ca04541baf",
}
PAPER_SUITE_DIGESTS = {
    "text": "86195ff0bb999957b58be1553c325c21175f3602a3130ad5c34d83583000f004",
    "json": "4aa50315ef305dbc8166fd74bc880e4af754da503df809917f377f01af4e6916",
}


class TestAxiomsOutputUnchanged:
    @pytest.mark.parametrize("op, scope", sorted(AXIOMS_SCOPE_DIGESTS))
    def test_scope(self, capsys, op, scope):
        assert main(["axioms", "-o", op, "--scope", scope]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == AXIOMS_SCOPE_DIGESTS[op, scope]

    @pytest.mark.parametrize("form, extra", [("text", []), ("json", ["--json"])])
    def test_paper_suite(self, capsys, form, extra):
        assert main(["axioms", "--paper-suite", *extra]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PAPER_SUITE_DIGESTS[form]


@pytest.fixture
def search_calls(monkeypatch):
    """Count calls of the chain-editing search, from an empty solve memo."""
    calls = []
    search = chain_edit._search
    chain_edit._solve.cache_clear()

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(chain_edit, "_search", counted)
    return calls


class TestSolvesOnce:
    @pytest.mark.parametrize(
        "op", ["chain-min-lex", "chain-min-mon", "chain-min-dual", "match-pref:row-major"]
    )
    def test_rank(self, ex2_file, capsys, search_calls, op):
        assert main(["rank", ex2_file, "-o", op, "--json"]) == 0
        assert len(search_calls) == 1

    def test_simulate_once_per_trial(self, capsys, search_calls):
        args = ["simulate", "--m", "3", "--n", "3", "--beta", "0.1", "--trials", "5", "--seed", "7",
                "--operators", "chain-min-lex,chain-min-mon,match-pref:row-major"]
        assert main(args) == 0
        assert len(search_calls) == 5

    @pytest.mark.parametrize("m, n, searches", [(6, 4, 20), (4, 6, 20), (6, 6, 20)])
    def test_simulate_dual_shares_the_solve(self, capsys, search_calls, m, n, searches):
        # a non-square tournament and its dual are one search, and chain-min-dual
        # reads a square non-canonical tournament's pick off its own solve
        args = ["simulate", "--m", str(m), "--n", str(n), "--beta", "0.1", "--trials", "20",
                "--seed", "1", "--operators", "chain-min-lex,chain-min-dual,chain-min-mon"]
        assert main(args) == 0
        assert len(search_calls) == searches

    def test_ci_interleaves_once_per_trial(self, capsys):
        # ci's rankings and its greedy chain, for the edit cost, come from one run
        from chainrank.interleave import interleave

        runs = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is interleave.__code__:
                runs.append(1)

        args = ["simulate", "--m", "6", "--n", "6", "--beta", "0.1", "--trials", "20",
                "--seed", "1", "--operators", "ci"]
        sys.setprofile(count)
        try:
            assert main(args) == 0
        finally:
            sys.setprofile(None)
        assert len(runs) == 20

    def test_axioms_scope_once_per_tournament(self, capsys, search_calls):
        # 16 + 64 + 512 tournaments; the chain-min check reuses each evaluation's solve
        assert main(["axioms", "-o", "chain-min-lex", "--scope", "2x2,2x3,3x3"]) == 0
        assert len(search_calls) == 592

    @pytest.mark.parametrize("noise, searches", [
        (["--beta", "0.1"], 1),
        (["--alpha-plus", "0.1", "--alpha-minus", "0.3"], 2),
        (["--beta", "0.0"], 2),
    ])
    def test_likelihood_mle(self, tmp_path, capsys, search_calls, noise, searches):
        # only a symmetric channel below one half has the closest chains as its MLE set
        K = random_tournament(random.Random(31), 7, 7)
        if noise == ["--beta", "0.0"]:  # a zero rate needs an observation some state can give
            K = k_theta(sample_state(7, 7, 31))
        path = tmp_path / "k.csv"
        path.write_text(to_csv(K))
        assert main(["likelihood", str(path), "--mle", *noise, "--json"]) == 0
        assert len(search_calls) == searches

    @pytest.mark.parametrize("noise, expansions", [
        (["--beta", "0.1"], 1),
        (["--alpha-plus", "0.1", "--alpha-minus", "0.3"], 2),
    ])
    def test_likelihood_mle_expands_once_under_unit_costs(
        self, tmp_path, capsys, monkeypatch, noise, expansions
    ):
        calls = []
        expand = chain_edit._expand

        def counted(*args):
            calls.append(args)
            return expand(*args)

        monkeypatch.setattr(chain_edit, "_expand", counted)
        chain_edit._solve.cache_clear()
        path = tmp_path / "k.csv"
        path.write_text(to_csv(random_tournament(random.Random(31), 7, 7)))
        assert main(["likelihood", str(path), "--mle", *noise, "--json"]) == 0
        assert len(calls) == expansions


class TestSimulate:
    ARGS = [
        "simulate", "--m", "3", "--n", "3", "--beta", "0.1",
        "--operators", "ci,chain-min-lex", "--trials", "40", "--seed", "7",
    ]

    def test_bitwise_deterministic(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first

    def test_worker_count_irrelevant(self, capsys):
        assert main(self.ARGS + ["--workers", "1"]) == 0
        one = capsys.readouterr().out
        assert main(self.ARGS + ["--workers", "4"]) == 0
        assert capsys.readouterr().out == one

    @pytest.mark.parametrize("args, digest", [
        ("--m 4 --n 4 --beta 0.1 --operators ci,count --trials 20 --seed 1",
         "ce5010ac873a9b85ddfd352f7a180b2d958e5a90d00f27d95771510395e3de28"),
        ("--m 6 --n 6 --beta 0.1 --operators ci,count,chain-min-lex --trials 300 --seed 3",
         "60fe937eba0ad73c4750ea234e5302dfa9245f27b2c220d2aad74d6caf3219e2"),
    ])
    def test_json_identical_on_every_python(self, capsys, args, digest):
        # the means are added left to right: a compensated sum, as sum() is
        # from Python 3.12, changes the last digits of these two
        assert main(["simulate", *args.split(), "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_noiseless_chain_min_recovers_exactly(self, capsys):
        args = [
            "simulate", "--m", "3", "--n", "3", "--beta", "0.0",
            "--operators", "chain-min-lex,chain-min-mon", "--trials", "25",
            "--seed", "3", "--metrics", "exact_match", "--json",
        ]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["results"]["chain-min-lex"]["exact_match"] == 1.0
        assert data["results"]["chain-min-mon"]["exact_match"] == 1.0

    def test_csv_written(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        assert main(self.ARGS + ["--csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("operator,exact_match")
        assert len(lines) == 3

    def test_invalid_trials(self, capsys):
        args = self.ARGS.copy()
        args[args.index("--trials") + 1] = "0"
        assert main(args) == 2

    def test_pure_noise_matches_null_baseline(self):
        # at a half/half channel the observation is independent of the truth,
        # so pairing each truth with the *next* trial's prediction must give
        # the same mean correlation up to sampling error
        from chainrank import chain_rankings, k_theta, phi_ci
        from chainrank.prob_model import (
            NoiseParams,
            derive_seed,
            sample_state,
            sample_tournament,
        )

        alpha = NoiseParams.symmetric(0.5)
        truths, preds = [], []
        for t in range(1200):
            theta = sample_state(3, 3, derive_seed(5, t, 0))
            observed = sample_tournament(theta, alpha, derive_seed(5, t, 1))
            truths.append(chain_rankings(k_theta(theta)))
            preds.append(phi_ci(observed))

        def score(truth, pred):
            return 0.5 * (
                kendall_tau_b(truth.a_order, pred.a_order)
                + kendall_tau_b(truth.b_order, pred.b_order)
            )

        n = len(truths)
        aligned = sum(score(truths[i], preds[i]) for i in range(n)) / n
        shifted = sum(score(truths[i], preds[(i + 1) % n]) for i in range(n)) / n
        assert abs(aligned - shifted) < 0.06


class TestLikelihoodCommand:
    def test_mle_flags_min_chain_equality(self, ex2_file, capsys):
        assert main(["likelihood", ex2_file, "--mle", "--beta", "0.3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["equals_min_chain_set"] is True
        assert len(data["mle"]) == 4
        assert data["min_distance"] == 2

    def test_mle_lists_only_its_own_set(self, tmp_path, capsys):
        # listing the closest chain tournaments is refused; the MLE set has two members
        path = tmp_path / "k.csv"
        path.write_text(to_csv(Tournament.from_cells(two_patterns(40, 4))))
        args = ["likelihood", str(path), "--mle", "--alpha-plus", "0.1", "--alpha-minus", "0.2", "--json"]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert (len(data["mle"]), data["min_distance"], data["equals_min_chain_set"]) == (2, 80, False)

    def test_state_closed_form(self, tmp_path, capsys):
        chain = tmp_path / "chain.csv"
        chain.write_text("1,0,0,0\n1,1,0,0\n1,1,1,1\n")
        state = tmp_path / "state.json"
        state.write_text('{"x": [1, 2, 3], "y": [1, 2, 3, 3]}')
        assert main(["likelihood", str(chain), "--state", str(state), "--beta", "0.25", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["likelihood"] == pytest.approx(0.75**12, rel=1e-12)

    def test_infeasible_observation(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("1\n")
        state = tmp_path / "state.json"
        state.write_text('{"x": [0], "y": [1]}')
        assert main([
            "likelihood", str(obs), "--state", str(state),
            "--alpha-plus", "0.0", "--alpha-minus", "0.2", "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["likelihood"] == 0.0
        assert data["log_likelihood"] is None


class TestWeightsCommand:
    def test_text(self, capsys):
        assert main(["weights", "--order", "row-major", "--m", "2", "--n", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["3/2", "5/4", "9/8"]
        assert out[1].split() == ["17/16", "33/32", "65/64"]

    def test_unknown_order(self, capsys):
        assert main(["weights", "--order", "spiral", "--m", "2", "--n", "2"]) == 2


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["rank", "/nonexistent/file.csv", "-o", "ci"]) == 2

    def test_cap_exceeded(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("\n".join(",".join("0" for _ in range(9)) for _ in range(9)) + "\n")
        assert main(["rank", str(path), "-o", "chain-min-lex"]) == 3

    def test_cap_override_via_env(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "mid.csv"
        path.write_text("1,0\n0,1\n1,1\n")
        monkeypatch.setenv("CHAINRANK_ENUM_CAP", "1")
        assert main(["rank", str(path), "-o", "chain-min-lex"]) == 3
        monkeypatch.setenv("CHAINRANK_ENUM_CAP", "4")
        assert main(["rank", str(path), "-o", "chain-min-lex"]) == 0

    def test_cap_env_not_an_integer(self, ex2_file, capsys, monkeypatch):
        monkeypatch.setenv("CHAINRANK_ENUM_CAP", "abc")
        assert main(["edit", ex2_file]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_cap_below_one(self, ex2_file, capsys):
        for cap in ("-1", "0"):
            assert main(["--cap", cap, "edit", ex2_file]) == 2
            assert capsys.readouterr().err.count("\n") == 1

    def test_member_cap(self, tmp_path, capsys):
        # an uninformative channel makes every 12x2 chain tournament a maximum
        path = tmp_path / "tall.csv"
        path.write_text("1,0\n0,1\n" * 6)
        assert main(["likelihood", str(path), "--mle", "--beta", "0.5"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "member cap" in err

    def test_picks_beyond_member_cap(self, ex2_file, capsys, monkeypatch):
        # EX2 has four optimum members: listing them is refused, picking one is not
        monkeypatch.setattr(chain_edit, "MEMBER_CAP", 2)
        assert main(["edit", ex2_file]) == 3
        for op in ("chain-min-lex", "chain-min-dual", "chain-min-mon", "match-pref:row-major"):
            assert main(["rank", ex2_file, "-o", op]) == 0

    def test_json_matrix_not_binary_integers(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for matrix in ("5", "[[true, 0]]", "[[0.0, 1]]", "[1, 0]"):
            path.write_text('{"matrix": %s}' % matrix)
            assert main(["edit", str(path)]) == 2
            assert capsys.readouterr().err.count("\n") == 1

    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        # the reader stops after 10 bytes of a 2.9 MB listing
        K, _, _, _ = planted_chain(random.Random(71), 6, 11)
        path = tmp_path / "planted-71x6.csv"
        path.write_text(to_csv(K))
        proc = subprocess.Popen(
            [sys.executable, "-m", "chainrank", "edit", str(path), "--all", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""

    def test_console_entry_point(self, table1_file):
        proc = subprocess.run(
            [sys.executable, "-m", "chainrank", "rank", table1_file, "-o", "ci"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "4" in proc.stdout

    # block-buffered standard output, as when PYTHONUNBUFFERED is unset, so
    # that what the process flushes before os._exit is what arrives
    BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

    def test_listing_read_whole_through_a_pipe(self, tmp_path):
        # the process ends by os._exit once main returns, after flushing the
        # 2.9 MB listing
        K, _, _, _ = planted_chain(random.Random(71), 6, 11)
        path = tmp_path / "planted-71x6.csv"
        path.write_text(to_csv(K))
        proc = subprocess.run(
            [sys.executable, "-m", "chainrank", "edit", str(path), "--all", "--json"],
            capture_output=True, env=self.BUFFERED,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["members"] == old_members_json(min_chain_set(K).members)

    @pytest.mark.parametrize("launch", [
        ["-m", "chainrank"],
        # what the installed console script runs
        ["-c", "import sys; from chainrank.__main__ import run; sys.exit(run())"],
    ])
    @pytest.mark.parametrize("args, code", [
        (["rank", "K", "-o", "ci"], 0),
        (["rank", "K", "--bogus"], 2),  # refused by argparse
        (["edit", "BIG"], 3),  # 9 columns, over the enumeration cap
    ])
    def test_process_exit_codes(self, tmp_path, launch, args, code):
        files = {"K": to_csv(TABLE1), "BIG": to_csv(random_tournament(random.Random(9), 9, 9))}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        proc = subprocess.run(
            [sys.executable, *launch, *args], cwd=tmp_path, capture_output=True, text=True, env=self.BUFFERED
        )
        assert proc.returncode == code
        assert bool(proc.stdout) == (code == 0) and bool(proc.stderr) == (code != 0)
        assert "Traceback" not in proc.stderr

    def test_profiler_reports_after_the_command(self, table1_file):
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-m", "chainrank", "rank", table1_file, "-o", "ci"],
            capture_output=True, text=True, env=self.BUFFERED,
        )
        assert proc.returncode == 0
        assert 0 <= proc.stdout.find("operator: ci") < proc.stdout.find("ncalls")
        assert proc.stdout.endswith("\n\n")  # the table's last row, then blank lines: none of it lost


class TestRefusals:
    def one_line_error(self, capsys, code, args):
        assert main(args) == code
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.out == ""
        return captured.err

    @pytest.mark.parametrize("m, n", [("-1", "2"), ("0", "2"), ("2", "0")])
    def test_weights_without_cells(self, capsys, m, n):
        self.one_line_error(capsys, 2, ["weights", "--order", "row-major", "--m", m, "--n", n])

    def test_simulate_csv_not_writable(self, tmp_path, capsys):
        for target in (tmp_path, tmp_path / "missing" / "out.csv"):
            self.one_line_error(capsys, 2, TestSimulate.ARGS + ["--csv", str(target)])

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_simulate_workers_below_one(self, capsys, workers):
        self.one_line_error(capsys, 2, TestSimulate.ARGS + ["--workers", workers])

    @pytest.mark.parametrize("flag, names", [("--operators", "count,ci,count"), ("--metrics", "edit_cost,edit_cost")])
    def test_simulate_repeated_name(self, capsys, flag, names):
        # a repeat would print two identical rows, or echo a metric twice
        err = self.one_line_error(capsys, 2, TestSimulate.ARGS + [flag, names])
        assert f"{names.split(',')[-1]!r} is listed more than once" in err

    def test_simulate_cells_over_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SIMULATE_CELL_CAP", 12)
        args = ["simulate", "--beta", "0.1", "--operators", "ci", "--trials", "1", "--seed", "0"]
        assert main([*args, "--m", "4", "--n", "3"]) == 0
        capsys.readouterr()
        err = self.one_line_error(capsys, 3, [*args, "--m", "5", "--n", "3"])
        assert "5x3 holds 15 cells" in err and "cap of 12" in err
        # a size below 1x1 stays an input error, whatever its product
        self.one_line_error(capsys, 2, [*args, "--m", "-5", "--n", "-5"])

    def test_search_states_over_cap(self, tmp_path, capsys, monkeypatch):
        # a random 9x9 whose search stores 903 states
        path = tmp_path / "random-9x9.csv"
        path.write_text(to_csv(random_tournament(random.Random(0), 9, 9)))
        chain_edit._solve.cache_clear()
        monkeypatch.setattr(chain_edit, "STATE_CAP", 902)
        err = self.one_line_error(capsys, 3, ["--cap", "9", "edit", str(path)])
        assert "9 columns" in err and "state cap of 902" in err
        monkeypatch.setattr(chain_edit, "STATE_CAP", 903)
        assert main(["--cap", "9", "edit", str(path)]) == 0

    @pytest.mark.parametrize("scope", ["9x9", "2x2,4x4", "3x5"])
    def test_axioms_scope_over_cap(self, capsys, scope):
        err = self.one_line_error(capsys, 3, ["axioms", "-o", "count", "--scope", scope])
        assert scope.split(",")[-1] in err and str(axiom_lab.EXHAUSTIVE_CAP) in err

    def test_axioms_scope_negative_size(self, capsys):
        self.one_line_error(capsys, 2, ["axioms", "-o", "count", "--scope=-1x2"])

    def test_scope_cap_admits_the_suite_sizes(self):
        axiom_lab.Scope(exhaustive=((4, 3), (3, 4), (2, 6)))
        with pytest.raises(ResourceCapError):
            axiom_lab.Scope(exhaustive=((1, 13),))


DEEP = "[" * 100_000 + "]" * 100_000

# (file contents, the command reading it with FILE in its place)
MALFORMED = {
    "tournament-not-utf8": (b"\xff", ["edit", "FILE"]),
    "state-not-utf8": (b"\xff", ["likelihood", "k.csv", "--state", "FILE", "--beta", "0.1"]),
    "pref-not-utf8": (b"\xff", ["rank", "k.csv", "-o", "match-pref:FILE"]),
    "tournament-deep": (b'{"matrix": ' + DEEP.encode() + b"}", ["edit", "FILE"]),
    "state-deep": (DEEP.encode(), ["likelihood", "k.csv", "--state", "FILE", "--beta", "0.1"]),
    "pref-deep": (DEEP.encode(), ["rank", "k.csv", "-o", "match-pref:FILE"]),
    "tournament-long-integer": (b'{"matrix": [[1' + b"0" * 5000 + b"]]}", ["edit", "FILE"]),
    "pref-string-label": (b'[["x", 1]]', ["rank", "k.csv", "-o", "match-pref:FILE"]),
    "pref-null-label": (b"[[null, 1]]", ["rank", "k.csv", "-o", "match-pref:FILE"]),
    "pref-float-label": (
        b"[[1.5, 1], [1, 2], [1, 3], [2, 1], [2, 2], [2, 3], [3, 1], [3, 2], [3, 3]]",
        ["rank", "k.csv", "-o", "match-pref:FILE"],
    ),
    "pref-bool-label": (
        b"[[true, 1], [1, 2], [1, 3], [2, 1], [2, 2], [2, 3], [3, 1], [3, 2], [3, 3]]",
        ["rank", "k.csv", "-o", "match-pref:FILE"],
    ),
    "state-nan": (
        b'{"x": [NaN, 1, 2], "y": [1, 2, 3]}',
        ["likelihood", "k.csv", "--state", "FILE", "--beta", "0.1"],
    ),
    "label-surrogate": (b'{"matrix": [[1]], "a_labels": ["\\ud800"]}', ["rank", "FILE", "-o", "ci"]),
    "label-list": (b'{"matrix": [[1]], "a_labels": [["x"]]}', ["rank", "FILE", "-o", "ci"]),
    "label-object": (b'{"matrix": [[1]], "b_labels": [{"x": 1}]}', ["rank", "FILE", "-o", "ci"]),
    "label-null": (b'{"matrix": [[1]], "a_labels": [null]}', ["rank", "FILE", "-o", "ci"]),
    "label-float": (b'{"matrix": [[1]], "a_labels": [1.5]}', ["rank", "FILE", "-o", "ci"]),
    "label-true": (b'{"matrix": [[1]], "b_labels": [true]}', ["rank", "FILE", "-o", "ci"]),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_one_error_line_and_exit_2(self, tmp_path, case):
        content, args = MALFORMED[case]
        (tmp_path / "k.csv").write_text("1,0,1\n0,1,1\n1,1,0\n")
        (tmp_path / "bad").write_bytes(content)
        args = [arg.replace("FILE", "bad") for arg in args]
        proc = subprocess.run(
            [sys.executable, "-m", "chainrank", *args], cwd=tmp_path, capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args, what", [
        (["edit", "FILE"], ""),
        (["likelihood", "k.csv", "--state", "FILE", "--beta", "0.1"], ""),
        (["rank", "k.csv", "-o", "match-pref:FILE"], "match-preference file "),
    ])
    def test_missing_file_and_directory_messages(self, tmp_path, capsys, monkeypatch, args, what):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k.csv").write_text("1,0\n0,1\n")
        (tmp_path / "sub").mkdir()
        for path, reason in (
            ("nope", "[Errno 2] No such file or directory: 'nope'"),
            ("sub", "[Errno 21] Is a directory: 'sub'"),
        ):
            assert main([arg.replace("FILE", path) for arg in args]) == 2
            assert capsys.readouterr().err == f"error: cannot read {what}{path}: {reason}\n"


def same_text(out, expected):
    # a bare `==` would make a failure diff thousands of near-identical lines
    return out == expected


def old_members_text(members):
    return "".join(f"-\n{M}\n" for M in members)


def old_members_json(members):
    return [[list(row) for row in M.cells] for M in members]


@st.composite
def listing_inputs(draw):
    """Tall, square and wide tournaments up to 6x6; a copied column gives
    several optimal orderings."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    if n > 1 and draw(st.booleans()):
        rows = [r & ~2 | (r & 1) << 1 for r in rows]  # column 2 copies column 1
    return Tournament(m, n, tuple(rows))


class TestMemberRendering:
    """edit and likelihood --mle print what print(M) and json.dumps printed."""

    def inputs(self, tmp_path):
        rng = random.Random(5)
        prefix = [(1 << j) - 1 for j in range(7)]
        planted = [prefix[j] for j in range(1, 6) for _ in range(4)]
        planted += [prefix[i] | 1 << (i + 1) for i in (0, 1, 2, 3, 2)]
        tournaments = [Tournament(len(planted), 6, tuple(planted))]
        tournaments += [random_tournament(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(25)]
        for i, K in enumerate(tournaments):
            path = tmp_path / f"k{i}.csv"
            path.write_text(to_csv(K))
            yield K, str(path)

    def test_edit(self, tmp_path, capsys):
        modes = {"--all": min_chain_set, "--complete": chain_completion, "--delete": chain_deletion}
        for K, path in self.inputs(tmp_path):
            for flag, solve in modes.items():
                result = solve(K)
                assert main(["edit", path, flag]) == 0
                assert same_text(capsys.readouterr().out, (
                    f"distance: {result.distance}\nmembers: {len(result.members)}\n"
                    + old_members_text(result.members)
                ))
                assert main(["edit", path, flag, "--json"]) == 0
                out = {"distance": result.distance, "members": old_members_json(result.members)}
                assert same_text(capsys.readouterr().out, json.dumps(out, sort_keys=True) + "\n")

    def test_edit_weighted(self, tmp_path, capsys):
        for K, path in self.inputs(tmp_path):
            for order in ("row-major", "col-major"):
                selected = select_match_pref(K, parse_order_name(order))
                assert main(["edit", path, "--weighted", order, "--json"]) == 0
                out = {"distance": hamming(K, selected), "members": [selected.cells]}
                assert capsys.readouterr().out == json.dumps(out, sort_keys=True) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(listing_inputs(), st.sampled_from(["--all", "--complete", "--delete"]), st.sampled_from([None, 3]))
    @example(Tournament.from_cells([[1, 0], [0, 1]]), "--all", None)  # two optimal orderings
    @example(Tournament.from_cells([[1, 0, 1, 0], [0, 1, 1, 1]]), "--all", None)  # wide
    @example(EX2, "--all", 3)  # four members, over a member cap of 3
    def test_writer_matches_per_member_rendering(self, K, flag, cap):
        solve = {"--all": min_chain_set, "--complete": chain_completion, "--delete": chain_deletion}[flag]
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            chain_edit, "MEMBER_CAP", cap or chain_edit.MEMBER_CAP
        ):
            path = os.path.join(tmp, "k.csv")
            with open(path, "w") as fh:
                fh.write(to_csv(K))
            try:
                result = solve(K)
            except ResourceCapError:
                result = None
            for form in ([], ["--json"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["edit", path, flag, *form])
                if result is None:
                    assert (code, out.getvalue()) == (3, "") and "member cap" in err.getvalue()
                elif form:
                    expected = {"distance": result.distance, "members": old_members_json(result.members)}
                    assert same_text(out.getvalue(), json.dumps(expected, sort_keys=True) + "\n")
                else:
                    assert same_text(out.getvalue(), (
                        f"distance: {result.distance}\nmembers: {len(result.members)}\n"
                        + old_members_text(result.members)
                    ))

    def test_likelihood_mle(self, tmp_path, capsys):
        for K, path in self.inputs(tmp_path):
            if K.rows * K.cols > 16:
                continue
            # symmetric noise, rates whose MLE set is or is not the closest chains
            # or is every chain, and a rate of one, which makes every cell of an
            # all-zero input's one closest chain impossible
            rates = ((0.1, 0.1), (0.5, 0.5), (0.1, 0.3), (0.0, 0.2), (0.2, 0.0), (0.7, 0.3), (1.0, 0.5))
            for ap, am in rates:
                noise = ["--beta", str(ap)] if ap == am else ["--alpha-plus", str(ap), "--alpha-minus", str(am)]
                members = mle_search(K, NoiseParams(ap, am))
                exact = min_chain_set(K)
                same = set(members) == set(exact.members)
                assert main(["likelihood", path, "--mle", *noise]) == 0
                text = capsys.readouterr().out
                assert text.startswith(f"MLE tournaments: {len(members)}  [{'=' if same else '!='} minCh(K)")
                assert same_text(text.split("\n", 1)[1], old_members_text(members))
                assert main(["likelihood", path, "--mle", *noise, "--json"]) == 0
                out = {"mle": old_members_json(members), "equals_min_chain_set": same,
                       "min_distance": exact.distance}
                assert same_text(capsys.readouterr().out, json.dumps(out, sort_keys=True) + "\n")


def all_preorders(n):
    """Every total preorder of players 1..n: each map of the players onto
    ranks 0..k-1 that uses every rank."""
    for labels in itertools.product(range(n), repeat=n):
        k = max(labels) + 1
        if len(set(labels)) == k:
            yield TotalPreorder.from_ranks(
                {x for x, r in enumerate(labels, 1) if r == rank} for rank in range(k)
            )


def random_preorder(rng, n, k):
    """Players 1..n, each put in one of k ranks at random (empty ranks dropped)."""
    ranks: dict[int, set[int]] = {}
    for x in range(1, n + 1):
        ranks.setdefault(rng.randrange(k), set()).add(x)
    return TotalPreorder.from_ranks(ranks[r] for r in sorted(ranks))


class TestKendallTauB:
    def test_matches_pairwise_definition(self):
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randint(1, 9)
            p, q = random_preorder(rng, n, n), random_preorder(rng, n, n)
            assert kendall_tau_b(p, q) == kendall_tau_b_by_pairs(p, q)

    def test_every_pair_of_preorders_up_to_four_players(self):
        pairs = 0
        for n in range(1, 5):
            orders = list(all_preorders(n))
            for p, q in itertools.product(orders, repeat=2):
                assert kendall_tau_b(p, q) == kendall_tau_b_by_pairs(p, q)
                pairs += 1
        assert pairs == 1 + 3**2 + 13**2 + 75**2

    @pytest.mark.parametrize("ranks", [1, 2, 9, None])
    def test_many_players(self, ranks):
        rng = random.Random(ranks or 0)
        for n in (2, 17, 300, 2000):
            k = ranks or n
            p, q = random_preorder(rng, n, k), random_preorder(rng, n, k)
            assert kendall_tau_b(p, q) == kendall_tau_b_by_pairs(p, q)

    def test_identical_orders(self):
        p = preorder("1234")
        assert kendall_tau_b(p, p) == pytest.approx(1.0)

    def test_reversed_orders(self):
        assert kendall_tau_b(preorder("1234"), preorder("4321")) == pytest.approx(-1.0)

    def test_flat_versus_anything_is_zero(self):
        flat = TotalPreorder.from_ranks([{1, 2, 3}])
        assert kendall_tau_b(flat, preorder("123")) == 0.0

    def test_partial_ties(self):
        got = kendall_tau_b(preorder("{12}3"), preorder("123"))
        assert 0.0 < got < 1.0
