import json
import math
import random
import subprocess
import sys

import pytest

from chainrank import (
    NoiseParams,
    ResourceCapError,
    Tournament,
    axiom_lab,
    chain_completion,
    chain_deletion,
    chain_edit,
    min_chain_set,
    mle_search,
    prob_model,
    resolve_operator,
)
from chainrank.cli import kendall_tau_b, main
from chainrank.core import TotalPreorder
from chainrank.fileio import parse_tournament, to_csv, to_json
from chainrank.prob_model import k_theta, sample_state

from helpers import EX2, TABLE1, preorder, random_tournament


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
        members = chain_edit._members

        def counted(*args):
            calls.append(args)
            return members(*args)

        monkeypatch.setattr(chain_edit, "_members", counted)
        monkeypatch.setattr(prob_model, "_members", counted)
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
        assert main(["rank", ex2_file, "-o", "chain-min-mon"]) == 3
        for op in ("chain-min-lex", "chain-min-dual", "match-pref:row-major"):
            assert main(["rank", ex2_file, "-o", op]) == 0

    def test_json_matrix_not_binary_integers(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for matrix in ("5", "[[true, 0]]", "[[0.0, 1]]", "[1, 0]"):
            path.write_text('{"matrix": %s}' % matrix)
            assert main(["edit", str(path)]) == 2
            assert capsys.readouterr().err.count("\n") == 1

    def test_console_entry_point(self, table1_file):
        proc = subprocess.run(
            [sys.executable, "-m", "chainrank", "rank", table1_file, "-o", "ci"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "4" in proc.stdout


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


def same_text(out, expected):
    # a bare `==` would make a failure diff thousands of near-identical lines
    return out == expected


def old_members_text(members):
    return "".join(f"-\n{M}\n" for M in members)


def old_members_json(members):
    return [[list(row) for row in M.cells] for M in members]


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

    def test_likelihood_mle(self, tmp_path, capsys):
        for K, path in self.inputs(tmp_path):
            if K.rows * K.cols > 16:
                continue
            for beta in ("0.1", "0.5"):
                members = mle_search(K, NoiseParams.symmetric(float(beta)))
                exact = min_chain_set(K)
                same = set(members) == set(exact.members)
                assert main(["likelihood", path, "--mle", "--beta", beta]) == 0
                text = capsys.readouterr().out
                assert text.startswith(f"MLE tournaments: {len(members)}  [{'=' if same else '!='} minCh(K)")
                assert same_text(text.split("\n", 1)[1], old_members_text(members))
                assert main(["likelihood", path, "--mle", "--beta", beta, "--json"]) == 0
                out = {"mle": old_members_json(members), "equals_min_chain_set": same,
                       "min_distance": exact.distance}
                assert same_text(capsys.readouterr().out, json.dumps(out, sort_keys=True) + "\n")


def pairwise_tau_b(p, q):
    """Tie-aware rank correlation straight from its pairwise definition."""
    players = sorted(p.players)
    concordant = discordant = ties_p = ties_q = total = 0
    for i, x in enumerate(players):
        for y in players[i + 1 :]:
            total += 1
            sp = (p.rank_of(x) > p.rank_of(y)) - (p.rank_of(x) < p.rank_of(y))
            sq = (q.rank_of(x) > q.rank_of(y)) - (q.rank_of(x) < q.rank_of(y))
            ties_p += sp == 0
            ties_q += sq == 0
            concordant += sp * sq == 1
            discordant += sp * sq == -1
    denom = math.sqrt((total - ties_p) * (total - ties_q))
    return 0.0 if denom == 0 else (concordant - discordant) / denom


class TestKendallTauB:
    def test_matches_pairwise_definition(self):
        rng = random.Random(77)

        def tied_preorder(players):
            ranks: dict[int, set[int]] = {}
            for x in players:
                ranks.setdefault(rng.randrange(len(players)), set()).add(x)
            return TotalPreorder.from_ranks(ranks[r] for r in sorted(ranks))

        for _ in range(300):
            players = range(1, rng.randint(1, 9) + 1)
            p, q = tied_preorder(players), tied_preorder(players)
            assert kendall_tau_b(p, q) == pairwise_tau_b(p, q)

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
