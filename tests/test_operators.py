import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from chainrank import (
    InputError,
    NoiseParams,
    Tournament,
    all_tournaments,
    chain_rankings,
    dual,
    dual_symmetrized,
    is_chain_definable,
    min_chain_set,
    neighborhood,
    phi_ci,
    phi_count,
    resolve_operator,
    sample_state,
    sample_tournament,
)
from chainrank.chain_edit import all_chain_tournaments, monotone_min_chain
from chainrank.core import canonical_key
from chainrank.operators import (
    chain_min_lex_operator,
    chain_min_mon_operator,
    count_operator,
    match_pref_operator,
)
from chainrank import MatchPreference, picks
from chainrank.experiment import ExperimentConfig, run_simulation
from chainrank.interleave import ci_selection, greedy_chain_tournament
from chainrank.rankings import TotalPreorder

from helpers import ANON_K, EX1, EX2, TABLE1, pair, random_tournament


class TestPhiCount:
    def test_example2(self):
        assert phi_count(EX2) == pair("{12}3", "{123}4")

    def test_all_ones_flat(self):
        K = Tournament.from_cells([[1, 1], [1, 1]])
        got = phi_count(K)
        assert got == pair("{12}", "{12}")

    def test_table1(self):
        assert phi_count(TABLE1).a_order == pair("{24}31", "1").a_order

    def test_agrees_with_chain_rankings_on_distinct_sizes(self):
        # on a chain input with pairwise distinct neighbourhood sizes the win
        # counter reproduces the subset ranking of the A side
        for C in all_chain_tournaments(3, 3):
            sizes = [r.bit_count() for r in C.row_masks]
            if len(set(sizes)) == 3:
                assert phi_count(C).a_order == chain_rankings(C).a_order


class TestChainMinLex:
    def test_chain_fixed_point(self):
        spec = chain_min_lex_operator()
        assert spec.evaluate(EX1) == chain_rankings(EX1)

    def test_example2_uses_canonical_least(self):
        members = min_chain_set(EX2).members
        least = min(members, key=canonical_key)
        assert chain_min_lex_operator().evaluate(EX2) == chain_rankings(least)

    def test_diagonal_never_flat(self):
        got = chain_min_lex_operator().evaluate(ANON_K)
        assert not got.a_order.tied(1, 2)

    def test_choice_is_a_member(self):
        spec = chain_min_lex_operator()
        for K in all_tournaments(2, 3):
            assert spec.choice(K) in min_chain_set(K).members


class TestChainMinMon:
    def test_chain_fixed_point(self):
        assert chain_min_mon_operator().evaluate(EX1) == chain_rankings(EX1)

    def test_respects_source_inclusions(self):
        spec = chain_min_mon_operator()
        for K in all_tournaments(2, 3):
            got = spec.evaluate(K)
            for a in (1, 2):
                for a2 in (1, 2):
                    if a != a2 and neighborhood(K, a) <= neighborhood(K, a2):
                        assert got.a_order.le(a, a2)

    def test_example2(self):
        from chainrank import monotone_min_chain

        assert chain_min_mon_operator().evaluate(EX2) == chain_rankings(monotone_min_chain(EX2))


class TestMatchPrefOperator:
    def test_example5(self):
        spec = match_pref_operator(MatchPreference.row_major(), label="match-pref:row-major")
        assert spec.evaluate(EX2) == pair("123", "{13}24")

    def test_chain_fixed_point(self):
        spec = match_pref_operator(MatchPreference.row_major())
        assert spec.evaluate(EX1) == chain_rankings(EX1)

    def test_diagonal(self):
        spec = match_pref_operator(MatchPreference.row_major())
        assert spec.evaluate(ANON_K) == chain_rankings(Tournament.from_cells([[1, 0], [0, 0]]))


class TestPhiCi:
    def test_table1(self):
        assert phi_ci(TABLE1) == pair("4231", "25{34}1")

    def test_all_zeros_flat(self):
        K = Tournament.from_cells([[0, 0, 0], [0, 0, 0]])
        got = phi_ci(K)
        assert got == pair("{12}", "{123}")

    def test_1x1(self):
        assert phi_ci(Tournament.from_cells([[1]])) == pair("1", "1")

    def test_always_chain_definable(self):
        for K in all_tournaments(2, 3):
            assert is_chain_definable(phi_ci(K))
        rng = random.Random(21)
        for _ in range(20):
            assert is_chain_definable(phi_ci(random_tournament(rng, 5, 6)))


class TestDualSymmetrized:
    def test_requires_choice_function(self):
        with pytest.raises(InputError):
            dual_symmetrized(count_operator())

    def test_choice_commutes_with_dual_on_2x2(self):
        spec = dual_symmetrized(chain_min_lex_operator())
        for K in all_tournaments(2, 2):
            assert spec.choice(dual(K)) == dual(spec.choice(K))

    def test_satisfies_dual_axiom_on_2x2(self):
        from chainrank.axiom_lab import Scope, check_dual

        spec = dual_symmetrized(chain_min_lex_operator())
        verdict = check_dual(spec, Scope(exhaustive=((2, 2),)))
        assert verdict.holds

    def test_canonical_side_keeps_base_choice(self):
        base = chain_min_lex_operator()
        spec = dual_symmetrized(base)
        K = Tournament.from_cells([[0, 0], [0, 1]])  # chain, and below its dual
        assert canonical_key(K) < canonical_key(dual(K))
        assert spec.choice(K) == base.choice(K) == K

    def test_a_non_square_k_builds_no_canonical_key(self, monkeypatch):
        # keys lead with the row count, so a K that is not square is canonical
        # exactly when it is wide
        def refuse(K):
            raise AssertionError("a non-square K built its canonical key")

        base = chain_min_lex_operator()
        expected = (base.choice(EX2), dual(base.choice(EX2)))
        monkeypatch.setattr("chainrank.operators.canonical_key", refuse)
        for spec in (dual_symmetrized(base), resolve_operator("chain-min-dual")):
            assert (spec.choice(EX2), spec.choice(dual(EX2))) == expected

    def test_chain_min_dual_is_the_symmetrized_lex_pick(self):
        # chain-min-dual reads a non-canonical K's pick off K's own solve
        rng = random.Random(41)
        spec = dual_symmetrized(chain_min_lex_operator())
        dual_spec = resolve_operator("chain-min-dual")
        for m, n in ((2, 2), (3, 3), (5, 5), (6, 6), (6, 4), (4, 6), (7, 2), (1, 5)):
            for _ in range(30):
                K = random_tournament(rng, m, n)
                assert dual_spec.choice(K) == spec.choice(K)

    def test_still_chain_minimal(self):
        spec = dual_symmetrized(chain_min_lex_operator())
        for K in all_tournaments(2, 2):
            assert spec.choice(K) in min_chain_set(K).members


class TestRegistry:
    def test_known_names_resolve(self):
        for name in ("count", "chain-min-lex", "chain-min-mon", "chain-min-dual", "ci",
                     "match-pref:row-major", "match-pref:col-major"):
            spec = resolve_operator(name)
            spec.evaluate(ANON_K)

    def test_unknown_name(self):
        with pytest.raises(InputError):
            resolve_operator("slater")

    def test_explicit_pref_from_file(self, tmp_path):
        path = tmp_path / "order.json"
        path.write_text("[[2,1],[2,2],[1,1],[1,2]]")
        spec = resolve_operator(f"match-pref:{path}")
        spec.evaluate(ANON_K)

    def test_bad_pref_file(self, tmp_path):
        path = tmp_path / "order.json"
        path.write_text("{\"not\": \"a list\"}")
        with pytest.raises(InputError):
            resolve_operator(f"match-pref:{path}")

    def test_all_outputs_well_formed(self):
        rng = random.Random(9)
        names = ("count", "chain-min-lex", "chain-min-mon", "chain-min-dual", "ci",
                 "match-pref:row-major")
        for name in names:
            spec = resolve_operator(name)
            for K in all_tournaments(2, 2):
                got = spec.evaluate(K)
                assert got.a_order.players == {1, 2}
                assert got.b_order.players == {1, 2}
        for name in ("count", "ci"):
            spec = resolve_operator(name)
            for _ in range(5):
                K = random_tournament(rng, 6, 7)
                got = spec.evaluate(K)
                assert got.a_order.players == frozenset(range(1, 7))
                assert got.b_order.players == frozenset(range(1, 8))

    def test_chain_editing_operators_satisfy_chain_min(self):
        specs = [
            resolve_operator(n)
            for n in ("chain-min-lex", "chain-min-mon", "chain-min-dual", "match-pref:row-major")
        ]
        rng = random.Random(31)
        instances = list(all_tournaments(2, 2)) + [random_tournament(rng, 2, 3) for _ in range(10)]
        for K in instances:
            attainable = {chain_rankings(M) for M in min_chain_set(K).members}
            for spec in specs:
                assert spec.evaluate(K) in attainable


class TestSharedSolve:
    def test_one_pick_per_tournament(self, monkeypatch):
        # evaluate and edit_chain share the pick: of the five sweep operators,
        # chain-min-lex, chain-min-mon and match-pref pick once per trial each
        calls = []
        least_member = picks.least_member
        monkeypatch.setattr(picks, "least_member", lambda *args: calls.append(args) or least_member(*args))
        operators = ("count", "ci", "chain-min-lex", "chain-min-mon", "match-pref:row-major")
        run_simulation(ExperimentConfig(6, 6, NoiseParams.symmetric(0.1), operators, trials=20, seed=41))
        assert len(calls) == 60

    def test_a_trial_builds_no_rank_index(self, monkeypatch):
        # the rank correlation counts players per pair of ranks, so no
        # ranking of a trial needs a second copy of its players
        def refuse(order):
            raise AssertionError("a trial built a rank index")

        monkeypatch.setattr(TotalPreorder, "_rank_index", property(refuse))
        operators = ("count", "ci", "chain-min-lex", "chain-min-mon", "match-pref:row-major")
        run_simulation(ExperimentConfig(40, 6, NoiseParams.symmetric(0.1), operators, trials=3, seed=41))

    def test_ci_keeps_its_answers_not_its_trace(self):
        # interleave keeps only the current pools and ci caches only its
        # ranking pair: on a 64,000x8 exam its evaluate peaked at 25.3 MiB
        # traced while every round's pool of players was recorded
        K = sample_tournament(sample_state(64000, 8, 1), NoiseParams.symmetric(0.1), 8)
        spec = resolve_operator("ci")
        spec.evaluate(EX2)  # imports the interleaving engine
        tracemalloc.start()
        try:
            pair = spec.evaluate(K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20, f"peak traced memory {peak / 2**20:.2f} MiB exceeds 12 MiB"
        assert spec.edit_chain(K) == greedy_chain_tournament(K, ci_selection())
        assert vars(pair.a_order) == {"ranks": pair.a_order.ranks}

    def test_threads_never_see_another_inputs_chain(self):
        # library callers may share an operator across threads, and with it
        # chain_edit's one-entry solve memo
        spec = chain_min_lex_operator()
        rng = random.Random(12)
        inputs = [random_tournament(rng, 4, 5) for _ in range(16)]
        expected = [monotone_min_chain(K) for K in inputs]

        def sweep(start):
            order = list(range(start, len(inputs))) + list(range(start))
            for i in order * 5:
                if spec.edit_chain(inputs[i]) != expected[i]:
                    return False
                if spec.evaluate(inputs[i]) != chain_rankings(expected[i]):
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(sweep, t) for t in range(8)]
                assert all(f.result(timeout=120) for f in futures)
        finally:
            sys.setswitchinterval(interval)
