import collections
import gc
import hashlib
import itertools
import json
import random
import weakref
from dataclasses import replace

import pytest

from chainrank import (
    RankingPair,
    ResourceCapError,
    TotalPreorder,
    Tournament,
    all_tournaments,
    chain_rankings,
    dual,
    has_chain_property,
    min_chain_set,
    phi_count,
    rank_count,
    ranks_to_chain,
)
from chainrank import axiom_lab
from chainrank.axiom_lab import (
    ANON_COUNTEREXAMPLE,
    CHAIN_DEF_IMPOSSIBILITY,
    IIM_PAIR,
    POS_RESP_COUNTEREXAMPLE,
    AxiomVerdict,
    Scope,
    _memoized,
    check_anon,
    check_chain_def,
    check_chain_def_scope,
    check_chain_min,
    check_chain_min_scope,
    check_dual,
    check_iim,
    check_mon,
    check_pos_resp,
    impossibility_suite,
    recheck,
)
from chainrank.errors import InputError
from chainrank.operators import (
    OperatorSpec,
    chain_min_lex_operator,
    chain_min_mon_operator,
    ci_operator,
    count_operator,
    resolve_operator,
)

from helpers import EX2, TABLE1, iim_by_first_seen, random_tournament, two_patterns


def with_witness(verdict: AxiomVerdict, witness: dict) -> AxiomVerdict:
    return AxiomVerdict(**{**verdict.to_json(), "witness": witness})


def reversed_count_operator() -> OperatorSpec:
    """Deliberately broken fixture: ranks more wins lower."""

    def evaluate(K):
        base = phi_count(K)
        return RankingPair(
            TotalPreorder(tuple(reversed(base.a_order.ranks))),
            TotalPreorder(tuple(reversed(base.b_order.ranks))),
        )

    return OperatorSpec("rev-count", evaluate)


class TestAnon:
    def test_chain_min_lex_fails_on_diagonal(self):
        verdict = check_anon(chain_min_lex_operator(), Scope(tournaments=(ANON_COUNTEREXAMPLE,)))
        assert not verdict.holds
        assert verdict.witness["sigma"] == [2, 1]
        assert recheck(chain_min_lex_operator(), verdict)

    def test_paper_witness_also_violates(self):
        # swapping both sides maps the diagonal to itself, yet the operator
        # must order the two rows strictly
        from chainrank.axiom_lab import _CASES

        paper = {"tournament": [[1, 0], [0, 1]], "sigma": [2, 1], "pi": [2, 1], "pair": [1, 2]}
        assert paper in _CASES["anon"](_memoized(chain_min_lex_operator()), (ANON_COUNTEREXAMPLE,))

    def test_recheck_wants_the_same_witness(self):
        op = chain_min_lex_operator()
        verdict = check_anon(op, Scope(tournaments=(ANON_COUNTEREXAMPLE,)))
        reversed_pair = {**verdict.witness, "pair": verdict.witness["pair"][::-1]}
        assert recheck(op, verdict)
        assert not recheck(op, with_witness(verdict, reversed_pair))

    def test_ci_holds_exhaustive_2x2(self):
        verdict = check_anon(ci_operator(), Scope(exhaustive=((2, 2),)))
        assert verdict.holds
        # 16 tournaments x 2! row perms x 2! column perms
        assert verdict.checked == 64

    def test_count_holds_exhaustive_2x2(self):
        assert check_anon(count_operator(), Scope(exhaustive=((2, 2),))).holds


class TestDual:
    def test_ci_holds_small(self):
        verdict = check_dual(ci_operator(), Scope(exhaustive=((2, 2), (2, 3))))
        assert verdict.holds
        assert verdict.checked == 16 + 64

    def test_count_holds_2x2(self):
        assert check_dual(count_operator(), Scope(exhaustive=((2, 2),))).holds

    def test_chain_min_lex_verdict_recorded_and_consistent(self):
        verdict = check_dual(chain_min_lex_operator(), Scope(exhaustive=((2, 2),)))
        if not verdict.holds:
            assert recheck(chain_min_lex_operator(), verdict)


class TestIim:
    def test_chain_min_fails_on_shared_rows_pair(self):
        for spec in (chain_min_lex_operator(), chain_min_mon_operator()):
            verdict = check_iim(spec, Scope(), pairs=((IIM_PAIR[0], IIM_PAIR[1], 1, 2),))
            assert not verdict.holds

    def test_count_holds_exhaustive(self):
        verdict = check_iim(count_operator(), Scope(exhaustive=((3, 2),)))
        assert verdict.holds

    def test_ci_fails_on_shared_rows_pair(self):
        verdict = check_iim(ci_operator(), Scope(), pairs=((IIM_PAIR[0], IIM_PAIR[1], 1, 2),))
        assert not verdict.holds

    def test_non_identical_rows_rejected(self):
        from chainrank.axiom_lab import iim_instance_violates

        with pytest.raises(Exception):
            iim_instance_violates(count_operator(), IIM_PAIR[0], IIM_PAIR[1], 1, 3)

    def test_sampled_scope(self):
        scope = Scope(random_sizes=((3, 3),), random_count=60, seed=5)
        bad = check_iim(chain_min_lex_operator(), scope)
        assert not bad.holds
        assert recheck(chain_min_lex_operator(), bad)
        assert check_iim(count_operator(), scope).holds

    def test_sampled_scope_skips_single_row_sizes(self):
        scope = Scope(random_sizes=((1, 3),), random_count=10, seed=5)
        assert check_iim(count_operator(), scope).holds

    @pytest.mark.parametrize("name", ["count", "ci", "chain-min-lex", "match-pref:col-major"])
    def test_exhaustive_buckets_against_first_seen(self, name):
        # each tournament's bucket first, built with every other row 0, is the
        # one a dict of first-seen row pairs finds in canonical order
        op = resolve_operator(name)
        for m, n in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2)):
            verdict = check_iim(op, Scope(exhaustive=((m, n),)))
            want = iim_by_first_seen(_memoized(resolve_operator(name)), m, n)
            assert (verdict.holds, verdict.checked, verdict.witness) == want, (m, n)


class TestMon:
    def test_ci_holds_2x3(self):
        assert check_mon(ci_operator(), Scope(exhaustive=((2, 3),))).holds

    def test_chain_min_mon_holds_2x3(self):
        assert check_mon(chain_min_mon_operator(), Scope(exhaustive=((2, 3),))).holds

    def test_reversed_count_fails_with_witness(self):
        verdict = check_mon(reversed_count_operator(), Scope(exhaustive=((2, 2),)))
        assert not verdict.holds
        assert recheck(reversed_count_operator(), verdict)


class TestPosResp:
    def test_chain_min_fails_on_unique_repair_instance(self):
        verdict = check_pos_resp(
            chain_min_lex_operator(), Scope(tournaments=(POS_RESP_COUNTEREXAMPLE,))
        )
        assert not verdict.holds
        assert verdict.witness["pair"] == [1, 2]
        assert verdict.witness["cell"] == [2, 3]

    def test_count_holds_exhaustive_2x2(self):
        assert check_pos_resp(count_operator(), Scope(exhaustive=((2, 2),))).holds

    def test_ci_fails_within_search_scope(self):
        scope = Scope(exhaustive=((2, 2), (3, 2), (2, 3), (4, 2)))
        verdict = check_pos_resp(ci_operator(), scope)
        assert not verdict.holds
        assert recheck(ci_operator(), verdict)

    def test_recheck_of_a_case_that_cannot_occur(self):
        # row 2 already wins at column 1, so no case grants it that win
        op = chain_min_lex_operator()
        verdict = check_pos_resp(op, Scope(tournaments=(POS_RESP_COUNTEREXAMPLE,)))
        impossible = {**verdict.witness, "cell": [2, 1]}
        assert not recheck(op, with_witness(verdict, impossible))


class TestRecheckRefusals:
    def test_verdict_without_witness(self):
        verdict = check_anon(count_operator(), Scope(exhaustive=((2, 2),)))
        with pytest.raises(InputError, match="^verdict carries no witness$"):
            recheck(count_operator(), verdict)

    def test_unknown_axiom(self):
        verdict = check_anon(chain_min_lex_operator(), Scope(tournaments=(ANON_COUNTEREXAMPLE,)))
        renamed = AxiomVerdict(**{**verdict.to_json(), "axiom": "fairness"})
        with pytest.raises(InputError, match="^unknown axiom 'fairness'$"):
            recheck(chain_min_lex_operator(), renamed)


class TestChainMinAndDef:
    def test_lex_satisfies_chain_min_by_construction(self):
        assert check_chain_min(chain_min_lex_operator(), EX2).holds

    def test_count_fails_chain_min_on_example2(self):
        verdict = check_chain_min(count_operator(), EX2)
        assert not verdict.holds
        assert recheck(count_operator(), verdict)

    def test_ci_on_table1_matches_direct_membership(self):
        from chainrank import chain_rankings, min_chain_set, phi_ci

        verdict = check_chain_min(ci_operator(), TABLE1)
        direct = phi_ci(TABLE1) in {chain_rankings(M) for M in min_chain_set(TABLE1).members}
        assert verdict.holds == direct

    def test_ci_chain_def_everywhere(self):
        assert check_chain_def(ci_operator(), EX2).holds
        assert check_chain_def(ci_operator(), TABLE1).holds

    def test_count_fails_chain_def_on_impossibility_matrix(self):
        verdict = check_chain_def(count_operator(), CHAIN_DEF_IMPOSSIBILITY)
        assert not verdict.holds
        assert verdict.witness["rank_counts"] == [3, 1]

    def test_two_candidates_are_the_chains_of_a_ranking_pair(self):
        # every ranking pair of a chain tournament up to 4x4, by full scan
        pairs = 0
        for m, n in itertools.product(range(1, 5), repeat=2):
            chains: dict = {}
            for K in all_tournaments(m, n):
                if has_chain_property(K):
                    chains.setdefault(chain_rankings(K), set()).add(K)
            for pair, group in chains.items():
                swapped = RankingPair(pair.b_order, pair.a_order)
                assert {ranks_to_chain(pair), dual(ranks_to_chain(swapped))} == group
            pairs += len(chains)
        # 6,880 distinct pairs from 9,720 chain tournaments
        assert pairs == 6880

    def test_membership_matches_the_listing(self):
        # the listing test is the reference: the pair is among the rankings
        # of the closest chain tournaments
        sizes = [*itertools.product(range(1, 4), repeat=2), (2, 4), (4, 2), (1, 5), (5, 1)]
        tournaments = [K for m, n in sizes for K in all_tournaments(m, n)]
        rng = random.Random(25)
        tournaments += [
            random_tournament(rng, m, n)
            for m, n in itertools.product(range(1, 7), repeat=2)
            for _ in range(8)
        ]
        for name in GOLDEN_VERDICT_DIGESTS:
            op = resolve_operator(name)
            for K in tournaments:
                listed = {chain_rankings(M) for M in min_chain_set(K).members}
                assert check_chain_min(op, K).holds == (op.evaluate(K) in listed), (name, K)

    def test_pairs_of_other_players_are_not_members(self):
        # ranks_to_chain refuses these pairs; they are simply not members
        def shifted(K):
            return RankingPair(
                TotalPreorder.from_ranks([{a + 1} for a in range(1, K.rows + 1)]),
                TotalPreorder.from_ranks([{b} for b in range(1, K.cols + 1)]),
            )

        def swapped(K):
            pair = phi_count(K)
            return RankingPair(pair.b_order, pair.a_order)

        for evaluate in (shifted, swapped):
            verdict = check_chain_min(OperatorSpec("relabelled", evaluate), EX2)
            assert not verdict.holds and verdict.checked == 1

    def test_answers_past_the_member_cap(self):
        # 40 two-pattern rows tie in 4,608 optimal orderings, far too many
        # combinations to list
        K = Tournament.from_cells(two_patterns(40, 4))
        holds = {name: check_chain_min(resolve_operator(name), K).holds for name in GOLDEN_VERDICT_DIGESTS}
        assert holds == {
            "count": False,
            "ci": False,
            "chain-min-lex": True,
            "chain-min-mon": True,
            "chain-min-dual": True,
            "match-pref:row-major": True,
            "match-pref:col-major": True,
        }
        for name in ("count", "ci"):
            op = resolve_operator(name)
            assert recheck(op, check_chain_min(op, K))

    def test_cap_applies_to_pairs_that_are_not_chain_definable(self):
        # 9 columns are over the default search cap; the count ranking has 4
        # and 6 ranks, so no chain tournament has it, yet the distance is
        # still taken and refused
        rng = random.Random(0)
        K = Tournament(9, 9, tuple(rng.randrange(512) for _ in range(9)))
        pair = count_operator().evaluate(K)
        assert (rank_count(pair.a_order), rank_count(pair.b_order)) == (4, 6)
        for op in (count_operator(), ci_operator()):
            with pytest.raises(ResourceCapError):
                check_chain_min(op, K)

    def test_memo_shares_equal_pairs(self):
        for name in GOLDEN_VERDICT_DIGESTS:
            ev = _memoized(resolve_operator(name))
            first: dict = {}
            for K in all_tournaments(3, 3):
                pair = ev(K)
                assert first.setdefault(pair, pair) is pair, name

    def test_memo_shares_equal_orders(self):
        # the 3x3 pairs hold the 13 total preorders of three players; each is
        # one object, in whichever pair and on whichever side it sits
        for name in GOLDEN_VERDICT_DIGESTS:
            ev = _memoized(resolve_operator(name))
            first: dict = {}
            for K in all_tournaments(3, 3):
                pair = ev(K)
                for order in (pair.a_order, pair.b_order):
                    assert first.setdefault(order, order) is order, name
            assert len(first) == 13, name

    def test_memo_keeps_no_tournament_alive(self):
        # the memo is keyed on row masks; only the operator's own memory of
        # its last solve may keep the last tournament
        for name in GOLDEN_VERDICT_DIGESTS:
            ev = _memoized(resolve_operator(name))
            alive = []
            for K in all_tournaments(3, 3):
                ev(K)
                alive.append(weakref.ref(K))
            del K
            gc.collect()
            assert sum(ref() is not None for ref in alive) <= 1, name

    def test_flat_operator_chain_def(self):
        flat = OperatorSpec(
            "flat",
            lambda K: RankingPair(
                TotalPreorder.from_ranks([set(range(1, K.rows + 1))]),
                TotalPreorder.from_ranks([set(range(1, K.cols + 1))]),
            ),
        )
        assert check_chain_def(flat, EX2).holds


class TestVerdictPlumbing:
    def test_json_round_trip(self):
        verdict = check_anon(chain_min_lex_operator(), Scope(tournaments=(ANON_COUNTEREXAMPLE,)))
        data = json.loads(json.dumps(verdict.to_json()))
        assert data["axiom"] == "anon" and data["holds"] is False
        assert Tournament.from_cells(data["witness"]["tournament"]) == ANON_COUNTEREXAMPLE

    def test_deterministic(self):
        scope = Scope(exhaustive=((2, 2),))
        assert check_anon(ci_operator(), scope) == check_anon(ci_operator(), scope)

    def test_scope_descriptions(self):
        scope = Scope(exhaustive=((2, 2),), random_sizes=((3, 3),), random_count=5, seed=1)
        text = scope.describe()
        assert "exhaustive 2x2" in text and "5 seeded random" in text

    def test_random_scope_reproducible(self):
        scope = Scope(random_sizes=((3, 3),), random_count=4, seed=77)
        assert list(scope.iter_tournaments()) == list(scope.iter_tournaments())


class TestImpossibilitySuite:
    def test_suite_reproduces_expected_verdicts(self):
        report = impossibility_suite()
        assert report.ok, [f"{r.label}/{r.operator}/{r.axiom}" for r in report.failures]

    def test_ci_verdict_row(self):
        report = impossibility_suite()
        ci_rows = {
            row.axiom: row.verdict.holds for row in report.rows if row.operator == "ci"
        }
        assert ci_rows == {
            "chain-def": True,
            "anon": True,
            "dual": True,
            "mon": True,
            "iim": False,
            "pos-resp": False,
        }

    def test_every_failure_witness_revalidates(self):
        from chainrank.operators import resolve_operator

        report = impossibility_suite()
        for row in report.rows:
            if not row.verdict.holds and row.verdict.witness:
                assert recheck(resolve_operator(row.operator), row.verdict)

    def test_one_evaluation_per_operator_and_tournament(self, monkeypatch):
        # every resolved operator, the suite's own and each recheck's, evaluates
        # a tournament once: 270 evaluations, 661 when each check kept its own memo
        seen = []

        def resolve(name, cap=None):
            spec, keys = resolve_operator(name, cap), []
            seen.append((name, keys))

            def evaluate(K):
                keys.append((K.cols, K.row_masks))
                return spec.evaluate(K)

            return replace(spec, evaluate=evaluate)

        monkeypatch.setattr(axiom_lab, "resolve_operator", resolve)
        assert impossibility_suite().ok
        calls = collections.Counter()
        for name, keys in seen:
            assert len(keys) == len(set(keys)), name
            calls[name] += len(keys)
        assert calls == {"chain-min-lex": 12, "chain-min-mon": 12, "chain-min-dual": 12,
                         "match-pref:row-major": 12, "count": 28, "ci": 194}

    def test_unique_one_edit_repairs_behind_the_iim_and_posresp_instances(self):
        from chainrank import min_chain_set

        got1 = min_chain_set(IIM_PAIR[0])
        got2 = min_chain_set(IIM_PAIR[1])
        assert got1.distance == got2.distance == 1
        assert got1.members == (Tournament.from_cells([[0, 0, 0], [0, 1, 0], [0, 1, 1]]),)
        assert got2.members == (Tournament.from_cells([[1, 0, 0], [0, 0, 0], [1, 0, 1]]),)
        got3 = min_chain_set(POS_RESP_COUNTEREXAMPLE)
        assert got3.distance == 1
        assert got3.members == (
            Tournament.from_cells([[1, 1, 1], [1, 1, 1], [0, 0, 1], [0, 0, 1]]),
        )

    def test_anon_failure_is_structural(self):
        # no optimum for the diagonal has equal rows, so every choice of
        # optimum breaks label invariance
        from chainrank import min_chain_set

        for M in min_chain_set(ANON_COUNTEREXAMPLE).members:
            assert M.row_masks[0] != M.row_masks[1]


# a seeded random scope and explicit iim pairs, the second pair violating for
# every chain-minimal operator and for ci
GOLDEN_SCOPE = Scope(random_sizes=((3, 3), (4, 3)), random_count=40, seed=3)
GOLDEN_IIM_PAIRS = ((IIM_PAIR[1], IIM_PAIR[1], 1, 3), (IIM_PAIR[0], IIM_PAIR[1], 1, 2))

# SHA-256 of repr(golden_verdicts(name)), recorded when every check ran its
# own loop: each verdict's holds, checked count and first witness stay put
GOLDEN_VERDICT_DIGESTS = {
    "count": "692bbb1d0fa69c34ffa1b61410ca23f74bfab4cbfa96daa48859bc54a34ccfdb",
    "ci": "36b40975e5ac6501a75c7848f5a765188be7a8c6a40fdbac458a8013fd1b4326",
    "chain-min-lex": "79288c651953b0eac49bae978f54da2a0c7037eacc5370a72abe79b7bce104a1",
    "chain-min-mon": "fb6c332678a1117ef3a894a3e40e128fa5ddea1892d6e6d9868d672056ac07cf",
    "chain-min-dual": "ce185a32b8f573b486a1523e0eb869d5fb13f467351233d092d0b12e68c1db7d",
    "match-pref:row-major": "fca7c9764652f505bf367de536ad17152baa9036c3959b10c6c5b65b8de840db",
    "match-pref:col-major": "4aa8cd077d34a0998226f92e5d717edc81888a0a1c99b766931113dbccc678c6",
}


def golden_verdicts(name):
    op = resolve_operator(name)
    checks = (check_anon, check_dual, check_iim, check_mon, check_pos_resp,
              check_chain_min_scope, check_chain_def_scope)
    verdicts = [check(op, GOLDEN_SCOPE) for check in checks]
    verdicts.append(check_iim(op, Scope(), pairs=GOLDEN_IIM_PAIRS))
    for K in (EX2, TABLE1, CHAIN_DEF_IMPOSSIBILITY):
        verdicts += [check_chain_min(op, K), check_chain_def(op, K)]
    return verdicts


class TestGoldenVerdicts:
    @pytest.mark.parametrize("name", sorted(GOLDEN_VERDICT_DIGESTS))
    def test_verdicts_unchanged(self, name):
        verdicts = golden_verdicts(name)
        assert not all(v.holds for v in verdicts)
        digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()
        assert digest == GOLDEN_VERDICT_DIGESTS[name]
