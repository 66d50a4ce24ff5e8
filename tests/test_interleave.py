import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank import (
    ContractError,
    InputError,
    RankingPair,
    SelectionFunctionPair,
    TotalPreorder,
    Tournament,
    all_tournaments,
    chain_rankings,
    ci_selection,
    greedy_chain_tournament,
    hamming,
    has_chain_property,
    interleave,
    is_chain_definable,
    min_chain_distance,
    ranks_to_chain,
    rank_count,
    selection_from_rankings,
    take_everything_selection,
)
from chainrank.chain_edit import all_chain_tournaments

from helpers import EX2, TABLE1, greedy_chain_by_rounds, pair, preorder, random_tournament, recording

TABLE1_ROUNDS = [
    ({1, 2, 3, 4}, {1, 2, 3, 4, 5}, {1}, {1}),
    ({2, 3, 4}, {2, 3, 4, 5}, {3}, {3, 4}),
    ({2, 4}, {2, 5}, {2}, {5}),
    ({4}, {2}, {4}, {2}),
]


class TestTable1:
    def test_trace_reproduces_every_row(self):
        fg, rounds = recording(ci_selection())
        interleave(TABLE1, fg)
        assert rounds == TABLE1_ROUNDS

    def test_final_rankings(self):
        result = interleave(TABLE1, ci_selection())
        assert result == pair("4231", "25{34}1")

    def test_removal_rounds(self):
        fg, rounds = recording(ci_selection())
        interleave(TABLE1, fg)
        a_round = {a: i for i, (_, _, f_out, _) in enumerate(rounds) for a in f_out}
        b_round = {b: i for i, (_, _, _, g_out) in enumerate(rounds) for b in g_out}
        assert [a_round[a] for a in range(1, 5)] == [0, 2, 1, 3]
        assert [b_round[b] for b in range(1, 6)] == [0, 3, 1, 1, 2]


class TestCiSelection:
    def test_round0(self):
        fg = ci_selection()
        a = frozenset(range(1, 5))
        b = frozenset(range(1, 6))
        assert fg.f(TABLE1, a, b) == {1}
        assert fg.g(TABLE1, a, b) == {1}

    def test_round1_pools(self):
        fg = ci_selection()
        a = frozenset({2, 3, 4})
        b = frozenset({2, 3, 4, 5})
        assert fg.f(TABLE1, a, b) == {3}
        assert fg.g(TABLE1, a, b) == {3, 4}

    def test_all_ones_full_ties(self):
        K = Tournament.from_cells([[1, 1], [1, 1]])
        fg = ci_selection()
        assert fg.f(K, frozenset({1, 2}), frozenset({1, 2})) == {1, 2}
        assert fg.g(K, frozenset({1, 2}), frozenset({1, 2})) == {1, 2}

    def test_empty_pools_select_nothing(self):
        fg = ci_selection()
        assert fg.f(TABLE1, frozenset(), frozenset({1})) == frozenset()
        assert fg.g(TABLE1, frozenset({1}), frozenset()) == frozenset()


class TestInterleaveBasics:
    def test_take_everything_single_round(self):
        fg, rounds = recording(take_everything_selection())
        result = interleave(EX2, fg)
        assert len(rounds) == 1
        assert rank_count(result.a_order) == rank_count(result.b_order) == 1

    def test_1x1(self):
        fg, rounds = recording(ci_selection())
        result = interleave(Tournament.from_cells([[1]]), fg)
        assert result == pair("1", "1")
        assert rounds == [({1}, {1}, {1}, {1})]

    def test_contract_subset_violation(self):
        bad = SelectionFunctionPair(
            "bad",
            lambda K, a_rem, b_rem: {99},
            lambda K, a_rem, b_rem: b_rem,
        )
        with pytest.raises(ContractError, match="outside the remaining pool at round 0"):
            interleave(EX2, bad)

    def test_contract_empty_violation(self):
        bad = SelectionFunctionPair(
            "bad",
            lambda K, a_rem, b_rem: a_rem,
            lambda K, a_rem, b_rem: frozenset(),
        )
        with pytest.raises(ContractError, match="empty set while players remain"):
            interleave(EX2, bad)

    def test_contract_exhaustion_violation(self):
        # g empties B in round 0; from round 1 on f must take all of A
        bad = SelectionFunctionPair(
            "bad",
            lambda K, a_rem, b_rem: {min(a_rem)},
            lambda K, a_rem, b_rem: b_rem,
        )
        with pytest.raises(ContractError, match="once the other side is exhausted"):
            interleave(Tournament.from_cells([[1, 0], [0, 1], [1, 1]]), bad)

    def test_partition_invariant(self):
        fg, rounds = recording(ci_selection())
        interleave(TABLE1, fg)
        f_union, g_union = set(), set()
        for _, _, f_selected, g_selected in rounds:
            assert not (f_selected & f_union)
            assert not (g_selected & g_union)
            f_union |= f_selected
            g_union |= g_selected
        assert f_union == {1, 2, 3, 4}
        assert g_union == {1, 2, 3, 4, 5}


def batch_selection(k_rule_a: int, k_rule_b: int) -> SelectionFunctionPair:
    """Removes a deterministic non-empty batch of smallest labels per round."""

    def f(K, a_rem, b_rem):
        if not a_rem:
            return frozenset()
        if not b_rem:
            return a_rem
        size = 1 + (len(a_rem) + k_rule_a) % 2
        return frozenset(sorted(a_rem)[:size])

    def g(K, a_rem, b_rem):
        if not b_rem:
            return frozenset()
        if not a_rem:
            return b_rem
        size = 1 + (len(b_rem) + k_rule_b) % 3
        return frozenset(sorted(b_rem)[:size])

    return SelectionFunctionPair(f"batch-{k_rule_a}-{k_rule_b}", f, g)


SELECTIONS = [ci_selection(), take_everything_selection()] + [
    batch_selection(ka, kb) for ka in range(2) for kb in range(3)
]


class TestTerminationAndRankCounts:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 1),
        st.integers(0, 2),
        st.integers(0, 2**25 - 1),
    )
    def test_contract_selections_terminate_within_bound(self, m, n, ka, kb, bits):
        masks = tuple((bits >> (i * n)) & ((1 << n) - 1) for i in range(m))
        K = Tournament(m, n, masks)
        fg, rounds = recording(batch_selection(ka, kb))
        result = interleave(K, fg)
        assert len(rounds) <= max(m, n) + 1
        assert is_chain_definable(result)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**25 - 1))
    def test_ci_output_chain_definable(self, m, n, bits):
        masks = tuple((bits >> (i * n)) & ((1 << n) - 1) for i in range(m))
        result = interleave(Tournament(m, n, masks), ci_selection())
        assert is_chain_definable(result)

    def test_operation_ceiling_on_50x50(self):
        rng = random.Random(303)
        K = random_tournament(rng, 50, 50)
        fg, rounds = recording(ci_selection())
        interleave(K, fg)
        assert len(rounds) <= 100
        work = sum(len(a_pool) + len(b_pool) for a_pool, b_pool, _, _ in rounds)
        assert work <= (50 + 50) * (max(50, 50) + 1)


class TestChainDefinable:
    def test_table1_result(self):
        assert is_chain_definable(pair("4231", "25{34}1"))

    def test_rank_gap_of_two(self):
        p = RankingPair(preorder("1{23}4"), TotalPreorder.from_ranks([{1, 2}]))
        assert not is_chain_definable(p)

    def test_both_flat(self):
        p = RankingPair(
            TotalPreorder.from_ranks([{1, 2}]), TotalPreorder.from_ranks([{1, 2, 3}])
        )
        assert is_chain_definable(p)


class TestRanksToChain:
    def test_both_flat_gives_all_ones(self):
        p = RankingPair(
            TotalPreorder.from_ranks([{1, 2}]), TotalPreorder.from_ranks([{1, 2}])
        )
        K = ranks_to_chain(p)
        assert K.cells == ((1, 1), (1, 1))
        assert chain_rankings(K) == p

    def test_extra_a_rank_starts_empty(self):
        p = RankingPair(preorder("12"), TotalPreorder.from_ranks([{1}]))
        K = ranks_to_chain(p)
        assert K.cells == ((0,), (1,))
        assert chain_rankings(K) == p

    def test_round_trip_from_chain(self):
        p = chain_rankings(Tournament.from_cells([[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]]))
        K = ranks_to_chain(p)
        assert has_chain_property(K)
        assert chain_rankings(K) == p

    def test_round_trip_all_small_chains(self):
        for m, n in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
            for C in all_chain_tournaments(m, n):
                p = chain_rankings(C)
                assert chain_rankings(ranks_to_chain(p)) == p

    def test_one_rank_fewer_on_a_takes_the_weakest_i_column_ranks(self):
        # s = t - 1: the i-th weakest A-rank gets the weakest i B-ranks, where
        # the greedy chain of an interleaving with these ranks gives it i + 1
        p = pair("12", "{13}24")
        K = ranks_to_chain(p)
        assert K.cells == ((1, 0, 1, 0), (1, 1, 1, 0))
        assert chain_rankings(K) == p

    def test_rejects_rank_gap(self):
        p = RankingPair(preorder("1{23}4"), TotalPreorder.from_ranks([{1, 2}]))
        with pytest.raises(InputError, match="differ by more than one"):
            ranks_to_chain(p)

    @pytest.mark.parametrize("a, b, message", [
        ("1{24}", "12", "A-side players must be labelled 1..m"),
        ("12", "{02}", "B-side players must be labelled 1..n"),
    ])
    def test_rejects_players_not_labelled_from_one(self, a, b, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            ranks_to_chain(RankingPair(preorder(a), preorder(b)))

    def test_interleave_output_always_realisable(self):
        for K in all_tournaments(2, 3):
            result = interleave(K, ci_selection())
            realised = ranks_to_chain(result)
            assert chain_rankings(realised) == result


class TestSelectionFromRankings:
    def test_table1_round_trip(self):
        stored = pair("4231", "25{34}1")
        fg = selection_from_rankings({TABLE1: stored})
        result = interleave(TABLE1, fg)
        assert result == stored

    def test_flat_rankings_one_round(self):
        stored = RankingPair(
            TotalPreorder.from_ranks([{1, 2, 3}]), TotalPreorder.from_ranks([{1, 2, 3, 4}])
        )
        fg, rounds = recording(selection_from_rankings({EX2: stored}))
        result = interleave(EX2, fg)
        assert result == stored
        assert len(rounds) == 1

    def test_example2_to_example5_rankings(self):
        stored = pair("123", "{13}24")
        fg = selection_from_rankings({EX2: stored})
        result = interleave(EX2, fg)
        assert result == stored

    def test_round_trip_when_either_side_has_one_rank_more(self):
        # the side with fewer ranks runs out first, and then selects nothing
        counts = set()
        for m, n in ((2, 3), (3, 2)):
            for K in filter(has_chain_property, all_tournaments(m, n)):
                stored = chain_rankings(K)
                counts.add(rank_count(stored.b_order) - rank_count(stored.a_order))
                assert interleave(K, selection_from_rankings({K: stored})) == stored
        assert counts == {-1, 0, 1}

    def test_rejects_non_chain_definable(self):
        bad = RankingPair(preorder("1{23}4"), TotalPreorder.from_ranks([{1, 2}]))
        with pytest.raises(InputError, match="not chain-definable"):
            selection_from_rankings({IMPOSS: bad})

    def test_unknown_tournament_falls_back_flat(self):
        fg, rounds = recording(selection_from_rankings({TABLE1: pair("4231", "25{34}1")}))
        result = interleave(EX2, fg)
        assert len(rounds) == 1
        assert rank_count(result.a_order) == 1


IMPOSS = Tournament.from_cells([[0, 0], [0, 1], [1, 0], [1, 1]])


class TestGreedyChain:
    def test_table1_greedy_cost_exceeds_minimum(self):
        greedy = greedy_chain_tournament(TABLE1, ci_selection())
        assert has_chain_property(greedy)
        assert hamming(TABLE1, greedy) == 3
        assert min_chain_distance(TABLE1) == 2

    def test_greedy_realises_the_a_ranking(self):
        result = interleave(TABLE1, ci_selection())
        greedy = greedy_chain_tournament(TABLE1, ci_selection())
        assert chain_rankings(greedy).a_order == result.a_order

    def test_greedy_on_chain_input_is_lossless_for_ranks(self):
        K = Tournament.from_cells([[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]])
        greedy = greedy_chain_tournament(K, ci_selection())
        assert chain_rankings(greedy).a_order == chain_rankings(K).a_order

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**36 - 1), st.sampled_from(SELECTIONS))
    def test_equals_the_rule_over_rounds(self, m, n, bits, fg):
        # read off the ranks, each A-rank gets the B pool of the round that removed it
        K = Tournament(m, n, tuple((bits >> (i * n)) & ((1 << n) - 1) for i in range(m)))
        assert greedy_chain_tournament(K, fg) == greedy_chain_by_rounds(K, fg)
