import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank import (
    InputError,
    NotChainError,
    TotalPreorder,
    Tournament,
    all_tournaments,
    chain_rankings,
    co_neighborhood,
    dual,
    hamming,
    has_chain_property,
    min_chain_set,
    neighborhood,
    permute,
    phi_count,
    rank_count,
    xor,
)
from chainrank.chain_edit import all_chain_tournaments
from chainrank.core import canonical_key, chain_violation

from helpers import (
    EX1,
    EX2,
    IMPOSS_K,
    K4,
    TABLE1,
    chain_violation_by_pairs,
    chains_by_definition,
    pair,
    preorder,
    random_tournament,
)


def small_tournaments():
    return st.integers(1, 4).flatmap(
        lambda m: st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.integers(0, (1 << n) - 1), min_size=m, max_size=m
            ).map(lambda rows: Tournament(m, n, tuple(rows)))
        )
    )


class TestTournament:
    def test_list_of_masks_stored_as_tuple(self):
        K = Tournament(2, 2, [1, 2])
        assert K == Tournament(2, 2, (1, 2))
        assert hash(K) == hash(Tournament(2, 2, (1, 2)))
        assert {K, Tournament(2, 2, (1, 2))} == {K}
        assert min_chain_set(K).distance == 1

    def test_all_tournaments_in_canonical_order(self):
        for m, n in itertools.product(range(1, 13), repeat=2):
            if m * n <= 12:
                keys = [canonical_key(K) for K in all_tournaments(m, n)]
                assert len(keys) == 1 << (m * n)
                assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))

    def test_canonical_key_orders_same_size_by_cells(self):
        # against the definition, not all_tournaments, which reads the same key:
        # tournaments of one size compare by their cells, row by row
        def check(K1, K2):
            assert (canonical_key(K1) < canonical_key(K2)) == (K1.cells < K2.cells)
            assert (canonical_key(K2) < canonical_key(K1)) == (K2.cells < K1.cells)

        tournaments = [Tournament(2, 3, masks) for masks in itertools.product(range(8), repeat=2)]
        for K1, K2 in itertools.product(tournaments, repeat=2):
            check(K1, K2)
        rng = random.Random(29)
        for n in range(1, 96):
            for _ in range(4):
                K = random_tournament(rng, 3, n)
                a, b = rng.randint(1, 3), rng.randint(1, n)
                # one flipped cell: the first difference may lie in any column
                check(K, K.with_cell(a, b, 1 - K.cell(a, b)))
                check(K, random_tournament(rng, 3, n))


class TestNeighborhoods:
    def test_example_row(self):
        assert neighborhood(EX1, 2) == {1, 2}

    def test_empty_row(self):
        K = Tournament.from_cells([[0, 0], [0, 0]])
        assert neighborhood(K, 1) == frozenset()

    def test_example2_row(self):
        assert neighborhood(EX2, 3) == {2, 3, 4}

    def test_out_of_range(self):
        with pytest.raises(InputError):
            neighborhood(EX1, 4)

    def test_co_neighborhood_columns(self):
        assert co_neighborhood(EX1, 1) == {1, 2, 3}
        assert co_neighborhood(EX1, 3) == {3}

    def test_co_neighborhood_full_column(self):
        K = Tournament.from_cells([[1, 1], [1, 1], [1, 1]])
        assert co_neighborhood(K, 2) == {1, 2, 3}

    def test_co_neighborhood_out_of_range(self):
        with pytest.raises(InputError):
            co_neighborhood(EX1, 5)


class TestChainProperty:
    def test_example1_is_chain(self):
        assert has_chain_property(EX1)

    def test_example2_is_not(self):
        assert not has_chain_property(EX2)

    def test_single_row_always_chain(self):
        for K in all_tournaments(1, 3):
            assert has_chain_property(K)

    def test_agrees_with_pairwise_and_column_duality(self):
        # the row-side definition, the column-side definition via reversed
        # inclusion of co-neighbourhoods, and the implementation must agree
        for K in all_tournaments(3, 3):
            rows_nested = all(
                neighborhood(K, a) <= neighborhood(K, a2)
                or neighborhood(K, a2) <= neighborhood(K, a)
                for a, a2 in itertools.combinations(range(1, 4), 2)
            )
            cols_nested = all(
                co_neighborhood(K, b) <= co_neighborhood(K, b2)
                or co_neighborhood(K, b2) <= co_neighborhood(K, b)
                for b, b2 in itertools.combinations(range(1, 4), 2)
            )
            assert has_chain_property(K) == rows_nested == cols_nested

    def test_violation_matches_pairwise_scan_exhaustive(self):
        # the first pair, which NotChainError names, as well as the verdict
        for m, n in itertools.product(range(1, 5), repeat=2):
            for K in all_tournaments(m, n):
                assert chain_violation(K) == chain_violation_by_pairs(K)

    def test_violation_matches_pairwise_scan_seeded(self):
        rng = random.Random(77)
        for _ in range(300):
            m, n = rng.randint(1, 60), rng.randint(1, 6)
            if rng.random() < 0.5:  # a chain, perhaps with one row spoiled
                prefix = [(1 << j) - 1 for j in range(n + 1)]
                K = Tournament(m, n, tuple(rng.choice(prefix) for _ in range(m)))
                if rng.random() < 0.5:
                    K = K.with_cell(rng.randint(1, m), rng.randint(1, n), rng.randint(0, 1))
            else:
                K = random_tournament(rng, m, n)
            assert chain_violation(K) == chain_violation_by_pairs(K)


class TestChainRankings:
    def test_example1(self):
        assert chain_rankings(EX1) == pair("123", "12{34}")

    def test_all_ones_flat(self):
        K = Tournament.from_cells([[1, 1], [1, 1]])
        got = chain_rankings(K)
        assert got == pair("{12}", "{12}")

    def test_k4_of_example2(self):
        assert chain_rankings(K4) == pair("123", "{13}24")

    def test_non_chain_names_violating_rows(self):
        with pytest.raises(NotChainError, match="rows 1 and 2"):
            chain_rankings(EX2)

    def test_dual_order_law(self):
        # the B order of a chain tournament is the A order of its dual
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            for K in all_chain_tournaments(m, n):
                assert chain_rankings(K).b_order == chain_rankings(dual(K)).a_order

    def test_inclusion_order_on_every_small_chain(self):
        # rows by neighbourhood inclusion, columns by reversed co-neighbourhood
        # inclusion, and both are the win-count rankings
        for K, N, coN in chains_by_definition():
            got = chain_rankings(K)
            for a in N:
                for a2 in N:
                    assert got.a_order.le(a, a2) == (N[a] <= N[a2])
            for b in coN:
                for b2 in coN:
                    assert got.b_order.le(b, b2) == (coN[b] >= coN[b2])
            assert got == phi_count(K)


class TestDual:
    def test_forced_by_definition(self):
        assert dual(Tournament.from_cells([[1, 0], [0, 1]])).cells == ((0, 1), (1, 0))

    def test_impossibility_matrix(self):
        assert dual(IMPOSS_K).cells == ((1, 1, 0, 0), (1, 0, 1, 0))

    def test_all_zeros(self):
        K = Tournament.from_cells([[0, 0, 0], [0, 0, 0]])
        assert dual(K).cells == ((1, 1), (1, 1), (1, 1))

    def test_involution_exhaustive(self):
        for m, n in [(1, 1), (2, 2), (2, 3), (3, 3)]:
            for K in all_tournaments(m, n):
                assert dual(dual(K)) == K

    @settings(max_examples=60, deadline=None)
    @given(small_tournaments())
    def test_involution_random(self, K):
        assert dual(dual(K)) == K


class TestPermute:
    def test_swap_both_on_diagonal(self):
        K = Tournament.from_cells([[1, 0], [0, 1]])
        assert permute(K, (2, 1), (2, 1)) == K

    def test_identity(self):
        assert permute(EX2, (1, 2, 3), (1, 2, 3, 4)) == EX2

    def test_row_swap_only(self):
        K = Tournament.from_cells([[1, 0], [0, 1]])
        assert permute(K, (2, 1), None).cells == ((0, 1), (1, 0))

    def test_non_bijection_rejected(self):
        with pytest.raises(InputError):
            permute(EX1, (1, 1, 2), None)

    @settings(max_examples=40, deadline=None)
    @given(small_tournaments(), st.randoms(use_true_random=False))
    def test_composition(self, K, rnd):
        sigma = list(range(1, K.rows + 1))
        pi = list(range(1, K.cols + 1))
        rnd.shuffle(sigma)
        rnd.shuffle(pi)
        both = permute(K, tuple(sigma), tuple(pi))
        assert permute(permute(K, tuple(sigma), None), None, tuple(pi)) == both


class TestHamming:
    def test_example2_distance(self):
        assert hamming(EX2, Tournament.from_cells([[1, 1, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]])) == 2

    def test_self_distance(self):
        assert hamming(EX2, EX2) == 0

    def test_all_cells_differ(self):
        zeros = Tournament.from_cells([[0] * 4] * 3)
        ones = Tournament.from_cells([[1] * 4] * 3)
        assert hamming(zeros, ones) == 12

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            hamming(EX1, TABLE1)

    def test_metric_on_2x2(self):
        space = list(all_tournaments(2, 2))
        for K in space:
            assert hamming(K, K) == 0
        for K, K2 in itertools.combinations(space, 2):
            assert hamming(K, K2) == hamming(K2, K) > 0
        for K, K2, K3 in itertools.product(space, repeat=3):
            assert hamming(K, K3) <= hamming(K, K2) + hamming(K2, K3)


class TestPreorders:
    def test_rank_count_table1_result(self):
        assert rank_count(preorder("4231")) == 4

    def test_flat(self):
        assert rank_count(TotalPreorder.from_ranks([{1, 2, 3, 4, 5}])) == 1

    def test_example5_b_side(self):
        assert rank_count(preorder("{13}24")) == 3

    def test_rank_validation(self):
        with pytest.raises(InputError):
            TotalPreorder.from_ranks([{1}, set()])
        with pytest.raises(InputError):
            TotalPreorder.from_ranks([{1}, {1, 2}])

    def test_comparisons(self):
        p = preorder("1{23}4")
        assert p.le(1, 2) and p.tied(2, 3) and p.strictly_below(3, 4)
        assert not p.le(4, 1)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Tournament.from_cells([])
        with pytest.raises(InputError):
            Tournament(0, 2, ())

    def test_rejects_non_binary(self):
        with pytest.raises(InputError):
            Tournament.from_cells([[0, 2]])

    def test_rejects_ragged(self):
        with pytest.raises(InputError):
            Tournament.from_cells([[0, 1], [1]])

    def test_xor_marks_differences(self):
        d = xor(EX2, K4)
        assert d.cells == ((0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0))

    def test_table1_shape(self):
        assert (TABLE1.rows, TABLE1.cols) == (4, 5)
