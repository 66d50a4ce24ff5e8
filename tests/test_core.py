import itertools
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
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
from chainrank.core import canonical_key, chain_violation, labels_of, mask_of

from helpers import (
    EX1,
    EX2,
    IMPOSS_K,
    K4,
    TABLE1,
    cells_by_shifts,
    chain_violation_by_pairs,
    chains_by_definition,
    col_masks_by_bits,
    from_cells_by_cells,
    labels_of_by_bits,
    mask_of_by_bits,
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


# cells other than the integers 0 and 1: some equal to them, some bytes that
# would spell a digit, some not numbers at all
ODD_CELLS = [True, False, 1.0, 0.0, 2, -1, 48, 49, 255, 256, 1 << 64, "1", None, [1]]


@st.composite
def cell_rows(draw):
    """Up to four rows of one length, short or long, and up to two faults: an
    odd cell anywhere, or a row one cell shorter or longer."""
    n = draw(st.sampled_from([1, 2, 7, 8, 9, 64, 1000]))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
    rows = [list(map(int, format(mask, f"0{n}b"))) for mask in masks]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if row and draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif not row or draw(st.booleans()):
            row.append(draw(st.sampled_from([0, 1])))
        else:
            row.pop()
    return [tuple(row) if draw(st.booleans()) else row for row in rows]


class TestTournament:
    def test_list_of_masks_stored_as_tuple(self):
        K = Tournament(2, 2, [1, 2])
        assert K == Tournament(2, 2, (1, 2))
        assert hash(K) == hash(Tournament(2, 2, (1, 2)))
        assert {K, Tournament(2, 2, (1, 2))} == {K}
        assert min_chain_set(K).distance == 1

    def test_row_counts_is_a_view_not_a_field(self):
        # equality, hashing and repr are those of (rows, cols, row_masks)
        # whether or not either tournament has built its view
        masks = (5, 1, 5, 0, 1, 5)
        K, K2 = Tournament(6, 3, masks), Tournament._unchecked(6, 3, masks)
        for build in (None, K, K2):
            if build is not None:
                assert build.row_counts is build.row_counts
            assert K == K2 and hash(K) == hash(K2) and repr(K) == repr(K2)
            assert {K, K2} == {K}
        assert repr(K) == "Tournament(rows=6, cols=3, row_masks=(5, 1, 5, 0, 1, 5))"
        assert list(K.row_counts.items()) == [(5, 3), (1, 2), (0, 1)]
        with pytest.raises(TypeError):
            K.row_counts[0] = 2  # read-only: every reader shares it

    @settings(max_examples=200, deadline=None)
    @given(small_tournaments())
    def test_row_counts_lists_distinct_rows_by_first_appearance(self, K):
        assert list(K.row_counts) == list(dict.fromkeys(K.row_masks))
        assert all(K.row_masks.count(mask) == k for mask, k in K.row_counts.items())
        assert sum(K.row_counts.values()) == K.rows

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


class TestBitMasks:
    """col_masks, cells, mask_of and labels_of against one-bit-at-a-time loops."""

    SHAPES = [(1, 1), (1, 9), (1, 40), (9, 1), (40, 1), (7, 40), (3000, 3)]

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_against_bit_loops(self, m, n):
        rng = random.Random(m * 1000 + n)
        full = (1 << n) - 1
        inputs = [
            Tournament(m, n, (0,) * m),
            Tournament(m, n, (full,) * m),
            Tournament(m, n, tuple(rng.choice((0, full)) for _ in range(m))),
            *(random_tournament(rng, m, n) for _ in range(3)),
        ]
        for K in inputs:
            assert K.col_masks == col_masks_by_bits(K)
            for masks, size in ((K.row_masks, n), (K.col_masks, m)):
                for mask in masks:
                    labels = labels_of(mask)
                    assert labels == labels_of_by_bits(mask)
                    assert labels <= frozenset(range(1, size + 1))
                    assert mask_of(labels) == mask_of_by_bits(labels) == mask
                    assert mask_of(iter(sorted(labels))) == mask

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 150), st.data())
    def test_cells_against_shifts(self, m, n, data):
        # rows up to 150 columns, past one machine word as the exam's transpose is
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
        K = Tournament(m, n, tuple(masks))
        assert K.cells == cells_by_shifts(K)

    def test_labels_seeded(self):
        rng = random.Random(35)
        for _ in range(200):
            top = rng.randint(0, 300)
            labels = [rng.randint(1, top) for _ in range(rng.randint(0, 12))] if top else []
            mask = mask_of(labels)  # repeated labels set one bit
            assert mask == mask_of_by_bits(labels)
            assert labels_of(mask) == labels_of_by_bits(mask) == frozenset(labels)

    @pytest.mark.parametrize("labels", [[0], [-1], [3, 0], [2, -4], [1, 5, -7]])
    def test_label_below_one_raises(self, labels):
        with pytest.raises(ValueError):
            mask_of_by_bits(labels)
        # an index into the bit string must not set its leading pad bit
        with pytest.raises(IndexError):
            mask_of(labels)


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

    def test_non_chain_verdict_scans_no_pairs(self):
        # a chain but for one incomparable pair at the end: a scan of row
        # pairs would take minutes here
        code = (
            "from chainrank import Tournament, has_chain_property\n"
            "assert not has_chain_property(Tournament(100000, 2, (0, 3) * 49999 + (1, 2)))"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=30)

    def test_violation_named_in_linear_time(self):
        # the same input: the first incomparable pair is the last two rows,
        # which a scan of row pairs in index order reaches only after minutes
        code = (
            "from chainrank import NotChainError, Tournament, chain_rankings\n"
            "from chainrank.core import chain_violation\n"
            "K = Tournament(100000, 2, (0, 3) * 49999 + (1, 2))\n"
            "assert chain_violation(K) == (99999, 100000)\n"
            "try:\n"
            "    chain_rankings(K)\n"
            "except NotChainError as e:\n"
            "    message = str(e)\n"
            "assert message == 'rows 99999 and 100000 have incomparable neighbourhoods; not a chain tournament'\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=30)


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

    def test_unranked_player(self):
        with pytest.raises(InputError, match="^player 5 is not ranked$"):
            preorder("1{23}4").rank_of(5)


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

    @settings(max_examples=300, deadline=None)
    @given(cell_rows())
    @example([[48, 49]])  # bytes that spell the digits "0" and "1"
    @example([[1, 0, 1], [True, 1.0, False], (0, 0, 1)])
    @example([[0] * 100_000 + [1], [1] + [0] * 100_000])
    @example([[0, 1], [1, 2], [1]])  # the first fault in row order is reported
    def test_from_cells_matches_reading_cell_by_cell(self, rows):
        try:
            expected = from_cells_by_cells(rows)
        except InputError as exc:
            with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                Tournament.from_cells(rows)
        else:
            assert Tournament.from_cells(rows) == expected

    def test_xor_marks_differences(self):
        d = xor(EX2, K4)
        assert d.cells == ((0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0))

    def test_table1_shape(self):
        assert (TABLE1.rows, TABLE1.cols) == (4, 5)
