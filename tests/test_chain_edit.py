import collections
import heapq
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainrank import (
    AmbiguityError,
    InputError,
    MinChainSet,
    ResourceCapError,
    Tournament,
    all_tournaments,
    chain_completion,
    chain_deletion,
    dual,
    hamming,
    has_chain_property,
    min_chain_distance,
    min_chain_set,
    monotone_min_chain,
    neighborhood,
    permute,
    swap_rows,
    weighted_min_chain,
)
from chainrank import chain_edit
from chainrank.chain_edit import _expand, _rows, _search, all_chain_tournaments
from chainrank.picks import least_member
from chainrank.core import canonical_key, dual
from chainrank.match_pref import MatchPreference, weights_for
from chainrank.match_pref import select_match_pref
from chainrank.prob_model import NoiseParams, _mle_costs, mle_search, sample_state, sample_tournament

from helpers import (
    ANON_K,
    EX1,
    EX2,
    EX2_MINCH,
    TABLE1,
    brute_force_min_chain,
    canonical_min_oracle,
    match_pref_oracle,
    monotone_oracle,
    ordering_argmins,
    permutation_search,
    planted_chain,
    random_tournament,
    subset_of,
    superset_of,
    transpose,
    two_patterns,
    weighted_distance,
)

ANON_FLIPS = tuple(
    sorted(
        (
            Tournament.from_cells([[1, 1], [0, 1]]),
            Tournament.from_cells([[1, 0], [1, 1]]),
            Tournament.from_cells([[1, 0], [0, 0]]),
            Tournament.from_cells([[0, 0], [0, 1]]),
        ),
        key=canonical_key,
    )
)


class TestMinChainSet:
    def test_example2_reproduces_reference_set(self):
        result = min_chain_set(EX2)
        assert result.distance == 2
        assert set(result.members) == set(EX2_MINCH)

    def test_chain_is_its_own_optimum(self):
        result = min_chain_set(EX1)
        assert result.distance == 0
        assert result.members == (EX1,)

    def test_anonymity_counterexample_four_flips(self):
        result = min_chain_set(ANON_K)
        assert result.distance == 1
        assert result.members == ANON_FLIPS

    def test_members_sorted_canonically(self):
        members = min_chain_set(EX2).members
        assert list(members) == sorted(members, key=canonical_key)

    def test_cap_exceeded(self):
        big = Tournament.from_cells([[0] * 9 for _ in range(9)])
        with pytest.raises(ResourceCapError):
            min_chain_set(big)
        with pytest.raises(ResourceCapError):
            min_chain_set(EX2, cap=2)


class TestMinChainDistance:
    def test_example2(self):
        assert min_chain_distance(EX2) == 2

    def test_chain(self):
        assert min_chain_distance(EX1) == 0

    def test_table1(self):
        assert min_chain_distance(TABLE1) == 2

    def test_matches_set_distance_on_random(self):
        rng = random.Random(7)
        for _ in range(25):
            K = random_tournament(rng, 3, 4)
            assert min_chain_distance(K) == min_chain_set(K).distance

    def test_beyond_member_cap(self):
        # 17 rows 1,0 and 17 rows 0,1: either ordering lets each of one
        # kind of row pick two prefixes, 2 * 2^17 combinations
        K = Tournament.from_cells([[1, 0]] * 17 + [[0, 1]] * 17)
        for L in (K, dual(K)):
            assert min_chain_distance(L) == 17
            with pytest.raises(ResourceCapError, match="262144 members"):
                min_chain_set(L)


class TestBruteForceOracle:
    def test_example2(self):
        result = brute_force_min_chain(EX2)
        assert result.distance == 2
        assert set(result.members) == set(EX2_MINCH)

    def test_anon_counterexample(self):
        assert brute_force_min_chain(ANON_K).members == ANON_FLIPS

    def test_one_row_is_chain(self):
        K = Tournament.from_cells([[1, 0, 1]])
        result = brute_force_min_chain(K)
        assert result.distance == 0 and result.members == (K,)

    def test_size_limit(self):
        with pytest.raises(ResourceCapError):
            brute_force_min_chain(TABLE1)

    def test_oracle_agreement_exhaustive(self):
        for m, n in [(2, 2), (2, 3)]:
            for K in all_tournaments(m, n):
                assert min_chain_set(K) == brute_force_min_chain(K)

    def test_oracle_agreement_random(self):
        rng = random.Random(2026)
        for _ in range(20):
            K = random_tournament(rng, 3, rng.choice([3, 4]))
            assert min_chain_set(K) == brute_force_min_chain(K)


class TestDualAndPermutationLaws:
    def test_dual_correspondence_exhaustive(self):
        for m, n in [(2, 2), (2, 3)]:
            for K in all_tournaments(m, n):
                mapped = sorted((dual(M) for M in min_chain_set(K).members), key=canonical_key)
                assert tuple(mapped) == min_chain_set(dual(K)).members

    def test_permutation_equivariance_sampled(self):
        rng = random.Random(11)
        for _ in range(15):
            K = random_tournament(rng, 3, 3)
            sigma = [1, 2, 3]
            pi = [1, 2, 3]
            rng.shuffle(sigma)
            rng.shuffle(pi)
            mapped = sorted(
                (permute(M, tuple(sigma), tuple(pi)) for M in min_chain_set(K).members),
                key=canonical_key,
            )
            assert tuple(mapped) == min_chain_set(permute(K, tuple(sigma), tuple(pi))).members


class TestSwap:
    def test_swap_example(self):
        got = swap_rows(EX1, 1, 3)
        assert got.cells == ((1, 1, 1, 1), (1, 1, 0, 0), (1, 0, 0, 0))

    def test_swap_self_and_twice(self):
        assert swap_rows(EX2, 2, 2) == EX2
        assert swap_rows(swap_rows(EX2, 1, 3), 1, 3) == EX2

    def test_bad_label(self):
        with pytest.raises(InputError):
            swap_rows(EX2, 0, 1)

    def test_row_swap_preserves_optimality(self):
        # if K(a1) <= K(a2) but an optimum reverses them, swapping the rows
        # of the optimum yields another optimum
        spaces = [list(all_tournaments(2, 2)), list(all_tournaments(2, 3))]
        rng = random.Random(5)
        spaces.append([random_tournament(rng, 3, 3) for _ in range(12)])
        for space in spaces:
            for K in space:
                result = min_chain_set(K)
                opt = set(result.members)
                for a1, a2 in itertools.permutations(range(1, K.rows + 1), 2):
                    if not neighborhood(K, a1) <= neighborhood(K, a2):
                        continue
                    for M in result.members:
                        if neighborhood(M, a2) <= neighborhood(M, a1):
                            assert swap_rows(M, a1, a2) in opt


class TestMonotone:
    def test_chain_fixed_point(self):
        assert monotone_min_chain(EX1) == EX1

    def test_already_chain_after_check(self):
        K = Tournament.from_cells([[1, 1], [1, 0]])
        assert has_chain_property(K)
        assert monotone_min_chain(K) == K

    def test_example2_selection_is_canonical_least_qualifier(self):
        members = min_chain_set(EX2).members

        def extends(M):
            return all(
                neighborhood(M, a) <= neighborhood(M, a2)
                for a in range(1, 4)
                for a2 in range(1, 4)
                if a != a2 and neighborhood(EX2, a) <= neighborhood(EX2, a2)
            )

        qualifying = [M for M in members if extends(M)]
        assert monotone_min_chain(EX2) == qualifying[0]

    def test_matches_pairwise_filter_exhaustive(self):
        for m, n in [(2, 2), (2, 3), (3, 2)]:
            for K in all_tournaments(m, n):
                assert monotone_min_chain(K) == monotone_oracle(K)

    def test_matches_pairwise_filter_seeded_6x6(self):
        rng = random.Random(66)
        for _ in range(40):
            K = random_tournament(rng, 6, 6)
            assert monotone_min_chain(K) == monotone_oracle(K)

    def test_output_extends_source_order(self):
        for m, n in [(2, 2), (2, 3)]:
            for K in all_tournaments(m, n):
                M = monotone_min_chain(K)
                assert M in min_chain_set(K).members
                for a, a2 in itertools.permutations(range(1, m + 1), 2):
                    if neighborhood(K, a) <= neighborhood(K, a2):
                        assert neighborhood(M, a) <= neighborhood(M, a2)

    def test_canonical_least_member_qualifies(self):
        # the oracles alone: the first member in canonical order always keeps
        # every row inclusion, which is why the pick never filters
        for m, n in [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (5, 2)]:
            for K in all_tournaments(m, n):
                assert monotone_oracle(K) == canonical_min_oracle(K)

    def test_matches_pairwise_filter_wide_exhaustive(self):
        # wide inputs are solved as their dual, each dual row at its largest argmin
        for m, n in [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4)]:
            for K in all_tournaments(m, n):
                assert monotone_min_chain(K) == monotone_oracle(K)

    def test_matches_pairwise_filter_seeded_tall_and_wide(self):
        rng = random.Random(67)
        checked = 0
        for _ in range(200):
            small, large = rng.randint(1, 7), rng.randint(1, 10)
            m, n = (small, large) if rng.random() < 0.5 else (large, small)
            K = random_tournament(rng, m, n)
            try:
                expected = monotone_oracle(K)
            except ResourceCapError:  # the oracle lists the optimum set
                continue
            assert monotone_min_chain(K) == expected
            checked += 1
        assert checked > 150

    def test_picks_beyond_member_cap_without_expanding(self, monkeypatch):
        rng = random.Random(68)
        inputs = []
        while len(inputs) < 12:
            m, n = (7, 3) if len(inputs) % 2 else (3, 7)
            K = random_tournament(rng, m, n)
            if len(min_chain_set(K).members) >= 4:
                inputs.append(K)
        expected = [monotone_oracle(K) for K in inputs]
        monkeypatch.setattr(chain_edit, "MEMBER_CAP", 2)

        def refuse(*args):
            raise AssertionError("the monotone pick expanded the optimum set")

        monkeypatch.setattr(chain_edit, "_expand", refuse)
        monkeypatch.setattr(chain_edit, "_optimum", refuse)
        assert [monotone_min_chain(K) for K in inputs] == expected


class TestCompletionDeletion:
    def test_chain_fixed_points(self):
        for op in (chain_completion, chain_deletion):
            result = op(EX1)
            assert result.distance == 0 and result.members == (EX1,)

    def test_completion_of_diagonal(self):
        result = chain_completion(ANON_K)
        assert result.distance == 1
        assert result == brute_force_min_chain(ANON_K, superset_of(ANON_K))
        assert set(result.members) == {
            Tournament.from_cells([[1, 1], [0, 1]]),
            Tournament.from_cells([[1, 0], [1, 1]]),
        }

    def test_deletion_of_diagonal(self):
        result = chain_deletion(ANON_K)
        assert result.distance == 1
        assert set(result.members) == {
            Tournament.from_cells([[1, 0], [0, 0]]),
            Tournament.from_cells([[0, 0], [0, 1]]),
        }

    def test_against_restricted_oracle_exhaustive(self):
        # 2x3 exercises the dualised search orientation, 3x2 the direct one
        for m, n in [(2, 3), (3, 2)]:
            for K in all_tournaments(m, n):
                assert chain_completion(K) == brute_force_min_chain(K, superset_of(K))
                assert chain_deletion(K) == brute_force_min_chain(K, subset_of(K))

    def test_members_respect_direction_random(self):
        rng = random.Random(3)
        for _ in range(10):
            K = random_tournament(rng, 3, 4)
            for M in chain_completion(K).members:
                assert has_chain_property(M)
                assert all(k & m == k for k, m in zip(K.row_masks, M.row_masks))
            for M in chain_deletion(K).members:
                assert has_chain_property(M)
                assert all(m & k == m for k, m in zip(K.row_masks, M.row_masks))


class TestWeighted:
    def test_example5_weights_select_k4(self):
        pref = MatchPreference.row_major()
        got = weighted_min_chain(EX2, weights_for(pref, 3, 4))
        assert got == EX2_MINCH[3]

    def test_chain_any_weights(self):
        weights = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]]
        assert weighted_min_chain(EX1, weights) == EX1

    def test_diagonal_with_descending_weights(self):
        # brute-force weighted search over all 2^4 candidates picks the
        # cheapest single repair, the bottom-right flip
        weights = [[8, 4], [2, 1]]
        best = None
        argmin = []
        for cand in all_tournaments(2, 2):
            if not has_chain_property(cand):
                continue
            d = weighted_distance(ANON_K, cand, weights)
            if best is None or d < best:
                best, argmin = d, [cand]
            elif d == best:
                argmin.append(cand)
        assert argmin == [Tournament.from_cells([[1, 0], [0, 0]])]
        assert weighted_min_chain(ANON_K, weights) == argmin[0]

    def test_ties_raise_ambiguity(self):
        with pytest.raises(AmbiguityError):
            weighted_min_chain(ANON_K, [[1, 1], [1, 1]])

    def test_wide_ambiguity_lists_members_canonically(self):
        K = Tournament.from_cells([[1, 0, 0], [0, 1, 0]])
        listing = ("((0, 0, 0), (0, 1, 0)); ((1, 0, 0), (0, 0, 0)); "
                   "((1, 0, 0), (1, 1, 0)); ((1, 1, 0), (0, 1, 0))")
        with pytest.raises(AmbiguityError) as info:
            weighted_min_chain(K, [[1, 1, 1], [1, 1, 1]])
        assert str(info.value) == f"weighted argmin is not unique: {listing}"

    def test_wide_input_and_its_dual_share_one_search(self, monkeypatch):
        K = random_tournament(random.Random(5), 3, 5)
        weights = weights_for(MatchPreference.col_major(), 3, 5)
        calls = []
        search = chain_edit._search
        monkeypatch.setattr(chain_edit, "_search", lambda *a: calls.append(a) or search(*a))
        chain_edit._solve.cache_clear()
        M = weighted_min_chain(K, weights)
        assert weighted_min_chain(dual(K), [list(col) for col in zip(*weights)]) == dual(M)
        assert len(calls) == 1
        assert M == select_match_pref(K, MatchPreference.col_major())

    def test_rejects_non_integer_weights(self):
        with pytest.raises(InputError):
            weighted_min_chain(ANON_K, [[1.5, 1], [1, 1]])
        with pytest.raises(InputError):
            weighted_min_chain(ANON_K, [[0, 1], [1, 1]])

    def test_matches_match_pref_selection(self):
        pref = MatchPreference.col_major()
        for K in all_tournaments(2, 3):
            assert weighted_min_chain(K, weights_for(pref, 2, 3)) == select_match_pref(K, pref)


class TestChainEnumeration:
    def test_matches_filtered_enumeration(self):
        for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            generated = set(all_chain_tournaments(m, n))
            filtered = {K for K in all_tournaments(m, n) if has_chain_property(K)}
            assert generated == filtered

    @pytest.mark.parametrize("m, n", [(0, 2), (2, 0)])
    def test_empty_side_refused(self, m, n):
        with pytest.raises(InputError, match="at least one row and one column"):
            all_chain_tournaments(m, n)

    def test_all_members_everywhere_are_chains(self):
        rng = random.Random(13)
        for _ in range(10):
            K = random_tournament(rng, 4, 3)
            result = min_chain_set(K)
            for M in result.members:
                assert has_chain_property(M)
                assert hamming(K, M) == result.distance


class TestOneOptimalOrdering:
    """Planted chains: one optimal ordering and exactly 2^k members, listed
    lazily from the factored form; their transposes are wide and take the
    collect-and-sort path."""

    @pytest.mark.parametrize("n, k", [(2, 3), (3, 6), (4, 9), (6, 11), (5, 11)])
    def test_planted(self, n, k):
        K, members, complete, delete = planted_chain(random.Random(n * 100 + k), n, k)
        assert len(chain_edit._solve(K, chain_edit._EDIT, None, None)[2]) == 1
        assert len(members) == 1 << k
        assert min_chain_set(K) == MinChainSet(k, members)
        assert chain_completion(K).members == (complete,)
        assert chain_deletion(K).members == (delete,)
        assert monotone_min_chain(K) == monotone_oracle(K)

    @pytest.mark.parametrize("n, k", [(2, 3), (3, 6), (4, 9), (6, 11)])
    def test_planted_transpose(self, n, k):
        K, members, complete, delete = planted_chain(random.Random(n * 100 + k), n, k)
        KT = transpose(K)
        expected = tuple(sorted(map(transpose, members), key=canonical_key))
        assert min_chain_set(KT) == MinChainSet(k, expected)
        assert chain_completion(KT).members == (transpose(complete),)
        assert chain_deletion(KT).members == (transpose(delete),)
        assert monotone_min_chain(KT) == monotone_oracle(KT)

    def test_monotone_stops_at_first_qualifier(self, monkeypatch):
        # the first member qualifies, so no later one is built
        K, members, _, _ = planted_chain(random.Random(1), 6, 11)
        assert monotone_oracle(K) == members[0]
        built = []
        unchecked = Tournament._unchecked.__func__
        monkeypatch.setattr(
            Tournament, "_unchecked", classmethod(lambda cls, *a: built.append(a) or unchecked(cls, *a))
        )
        assert monotone_min_chain(K) == members[0]
        assert len(built) == 1


class TestMemberCap:
    def test_boundary(self, monkeypatch):
        # one column: each of m rows picks either prefix, 2^m combinations
        monkeypatch.setattr(chain_edit, "MEMBER_CAP", 16)
        assert len(all_chain_tournaments(4, 1)) == 16
        with pytest.raises(ResourceCapError, match="32 members .* cap of 16"):
            all_chain_tournaments(5, 1)

    def test_tall_enumeration_refused(self):
        with pytest.raises(ResourceCapError, match="1062882"):
            all_chain_tournaments(12, 2)


class TestStateCap:
    def test_boundary(self, monkeypatch):
        # a random 9x9 whose search stores 903 states
        costs = chain_edit._cell_costs(random_tournament(random.Random(0), 9, 9), chain_edit._EDIT, None)
        monkeypatch.setattr(chain_edit, "STATE_CAP", 902)
        with pytest.raises(ResourceCapError, match="9 columns .* more than 902 states, .* cap of 902"):
            _search(*costs, 9)
        monkeypatch.setattr(chain_edit, "STATE_CAP", 903)
        assert _search(*costs, 9)[0] == 13


COSTS = st.sampled_from([0, 1, 2, 3, 1 << 40, 1 << 64, 1 << 100, -1, -5, -(1 << 41)])


@st.composite
def cost_matrices(draw):
    """(c0, c1) of up to 7x6 cells, wide ones included.

    Small costs tie often; some are negative, as under prob_model's
    scale * unit - c tables; about one cell in ten forbids one of its values,
    and some inputs have a row that allows nothing.
    """
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    cell = st.tuples(COSTS, COSTS).flatmap(
        lambda pair: st.sampled_from([pair] * 8 + [(None, pair[1]), (pair[0], None)])
    )
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    blank = draw(st.integers(0, 4 * m))
    if blank < m:
        rows[blank] = [(None, None)] * n
    return [tuple(c for c, _ in row) for row in rows], [tuple(c for _, c in row) for row in rows]


class TestSearchOracle:
    @settings(max_examples=200, deadline=None)
    @given(cost_matrices())
    def test_search_matches_permutation_scan(self, costs):
        c0, c1 = costs
        m, n = len(c0), len(c0[0])
        cost, count, members = permutation_search(c0, c1)
        wide = n > m
        if wide:  # searched as the dual: transposed, each cell's two costs swapped
            c0, c1, m, n = list(zip(*c1)), list(zip(*c0)), n, m
        got, row_class, tuples = _search(c0, c1, None)
        assert got == cost
        # each class's argmins along each optimal ordering, counted: a class
        # settled early may still tie at a later prefix
        first = [row_class.index(i) for i in range(max(row_class) + 1)]
        scanned = ordering_argmins(c0, c1)[1] if got < math.inf else []
        assert tuples == collections.Counter(tuple(map(per_row.__getitem__, first)) for per_row in scanned)
        expanded = _expand(row_class, tuples, m, n, wide)
        if members is None:
            with pytest.raises(ResourceCapError, match=str(count)):
                next(expanded)
        else:
            assert set(_rows(expanded)) == members


def test_search_expands_few_states(monkeypatch):
    # planted 14x14 under the noise model, 384 tied optimal orderings with 6
    # distinct argmin tuples: a depth-first walk over the prefixes visited
    # 98,941 nodes here
    K = sample_tournament(sample_state(14, 14, 1), NoiseParams.symmetric(0.05), 8)
    pops = []
    heappop = heapq.heappop
    monkeypatch.setattr(heapq, "heappop", lambda heap: pops.append(None) or heappop(heap))
    distance, _, tuples = _search(*chain_edit._cell_costs(K, chain_edit._EDIT, None), 14)
    assert (distance, len(tuples), sum(tuples.values())) == (8, 6, 384)
    assert 0 < len(pops) <= 2500  # the search pops every state it expands


def _preferences(m, n, rng):
    grid = [(a, b) for a in range(1, m + 1) for b in range(1, n + 1)]
    rng.shuffle(grid)
    return (
        MatchPreference.row_major(),
        MatchPreference.col_major(),
        MatchPreference.from_pairs(grid),
    )


def _orders(m, n, rng):
    """Row-major, col-major and a shuffled order of the cells of an m x n matrix."""
    return [pref.order(m, n) for pref in _preferences(m, n, rng)]


def least_oracle(K, order, flip):
    """The member whose cells XOR flip, listed in order, are least, from the expanded set."""
    return min(min_chain_set(K).members, key=lambda M: [M.cell(a, b) ^ flip.cell(a, b) for a, b in order])


class TestLeastMember:
    """The factored picks against the expanded optimum set."""

    def _check(self, K, prefs):
        try:
            members = min_chain_set(K).members
        except ResourceCapError:
            return False
        assert members == tuple(sorted(members, key=canonical_key))
        assert monotone_min_chain(K) == canonical_min_oracle(K) == members[0]
        for pref in prefs:
            assert select_match_pref(K, pref) == match_pref_oracle(K, pref)
        return True

    def test_seeded_up_to_7x7(self):
        rng = random.Random(404)
        for _ in range(150):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            K = random_tournament(rng, m, n)
            assert self._check(K, _preferences(m, n, rng))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.randoms(use_true_random=False))
    def test_property(self, m, n, rng):
        K = random_tournament(rng, m, n)
        assume(self._check(K, _preferences(m, n, rng)))

    def test_flip_and_order(self):
        # zero flip, row-major: canonical; flip = K: the difference vector
        order = MatchPreference.row_major().order(3, 4)
        zero = Tournament(3, 4, (0, 0, 0))
        assert least_member(EX2, order, zero) == canonical_min_oracle(EX2)
        assert least_member(EX2, order, EX2) == EX2_MINCH[3]

    def test_tall_with_equal_rows_and_tied_orderings(self):
        # a few distinct masks, each repeated: many equal rows, and often
        # several optimal orderings whose picks differ; their transposes are wide
        rng = random.Random(505)
        checked = tied = 0
        for _ in range(300):
            n = rng.randint(2, 4)
            masks = [rng.getrandbits(n) for _ in range(rng.randint(2, 3))]
            rows = [rng.choice(masks) for _ in range(rng.randint(6, 14))]
            K = Tournament(len(rows), n, tuple(rows))
            try:
                min_chain_set(K)
            except ResourceCapError:
                continue
            tied += len(chain_edit._solve(K, chain_edit._EDIT, None, None)[2]) > 1
            for L in (K, transpose(K)):
                zero = Tournament(L.rows, L.cols, (0,) * L.rows)
                noise = random_tournament(rng, L.rows, L.cols)
                for order in _orders(L.rows, L.cols, rng):
                    for flip in (zero, L, noise):
                        assert least_member(L, order, flip) == least_oracle(L, order, flip)
            checked += 1
        assert checked > 200 and tied > 50

    def test_equal_rows_ordered_apart(self):
        # equal rows whose own cells come in different orders may pick
        # different prefixes, so rows are classed by that order too
        rng = random.Random(506)
        apart = 0
        for _ in range(300):
            n = rng.randint(2, 4)
            masks = [rng.getrandbits(n) for _ in range(2)]
            rows = [rng.choice(masks) for _ in range(rng.randint(3, 8))]
            K = Tournament(len(rows), n, tuple(rows))
            try:
                min_chain_set(K)
            except ResourceCapError:
                continue
            # each row ranks its own cells in a random order, the rows interleaved at random
            ranked = [rng.sample(range(1, n + 1), n) for _ in rows]
            turns = [a for a in range(1, len(rows) + 1) for _ in range(n)]
            rng.shuffle(turns)
            order = [(a, ranked[a - 1].pop()) for a in turns]
            for flip in (K, Tournament(K.rows, n, (0,) * K.rows)):
                M = least_member(K, order, flip)
                assert M == least_oracle(K, order, flip)
                picks = {}
                for k, f, r in zip(K.row_masks, flip.row_masks, M.row_masks):
                    picks.setdefault((k, f), set()).add(r)
                apart += any(len(p) > 1 for p in picks.values())
        assert apart > 10

    def test_picks_beyond_member_cap(self, monkeypatch):
        rng = random.Random(9)
        K = random_tournament(rng, 7, 3)
        while len(min_chain_set(K).members) < 4:
            K = random_tournament(rng, 7, 3)
        lex, pref = canonical_min_oracle(K), match_pref_oracle(K, MatchPreference.col_major())
        monkeypatch.setattr(chain_edit, "MEMBER_CAP", 2)
        with pytest.raises(ResourceCapError):
            min_chain_set(K)
        assert monotone_min_chain(K) == lex
        assert select_match_pref(K, MatchPreference.col_major()) == pref


class TestSolveMemo:
    """The one-entry solve memo never changes an answer, whatever was solved before."""

    PICKS = (
        min_chain_set,
        chain_completion,
        chain_deletion,
        monotone_min_chain,
        monotone_min_chain,
        lambda K: select_match_pref(K, MatchPreference.col_major()),
        lambda K: mle_search(K, NoiseParams.symmetric(0.2)),
    )

    def test_interleaved_equals_cold(self):
        rng = random.Random(606)
        # square, tall and wide inputs, and one the enumeration cap refuses
        inputs = [random_tournament(rng, m, n) for m, n in ((5, 5), (6, 3), (3, 6), (4, 4), (7, 2))]
        refused = random_tournament(rng, 9, 9)
        cold = {}
        for i, K in enumerate(inputs):
            for j, pick in enumerate(self.PICKS):
                chain_edit._solve.cache_clear()
                cold[i, j] = pick(K)
        steps = [(0, 0), (1, 0), (0, 0), (0, 4), (2, 5), (0, 3), (1, 6), (1, 1), (1, 2)]
        steps += [(rng.randrange(len(inputs)), rng.randrange(len(self.PICKS))) for _ in range(300)]
        for step, (i, j) in enumerate(steps):
            assert self.PICKS[j](inputs[i]) == cold[i, j]
            if step % 4 == 1:
                with pytest.raises(ResourceCapError):
                    self.PICKS[j](refused)

    def test_wide_input_solved_as_its_dual(self):
        # a wide K is solved and kept as dual(K) under swapped costs: the
        # distance and members of a scan of K's own orderings, and one entry
        rng = random.Random(607)
        costs = (chain_edit._EDIT, chain_edit._COMPLETE, chain_edit._DELETE,
                 _mle_costs(NoiseParams(0.1, 0.3)), _mle_costs(NoiseParams(0.0, 0.2)))
        for m, n in ((1, 3), (2, 5), (3, 6), (4, 5)):
            K = random_tournament(rng, m, n)
            for cost in costs:
                distance, _, members = permutation_search(*chain_edit._cell_costs(K, cost, None))
                chain_edit._solve.cache_clear()
                got, expanded = chain_edit._optimum(K, cost, None)
                assert got == distance
                assert set(chain_edit._rows(expanded)) == members
            chain_edit._optimum(K, chain_edit._EDIT, None)
            chain_edit._optimum(dual(K), chain_edit._EDIT, None)
            assert chain_edit._solve.cache_info().hits == 1


def test_solve_keeps_each_class_once_per_distinct_argmin_tuple():
    # 2,000 rows of two masks: one entry per class, not per row, in each of
    # the 30 distinct argmin tuples of the 4,608 tied optimal orderings
    K = Tournament.from_cells(two_patterns(2000, 4))
    distance, row_class, tuples = chain_edit._solve(K, chain_edit._EDIT, None, None)
    assert distance == 4000
    assert row_class == (0, 1) * 1000
    assert (len(tuples), sum(tuples.values())) == (30, 4608)
    assert all(len(argmins) == 2 for argmins in tuples)
