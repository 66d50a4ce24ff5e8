import itertools
import math
import random

import pytest
from hypothesis import example, given, settings

from chainrank import (
    InputError,
    NoiseParams,
    NotChainError,
    ResourceCapError,
    StateOfWorld,
    Tournament,
    all_tournaments,
    canonical_state,
    chain_completion,
    chain_rankings,
    has_chain_property,
    hamming,
    k_theta,
    likelihood,
    log_likelihood,
    min_chain_set,
    mle_search,
    sample_state,
    sample_tournament,
)
from chainrank.chain_edit import all_chain_tournaments
from chainrank.core import canonical_key
from chainrank.prob_model import derive_seed

from helpers import (
    EX1,
    EX2,
    brute_force_mle,
    canonical_state_by_sort,
    cellwise_likelihood,
    chains_by_definition,
    random_tournament,
    repeated_row_tournaments,
    state_gap_by_pairs,
)

# the oracle grid of noise rates; pairs summing to one carry no information
# and are covered separately
ORACLE_RATES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.49, 0.5, 0.51, 0.7, 0.9, 1.0)
ORACLE_NOISE = tuple(
    NoiseParams(ap, am) for ap in ORACLE_RATES for am in ORACLE_RATES if ap + am != 1.0
)


def _mle_or_error(search, K, alpha):
    try:
        return tuple(sorted(search(K, alpha), key=canonical_key))
    except InputError:
        return "no feasible state"


class TestKTheta:
    def test_reproduces_example1(self):
        theta = StateOfWorld((1, 2, 3), (1, 2, 3, 3))
        assert k_theta(theta) == EX1

    def test_single_loss(self):
        assert k_theta(StateOfWorld((0,), (1,))).cells == ((0,),)

    def test_uniform_dominance(self):
        assert k_theta(StateOfWorld((5, 5), (1, 1))).cells == ((1, 1), (1, 1))

    def test_invalid_state_rejected(self):
        # the gap between skills 1 and 3 has no column level inside it
        with pytest.raises(InputError):
            StateOfWorld((1, 3), (1,))
        # the column gap 0 < 2 has no row level inside it
        with pytest.raises(InputError):
            StateOfWorld((5,), (0, 2))

    def test_output_always_chain(self):
        for seed in range(30):
            theta = sample_state(3, 4, seed)
            assert has_chain_property(k_theta(theta))


def _state_message(x, y):
    try:
        StateOfWorld(x, y)
    except InputError as exc:
        return str(exc)
    return None


class TestStateCheck:
    """The sorted gap check names the pair the pairwise definition names."""

    LEVELS = (0, 1, 2, 3, math.inf)

    def test_every_small_state(self):
        # up to 4 levels per side and 6 in all, with ties and inf
        for lx, ly in itertools.product(range(1, 5), repeat=2):
            if lx + ly > 6:
                continue
            for x in itertools.product(self.LEVELS, repeat=lx):
                for y in itertools.product(self.LEVELS, repeat=ly):
                    assert _state_message(x, y) == state_gap_by_pairs(x, y), (x, y)

    def test_seeded_states(self):
        rng = random.Random(88)
        levels = (-math.inf, 0, 0.5, 1, 1.0, 2, 3, math.inf)
        for _ in range(400):
            x = tuple(rng.choice(levels) for _ in range(rng.randint(1, 12)))
            y = tuple(rng.choice(levels) for _ in range(rng.randint(1, 12)))
            assert _state_message(x, y) == state_gap_by_pairs(x, y), (x, y)


class TestCanonicalState:
    def test_example1_state(self):
        theta = canonical_state(EX1)
        assert theta.x == (1, 2, 3)
        assert theta.y == (1, 2, 3, 3)
        assert k_theta(theta) == EX1

    def test_all_zeros(self):
        K = Tournament.from_cells([[0, 0], [0, 0]])
        theta = canonical_state(K)
        assert theta.x == (2, 2)
        assert theta.y == (3, 3)
        assert k_theta(theta) == K

    def test_single_win(self):
        theta = canonical_state(Tournament.from_cells([[1]]))
        assert theta.x == (1,) and theta.y == (1,)

    def test_non_chain_rejected(self):
        with pytest.raises(NotChainError):
            canonical_state(EX2)

    def test_round_trip_all_small_chains(self):
        for m, n in [(1, 1), (2, 2), (2, 3), (3, 3)]:
            for C in all_chain_tournaments(m, n):
                assert k_theta(canonical_state(C)) == C

    def test_skill_orderings_match_neighbourhoods(self):
        # skills order rows exactly as neighbourhood inclusion does, and
        # columns as reversed co-neighbourhood inclusion
        for m, n in [(2, 2), (3, 3)]:
            for C in all_chain_tournaments(m, n):
                theta = canonical_state(C)
                truth = k_theta(theta)
                for a in range(1, m + 1):
                    for a2 in range(1, m + 1):
                        nested = truth.row_mask(a) & truth.row_mask(a2) == truth.row_mask(a)
                        assert nested == (theta.x[a - 1] <= theta.x[a2 - 1])
                for b in range(1, n + 1):
                    for b2 in range(1, n + 1):
                        contains = truth.col_mask(b) & truth.col_mask(b2) == truth.col_mask(b2)
                        assert contains == (theta.y[b - 1] <= theta.y[b2 - 1])

    def test_skills_from_the_definition_on_every_small_chain(self):
        # x_a counts the rows whose neighbourhood N(a) contains; y_b is the
        # least x among b's defeaters, or one past the row count
        for K, N, coN in chains_by_definition():
            theta = canonical_state(K)
            x = {a: sum(N[a2] <= N[a] for a2 in N) for a in N}
            assert theta.x == tuple(x[a] for a in sorted(N))
            assert theta.y == tuple(min((x[a] for a in coN[b]), default=len(N) + 1) for b in sorted(coN))

    @settings(max_examples=300, deadline=None)
    @given(repeated_row_tournaments())
    @example(Tournament(1, 5, (22,)))
    @example(Tournament(7, 1, (1, 0, 1, 1, 0, 0, 1)))
    @example(Tournament(6, 3, (3, 1, 3, 7, 1, 3)))
    def test_matches_one_sorted_win_count_per_row(self, K):
        # the per-distinct-row sums over row_counts give what bisecting every
        # row's sorted win count gave
        if has_chain_property(K):
            assert canonical_state(K) == canonical_state_by_sort(K)
        else:
            with pytest.raises(NotChainError):
                canonical_state(K)


class TestLikelihood:
    def test_noise_free_closed_form(self):
        theta = canonical_state(EX1)
        beta = NoiseParams.symmetric(0.25)
        assert likelihood(EX1, theta, beta) == pytest.approx(0.75**12, rel=1e-12)

    def test_impossible_false_positive(self):
        theta = StateOfWorld((0,), (1,))  # truth is a loss
        observed = Tournament.from_cells([[1]])
        assert likelihood(observed, theta, NoiseParams(0.0, 0.2)) == 0.0

    def test_single_false_negative(self):
        theta = StateOfWorld((1,), (1,))  # truth is a win
        observed = Tournament.from_cells([[0]])
        assert likelihood(observed, theta, NoiseParams(0.3, 0.1)) == pytest.approx(0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            likelihood(EX1, StateOfWorld((1,), (1,)), NoiseParams(0.1, 0.1))

    def test_product_form_equals_cellwise_definition(self):
        rng = random.Random(4242)
        for i in range(100):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            theta = sample_state(m, n, derive_seed(1, i))
            K = random_tournament(rng, m, n)
            if i % 10 == 0:
                alpha = NoiseParams(rng.choice([0.0, 1.0]), rng.random())
            else:
                alpha = NoiseParams(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            got = likelihood(K, theta, alpha)
            want = cellwise_likelihood(K, theta, alpha)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_log_likelihood_linear_in_distance(self):
        rng = random.Random(7)
        for _ in range(50):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            K = random_tournament(rng, m, n)
            C = k_theta(sample_state(m, n, rng.randint(0, 2**32)))
            beta = rng.uniform(0.05, 0.45)
            theta = canonical_state(C)
            got = log_likelihood(K, theta, NoiseParams.symmetric(beta))
            want = m * n * math.log(1 - beta) + math.log(beta / (1 - beta)) * hamming(K, C)
            assert got == pytest.approx(want, abs=1e-10)


class TestMleSearch:
    def test_example2_symmetric_equals_min_chain_set(self):
        got = mle_search(EX2, NoiseParams.symmetric(0.3))
        assert got == min_chain_set(EX2).members

    def test_chain_input_recovers_itself(self):
        assert mle_search(EX1, NoiseParams.symmetric(0.1)) == (EX1,)

    def test_no_false_positives_gives_completion(self):
        got = mle_search(EX2, NoiseParams(0.0, 0.2))
        assert got == chain_completion(EX2).members

    def test_no_false_negatives_gives_deletion(self):
        from chainrank import chain_deletion

        got = mle_search(EX2, NoiseParams(0.2, 0.0))
        assert got == chain_deletion(EX2).members

    def test_desk_scale_equivalence(self):
        for m, n in [(2, 2), (2, 3)]:
            for K in all_tournaments(m, n):
                for beta in (0.1, 0.3, 0.49):
                    assert mle_search(K, NoiseParams.symmetric(beta)) == min_chain_set(K).members

    def test_degenerate_rates_rejected(self):
        with pytest.raises(InputError):
            mle_search(Tournament.from_cells([[1]]), NoiseParams(0.0, 1.0))


class TestMleOracle:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)])
    def test_every_small_input_matches_scan(self, shape):
        for K in all_tournaments(*shape):
            for alpha in ORACLE_NOISE:
                assert _mle_or_error(mle_search, K, alpha) == _mle_or_error(brute_force_mle, K, alpha)

    def test_random_inputs_match_scan(self):
        rng = random.Random(20210107)
        for _ in range(16):
            K = random_tournament(rng, rng.randint(1, 4), rng.randint(1, 4))
            for alpha in rng.sample(ORACLE_NOISE, 8):
                assert _mle_or_error(mle_search, K, alpha) == _mle_or_error(brute_force_mle, K, alpha)

    def test_uninformative_channel_keeps_every_chain(self):
        # 1 - 0.7 is not 0.3 in floating point; the channel still carries no information
        K = Tournament.from_cells([[0, 0, 0]])
        assert mle_search(K, NoiseParams(0.7, 0.3)) == all_chain_tournaments(1, 3)
        assert mle_search(EX2, NoiseParams.symmetric(0.5)) == all_chain_tournaments(3, 4)
        assert mle_search(Tournament.from_cells([[1]]), NoiseParams(1.0, 0.0)) == all_chain_tournaments(1, 1)
        with pytest.raises(InputError):
            mle_search(Tournament.from_cells([[0]]), NoiseParams(1.0, 0.0))

    def test_uninformative_tall_input_hits_member_cap(self):
        # every 12x2 chain tournament is a maximum: 2 * 3^12 combinations
        K = random_tournament(random.Random(12), 12, 2)
        with pytest.raises(ResourceCapError, match="1062882"):
            mle_search(K, NoiseParams.symmetric(0.5))

    def test_tall_input_uses_editing_search(self):
        # the scan over every 20x2 chain tournament would need about 7e9 tuples
        K = random_tournament(random.Random(2020), 20, 2)
        assert mle_search(K, NoiseParams.symmetric(0.1)) == min_chain_set(K).members


class TestSampling:
    def test_noiseless_channel(self):
        theta = sample_state(3, 3, 5)
        truth = k_theta(theta)
        for seed in (0, 1, 99):
            assert sample_tournament(theta, NoiseParams(0.0, 0.0), seed) == truth

    def test_always_flip_channel(self):
        theta = sample_state(2, 3, 8)
        truth = k_theta(theta)
        flipped = sample_tournament(theta, NoiseParams(1.0, 1.0), 3)
        full = (1 << 3) - 1
        assert flipped.row_masks == tuple(full & ~r for r in truth.row_masks)

    def test_seed_determinism(self):
        theta = sample_state(3, 3, 5)
        alpha = NoiseParams(0.2, 0.4)
        assert sample_tournament(theta, alpha, 77) == sample_tournament(theta, alpha, 77)

    def test_coin_flip_channel_mean(self):
        theta = sample_state(2, 2, 1)
        alpha = NoiseParams.symmetric(0.5)
        ones = total = 0
        for seed in range(10000):
            K = sample_tournament(theta, alpha, seed)
            ones += sum(r.bit_count() for r in K.row_masks)
            total += 4
        assert abs(ones / total - 0.5) < 0.02


class TestSampleState:
    def test_1x1_distribution(self):
        counts = {0: 0, 1: 0}
        for seed in range(1000):
            theta = sample_state(1, 1, seed)
            counts[k_theta(theta).cell(1, 1)] += 1
        chi2 = sum((counts[v] - 500) ** 2 / 500 for v in (0, 1))
        assert chi2 < 10.83  # p ~ 0.001 at one degree of freedom

    def test_outputs_are_valid_states(self):
        for seed in range(50):
            theta = sample_state(3, 4, seed)  # construction validates
            assert len(theta.x) == 3 and len(theta.y) == 4

    def test_deterministic(self):
        assert sample_state(4, 3, 12) == sample_state(4, 3, 12)

    def test_rankings_recoverable(self):
        theta = sample_state(3, 3, 2)
        chain_rankings(k_theta(theta))  # must not raise


class TestDeriveSeed:
    def test_distinct_streams(self):
        seeds = {derive_seed(42, t, s) for t in range(100) for s in range(2)}
        assert len(seeds) == 200

    def test_stable(self):
        assert derive_seed(42, 0, 0) == derive_seed(42, 0, 0)
        assert derive_seed(42, 0, 0) != derive_seed(43, 0, 0)
