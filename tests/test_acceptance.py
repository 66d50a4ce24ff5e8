"""Acceptance gate: exact reproduction of every worked example plus the
property/oracle suites, each within its stated time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import json
import math
import random
import time

import pytest

from chainrank import (
    MatchPreference,
    NoiseParams,
    Tournament,
    all_tournaments,
    canonical_state,
    chain_rankings,
    ci_selection,
    dual,
    greedy_chain_tournament,
    hamming,
    interleave,
    is_chain_definable,
    k_theta,
    likelihood,
    log_likelihood,
    min_chain_distance,
    min_chain_set,
    mle_search,
    neighborhood,
    rank_count,
    ranks_to_chain,
    select_match_pref,
    swap_rows,
    weight_fractions,
    weights_for,
    weighted_min_chain,
)
from chainrank.chain_edit import all_chain_tournaments
from chainrank.cli import main
from chainrank.core import canonical_key
from chainrank.prob_model import derive_seed, sample_state

from helpers import (
    EX2,
    EX2_MINCH,
    TABLE1,
    brute_force_min_chain,
    cellwise_likelihood,
    pair,
    random_tournament,
    recording,
)


def report(number, description, started):
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number} ({description}): PASS in {elapsed:.2f}s")
    return elapsed


def test_criterion_1_example2_reproduction():
    started = time.perf_counter()
    result = min_chain_set(EX2)
    assert result.distance == 2
    assert set(result.members) == set(EX2_MINCH)
    expected_pairs = {
        pair("213", "{12}34"),
        pair("123", "12{34}"),
        pair("213", "13{24}"),
        pair("123", "{13}24"),
    }
    assert {chain_rankings(M) for M in result.members} == expected_pairs
    # members pair with their rankings in the published listing order
    listed = [
        pair("213", "{12}34"),
        pair("123", "12{34}"),
        pair("213", "13{24}"),
        pair("123", "{13}24"),
    ]
    for M, expected in zip(EX2_MINCH, listed):
        assert chain_rankings(M) == expected
    assert report(1, "closest chain set of the running example", started) < 1.0


def test_criterion_2_example5_reproduction():
    started = time.perf_counter()
    selected = select_match_pref(EX2, MatchPreference.row_major())
    assert selected == Tournament.from_cells([[1, 0, 1, 0], [1, 1, 1, 0], [1, 1, 1, 1]])
    assert chain_rankings(selected) == pair("123", "{13}24")
    assert report(2, "row-major match-preference selection", started) < 1.0


def test_criterion_3_weight_construction():
    started = time.perf_counter()
    from fractions import Fraction

    got = weight_fractions(MatchPreference.row_major(), 2, 3)
    assert got == (
        (Fraction(3, 2), Fraction(5, 4), Fraction(9, 8)),
        (Fraction(17, 16), Fraction(33, 32), Fraction(65, 64)),
    )
    rng = random.Random(12345)
    grid = [(a, b) for a in (1, 2) for b in (1, 2, 3)]
    rng.shuffle(grid)
    orders = [
        MatchPreference.row_major(),
        MatchPreference.col_major(),
        MatchPreference.from_pairs(grid),
    ]
    for pref in orders:
        w = weights_for(pref, 2, 3)
        for K in all_tournaments(2, 3):
            assert weighted_min_chain(K, w) == select_match_pref(K, pref)
    assert report(3, "weight values and weighted/lexicographic agreement", started) < 10.0


def test_criterion_4_table1_reproduction():
    started = time.perf_counter()
    fg, rounds = recording(ci_selection())
    result = interleave(TABLE1, fg)
    expected_rounds = [
        ({1, 2, 3, 4}, {1, 2, 3, 4, 5}, {1}, {1}),
        ({2, 3, 4}, {2, 3, 4, 5}, {3}, {3, 4}),
        ({2, 4}, {2, 5}, {2}, {5}),
        ({4}, {2}, {4}, {2}),
    ]
    assert rounds == expected_rounds
    assert result == pair("4231", "25{34}1")
    greedy = greedy_chain_tournament(TABLE1, ci_selection())
    assert hamming(TABLE1, greedy) == 3
    assert min_chain_distance(TABLE1) == 2
    assert report(4, "cardinality interleaving walkthrough", started) < 1.0


def test_criterion_5_mle_equals_chain_editing_at_desk_scale():
    started = time.perf_counter()
    for m, n in [(2, 2), (2, 3)]:
        for K in all_tournaments(m, n):
            expected = min_chain_set(K).members
            for beta in (0.1, 0.3, 0.49):
                assert mle_search(K, NoiseParams.symmetric(beta)) == expected
    assert report(5, "maximum likelihood equals chain editing", started) < 30.0


def test_criterion_6_oracle_equivalence():
    started = time.perf_counter()
    count = 0
    for m, n in [(2, 2), (2, 3)]:
        for K in all_tournaments(m, n):
            assert min_chain_set(K) == brute_force_min_chain(K)
            count += 1
    assert count == 16 + 64
    rng = random.Random(60466176)
    for i in range(200):
        K = random_tournament(rng, 3, 3 if i % 2 == 0 else 4)
        assert min_chain_set(K) == brute_force_min_chain(K)
    assert report(6, "search equals brute-force oracle", started) < 60.0


def test_criterion_7_structural_identities():
    started = time.perf_counter()

    # dual correspondence of the optimum set
    for m, n in [(2, 2), (2, 3)]:
        for K in all_tournaments(m, n):
            mapped = tuple(
                sorted((dual(M) for M in min_chain_set(K).members), key=canonical_key)
            )
            assert mapped == min_chain_set(dual(K)).members

    # swapping an inverted optimum row pair preserves optimality
    rng = random.Random(777)
    instances = list(all_tournaments(2, 2)) + list(all_tournaments(2, 3))
    instances += [random_tournament(rng, 3, 3) for _ in range(20)]
    for K in instances:
        opt = set(min_chain_set(K).members)
        for a1 in range(1, K.rows + 1):
            for a2 in range(1, K.rows + 1):
                if a1 == a2 or not neighborhood(K, a1) <= neighborhood(K, a2):
                    continue
                for M in opt:
                    if neighborhood(M, a2) <= neighborhood(M, a1):
                        assert swap_rows(M, a1, a2) in opt

    # skill orderings match neighbourhood inclusions on every canonical state
    for m, n in [(1, 1), (2, 2), (2, 3), (3, 3)]:
        for C in all_chain_tournaments(m, n):
            theta = canonical_state(C)
            assert k_theta(theta) == C  # canonical-state round trip
            for a in range(1, m + 1):
                for a2 in range(1, m + 1):
                    nested = C.row_mask(a) & C.row_mask(a2) == C.row_mask(a)
                    assert nested == (theta.x[a - 1] <= theta.x[a2 - 1])
            for b in range(1, n + 1):
                for b2 in range(1, n + 1):
                    contains = C.col_mask(b) & C.col_mask(b2) == C.col_mask(b2)
                    assert contains == (theta.y[b - 1] <= theta.y[b2 - 1])

    # product-form likelihood equals the cellwise definition
    rng = random.Random(4242)
    for i in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        theta = sample_state(m, n, derive_seed(7, i))
        K = random_tournament(rng, m, n)
        alpha = NoiseParams(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        assert likelihood(K, theta, alpha) == pytest.approx(
            cellwise_likelihood(K, theta, alpha), rel=1e-12
        )

    # log-likelihood is linear in the editing distance for symmetric noise
    for i in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        K = random_tournament(rng, m, n)
        C = k_theta(sample_state(m, n, derive_seed(8, i)))
        beta = rng.uniform(0.05, 0.45)
        got = log_likelihood(K, canonical_state(C), NoiseParams.symmetric(beta))
        want = m * n * math.log(1 - beta) + math.log(beta / (1 - beta)) * hamming(K, C)
        assert got == pytest.approx(want, abs=1e-10)

    assert report(7, "structural identity suite", started) < 120.0


def test_criterion_8_chain_definability_both_directions():
    started = time.perf_counter()
    # every interleaving output has rank counts within one of each other
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        for K in all_tournaments(m, n):
            result = interleave(K, ci_selection())
            assert is_chain_definable(result)
            realised = ranks_to_chain(result)
            assert chain_rankings(realised) == result
    # and every ranking pair of a small chain tournament round-trips
    for m, n in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
        for C in all_chain_tournaments(m, n):
            p = chain_rankings(C)
            assert abs(rank_count(p.a_order) - rank_count(p.b_order)) <= 1
            assert chain_rankings(ranks_to_chain(p)) == p
    assert report(8, "rank-count characterisation both ways", started) < 30.0


def test_criterion_9_verdict_table(capsys):
    started = time.perf_counter()
    assert main(["axioms", "--paper-suite", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    rows = {(r["label"], r["operator"], r["axiom"]): r for r in data["rows"]}

    for op in ("chain-min-lex", "chain-min-mon", "chain-min-dual", "match-pref:row-major"):
        assert rows[("chain-min-vs-anon", op, "anon")]["verdict"]["holds"] is False
        assert rows[("chain-min-vs-iim", op, "iim")]["verdict"]["holds"] is False
        assert rows[("chain-min-vs-pos-resp", op, "pos-resp")]["verdict"]["holds"] is False
    # the expected pos-resp witness: the row pair that ties in the repair
    lex_pr = rows[("chain-min-vs-pos-resp", "chain-min-lex", "pos-resp")]["verdict"]["witness"]
    assert lex_pr["pair"] == [1, 2] and lex_pr["cell"] == [2, 3]

    assert rows[("four-axiom-conflict", "count", "chain-def")]["verdict"]["holds"] is False
    assert rows[("four-axiom-conflict", "count", "chain-def")]["verdict"]["witness"][
        "rank_counts"
    ] == [3, 1]

    ci_rows = {key[2]: r for key, r in rows.items() if key[1] == "ci"}
    assert {a: r["verdict"]["holds"] for a, r in ci_rows.items()} == {
        "chain-def": True,
        "anon": True,
        "dual": True,
        "mon": True,
        "iim": False,
        "pos-resp": False,
    }
    assert ci_rows["iim"]["verdict"]["witness"] is not None
    assert ci_rows["pos-resp"]["verdict"]["witness"] is not None
    assert report(9, "operator verdict table via the CLI suite", started) < 120.0


def test_criterion_10_simulation_determinism(capsys):
    started = time.perf_counter()
    args = [
        "simulate", "--m", "3", "--n", "3", "--beta", "0.2",
        "--operators", "ci,chain-min-lex,count", "--trials", "60", "--seed", "31337",
    ]
    outputs = []
    for extra in ([], [], ["--workers", "1"], ["--workers", "4"]):
        assert main(args + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    report(10, "bitwise-reproducible simulation", started)
