"""Peak traced memory of the member-listing commands and of the single picks.

On a planted 71x6 chain the optimum set has 2,048 members, and its JSON
listing is about 2.9 MB. The commands write it one member at a time, and
chain-min-mon reads its pick off the factored optimum, so neither may hold
the whole listing or expand the whole set. On a tall 2,000x8 input drawn
from the noise model, the optimum set is far beyond MEMBER_CAP, and a list
of the row pairs with nested neighbourhoods would take over 100 MB; the
monotone and match-preference picks read each class of equal rows once. On
2,000 rows alternating between two disjoint patterns of four columns, the
search finds 4,608 tied optimal orderings with 30 distinct argmin tuples, so
the optimum it holds must keep each class's argmins once per distinct tuple,
not once per row or per ordering, and on 64,000 such rows the picks of
those tuples are compared once per class of rows and column, not per cell.
On a planted 16x16, searched under a
raised cap, the search keeps costs only for the prefixes it reaches, not a
table of all 2^16 prefixes per class, and stores no state whose sum exceeds
the cost of an ordering found by a first dive. The axiom lab's
scoped checks keep one ranking pair and one order per distinct answer, keyed
on row masks rather than tournaments, and test chain-minimality without
listing any optimum set. One 64,000x8 simulation trial of the five sweep
operators keeps its traced peak where it was measured, and the CSV reader
keeps one parsed row per distinct line of a 64,000x8 exam, not one per line.
"""

import contextlib
import functools
import gc
import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from chainrank import (
    NoiseParams,
    Tournament,
    chain_edit,
    chain_rankings,
    hamming,
    has_chain_property,
    min_chain_distance,
    monotone_min_chain,
    resolve_operator,
    sample_state,
    sample_tournament,
    select_match_pref,
)
from chainrank.axiom_lab import Scope, scope_verdicts
from chainrank.cli import main
from chainrank.experiment import ExperimentConfig, run_simulation
from chainrank.fileio import parse_csv, to_csv
from chainrank.match_pref import parse_order_name
from chainrank.picks import least_member

from helpers import parse_csv_by_rows, planted_chain, two_patterns

MB = 1 << 20


class _Sink:
    """A stdout that keeps only the digest of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text: str) -> int:
        self.digest.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def _traced(argv):
    """Exit code, stdout digest and peak traced bytes of one cold-solve main(argv)."""
    chain_edit._solve.cache_clear()
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, sink.digest.hexdigest(), peak


def _digest(out) -> str:
    return hashlib.sha256((json.dumps(out, sort_keys=True) + "\n").encode()).hexdigest()


@pytest.fixture(scope="module")
def planted_71x6(tmp_path_factory):
    K, members, _, _ = planted_chain(random.Random(71), 6, 11)
    path = tmp_path_factory.mktemp("planted") / "planted-71x6.csv"
    path.write_text(to_csv(K))
    return str(path), members


@pytest.mark.parametrize(
    "args, limit",
    [(["edit", "--all", "--json"], 3 * MB), (["rank", "-o", "chain-min-mon", "--json"], 1 * MB)],
)
def test_peak(planted_71x6, args, limit):
    path, members = planted_71x6
    argv = [args[0], path, *args[1:]]
    _traced(argv)  # imports every module the command uses
    code, digest, peak = _traced(argv)
    assert code == 0
    if args[0] == "edit":
        expected = {"distance": 11, "members": [M.cells for M in members]}
    else:
        # the members are chains in canonical order, and the first keeps
        # every row inclusion of the planted input
        chain = members[0]
        pair = chain_rankings(chain)
        expected = {
            "operator": "chain-min-mon",
            "a_ranks": [sorted(rank) for rank in pair.a_order.ranks],
            "b_ranks": [sorted(rank) for rank in pair.b_order.ranks],
            "chain": chain.cells,
            "distance": 11,
        }
    assert digest == _digest(expected)
    assert peak <= limit, f"peak traced memory {peak / MB:.2f} MB exceeds {limit / MB:.0f} MB"


@pytest.fixture(scope="module")
def planted_2000x8(tmp_path_factory):
    K = sample_tournament(sample_state(2000, 8, 1), NoiseParams.symmetric(0.1), 8)
    path = tmp_path_factory.mktemp("planted") / "planted-2000x8.csv"
    path.write_text(to_csv(K))
    return str(path), K


def test_monotone_pick_on_tall_input(planted_2000x8):
    path, K = planted_2000x8
    argv = ["rank", path, "-o", "chain-min-mon", "--json"]
    _traced(argv)
    code, digest, peak = _traced(argv)
    assert code == 0
    chain = monotone_min_chain(K)
    distance = min_chain_distance(K)
    assert has_chain_property(chain) and hamming(K, chain) == distance
    # equal rows pick alike, and every row inclusion of K is kept
    pick = {}
    for k, c in zip(K.row_masks, chain.row_masks):
        assert pick.setdefault(k, c) == c
    for k1, k2 in itertools.permutations(pick, 2):
        assert k1 & k2 != k1 or pick[k1] & pick[k2] == pick[k1]
    pair = chain_rankings(chain)
    expected = {
        "operator": "chain-min-mon",
        "a_ranks": [sorted(rank) for rank in pair.a_order.ranks],
        "b_ranks": [sorted(rank) for rank in pair.b_order.ranks],
        "chain": chain.cells,
        "distance": distance,
    }
    assert digest == _digest(expected)
    assert peak <= 8 * MB, f"peak traced memory {peak / MB:.2f} MB exceeds 8 MB"


@pytest.mark.parametrize("order", ["row-major", "col-major"])
def test_match_pref_pick_on_tall_input(planted_2000x8, order):
    # each class of equal rows is read once per distinct argmin tuple; summing
    # mn-bit cell weights per row and prefix took about 20 MB here
    path, K = planted_2000x8
    argv = ["rank", path, "-o", f"match-pref:{order}", "--json"]
    _traced(argv)
    code, digest, peak = _traced(argv)
    assert code == 0
    chain = select_match_pref(K, parse_order_name(order))
    distance = min_chain_distance(K)
    assert has_chain_property(chain) and hamming(K, chain) == distance
    # equal rows rank their own cells alike under both orders, so they pick alike
    pick = {}
    for k, c in zip(K.row_masks, chain.row_masks):
        assert pick.setdefault(k, c) == c
    pair = chain_rankings(chain)
    expected = {
        "operator": f"match-pref:{order}",
        "a_ranks": [sorted(rank) for rank in pair.a_order.ranks],
        "b_ranks": [sorted(rank) for rank in pair.b_order.ranks],
        "chain": chain.cells,
        "distance": distance,
    }
    assert digest == _digest(expected)
    assert peak <= 8 * MB, f"peak traced memory {peak / MB:.2f} MB exceeds 8 MB"


@pytest.fixture(scope="module")
def two_patterns_2000x8(tmp_path_factory):
    K = Tournament.from_cells(two_patterns(2000, 4))
    path = tmp_path_factory.mktemp("tied") / "two-patterns-2000x8.csv"
    path.write_text(to_csv(K))
    return str(path), K


def test_lex_pick_on_tied_orderings(two_patterns_2000x8):
    path, K = two_patterns_2000x8
    argv = ["rank", path, "-o", "chain-min-lex", "--json"]
    _traced(argv)
    code, digest, peak = _traced(argv)
    assert code == 0
    # the least member empties the rows of the first pattern and keeps the others
    chain = monotone_min_chain(K)
    assert chain.row_masks == tuple(0 if a % 2 == 0 else k for a, k in enumerate(K.row_masks))
    pair = chain_rankings(chain)
    expected = {
        "operator": "chain-min-lex",
        "a_ranks": [sorted(rank) for rank in pair.a_order.ranks],
        "b_ranks": [sorted(rank) for rank in pair.b_order.ranks],
        "chain": chain.cells,
        "distance": 4000,
    }
    assert digest == _digest(expected)
    assert peak <= 8 * MB, f"peak traced memory {peak / MB:.2f} MB exceeds 8 MB"


def test_listing_refused_on_tied_orderings(two_patterns_2000x8, capsys):
    path, _ = two_patterns_2000x8
    _traced(["edit", path])
    code, digest, peak = _traced(["edit", path])
    assert code == 3
    assert digest == hashlib.sha256().hexdigest()
    assert "exceeds the member cap of 65536" in capsys.readouterr().err
    assert peak <= 8 * MB, f"peak traced memory {peak / MB:.2f} MB exceeds 8 MB"


def test_solve_holds_one_entry_per_distinct_argmin_tuple(two_patterns_2000x8):
    # 4,608 tied optimal orderings give 30 distinct argmin tuples; one entry
    # per ordering held 0.73 MiB here
    _, K = two_patterns_2000x8
    chain_edit._solve.cache_clear()
    tracemalloc.start()
    try:
        result = chain_edit._solve(chain_edit._classes(K, chain_edit._EDIT)[0], None)
        gc.collect()  # a full collection also empties the interpreter's free lists
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        chain_edit._solve.cache_clear()
    assert result[0] == 4000
    assert held <= 0.25 * MB, f"the solve holds {held / MB:.2f} MB, over 0.25 MB"


def test_search_beyond_the_default_cap():
    # a table of every prefix per class took 34 MB here
    K = sample_tournament(sample_state(16, 16, 0), NoiseParams.symmetric(0.05), 7)
    chain_edit._solve.cache_clear()
    tracemalloc.start()
    try:
        distance, tuples = chain_edit._solve(chain_edit._classes(K, chain_edit._EDIT)[0], 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        chain_edit._solve.cache_clear()
    assert (distance, len(tuples), sum(tuples.values())) == (9, 24, 128)
    assert peak <= 8 * MB, f"peak traced memory {peak / MB:.2f} MB exceeds 8 MB"


def test_search_stores_no_state_above_an_ordering_cost():
    # the dive's ordering cost bounds what the search stores; without it,
    # states up to the bound of all allowed totals peaked at 40.5 MiB here
    K = sample_tournament(sample_state(16, 16, 1), NoiseParams.symmetric(0.05), 8)
    classes = chain_edit._classes(K, chain_edit._EDIT)[0]
    tracemalloc.start()
    try:
        distance, tuples = chain_edit._search(classes, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (distance, len(tuples), sum(tuples.values())) == (9, 17, 15120)
    assert peak <= 24 * MB, f"peak traced memory {peak / MB:.2f} MB exceeds 24 MB"


@pytest.mark.parametrize(
    "tied, pick",
    [
        pytest.param(tied, pick, id=pick + (", two patterns" if tied else ""))
        for tied in (False, True)
        for pick in ("distance", "least member", "chain-min-dual", "match-pref:col-major")
    ],
)
def test_exam_shape_solve_is_sized_by_its_classes(tied, pick):
    # 64,000 rows of 8 columns have at most 256 distinct masks: a cost tuple
    # per row, folded into classes only by the search, peaked at 15.4 MiB
    # here; this K is not canonical, so chain-min-dual picks in column-major
    # order, as match-pref:col-major does, and listing the m*n cells in that
    # order peaked at 59.7 and 45.4 MiB. On 64,000 rows of two patterns the
    # 30 distinct argmin tuples pick differently: comparing those picks cell
    # by cell peaked at 44-47 MiB and took 1.1-1.5 s, and once per class and
    # column at 1.6-2.1 MiB in 0.02 s
    if tied:
        K = Tournament.from_cells(two_patterns(64000, 4))
    else:
        K = sample_tournament(sample_state(64000, 8, 1), NoiseParams.symmetric(0.1), 8)
    if pick == "distance":
        solve = min_chain_distance
    elif pick == "least member":
        solve = functools.partial(least_member, order=None, flip=None)
    else:
        solve = resolve_operator(pick).choice
    chain_edit._solve.cache_clear()
    tracemalloc.start()
    try:
        solve(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        chain_edit._solve.cache_clear()
    assert peak <= 4 * MB, f"peak traced memory {peak / MB:.2f} MB exceeds 4 MB"


def test_exam_shape_trial():
    # one 64,000x8 trial of the five sweep operators: its traced peak was
    # 58.4 MiB while each ranking also kept its players as a set, the rank
    # correlation indexed every player's rank, and ci's cache kept its
    # interleaving trace, and 35.3 MiB while interleave still recorded every
    # round's pools; with each answer held once it is 27.7 MiB, bounded here
    # at that plus 5%
    def config(m):
        operators = ("count", "ci", "chain-min-lex", "chain-min-mon", "match-pref:row-major")
        return ExperimentConfig(m, 8, NoiseParams.symmetric(0.1), operators, trials=1, seed=0)

    run_simulation(config(6))  # imports every module the trial uses
    chain_edit._solve.cache_clear()
    tracemalloc.start()
    try:
        results = run_simulation(config(64000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        chain_edit._solve.cache_clear()
    costs = [results[op]["edit_cost"] for op in ("ci", "chain-min-lex", "match-pref:row-major")]
    assert costs == [67878.0, 38260.0, 38260.0]
    assert peak <= 29.1 * MB, f"peak traced memory {peak / MB:.2f} MB exceeds 29.1 MB"


def test_exam_shape_read():
    # 64,000 lines of 8 cells hold at most 256 distinct lines: a list of ints
    # per line, each then checked and ORed into its mask, peaked at 16.7 MiB
    # here; parsing each distinct line once it is 5.1 MiB, bounded here at
    # that plus 10%
    text = to_csv(sample_tournament(sample_state(64000, 8, 1), NoiseParams.symmetric(0.1), 8))
    tracemalloc.start()
    try:
        K = parse_csv(text).tournament
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (K.rows, len(set(K.row_masks))) == (64000, 253)
    assert K == parse_csv_by_rows(text).tournament
    assert peak <= 5.6 * MB, f"peak traced memory {peak / MB:.2f} MB exceeds 5.6 MB"


def test_scope_verdicts_keep_one_pair_per_distinct_answer():
    # 592 tournaments have 199 distinct ranking pairs of 13 distinct orders,
    # and chain-minimality lists no optimum set; a memo keyed on the
    # tournaments, with one order object per pair, took 0.64 MB here
    op = resolve_operator("chain-min-lex")
    scope = Scope(exhaustive=((2, 2), (2, 3), (3, 3)))
    scope_verdicts(op, scope)  # imports every module the checks use
    chain_edit._solve.cache_clear()
    tracemalloc.start()
    try:
        verdicts = scope_verdicts(op, scope)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [v.holds for v in verdicts] == [False, False, False, True, False, True, True]
    assert peak <= 0.4 * MB, f"peak traced memory {peak / MB:.2f} MB exceeds 0.4 MB"
