"""Peak traced memory of the member-listing commands on a planted 71x6 chain.

The optimum set has 2,048 members, and its JSON listing is about 2.9 MB.
The commands write it one member at a time, and chain-min-mon stops at its
first qualifying member, so neither may hold the whole listing or expand
the whole set.
"""

import contextlib
import hashlib
import json
import random
import tracemalloc

import pytest

from chainrank import chain_edit, chain_rankings
from chainrank.cli import main
from chainrank.fileio import to_csv

from helpers import planted_chain

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
