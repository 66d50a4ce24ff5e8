"""Named ranking operators and their registry.

Every operator maps a tournament to a pair of total preorders (weakest rank
first on both sides). Operators backed by exact chain editing also expose the
chain tournament they selected; the cardinality interleaving operator exposes
its greedy chain for edit-cost reporting only.

The canonical total order used wherever an arbitrary tie-break over
tournaments is needed is row-major lexicographic on cells (smaller size
first), one global reproducible convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

# each operator imports the engine it runs, so resolving one loads only that
from .core import OPERATOR_NAMES, Tournament, canonical_key, chain_rankings, dual
from .errors import InputError
from .rankings import RankingPair, phi_count

if TYPE_CHECKING:
    from .match_pref import MatchPreference


@dataclass(frozen=True)
class OperatorSpec:
    """A named operator; evaluate is total and deterministic within the size cap.

    Unlike the other value types this is still a dataclass:
    axiom_lab._with_memo and perfbench/tracing.py swap its callables
    with dataclasses.replace.
    """

    name: str
    evaluate: Callable[[Tournament], RankingPair]
    choice: Callable[[Tournament], Tournament] | None = None
    edit_chain: Callable[[Tournament], Tournament] | None = None


def _well_formed(name: str, fn: Callable[[Tournament], RankingPair]):
    def evaluate(K: Tournament) -> RankingPair:
        pair = fn(K)
        if pair.a_order.players != frozenset(range(1, K.rows + 1)):
            raise AssertionError(f"operator {name} returned a malformed A ranking")
        if pair.b_order.players != frozenset(range(1, K.cols + 1)):
            raise AssertionError(f"operator {name} returned a malformed B ranking")
        return pair

    return evaluate


def _exact_operator(name: str, choice: Callable[[Tournament], Tournament], dual_choice=None) -> OperatorSpec:
    """An operator that ranks by its chosen chain tournament; evaluate, choice
    and edit_chain share one pick of the last tournament. Given dual_choice, only
    a canonical K, one smaller than dual(K) under the global order, takes
    choice(K), and any other K takes dual_choice(K)."""

    def canonical_or_dual(K: Tournament) -> Tournament:
        # keys lead with the row count, so only a square K needs them built
        canonical = K.rows < K.cols or (K.rows == K.cols and canonical_key(K) < canonical_key(dual(K)))
        return choice(K) if canonical else dual_choice(K)

    pick = functools.lru_cache(maxsize=1)(choice if dual_choice is None else canonical_or_dual)
    return OperatorSpec(
        name,
        _well_formed(name, lambda K: chain_rankings(pick(K))),
        choice=pick,
        edit_chain=pick,
    )


def phi_ci(K: Tournament) -> RankingPair:
    from .interleave import ci_selection, interleave

    return interleave(K, ci_selection())


def count_operator() -> OperatorSpec:
    return OperatorSpec("count", _well_formed("count", phi_count))


def _chain_min_operator(name: str, cap: int | None) -> OperatorSpec:
    """chain-min-lex, chain-min-mon or chain-min-dual: monotone_min_chain's
    pick, for chain-min-dual on a canonical K only.

    chain-min-dual is dual_symmetrized(chain_min_lex_operator(cap)) from one
    solve: a non-canonical K takes dual(M), M the least member of
    min_chain_set(dual(K)) = dual(min_chain_set(K)). M's row-major cells are
    dual(M)'s column-major cells flipped, so dual(M) is K's least_member in
    the named column-major order under an all-ones flip, which lists no cell.
    """
    from .chain_edit import monotone_min_chain
    from .picks import COL_MAJOR, least_member

    def dual_least(K: Tournament) -> Tournament:
        return least_member(K, COL_MAJOR, Tournament(K.rows, K.cols, ((1 << K.cols) - 1,) * K.rows), cap)

    least = functools.partial(monotone_min_chain, cap=cap)
    return _exact_operator(name, least, dual_least if name == "chain-min-dual" else None)


def chain_min_lex_operator(cap: int | None = None) -> OperatorSpec:
    return _chain_min_operator("chain-min-lex", cap)


def chain_min_mon_operator(cap: int | None = None) -> OperatorSpec:
    return _chain_min_operator("chain-min-mon", cap)


def match_pref_operator(pref: MatchPreference, cap: int | None = None, label: str = "") -> OperatorSpec:
    from .match_pref import select_match_pref

    return _exact_operator(label or "match-pref", lambda K: select_match_pref(K, pref, cap))


def ci_operator() -> OperatorSpec:
    """ci's rankings, and its greedy chain for edit costs, from one interleaving
    run; the cache keeps the ranking pair of the last tournament, and the greedy
    chain is read off that pair's ranks."""
    from .interleave import _greedy_chain

    run = functools.lru_cache(maxsize=1)(phi_ci)
    return OperatorSpec("ci", _well_formed("ci", run), edit_chain=lambda K: _greedy_chain(K, run(K)))


def dual_symmetrized(base: OperatorSpec) -> OperatorSpec:
    """Wrap a choice-function operator so duality holds.

    Exactly one of K and its dual is canonical (smaller under the global
    order). Canonical tournaments keep the base choice; the others inherit
    the dual of the base choice on their dual. The result still picks a
    closest chain tournament and its column ranking of K always equals its
    row ranking of the dual.
    """
    if base.choice is None:
        raise InputError(
            f"operator {base.name} does not expose a choice function; "
            "cannot dual-symmetrize"
        )

    return _exact_operator(f"dual-sym({base.name})", base.choice, lambda K: dual(base.choice(dual(K))))


def resolve_operator(name: str, cap: int | None = None) -> OperatorSpec:
    """Look up an operator by CLI name."""
    if name == "count":
        return count_operator()
    if name in ("chain-min-lex", "chain-min-mon", "chain-min-dual"):
        return _chain_min_operator(name, cap)
    if name == "ci":
        return ci_operator()
    if name.startswith("match-pref:"):
        from .match_pref import ORDER_ALIASES, parse_order_name

        rest = name.split(":", 1)[1]
        if rest in ORDER_ALIASES:
            pref = parse_order_name(rest)
        else:
            from .fileio import load_match_preference

            pref = load_match_preference(rest)
        return match_pref_operator(pref, cap, label=name)
    raise InputError(
        f"unknown operator {name!r}; known operators: {', '.join(OPERATOR_NAMES)}"
    )
