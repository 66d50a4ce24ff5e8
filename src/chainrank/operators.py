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

import json
from dataclasses import dataclass
from typing import Callable

from . import match_pref as mp
from .chain_edit import least_member, monotone_min_chain
from .core import (
    OPERATOR_NAMES,
    RankingPair,
    Tournament,
    canonical_key,
    chain_rankings,
    dual,
    preorder_from_scores,
)
from .errors import InputError
from .interleave import ci_selection, greedy_chain_tournament, interleave


@dataclass(frozen=True)
class OperatorSpec:
    """A named operator; evaluate is total and deterministic within the size cap.

    Unlike the other value types this is still a dataclass: cli.cmd_axioms
    and perfbench/tracing.py swap its callables with dataclasses.replace.
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


def _exact_operator(name: str, choice: Callable[[Tournament], Tournament]) -> OperatorSpec:
    """An operator that ranks by its chosen chain tournament.

    evaluate, choice and edit_chain share one solve: the last (tournament,
    chain) pair is kept as one tuple, so a thread never reads half of an
    update, and a miss only solves again.
    """
    last = (None, None)

    def once(K: Tournament) -> Tournament:
        nonlocal last
        seen, chain = last
        if seen != K:
            chain = choice(K)
            last = (K, chain)
        return chain

    return OperatorSpec(
        name,
        _well_formed(name, lambda K: chain_rankings(once(K))),
        choice=once,
        edit_chain=once,
    )


def phi_count(K: Tournament) -> RankingPair:
    """Rank rows by number of wins and columns by (descending) number of losses."""
    a_order = preorder_from_scores(
        range(1, K.rows + 1), lambda a: K.row_masks[a - 1].bit_count()
    )
    b_order = preorder_from_scores(
        range(1, K.cols + 1),
        lambda b: K.col_masks[b - 1].bit_count(),
        descending=True,
    )
    return RankingPair(a_order, b_order)


def canonical_min_choice(K: Tournament, cap: int | None = None) -> Tournament:
    """The canonically least closest chain tournament."""
    order = mp.MatchPreference.row_major().order(K.rows, K.cols)
    return least_member(K, order, Tournament(K.rows, K.cols, (0,) * K.rows), cap)


def phi_chain_min_lex(K: Tournament, cap: int | None = None) -> RankingPair:
    return chain_rankings(canonical_min_choice(K, cap))


def phi_chain_min_mon(K: Tournament, cap: int | None = None) -> RankingPair:
    return chain_rankings(monotone_min_chain(K, cap))


def phi_ci(K: Tournament) -> RankingPair:
    pair, _ = interleave(K, ci_selection())
    return pair


def count_operator() -> OperatorSpec:
    return OperatorSpec("count", _well_formed("count", phi_count))


def chain_min_lex_operator(cap: int | None = None) -> OperatorSpec:
    return _exact_operator("chain-min-lex", lambda K: canonical_min_choice(K, cap))


def chain_min_mon_operator(cap: int | None = None) -> OperatorSpec:
    return _exact_operator("chain-min-mon", lambda K: monotone_min_chain(K, cap))


def match_pref_operator(pref: mp.MatchPreference, cap: int | None = None, label: str = "") -> OperatorSpec:
    return _exact_operator(label or "match-pref", lambda K: mp.select_match_pref(K, pref, cap))


def ci_operator() -> OperatorSpec:
    greedy = lambda K: greedy_chain_tournament(K, ci_selection())
    return OperatorSpec("ci", _well_formed("ci", phi_ci), edit_chain=greedy)


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

    def choice(K: Tournament) -> Tournament:
        if canonical_key(K) < canonical_key(dual(K)):
            return base.choice(K)
        return dual(base.choice(dual(K)))

    return _exact_operator(f"dual-sym({base.name})", choice)


def _load_explicit_pref(path: str) -> mp.MatchPreference:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            pairs = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read match-preference file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"match-preference file {path} is not valid JSON: {exc}") from exc
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in pairs
    ):
        raise InputError("match-preference file must hold a JSON list of [row, col] pairs")
    return mp.MatchPreference.from_pairs(pairs)


def resolve_operator(name: str, cap: int | None = None) -> OperatorSpec:
    """Look up an operator by CLI name."""
    if name == "count":
        return count_operator()
    if name == "chain-min-lex":
        return chain_min_lex_operator(cap)
    if name == "chain-min-mon":
        return chain_min_mon_operator(cap)
    if name == "chain-min-dual":
        spec = dual_symmetrized(chain_min_lex_operator(cap))
        return OperatorSpec("chain-min-dual", spec.evaluate, spec.choice, spec.edit_chain)
    if name == "ci":
        return ci_operator()
    if name.startswith("match-pref:"):
        rest = name.split(":", 1)[1]
        if rest in mp.ORDER_ALIASES:
            pref = mp.parse_order_name(rest)
        else:
            pref = _load_explicit_pref(rest)
        return match_pref_operator(pref, cap, label=name)
    raise InputError(
        f"unknown operator {name!r}; known operators: {', '.join(OPERATOR_NAMES)}"
    )
