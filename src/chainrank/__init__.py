"""chainrank: ranking both sides of a bipartite tournament.

Exact chain editing and its relaxations: the full closest-chain set,
deterministic match-preference selections, maximum likelihood search under a
binary noise channel, interleaving (chain-definable) operators including the
cardinality-based one, and a lab that machine-checks the social-choice axioms.

Importing the package is cheap: each name below is imported from its defining
module on first access (PEP 562), so a caller loads only the engines it uses.
"""

import importlib
import sys
import types


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # `interleave` names both a submodule and an exported function; the
        # import system binds each submodule it loads to the package, which
        # must not replace the function
        if name != "interleave" or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

_EXPORTS = {
    "chain_edit": (
        "DEFAULT_ENUM_CAP",
        "MinChainSet",
        "all_chain_tournaments",
        "chain_completion",
        "chain_deletion",
        "min_chain_distance",
        "min_chain_set",
        "monotone_min_chain",
        "swap_rows",
        "weighted_min_chain",
    ),
    "core": (
        "Tournament",
        "all_tournaments",
        "canonical_key",
        "chain_rankings",
        "co_neighborhood",
        "dual",
        "hamming",
        "has_chain_property",
        "neighborhood",
        "permute",
        "xor",
    ),
    "errors": (
        "AmbiguityError",
        "ChainRankError",
        "ContractError",
        "InputError",
        "NotChainError",
        "ResourceCapError",
    ),
    "interleave": (
        "SelectionFunctionPair",
        "ci_selection",
        "greedy_chain_tournament",
        "interleave",
        "is_chain_definable",
        "ranks_to_chain",
        "selection_from_rankings",
        "take_everything_selection",
    ),
    "match_pref": (
        "MatchPreference",
        "rank_match_pref",
        "select_match_pref",
        "vectorize",
        "weight_fractions",
        "weights_for",
    ),
    "operators": ("OperatorSpec", "dual_symmetrized", "phi_ci", "resolve_operator"),
    "prob_model": (
        "NoiseParams",
        "StateOfWorld",
        "canonical_state",
        "k_theta",
        "likelihood",
        "log_likelihood",
        "mle_search",
        "sample_state",
        "sample_tournament",
    ),
    "rankings": (
        "RankingPair",
        "TotalPreorder",
        "format_preorder",
        "format_ranking_pair",
        "phi_count",
        "rank_count",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _EXPORTS:  # `chainrank.core` and the like, without importing them first
            return importlib.import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
