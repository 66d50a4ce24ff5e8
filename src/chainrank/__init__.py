"""chainrank: ranking both sides of a bipartite tournament.

Exact chain editing and its relaxations: the full closest-chain set,
deterministic match-preference selections, maximum likelihood search under a
binary noise channel, interleaving (chain-definable) operators including the
cardinality-based one, and a lab that machine-checks the social-choice axioms.
"""

from .chain_edit import (
    DEFAULT_ENUM_CAP,
    MinChainSet,
    all_chain_tournaments,
    chain_completion,
    chain_deletion,
    min_chain_distance,
    min_chain_set,
    monotone_min_chain,
    swap_rows,
    weighted_min_chain,
)
from .core import (
    RankingPair,
    TotalPreorder,
    Tournament,
    all_tournaments,
    canonical_key,
    chain_rankings,
    co_neighborhood,
    dual,
    format_preorder,
    format_ranking_pair,
    hamming,
    has_chain_property,
    neighborhood,
    permute,
    rank_count,
    xor,
)
from .errors import (
    AmbiguityError,
    ChainRankError,
    ContractError,
    InputError,
    NotChainError,
    ResourceCapError,
)
from .interleave import (
    InterleaveTrace,
    SelectionFunctionPair,
    ci_selection,
    greedy_chain_tournament,
    interleave,
    is_chain_definable,
    ranks_to_chain,
    selection_from_rankings,
    take_everything_selection,
)
from .match_pref import (
    MatchPreference,
    rank_match_pref,
    select_match_pref,
    vectorize,
    weight_fractions,
    weights_for,
)
from .operators import OperatorSpec, dual_symmetrized, phi_ci, phi_count, resolve_operator
from .prob_model import (
    NoiseParams,
    StateOfWorld,
    canonical_state,
    k_theta,
    likelihood,
    log_likelihood,
    mle_search,
    sample_state,
    sample_tournament,
)

__version__ = "0.1.0"
