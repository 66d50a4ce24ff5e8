"""The noise-channel recovery experiment: each trial scores every operator's
rankings of a sampled observation against its state's true rankings."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import ALL_METRICS, _Value, chain_rankings, hamming
from .errors import InputError, ResourceCapError

if TYPE_CHECKING:
    from .prob_model import NoiseParams
    from .rankings import TotalPreorder

# most cells m x n a simulated tournament may hold; at 262,144x8, five
# operators take about 147 MB
SIMULATE_CELL_CAP = 1 << 21


def kendall_tau_b(p: TotalPreorder, q: TotalPreorder) -> float:
    """Tie-aware rank correlation over the pair classification of two preorders
    of the same players; preorders of different players raise InputError.

    The players are counted per cell (rank in p, rank in q), a cell's count
    being the size of the two ranks' intersection. Two players of different
    cells are concordant or discordant by the sign of (px - py)(qx - qy), so
    each pair of cells adds the product of their counts, and a preorder's
    ties are the pairs within each of its ranks. That is one intersection per
    pair of ranks, and quadratic in the cells met, of which there are at most
    as many as players.
    """
    counted = [(px, qx, c) for px, a in enumerate(p.ranks) for qx, b in enumerate(q.ranks) if (c := len(a & b))]
    players = sum(c for _, _, c in counted)
    if players != sum(map(len, p.ranks)) or players != sum(map(len, q.ranks)):
        raise InputError("the two preorders rank different players")
    concordant = discordant = 0
    for i, (px, qx, cx) in enumerate(counted):
        for py, qy, cy in counted[i + 1 :]:
            sign = (px - py) * (qx - qy)
            if sign > 0:
                concordant += cx * cy
            elif sign < 0:
                discordant += cx * cy
    total = players * (players - 1) // 2
    ties_p, ties_q = (sum(len(r) * (len(r) - 1) // 2 for r in o.ranks) for o in (p, q))
    denom = math.sqrt((total - ties_p) * (total - ties_q))
    if denom == 0:
        return 0.0
    return (concordant - discordant) / denom


class ExperimentConfig(_Value):
    m: int
    n: int
    alpha: NoiseParams
    operator_names: tuple[str, ...]
    trials: int
    seed: int
    metrics: tuple[str, ...] = ALL_METRICS

    def _check(self) -> None:
        if self.trials < 1:
            raise InputError("trials must be at least 1")
        # a size below 1x1 is refused as an input error when sampling
        if min(self.m, self.n) > 0 and self.m * self.n > SIMULATE_CELL_CAP:
            raise ResourceCapError(
                f"simulate {self.m}x{self.n} holds {self.m * self.n} cells, "
                f"over the cap of {SIMULATE_CELL_CAP}"
            )
        for metric in self.metrics:
            if metric not in ALL_METRICS:
                raise InputError(f"unknown metric {metric!r}")
        for kind, names in (("operator", self.operator_names), ("metric", self.metrics)):
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise InputError(f"{kind} {name!r} is listed more than once")


def _run_trial(config: ExperimentConfig, specs, trial: int) -> dict:
    from .prob_model import derive_seed, k_theta, sample_state, sample_tournament

    theta = sample_state(config.m, config.n, derive_seed(config.seed, trial, 0))
    observed = sample_tournament(theta, config.alpha, derive_seed(config.seed, trial, 1))
    truth = chain_rankings(k_theta(theta))
    row: dict = {}
    for spec in specs:
        predicted = spec.evaluate(observed)
        values: dict = {}
        if "exact_match" in config.metrics:
            values["exact_match"] = 1.0 if predicted == truth else 0.0
        if "tie_aware_rank_correlation" in config.metrics:
            values["tie_aware_rank_correlation"] = 0.5 * (
                kendall_tau_b(truth.a_order, predicted.a_order)
                + kendall_tau_b(truth.b_order, predicted.b_order)
            )
        if "edit_cost" in config.metrics:
            values["edit_cost"] = (
                float(hamming(observed, spec.edit_chain(observed)))
                if spec.edit_chain
                else None
            )
        row[spec.name] = values
    return row


def run_simulation(config: ExperimentConfig, cap: int | None = None):
    """Mean metric per operator; per-trial RNG streams derive from (seed, trial)."""
    from .operators import resolve_operator

    specs = [resolve_operator(name, cap) for name in config.operator_names]
    # a running total per operator and metric, added in trial order from 0 as
    # sum() adds before Python 3.12, so the means are bit-identical on every
    # version and memory does not grow with the trials
    totals = {spec.name: dict.fromkeys(config.metrics, 0) for spec in specs}
    for trial in range(config.trials):
        for name, values in _run_trial(config, specs, trial).items():
            total = totals[name]
            for metric, value in values.items():
                total[metric] = None if value is None else total[metric] + value
    return {
        name: {metric: None if t is None else t / config.trials for metric, t in total.items()}
        for name, total in totals.items()
    }
