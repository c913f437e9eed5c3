"""Scenario-level studies: what knowledge and leadership are worth.

The knowledge evaluator maps a per-user knowledge level to the policy that
level supports and prices the induced outcome: private knowledge plays
best-response/Nash, one better-informed leader plays the commitment
solution, and jointly complete knowledge plays the welfare-maximizing
point.  The ensemble study repeats the Nash-versus-leadership comparison
over randomly drawn multipath channels and reports the rate ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnsembleUnstableError, SpectrumGameError
from .matrix_games import NormalFormGame, best_response_dynamics, stackelberg_finite
from .power_games import (
    RegionSample,
    iterative_water_filling,
    pareto_sweep,
    stackelberg_leader_search,
)
from .spectrum import (
    FrequencyGrid, NoiseProfile, PowerBudget, PowerScenario, _integer, generate_multipath_channels,
)

__all__ = [
    "KNOWLEDGE_LEVELS",
    "KnowledgeProfile",
    "EnsembleReport",
    "value_of_knowledge",
    "channel_ensemble_study",
    "region_comparison",
]

KNOWLEDGE_LEVELS = ("private", "heterogeneous_leader", "complete")


@dataclass(frozen=True, eq=False)
class KnowledgeProfile:
    """Per-user knowledge level; at most one leader, complete is all-or-none."""

    levels: tuple

    def __post_init__(self):
        levels = tuple(str(v) for v in self.levels)
        for v in levels:
            if v not in KNOWLEDGE_LEVELS:
                raise ValueError(f"unknown knowledge level {v!r}")
        if sum(v == "heterogeneous_leader" for v in levels) > 1:
            raise ValueError("at most one user can be the better-informed leader")
        if any(v == "complete" for v in levels) and not all(v == "complete" for v in levels):
            raise ValueError("complete knowledge applies to all users jointly or none")
        object.__setattr__(self, "levels", levels)

    @property
    def leader(self):
        for i, v in enumerate(self.levels):
            if v == "heterogeneous_leader":
                return i
        return None

    @property
    def complete(self) -> bool:
        return all(v == "complete" for v in self.levels)


@dataclass(frozen=True, eq=False)
class EnsembleReport:
    """Rate ratios of leadership over Nash across channel realizations."""

    ratios: np.ndarray  # (realizations, 2): each user's leader rate over its Nash rate
    skipped: int

    @property
    def realizations(self) -> int:
        return len(self.ratios)

    @property
    def means(self) -> np.ndarray:
        return self.ratios.mean(axis=0)


def value_of_knowledge(
    scenario,
    profile: KnowledgeProfile,
    start_profile=None,
) -> np.ndarray:
    """Utility vector induced when each user plays what its knowledge supports.

    Finite games: all-private runs best-response dynamics from the configured
    start; a leader plays the commitment equilibrium; complete knowledge
    plays the profile maximizing the utility sum, lexicographically first
    on ties.  Continuous power scenarios: iterative water-filling, the
    leader-commitment search, and the equal-weight rate-sum oracle
    respectively, each at its own default settings; these take no
    `start_profile`.
    """
    if isinstance(scenario, NormalFormGame):
        if profile.complete:
            welfare = scenario.payoffs.sum(axis=-1)
            best = np.unravel_index(np.argmax(welfare), scenario.action_counts)
            return scenario.payoff_vector(best)
        if profile.leader is not None:
            _, utilities = stackelberg_finite(scenario, profile.leader)
            return utilities
        reached = best_response_dynamics(scenario, start_profile)
        return scenario.payoff_vector(reached)

    if not isinstance(scenario, PowerScenario):
        raise ValueError("scenario must be a NormalFormGame or a PowerScenario")
    if start_profile is not None:
        raise ValueError("start_profile applies to finite games; a PowerScenario has no actions")
    if scenario.user_count != 2:
        raise ValueError("continuous knowledge evaluation supports two users")
    ch, noise, budgets, grid = scenario.channels, scenario.noise, scenario.budgets, scenario.grid
    if profile.complete:
        return pareto_sweep([(1.0, 1.0)], ch, noise, budgets, grid)[0].rates
    if profile.leader is not None:
        return stackelberg_leader_search(profile.leader, ch, noise, budgets, grid).rates
    res = iterative_water_filling(ch, noise, budgets, grid)
    if not res.converged:
        raise SpectrumGameError("iterative water-filling did not converge on this scenario")
    return res.rates


def channel_ensemble_study(
    realizations: int,
    seed: int,
    grid: FrequencyGrid,
    budgets: PowerBudget,
    tap_count: int = 4,
    noise_level: float = 1.0,
    direct_power: float = 1.0,
    cross_power: float = 0.5,
    leader: int = 0,
) -> EnsembleReport:
    """Leadership-versus-Nash rate ratios over random multipath channels.

    Direct links carry unit total tap power and cross links half, the
    classic moderate-interference normalization.  Realizations where
    iterative water-filling fails to converge are skipped and redrawn (with
    the skip counted); once skips exceed the requested count the ensemble is
    declared unstable.  Each draw derives its own stream from (seed, attempt
    index), so reports are reproducible; the leader search runs at its
    default settings.
    """
    _integer(realizations, "realizations", 1)
    _integer(seed, "seed", 0)
    noise = NoiseProfile.flat(noise_level, 2, grid.bin_count)
    ratios = np.zeros((realizations, 2))
    collected = 0
    attempt = 0
    skipped = 0
    while collected < realizations:
        if skipped > realizations:
            raise EnsembleUnstableError(
                f"ensemble unstable: {skipped} skips before {realizations} usable realizations"
            )
        stream = np.random.SeedSequence(entropy=int(seed), spawn_key=(attempt,))
        attempt += 1
        ch = generate_multipath_channels(
            stream, grid, tap_count, user_count=2,
            direct_power=direct_power, cross_power=cross_power,
        )
        led = stackelberg_leader_search(leader, ch, noise, budgets, grid)
        if not led.nash.converged:
            skipped += 1
            continue
        ratios[collected] = led.rates / led.nash.rates
        collected += 1
    return EnsembleReport(ratios=ratios, skipped=skipped)


def region_comparison(
    scenario: PowerScenario,
    budget_pairs,
    weight_list,
    leader: int = 0,
    levels: int = 10,
) -> list:
    """Joined Nash / leadership / Pareto table for one scenario.

    Nash and leadership samples sweep the budget pairs, with one leader
    search per pair: its Nash row is the iterative-water-filling point the
    search starts from.  Pareto samples sweep the weight vectors at the
    scenario's own budgets.  `levels` sets both grids; the leader search
    keeps its other defaults.  A budget pair whose iterative water-filling
    does not converge has no Nash point to report and raises
    SpectrumGameError naming the pair.
    """
    if scenario.user_count != 2:
        raise ValueError("region comparison supports two users")
    ch, noise, grid = scenario.channels, scenario.noise, scenario.grid
    nash: list[RegionSample] = []
    led: list[RegionSample] = []
    for pair in budget_pairs:
        params = tuple(float(p) for p in pair)
        res = stackelberg_leader_search(
            leader, ch, noise, PowerBudget(np.asarray(pair, dtype=float)), grid, levels=levels
        )
        if not res.nash.converged:
            raise SpectrumGameError(f"iterative water-filling did not converge at budget pair {params}")
        nash.append(RegionSample("iw", params, res.nash.rates))
        led.append(RegionSample("stackelberg", params, res.rates))
    return nash + led + pareto_sweep(weight_list, ch, noise, scenario.budgets, grid, levels=levels)
