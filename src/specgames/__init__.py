"""Game-theoretic spectrum sharing over frequency-selective interference channels.

Computes Nash (iterative water-filling), Stackelberg, Pareto and correlated
equilibrium outcomes for multi-user power control, and runs the strategic
learning dynamics (regret matching, fictitious play, reinforcement) that
approach them.
"""

from .errors import (
    DegenerateGameError,
    EnsembleUnstableError,
    NoPureNashError,
    NoUsableSpectrumError,
    OracleScaleError,
    ScenarioError,
    SpectrumGameError,
)
from .experiments import (
    KNOWLEDGE_LEVELS,
    EnsembleReport,
    KnowledgeProfile,
    channel_ensemble_study,
    region_comparison,
    value_of_knowledge,
)
from .learning import (
    LEARNER_KINDS,
    Learner,
    LearningTrace,
    empirical_joint_distribution,
    make_learner,
    regret_vector,
    run_repeated_game,
    value_of_learning,
)
from .matrix_games import (
    JointDistribution,
    MixedStrategy,
    NormalFormGame,
    best_response,
    best_response_dynamics,
    build_contention_game,
    build_power_game_2x2,
    concentrate_spread_game,
    discretize_power_game,
    is_correlated_equilibrium,
    mixed_nash_2x2,
    optimize_ce,
    pure_nash,
    stackelberg_finite,
    strictly_dominant_action,
)
from .power_games import (
    IwResult,
    RegionSample,
    StackelbergResult,
    follower_response_rates,
    grid_dominance_margin,
    iterative_water_filling,
    pareto_sweep,
    stackelberg_leader_search,
)
from .scenario import ScenarioDocument, load_scenario, parse_scenario
from .spectrum import (
    ChannelSet,
    FrequencyGrid,
    NoiseProfile,
    PowerAllocation,
    PowerBudget,
    PowerScenario,
    achievable_rate,
    effective_noise,
    generate_multipath_channels,
    two_channel_scenario,
    water_fill,
)

__version__ = "0.1.0"
