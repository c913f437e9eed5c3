"""Game-theoretic spectrum sharing over frequency-selective interference channels.

Computes Nash (iterative water-filling), Stackelberg, Pareto and correlated
equilibrium outcomes for multi-user power control, and runs the strategic
learning dynamics (regret matching, fictitious play, reinforcement) that
approach them.
"""

from .errors import *
from .experiments import *
from .learning import *
from .matrix_games import *
from .power_games import *
from .scenario import *
from .spectrum import *

__version__ = "0.1.0"
