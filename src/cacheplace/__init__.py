"""Delivery-secrecy tradeoff toolkit for cache-enabled stochastic networks.

Closed-form hit and secrecy probabilities, the globally optimal
probabilistic content placement under per-file secrecy constraints, and a
Monte Carlo simulator for validating the closed forms.
"""

from .analytic import *  # noqa: F403
from .catalog import *  # noqa: F403
from .optimizer import *  # noqa: F403
from .simulator import *  # noqa: F403
from .special import *  # noqa: F403

__version__ = "0.1.0"
