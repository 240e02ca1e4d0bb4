"""Delivery-secrecy tradeoff toolkit for cache-enabled stochastic networks.

Closed-form hit and secrecy probabilities, the globally optimal
probabilistic content placement under per-file secrecy constraints, and a
Monte Carlo simulator for validating the closed forms.
"""

from .analytic import (
    DerivedConstants,
    NetworkParams,
    conditional_hit_probability,
    db_to_linear,
    derive_constants,
    hit_probability,
    placement_cap,
    secrecy_probability_exact,
    secrecy_probability_lower_bound,
)
from .catalog import (
    CatalogError,
    FileCatalog,
    PlacementPolicy,
    make_catalog,
    sample_secrecy_levels,
    zipf_popularity,
)
from .optimizer import (
    OcpSolution,
    lcc_placement,
    mpc_placement,
    solve_ocp,
)
from .simulator import (
    SimConfig,
    SimEstimate,
    simulate_file_hit,
    simulate_file_secrecy,
)
from .special import ConvergenceError, hyp2f1_1b

__version__ = "0.1.0"
