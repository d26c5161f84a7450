"""Achievable rate regions and proportional-fair cell simulation for
power-domain NOMA where the strong user of each pair acts as a full-duplex
relay for the weak one.

Four component-channel schemes are covered: plain superposition with SIC
(GBC), decode-and-forward relaying (RBC-DF), compress-and-forward relaying
(RBC-CF) and compress-and-forward with transmitter-side dirty-paper
pre-cancellation (RBC-CF-DPC).  A log-determinant Gaussian
mutual-information oracle checks every closed form; an exact discrete
evaluator computes the bound expressions for finite-alphabet joints.
"""

__version__ = "0.1.0"

from .core import (
    LN2,
    ChannelParams,
    CompressionNoise,
    LinkGains,
    PowerSplit,
    RatePair,
    Scheme,
    is_degraded_ordered,
)
from .rates import (
    RateRegionCurve,
    rbc_cf_rates,
    sweep_region,
    uniform_alpha_grid,
)
from .oracle import GaussianSystem, gaussian_mi
from .discrete import BoundRates, DiscreteJoint, dmc_bound_rates, load_discrete_joint
from .scheduling import pf_update
from .simulation import (
    SimConfig,
    SimResult,
    generate_topology,
    run_experiment,
    write_results_csv,
)
