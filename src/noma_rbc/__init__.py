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

# the benchmark's API; everything else is imported from its module
from .core import ChannelParams, CompressionNoise, LinkGains, PowerSplit
from .rates import rbc_cf_rates
