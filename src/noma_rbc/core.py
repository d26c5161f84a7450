"""Domain types, validity checks and the role ordering of the two-user downlink.

One base station serves two users per resource block.  The relay user
(index 1) has the stronger link and may also retransmit; the second user
(index 2) is the weaker one, as ``is_degraded_ordered`` checks (the
power-domain NOMA condition follows from it).  Only squared channel
magnitudes enter any rate expression, so gains are non-negative power
gains and complex fading phases exist only inside the fading generator.

All user-facing rates are bits per channel use (base-2 logs).  ``LN2`` is
the single conversion constant between bits and the nats used by the
mutual-information oracle.

Everything here is an immutable value; every operation is a pure function.
``ChannelParams`` carries the powers into every rate formula, and the rest
travels as plain floats and arrays, which ``config`` checks.  ``LinkGains``,
``PowerSplit``, ``CompressionNoise`` and ``RatePair`` are the benchmark's
API only: outside this module, only ``rates.rbc_cf_rates`` uses them.
``open_replaced``, the one way the commands open an output file, is the
only function here with an effect.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

LN2 = math.log(2.0)

# A set of named random variables for the information evaluators: one name
# or a sequence of names.
VarSpec = Union[str, Sequence[str]]

# The RBC-CF information terms as (left, right, given) triples, read by the
# Gaussian oracle and the discrete evaluator alike:
#   r1 <= I(U; Y1),
#   r2 <= min(I(V; Y1HAT, Y2 | X1), I(V, X1; Y2) - I(Y1HAT; Y1 | V, X1, Y2)).
CF_TERMS = {
    "r1": ("U", "Y1", ()),
    "cutset": ("V", ("Y1HAT", "Y2"), "X1"),
    "forward": (("V", "X1"), "Y2", ()),
    "loss": ("Y1HAT", "Y1", ("V", "X1", "Y2")),
}


def as_names(spec: VarSpec) -> tuple[str, ...]:
    if isinstance(spec, str):
        return (spec,)
    return tuple(spec)


class Scheme(Enum):
    """Component-channel scheme serving one scheduled pair."""

    GBC = "gbc"
    RBC_DF = "rbc-df"
    RBC_CF = "rbc-cf"
    RBC_CF_DPC = "rbc-cf-dpc"

    @property
    def label(self) -> str:
        return self.value

    @property
    def uses_compression(self) -> bool:
        return self in _COMPRESSING

    @property
    def uses_relay(self) -> bool:
        """True when the relay user transmits, so that r2 reads the relay
        link g12 and the relay power p1."""
        return self is not Scheme.GBC


# built once: ``uses_compression`` runs per r2 segment of every stage
_COMPRESSING = (Scheme.RBC_CF, Scheme.RBC_CF_DPC)


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LinkGains:
    """Power gains |h|^2 of the three links: BS to relay user (g01), BS to
    second user (g02) and relay user to second user (g12)."""

    g01: float
    g02: float
    g12: float = 0.0

    def __post_init__(self):
        for name in ("g01", "g02", "g12"):
            value = getattr(self, name)
            _check_finite(name, value)
            if value < 0.0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class ChannelParams:
    """Transmit and noise powers, all linear watts."""

    p0: float          # BS transmit power
    p1: float = 0.0    # relay-user transmit power
    n1: float = 1.0    # noise power at the relay user
    n2: float = 1.0    # noise power at the second user

    def __post_init__(self):
        for name in ("p0", "p1", "n1", "n2"):
            _check_finite(name, getattr(self, name))
        if self.p0 <= 0.0:
            raise ValueError(f"p0 must be positive, got {self.p0!r}")
        if self.p1 < 0.0:
            raise ValueError(f"p1 must be non-negative, got {self.p1!r}")
        for name in ("n1", "n2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class PowerSplit:
    """Fraction ``alpha`` of BS power on the relay user's message; the rest
    (``alpha_bar``) goes to the second user's message."""

    alpha: float

    def __post_init__(self):
        _check_finite("alpha", self.alpha)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")

    @property
    def alpha_bar(self) -> float:
        return 1.0 - self.alpha


@dataclass(frozen=True)
class CompressionNoise:
    """Variance of the quantisation noise added to the relay user's
    compressed observation before forwarding."""

    n_hat: float

    def __post_init__(self):
        _check_finite("n_hat", self.n_hat)
        if self.n_hat <= 0.0:
            raise ValueError(f"n_hat must be positive, got {self.n_hat!r}")


@dataclass(frozen=True)
class RatePair:
    """Achievable rates in bits/channel use: r1 for the relay user, r2 for
    the second user."""

    r1: float
    r2: float

    def __post_init__(self):
        for name in ("r1", "r2"):
            value = getattr(self, name)
            _check_finite(name, value)
            if value < 0.0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")


def is_degraded_ordered(g01: float, g02: float, params: ChannelParams) -> bool:
    """True when g01/n1 >= g02/n2, the role ordering every rate formula
    assumes (relay user = noise-normalised strong user)."""
    return g01 * params.n2 >= g02 * params.n1


def open_replaced(path):
    """``path`` opened for writing text as a new file: a file already there
    is unlinked, not truncated, so a hard link to it keeps its bytes.
    Truncating a file written moments before can wait on its writeback;
    unlinking it and creating a new one does not."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", newline="", encoding="utf-8")
