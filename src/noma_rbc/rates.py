"""Closed-form achievable rate pairs for the four component-channel schemes.

Notation: power gains g01 (BS to relay user), g02 (BS to second user), g12
(relay user to second user); BS power p0 split as ``a = alpha`` to the relay
user's message and ``ab = 1 - alpha`` to the second user's; relay transmit
power p1; noise powers n1, n2.

  GBC         r1 = log2(1 + g01*a*p0 / n1)
              r2 = log2(1 + g02*ab*p0 / (g02*a*p0 + n2))
  RBC-DF      r1 as GBC
              r2 = min(forwarding bound, relay decoding bound)
  RBC-CF      r1 = log2(1 + g01*a*p0 / (g01*ab*p0 + n1))   (no SIC at the relay user)
              r2 = min(cut-set bound, forwarding bound - compression loss), clamped at 0
  RBC-CF+DPC  r1 as GBC (transmitter-side pre-cancellation of the second
              user's component), r2 as RBC-CF

Each r2 is one ``log1p`` of a ratio, the smaller of its bounds' ratios:
for RBC-DF that is the smaller log bit for bit, as ``np.log1p`` is monotone.
The CF r2 depends on the compression-noise variance n_hat: the cut-set
bound decreases and the forwarding-minus-loss bound increases strictly in
n_hat, so the max over n_hat of their min sits at their crossing whenever
one exists.  Write s1 = g01*a*p0 and t1 = g01*ab*p0 for the two components
at the relay user, t2 = g02*ab*p0, m2 = g02*a*p0 + n2, w = g12*p1,
dd = n1*m2 + n2*s1, c = 1 + t2/m2, F = 1 + (t2 + w)/m2, e = n1*n2*s1/dd and
x = n_hat + n1.  Inside its logarithm the cut-set bound is c + t1/x; the
compression loss is x/(n_hat + e), so the forwarding-minus-loss bound is
F*(n_hat + e)/x = F - drop/x, with drop = F*n1^2*m2/dd.  The bounds are
equal where c*x + t1 = F*(n_hat + e), a linear equation whose one root, as
F - c = w/m2, is (n1*c + t1 - e*F) / (w/m2): the crossing, when that is
finite and positive, where r2 is the log of the cut-set ratio alone, a sum
of positive terms (F - 1 - drop/x cancels there).  Without one the bounds
never cross, so their min is monotone in n_hat and its best value over
``N_HAT_BRACKET`` (in units of n1) sits at the low end when the cut-set
bound binds, at the high end when the forwarding-minus-loss bound does: no
search is needed, and the high end is scored only where the latter binds
at the low end.

``rate_kernel`` evaluates one scheme over broadcastable gain and
power-split arrays, or over one pair of scalars.  This module is the only
code that knows which formulas a scheme uses: ``relay_rate`` (r1) and
``second_rate`` (r2) dispatch on it, ``relay_rate_formulas`` and
``second_rate_runs`` group the schemes that share an r1 or r2 formula,
``second_rates`` evaluates a shared r2 formula once for the scheduler's
candidate blocks, returning the kernel's arrays as they are when the
blocks form one run, and ``dominance_violation`` states what each scheme
promises over GBC.  ``sweep_region``, the one validated entry, checks an
alpha grid once, evaluates each distinct r1 formula and each r2 run over
it once, so RBC-CF and RBC-CF+DPC share one compression-noise optimum and
GBC, RBC-DF and RBC-CF+DPC one r1, and checks each distinct output once.
GBC and RBC-DF presuppose the degraded role ordering: ``sweep_region``
rejects inputs that violate it, while the kernel and its parts evaluate
the formulas literally, as the scheduler's selection metrics require.
Every entry takes gains, the power split and the compression noise as
plain floats or arrays; ``rbc_cf_rates``, a scalar kernel call on the
``core`` value classes, is the benchmark's API only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import core  # its value classes, for rbc_cf_rates alone
from .core import LN2, ChannelParams, Scheme, is_degraded_ordered

# Range of the compression-noise variance when the CF bounds never cross, in
# units of the relay user's noise power n1: the CF bounds do not change when
# every power, noise and n_hat is scaled together.
N_HAT_BRACKET = (1e-6, 1e12)


def _log2_1p(x):
    bits = np.log1p(x)
    bits /= LN2
    return bits


# ---------------------------------------------------------------------------
# array kernel (no validation, no ordering checks; arrays broadcast)

def relay_rate(scheme: Scheme, g01, params: ChannelParams, alpha):
    """r1 in bits for relay-user BS gains ``g01``: the relay user removes
    the second user's component, except under RBC-CF, which leaves it as
    noise."""
    if scheme is Scheme.RBC_CF:
        return _log2_1p(g01 * alpha * params.p0 / (g01 * (1.0 - alpha) * params.p0 + params.n1))
    return _log2_1p(g01 * alpha * params.p0 / params.n1)


def _formulas(schemes: Sequence[Scheme], key) -> tuple[tuple[Scheme, ...], list[int]]:
    """The distinct ``key`` values of ``schemes``, each as the first scheme
    that has it, and for each scheme the position of its value among
    them."""
    keys = [key(scheme) for scheme in schemes]
    distinct = list(dict.fromkeys(keys))
    return (tuple(schemes[keys.index(k)] for k in distinct),
            [distinct.index(k) for k in keys])


def relay_rate_formulas(schemes: Sequence[Scheme]) -> tuple[tuple[Scheme, ...], list[int]]:
    """The distinct r1 formulas of ``schemes``, each as the first scheme
    that uses it, and for each scheme the position of its formula among
    them.  GBC, RBC-DF and RBC-CF+DPC share one r1; RBC-CF has its own."""
    return _formulas(schemes, lambda scheme: scheme is Scheme.RBC_CF)


def _r2_formula(scheme: Scheme):
    """Equal for exactly the schemes that share an r2 formula: RBC-CF and
    RBC-CF+DPC share one."""
    return scheme.uses_compression or scheme


def second_rate_runs(schemes: Sequence[Scheme]) -> list[tuple[Scheme, ...]]:
    """``schemes`` grouped by r2 formula in order of first use, RBC-CF with RBC-CF+DPC:
    listed next to each other, a run's schemes share each ``second_rates`` call."""
    keys = [_r2_formula(scheme) for scheme in schemes]
    return [tuple(s for s, k in zip(schemes, keys) if k == key) for key in dict.fromkeys(keys)]


def _forward_ratio(g02, g12, params: ChannelParams, alpha, p1):
    """Second-user decoding bound with the relay user's help, as the ratio
    whose ``_log2_1p`` is the bound in bits."""
    return ((g02 * (1.0 - alpha) * params.p0 + g12 * p1)
            / (g02 * alpha * params.p0 + params.n2))


def _decode_ratio(g01, params: ChannelParams, alpha):
    """RBC-DF bound from the relay user having to decode the second user's
    message, as the ratio whose ``_log2_1p`` is the bound in bits."""
    return g01 * (1.0 - alpha) * params.p0 / (g01 * alpha * params.p0 + params.n1)


class _CFBounds:
    """The CF bounds of broadcastable pair arrays as ratios of the
    compression noise n_hat (``_ratios``, each bound the ``_log2_1p`` of
    its ratio), r2 at a given n_hat (``objective``) and at the best one
    (``optimum``), and the oracle's closed forms in bits (``terms``, under
    its own ``np.errstate``).  ``optimum`` enters one around the unguarded
    ``_crossing``, the root of the linear crossing equation, and
    ``_ratios``.  A temporary that feeds only the next operation, as its
    left operand, is updated in place where it already has the result's
    shape (``x = a * b; x *= c`` for ``a * b * c``), which keeps every bit
    and never writes into an input."""

    def __init__(self, g01, g02, g12, params: ChannelParams, alpha, p1):
        p0, n1, n2 = params.p0, params.n1, params.n2
        ab = 1.0 - alpha
        s2 = g02 * alpha
        s2 *= p0
        s1 = g01 * alpha
        s1 *= p0                     # relay user's component at the relay user
        t1 = g01 * ab
        t1 *= p0                     # second user's component at the relay user
        t2 = g02 * ab
        t2 *= p0                     # second user's component at the second user
        self.dd = n1 * n2 + n2 * s1 + n1 * s2
        m2 = s2                      # dd was s2's last use
        m2 += n2
        self.t1, self.m2, self.n1, self.w, self.alpha = t1, m2, n1, g12 * p1, alpha
        self.t2_m2 = t2 / m2
        self.loss_num = n1 * n1 * m2
        self.loss_off = n1 * n2 * s1
        forward = t2 + self.w
        forward /= m2
        self.forward_ratio, self.f = forward, 1.0 + forward
        self.drop = self.f * self.loss_num / self.dd    # F*n1^2*m2/dd

    def terms(self, n_hat):
        """(cut-set bound, compression loss) in bits; 0 loss where ``n_hat * dd`` overflows."""
        with np.errstate(over="ignore"):
            den = n_hat * self.dd
            den += self.loss_off
            return (_log2_1p(self.t1 / (self.n1 + n_hat) + self.t2_m2),
                    _log2_1p(self.loss_num / den))

    def _ratios(self, n_hat):
        """(cut-set, forwarding-minus-loss) ratios over their shared
        denominator x = n_hat + n1: c - 1 + t1/x and F - 1 - drop/x."""
        x = n_hat + self.n1
        return self.t1 / x + self.t2_m2, self.forward_ratio - self.drop / x

    def objective(self, n_hat):
        """``(r2, n_hat, clamped)`` at the compression noise ``n_hat``."""
        cut, fml = self._ratios(n_hat)
        return _log2_1p(np.maximum(np.minimum(cut, fml), 0.0)), n_hat, fml < 0.0

    def _crossing(self):
        # (c*(x + n1) + t1) / (x + e) = F, with F - c = w/m2 (np.divide: the
        # inputs may be Python floats, and w may be 0)
        e = self.loss_off / self.dd
        num = self.n1 * (1.0 + self.t2_m2) + self.t1 - e * self.f
        return np.divide(num, self.w / self.m2)

    def optimum(self):
        """``(r2, n_hat, clamped)`` at the best n_hat: the bounds'
        crossing, the root of the linear crossing equation where it is
        finite and positive, or, without one, the better end of
        ``N_HAT_BRACKET`` in units of n1 (the low end on ties).  At the
        crossing r2 is the cut-set ratio's alone, a sum of positive terms,
        where the forwarding-minus-loss ratio would cancel.  At alpha = 1,
        r2 is 0 for every n_hat, and n_hat = n1 is reported.

        The ratios are taken a second time, at the high end, only where
        there is no root and the forwarding-minus-loss ratio binds at the
        low end.  Elsewhere the low end's ratio is the cut-set ratio, and
        the high end's is at most its own, which is no larger: the cut-set
        ratio decreases in n_hat, in floating point too."""
        n1, alpha = self.n1, self.alpha
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            root = self._crossing()
            has = np.isfinite(root)
            has &= root > 0.0
            lo, hi = N_HAT_BRACKET[0] * n1, N_HAT_BRACKET[1] * n1
            n_hat = np.where(has, root, lo)
            if not isinstance(alpha, float) or alpha == 1.0:
                at_one = alpha == 1.0
                n_hat, has = np.where(at_one, n1, n_hat), has | at_one
            cut, fml = self._ratios(n_hat)
            ratio = np.where(has, cut, np.maximum(np.minimum(cut, fml), 0.0))
            rising = fml < cut
            rising &= ~has
            if rising.any():
                cut_hi, fml_hi = self._ratios(hi)
                ratio_hi = np.maximum(np.minimum(cut_hi, fml_hi), 0.0)
                take = rising & (ratio_hi > ratio)
                n_hat, ratio, fml = (np.where(take, hi, n_hat), np.where(take, ratio_hi, ratio),
                                     np.where(take, fml_hi, fml))
        return _log2_1p(ratio), n_hat, fml < 0.0


def second_rate(scheme: Scheme, g01, g02, g12, params: ChannelParams, alpha, n_hat=None,
                p1=None):
    """``(r2, n_hat, clamped)`` of ``scheme``: the r2 part of
    ``rate_kernel``, with its arguments and returns.  Each r2 is one
    ``_log2_1p`` of the smaller of its scheme's bound ratios."""
    p1 = params.p1 if p1 is None else p1
    if scheme is Scheme.GBC:  # the forwarding bound without the relay's help
        return _log2_1p(_forward_ratio(g02, 0.0, params, alpha, p1)), None, False
    if scheme is Scheme.RBC_DF:
        return _log2_1p(np.minimum(_forward_ratio(g02, g12, params, alpha, p1),
                                   _decode_ratio(g01, params, alpha))), None, False
    cf = _CFBounds(g01, g02, g12, params, alpha, p1)
    return cf.optimum() if n_hat is None else cf.objective(n_hat)


def rate_kernel(scheme: Scheme, g01, g02, g12, params: ChannelParams, alpha, n_hat=None,
                p1=None):
    """``(r1, r2, n_hat, clamped)`` of ``scheme`` for broadcastable gain
    arrays and a scalar or array ``alpha``.

    The relay power is ``params.p1`` unless ``p1`` is given, which may be
    an array broadcasting with the gains (one relay power per simulation
    lane).  r1 broadcasts over ``g01`` and ``alpha`` only, the rest over
    all inputs.  CF schemes use the fixed compression noise ``n_hat`` when
    it is given and the optimal one otherwise; ``clamped`` marks where the
    forwarding-minus-loss argument is negative, i.e. where the clamp of r2
    at zero acted.  Other schemes return ``n_hat`` None and ``clamped``
    False.
    """
    return (relay_rate(scheme, g01, params, alpha),
            *second_rate(scheme, g01, g02, g12, params, alpha, n_hat, p1))


def second_rates(segments, g01, g02, g12, params: ChannelParams, alpha, p1):
    """``(r2, clamped)`` of ``second_rate`` for gain arrays and relay powers
    ``p1`` whose leading axis is tiled by scheme ``segments`` (scheme,
    start, stop): one ``second_rate`` call per run of adjacent segments that
    share an r2 formula (RBC-CF and RBC-CF+DPC share one).  One run is
    returned as that call made it, ``clamped`` as a bool array of r2's
    shape; several are written into preallocated arrays."""
    # a run starts at each segment whose r2 formula differs from the one before
    firsts = [segments[0]] + [seg for before, seg in zip(segments, segments[1:])
                              if _r2_formula(seg[0]) != _r2_formula(before[0])]
    if len(firsts) == 1:
        scheme = segments[0][0]
        r2, _, clamped = second_rate(scheme, g01, g02, g12, params, alpha, p1=p1)
        return r2, clamped if scheme.uses_compression else np.zeros(r2.shape, dtype=bool)
    shape = np.broadcast(g01, g02, g12).shape
    r2, clamped = np.empty(shape), np.empty(shape, dtype=bool)
    ends = [start for _, start, _ in firsts[1:]] + [segments[-1][2]]
    for (scheme, a, _), b in zip(firsts, ends):
        r2[a:b], _, clamped[a:b] = second_rate(scheme, g01[a:b], g02[a:b], g12[a:b], params,
                                               alpha, p1=p1[a:b])
    return r2, clamped


def dominance_violation(segments, g01, g02, g12, params: ChannelParams, alpha, r1,
                        r2) -> Optional[str]:
    """None when every served pair ``(r1, r2)`` of arrays cut into scheme
    ``segments`` keeps its scheme's promise over GBC on the same BS gains,
    else a message naming the first that does not: r2 at least GBC's (less
    1e-12 bits for RBC-DF, 1e-6 for the CF optimum), and r1 equal to GBC's
    except under RBC-CF, whose relay user keeps the second user as noise."""
    for scheme, a, b in segments:
        if not scheme.uses_relay:
            continue
        x01, x02, x12, s1, s2 = (np.ravel(x[a:b]) for x in (g01, g02, g12, r1, r2))
        base_r1 = relay_rate(Scheme.GBC, x01, params, alpha)
        base_r2 = second_rate(Scheme.GBC, x01, x02, 0.0, params, alpha)[0]
        ok = s2 >= base_r2 - (1e-6 if scheme.uses_compression else 1e-12)
        if scheme is not Scheme.RBC_CF:
            ok &= s1 == base_r1
        if not ok.all():
            k = int(np.argmin(ok))
            return (f"per-pair dominance violated for {scheme.label}: "
                    f"served=({s1[k]}, {s2[k]}) baseline=({base_r1[k]}, {base_r2[k]}) "
                    f"g01={x01[k]} g02={x02[k]} g12={x12[k]} alpha={alpha}")
    return None


# ---------------------------------------------------------------------------
# the benchmark's typed entry

def rbc_cf_rates(
    gains: core.LinkGains, params: ChannelParams, split: core.PowerSplit,
    n_hat: core.CompressionNoise
) -> core.RatePair:
    """Rates when the relay user compresses and forwards its observation at
    compression noise ``n_hat``; it cannot cancel the second user's component."""
    r1, r2, _, _ = rate_kernel(Scheme.RBC_CF, gains.g01, gains.g02, gains.g12, params,
                               split.alpha, n_hat.n_hat)
    return core.RatePair(r1=float(r1), r2=float(r2))


# ---------------------------------------------------------------------------
# alpha sweeps

DEFAULT_ALPHA_POINTS = 201


def uniform_alpha_grid(n: int = DEFAULT_ALPHA_POINTS) -> tuple[float, ...]:
    if n < 2:
        raise ValueError("alpha grid needs at least 2 points")
    return tuple(np.linspace(0.0, 1.0, n).tolist())


@dataclass(frozen=True)
class RateRegionCurve:
    """Boundary curve of one scheme as equal-length arrays over the power
    split: the strictly increasing alphas, r1 and r2 in bits, and for CF
    schemes the compression noise used at each point (None otherwise)."""

    scheme: Scheme
    alphas: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    n_hat: Optional[np.ndarray] = None


def check_alpha_grid(alpha_grid: Sequence[float]) -> np.ndarray:
    """The grid as a float array; it must be non-empty, within [0, 1] and
    strictly increasing."""
    grid = np.array(alpha_grid, dtype=float)
    if not grid.size:
        raise ValueError("alpha grid is empty")
    if not np.all((grid >= 0.0) & (grid <= 1.0)):
        raise ValueError("alpha grid values must lie in [0, 1]")
    if np.any(grid[1:] <= grid[:-1]):
        raise ValueError("alpha grid must be strictly increasing")
    return grid


def _check_values(name: str, values: np.ndarray, positive: bool = False) -> None:
    """``values`` must be finite and non-negative (positive if
    ``positive``); the message names the first failing entry."""
    low = values <= 0.0 if positive else values < 0.0
    for bad, word in ((~np.isfinite(values), "finite"),
                      (low, "positive" if positive else "non-negative")):
        if np.any(bad):
            raise ValueError(f"{name} must be {word}, got {float(values[bad][0])!r}")


def sweep_region(schemes: Sequence[Scheme], g01: float, g02: float, g12: float,
                 params: ChannelParams, alpha_grid: Sequence[float],
                 n_hat: Optional[float] = None) -> list[RateRegionCurve]:
    """One curve per scheme of ``schemes``: the rate pair per grid alpha,
    the kernel's values bit for bit.  Each distinct r1 formula
    (``relay_rate_formulas``) and each r2 run (``second_rate_runs``) is
    evaluated once over the grid, so the CF pair shares one
    compression-noise optimum, or one objective at a fixed ``n_hat``.  Each distinct
    output array is checked once, in scheme order, and a curve that
    shares an array with an earlier one holds a copy of it, the alpha grid
    included.

    For CF schemes the compression noise is the fixed ``n_hat`` when one
    is given, and is optimised per point otherwise.  Gains that violate
    the degraded ordering are rejected when a scheme presupposes it.
    Rates must come out finite and non-negative, the compression noise
    finite and positive; a ``ValueError`` names the first that is not.
    """
    grid = check_alpha_grid(alpha_grid)
    if not (all(s.uses_compression for s in schemes) or is_degraded_ordered(g01, g02, params)):
        raise ValueError("gains violate the degraded ordering (g01/n1 >= g02/n2); "
                         "swap user roles before computing rates")
    r1_schemes, r1_of = relay_rate_formulas(schemes)
    r2_of = {}
    # overflow shows as a non-finite rate, which the checks below name
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r1s = [relay_rate(scheme, g01, params, grid) for scheme in r1_schemes]
        for run in second_rate_runs(schemes):
            r2, n_hats, _ = second_rate(run[0], g01, g02, g12, params, grid, n_hat)
            if run[0].uses_compression:
                n_hats = np.broadcast_to(n_hats, grid.shape)
            r2_of.update(dict.fromkeys(run, (r2, n_hats)))
    checked = set()

    def owned(name, values, positive=False):
        """``values``, checked at its first use and copied at each later one."""
        if id(values) in checked:
            return values.copy()
        _check_values(name, values, positive)
        checked.add(id(values))
        return values

    curves = []
    for scheme, k in zip(schemes, r1_of):
        r2, n_hats = r2_of[scheme]
        alphas = grid.copy() if curves else grid
        curves.append(RateRegionCurve(scheme, alphas, owned("r1", r1s[k]), owned("r2", r2),
                                      n_hats if n_hats is None
                                      else owned("n_hat", n_hats, positive=True)))
    return curves
