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

The CF second-user rate depends on the compression-noise variance n_hat:
the cut-set bound decreases and the forwarding-minus-loss bound increases
strictly in n_hat, so the max over n_hat of their min sits at their
crossing whenever one exists.  Cleared of denominators, the crossing is a
quadratic in n_hat, solved in closed form; the denominators are positive,
so every positive root is a crossing, and as the bounds cross at most once
the quadratic has at most one positive root.  Without one the bounds never
cross: one of them is the smaller for every n_hat, so their min is
monotone and its best value over ``N_HAT_BRACKET`` (in units of n1) sits
at an end of the bracket: the low end when the cut-set bound binds, the
high end when the forwarding-minus-loss bound does.  The optimum is
therefore the one crossing or, failing it, the better bracket end; no
search is needed, and the high end is evaluated only where the
forwarding-minus-loss bound binds at the low end.  The optimum runs
under one ``np.errstate`` and updates its single-use temporaries in place,
with the operands in the same order, so every bit is that of the plain
expressions.

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


def _forward_bound(g02, g12, params: ChannelParams, alpha, p1):
    """Second-user decoding bound with the relay user's help (bits)."""
    return _log2_1p((g02 * (1.0 - alpha) * params.p0 + g12 * p1)
                    / (g02 * alpha * params.p0 + params.n2))


def _decode_bound(g01, params: ChannelParams, alpha):
    """RBC-DF bound from the relay user having to decode the second user's
    message (bits)."""
    return _log2_1p(g01 * (1.0 - alpha) * params.p0 / (g01 * alpha * params.p0 + params.n1))


class _CFBounds:
    """The two arguments of the CF second-user min for broadcastable pair
    arrays, as functions of the compression noise n_hat, and the n_hat that
    maximises their min.

    ``terms`` and ``objective``, which the oracle and ``second_rate`` call
    at a given n_hat, each enter their own ``np.errstate``; ``optimum``
    enters one around the unguarded ``_crossing_roots``, both real roots of
    the crossing quadratic (NaN marks a missing one), and ``_objective``.
    A temporary that feeds only the next operation, as its left operand, is
    updated in place where it already has the result's shape (``x = a * b;
    x *= c`` for ``a * b * c``), which keeps every bit and never writes
    into an input."""

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
        self.s1, self.t1, self.t2, self.m2 = s1, t1, t2, m2
        self.n1, self.n2, self.w, self.alpha = n1, n2, g12 * p1, alpha
        self.t2_m2 = t2 / m2
        self.loss_num = n1 * n1 * m2
        self.loss_off = n1 * n2 * s1
        forward = t2 + self.w
        forward /= m2
        self.forward = _log2_1p(forward)

    def _terms(self, n_hat):
        cutset = _log2_1p(self.t1 / (self.n1 + n_hat) + self.t2_m2)
        den = n_hat * self.dd
        den += self.loss_off
        return cutset, _log2_1p(self.loss_num / den)

    def terms(self, n_hat):
        """(cut-set bound, compression loss) in bits; 0 loss where ``n_hat * dd`` overflows."""
        with np.errstate(over="ignore"):
            return self._terms(n_hat)

    def _objective(self, n_hat):
        cutset, loss = self._terms(n_hat)
        second = self.forward - loss
        return np.maximum(0.0, np.minimum(cutset, second)), second, cutset

    def objective(self, n_hat):
        """Clamped r2, the forwarding-minus-loss argument and the cut-set
        bound."""
        with np.errstate(over="ignore"):
            return self._objective(n_hat)

    def _crossing_roots(self):
        s1, t1, t2, m2, dd, n1, n2 = self.s1, self.t1, self.t2, self.m2, self.dd, self.n1, self.n2
        loss_off, loss_num, w = self.loss_off, self.loss_num, self.w
        # linear-domain crossing: (1 + t1/(n1+x) + t2/m2) * (1 + n1^2*m2/(x*dd + n1*n2*s1))
        #                          = 1 + (t2+w)/m2, cleared of denominators;
        # both sides are products of polynomials linear in x
        la1 = m2 + t2
        la0 = n1 * la1 + t1 * m2
        lb0 = loss_off + loss_num
        rr = la1 + w
        qa = la1 * dd - rr * dd
        qb = la1 * lb0
        qb += la0 * dd
        off = n1 * dd
        off += loss_off
        qb = qb - rr * off
        qc = la0 * lb0 - rr * (n1 * n1 * n2 * s1)
        disc = qb * qb
        four_ac = 4.0 * qa
        four_ac *= qc
        disc -= four_ac
        finite = np.isfinite(disc)
        if not finite.all():
            # a product of powers overflowed: there, divide the quadratic by rr * dd
            # and by its largest coefficient, which keeps it and its discriminant finite
            lost = ~finite
            a, c = la1 / rr, lb0 / dd
            b, d = n1 * a + t1 * (m2 / rr), loss_off / dd
            scaled = np.array(np.broadcast_arrays(-w / rr, a * c + b - n1 - d, b * c - n1 * d))
            scaled /= np.abs(scaled).max(axis=0)
            qa, qb, qc = (np.where(lost, x, y) for x, y in zip(scaled, (qa, qb, qc)))
            disc = qb * qb - 4.0 * qa * qc
        # numerically stable form; a negative discriminant gives NaN
        # roots, a zero divisor infinite ones (np.divide: the inputs may
        # be Python floats, which would raise)
        q = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
        linear = np.equal(qa, 0.0)
        if not linear.any():
            return q / qa, np.where(q == 0.0, np.nan, qc / q)
        return (np.where(linear, np.divide(-qc, qb), q / qa),
                np.where(linear | (q == 0.0), np.nan, qc / q))

    def optimum(self):
        """(n_hat, clamped r2, forwarding-minus-loss argument) at the best
        n_hat: the bounds' one crossing, the positive root of the
        quadratic, or, without one, the better end of ``N_HAT_BRACKET``
        in units of n1 (the low end on ties).  At alpha = 1, r2 is 0 for
        every n_hat, and n_hat = n1 is reported.

        The objective is evaluated a second time, at the high end, only
        where there is no root and the forwarding-minus-loss bound binds at
        the low end.  Elsewhere the low end's r2 is its clamped cut-set
        bound, and the high end's r2 is at most its own, which is no larger:
        the cut-set bound decreases in n_hat, in floating point too, as
        ``np.log1p`` is monotone."""
        n1, alpha = self.n1, self.alpha
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            root0, root1 = self._crossing_roots()
            ok0 = np.isfinite(root0)
            ok0 &= root0 > 0.0
            has = np.isfinite(root1)
            has &= root1 > 0.0
            has = ok0 | has
            lo, hi = N_HAT_BRACKET[0] * n1, N_HAT_BRACKET[1] * n1
            n_hat = np.where(ok0, root0, np.where(has, root1, lo))
            if not isinstance(alpha, float) or alpha == 1.0:
                at_one = alpha == 1.0
                n_hat, has = np.where(at_one, n1, n_hat), has | at_one
            r2, second, cutset = self._objective(n_hat)
            rising = ~has
            rising &= second < cutset
            if rising.any():
                r2_hi, second_hi, _ = self._objective(hi)
                take = rising & (r2_hi > r2)
                n_hat, r2, second = (np.where(take, hi, n_hat), np.where(take, r2_hi, r2),
                                     np.where(take, second_hi, second))
        return n_hat, r2, second


def second_rate(scheme: Scheme, g01, g02, g12, params: ChannelParams, alpha, n_hat=None,
                p1=None):
    """``(r2, n_hat, clamped)`` of ``scheme``: the r2 part of
    ``rate_kernel``, with its arguments and returns."""
    p1 = params.p1 if p1 is None else p1
    if scheme is Scheme.GBC:  # the forwarding bound without the relay's help
        return _forward_bound(g02, 0.0, params, alpha, p1), None, False
    if scheme is Scheme.RBC_DF:
        return np.minimum(_forward_bound(g02, g12, params, alpha, p1),
                          _decode_bound(g01, params, alpha)), None, False
    cf = _CFBounds(g01, g02, g12, params, alpha, p1)
    if n_hat is None:
        n_hat, r2, second = cf.optimum()
    else:
        r2, second, _ = cf.objective(n_hat)
    return r2, n_hat, second < 0.0


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
