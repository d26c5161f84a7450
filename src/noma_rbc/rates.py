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
forwarding-minus-loss bound binds at the low end.

``rate_kernel`` evaluates one scheme over broadcastable gain and
power-split arrays.  This module is the only code that knows which
formulas a scheme uses: ``relay_rate`` (r1) and ``second_rate`` (r2)
dispatch on it, ``relay_rate_formulas`` and ``second_rate_runs`` group the
schemes that share an r1 or r2 formula, ``second_rates`` evaluates a
shared r2 formula once, and ``dominance_violation`` states what each
scheme promises over GBC.  The typed operations (``gbc_rates`` ...
``sweep_region``) validate their inputs and call the kernel; the scheduler
scores and serves whole candidate blocks through ``second_rates``.  GBC
and RBC-DF presuppose the degraded role ordering: the typed operations
reject inputs that violate it, while the kernel and its parts evaluate the
formulas literally, as the scheduler's selection metrics require.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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

# Range of the compression-noise variance when the CF bounds never cross, in
# units of the relay user's noise power n1: the CF bounds do not change when
# every power, noise and n_hat is scaled together.
N_HAT_BRACKET = (1e-6, 1e12)


def _log2_1p(x):
    return np.log1p(x) / LN2


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
    maximises their min."""

    def __init__(self, g01, g02, g12, params: ChannelParams, alpha, p1):
        p0, n1, n2 = params.p0, params.n1, params.n2
        ab = 1.0 - alpha
        s2 = g02 * alpha * p0
        self.s1 = g01 * alpha * p0     # relay user's component at the relay user
        self.t1 = g01 * ab * p0        # second user's component at the relay user
        self.t2 = g02 * ab * p0        # second user's component at the second user
        self.m2 = s2 + n2
        self.dd = n1 * n2 + n2 * self.s1 + n1 * s2
        self.n1, self.n2, self.w, self.alpha = n1, n2, g12 * p1, alpha
        self.t2_m2 = self.t2 / self.m2
        self.loss_num = n1 * n1 * self.m2
        self.loss_off = n1 * n2 * self.s1
        self.forward = _log2_1p((self.t2 + self.w) / self.m2)

    def terms(self, n_hat):
        """(cut-set bound, compression loss) in bits; 0 loss where ``n_hat * dd`` overflows."""
        cutset = _log2_1p(self.t1 / (self.n1 + n_hat) + self.t2_m2)
        with np.errstate(over="ignore"):
            loss = _log2_1p(self.loss_num / (n_hat * self.dd + self.loss_off))
        return cutset, loss

    def objective(self, n_hat):
        """Clamped r2, the forwarding-minus-loss argument and the cut-set
        bound."""
        cutset, loss = self.terms(n_hat)
        second = self.forward - loss
        return np.maximum(0.0, np.minimum(cutset, second)), second, cutset

    def crossing_roots(self):
        """Both real roots of the quadratic in n_hat whose positive root is
        where the two bounds cross; NaN marks a missing root."""
        s1, t1, t2, m2, dd, n1, n2 = self.s1, self.t1, self.t2, self.m2, self.dd, self.n1, self.n2
        # linear-domain crossing: (1 + t1/(n1+x) + t2/m2) * (1 + n1^2*m2/(x*dd + n1*n2*s1))
        #                          = 1 + (t2+w)/m2, cleared of denominators;
        # both sides are products of polynomials linear in x
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            la1 = m2 + t2
            la0 = n1 * la1 + t1 * m2
            lb0 = self.loss_off + self.loss_num
            rr = la1 + self.w
            qa = la1 * dd - rr * dd
            qb = la1 * lb0 + la0 * dd - rr * (n1 * dd + self.loss_off)
            qc = la0 * lb0 - rr * (n1 * n1 * n2 * s1)
            disc = qb * qb - 4.0 * qa * qc
            lost = ~np.isfinite(disc)
            if lost.any():
                # a product of powers overflowed: there, divide the quadratic by rr * dd
                # and by its largest coefficient, which keeps it and its discriminant finite
                a, c = la1 / rr, lb0 / dd
                b, d = n1 * a + t1 * (m2 / rr), self.loss_off / dd
                scaled = np.array(np.broadcast_arrays(-self.w / rr, a * c + b - n1 - d,
                                                      b * c - n1 * d))
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
        root0, root1 = self.crossing_roots()
        ok0 = np.isfinite(root0) & (root0 > 0.0)
        has = ok0 | (np.isfinite(root1) & (root1 > 0.0))
        lo, hi = (end * self.n1 for end in N_HAT_BRACKET)
        n_hat = np.where(ok0, root0, np.where(has, root1, lo))
        if not isinstance(self.alpha, float) or self.alpha == 1.0:
            at_one = self.alpha == 1.0
            n_hat, has = np.where(at_one, self.n1, n_hat), has | at_one
        r2, second, cutset = self.objective(n_hat)
        rising = ~has & (second < cutset)
        if rising.any():
            r2_hi, second_hi, _ = self.objective(hi)
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
    ``p1`` whose leading axis is cut into scheme ``segments`` (scheme,
    start, stop): one ``second_rate`` call per run of adjacent segments that
    share an r2 formula (RBC-CF and RBC-CF+DPC share one), written into
    preallocated arrays."""
    shape = np.broadcast_shapes(g01.shape, g02.shape, g12.shape)
    r2, clamped = np.empty(shape), np.empty(shape, dtype=bool)
    for _, run in itertools.groupby(segments, key=lambda seg: _r2_formula(seg[0])):
        run = list(run)
        scheme, a, b = run[0][0], run[0][1], run[-1][2]
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
# typed scheme operations

def _require_ordered(gains: LinkGains, params: ChannelParams) -> None:
    if not is_degraded_ordered(gains, params):
        raise ValueError(
            "gains violate the degraded ordering (g01/n1 >= g02/n2); "
            "swap user roles before computing rates"
        )


def _typed(scheme, gains: LinkGains, params, split: PowerSplit, n_hat=None):
    r1, r2, n_hat, _ = rate_kernel(
        scheme, gains.g01, gains.g02, gains.g12, params, split.alpha, n_hat
    )
    return RatePair(r1=float(r1), r2=float(r2)), n_hat


def gbc_rates(gains: LinkGains, params: ChannelParams, split: PowerSplit) -> RatePair:
    """Capacity-region corner point of the plain superposition/SIC scheme."""
    _require_ordered(gains, params)
    return _typed(Scheme.GBC, gains, params, split)[0]


def rbc_df_rates(gains: LinkGains, params: ChannelParams, split: PowerSplit) -> RatePair:
    """Rates when the relay user decodes and forwards the second user's
    message."""
    _require_ordered(gains, params)
    return _typed(Scheme.RBC_DF, gains, params, split)[0]


def rbc_cf_rates(
    gains: LinkGains, params: ChannelParams, split: PowerSplit, n_hat: CompressionNoise
) -> RatePair:
    """Rates when the relay user compresses and forwards its observation;
    the relay user cannot cancel the second user's component."""
    return _typed(Scheme.RBC_CF, gains, params, split, n_hat.n_hat)[0]


def rbc_cf_dpc_rates(
    gains: LinkGains, params: ChannelParams, split: PowerSplit, n_hat: CompressionNoise
) -> RatePair:
    """Compress-and-forward with transmitter-side pre-cancellation: r1 is
    restored to the interference-free value, r2 is unchanged."""
    return _typed(Scheme.RBC_CF_DPC, gains, params, split, n_hat.n_hat)[0]


def optimize_n_hat(
    gains: LinkGains,
    params: ChannelParams,
    split: PowerSplit,
    scheme: Scheme = Scheme.RBC_CF_DPC,
) -> tuple[CompressionNoise, RatePair]:
    """Compression-noise variance maximising r2, and the resulting pair.

    ``scheme`` picks which r1 accompanies the optimised r2 (RBC_CF or
    RBC_CF_DPC; their r2 is identical).
    """
    if not scheme.uses_compression:
        raise ValueError(f"scheme {scheme.label} has no compression noise to optimize")
    pair, n_hat = _typed(scheme, gains, params, split)
    return CompressionNoise(float(n_hat)), pair


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
    """The checks of ``RatePair`` (of ``CompressionNoise`` if ``positive``)
    on a whole array, with their messages for the first failing entry."""
    low = values <= 0.0 if positive else values < 0.0
    for bad, word in ((~np.isfinite(values), "finite"),
                      (low, "positive" if positive else "non-negative")):
        if np.any(bad):
            raise ValueError(f"{name} must be {word}, got {float(values[bad][0])!r}")


def sweep_region(
    scheme: Scheme,
    gains: LinkGains,
    params: ChannelParams,
    alpha_grid: Sequence[float],
    n_hat: Optional[CompressionNoise] = None,
    *,
    checked: bool = False,
) -> RateRegionCurve:
    """Rate pair per grid alpha, from one kernel call over the grid.

    ``checked`` says that ``alpha_grid`` is an array ``check_alpha_grid``
    returned, which is then used as it is, without a second check.  For CF
    schemes the compression noise is the fixed ``n_hat`` when one is
    given, and is optimised per point otherwise.  Rates must come out
    finite and non-negative, the compression noise finite and positive; a
    ``ValueError`` names the first that is not.
    """
    grid = alpha_grid if checked else check_alpha_grid(alpha_grid)
    if not scheme.uses_compression:
        _require_ordered(gains, params)
    fixed = None if n_hat is None else n_hat.n_hat

    # overflow shows as a non-finite rate, which the checks below name
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r1, r2, n_hats, _ = rate_kernel(scheme, gains.g01, gains.g02, gains.g12, params, grid,
                                        fixed)
    _check_values("r1", r1)
    _check_values("r2", r2)
    if scheme.uses_compression:
        n_hats = np.broadcast_to(n_hats, grid.shape)
        _check_values("n_hat", n_hats, positive=True)
    return RateRegionCurve(scheme, grid, r1, r2, n_hats)
