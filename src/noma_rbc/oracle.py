"""Log-determinant mutual-information oracle for the jointly Gaussian model.

Every observable is a linear combination of six mutually independent
circularly-symmetric complex Gaussian primitives

    U  ~ CN(0, alpha*p0)        relay user's message component
    V  ~ CN(0, (1-alpha)*p0)    second user's message component
    X1 ~ CN(0, p1)              relay-user transmit signal
    Z1 ~ CN(0, n1),  Z2 ~ CN(0, n2)   receiver noises
    ZH ~ CN(0, n_hat)           compression noise

observed through

    Y1    = h01*(U + V) + Z1
    Y1HAT = h01*V + Z1 + ZH     (the relay user's compressed observation)
    Y2    = h02*(U + V) + h12*X1 + Z2

Channel phases never matter here: rotating Y1 and Y1HAT by conj(h01)/|h01|,
Y2 by conj(h02)/|h02|, and absorbing the rotations into (Z1, ZH, X1) leaves
the joint law unchanged (circular symmetry preserves each primitive's
distribution and their independence) while making every effective gain real
and non-negative.  So only squared magnitudes are stored and all covariance
blocks are real symmetric.

For complex Gaussian vectors h(X) = ln((pi*e)^n det S) and the (pi*e)^n
factor cancels in I(A;B|C) = h(A|C) - h(A|B,C), leaving a difference of
log-determinants of conditional covariances (nats, no 1/2 factor).  Each
conditional covariance block is a Schur complement, evaluated in factored
form: variables are rows over unit-variance primitives, conditioning is an
orthogonal projection of those rows, and the log-determinant comes from
the residuals' singular values.  Rank decisions use a pivot tolerance of
1e-12 on covariance eigenvalues, so zero-variance components (alpha of 0
or 1, p1 of 0) reduce cleanly instead of producing singular solves:
directions of the left set that are deterministic given the conditioning
stay deterministic under further conditioning and contribute zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    LN2,
    ChannelParams,
    CompressionNoise,
    LinkGains,
    PowerSplit,
    Scheme,
    VarSpec,
    as_names,
)
from . import rates

RANK_TOL = 1e-12

_PRIMITIVES = ("U", "V", "X1", "Z1", "Z2", "ZH")


@dataclass(frozen=True)
class GaussianSystem:
    """Variances of the six primitives plus the three link power gains."""

    var_u: float
    var_v: float
    var_x1: float
    var_z1: float
    var_z2: float
    var_zh: float
    g01: float
    g02: float
    g12: float

    @classmethod
    def from_model(
        cls,
        gains: LinkGains,
        params: ChannelParams,
        split: PowerSplit,
        n_hat: CompressionNoise,
    ) -> "GaussianSystem":
        return cls(
            var_u=split.alpha * params.p0,
            var_v=split.alpha_bar * params.p0,
            var_x1=params.p1,
            var_z1=params.n1,
            var_z2=params.n2,
            var_zh=n_hat.n_hat,
            g01=gains.g01,
            g02=gains.g02,
            g12=gains.g12,
        )

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")

    def _coefficients(self) -> dict[str, np.ndarray]:
        a01 = math.sqrt(self.g01)
        a02 = math.sqrt(self.g02)
        a12 = math.sqrt(self.g12)
        return {
            "U": np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            "V": np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
            "X1": np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
            "Y1": np.array([a01, a01, 0.0, 1.0, 0.0, 0.0]),
            "Y1HAT": np.array([0.0, a01, 0.0, 1.0, 0.0, 1.0]),
            "Y2": np.array([a02, a02, a12, 0.0, 1.0, 0.0]),
        }

    def covariance(self, names: Sequence[str]) -> np.ndarray:
        """Joint covariance of the named observables (order preserved)."""
        rows = self.whitened_rows(names)
        return rows @ rows.T

    def whitened_rows(self, names: Sequence[str]) -> np.ndarray:
        """Each named observable as a row over the unit-variance primitives,
        so inner products of rows are covariances."""
        table = self._coefficients()
        unknown = [n for n in names if n not in table]
        if unknown:
            raise ValueError(
                f"unknown variable(s) {unknown}; available: {sorted(table)}"
            )
        rows = np.array([table[n] for n in names])
        variances = np.array(
            [self.var_u, self.var_v, self.var_x1, self.var_z1, self.var_z2, self.var_zh]
        )
        return rows * np.sqrt(variances)


def _orthonormal_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space, rank-revealed at RANK_TOL."""
    if rows.size == 0:
        return np.zeros((rows.shape[1] if rows.ndim == 2 else 0, 0))
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((rows.shape[1], 0))
    return vt[s > s[0] * RANK_TOL].T


def _residual_rows(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows with their projection onto the conditioning subspace removed;
    the Gram matrix of the result is the conditional covariance block."""
    if basis.shape[1] == 0:
        return rows
    return rows - (rows @ basis) @ basis.T


def gaussian_mi(system: GaussianSystem, left: VarSpec, right: VarSpec, given: VarSpec = ()) -> float:
    """I(left; right | given) in nats.

    Variable sets are names among U, V, X1, Y1, Y1HAT, Y2 (a bare string is
    a singleton set).  The value is h(left|given) - h(left|right, given),
    a difference of log-determinants of the induced conditional covariance
    blocks; each block is evaluated in factored form (orthogonal residuals
    of whitened-primitive rows, then singular values) so the conditioning
    never squares the problem's condition number.  Directions of the left
    set that are deterministic given the conditioning contribute zero; the
    rank decisions use the RANK_TOL pivot tolerance on covariance
    eigenvalues.
    """
    left, right, given = as_names(left), as_names(right), as_names(given)
    if not left or not right:
        return 0.0
    rows_l = system.whitened_rows(left)
    rows_r = system.whitened_rows(right)
    rows_g = system.whitened_rows(given) if given else np.zeros((0, rows_l.shape[1]))

    res_g = _residual_rows(rows_l, _orthonormal_basis(rows_g))
    u, s, _ = np.linalg.svd(res_g, full_matrices=False)
    smax = float(s[0]) if s.size else 0.0
    if smax <= 0.0:
        return 0.0  # left set deterministic given the conditioning
    keep = s > smax * math.sqrt(RANK_TOL)  # eigenvalue tolerance on s^2
    if not np.any(keep):
        return 0.0
    w = u[:, keep]
    logdet_a = 2.0 * float(np.sum(np.log(s[keep])))

    res_rg = _residual_rows(rows_l, _orthonormal_basis(np.vstack([rows_r, rows_g])))
    s_ab = np.linalg.svd(w.T @ res_rg, compute_uv=False)
    if s_ab.size and float(s_ab.min()) <= smax * RANK_TOL:
        raise ValueError("right set determines left set; mutual information diverges")
    logdet_ab = 2.0 * float(np.sum(np.log(s_ab)))
    return logdet_a - logdet_ab


# ---------------------------------------------------------------------------
# closed-form vs oracle comparison

@dataclass(frozen=True)
class TermDelta:
    """One rate-expression term, closed form and oracle, both in nats."""

    name: str
    closed_form_nats: float
    oracle_nats: float

    @property
    def delta_nats(self) -> float:
        return abs(self.closed_form_nats - self.oracle_nats)


@dataclass(frozen=True)
class VerifyReport:
    scheme: Scheme
    terms: tuple

    @property
    def max_delta_nats(self) -> float:
        return max(t.delta_nats for t in self.terms)

    def __str__(self) -> str:
        lines = [f"{self.scheme.label}: max |closed - oracle| = {self.max_delta_nats:.3e} nats"]
        for t in self.terms:
            lines.append(
                f"  {t.name:24s} closed={t.closed_form_nats: .12e}"
                f" oracle={t.oracle_nats: .12e} delta={t.delta_nats:.3e}"
            )
        return "\n".join(lines)


def verify_scheme(
    gains: LinkGains,
    params: ChannelParams,
    split: PowerSplit,
    n_hat: CompressionNoise,
    scheme: Scheme,
) -> VerifyReport:
    """Per-term |closed form - log-det oracle| for one scheme's rate
    expressions (nats).  The min/clamp structure is excluded on purpose;
    each mutual-information term is compared on its own.
    """
    sys_ = GaussianSystem.from_model(gains, params, split, n_hat)
    a, g01, g02, g12 = split.alpha, gains.g01, gains.g02, gains.g12
    r1 = rates.relay_rate(scheme, g01, params, a)
    # (term, closed form in bits, oracle (left, right, given))
    if scheme is Scheme.GBC:
        specs = [
            ("r1", r1, ("U", "Y1", "V")),
            # conditioning removes the relay path
            ("r2", rates._forward_bound(g02, 0.0, params, a, params.p1), ("V", "Y2", "X1")),
        ]
    elif scheme is Scheme.RBC_DF:
        specs = [
            ("r1", r1, ("U", "Y1", ("V", "X1"))),
            ("r2_forward", rates._forward_bound(g02, g12, params, a, params.p1),
             (("V", "X1"), "Y2")),
            ("r2_decode", rates._decode_bound(g01, params, a), ("V", "Y1", "X1")),
        ]
    else:
        cf = rates._CFBounds(g01, g02, g12, params, a, params.p1)
        cutset, loss = cf.terms(n_hat.n_hat)
        specs = [
            ("r1", r1, ("U", "Y1") if scheme is Scheme.RBC_CF else ("U", "Y1", "V")),
            ("r2_cutset", cutset, ("V", ("Y1HAT", "Y2"), "X1")),
            ("r2_forward", cf.forward, (("V", "X1"), "Y2")),
            ("r2_compression_loss", loss, ("Y1HAT", "Y1", ("V", "X1", "Y2"))),
        ]
    terms = [TermDelta(name, float(bits) * LN2, gaussian_mi(sys_, *mi))
             for name, bits, mi in specs]
    return VerifyReport(scheme=scheme, terms=tuple(terms))


def random_verification_draw(
    rng: np.random.Generator,
    gain_range: tuple[float, float] = (1e-2, 1e2),
    n_hat_range: tuple[float, float] = (1e-2, 1e2),
    p0: float = 10.0,
    p1: float = 10.0,
    n1: float = 1.0,
    n2: float = 1.0,
):
    """Random ordered model draw for oracle-equivalence checks.

    Power gains are log-uniform over ``gain_range``, alpha uniform on
    [0, 1], n_hat log-uniform over ``n_hat_range``; the two BS gains are
    swapped if needed so the degraded ordering holds.
    """
    lo, hi = math.log10(gain_range[0]), math.log10(gain_range[1])
    g = 10.0 ** rng.uniform(lo, hi, size=3)
    g01, g02 = (g[0], g[1]) if g[0] * n2 >= g[1] * n1 else (g[1], g[0])
    gains = LinkGains(g01=float(g01), g02=float(g02), g12=float(g[2]))
    params = ChannelParams(p0=p0, p1=p1, n1=n1, n2=n2)
    split = PowerSplit(float(rng.uniform(0.0, 1.0)))
    nlo, nhi = math.log10(n_hat_range[0]), math.log10(n_hat_range[1])
    n_hat = CompressionNoise(float(10.0 ** rng.uniform(nlo, nhi)))
    return gains, params, split, n_hat
