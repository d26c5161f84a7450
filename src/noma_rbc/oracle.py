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
orthogonal projection of those rows, and the log-determinant of a block is
twice the sum of the logs of its rows' Gram-Schmidt residual norms (the QR
route: the product of those norms is the square root of the Gram
determinant).  Rank decisions use a pivot tolerance of 1e-12 on
covariance eigenvalues, so zero-variance components (alpha of 0 or 1, p1
of 0) reduce cleanly instead of producing singular solves: a left row
whose residual norm given the conditioning is at most sqrt(1e-12) times
its own norm is deterministic given it, stays so under further
conditioning and contributes zero.  Each row is measured against its own
norm, not the largest left row's: a row of tiny variance beside a large
one, such as V beside X1, still carries information.

A system is one draw (every field a scalar) or a stack of N draws (fields
are equal-length 1-D arrays, scalars shared by all draws).  Both take the
same path: rows are ``(..., m, 6)`` stacks, every factorization and
projection is a stacked numpy call, and rank decisions are masks rather
than column selections.  One draw gives numpy scalars, a stack gives
arrays of N values.  ``verify_terms`` checks several schemes over one draw
or a stack in one pass, evaluating once each term that schemes share: the
four schemes' 13 terms take 8 stacked oracle calls and 26 stacked
Gram-Schmidt calls, as a system factors each (left, given) pair once and
three of the 8 terms condition V on X1.  No step calls LAPACK.  It is the
oracle's only verification entry, and it takes each closed form from
``rates``, r1 under the formula that ``rates.relay_rate_formulas`` assigns
the scheme, so the oracle checks the grouping the engine serves with.
``random_verification_draws`` draws a whole stack as one array.

The one factorization is classical Gram-Schmidt on the matrix scaled by
its largest entry, each row orthogonalized twice against the kept rows
before it, which leaves the kept rows orthonormal to a few ulps ("twice is
enough": Parlett 1980, after Kahan; Giraud, Langou & Rozloznik 2005).  A
row joins the basis where its residual norm exceeds RANK_TOL times that
largest entry, and each residual norm is reported in the units of the
input, its error a few ulps of the largest, as LAPACK's singular values
have.  It serves three roles: the basis of a conditioning set, the norms
of the left set's residual given ``given``, and the norms of the kept left
rows' residual given the right and given sets.  Each residual set is
factored with its own scale: scaled jointly with the conditioning rows,
a left row of tiny variance would fall under the rank tolerance that the
larger rows set and be dropped.  No factorization squares a condition
number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import CF_TERMS, LN2, ChannelParams, Scheme, VarSpec, as_names
from . import rates

RANK_TOL = 1e-12
# the smallest normal float, a floor under Gram-Schmidt's divisors: they are
# 0 only for a zero matrix or a zero residual, whose basis row is zeroed
_TINY = np.finfo(float).tiny

# Variance fields in the order of the primitives U, V, X1, Z1, Z2, ZH.
_VARIANCES = ("var_u", "var_v", "var_x1", "var_z1", "var_z2", "var_zh")

# Each observable as {primitive column: coefficient}; a string coefficient
# is the square root of that link power gain.
_OBSERVABLES = {
    "U": {0: 1.0},
    "V": {1: 1.0},
    "X1": {2: 1.0},
    "Y1": {0: "g01", 1: "g01", 3: 1.0},
    "Y1HAT": {1: "g01", 3: 1.0, 5: 1.0},
    "Y2": {0: "g02", 1: "g02", 2: "g12", 4: 1.0},
}
_ROW_INDEX = {name: i for i, name in enumerate(_OBSERVABLES)}


@dataclass(frozen=True)
class GaussianSystem:
    """Variances of the six primitives plus the three link power gains,
    each a scalar or a 1-D array with one entry per draw of a stack."""

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
    def from_values(cls, g01, g02, g12, params: ChannelParams, alpha, n_hat) -> "GaussianSystem":
        """System of one draw (scalars) or a stack of draws (equal-length
        arrays) sharing ``params``."""
        return cls(
            var_u=alpha * params.p0,
            var_v=(1.0 - alpha) * params.p0,
            var_x1=params.p1,
            var_z1=params.n1,
            var_z2=params.n2,
            var_zh=n_hat,
            g01=g01,
            g02=g02,
            g12=g12,
        )

    def __post_init__(self):
        names = tuple(self.__dataclass_fields__)
        values = [np.asarray(getattr(self, name), dtype=float) for name in names]
        for name, value in zip(names, values):
            if value.ndim > 1:
                raise ValueError(f"{name} must be a scalar or a 1-D array, got shape {value.shape}")
        lengths = sorted({value.size for value in values if value.ndim})
        if len(lengths) > 1:
            raise ValueError(f"stacked fields must have equal lengths, got {lengths}")
        table = np.stack(np.broadcast_arrays(*values))
        bad = ~(np.isfinite(table) & (table >= 0.0))
        if np.any(bad):
            first = np.argwhere(bad)[0]
            at = f" at draw {first[1]}" if len(first) > 1 else ""
            raise ValueError(f"{names[first[0]]} must be finite and non-negative, "
                             f"got {float(table[tuple(first)])!r}{at}")

    @cached_property
    def shape(self) -> tuple:
        """() for one draw, (N,) for a stack of N draws."""
        return np.broadcast_shapes(*(np.shape(getattr(self, f)) for f in self.__dataclass_fields__))

    @cached_property
    def _factors(self) -> dict:
        """The left-set factorizations ``gaussian_mi`` made on this system,
        by ``(left, given)``; they live and die with the system."""
        return {}

    @cached_property
    def _rows(self) -> np.ndarray:
        """Every observable of ``_OBSERVABLES`` as whitened rows, (..., 6, 6)."""
        rows = np.zeros(self.shape + (len(_OBSERVABLES), len(_VARIANCES)))
        for i, coefs in enumerate(_OBSERVABLES.values()):
            for col, coef in coefs.items():
                rows[..., i, col] = np.sqrt(getattr(self, coef)) if isinstance(coef, str) else coef
        variances = np.stack(np.broadcast_arrays(*(getattr(self, f) for f in _VARIANCES)), axis=-1)
        return rows * np.sqrt(variances)[..., None, :]

    def whitened_rows(self, names: Sequence[str]) -> np.ndarray:
        """Each named observable as a row over the unit-variance primitives,
        so inner products of rows are covariances: shape (..., m, 6)."""
        unknown = [n for n in names if n not in _OBSERVABLES]
        if unknown:
            raise ValueError(
                f"unknown variable(s) {unknown}; available: {sorted(_OBSERVABLES)}"
            )
        return np.take(self._rows, np.array([_ROW_INDEX[n] for n in names], dtype=np.intp), axis=-2)


def _orthonormal_basis(rows: np.ndarray) -> tuple:
    """Gram-Schmidt of each matrix's rows, rank-revealed at RANK_TOL, as
    ``(basis, norms)``.  ``basis`` has the stack's shape: the rows of the
    matrix scaled by its largest entry, each orthogonalized twice against
    the rows before it, normalized, and zeroed where its residual norm is
    at most RANK_TOL (that entry, 1, as the reference).  ``norms`` holds
    each row's residual norm in the units of ``rows``, shape (..., m)."""
    scale = np.maximum(np.max(np.abs(rows), axis=(-2, -1), keepdims=True), _TINY)
    basis = rows / scale
    norms = np.empty(rows.shape[:-1])
    for i in range(basis.shape[-2]):
        v, kept = basis[..., i:i + 1, :], basis[..., :i, :]
        for _ in range(2 if i else 0):  # twice is enough
            v = v - (v @ kept.swapaxes(-1, -2)) @ kept
        norm = np.sqrt(np.einsum("...in,...in->...i", v, v))[..., None]
        basis[..., i:i + 1, :] = v * ((norm > RANK_TOL) / np.maximum(norm, _TINY))
        norms[..., i] = norm[..., 0, 0]
    return basis, norms * scale[..., 0]


def _residual_rows(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows with their projection onto the conditioning subspace removed;
    the Gram matrix of the result is the conditional covariance block."""
    return rows - (rows @ basis.swapaxes(-1, -2)) @ basis


def gaussian_mi(system: GaussianSystem, left: VarSpec, right: VarSpec, given: VarSpec = ()):
    """I(left; right | given) in nats: a numpy scalar for one draw, an
    array for a stack.

    Variable sets are names among U, V, X1, Y1, Y1HAT, Y2 (a bare string is
    a singleton set).  The value is h(left|given) - h(left|right, given),
    each term the log-determinant of a conditional covariance block, from
    the Gram-Schmidt residual norms of the left set's whitened rows: a row
    whose norm given ``given`` is at most sqrt(RANK_TOL) times its own
    norm is deterministic given the conditioning and contributes zero, and
    a kept row whose norm given ``right`` and ``given`` is at most
    RANK_TOL times its own norm makes the information diverge.

    The factorization of h(left|given), the conditioning basis and the left
    set's residual norms with the rows they keep, is made once per
    ``system`` and ``(left, given)`` and kept on the system: terms that
    share the pair, such as the three on V given X1 that ``verify_terms``
    checks, factor it once.
    """
    left, right, given = as_names(left), as_names(right), as_names(given)
    if not left or not right:
        return np.zeros(system.shape)[()]  # a numpy scalar for one draw
    factors = system._factors.get((left, given))
    if factors is None:
        rows_l, rows_g = system.whitened_rows(left), system.whitened_rows(given)
        res_g = _residual_rows(rows_l, _orthonormal_basis(rows_g)[0]) if given else rows_l
        norms = _orthonormal_basis(res_g)[1]
        own = np.sqrt(np.einsum("...in,...in->...i", rows_l, rows_l))
        factors = system._factors[left, given] = (rows_l, norms, own,
                                                  norms > own * math.sqrt(RANK_TOL))
    rows_l, norms, own, keep = factors
    res_rg = _residual_rows(rows_l, _orthonormal_basis(system.whitened_rows(right + given))[0])
    norms_rg = _orthonormal_basis(res_rg * keep[..., None])[1]
    diverged = np.any(keep & (norms_rg <= own * RANK_TOL), axis=-1)
    if np.any(diverged):
        at = f" at draw {int(np.argmax(diverged))}" if diverged.ndim else ""
        raise ValueError(f"right set determines left set{at}; mutual information diverges")
    # one log of each ratio: a small information is not the difference of
    # two large logs
    return 2.0 * np.sum(np.log(np.divide(norms, norms_rg, out=np.ones_like(norms), where=keep)),
                        axis=-1)


# ---------------------------------------------------------------------------
# closed-form vs oracle comparison

@dataclass(frozen=True)
class TermDelta:
    """One rate-expression term, closed form and oracle, both in nats:
    numpy scalars for one draw, arrays for a stack."""

    name: str
    closed_form_nats: float
    oracle_nats: float

    @property
    def delta_nats(self) -> float:
        return abs(self.closed_form_nats - self.oracle_nats)


# Each term the oracle checks: (name, key of its closed form in
# ``verify_terms``, oracle (left, right, given)).  The key "r1" stands for
# the r1 formula that ``rates.relay_rate_formulas`` assigns the scheme.
# Schemes that share a term share its entry, which ``verify_terms``
# evaluates once.
_R1 = ("r1", "r1", ("U", "Y1", "V"))
_FORWARD = ("r2_forward", "forward", CF_TERMS["forward"])
_CF_R2 = (("r2_cutset", "cutset", CF_TERMS["cutset"]), _FORWARD,
          ("r2_compression_loss", "loss", CF_TERMS["loss"]))
_SCHEME_TERMS = {
    # conditioning on X1 removes the relay path from GBC's r2
    Scheme.GBC: (_R1, ("r2", "direct", ("V", "Y2", "X1"))),
    Scheme.RBC_DF: (("r1", "r1", ("U", "Y1", ("V", "X1"))), _FORWARD,
                    ("r2_decode", "decode", ("V", "Y1", "X1"))),
    # the relay user keeps the second user's component as noise
    Scheme.RBC_CF: (("r1", "r1", CF_TERMS["r1"]),) + _CF_R2,
    Scheme.RBC_CF_DPC: (_R1,) + _CF_R2,
}


def verify_terms(g01, g02, g12, params: ChannelParams, alpha, n_hat,
                 schemes: Sequence[Scheme] = tuple(Scheme)) -> dict:
    """Every closed-form term of each of ``schemes`` next to the log-det
    oracle's value of the same mutual information, as ``{scheme: (TermDelta,
    ...)}``, for one draw (scalars, giving numpy scalars) or a stack of
    draws (equal-length 1-D arrays sharing ``params``, giving arrays).  The
    min/clamp structure is excluded on purpose; each mutual-information
    term is compared on its own.  One ``GaussianSystem`` serves every term,
    a term that several schemes share is evaluated once and appears in each
    of their tuples, and each distinct r1 formula is evaluated once.
    """
    system = GaussianSystem.from_values(g01, g02, g12, params, alpha, n_hat)
    cutset, loss = rates._CFBounds(g01, g02, g12, params, alpha, params.p1).terms(n_hat)
    r1_schemes, formula_of = rates.relay_rate_formulas(schemes)
    bits = {("r1", k): rates.relay_rate(scheme, g01, params, alpha)
            for k, scheme in enumerate(r1_schemes)}
    log2_1p, forward = rates._log2_1p, rates._forward_ratio
    bits.update(direct=log2_1p(forward(g02, 0.0, params, alpha, params.p1)),
                forward=log2_1p(forward(g02, g12, params, alpha, params.p1)),
                decode=log2_1p(rates._decode_ratio(g01, params, alpha)), cutset=cutset,
                loss=loss)
    specs = {scheme: tuple((name, ("r1", k) if key == "r1" else key, sets)
                           for name, key, sets in _SCHEME_TERMS[scheme])
             for scheme, k in zip(schemes, formula_of)}
    deltas = {spec: TermDelta(spec[0], np.multiply(bits[spec[1]], LN2),
                              gaussian_mi(system, *spec[2]))
              for spec in dict.fromkeys(s for terms in specs.values() for s in terms)}
    return {scheme: tuple(deltas[s] for s in terms) for scheme, terms in specs.items()}


def random_verification_draws(rng: np.random.Generator, count: int) -> tuple:
    """``count`` random model draws as the arguments of ``verify_terms``:
    ``(g01, g02, g12, params, alpha, n_hat)``, one array entry per draw.

    Power gains and n_hat are log-uniform over [1e-2, 1e2], each 10 to a
    uniform exponent by numpy's array power, alpha uniform on [0, 1],
    p0 = p1 = 10 and n1 = n2 = 1; the two BS gains are swapped where
    needed so the degraded ordering holds.  Each draw takes five
    uniforms from ``rng`` in turn (three gains, alpha, n_hat), so a stream
    of draws does not depend on how it is split into calls.
    """
    u = rng.random((count, 5))
    g = 10.0 ** (-2.0 + 4.0 * u[:, :3])
    n_hat = 10.0 ** (-2.0 + 4.0 * u[:, 4])
    return (np.maximum(g[:, 0], g[:, 1]), np.minimum(g[:, 0], g[:, 1]), g[:, 2],
            ChannelParams(p0=10.0, p1=10.0), u[:, 3], n_hat)

