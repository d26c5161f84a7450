"""Exact finite-alphabet evaluation of the achievable-rate bound expressions.

A :class:`DiscreteJoint` is an explicit joint pmf over named finite
variables; every information quantity is computed by direct summation in
base-2 logs, so results are exact up to float rounding.  No search over
distributions happens here; callers supply the joint (including whatever
factorisation structure they want) and get the bound values back.

Three bound families are evaluated, each over its own variable roles:

  broadcast         over (U, X0, Y1, Y2):
                      r1 <= I(X0; Y1 | U),  r2 <= I(U; Y2)
  decode-forward    over (U, X1, X0, Y1, Y2):
                      r1 <= I(X0; Y1 | U, X1)
                      r2 <= min( I(U; Y1 | X1), I(U, X1; Y2) )
  compress-forward  over (U, V, X1, Y1, Y1HAT, Y2), from ``core.CF_TERMS``:
                      r1 <= I(U; Y1)
                      r2 <= min( I(V; Y1HAT, Y2 | X1),
                                 I(V, X1; Y2) - I(Y1HAT; Y1 | V, X1, Y2) )

In the first two families U stands for the second user's message; the
compress-forward family splits the messages into U (relay user) and V
(second user) and adds the compressed relay observation Y1HAT.  The
compress-forward result also reports the compression rate
I(Y1HAT; Y1 | X1) as a read-only diagnostic (the minimum index rate the
relay user needs for its compressed stream); it is never enforced.

The r2 value of compress-forward is reported raw: a negative second min
argument just means the bound is vacuous for that joint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import CF_TERMS, VarSpec, as_names

MAX_CELLS = 10_000_000
NORMALISATION_TOL = 1e-12

BOUND_FAMILIES = ("broadcast", "decode-forward", "compress-forward")


def _dedupe(names: Sequence[str]) -> tuple[str, ...]:
    # variable sets: a repeated name adds nothing to an entropy
    return tuple(dict.fromkeys(names))


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """Joint pmf over named finite alphabets.

    ``pmf`` has one axis per name, in declared order; entries are
    non-negative and sum to 1 within NORMALISATION_TOL.
    """

    names: tuple
    pmf: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.ndim != len(names):
            raise ValueError(
                f"pmf has {pmf.ndim} axes but {len(names)} variables are declared"
            )
        if pmf.size > MAX_CELLS:
            raise ValueError(
                f"product alphabet size {pmf.size} exceeds the {MAX_CELLS} limit"
            )
        if np.any(pmf < 0.0):
            raise ValueError("pmf entries must be non-negative")
        total = float(pmf.sum())
        if abs(total - 1.0) > NORMALISATION_TOL:
            raise ValueError(f"pmf sums to {total!r}, expected 1 within {NORMALISATION_TOL}")
        pmf = pmf.copy()
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    def _axes(self, names: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(self.names.index(n) for n in names)
        except ValueError:
            missing = [n for n in names if n not in self.names]
            raise ValueError(
                f"variable(s) {missing} not in joint over {list(self.names)}"
            ) from None

    def marginal(self, names: VarSpec) -> np.ndarray:
        """Marginal pmf over the named variables, axes in the given order."""
        names = as_names(names)
        keep = self._axes(names)
        drop = tuple(i for i in range(self.pmf.ndim) if i not in keep)
        out = self.pmf.sum(axis=drop) if drop else self.pmf
        # reorder surviving axes to the requested order
        survivors = [i for i in range(self.pmf.ndim) if i in keep]
        order = [survivors.index(i) for i in keep]
        return np.transpose(out, order)

    def entropy(self, names: VarSpec) -> float:
        """Joint entropy H(names) in bits; names are a set (duplicates
        collapse)."""
        p = self.marginal(_dedupe(as_names(names))).ravel()
        p = p[p > 0.0]
        return float(-(p * np.log2(p)).sum())

    def conditional_entropy(self, left: VarSpec, given: VarSpec = ()) -> float:
        """H(left | given) in bits."""
        left, given = as_names(left), as_names(given)
        if not given:
            return self.entropy(left)
        return self.entropy(left + given) - self.entropy(given)

    def mutual_information(self, left: VarSpec, right: VarSpec, given: VarSpec = ()) -> float:
        """I(left; right | given) in bits, by direct entropy summation."""
        left, right, given = as_names(left), as_names(right), as_names(given)
        if not left or not right:
            return 0.0
        return (
            self.entropy(left + given)
            + self.entropy(right + given)
            - self.entropy(left + right + given)
            - (self.entropy(given) if given else 0.0)
        )


@dataclass(frozen=True)
class BoundRates:
    """Rate-pair bound of one family, in bits; compress-forward also carries
    the diagnostic compression rate."""

    family: str
    r1_bound: float
    r2_bound: float
    compression_rate: Optional[float] = None


def dmc_bound_rates(joint: DiscreteJoint, family: str) -> BoundRates:
    """Evaluate one bound family on an explicit joint pmf.

    ``family`` is one of BOUND_FAMILIES; the joint must contain that
    family's variables (see the module docstring for roles).
    """
    if family not in BOUND_FAMILIES:
        raise ValueError(f"unknown bound family {family!r}; expected one of {BOUND_FAMILIES}")
    mi = joint.mutual_information
    if family == "broadcast":
        return BoundRates(
            family=family,
            r1_bound=mi("X0", "Y1", "U"),
            r2_bound=mi("U", "Y2"),
        )
    if family == "decode-forward":
        return BoundRates(
            family=family,
            r1_bound=mi("X0", "Y1", ("U", "X1")),
            r2_bound=min(mi("U", "Y1", "X1"), mi(("U", "X1"), "Y2")),
        )
    cf = {key: mi(*sets) for key, sets in CF_TERMS.items()}
    return BoundRates(
        family=family,
        r1_bound=cf["r1"],
        r2_bound=min(cf["cutset"], cf["forward"] - cf["loss"]),
        compression_rate=mi("Y1HAT", "Y1", "X1"),
    )


def load_discrete_joint(path) -> DiscreteJoint:
    """Read a joint pmf from a text file.

    Format: '#' comments and blank lines are ignored.  Header lines
    ``var NAME SIZE`` declare the variables in storage order; a line
    ``probs`` ends the header; after it, exactly one probability per line in
    row-major index order (first declared variable slowest).  Example::

        # binary symmetric channel, crossover 0.1
        var X 2
        var Y 2
        probs
        0.45
        0.05
        0.05
        0.45
    """
    names: list[str] = []
    sizes: list[int] = []
    values: list[float] = []
    in_probs = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if not in_probs:
                fields = line.split()
                if fields[0] == "var":
                    if len(fields) != 3:
                        raise ValueError(f"{path}:{lineno}: expected 'var NAME SIZE'")
                    name, size_s = fields[1], fields[2]
                    try:
                        size = int(size_s)
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: alphabet size {size_s!r} is not an integer") from None
                    if size < 1:
                        raise ValueError(f"{path}:{lineno}: alphabet size must be >= 1")
                    names.append(name)
                    sizes.append(size)
                elif fields[0] == "probs":
                    if not names:
                        raise ValueError(f"{path}:{lineno}: 'probs' before any 'var' line")
                    in_probs = True
                else:
                    raise ValueError(f"{path}:{lineno}: unknown directive {fields[0]!r}")
            else:
                try:
                    values.append(float(line))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad probability {line!r}") from None
    if not in_probs:
        raise ValueError(f"{path}: missing 'probs' line")
    expected = math.prod(sizes)
    if len(values) != expected:
        raise ValueError(
            f"{path}: expected {expected} probabilities for alphabet sizes {sizes}, got {len(values)}"
        )
    pmf = np.array(values, dtype=float).reshape(sizes)
    return DiscreteJoint(names=tuple(names), pmf=pmf)
