"""The oracle's one factorization, the Gram-Schmidt of
``oracle._orthonormal_basis``, against ``np.linalg.svd``: the
log-determinants from its residual norms, the kept rows, the row-space
projectors, and the rank decisions of every draw that
``verify --count 5000 --seed 3`` checks."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from noma_rbc import oracle
from noma_rbc.oracle import RANK_TOL, random_verification_draws, verify_terms

from helpers import rng_for

SCALES = [1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e200]


def structured_rows(rng, count, m):
    """``count`` (m, 6) matrices of standard normal entries, with every
    structure that reaches a special case of Gram-Schmidt mixed in: zero
    rows, a zero matrix, exactly parallel rows, rows dependent on two before
    them, orthogonal rows and orthogonal rows of equal norm."""
    rows = rng.standard_normal((count, m, 6))
    rows[1::8] = 0.0
    if m == 1:
        return rows
    x = rows[..., 0, :]
    rows[2::8, 1] = 0.0
    rows[3::8, 0] = 0.0
    rows[4::8, 1] = -0.5 * x[4::8]          # exactly parallel
    rows[5::8, 0, 3:] = rows[5::8, 1, :3] = 0.0  # orthogonal: disjoint supports
    rows[6::8, 0, 2:] = 0.0                  # orthogonal, equal norms
    rows[6::8, 1] = 0.0
    rows[6::8, 1, 0], rows[6::8, 1, 1] = -x[6::8, 1], x[6::8, 0]
    rows[7::8, 1] = 2.0 * x[7::8]           # parallel, the second row larger
    if m == 2:
        return rows
    # three or four rows: the last row a combination of the first and the
    # one before it, zero, or parallel to the first; each row on columns of
    # its own; equal-norm orthogonal rows on disjoint column pairs
    rows[2::8, -1] = x[2::8] - 3.0 * rows[2::8, -2]
    rows[3::8, -1] = 0.0
    rows[4::8, -1] = x[4::8] - rows[4::8, -2]
    rows[5::8] = np.where(np.arange(6) % m == np.arange(m)[:, None], rows[5::8], 0.0)
    rows[6::8, 2:] = 0.0
    rows[6::8, 2, 2], rows[6::8, 2, 3] = x[6::8, 0], x[6::8, 1]
    if m == 4:
        rows[6::8, 3, 4], rows[6::8, 3, 5] = -x[6::8, 1], x[6::8, 0]
    rows[7::8, -1] = 4.0 * x[7::8]
    return rows


def cases(ms=(1, 2)):
    for m in ms:
        for count in (1, 7, 4097):
            yield m, count
    for m in ms:
        yield m, None


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("m, count", list(cases((1, 2, 3, 4))))
def test_residual_norms_give_lapacks_log_determinants(m, count, scale):
    rows = structured_rows(rng_for(m * 10_000 + (count or 0)), count or 8, m) * scale
    # one unstacked draw for each structure
    stacks = [rows] if count else list(rows)
    for a in stacks:
        basis, norms = oracle._orthonormal_basis(a)
        assert norms.shape == a.shape[:-1] and np.all(norms >= 0.0)
        # the log-determinant of the kept rows' Gram matrix: LAPACK's
        # singular values of the matrix with the other rows zeroed, each
        # value's error a few ulps of the largest
        kept = np.any(basis != 0.0, axis=-1)
        ref = np.linalg.svd(np.where(kept[..., None], a, 0.0), compute_uv=False)
        top = np.arange(m) < np.sum(kept, axis=-1, keepdims=True)
        ours = 2.0 * np.sum(np.log(np.where(kept, norms, 1.0)), axis=-1)
        theirs = 2.0 * np.sum(np.log(np.where(top, ref, 1.0)), axis=-1)
        ulps = np.sum(np.where(top, np.spacing(ref[..., :1]) / np.where(top, ref, 1.0), 0.0), axis=-1)
        err = np.abs(ours - theirs) / np.maximum(2.0 * ulps, np.spacing(np.abs(theirs)))
        assert np.all(err <= 8.0), np.max(err)


def test_rows_past_the_largest_entry_squared_still_factor():
    # entries from 1e-200 to 1e200 in one matrix: the small ones vanish
    # against the largest, which alone sets the residual norms
    a = np.array([[1e200, 0.0, 1e-200, 0.0, 0.0, 0.0],
                  [1e-200, 1e180, 0.0, 0.0, 0.0, 1e-200]])
    assert oracle._orthonormal_basis(a)[1].tolist() == [1e200, 1e180]
    assert oracle._orthonormal_basis(a[:1])[1].tolist() == [1e200]


def lapack_basis(rows):
    """The row-space basis of LAPACK's SVD: the rows of ``vt`` past the
    rank at RANK_TOL zeroed."""
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    return vt * (s > s[..., :1] * RANK_TOL)[..., None]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("m, count", list(cases((1, 2, 3, 4))))
def test_gram_schmidt_bases_span_lapacks_row_spaces(m, count, scale):
    rows = structured_rows(rng_for(m * 20_000 + (count or 0)), count or 8, m) * scale
    eps = np.finfo(float).eps
    stacks = [rows] if count else list(rows)
    for a in stacks:
        basis, ref = oracle._orthonormal_basis(a)[0], lapack_basis(a)
        assert basis.shape == a.shape
        # kept rows are orthonormal, and LAPACK keeps as many
        kept = np.any(basis != 0.0, axis=-1)
        assert np.array_equal(np.sum(kept, axis=-1), np.sum(np.any(ref != 0.0, axis=-1), axis=-1))
        gram = basis @ basis.swapaxes(-1, -2)
        eye = kept[..., :, None] & kept[..., None, :] & np.eye(m, dtype=bool)
        assert np.all(np.abs(gram - eye) <= 8.0 * eps), np.max(np.abs(gram - eye)) / eps
        # the same projector: both are backward stable, so the row spaces
        # differ by about eps times the kept rows' condition number.  The
        # bound is LAPACK's: on the rank-2 stacks of four rows its projector
        # is up to 27 eps from that of the two independent rows alone, and
        # the basis's within 4 eps
        s = np.linalg.svd(a, compute_uv=False)
        low = np.min(np.where(s > s[..., :1] * RANK_TOL, s, np.inf), axis=-1)
        cond = np.where(np.isfinite(low), s[..., 0] / low, 1.0)
        proj = basis.swapaxes(-1, -2) @ basis - ref.swapaxes(-1, -2) @ ref
        err = np.max(np.abs(proj), axis=(-2, -1)) / (eps * cond)
        assert np.all(err <= 32.0), np.max(err)


def lapack_rank(rows, tol):
    """LAPACK's count of singular values above ``tol`` times the largest."""
    s = np.linalg.svd(rows, compute_uv=False)
    return np.sum(s > s[..., :1] * tol, axis=-1)


def test_rank_decisions_equal_lapack_on_every_verify_draw(monkeypatch):
    # the draws of ``verify --count 5000 --seed 3``: one stream of draws,
    # whatever the chunking.  Each Gram-Schmidt call keeps as many basis
    # rows as LAPACK keeps singular values of its input at RANK_TOL, and
    # each left set keeps as many rows given its conditioning as LAPACK
    # keeps singular values at sqrt(RANK_TOL) of its residual on LAPACK's
    # basis of the conditioning set
    ranks, systems = [], []
    real_basis, real_mi = oracle._orthonormal_basis, oracle.gaussian_mi

    def basis(rows):
        out = real_basis(rows)
        ranks.append((np.sum(np.any(out[0] != 0.0, axis=-1), axis=-1), lapack_rank(rows, RANK_TOL)))
        return out

    def gaussian_mi(system, *sets):
        systems.append(system)
        return real_mi(system, *sets)

    monkeypatch.setattr(oracle, "_orthonormal_basis", basis)
    monkeypatch.setattr(oracle, "gaussian_mi", gaussian_mi)
    verify_terms(*random_verification_draws(rng_for(3), 5000))
    # 4 + 6 + 8 + 8 Gram-Schmidt calls: see test_oracle.py
    assert len(ranks) == 26
    for ours, theirs in ranks:
        assert ours.shape == (5000,) and np.array_equal(ours, theirs)
    assert len(systems) == 8 and len(set(map(id, systems))) == 1
    factors = systems[0]._factors
    assert len(factors) == 6
    for (_, given), (rows_l, _, _, keep) in factors.items():
        res = rows_l
        if given:
            ref = lapack_basis(systems[0].whitened_rows(given))
            res = rows_l - (rows_l @ ref.swapaxes(-1, -2)) @ ref
        assert np.array_equal(np.sum(keep, axis=-1), lapack_rank(res, math.sqrt(RANK_TOL)))


def test_the_oracle_names_no_linalg():
    # no LAPACK call: the one factorization is Gram-Schmidt
    def names(node):
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        if isinstance(node, ast.alias):
            return [node.name, node.asname or ""]
        if isinstance(node, ast.ImportFrom):
            return [node.module or ""]
        return []

    tree = ast.parse(Path(oracle.__file__).read_text())
    named = [(getattr(node, "lineno", None), name) for node in ast.walk(tree)
             for name in names(node) if "linalg" in name]
    assert named == []
