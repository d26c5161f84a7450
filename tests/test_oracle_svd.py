"""The oracle's closed-form factorization of one- and two-row stacks
(``oracle._svd``) and its Gram-Schmidt conditioning bases
(``oracle._orthonormal_basis``) against ``np.linalg.svd``: singular
values, the rebuilt rows, the kept directions, the row-space projectors,
and the rank decisions of every draw that ``verify --count 5000 --seed 3``
checks."""

import ast
from pathlib import Path

import numpy as np
import pytest

from noma_rbc import oracle
from noma_rbc.oracle import RANK_TOL, random_verification_draws, verify_terms

from helpers import rng_for

SCALES = [1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e200]


def structured_rows(rng, count, m):
    """``count`` (m, 6) matrices of standard normal entries, with every
    structure that reaches a special case of the closed forms or of
    Gram-Schmidt mixed in: zero rows, a zero matrix, exactly parallel rows,
    rows dependent on two before them, orthogonal rows and orthogonal rows
    of equal norm, where the rotation angle is undefined."""
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
@pytest.mark.parametrize("m, count", list(cases()))
def test_closed_forms_equal_lapack_to_a_few_ulps_of_the_largest_value(m, count, scale):
    rows = structured_rows(rng_for(m * 10_000 + (count or 0)), count or 8, m) * scale
    # one unstacked draw for each structure
    stacks = [rows] if count else list(rows)
    for a in stacks:
        u, s, vt = oracle._svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert s.shape == ref.shape and u.shape == a.shape[:-1] + (m,) and vt.shape == a.shape
        assert np.array_equal(oracle._svd(a, compute_uv=False), s)
        assert np.all(s[..., :-1] >= s[..., 1:])
        ulp = np.spacing(ref[..., :1])
        assert np.all(np.abs(s - ref) <= 8.0 * ulp), np.max(np.abs(s - ref) / ulp)
        # u @ diag(s) @ vt rebuilds the rows
        rebuilt = u @ (s[..., :, None] * vt)
        assert np.all(np.abs(rebuilt - a) <= 16.0 * ulp[..., None]), \
            np.max(np.abs(rebuilt - a) / ulp[..., None])
        # the rows kept at RANK_TOL are orthonormal, and LAPACK keeps as many
        kept = s > s[..., :1] * RANK_TOL
        assert np.array_equal(kept, ref > ref[..., :1] * RANK_TOL)
        basis = vt * kept[..., None]
        gram = basis @ basis.swapaxes(-1, -2)
        eye = kept[..., :, None] & kept[..., None, :] & np.eye(m, dtype=bool)
        assert np.all(np.abs(gram - eye) <= 8.0 * np.finfo(float).eps)


def test_rows_past_the_largest_entry_squared_still_factor():
    # entries from 1e-200 to 1e200 in one matrix: the small ones vanish
    # against the largest, which alone sets the singular values
    a = np.array([[1e200, 0.0, 1e-200, 0.0, 0.0, 0.0],
                  [1e-200, 1e180, 0.0, 0.0, 0.0, 1e-200]])
    s = oracle._svd(a, compute_uv=False)
    assert s.tolist() == [1e200, 1e180]
    assert oracle._svd(a[:1], compute_uv=False).tolist() == [1e200]


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
        basis, ref = oracle._orthonormal_basis(a), lapack_basis(a)
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


def kept_counts(monkeypatch, svd, basis):
    """Per draw of ``verify --count 5000 --seed 3``, the rank of every
    conditioning basis and every left set's kept count, with ``svd`` as the
    oracle's factorization and ``basis`` as its conditioning basis."""
    counts = []

    def spy(real, record):
        def call(*args):
            counts.append(record(*args))
            return real(*args)
        return call

    monkeypatch.setattr(oracle, "_svd", svd)
    monkeypatch.setattr(oracle, "_orthonormal_basis", basis)
    monkeypatch.setattr(oracle, "_residual_rows", spy(
        oracle._residual_rows, lambda rows, basis: np.sum(np.any(basis != 0.0, axis=-1), axis=-1)))
    monkeypatch.setattr(oracle, "_sum_log", spy(
        oracle._sum_log, lambda s, keep: np.sum(keep, axis=-1)))
    verify_terms(*random_verification_draws(rng_for(3), 5000))
    monkeypatch.undo()
    return counts


def lapack_svd(rows, compute_uv=True):
    return np.linalg.svd(rows, full_matrices=False, compute_uv=compute_uv)


def test_rank_decisions_equal_lapack_on_every_verify_draw(monkeypatch):
    # the draws of ``verify --count 5000 --seed 3``: one stream of draws,
    # whatever the chunking
    closed = kept_counts(monkeypatch, oracle._svd, oracle._orthonormal_basis)
    reference = kept_counts(monkeypatch, lapack_svd, lapack_basis)
    # 12 bases and 2 x 8 kept counts
    assert len(closed) == len(reference) == 12 + 16
    for ours, theirs in zip(closed, reference):
        assert ours.shape == (5000,) and np.array_equal(ours, theirs)


def test_the_oracle_names_no_linalg():
    # no LAPACK call: every factorization is a closed form or Gram-Schmidt
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
