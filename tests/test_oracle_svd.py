"""The oracle's closed-form factorization of one- and two-row stacks
(``oracle._svd``) against ``np.linalg.svd``: singular values, the rebuilt
rows, the kept directions, and the rank decisions of every draw that
``verify --count 5000 --seed 3`` checks."""

import numpy as np
import pytest

from noma_rbc import oracle
from noma_rbc.oracle import RANK_TOL, random_verification_draws, verify_terms

from helpers import rng_for

SCALES = [1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e200]


def structured_rows(rng, count, m):
    """``count`` (m, 6) matrices of standard normal entries, with every
    structure that reaches a special case of the closed forms mixed in:
    zero rows, a zero matrix, exactly parallel rows, orthogonal rows and
    orthogonal rows of equal norm, where the rotation angle is undefined."""
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
    return rows


def cases():
    for m in (1, 2):
        for count in (1, 7, 4097):
            yield m, count
    yield 1, None
    yield 2, None


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


def kept_counts(monkeypatch, svd):
    """Per draw of ``verify --count 5000 --seed 3``, the rank of every
    conditioning basis and every left set's kept count, with ``svd`` as the
    oracle's factorization."""
    counts = []

    def spy(real, record):
        def call(*args):
            counts.append(record(*args))
            return real(*args)
        return call

    monkeypatch.setattr(oracle, "_svd", svd)
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
    closed = kept_counts(monkeypatch, oracle._svd)
    reference = kept_counts(monkeypatch, lapack_svd)
    assert len(closed) == len(reference) > 0
    for ours, theirs in zip(closed, reference):
        assert ours.shape == (5000,) and np.array_equal(ours, theirs)
