"""Shared draw distributions and brute-force oracles for the test suite.

Randomized checks draw power gains log-uniform over [1e-2, 1e2] with the
two BS gains swapped into degraded order, alpha uniform on [0, 1], and keep
p0 = p1 = 10, n1 = n2 = 1 (the reference operating point).
"""

import numpy as np

from noma_rbc.core import ChannelParams, LinkGains, PowerSplit

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

N_HAT_GRID = np.logspace(-6.0, 12.0, 10_000)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def stack_draws(draws):
    """Typed ``(gains, params, split, n_hat)`` draws that share one
    ``ChannelParams`` as the stacked arguments of ``verify_terms``: ``(g01,
    g02, g12, params, alpha, n_hat)``, one array entry per draw."""
    gains, params, splits, n_hats = zip(*draws)
    return (np.array([g.g01 for g in gains]), np.array([g.g02 for g in gains]),
            np.array([g.g12 for g in gains]), params[0],
            np.array([s.alpha for s in splits]), np.array([n.n_hat for n in n_hats]))


def random_ordered_setup(rng, p0=10.0, p1=10.0, n1=1.0, n2=1.0):
    g = 10.0 ** rng.uniform(-2.0, 2.0, size=3)
    g01, g02 = (g[0], g[1]) if g[0] * n2 >= g[1] * n1 else (g[1], g[0])
    gains = LinkGains(float(g01), float(g02), float(g[2]))
    params = ChannelParams(p0=p0, p1=p1, n1=n1, n2=n2)
    split = PowerSplit(float(rng.uniform()))
    return gains, params, split


def cf_objective(gains, params, split, n_hat):
    """Independent transcription of the CF second-user rate (bits) as a
    function of the compression noise; accepts scalar or array n_hat."""
    a, ab = split.alpha, split.alpha_bar
    n1, n2 = params.n1, params.n2
    s1 = gains.g01 * a * params.p0
    s2 = gains.g02 * a * params.p0
    t1 = gains.g01 * ab * params.p0
    t2 = gains.g02 * ab * params.p0
    m2 = s2 + n2
    w = gains.g12 * params.p1
    x = np.asarray(n_hat, dtype=float)
    first = np.log2(1.0 + t1 / (n1 + x) + t2 / m2)
    loss = np.log2(
        1.0 + n1 * n1 * m2 / (x * (n1 * n2 + n2 * s1 + n1 * s2) + n1 * n2 * s1)
    )
    second = np.log2(1.0 + (t2 + w) / m2) - loss
    return np.maximum(0.0, np.minimum(first, second))


def grid_optimal_cf_r2(gains, params, split, grid=N_HAT_GRID):
    """Brute-force optimum of the CF second-user rate over the compression
    noise: vectorized sweep of the log grid, then golden-section refinement
    (objective evaluations only) inside the two cells around the best grid
    point."""
    vals = cf_objective(gains, params, split, grid)
    k = int(np.argmax(vals))
    lo = np.log10(grid[max(k - 1, 0)])
    hi = np.log10(grid[min(k + 1, len(grid) - 1)])

    def f(u):
        return float(cf_objective(gains, params, split, 10.0 ** u))

    a_, b_ = lo, hi
    x1 = b_ - _INV_PHI * (b_ - a_)
    x2 = a_ + _INV_PHI * (b_ - a_)
    f1, f2 = f(x1), f(x2)
    for _ in range(90):
        if f1 >= f2:
            b_, x2, f2 = x2, x1, f1
            x1 = b_ - _INV_PHI * (b_ - a_)
            f1 = f(x1)
        else:
            a_, x1, f1 = x1, x2, f2
            x2 = a_ + _INV_PHI * (b_ - a_)
            f2 = f(x2)
    refined = f(0.5 * (a_ + b_))
    return max(float(vals[k]), refined)
