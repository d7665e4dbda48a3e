"""The numpy two-sample KS test against scipy, its oracle.

scipy is a test-only dependency: `qamlz.evaluate.ks_2samp` must give the
statistic of `scipy.stats.ks_2samp(a, b, method="asymp")` bit for bit, and
`kolmogorov_tail` the limiting Kolmogorov tail `scipy.special.kolmogorov` to
within 1e-12 relative.
"""

import math

import numpy as np
import pytest
from scipy import special, stats

from qamlz.evaluate import kolmogorov_tail, ks_2samp

RTOL = 1e-12

# Q = 1 at and below 0, both series, the 1.18 crossover, and the far tail
# where Q underflows to 0
Z_POINTS = [-math.inf, -0.5, 0.0, 5e-324, 1e-300, 1e-3, 0.05, 0.2, 0.5, 0.8, 1.0, 1.17, np.nextafter(1.18, 0.0), 1.18,
            np.nextafter(1.18, 2.0), 1.19, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 19.0, 19.5, 27.3,
            30.0, 1e3, 1e200, math.inf]


@pytest.mark.parametrize("z", Z_POINTS)
def test_tail_matches_kolmogorov(z):
    np.testing.assert_allclose(kolmogorov_tail(float(z)), special.kolmogorov(z), rtol=RTOL,
                               atol=0)


def test_tail_matches_kolmogorov_on_a_dense_grid():
    z = np.linspace(0.0, 30.0, 3001)
    np.testing.assert_allclose([kolmogorov_tail(float(v)) for v in z], special.kolmogorov(z),
                               rtol=RTOL, atol=0)


def _lambda(m, n, d):
    """Stephens' argument (sqrt(n_e) + 0.12 + 0.11/sqrt(n_e)) D, n_e = m n/(m+n)."""
    root = math.sqrt(m * n / (m + n))
    return (root + 0.12 + 0.11 / root) * d


def _samples(rng, m, n, decimals):
    a = rng.normal(size=m)
    b = rng.normal(rng.uniform(0.0, 0.5), rng.uniform(0.8, 1.2), size=n)
    if decimals is not None:  # many ties, within and across the samples
        a, b = np.round(a, decimals), np.round(b, decimals)
    return a, b


@pytest.mark.parametrize("sizes, decimals", [
    ((2, 150), None), ((2, 150), 1), ((150, 6000), None), ((150, 6000), 2),
])
def test_two_samples_match_scipy(sizes, decimals):
    rng = np.random.default_rng(sizes[1] + (decimals or 0))
    for _ in range(40):
        m, n = (int(v) for v in rng.integers(*sizes, size=2))
        a, b = _samples(rng, m, n, decimals)
        d, p = ks_2samp(a, b)
        assert d == stats.ks_2samp(a, b, method="asymp").statistic
        np.testing.assert_allclose(p, special.kolmogorov(_lambda(m, n, d)), rtol=RTOL, atol=0)


@pytest.mark.parametrize("a, b, d, p", [
    ([0.5, 1.0, 2.0], [0.5, 1.0, 2.0], 0.0, 1.0),  # identical samples
    ([1.0, 1.0, 1.0], [1.0, 1.0], 0.0, 1.0),  # one value, all tied
    ([0.0, 1.0, 2.0], [3.0, 4.0, 5.0], 1.0, 0.0326216516520),  # disjoint supports
    ([3.0, 4.0, 5.0], [0.0, 1.0, 2.0], 1.0, 0.0326216516520),
])
def test_edge_statistics(a, b, d, p):
    assert stats.ks_2samp(a, b, method="asymp").statistic == d
    got = ks_2samp(np.array(a), np.array(b))
    assert got[0] == d
    assert got[1] == pytest.approx(p, rel=1e-11)
    assert math.copysign(1.0, got[0]) == 1.0  # never -0.0


def test_one_event_each_has_a_finite_p_value():
    # n_e = 0.5 is not rounded to 0: lambda = (sqrt(0.5) + 0.12 + 0.11/sqrt(0.5)) D
    d, p = ks_2samp(np.array([0.0]), np.array([1.0]))
    assert d == 1.0
    assert 0.0 <= p <= 1.0
    np.testing.assert_allclose(p, special.kolmogorov(_lambda(1, 1, 1.0)), rtol=RTOL, atol=0)
    assert p == pytest.approx(0.289, abs=5e-4)


@pytest.mark.parametrize("m, n", [(1, 1), (3, 3), (2, 150), (40, 70), (600, 5000)])
def test_p_value_does_not_increase_with_d(m, n):
    # every D the samples can take, |i/m - j/n| = |i n - j m| / (m n), once each
    d = np.unique(np.abs(np.subtract.outer(np.arange(m + 1) * n, np.arange(n + 1) * m))) / (m * n)
    p = np.array([kolmogorov_tail(_lambda(m, n, float(v))) for v in d])
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.all(np.diff(p) <= 0.0)
