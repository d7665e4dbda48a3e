"""The numpy two-sample KS test against scipy, its oracle.

scipy is a test-only dependency: `qamlz._kstest` must give the statistic of
`scipy.stats.ks_2samp(a, b, method="asymp")` bit for bit, and its p-value
(`scipy.stats.kstwo.sf`) to within 1e-9 relative, on every branch.
"""

import math

import numpy as np
import pytest
from scipy import stats

from qamlz._kstest import kolmogorov_sf, ks_2samp

RTOL = 1e-9

BRANCHES = {"support", "d=1", "ruben-gambino-low", "ruben-gambino-high", "smirnov-d",
            "durbin-small-n", "durbin-for-pomeranz", "smirnov-small-n", "zero",
            "smirnov-large-n", "durbin-large-n", "pelz-good"}


def branch(n: int, d: float) -> str:
    """Which of scipy's `_kolmogn` branches the tail P(D_n >= d) takes."""
    t = n * d
    if d <= 0.5 / n or t <= 0.5:
        return "support"
    if d >= 1.0:
        return "d=1"
    if t <= 1.0:
        return "ruben-gambino-low"
    if t >= n - 1:
        return "ruben-gambino-high"
    if d >= 0.5:
        return "smirnov-d"
    nd2 = t * d
    if n <= 140:
        if nd2 > 4:
            return "smirnov-small-n"
        return "durbin-small-n" if nd2 <= 0.754693 else "durbin-for-pomeranz"
    if nd2 >= 370:
        return "zero"
    if nd2 >= 2.2:
        return "smirnov-large-n"
    return "durbin-large-n" if n <= 100000 and n * d**1.5 <= 1.4 else "pelz-good"


# (branch, n, d): at least one point on every branch, both sides of n = 140
POINTS = [
    ("support", 50, 0.0),
    ("support", 50, 0.009),
    ("support", 3, 0.16666666666666669),  # just above 0.5/n, yet n*d rounds to 0.5
    ("d=1", 50, 1.0),
    ("ruben-gambino-low", 3, 0.3),
    ("ruben-gambino-low", 50, 0.015),
    ("ruben-gambino-low", 1000, 0.0008),
    ("ruben-gambino-high", 2, 0.6),
    ("ruben-gambino-high", 50, 0.985),
    ("smirnov-d", 30, 0.55),
    ("smirnov-d", 300, 0.5),
    ("durbin-small-n", 100, 0.05),
    ("durbin-small-n", 140, 0.07),
    ("durbin-for-pomeranz", 100, 0.15),
    ("durbin-for-pomeranz", 140, 0.16),
    ("smirnov-small-n", 100, 0.25),
    ("smirnov-small-n", 140, 0.4),
    ("zero", 2000, 0.45),
    ("smirnov-large-n", 141, 0.13),
    ("smirnov-large-n", 1000, 0.1),
    ("smirnov-large-n", 50000, 0.03),
    ("durbin-large-n", 141, 0.04),
    ("durbin-large-n", 1000, 0.01),
    ("durbin-large-n", 100000, 0.0002),
    ("pelz-good", 141, 0.06),
    ("pelz-good", 1000, 0.03),
    ("pelz-good", 200000, 0.002),
    ("pelz-good", 1000000, 2e-6),  # z < 0.0417: the expansion's CDF is 0
]


def test_points_cover_every_branch():
    assert {b for b, _, _ in POINTS} == BRANCHES
    for b, n, d in POINTS:
        assert branch(n, d) == b, (n, d)


@pytest.mark.parametrize("name, n, d", POINTS, ids=[f"{b}-{n}-{d}" for b, n, d in POINTS])
def test_tail_matches_kstwo(name, n, d):
    np.testing.assert_allclose(kolmogorov_sf(d, n), stats.kstwo.sf(d, n), rtol=RTOL, atol=0)


@pytest.mark.parametrize("n_max, region", [(140, None), (400, None), (200000, (0.0, 2.2)),
                                           (200000, (2.2, 300.0))])
def test_tail_matches_kstwo_on_random_draws(n_max, region):
    # region None draws D over (0, 1), skewed small; else n*D^2 is uniform in it
    rng = np.random.default_rng(n_max + (0 if region is None else int(region[1])))
    for _ in range(150 if region is None else 40):
        n = int(rng.integers(1 if region is None else 141, n_max + 1))
        if region is None:
            d = float(rng.uniform() ** rng.uniform(1.0, 4.0))
        else:
            d = math.sqrt(rng.uniform(*region) / n)
        np.testing.assert_allclose(kolmogorov_sf(d, n), stats.kstwo.sf(d, n), rtol=RTOL,
                                   atol=0, err_msg=f"n={n} d={d!r} ({branch(n, d)})")


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
    seen = set()
    for _ in range(40):
        m, n = (int(v) for v in rng.integers(*sizes, size=2))
        a, b = _samples(rng, m, n, decimals)
        d, p = ks_2samp(a, b)
        ref = stats.ks_2samp(a, b, method="asymp")
        assert d == ref.statistic
        np.testing.assert_allclose(p, ref.pvalue, rtol=RTOL, atol=0)
        seen.add(branch(round(m * n / (m + n)), d))
    assert len(seen) >= 2


@pytest.mark.parametrize("a, b, d, p", [
    ([0.5, 1.0, 2.0], [0.5, 1.0, 2.0], 0.0, 1.0),  # identical samples
    ([1.0, 1.0, 1.0], [1.0, 1.0], 0.0, 1.0),  # one value, all tied
    ([0.0, 1.0, 2.0], [3.0, 4.0, 5.0], 1.0, 0.0),  # disjoint supports
    ([3.0, 4.0, 5.0], [0.0, 1.0, 2.0], 1.0, 0.0),
])
def test_edge_statistics(a, b, d, p):
    ref = stats.ks_2samp(a, b, method="asymp")
    assert (ref.statistic, ref.pvalue) == (d, p)
    got = ks_2samp(np.array(a), np.array(b))
    assert got == (d, p)
    assert math.copysign(1.0, got[0]) == 1.0  # never -0.0


def test_one_event_each_has_no_p_value():
    # m*n/(m+n) = 0.5 rounds to n = 0, where kstwo is undefined
    d, p = ks_2samp(np.array([0.0]), np.array([1.0]))
    assert d == 1.0 and math.isnan(p)
