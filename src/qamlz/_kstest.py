"""Two-sample Kolmogorov-Smirnov test in numpy.

`ks_2samp(a, b)` gives the two-sample KS statistic D of samples of m and m'
events and its asymptotic two-sided p-value: the tail P(D_n >= D) of the
two-sided one-sample Kolmogorov distribution at n = round(m*m'/(m+m')),
`kolmogorov_sf(D, n)`. The tail is computed branch by branch as Simard &
L'Ecuyer (2011, J. Stat. Softw. 39(11)) choose:

- Ruben-Gambino closed forms when n*D <= 1 or n*D >= n-1;
- twice the one-sided tail (`_smirnov`, a Birnbaum-Tingey sum) when D >= 0.5,
  when n*D^2 > 4 at n <= 140, and when n*D^2 >= 2.2 at n > 140;
- 0 when n*D^2 >= 370 at n > 140;
- otherwise 1 - CDF, the CDF from Durbin's matrix in the Marsaglia-Tsang-Wang
  form (`_cdf_durbin`) at n <= 140, and at n > 140 when n*D^1.5 <= 1.4, else
  from the Pelz-Good expansion (`_cdf_pelz_good`).

Where Simard & L'Ecuyer use the Pomeranz recursion (n <= 140,
0.754693 < n*D^2 <= 4), Durbin's matrix stands in; the two agree to about
1e-11 relative. tests/test_kstest.py is the oracle: it holds D bit-equal, and
the p-value to 1e-9 relative, to an established implementation of the same
asymptotic test on every branch.
"""

from __future__ import annotations

import math

import numpy as np

_SCALE_EXP = 128  # Durbin's matrix powers are rescaled by 2**128 on the way
_SCALE = 2.0**_SCALE_EXP


def ks_2samp(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(D, p): the two-sample KS statistic of non-empty samples `a` and `b`
    and its asymptotic two-sided p-value."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    diff = (np.searchsorted(a, pooled, side="right") / len(a)
            - np.searchsorted(b, pooled, side="right") / len(b))
    below, above = float(np.clip(-diff.min(), 0.0, 1.0)), float(diff.max())
    d = below if below > above else above  # ties take `above`: never -0.0
    m, n = float(len(a)), float(len(b))
    return d, kolmogorov_sf(d, round(m * n / (m + n)))


def kolmogorov_sf(d: float, n: int) -> float:
    """P(D_n >= d) for the two-sided one-sample KS statistic of n events;
    NaN when n < 1 (two samples of one event each give n = 0)."""
    if n < 1:
        return math.nan
    t = n * d
    if d <= 0.5 / n or t <= 0.5:
        return 1.0
    if d >= 1.0:
        return 0.0
    if t <= 1.0:  # Ruben-Gambino: CDF = n! ((2t - 1)/n)^n
        return _clip(1.0 - math.exp(math.lgamma(n + 1) + n * math.log((2 * t - 1) / n)))
    if t >= n - 1:  # Ruben-Gambino
        return _clip(2 * (1.0 - d) ** n)
    nd2 = t * d
    if d >= 0.5:
        return _clip(2 * _smirnov(n, d))
    if n <= 140:
        return _clip(2 * _smirnov(n, d) if nd2 > 4 else 1.0 - _cdf_durbin(n, d))
    if nd2 >= 370:
        return 0.0
    if nd2 >= 2.2:
        return _clip(2 * _smirnov(n, d))
    if n <= 100000 and n * d**1.5 <= 1.4:
        return _clip(1.0 - _cdf_durbin(n, d))
    return _clip(1.0 - _cdf_pelz_good(n, d))


def _clip(p: float) -> float:
    return min(max(p, 0.0), 1.0)


def _smirnov(n: int, d: float) -> float:
    """One-sided tail P(D_n^+ >= d), 0 < d < 1, by the Birnbaum-Tingey sum
    d * sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1) over the j with
    1 - d - j/n > 0. Every term is positive; they are summed relative to the
    largest, so the sum underflows only where the tail itself does."""
    j = np.arange(n + 1)
    rest = 1.0 - d - j / n
    j = j[rest > 0]
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_terms = (log_fact[n] - log_fact[j] - log_fact[n - j]
                 + (n - j) * np.log(rest[j]) + (j - 1) * np.log(d + j / n))
    top = log_terms.max()
    return d * math.exp(top) * float(np.exp(log_terms - top).sum())


def _cdf_durbin(n: int, d: float) -> float:
    """P(D_n < d) for n*d > 1: the (k, k) entry of n!/n^n H^n, where Durbin's
    (2k-1)-square matrix H is built for d = (k - h)/n, 0 <= h < 1
    (Marsaglia, Tsang & Wang 2003). Powers are rescaled by 2**128 to stay
    within range."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.cumprod(1.0 / np.arange(1, m + 1))  # 1/j!, j = 1..m
    w = np.concatenate([[1.0], inv_fact[:-1]])  # 1/j!, j = 0..m-1
    v = (1.0 - h ** np.arange(1, m + 1)) * inv_fact
    v[-1] = (1.0 + max(2 * h - 1.0, 0.0) ** m - 2 * h**m) * inv_fact[-1]
    r, c = np.indices((m, m))
    lag = r - c + 1  # below the superdiagonal, H[r, c] = 1/(r - c + 1)!
    mat = np.where(lag >= 0, w[np.clip(lag, 0, m - 1)], 0.0)
    mat[:, 0] = v
    mat[-1, :] = v[::-1]

    power, exp_power, exp_mat, left = np.eye(m), 0, 0, n
    while left:
        if left % 2:
            power = power @ mat
            exp_power += exp_mat
        mat = mat @ mat
        exp_mat *= 2
        if abs(mat[k - 1, k - 1]) > _SCALE:
            mat /= _SCALE
            exp_mat += _SCALE_EXP
        left //= 2
    p = float(power[k - 1, k - 1])
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if abs(p) < 1.0 / _SCALE:
            p *= _SCALE
            exp_power -= _SCALE_EXP
    return math.ldexp(p, exp_power)


def _cdf_pelz_good(n: int, d: float) -> float:
    """P(D_n <= d) from the Pelz-Good (1976) small-z form of the Li-Chien /
    Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n^1.5,
    z = d sqrt(n)."""
    z = math.sqrt(n) * d
    z2 = z * z
    log_q = -math.pi**2 / 8 / z2
    if log_q < -708:
        return 0.0
    pi2, pi4, pi6 = math.pi**2, math.pi**4, math.pi**6
    max_k = math.ceil(16 * z / math.pi)
    # sum over odd m = 2k - 1 of c(m) q^(m^2), q = exp(log_q)
    m2 = (2.0 * np.arange(1, max_k + 1) - 1) ** 2
    q_m2 = np.exp(log_q * m2)
    k1 = -z2 + pi2 / 4 * m2
    k2 = (6 * z**6 + 2 * z**4) + (2 * z**4 - 5 * z2) * pi2 / 4 * m2 + pi4 * (1 - 2 * z2) / 16 * m2**2
    k3 = ((-30 * z**6 - 90 * z**8) + pi2 * (135 * z**4 - 96 * z**6) / 4 * m2
          + pi4 * (-60 * z2 + 212 * z**4) / 16 * m2**2 + pi6 * (5 - 30 * z2) / 64 * m2**3)
    root = math.sqrt(2 * math.pi)
    terms = np.array([q_m2.sum() / z, (k1 * q_m2).sum() / (6 * z**4),
                      (k2 * q_m2).sum() / (72 * z**7), (k3 * q_m2).sum() / (6480 * z**10)]) * root
    # K2 and K3 also carry a sum over every integer k of q'^(k^2), q' = exp(-pi^2 / (2 z^2))
    ks = np.arange(1.0, max_k + 1)
    q_k2 = np.exp(-pi2 / 2 / z2 * ks**2)
    sqrt3z = math.sqrt(3) * z
    terms[2] += float((ks**2 * q_k2).sum()) * pi2 * root / (-36 * z**3)
    terms[3] += float(((sqrt3z + math.pi * ks) * (sqrt3z - math.pi * ks) * ks**2 * q_k2).sum()
                      ) * pi2 * root / (216 * z**6)
    return float((terms / float(n) ** (np.arange(4) / 2.0)).sum())
