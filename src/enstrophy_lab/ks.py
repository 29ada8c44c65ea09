"""Exact two-sided one-sample Kolmogorov-Smirnov test against N(0, sigma²).

`ks_norm(sample, sigma)` returns the (statistic, p-value) pair of
`scipy.stats.kstest(sample, "norm", args=(0.0, sigma))` bit for bit, without
importing `scipy.stats`.  The p-value is P(D_n >= d) of the exact two-sided
Kolmogorov distribution, chosen among its algorithms by the dispatch of
Simard & L'Ecuyer (J. Stat. Softw. 39(11), 2011):

- Ruben-Gambino closed forms for n·d <= 1 and n·d >= n - 1;
- 2·smirnov(n, d) for d >= 1/2 and in the upper tail;
- Durbin's matrix power in the form of Marsaglia, Tsang & Wang (J. Stat.
  Softw. 8(18), 2003), rescaled by 2^128;
- Pomeranz's recursion (Comm. ACM 17(12), 1974);
- the Pelz-Good expansion (J. R. Stat. Soc. B 38(2), 1976).

The code follows the survival-function path of scipy's `_ksstats.py` step
for step: the same thresholds, the same numpy operations in the same order
and the same long-double rescaling, so the roundings agree as well.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, smirnov

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6
# B_{2j} / (2j) / (2j - 1) for j = 8, ..., 1 (Stirling series of log n!)
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _clip(p):
    return np.clip(p, 0.0, 1.0)


def _dmtw_cdf(n: int, d):
    """P(D_n <= d) from the k-th diagonal entry of (n!/n^n) H^n, 1/(2n) < d < 1."""
    k = int(np.ceil(n * d))
    h = k - n * d
    m = 2 * k - 1
    # first column v and last row flip(v) of H; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac
    H = np.zeros([m, m])
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(m)
    nn, expnt, Hexpnt = n, 0, 0
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip(p)


def _pomeranz_j1j2(i: int, n: int, ll: int, ceilf: int, roundf: int) -> tuple[int, int]:
    """Endpoints of the nonzero stretch of row i of the Pomeranz recursion."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _pomeranz_cdf(n: int, x):
    """P(D_n <= x) as n! times the last entry of 2n + 1 Poisson convolutions."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf, roundf = int(f > 0), int(f > 0.5)
    npwrs = 2 * (ll + 1)
    # (g/n)^m/m!, (2g/n)^m/m! and ((1 - 2g)/n)^m/m!
    gpower, twogpower, onem2gpower = np.empty(npwrs), np.empty(npwrs), np.empty(npwrs)
    gpower[0] = twogpower[0] = onem2gpower[0] = 1.0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    expnt = 0
    V0, V1 = np.zeros([npwrs]), np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0
    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            V1[:j2 - j1 + 1] = conv[j1 - k1:j2 - k1 + 1]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip(ans)


def _pelz_good_cdf(n: int, x):
    """P(D_n <= x) from the Li-Chien/Korolyuk series in theta-function form."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z ** 2, z ** 3, z ** 4, z ** 6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < -708:
        return 0.0
    q = np.exp(qlog)
    k1a = -zsquared
    k1b = _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z ** 8

    # Horner scheme in q^8 over the odd integers m = 2k - 1
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m ** 2, m ** 4, m ** 6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z ** 7, 6480 * z ** 10])

    # the sums over all integers k in K_2 and K_3
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    return sum(K0to3)


def kolmogorov_sf(n: int, d) -> float:
    """P(D_n >= d) for the two-sided statistic of a sample of size n >= 1."""
    d = np.float64(d)
    if np.isnan(d):
        return float("nan")
    if d >= 1.0:
        return 0.0
    t = n * d
    if d <= 0.5 / n or t <= 0.5:  # kstwo's support starts at 1/(2n)
        return 1.0
    if t <= 1.0 and n <= 140:  # Ruben-Gambino
        return float(_clip(1.0 - np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))))
    if t <= 1.0:  # Ruben-Gambino, Stirling's n!/n^n
        rn = 1.0 / n
        log_nfact = np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)
        return float(_clip(1.0 - np.exp(log_nfact + n * np.log(2 * t - 1))))
    if t >= n - 1:  # Ruben-Gambino
        return float(_clip(2 * (1.0 - d) ** n))
    if d >= 0.5:  # exact
        return float(_clip(2 * smirnov(n, d)))
    nxsquared = t * d
    if n <= 140:
        if nxsquared <= 0.754693:
            return float(_clip(1.0 - _dmtw_cdf(n, d)))
        if nxsquared <= 4:
            return float(_clip(1.0 - _pomeranz_cdf(n, d)))
        return float(_clip(2 * smirnov(n, d)))  # Miller
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return float(_clip(2 * smirnov(n, d)))
    if n <= 100000 and n * d ** 1.5 <= 1.4:
        return float(_clip(1.0 - _dmtw_cdf(n, d)))
    return float(_clip(1.0 - _pelz_good_cdf(n, d)))


def ks_norm(sample: np.ndarray, sigma: float) -> tuple[float, float]:
    """Two-sided KS statistic and exact p-value of `sample` against N(0, sigma²)."""
    x = np.sort(sample)
    n = x.shape[-1]
    cdf = ndtr((x - 0.0) / sigma)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    d = d_plus if d_plus > d_minus else d_minus
    return float(d), kolmogorov_sf(n, d)
