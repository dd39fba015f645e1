"""Exponential sums sum_j F_j e^{s x_j} at many points s by Taylor moments,
the multi-evaluation idea of Odlyzko-Schoenhage in its simplest form.

Around a centre c, with a base point x0 and a scale h,

    sum_j F_j e^{s x_j} = e^{(s-c) x0} sum_m mom[m] ((s-c)/h)^m,
    mom[m] = sum_j F_j e^{c x_j} (h (x_j - x0))^m / m!.

When |(s-c)(x_j - x0)| <= rho for every j, the terms m >= M = terms(rho) are
at most rho^M/M!/(1 - rho/(M+1)) < 3e-19 times
|e^{(s-c) x0}| sum_j |F_j e^{Re(c) x_j}|: past z^M/M! the series of e^z is
below a geometric series of ratio |z|/(M+1).  Callers: testfn._mellin_sum
(Gauss nodes, rho = 2, 26 terms) and zeta._bisect (x = -log n, F = 1, rho =
0.04 log 1166 = 0.282 and 14 terms at t = 1000, sum n^(-1/2) < 68).
"""

import math

import numpy as np

#: Centres per matrix product.
_CHUNK = 512


def terms(rho: float) -> int:
    """The smallest M >= 1 with rho^M / M! / (1 - rho/(M+1)) < 3e-19."""
    M, term = 1, rho
    while not (rho < M + 1 and term / (1.0 - rho / (M + 1)) < 3e-19):
        M += 1
        term *= rho / M
    return M


def moments(x: np.ndarray, F: np.ndarray, c: np.ndarray, x0: float, h: float,
            M: int) -> np.ndarray:
    """mom[m, k] = sum_j F_j e^{c_k x_j} (h (x_j - x0))^m / m! for m < M."""
    hu = h * (x - x0)
    powers = np.ones((M, x.size))
    for m in range(1, M):
        np.multiply(powers[m - 1], hu, out=powers[m])
    powers *= np.array([1.0 / math.factorial(m) for m in range(M)])[:, None]
    mom = np.empty((M, c.size), dtype=complex)
    for k in range(0, c.size, _CHUNK):
        # (w, N) exponentials: same bits, 20% faster on zeta's brackets, 8% slower
        # on Mellin windows; F's product makes them (N, 2w) reals for one dgemm.
        phases = np.multiply.outer(c[k:k + _CHUNK], x)
        phases = np.multiply(F[:, None], np.exp(phases, out=phases).T, order="C")
        mom[:, k:k + _CHUNK] = (powers @ phases.view(np.float64)).view(complex)
    return mom


def horner(mom: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_m mom[m, k] v_k^m for every column k of mom."""
    acc = mom[-1].copy()
    for m in range(mom.shape[0] - 2, -1, -1):
        acc *= v
        acc += mom[m]
    return acc
