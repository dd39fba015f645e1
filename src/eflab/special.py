"""Complex special functions and the local gamma factors of the completed zeta.

Each completion of the rationals (the real numbers, or Q_p for a prime p)
carries a local gamma function relating Fourier transforms of the homogeneous
distributions |x|^(s-1) and |x|^(-s):

    real place:   Gamma_r(s) = pi^(1/2-s) Gamma(s/2) / Gamma((1-s)/2)
    prime place:  Gamma_p(s) = (1 - p^(s-1)) / (1 - p^(-s))

``lambda_factor`` is the negative logarithmic derivative of the local gamma
factor, the weight that appears on vertical lines inside the critical strip.

log-gamma and digamma are computed by argument raising into Re(z) >= 10
followed by the Stirling series through the B_16 term; that combination keeps
double-precision relative accuracy for every argument this package uses
(|s| <= 1e3 in or near the critical strip, positive reals, theta-function
arguments 1/4 + it/2).  Left of Re(z) = 0 the reflection formulas map the
argument to Re(1 - z) > 1, so no argument takes more than ten steps.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError

EULER_GAMMA = 0.5772156649015328606
LOG_PI = math.log(math.pi)
LOG_2PI = math.log(2.0 * math.pi)
TWO_PI = 2.0 * math.pi

#: Pole-detection radius: arguments closer than this to a pole raise PoleError
#: instead of returning a huge value.
POLE_TOL = 1e-12

#: Miller-Rabin with the first 13 primes as bases is exact below the
#: smallest strong pseudoprime to all of them (Sorenson and Webster, Math.
#: Comp. 86 (2017)); the first 12 primes, 2..37, are exact below 3.2e23 only.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_MAX = 3_317_044_064_679_887_385_961_981


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (p, e) pairs.

    Trial division by the primes up to 41, then by odd f >= 43, which stops
    as soon as the cofactor left is a prime or a prime power (is_prime on it
    and on its exact integer roots): a prime or a prime power times a small
    number is answered at once, while a cofactor with two large prime
    factors still takes about half the smaller one in steps.  Meant for
    single integers, which may exceed the sieve's range (a prime place read
    from the command line); ranges of n go through zeta.VonMangoldtSieve.
    """
    if n < 1:
        raise DomainError(f"factorize needs n >= 1, got {n}")
    out = []
    m = n
    for f in _MR_BASES:
        e = 0
        while m % f == 0:
            m //= f
            e += 1
        if e:
            out.append((f, e))
    f = _MR_BASES[-1] + 2  # every prime factor of m is at least f
    while m > 1:
        tail = (m, 1) if f * f > m else _prime_power(m, f)
        if tail is not None:
            out.append(tail)
            break
        while f * f <= m and m % f:
            f += 2
        e = 0
        while m % f == 0:
            m //= f
            e += 1
        if e:
            out.append((f, e))
    return out


def _integer_root(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by Newton's method from above."""
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _prime_power(m: int, least: int) -> tuple[int, int] | None:
    """(r, k) if m = r^k with r prime, else None (also when undecidable).

    Every prime factor of m is at least `least`, so an exact j-th root needs
    least^j <= m.  A perfect power is replaced by its root with the smallest
    such j until the base is prime or no root is exact.
    """
    k = 1
    while m >= PRIME_TEST_MAX or not is_prime(m):
        j = 2
        while least ** j <= m:
            r = _integer_root(m, j)
            if r ** j == m:
                break
            j += 1
        else:
            return None
        m, k = r, k * j
    return m, k


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test with the bases _MR_BASES.

    Exact for n < PRIME_TEST_MAX (about 3.3e24); DomainError above it.
    """
    n = operator.index(n)
    if n >= PRIME_TEST_MAX:
        raise DomainError(f"primality is decided only below {PRIME_TEST_MAX}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Place:
    """A completion of Q: the real place (p is None) or a finite prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not isinstance(self.p, int) or not is_prime(self.p):
                raise DomainError(f"not a prime place: p={self.p!r}")

    @staticmethod
    def real() -> "Place":
        return Place(None)

    @staticmethod
    def prime(p: int) -> "Place":
        return Place(p)

    @property
    def is_real(self) -> bool:
        return self.p is None

    @property
    def label(self) -> str:
        return "r" if self.p is None else str(self.p)

    def __str__(self) -> str:
        return self.label


def _ensure_finite(values, what: str):
    if not np.all(np.isfinite(values)):
        raise DomainError(f"non-finite value escaped from {what}")
    return values


def _nonpos_int_mask(z: np.ndarray) -> np.ndarray:
    k = np.round(z.real)
    return (k <= 0) & (np.abs(z - k) < POLE_TOL)


def _pole_check_gamma(z: np.ndarray, what: str):
    mask = _nonpos_int_mask(z)
    if mask.any():
        bad = np.atleast_1d(z)[np.atleast_1d(mask)][0]
        raise PoleError(f"{what}: argument {bad} is at a non-positive integer pole")


# Stirling coefficients B_{2k} / (2k (2k-1)) for log-gamma, k = 1..8 (through B_16).
_LG_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

# Stirling coefficients B_{2k} / (2k) for digamma, k = 1..8 (through B_16).
_PSI_COEF = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)

_SHIFT_RE = 10.0


def _as_complex_array(s):
    z = np.asarray(s, dtype=np.complex128)
    return z, z.ndim == 0


def _reduced(z: np.ndarray) -> np.ndarray:
    """z minus the nearest integer to Re z (exact), for the 1-periodic factors."""
    return z - np.round(z.real)


def _log_gamma_right(z: np.ndarray) -> np.ndarray:
    """log Gamma on Re z >= 0: at most ten unit steps into Re w >= 10, then Stirling."""
    acc = np.zeros_like(z)
    w = z.copy()
    # Recurrence log G(z) = log G(z+1) - log z, applied until Re(w) >= 10.
    # Principal logs stay principal here: each w+k avoids the cut (-inf, 0]
    # whenever z does, so the result is the analytic continuation from the
    # positive reals.
    while True:
        mask = w.real < _SHIFT_RE
        if not mask.any():
            break
        acc[mask] -= np.log(w[mask])
        w[mask] += 1.0
    r2 = 1.0 / (w * w)
    ser = np.zeros_like(w)
    for c in reversed(_LG_COEF):
        ser = (ser + c) * r2
    ser = ser * w  # sum c_k w^(1-2k) = w * sum c_k w^(-2k)
    return (w - 0.5) * np.log(w) - w + 0.5 * LOG_2PI + ser + acc


def _digamma_right(z: np.ndarray) -> np.ndarray:
    """psi on Re z >= 0: at most ten unit steps into Re w >= 10, then Stirling."""
    acc = np.zeros_like(z)
    w = z.copy()
    while True:
        mask = w.real < _SHIFT_RE
        if not mask.any():
            break
        acc[mask] -= 1.0 / w[mask]
        w[mask] += 1.0
    r2 = 1.0 / (w * w)
    ser = np.zeros_like(w)
    for c in reversed(_PSI_COEF):
        ser = (ser + c) * r2
    return np.log(w) - 0.5 / w - ser + acc


def log_gamma(s):
    """Principal branch of log Gamma(s), relative error <= 1e-12 for |s| <= 1e3.

    Accepts a complex scalar or array.  Arguments within POLE_TOL of a
    non-positive integer raise PoleError.  Re s < 0 goes through the
    reflection formula, written for Im s >= 0 as

        log G(s) = log(2 pi) - i pi/2 + i pi s - log(1 - e^(2 pi i s)) - log G(1 - s),

    where every term is analytic on the upper half-plane and the constant is
    fixed at s = 1/2, so it is the principal branch; Im s < 0 follows by
    conjugation and a real s takes the limit from above, as mpmath does.
    """
    z0, scalar = _as_complex_array(s)
    z = np.atleast_1d(z0).astype(np.complex128)
    _pole_check_gamma(z, "log_gamma")
    out = np.empty_like(z)
    left = z.real < 0.0
    out[~left] = _log_gamma_right(z[~left])
    if left.any():
        lower = z[left].imag < 0.0
        zu = np.where(lower, np.conj(z[left]), z[left])
        val = (LOG_2PI - 0.5j * math.pi + 1j * math.pi * zu
               - np.log(-np.expm1(2j * math.pi * _reduced(zu))) - _log_gamma_right(1.0 - zu))
        out[left] = np.where(lower, np.conj(val), val)
    _ensure_finite(out, "log_gamma")
    return complex(out[0]) if scalar else out.reshape(z0.shape)


def digamma(s):
    """psi(s) = Gamma'(s)/Gamma(s), relative error <= 1e-12; complex scalar or array.

    Re s < 0 goes through the reflection psi(s) = psi(1 - s) - pi cot(pi s).
    """
    z0, scalar = _as_complex_array(s)
    z = np.atleast_1d(z0).astype(np.complex128)
    _pole_check_gamma(z, "digamma")
    out = np.empty_like(z)
    left = z.real < 0.0
    out[~left] = _digamma_right(z[~left])
    if left.any():
        zl = z[left]
        out[left] = _digamma_right(1.0 - zl) - math.pi / np.tan(math.pi * _reduced(zl))
    _ensure_finite(out, "digamma")
    return complex(out[0]) if scalar else out.reshape(z0.shape)


def _prime_pole_check(p: int, z: np.ndarray):
    # Gamma_p has poles exactly where p^(-s) = 1, i.e. s = 2 pi i k / log p.
    logp = math.log(p)
    k = np.round(z.imag * logp / TWO_PI)
    pole = 1j * (TWO_PI / logp) * k
    mask = np.abs(z - pole) < POLE_TOL
    if mask.any():
        bad = np.atleast_1d(z)[np.atleast_1d(mask)][0]
        raise PoleError(f"gamma_factor at prime {p}: {bad} is at a pole 2*pi*i*k/log((p))")


def gamma_factor(place: Place, s):
    """Local gamma factor Gamma_nu(s) at the given place; scalar or array s.

    Real place poles (s in {0, -2, -4, ...}) and prime-place poles
    (s = 2 pi i k / log p) raise PoleError; zeros (e.g. s = 1 at the real
    place) are returned as exact 0.
    """
    z0, scalar = _as_complex_array(s)
    z = np.atleast_1d(z0).astype(np.complex128)
    if place.is_real:
        half = z / 2.0
        _pole_check_gamma(half, "gamma_factor real place")
        w = (1.0 - z) / 2.0
        zero_mask = _nonpos_int_mask(w)
        out = np.zeros_like(z)
        rest = ~zero_mask
        if rest.any():
            expo = (0.5 - z[rest]) * LOG_PI + log_gamma(z[rest] / 2.0) - log_gamma(w[rest])
            out[rest] = np.exp(expo)
        _ensure_finite(out, "gamma_factor")
    else:
        p = place.p
        _prime_pole_check(p, z)
        logp = math.log(p)
        num = -np.expm1((z - 1.0) * logp)  # 1 - p^(s-1)
        den = -np.expm1(-z * logp)         # 1 - p^(-s)
        out = num / den
        _ensure_finite(out, "gamma_factor")
    return complex(out[0]) if scalar else out.reshape(z0.shape)


def lambda_factor(place: Place, s):
    """Lambda_nu(s) = -Gamma_nu'(s)/Gamma_nu(s) on the open strip 0 < Re(s) < 1.

    Real place: log pi - psi(s/2)/2 - psi((1-s)/2)/2.
    Prime p:    log p * [p^(s-1)/(1-p^(s-1)) + p^(-s)/(1-p^(-s))].
    """
    z0, scalar = _as_complex_array(s)
    z = np.atleast_1d(z0).astype(np.complex128)
    if np.any(z.real <= 0.0) or np.any(z.real >= 1.0):
        raise DomainError("lambda_factor: argument outside the open strip 0 < Re(s) < 1")
    if place.is_real:
        out = LOG_PI - 0.5 * digamma(z / 2.0) - 0.5 * digamma((1.0 - z) / 2.0)
    else:
        p = place.p
        logp = math.log(p)
        q1 = np.exp((z - 1.0) * logp)  # p^(s-1), modulus < 1 in the strip
        q2 = np.exp(-z * logp)         # p^(-s),  modulus < 1 in the strip
        out = logp * (q1 / (1.0 - q1) + q2 / (1.0 - q2))
    _ensure_finite(out, "lambda_factor")
    return complex(out[0]) if scalar else out.reshape(z0.shape)
