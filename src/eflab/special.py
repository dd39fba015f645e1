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
arguments 1/4 + it/2).
"""

from __future__ import annotations

import math
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


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (p, e) pairs, by trial division.

    Meant for single integers, which may exceed the sieve's range (a prime
    place read from the command line); ranges of n go through
    zeta.VonMangoldtSieve.
    """
    if n < 1:
        raise DomainError(f"factorize needs n >= 1, got {n}")
    out = []
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division (desk-scale inputs)."""
    return n >= 2 and factorize(n) == [(n, 1)]


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
_SHIFT_GUARD = 2_000_000


def _check_shift_steps(z: np.ndarray, what: str) -> None:
    # The recurrence below takes ceil(_SHIFT_RE - min Re z) unit steps; refuse
    # more than _SHIFT_GUARD of them before taking any.
    if z.size and _SHIFT_RE - float(np.min(z.real)) > _SHIFT_GUARD:
        raise DomainError(f"{what}: argument too far left for desk scale")


def _as_complex_array(s):
    z = np.asarray(s, dtype=np.complex128)
    return z, z.ndim == 0


def log_gamma(s):
    """Principal branch of log Gamma(s), relative error <= 1e-12 for |s| <= 1e3.

    Accepts a complex scalar or array.  Arguments within POLE_TOL of a
    non-positive integer raise PoleError.
    """
    z0, scalar = _as_complex_array(s)
    z = np.atleast_1d(z0).astype(np.complex128)
    _pole_check_gamma(z, "log_gamma")
    _check_shift_steps(z, "log_gamma")
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
    out = (w - 0.5) * np.log(w) - w + 0.5 * LOG_2PI + ser + acc
    _ensure_finite(out, "log_gamma")
    return complex(out[0]) if scalar else out.reshape(z0.shape)


def digamma(s):
    """psi(s) = Gamma'(s)/Gamma(s), relative error <= 1e-12; complex scalar or array."""
    z0, scalar = _as_complex_array(s)
    z = np.atleast_1d(z0).astype(np.complex128)
    _pole_check_gamma(z, "digamma")
    _check_shift_steps(z, "digamma")
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
    out = np.log(w) - 0.5 / w - ser + acc
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
