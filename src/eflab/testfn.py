"""Test functions on the positive half-line and their multiplicative calculus.

Three kinds:

  * smooth compactly supported combinations of log-axis bump terms
    (amp, mu, sigma, kappa, order), each u -> amp * e^{kappa x} *
    d^order/dx^order B((x - mu)/sigma) at x = log u, with
    B(x) = exp(-1/(1-x^2)); literals give kappa = 0 and order = 0, and
    transposes and log-derivations of a combination are combinations again;
  * the step function 1_(1,X) with midpoint values 1/2 at u = 1 and u = X,
    and its transpose;
  * samples on a uniform log grid, produced by multiplicative convolution.

The Mellin transform here is ghat(s) = int_0^inf g(u) u^s du/u, computed on
the log axis as int F(x) e^{sx} dx with composite Gauss-Legendre panels whose
node density tracks |Im s|, summed at many s at once by expsum's Taylor
moments; step functions use the closed form (X^s - 1)/s.

Conventions fixed by the calculus:

  transpose      g^tau(u)   = (1/u) g(1/u),       Mellin s -> 1-s
  conj_reflect   g-check(u) = (1/u) conj(g(1/u)), Mellin s -> conj on 1-conj(s)
  derivation     (Dg)(u)    = -u g'(u),           Mellin multiplies by s
  mconvolve      (f*k)(u)   = int f(u/v) k(v) dv/v

On a bump term, B being even, the transpose is (amp, mu, sigma, kappa, m)
-> ((-1)^m amp, -mu, sigma, -1-kappa, m), and D = -d/dx gives the two terms
(-kappa amp, m) and (-amp, m+1).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import expsum
from .errors import AdmissibilityError, DomainError, ParseError
from .quadrature import panel_nodes

#: Log-grid spacing of sampled convolutions.
CONV_SPACING = 1.0 / 512.0

_MELLIN_CHUNK = 512
#: Taylor radius |s - c| * max|x - x0| inside a moment window.
_MOMENT_RHO = 2.0
#: Calls with fewer ordinates take the direct sum.
_MOMENT_MIN_POINTS = 64

#: Points in the local Lagrange stencil of log-grid interpolation.
_STENCIL = 8

#: Most powers of 2 above 64 that _u_breakpoints puts inside a support.
_U_POWERS_MAX = 128


def _mellin_direct(x: np.ndarray, F: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_k F_k e^{s x_k} for every s, in blocks of _MELLIN_CHUNK ordinates."""
    out = np.empty(s.shape, dtype=complex)
    for lo in range(0, s.size, _MELLIN_CHUNK):
        blk = s[lo:lo + _MELLIN_CHUNK]
        out[lo:lo + _MELLIN_CHUNK] = F @ np.exp(np.multiply.outer(x, blk))
    return out


def _mellin_sum(x: np.ndarray, F: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_k F_k e^{s x_k} for every s in a 1-D array, by windowed Taylor moments.

    With x0 the midpoint of the nodes and r half their span, the ordinates
    are split into windows of half-width at most h = rho/r along Im s, and
    expsum sums around each window's centre c: a point within h of it has
    |(s-c)(x_k - x0)| <= rho = 2 (26 terms), and expsum's error scale is at
    most e^{|Re(s-c)| r} sum |F e^{Re s x}|, where the factor is 1 on a
    vertical line (the centres share the median real part) and at most e^2.
    Calls with fewer than _MOMENT_MIN_POINTS ordinates, more than three
    windows per four ordinates or a non-finite ordinate, and points farther
    than h from their centre, take the direct sum.
    """
    if s.size < _MOMENT_MIN_POINTS or x.size < 2:
        return _mellin_direct(x, F, s)
    x_lo, x_hi = float(x.min()), float(x.max())
    x0 = 0.5 * (x_lo + x_hi)
    r = 0.5 * (x_hi - x_lo)
    lo = s.imag.min()
    span = s.imag.max() - lo
    windows = span * r / (2.0 * _MOMENT_RHO)
    if r == 0.0 or not 4.0 * windows <= 3.0 * s.size:
        return _mellin_direct(x, F, s)
    h = _MOMENT_RHO / r
    n_win = max(1, math.ceil(windows))
    width = span / n_win
    idx = (np.minimum(((s.imag - lo) / width).astype(np.intp), n_win - 1) if n_win > 1
           else np.zeros(s.size, dtype=np.intp))
    sigma = s.real[0] if np.all(s.real == s.real[0]) else np.median(s.real)
    c = sigma + 1j * (lo + (np.arange(n_win) + 0.5) * width)
    mom = expsum.moments(x, F, c, x0, h, expsum.terms(_MOMENT_RHO))
    d = s - c[idx]
    near = np.abs(d) <= h
    dn = d[near]
    out = np.empty(s.shape, dtype=complex)
    out[near] = np.exp(dn * x0) * expsum.horner(mom[:, idx[near]], dn / h)
    if not near.all():
        out[~near] = _mellin_direct(x, F, s[~near])
    return out


@lru_cache(maxsize=None)
def _inverse_vandermonde(m: int) -> np.ndarray:
    """Inverse Vandermonde matrix of the m nodes -(m-1)/2, ..., (m-1)/2.

    Row j maps m samples at those nodes to the u^j coefficient of their
    interpolating polynomial.
    """
    u = np.arange(m) - (m - 1) / 2.0
    inv = np.linalg.inv(np.vander(u, increasing=True))
    inv.flags.writeable = False
    return inv


#: max |B^(k)| over (-1, 1) for k = 0..3, rounded up (measured 0.36788,
#: 0.79843, 7.7497 and 186.3999 on a 4e6-point grid).
_KERNEL_DERIV_MAX = (0.368, 0.799, 7.75, 186.4)


@lru_cache(maxsize=None)
def _kernel_poly(k: int) -> tuple[int, ...]:
    """Integer coefficients, constant term first, of P_k in
    B^(k)(xi) = B(xi) P_k(xi) / (1 - xi^2)^(2k):

        P_0 = 1,  P_(k+1) = (1 - xi^2)^2 P_k' + (4k xi (1 - xi^2) - 2 xi) P_k.
    """
    if k == 0:
        return (1,)
    m = k - 1
    out = [0] * (3 * k + 2)
    for i, c in enumerate(_kernel_poly(m)):  # c xi^i feeds xi^(i-1), xi^(i+1), xi^(i+3)
        for e, f in ((i - 1, i), (i + 1, 4 * m - 2 - 2 * i), (i + 3, i - 4 * m)):
            out[e] += f * c
    while out[-1] == 0:
        out.pop()
    return tuple(out)


def _kernel_deriv_bound(k: int, sigma: float) -> float:
    """M_k sigma^-k >= max |d^k/dx^k B(x/sigma)|; inf when M_k leaves the
    float range.

    M_k is the measured _KERNEL_DERIV_MAX up to order 3, and above it the
    proven ||P_k||_1 (2k/e)^(2k): |P_k| <= ||P_k||_1 on [-1, 1], and
    e^(-v) v^(2k) <= (2k/e)^(2k) for v = 1/(1 - xi^2).  A finite M_k keeps
    P_k's coefficients floats.
    """
    if k < len(_KERNEL_DERIV_MAX):
        return _KERNEL_DERIV_MAX[k] * sigma ** -k
    log_m = math.log(sum(abs(c) for c in _kernel_poly(k))) + 2 * k * math.log(2 * k / math.e)
    return math.exp(log_m) * sigma ** -k if log_m < _LOG_FLOAT_MAX else math.inf


def _bump_kernel(xi: np.ndarray, order: int = 0) -> np.ndarray:
    """d^order/dxi^order of B(xi) = exp(-1/(1-xi^2)) inside (-1,1), zero outside."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape, dtype=float)
    m = xi * xi < 1.0 - 1e-10
    if not m.any():
        return out
    x = xi[m]
    one = 1.0 - x * x
    if order == 0:
        out[m] = np.exp(-1.0 / one)
    else:  # B / (1 - xi^2)^(2k) as one exponential, finite at every order
        p = np.zeros_like(x)
        for c in reversed(_kernel_poly(order)):  # Horner
            p = p * x + float(c)
        out[m] = np.exp(-1.0 / one - 2 * order * np.log(one)) * p
    return out


class BumpTerm(NamedTuple):
    """amp * e^{kappa x} * d^order/dx^order B((x - mu)/sigma) on the log axis."""

    amp: complex
    mu: float
    sigma: float
    kappa: float = 0.0
    order: int = 0


class TestFunction:
    """Common protocol: log-axis profile F(x) = g(e^x) plus the algebra ops."""

    is_smooth: bool = True

    # -- representation hooks -------------------------------------------------
    def support_log(self) -> tuple[float, float]:
        raise NotImplementedError

    def profile(self, x):
        return self.profile_deriv(x, 0)

    def profile_deriv(self, x, order: int):
        raise NotImplementedError

    def _breakpoints(self) -> tuple[float, ...]:
        return self.support_log()

    def _u_breakpoints(self) -> list[float]:
        """Panel breaks for quadrature on the u axis, ascending: e^x at every
        log-axis breakpoint, and powers of 2 strictly inside the support.

        The powers are every 2^k up to 64 and from 128 on every m-th, m >= 1
        the smallest that leaves at most _U_POWERS_MAX of those.  So no panel
        inside the support spans more than a factor 2 in u below 64, or 2^m
        above, where panels get the 6000-node cap either way.  Every support
        the literals admit gets m <= 8, at which pf and convolution stay
        within 2.3e-9 of the log-axis routes for bump:mu=0,sigma=705.
        """
        edges = [math.exp(x) for x in self._breakpoints()]
        u1, u2 = edges[0], edges[-1]
        k1, k2 = math.frexp(u1)[1], math.frexp(u2)[1]  # 2^(k-1) <= u < 2^k
        high = range(max(k1, 7), k2)
        m = max(1, math.ceil(len(high) / _U_POWERS_MAX))
        powers = (math.ldexp(1.0, k) for k in [*range(k1, min(k2, 7)), *high[::m]])
        return sorted(set(edges).union(u for u in powers if u < u2))

    @property
    def is_zero(self) -> bool:
        return False

    @property
    def is_real(self) -> bool:
        """True when g takes only real values, so ghat(conj s) = conj ghat(s)."""
        raise NotImplementedError

    # -- pointwise evaluation --------------------------------------------------
    def evaluate(self, u):
        """g(u) for u > 0 (scalar or array), midpoint convention at step jumps."""
        uu = np.asarray(u, dtype=float)
        if np.any(uu <= 0.0):
            raise DomainError("test functions live on (0, inf); got non-positive u")
        scalar = uu.ndim == 0
        vals = self.profile(np.log(np.atleast_1d(uu)))
        return complex(vals[0]) if scalar else vals

    # -- Mellin transform --------------------------------------------------------
    def mellin(self, s):
        """ghat(s) = int g(u) u^s du/u; complex scalar or array argument."""
        sz = np.asarray(s, dtype=complex)
        scalar = sz.ndim == 0
        out = self._mellin_many(sz.reshape(-1))
        return complex(out[0]) if scalar else out.reshape(sz.shape)

    def _mellin_many(self, s: np.ndarray) -> np.ndarray:
        if self.is_zero:
            return np.zeros(s.shape, dtype=complex)
        osc = float(np.max(np.abs(s.imag))) if s.size else 0.0
        x, w = panel_nodes(self._breakpoints(), density=64.0, osc=osc)
        return _mellin_sum(x, w * np.asarray(self.profile(x), dtype=complex), s)

    # -- algebra -------------------------------------------------------------
    def transpose(self) -> "TestFunction":
        """g^tau(u) = (1/u) g(1/u)."""
        raise NotImplementedError

    def conjugate(self) -> "TestFunction":
        raise NotImplementedError

    def conj_reflect(self) -> "TestFunction":
        """g-check(u) = (1/u) conj(g(1/u)); involution, trivial for real g."""
        return self.conjugate().transpose()

    def scale(self, a: complex) -> "TestFunction":
        raise NotImplementedError


@dataclass(frozen=True)
class BumpCombination(TestFunction):
    """Finite sum of compact log-axis bumps; smooth, compactly supported."""

    terms: tuple[BumpTerm, ...]

    def __post_init__(self):
        # sigma^k, which profile derivatives divide by, stays a normal float
        # and sum |amp| M_k/sigma^k is finite, for every k the routes take:
        # up to 2 past a term's own order, and at least 3.
        bound = 0.0
        for t in self.terms:
            if not (math.isfinite(t.mu) and t.sigma > 0.0):
                raise DomainError(f"bad bump term {t}")
            top = max(3, t.order + 2)
            if t.sigma < sys.float_info.min ** (1.0 / top):
                raise DomainError(f"bump sigma={t.sigma:g} is too narrow: sigma^"
                                  f"{top} underflows below {sys.float_info.min:g}")
            bound += abs(complex(t.amp)) * max(_kernel_deriv_bound(k, t.sigma)
                                               for k in range(top + 1))
        if not math.isfinite(bound):
            raise DomainError("bump amplitudes overflow: the sum of |amp| is not finite "
                              "once weighted by max_k M_k/sigma^k, the largest |B^(k)| "
                              "scaled to the bump, k <= max(3, order + 2)")

    @property
    def is_zero(self) -> bool:
        return not self.terms or all(t.amp == 0 for t in self.terms)

    @property
    def is_real(self) -> bool:
        return all(complex(t.amp).imag == 0 for t in self.terms)

    def support_log(self):
        edges = self._breakpoints()
        return (edges[0], edges[-1])

    def _breakpoints(self):
        edges = {e for t in self.terms for e in (t.mu - t.sigma, t.mu + t.sigma)}
        return tuple(sorted(edges)) if edges else (0.0, 0.0)

    def profile_deriv(self, x, order: int):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for t in self.terms:
            xi = (x - t.mu) / t.sigma
            if t.kappa == 0.0:
                m = t.order + order
                out += (t.amp / t.sigma**m) * _bump_kernel(xi, m)
                continue
            # Leibniz: d^k [e^{kappa x} b_m] = e^{kappa x} sum_j C(k,j) kappa^(k-j) b_(m+j)
            val = np.zeros(x.shape, dtype=complex)
            for j in range(order + 1):
                m = t.order + j
                val += ((math.comb(order, j) * t.kappa ** (order - j))
                        * ((t.amp / t.sigma**m) * _bump_kernel(xi, m)))
            out += np.exp(t.kappa * x) * val
        return out

    def transpose(self):
        return BumpCombination(tuple(
            BumpTerm(-t.amp if t.order % 2 else t.amp, -t.mu, t.sigma, -1.0 - t.kappa, t.order)
            for t in self.terms))

    def derive(self) -> "BumpCombination":
        """Dg = -dF/dx: e^{kappa x} b_m gives -kappa e^{kappa x} b_m - e^{kappa x} b_(m+1)."""
        terms = []
        for t in self.terms:
            if t.kappa != 0.0:
                terms.append(t._replace(amp=-t.kappa * t.amp))
            terms.append(t._replace(amp=-t.amp, order=t.order + 1))
        return BumpCombination(tuple(terms))

    def conjugate(self):
        return BumpCombination(tuple(t._replace(amp=complex(t.amp).conjugate())
                                     for t in self.terms))

    def scale(self, a):
        return BumpCombination(tuple(t._replace(amp=a * t.amp) for t in self.terms))

    def __add__(self, other):
        if not isinstance(other, BumpCombination):
            return NotImplemented
        return BumpCombination(self.terms + other.terms)


def bump(mu: float, sigma: float, amp: complex = 1.0) -> BumpCombination:
    """Single bump u -> amp * B((log u - mu)/sigma)."""
    return BumpCombination((BumpTerm(complex(amp), float(mu), float(sigma)),))


@dataclass(frozen=True)
class StepFunction(TestFunction):
    """Indicator of (1, X) with value 1/2 at u = 1 and u = X; X > 1.

    The transposed variant (1/u) 1_(1,X)(1/u) is kept in closed form as well,
    so evaluation and Mellin transforms never touch the jumps numerically.
    """

    X: float
    transposed: bool = False

    is_smooth = False
    is_real = True

    def __post_init__(self):
        if not (self.X > 1.0 and math.isfinite(self.X)):
            raise DomainError(f"step function needs X > 1, got {self.X}")

    def support_log(self):
        lx = math.log(self.X)
        return (-lx, 0.0) if self.transposed else (0.0, lx)

    def evaluate(self, u):
        uu = np.asarray(u, dtype=float)
        if np.any(uu <= 0.0):
            raise DomainError("test functions live on (0, inf); got non-positive u")
        scalar = uu.ndim == 0
        uu = np.atleast_1d(uu).astype(float)
        if self.transposed:
            vals = self.transpose().evaluate(1.0 / uu) / uu
        else:
            vals = np.where((uu == 1.0) | (uu == self.X), 0.5,
                            np.where((uu > 1.0) & (uu < self.X), 1.0, 0.0))
            vals = vals.astype(complex)
        return complex(vals[0]) if scalar else vals

    def profile(self, x):
        return self.evaluate(np.exp(np.asarray(x, dtype=float)))

    def _mellin_many(self, s):
        # (X^s - 1)/s with the removable value log X at s = 0; the transpose
        # evaluates the same closed form at 1 - s.
        z = (1.0 - s) if self.transposed else s
        lx = math.log(self.X)
        out = np.empty(z.shape, dtype=complex)
        small = np.abs(z) < 1e-8
        zl = z[small] * lx
        out[small] = lx * (1.0 + zl / 2.0 + zl * zl / 6.0)
        zb = z[~small]
        out[~small] = np.expm1(zb * lx) / zb
        return out

    def transpose(self):
        return StepFunction(self.X, not self.transposed)

    def conjugate(self):
        return self


def derivation_D(g: TestFunction) -> TestFunction:
    """Dg with mellin(Dg, s) = s * mellin(g, s), for bump combinations only."""
    if not isinstance(g, BumpCombination):
        raise AdmissibilityError("derivation_D needs a bump combination")
    return g.derive()


@dataclass(frozen=True)
class LogGridFunction(TestFunction):
    """Samples on a uniform log grid with local 8-point Lagrange evaluation.

    Produced by mconvolve; the grid values are the convolution's trapezoid
    sums, spectrally accurate because the integrand is smooth and compactly
    supported, and the Mellin transform is taken directly on the grid.
    Between samples the profile and its first two derivatives come from the
    degree-7 polynomial through the 8 nearest samples (the window is clipped
    at the grid ends; shorter grids use all of their samples).
    """

    x0: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=complex))
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.values.size)

    @property
    def is_zero(self):
        return self.values.size == 0 or not np.any(self.values)

    @property
    def is_real(self):
        return not np.any(self.values.imag)

    def support_log(self):
        if self.values.size == 0:
            return (0.0, 0.0)
        return (self.x0, self.x0 + self.h * (self.values.size - 1))

    def profile_deriv(self, x, order: int):
        if order > 2:
            raise NotImplementedError("log-grid functions carry derivatives up to order 2")
        x = np.asarray(x, dtype=float)
        a, b = self.support_log()
        out = np.zeros(x.shape, dtype=complex)
        m = (x >= a) & (x <= b)
        n = self.values.size
        if n == 0 or not m.any():
            return out
        k = min(_STENCIL, n)
        t = (x[m] - self.x0) / self.h
        start = np.clip(np.floor(t).astype(np.intp) - (k // 2 - 1), 0, n - k)
        u = t - start - (k - 1) / 2.0
        coef = self.values[start[:, None] + np.arange(k)] @ _inverse_vandermonde(k).T
        val = np.zeros(u.shape, dtype=complex)
        for j in range(k - 1, order - 1, -1):
            val = val * u + math.perm(j, order) * coef[:, j]
        out[m] = val / self.h**order
        return out

    def _mellin_many(self, s):
        # Values vanish (to all orders) at the grid ends, so the plain
        # h-weighted sum is the trapezoid rule at spectral accuracy.
        if self.is_zero:
            return np.zeros(s.shape, dtype=complex)
        return _mellin_sum(self.xs, self.h * self.values, s)

    def transpose(self):
        if self.values.size == 0:
            return self
        xs = self.xs
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.exp(xs) * self.values  # e^{-x'} v(-x') on the mirrored grid
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"transpose overflows: the log grid reaches x = {xs[-1]:g}")
        return LogGridFunction(-float(xs[-1]), self.h, vals[::-1].copy())

    def conjugate(self):
        return LogGridFunction(self.x0, self.h, np.conjugate(self.values))

    def scale(self, a):
        return LogGridFunction(self.x0, self.h, a * self.values)


def mconvolve(f: TestFunction, k: TestFunction) -> TestFunction:
    """Multiplicative convolution (f*k)(u) = int f(u/v) k(v) dv/v.

    Both operands must be smooth; the result is sampled on a uniform log grid
    fine enough that mellin(f*k) = mellin(f)*mellin(k) holds to ~1e-9 for
    |Im s| <= 50 at the spacing CONV_SPACING.
    """
    if not (f.is_smooth and k.is_smooth):
        raise AdmissibilityError("mconvolve needs smooth operands; step functions are excluded")
    if f.is_zero or k.is_zero:
        return BumpCombination(())
    h = CONV_SPACING

    def grid_samples(g):
        a, b = g.support_log()
        i0 = math.floor(a / h) - 1
        i1 = math.ceil(b / h) + 1
        xs = (np.arange(i0, i1 + 1)) * h
        return i0, np.asarray(g.profile(xs), dtype=complex)

    i0f, Fv = grid_samples(f)
    i0k, Kv = grid_samples(k)
    conv = np.convolve(Fv, Kv) * h
    nz = np.nonzero(np.abs(conv) > 0.0)[0]
    if nz.size == 0:
        return BumpCombination(())
    lo = max(0, int(nz[0]) - 1)
    hi = min(conv.size, int(nz[-1]) + 2)
    return LogGridFunction((i0f + i0k + lo) * h, h, conv[lo:hi])


def autocorrelate(g: TestFunction) -> TestFunction:
    """h = g * g-check, so that hhat(1/2+it) = |ghat(1/2+it)|^2 >= 0 on the line."""
    return mconvolve(g, g.conj_reflect())


#: log of the largest float: a support edge e^x needs |x| below it.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_STEP_RE = re.compile(r"^step:X=([^,+]+)$")
_FIELD_RE = re.compile(r"^(mu|sigma|amp)=([^=,+]+)$")


def _parse_float(text: str, what: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise ParseError(f"bad float {text!r} for {what} "
                         "(note: write exponents without '+', e.g. 1e-3)") from None
    if not math.isfinite(x):
        raise ParseError(f"{what} must be finite, got {text!r}")
    return x


def parse_test_function(text: str) -> TestFunction:
    """Parse a test-function literal.

    Grammar:
        "step:X=<float>"
        "bump:mu=<f>,sigma=<f>[,amp=<f>]" with further terms appended by '+',
        each either a full "bump:..." literal or a bare "mu=...,..." field list.
    """
    text = text.strip()
    if text.startswith("step:"):
        m = _STEP_RE.match(text)
        if not m:
            raise ParseError(f"malformed step literal {text!r}")
        X = _parse_float(m.group(1), "X")
        if not X > 1.0:
            raise ParseError(f"step literal needs X > 1, got {X}")
        return StepFunction(X)
    if not text.startswith("bump:"):
        raise ParseError(f"unknown test-function literal {text!r}")
    terms = []
    for piece in text.split("+"):
        piece = piece.strip()
        if piece.startswith("bump:"):
            piece = piece[len("bump:"):]
        if not piece:
            raise ParseError("empty bump term in literal")
        fields = {}
        for fld in piece.split(","):
            m = _FIELD_RE.match(fld.strip())
            if not m:
                raise ParseError(f"malformed bump field {fld!r}")
            key, val = m.group(1), m.group(2)
            if key in fields:
                raise ParseError(f"duplicate field {key!r} in bump term")
            fields[key] = _parse_float(val, key)
        if "mu" not in fields or "sigma" not in fields:
            raise ParseError("bump term needs both mu and sigma")
        mu, sigma = fields["mu"], fields["sigma"]
        if not sigma > 0.0:
            raise ParseError(f"bump sigma must be positive, got {sigma}")
        if not abs(mu) + sigma < _LOG_FLOAT_MAX:
            raise ParseError(f"bump support edges e^(mu -+ sigma) leave the float range "
                             f"for mu={mu}, sigma={sigma}")
        terms.append(BumpTerm(complex(fields.get("amp", 1.0)), mu, sigma))
    try:
        return BumpCombination(tuple(terms))
    except DomainError as exc:
        raise ParseError(str(exc)) from None
