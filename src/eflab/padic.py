"""Finite p-adic harmonic analysis for the local side of the explicit formula.

The working objects are Schwartz-Bruhat functions at level (m, n): supported
in p^(-m) Z_p and constant on cosets of p^n Z_p, stored as p^(m+n) coset
coefficients.  With the standard additive character psi_p(x) = e^{2 pi i {x}_p}
the Fourier transform of a level-(m, n) function is a level-(n, m) function
computed by a single dense DFT, F(F(phi)) is the reflection x -> -x exactly,
and the indicator of Z_p is a fixed point.

On these finite arenas the module realizes:

  * G, the Fourier transform of -log|x|, as exact shell sums at a prime and
    as a regularized quadrature at the real place;
  * the pointwise local term W_nu(g; y) = -log|y| g(|y|) + (G * g_nu)(y),
    with the shell table of t -> |y - t|_p as the single source at finite
    places and G applied by g_apply; the explicit-formula term
    (G * g_nu)(1) is its |y| = 1 case;
  * the conductor operator H(phi) = log|t| phi + F(log|xi| F^{-1}(phi)),
    restricted to the cuspidal space V(p, n) where its spectrum is a set of
    integer multiples of log p, solved block by block over the Dirichlet
    characters of (Z/p^n)^x, with the dense matrix as the reference route;
  * the inversion I(phi)(t) = (1/|t|) phi(1/t), exact on cosets;
  * the local functional-equation and Mellin-Fourier cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .contour import VerticalLineIntegrator
from .errors import AdmissibilityError, ConvergenceError, DomainError
from .quadrature import panel_nodes
from .special import EULER_GAMMA, LOG_2PI, Place, factorize, gamma_factor, is_prime
from .testfn import TestFunction

LEVEL_SIZE_MAX = 2048
_INVERSION_SIZE_MAX = 4_000_000
#: Largest allowed gap between the two sides of mellin_fourier_check.
MELLIN_FOURIER_TOL = 1e-6

#: Sentinel for the self-dual reference input exp(-pi x^2) at the real place.
GAUSSIAN = "gaussian"


def additive_character(p: int, x) -> complex:
    """psi_p(x) = e^{2 pi i {x}_p} for x rational with p-power denominator."""
    if not is_prime(p):
        raise DomainError(f"additive_character needs a prime, got {p}")
    if isinstance(x, tuple):
        x = Fraction(x[0], x[1])
    else:
        x = Fraction(x)
    den = x.denominator
    e = 0
    while den % p == 0:
        den //= p
        e += 1
    if den != 1:
        raise DomainError(f"{x} does not have a {p}-power denominator")
    if e == 0:
        return 1.0 + 0.0j
    pe = p ** e
    num = x.numerator % pe
    return complex(np.exp(2j * np.pi * (num / pe)))


@lru_cache(maxsize=64)
def _vp_table(p: int, size: int) -> np.ndarray:
    """v_p(j) for j = 0..size-1, with the 0 entry set to the total exponent."""
    v = np.zeros(size, dtype=np.int64)
    step = p
    while step < size:
        v[step::step] += 1
        step *= p
    total = 0
    s = 1
    while s < size:
        s *= p
        total += 1
    v[0] = total
    return v


@dataclass(frozen=True)
class LevelFunction:
    """Coefficients of a level-(m, n) Schwartz-Bruhat function on Q_p.

    Entry j is the value on the coset p^(-m) j + p^n Z_p, 0 <= j < p^(m+n).
    """

    p: int
    m: int
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"not a prime: {self.p}")
        if self.m < 0 or self.n < 0:
            raise DomainError("level exponents must be non-negative")
        c = np.ascontiguousarray(np.asarray(self.coeffs, dtype=complex))
        if c.size != self.p ** (self.m + self.n):
            raise DomainError(
                f"level ({self.m},{self.n}) needs {self.p ** (self.m + self.n)} "
                f"coefficients, got {c.size}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def size(self) -> int:
        return int(self.coeffs.size)

    @property
    def vp(self) -> np.ndarray:
        return _vp_table(self.p, self.size)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2) * self.p ** (-self.n))

    def refine(self, m2: int, n2: int) -> "LevelFunction":
        """Re-express at a finer level (m2 >= m, n2 >= n); exact."""
        if m2 < self.m or n2 < self.n:
            raise DomainError("refine only goes to finer levels")
        if (m2, n2) == (self.m, self.n):
            return self
        p = self.p
        size2 = p ** (m2 + n2)
        j2 = np.arange(size2, dtype=np.int64)
        vp2 = _vp_table(p, size2)
        out = np.zeros(size2, dtype=complex)
        shift = m2 - self.m
        inside = vp2 >= shift
        inside[0] = True
        idx = (j2[inside] // p ** shift) % self.size
        out[inside] = self.coeffs[idx]
        return LevelFunction(p, m2, n2, out)


def level_distance(a: LevelFunction, b: LevelFunction) -> float:
    """Weighted L2 distance, taken at the common refinement of both levels."""
    if a.p != b.p:
        raise DomainError("level functions live over different primes")
    m, n = max(a.m, b.m), max(a.n, b.n)
    diff = a.refine(m, n).coeffs - b.refine(m, n).coeffs
    return math.sqrt(float(np.sum(np.abs(diff) ** 2) * a.p ** (-n)))


def fourier_level(phi: LevelFunction) -> LevelFunction:
    """F(phi)(xi) = int phi(t) psi_p(xi t) dt; level (m, n) -> level (n, m)."""
    c = phi.coeffs
    out = (phi.p ** phi.m) * np.fft.ifft(c)
    return LevelFunction(phi.p, phi.n, phi.m, out)


def fourier_inverse_level(phi: LevelFunction) -> LevelFunction:
    """F^{-1}(phi)(xi) = int phi(t) psi_p(-xi t) dt; level (m, n) -> (n, m)."""
    c = phi.coeffs
    out = (phi.p ** (-phi.n)) * np.fft.fft(c)
    return LevelFunction(phi.p, phi.n, phi.m, out)


def reflect_level(phi: LevelFunction) -> LevelFunction:
    """phi(-x), i.e. coefficient j -> coefficient at -j mod p^(m+n)."""
    c = phi.coeffs
    out = np.empty_like(c)
    out[0] = c[0]
    out[1:] = c[:0:-1]
    return LevelFunction(phi.p, phi.m, phi.n, out)


def unit_action(phi: LevelFunction, u: int) -> LevelFunction:
    """phi(t) -> phi(u t) for a unit u (|u|_p = 1); an isometry permuting cosets."""
    if u % phi.p == 0:
        raise DomainError("unit_action needs u coprime to p")
    j = np.arange(phi.size, dtype=np.int64)
    out = phi.coeffs[(u * j) % phi.size]
    return LevelFunction(phi.p, phi.m, phi.n, out)


def cusp_project(phi: LevelFunction) -> LevelFunction:
    """Subtract the average over each multiplicative shell; zero the 0-coset.

    Idempotent; radial functions are annihilated.
    """
    c = phi.coeffs.copy()
    vp = phi.vp
    total = phi.m + phi.n
    for v in range(total):
        sel = np.nonzero(vp == v)[0]
        sel = sel[sel != 0]
        if sel.size:
            c[sel] -= c[sel].mean()
    c[0] = 0.0
    return LevelFunction(phi.p, phi.m, phi.n, c)


def _admissibility_scale(phi: LevelFunction) -> float:
    return max(1.0, float(np.max(np.abs(phi.coeffs), initial=0.0)))


def _conductor_rows(p: int, m: int, n: int, rows: np.ndarray) -> np.ndarray:
    """H applied to every row of a (k, p^(m+n)) stack of level-(m, n) coefficients.

    The single implementation of the conductor operator: a log|t| multiplier
    plus F(log|xi| F^{-1}(.)) by one FFT and one inverse FFT along the rows.
    Each row must pass the admissibility checks of conductor_apply; the
    first failure raises for the whole stack.
    """
    rows = np.asarray(rows)
    logp = math.log(p)
    scale = np.maximum(1.0, np.max(np.abs(rows), axis=1, initial=0.0))
    if np.any(np.abs(rows[:, 0]) > 1e-12 * scale):
        raise AdmissibilityError("conductor_apply: phi must vanish on the coset of 0")
    if np.any(np.abs(rows.sum(axis=1) * p ** (-n)) > 1e-12 * scale):
        raise AdmissibilityError("conductor_apply: phi must have total integral 0")

    d = p ** (-n) * np.fft.fft(rows, axis=1)  # F^{-1}: level (n, m)
    if np.any(np.abs(d[:, 0]) > 1e-10 * scale):
        raise AdmissibilityError("conductor_apply: Fourier side does not vanish near 0")
    vp = _vp_table(p, rows.shape[1])  # the same table at levels (m, n) and (n, m)
    multd = (n - vp).astype(float) * logp
    multd[0] = 0.0
    d *= multd
    out = np.fft.ifft(d, axis=1)  # F: back to level (m, n), up to p^n
    del d  # hold one complex (k, size) array, not two, for the rest
    out *= p ** n
    mult = (m - vp).astype(float) * logp
    mult[0] = 0.0
    out += mult * rows
    return out


def conductor_apply(phi: LevelFunction) -> LevelFunction:
    """H(phi) = log|t| phi + F(log|xi| F^{-1}(phi)); exact at the same level.

    Requires phi to vanish on the coset of 0 and to have total integral 0,
    which makes both log multipliers act on finitely supported data.
    """
    out = _conductor_rows(phi.p, phi.m, phi.n, phi.coeffs[None, :])
    return LevelFunction(phi.p, phi.m, phi.n, out[0])


def _check_cusp_level(p: int, n: int) -> None:
    if n < 1:
        raise DomainError("cusp space needs level n >= 1")
    # The cap before primality, so a large p fails at once; p >= 2 makes
    # p^b > LEVEL_SIZE_MAX for b its bit length, so a large n needs no big power.
    if p >= 2 and p ** min(n, LEVEL_SIZE_MAX.bit_length()) > LEVEL_SIZE_MAX:
        raise DomainError(f"p^n = {p}^{n} exceeds the desk-scale cap {LEVEL_SIZE_MAX}")
    if not is_prime(p):
        raise DomainError(f"not a prime: {p}")


def _cusp_basis_rows(p: int, n: int) -> np.ndarray:
    """Orthonormal basis of V(p, n) as the rows of a real (dim, p^n) array.

    Helmert vectors shell by shell: on the shell |t| = p^-v with cosets
    j_0 < ... < j_{r-1}, row k (1 <= k < r) is c_k on j_0..j_{k-1} and
    -k c_k on j_k, with c_k = p^(n/2) / sqrt(k (k+1)).
    """
    _check_cusp_level(p, n)
    size = p ** n
    vp = _vp_table(p, size)  # vp[0] = n, so no shell below holds the 0-coset
    norm = p ** (n / 2.0)  # makes the weighted L2 norm of each vector 1
    rows = np.zeros((size - 1 - n, size))
    top = 0
    for v in range(n):
        sel = np.flatnonzero(vp == v)
        k = np.arange(1, sel.size)
        scale = norm / np.sqrt(k * (k + 1))
        helmert = np.tri(k.size, sel.size) * scale[:, None]
        helmert[k - 1, k] = -k * scale
        rows[top:top + k.size, sel] = helmert
        top += k.size
    if top != rows.shape[0]:
        raise RuntimeError(f"cusp basis dimension {top} != {rows.shape[0]}")
    rows.flags.writeable = False
    return rows


def cusp_space_basis(p: int, n: int) -> list[LevelFunction]:
    """Orthonormal basis of V(p, n): level (0, n), supported in Z_p minus
    p^n Z_p, zero average on each shell.  Dimension p^n - 1 - n."""
    return [LevelFunction(p, 0, n, row) for row in _cusp_basis_rows(p, n)]


def closed_form_spectrum(p: int, n: int) -> np.ndarray:
    """The cuspidal spectrum the theory predicts, ascending.

    The eigenvalue f log p (the log of the conductor p^f), f = 1..n, has
    multiplicity (phi(p^f) - phi(p^(f-1))) (n - f + 1), phi Euler's totient.
    """
    _check_cusp_level(p, n)
    totient = [1] + [p ** (f - 1) * (p - 1) for f in range(1, n + 1)]
    mult = [(totient[f] - totient[f - 1]) * (n - f + 1) for f in range(1, n + 1)]
    return np.repeat(np.arange(1, n + 1) * math.log(p), mult)


@dataclass(frozen=True)
class ConductorMatrix:
    """H compressed to the cuspidal space V(p, n) in an orthonormal basis."""

    p: int
    n: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def _real_images(p: int, n: int, rows: np.ndarray) -> np.ndarray:
    """H applied to a stack of real level-(0, n) rows, checked to be real.

    log|xi| is even, so H maps real functions to real ones; an imaginary
    residue above 1e-12 of the images' peak is a program error.
    """
    images = _conductor_rows(p, 0, n, rows)
    peak = float(np.max(np.abs(images), initial=0.0))
    residue = float(np.max(np.abs(images.imag), initial=0.0))
    if residue > 1e-12 * peak:
        raise RuntimeError(
            f"conductor images imaginary residue {residue:.2e} > 1e-12 of {peak:.2e}")
    return images.real


def conductor_matrix(p: int, n: int) -> ConductorMatrix:
    """M = E H(E)^T p^-n in real arithmetic, E the Helmert cusp basis.

    The dense reference route, one FFT pair per basis vector and a dim x dim
    matrix; cuspidal_spectrum computes the same operator by characters.
    """
    E = _cusp_basis_rows(p, n)
    M = (E @ _real_images(p, n, E).T) * p ** (-n)
    defect = float(np.max(np.abs(M - M.T), initial=0.0))
    if defect > 1e-12:
        raise RuntimeError(f"conductor matrix Hermiticity defect {defect:.2e} > 1e-12")
    return ConductorMatrix(p, n, 0.5 * (M + M.T))


def _powers(g: int, count: int, mod: int) -> np.ndarray:
    """g^k mod `mod` for k = 0..count-1, by doubling the filled prefix."""
    out = np.ones(count, dtype=np.int64)
    s, gs = 1, g % mod
    while s < count:
        t = min(s, count - s)
        out[s:s + t] = out[:t] * gs % mod  # g^(s+k) = g^s g^k
        gs = gs * gs % mod
        s += t
    return out


def _unit_group(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """G = (Z/p^n)^x in exponent coordinates, and the conductors of its dual.

    Odd p: G is cyclic, residues[k] = g^k with g a primitive root mod p that
    is also primitive mod p^2, hence mod every p^n (at p = 2, n = 1, G is
    trivial and takes the same branch).  p = 2, n >= 2:
    residues[a, b] = (-1)^a 5^b.  The DFT over these axes takes a function on
    G to its sums against the conjugate characters, and conductor[idx] is the
    exponent f of the conductor p^f of the character at frequency idx (0 only
    for the trivial one at idx = 0): a character is trivial on 1 + p^f Z_p,
    generated by g^((p-1) p^(f-1)) (by 5^(2^(f-2)) at p = 2, f >= 2), exactly
    when p^(n-f) divides its frequency along the p-power axis.
    """
    size = p ** n
    if p == 2 and n >= 2:
        five = _powers(5, size // 4, size)
        residues = np.stack([five, (-five) % size])
        conductor = np.tile(n - _vp_table(2, size // 4), (2, 1))  # f = 2 at b = 0
    else:
        order = (p - 1) * p ** (n - 1)
        qs = [q for q, _ in factorize(p - 1)]
        g = next(a for a in range(1, p) if all(pow(a, (p - 1) // q, p) != 1 for q in qs))
        if pow(g, p - 1, p * p) == 1:
            g += p
        residues = _powers(g, order, size)
        conductor = n - _vp_table(p, order)  # vp[0] = n puts f = 0 at idx 0
    conductor[(0,) * conductor.ndim] = 0
    return residues, conductor


def _character_blocks(p: int, n: int) -> dict[int, np.ndarray]:
    """H on V(p, n) split by the characters chi of G = (Z/p^n)^x.

    H commutes with the unit action, so V(p, n) is the orthogonal sum of the
    chi-parts for chi nontrivial; for chi of conductor p^f the part is spanned
    by e_v = chi-bar(x) on the cosets p^v x, v = 0..n-f.  With C_v the image
    of the cusp-projected delta at p^v (n FFT pairs in all), unit
    equivariance gives <e_w, H e_v> = |G| p^(-n-v-w) sum_x chi(x) C_v(p^w x),
    and ||e_v||^2 = (p-1) p^(-v-1), so the normalised entry is
    p^(-(v+w)/2) sum_x chi(x) C_v(p^w x): one DFT over G per shell w.
    Returns {f: blocks} for f = 1..n, blocks of shape
    (phi(p^f) - phi(p^(f-1)), n-f+1, n-f+1), each Hermitian to 1e-12.
    """
    _check_cusp_level(p, n)
    size = p ** n
    residues, conductor = _unit_group(p, n)
    shells = _vp_table(p, size)[None, :] == np.arange(n)[:, None]  # the 0-coset is in none
    rows = shells / -shells.sum(axis=1, keepdims=True)
    rows[np.arange(n), p ** np.arange(n)] += 1.0
    images = _real_images(p, n, rows)
    at = (p ** np.arange(n)).reshape((n,) + (1,) * residues.ndim) * residues % size
    axes = tuple(range(2, 2 + residues.ndim))
    sums = np.fft.fftn(images[:, at], axes=axes).reshape(n, n, -1)  # (v, w, chi-bar)
    scale = float(p) ** (-np.arange(n) / 2.0)
    sums *= np.outer(scale, scale)[:, :, None]
    sums = sums.transpose(2, 1, 0)  # (chi-bar, w, v)
    conductor = conductor.ravel()
    blocks = {f: sums[conductor == f, :n - f + 1, :n - f + 1] for f in range(1, n + 1)}
    defect = max((float(np.max(np.abs(b - b.conj().transpose(0, 2, 1)), initial=0.0))
                  for b in blocks.values()), default=0.0)
    if defect > 1e-12:
        raise RuntimeError(f"character block Hermiticity defect {defect:.2e} > 1e-12")
    return blocks


def cuspidal_spectrum(p: int, n: int) -> np.ndarray:
    """Ascending eigenvalues of H on V(p, n); multiples of log p by the theory.

    One eigensolve per conductor on the stacked character blocks, each at
    most n x n; no dim x dim matrix is formed.
    """
    blocks = _character_blocks(p, n).values()  # f = 1..n, some stacks empty
    return np.sort(np.concatenate([np.linalg.eigvalsh(b).ravel() for b in blocks]))


def inversion(phi: LevelFunction) -> LevelFunction:
    """I(phi)(t) = (1/|t|) phi(1/t), exact on cosets.

    The output lives at the analytically sufficient level: a shell of
    valuation k (constant mod p^n on the input side) maps to valuation -k
    with constancy modulus n - 2k; the output level takes the finest modulus
    over the occupied shells.  Output coset p^v u (u a unit) holds p^-k u,
    k = m_out - v, so one gather reads input coset p^(m+k) u^-1 and scales
    it by p^-k.  Exactness is re-verified at construction by a second coset
    representative per output coset.
    """
    p, m, n = phi.p, phi.m, phi.n
    if abs(phi.coeffs[0]) > 1e-12 * _admissibility_scale(phi):
        raise AdmissibilityError("inversion: support must avoid the coset of 0")
    occupied = np.flatnonzero(np.bincount(phi.vp[1:][phi.coeffs[1:] != 0])) - m
    if not occupied.size:
        return LevelFunction(p, 0, 1, np.zeros(p, dtype=complex))
    k_min, k_max = int(occupied[0]), int(occupied[-1])
    m_out = max(0, k_max)
    n_out = max(n - 2 * k_min, -k_min + 1, 1)
    size_out = p ** (m_out + n_out)
    if size_out > _INVERSION_SIZE_MAX:
        raise DomainError(f"inversion output size {size_out} beyond desk scale")
    size_in = phi.size
    uinv = np.array([pow(u, -1, size_in) if u % p else 0 for u in range(size_in)])
    vpo = _vp_table(p, size_out)
    # vpo[0] = m_out + n_out puts the 0-coset at k = -n_out < k_min: never read
    jp = np.flatnonzero(np.isin(m_out - vpo, occupied))
    v = vpo[jp]
    step = p ** (m + m_out - v)  # p^(m+k) < size_in on every occupied shell
    # two representatives of each output coset must read the same input
    # coset (per-shell constancy modulus rule)
    u = np.stack([jp, jp + size_out]) // p ** v
    j_in = step * (uinv[u % size_in] % (size_in // step))
    if np.any(j_in[1] != j_in[0]):
        raise RuntimeError("inversion output level too coarse; constancy rule violated")
    shell_scale = np.array([float(p) ** (w - m_out) for w in range(m_out + n_out)])
    out = np.zeros(size_out, dtype=complex)
    out[jp] = shell_scale[v] * phi.coeffs[j_in[0]]
    return LevelFunction(p, m_out, n_out, out)


def commutation_check(p: int, n: int) -> float:
    """max over the cusp basis of ||H(I phi) - I(H phi)|| / ||phi||."""
    worst = 0.0
    for e in cusp_space_basis(p, n):
        lhs = conductor_apply(inversion(e))
        rhs = inversion(conductor_apply(e))
        worst = max(worst, level_distance(lhs, rhs) / math.sqrt(e.norm_sq()))
    return worst


# ----------------------------------------------------------------------------
# shell functions (radial lifts) and the G distribution

@dataclass(frozen=True)
class ShellFunction:
    """Radial function on Q_p: one value per shell |x|_p = p^(-v), v in a
    finite window, with the values below the window equal to value_at_zero
    (local constancy near 0) and the values above it equal to 0."""

    p: int
    v_min: int
    v_max: int
    values: tuple[complex, ...]
    value_at_zero: complex = 0.0

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"not a prime: {self.p}")
        if len(self.values) != self.v_max - self.v_min + 1:
            raise DomainError("shell window and value count disagree")

    def shell_value(self, v: int) -> complex:
        if v > self.v_max:
            return complex(self.value_at_zero)
        if v < self.v_min:
            return 0.0 + 0.0j
        return complex(self.values[v - self.v_min])


def lift_radial(g: TestFunction, p: int) -> ShellFunction:
    """g_p(x) = g(|x|_p): the value g(p^(-v)) on each shell, zero at 0."""
    if not is_prime(p):
        raise DomainError(f"not a prime: {p}")
    a, b = g.support_log()
    logp = math.log(p)
    v_lo = math.ceil(-b / logp - 1e-12)
    v_hi = math.floor(-a / logp + 1e-12)
    if v_hi < v_lo:
        return ShellFunction(p, 0, 0, (0.0,), 0.0)
    vals = tuple(complex(g.evaluate(float(p) ** (-v))) for v in range(v_lo, v_hi + 1))
    return ShellFunction(p, v_lo, v_hi, vals, 0.0)


@dataclass(frozen=True)
class RealTestInput:
    """Piecewise-smooth input for the real-place G distribution.

    fn must be vectorized over a float array; breakpoints list the kinks so
    the quadrature panels can split there; the function must vanish outside
    [support_lo, support_hi].
    """

    fn: object
    value_at_zero: complex
    breakpoints: tuple[float, ...]
    support_lo: float
    support_hi: float


def _g_real_apply(phi: RealTestInput) -> complex:
    """G(phi) = int_{|t|<=1} (phi - phi(0)) dt/(2|t|) + int_{|t|>1} phi dt/(2|t|)
    + (log 2 pi + gamma) phi(0)."""
    if not (math.isfinite(phi.support_lo) and math.isfinite(phi.support_hi)):
        raise ConvergenceError("real-place G needs a finite support window")
    phi0 = complex(phi.value_at_zero)
    inner = {-1.0, 0.0, 1.0}
    inner.update(b for b in phi.breakpoints if -1.0 < b < 1.0)
    x, w = panel_nodes(sorted(inner), density=96.0)
    fvals = np.asarray(phi.fn(x), dtype=complex)
    total = complex(np.sum(w * (fvals - phi0) / (2.0 * np.abs(x))))
    lo = min(phi.support_lo, -1.0)
    hi = max(phi.support_hi, 1.0)
    for a, b in ((1.0, hi), (lo, -1.0)):
        if b - a <= 1e-14:
            continue
        pts = {a, b}
        pts.update(bb for bb in phi.breakpoints if a < bb < b)
        x, w = panel_nodes(sorted(pts), density=96.0)
        fvals = np.asarray(phi.fn(x), dtype=complex)
        total += complex(np.sum(w * fvals / (2.0 * np.abs(x))))
    return total + (LOG_2PI + EULER_GAMMA) * phi0


def g_apply(place: Place, phi) -> complex:
    """Apply G_nu, the Fourier transform of -log|x|_nu, to a test input.

    Prime place (phi a ShellFunction), with shell weight dt/|t| = 1 - 1/p:
        log p/(1-1/p) * [ sum_{v>=0} (phi_v - phi(0)) (1-1/p)
                          + sum_{k>=1} phi(|t|=p^k) (1-1/p) + phi(0)/p ]
    Real place (phi a RealTestInput): regularized quadrature plus the
    (log 2 pi + gamma) phi(0) term.
    """
    if place.is_real:
        if not isinstance(phi, RealTestInput):
            raise DomainError("real-place g_apply needs a RealTestInput")
        return _g_real_apply(phi)
    if not isinstance(phi, ShellFunction) or phi.p != place.p:
        raise DomainError("prime-place g_apply needs a ShellFunction over the same prime")
    p = place.p
    phi0 = phi.shell_value(10**9)  # value at (and near) zero
    inner = 0.0 + 0.0j
    for v in range(0, max(phi.v_max, 0) + 1):
        inner += phi.shell_value(v) - phi0
    outer = 0.0 + 0.0j
    for v in range(min(phi.v_min, 0), 0):
        outer += phi.shell_value(v)
    logp = math.log(p)
    return logp * (inner + outer) + logp * phi0 / (p - 1)


def _valuation(v) -> int:
    """v as an int; a prime-place point is given by its integral valuation."""
    try:
        if v == int(v):
            return int(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"a p-adic valuation must be an integer, got {v!r}")


def w_field_prime(g: TestFunction, p: int, y_valuation: int) -> complex:
    """W_p(g; y) = -log|y| g(|y|) + (G * g_p)(y) for |y|_p = p^(-y_valuation).

    (G * g_p)(y) is G applied to psi(t) = g(|y - t|_p).  G is radial, so it
    sees only the shell averages of psi, which the |y - t| table gives
    (additive measure, vol(Z_p) = 1):

      |t| > |y| : |y - t| = |t|, so psi = g(|t|)
      |t| = |y| : t = y u with u a unit; |1 - u| = p^-w has conditional
                  measure p^-w for w >= 1 and |1 - u| = 1 has (p-2)/(p-1),
                  so psi averages to (p-2)/(p-1) g(|y|) + sum_w p^-w g(p^-w |y|)
      |t| < |y| : |y - t| = |y|, so psi = g(|y|)

    At |y| = 1 the unit-shell measures are unit-tested against brute-force
    coset enumeration at level n = 4.
    """
    vy = _valuation(y_valuation)
    lifted = lift_radial(g, p)  # g(|t|) on each shell; zero off the support
    gy = lifted.shell_value(vy)
    mixed = (p - 2) / (p - 1) * gy
    for v in range(vy + 1, lifted.v_max + 1):
        mixed += float(p) ** (vy - v) * lifted.shell_value(v)
    # shells between the support and a smaller |y| are zero (and so is g(|y|)),
    # so the window stops one shell past the support
    top = min(vy, lifted.v_max + 1)
    v_lo = min(lifted.v_min, top)
    values = tuple(lifted.shell_value(v) for v in range(v_lo, top)) + (mixed,)
    conv = g_apply(Place.prime(p), ShellFunction(p, v_lo, top, values, gy))
    return vy * math.log(p) * gy + conv


def w_field_real(g: TestFunction, y: float) -> complex:
    """W_r(g; y) = -log|y| g(|y|) + (G * g_r)(y) for real y != 0."""
    if y == 0.0:
        raise DomainError("w_field needs y != 0")
    if not g.is_smooth:
        raise AdmissibilityError("real-place w_field needs a smooth test function")
    ay = abs(float(y))
    breaks = g._u_breakpoints()
    u2 = breaks[-1]
    # psi(t) = g(|y - t|) has the kinks of g at |y - t| = u
    kinks = sorted({0.0, float(y)}.union(y - u for u in breaks).union(y + u for u in breaks))
    phi = RealTestInput(
        fn=lambda t: g.evaluate(np.abs(float(y) - np.asarray(t, dtype=float))),
        value_at_zero=complex(g.evaluate(ay)),
        breakpoints=tuple(kinks),
        support_lo=y - u2, support_hi=y + u2)
    return -math.log(ay) * complex(g.evaluate(ay)) + _g_real_apply(phi)


def w_field(g: TestFunction, place: Place, y) -> complex:
    """Pointwise local term W_nu(g; y) = -log|y| g_nu(y) + (G_nu * g_nu)(y).

    Real place: y is a nonzero real.  Prime place: y is given by its
    valuation, an integer v with |y|_p = p^-v (the value depends on |y|
    only); a non-integral v is a DomainError.  At |y| = 1 the term reduces
    to W_nu(g).
    """
    if place.is_real:
        return w_field_real(g, float(y))
    return w_field_prime(g, place.p, y)


def haran_term(g: TestFunction, place: Place) -> complex:
    """The local explicit-formula term as the additive convolution (G * g_nu)(1).

    This is w_field at |y| = 1, where the -log|y| term vanishes: exact shell
    sums at a prime place (any test-function kind), regularized quadrature
    at the real place (smooth kinds only).
    """
    return w_field(g, place, 1.0 if place.is_real else 0)


# ----------------------------------------------------------------------------
# local functional equation and the Mellin-Fourier bridge

def _abs_integral_level(phi: LevelFunction, a: complex) -> complex:
    """int phi(x) |x|^a dx as an exact sum plus the geometric 0-coset tail."""
    p, m, n = phi.p, phi.m, phi.n
    vol = float(p) ** (-n)
    vp = phi.vp
    body = phi.coeffs[1:] * vol * np.exp((m - vp[1:]) * complex(a) * math.log(p))
    total = complex(np.sum(body))
    c0 = phi.coeffs[0]
    if c0 != 0:
        if (1 + complex(a)).real <= 0:
            raise DomainError("0-coset tail diverges for Re(1+a) <= 0")
        q = np.exp(-n * (1 + a) * math.log(p))  # p^(-n(1+a))
        total += complex(c0 * (1 - 1 / p) * q / (1 - np.exp(-(1 + a) * math.log(p))))
    return total


def _gaussian_abs_integral(a: complex) -> complex:
    """int_R e^{-pi x^2} |x|^a dx by log-radial quadrature (0 < Re(1+a))."""
    re1a = (1 + a).real
    if re1a <= 0:
        raise DomainError("integral diverges for Re(1+a) <= 0")
    w_lo = -45.0 / re1a
    x, w = panel_nodes((w_lo, -2.0, 0.0, 2.0), density=64.0,
                       osc=abs(complex(a).imag))
    r2 = np.exp(2.0 * x)
    vals = np.exp(-np.pi * r2) * np.exp((1 + a) * x)
    return complex(2.0 * np.sum(w * vals))


def gamma_identity_check(place: Place, s: complex, phi) -> complex:
    """Ratio of int phi-tilde |x|^{s-1} dx to int phi |y|^{-s} dy.

    Equals gamma_factor(place, s) for 0 < Re s < 1; the two integrals are
    computed independently of the gamma-factor formulas (exact shell/coset
    sums at a prime, quadrature for the self-dual Gaussian at the real place).
    """
    s = complex(s)
    if not 0.0 < s.real < 1.0:
        raise DomainError("gamma_identity_check needs 0 < Re s < 1")
    if place.is_real:
        if phi != GAUSSIAN:
            raise DomainError("the real-place reference input is GAUSSIAN")
        left = _gaussian_abs_integral(s - 1)   # Fourier transform = itself
        right = _gaussian_abs_integral(-s)
    else:
        if not isinstance(phi, LevelFunction) or phi.p != place.p:
            raise DomainError("prime-place check needs a LevelFunction over the place")
        left = _abs_integral_level(fourier_level(phi), s - 1)
        right = _abs_integral_level(phi, -s)
    if abs(right) < 1e-300:
        raise DomainError("vanishing denominator in gamma_identity_check")
    return left / right


def _fourier_radial_prime(g: TestFunction, p: int, x_valuation: int) -> complex:
    """F^{-1}(g_p)(x) for |x| = p^(-x_valuation) as an exact finite shell sum.

    Uses int_{|t| = p^-v} psi(x t) dt = p^-v (1 - 1/p) for |x| <= p^v,
    -p^(-v-1) for |x| = p^(v+1), 0 otherwise.
    """
    lifted = lift_radial(g, p)
    a = -int(x_valuation)  # |x| = p^a
    total = 0.0 + 0.0j
    for v in range(lifted.v_min, lifted.v_max + 1):
        gv = lifted.shell_value(v)
        if gv == 0:
            continue
        if a <= v:
            total += gv * float(p) ** (-v) * (1 - 1 / p)
        elif a == v + 1:
            total -= gv * float(p) ** (-a)
    return total


def mellin_fourier_check(g: TestFunction, place: Place, x):
    """Both sides of F^{-1}(g_nu)(x) = (1/2 pi i) int ghat(s) |x|^{s-1}/Gamma_nu(s) ds.

    Returns (line_value, direct_value) computed independently (vertical-line
    quadrature at c = 1/2 versus exact shell sums / cosine transform) and
    raises if they disagree beyond MELLIN_FOURIER_TOL.  At a prime place x is
    given by its valuation; at the real place x is a nonzero float.
    """
    if not g.is_smooth:
        raise AdmissibilityError("mellin_fourier_check needs a smooth test function")
    if place.is_real:
        ax = abs(float(x))
        if ax == 0.0:
            raise DomainError("x must be nonzero")
        direct = _fourier_radial_real(g, ax)
        logx = math.log(ax)
    else:
        v = _valuation(x)
        direct = _fourier_radial_prime(g, place.p, v)
        logx = -v * math.log(place.p)
    weight_osc = abs(logx) + (math.log(place.p) if not place.is_real else 1.0)
    integ = VerticalLineIntegrator(g, weight_osc=weight_osc)

    def weight(svals):
        return np.exp((svals - 1.0) * logx) / gamma_factor(place, svals)

    line = integ.integrate(weight, ("mellin_fourier", place, logx))
    if abs(line - direct) > MELLIN_FOURIER_TOL:
        raise ConvergenceError(
            f"Mellin-Fourier bridge mismatch {abs(line - direct):.3e} > {MELLIN_FOURIER_TOL}")
    return line, direct


def _fourier_radial_real(g: TestFunction, ax: float) -> complex:
    """F^{-1}(g_r)(x) = 2 int_0^inf g(t) cos(2 pi |x| t) dt."""
    a, b = g.support_log()
    u1, u2 = math.exp(a), math.exp(b)
    x, w = panel_nodes((u1, u2), density=48.0, osc=2.0 * math.pi * ax)
    vals = np.asarray(g.evaluate(x), dtype=complex)
    return complex(2.0 * np.sum(w * vals * np.cos(2.0 * np.pi * ax * x)))

