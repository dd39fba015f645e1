"""Finite p-adic harmonic analysis: characters, level functions, the G
distribution, Haran shell sums, the conductor operator, and the inversion."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from eflab import padic, weil
from eflab.errors import AdmissibilityError, DomainError
from eflab.padic import (_INVERSION_SIZE_MAX, GAUSSIAN, LevelFunction, RealTestInput,
                         ShellFunction, _admissibility_scale, _character_blocks,
                         _conductor_rows, _cusp_basis_rows, _unit_group, _vp_table,
                         additive_character, closed_form_spectrum,
                         commutation_check, conductor_apply, conductor_matrix,
                         cusp_project,
                         cusp_space_basis, cuspidal_spectrum, fourier_level,
                         fourier_inverse_level, g_apply, gamma_identity_check,
                         haran_term, inversion, level_distance,
                         lift_radial, mellin_fourier_check,
                         reflect_level, unit_action, w_field_prime)
from eflab.special import Place, gamma_factor
from eflab.testfn import StepFunction, bump

from conftest import CORPUS, G0


def random_level(p, m, n, seed):
    rng = np.random.default_rng(seed)
    size = p ** (m + n)
    return LevelFunction(p, m, n, rng.normal(size=size) + 1j * rng.normal(size=size))


class TestAdditiveCharacter:
    def test_trivial_on_integers(self):
        for x in (0, 3, -17):
            assert additive_character(5, x) == 1.0

    def test_half(self):
        assert abs(additive_character(2, (1, 2)) - (-1.0)) < 1e-15

    def test_third(self):
        assert abs(additive_character(3, (1, 3)) - np.exp(2j * np.pi / 3)) < 1e-15

    def test_foreign_denominator_rejected(self):
        with pytest.raises(DomainError):
            additive_character(3, (1, 2))


class TestFourier:
    def test_indicator_fixed_point(self):
        for p in (2, 3, 7):
            ind = LevelFunction(p, 0, 0, [1.0])
            assert abs(fourier_level(ind).coeffs[0] - 1.0) < 1e-15

    def test_indicator_of_pZp_by_hand(self):
        # F(1_{p Z_p}) = p^-1 1_{p^-1 Z_p}: all coefficients p^-1 at level (1,0)
        for p in (2, 3, 5):
            ind = LevelFunction(p, 0, 1, [1.0] + [0.0] * (p - 1))
            F = fourier_level(ind)
            assert (F.m, F.n) == (1, 0)
            assert np.max(np.abs(F.coeffs - 1.0 / p)) < 1e-15

    def test_double_transform_is_reflection(self):
        for (p, m, n, seed) in ((2, 5, 6, 1), (3, 3, 4, 2), (5, 2, 2, 3)):
            phi = random_level(p, m, n, seed)
            FF = fourier_level(fourier_level(phi))
            assert np.max(np.abs(FF.coeffs - reflect_level(phi).coeffs)) <= 1e-12

    def test_parseval_weighted(self):
        for (p, m, n, seed) in ((2, 5, 6, 4), (3, 4, 3, 5)):
            phi = random_level(p, m, n, seed)
            assert abs(phi.norm_sq() - fourier_level(phi).norm_sq()) <= 1e-12

    def test_inverse_roundtrip(self):
        phi = random_level(3, 2, 2, 6)
        back = fourier_level(fourier_inverse_level(phi))
        assert np.max(np.abs(back.coeffs - phi.coeffs)) <= 1e-13

    def test_cuspidal_vanishing_near_zero(self):
        # integral-zero, 0-coset-zero input: the transform vanishes on the
        # ball |xi| <= p^-m with exactly zero (machine-level) coefficients
        p, m, n = 3, 1, 2
        phi = cusp_project(random_level(p, m, n, 7))
        F = fourier_level(phi)  # level (n, m): points p^-n j, valuation vp(j) - n
        vp = F.vp
        ball = [j for j in range(F.size) if j == 0 or vp[j] - F.m >= m]
        mags = np.abs(F.coeffs[ball])
        assert np.max(mags) <= 1e-12 * max(1.0, np.max(np.abs(phi.coeffs)))


class TestLiftRadial:
    def test_step_shells(self):
        sf = lift_radial(StepFunction(10.0), 2)
        # powers 2, 4, 8 inside (1, 10): shells at valuations -1, -2, -3
        for v in (-1, -2, -3):
            assert sf.shell_value(v) == 1.0
        for v in (-4, -5):
            assert sf.shell_value(v) == 0.0
        for v in (1, 2, 5):
            assert sf.shell_value(v) == 0.0
        # the unit shell carries the midpoint value of the jump at u = 1
        assert sf.shell_value(0) == 0.5

    def test_support_missing_all_powers(self):
        g = bump(0.405, 0.1)  # support within (1.1, 1.9) roughly
        sf = lift_radial(g, 2)
        assert all(sf.shell_value(v) == 0.0 for v in range(-5, 6))

    def test_value_at_zero(self):
        for g in (G0, StepFunction(4.0)):
            assert lift_radial(g, 3).value_at_zero == 0.0


class TestGApply:
    def test_indicator_zp(self):
        for p in (2, 3, 7):
            phi = ShellFunction(p, 0, 0, (1.0,), 1.0)
            assert abs(g_apply(Place.prime(p), phi) - math.log(p) / (p - 1)) < 1e-14

    def test_indicator_p_zp(self):
        for p in (2, 3, 5):
            phi = ShellFunction(p, 0, 0, (0.0,), 1.0)
            expected = math.log(p) * (2.0 / p - 1.0) / (1.0 - 1.0 / p)
            assert abs(g_apply(Place.prime(p), phi) - expected) < 1e-14

    def test_real_outer_only(self):
        # phi supported in 1 <= |t| <= 2 with phi(0) = 0: only the outer
        # integral survives; oracle by adaptive quadrature
        def f(t):
            t = np.asarray(t, dtype=float)
            inside = (np.abs(t) >= 1.0) & (np.abs(t) <= 2.0)
            return np.where(inside, (t * t - 1.0) * (4.0 - t * t), 0.0)
        phi = RealTestInput(fn=f, value_at_zero=0.0,
                            breakpoints=(-2.0, -1.0, 1.0, 2.0),
                            support_lo=-2.0, support_hi=2.0)
        ref = 2.0 * quad(lambda t: (t * t - 1.0) * (4.0 - t * t) / (2.0 * t),
                         1.0, 2.0, epsabs=1e-13)[0]
        assert abs(g_apply(Place.real(), phi) - ref) < 1e-10


class TestShellTable:
    """Brute-force enumeration at level n = 4 for the |1 - t| decomposition."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_unit_shell_and_inner_shells(self, p):
        N = p ** 4
        counts = {}
        for j in range(1, N):
            v = 0
            m = j
            while m % p == 0:
                m //= p
                v += 1
            w = 0
            d = (1 - j) % N
            if d == 0:
                continue  # resolution limit of the level; measure p^-4
            while d % p == 0:
                d //= p
                w += 1
            if w >= 4:
                continue
            counts[(v, w)] = counts.get((v, w), 0) + 1
        # shells |t| = p^-v with v >= 1: |1-t| = 1 on the whole shell
        for v in range(1, 4):
            shell = sum(c for (vv, w), c in counts.items() if vv == v)
            assert counts.get((v, 0), 0) == shell
        # unit shell: measure of |1-t| = p^-w is p^-w (1-1/p) for 1 <= w < 4,
        # and (p-2)/p for w = 0
        for w in range(1, 4):
            frac = counts.get((0, w), 0) / N
            assert abs(frac - p ** (-w) * (1 - 1 / p)) < 1e-15, (p, w)
        frac0 = counts.get((0, 0), 0) / N
        assert abs(frac0 - (p - 2) / p) < 1e-15


class TestHaran:
    def test_step_at_two(self):
        assert abs(haran_term(StepFunction(10.0), Place.prime(2)) - 3 * math.log(2)) < 1e-13

    def test_matches_w_p_exactly_on_corpus(self):
        for g in CORPUS:
            for p in (2, 3, 5, 7):
                assert abs(haran_term(g, Place.prime(p)) - weil.w_p(g, p)) <= 1e-12

    def test_vanishing_case(self):
        # support away from every power of 3 and g(1) = 0
        g = bump(0.45, 0.15)  # support inside (1.3, 1.9)
        assert abs(haran_term(g, Place.prime(3))) < 1e-15

    def test_real_place_against_finite_form(self):
        assert abs(haran_term(G0, Place.real()) - weil.w_r(G0, "finite")) <= 1e-7

    def test_real_step_rejected(self):
        with pytest.raises(AdmissibilityError):
            haran_term(StepFunction(4.0), Place.real())


class TestCuspProject:
    def test_radial_annihilated(self):
        phi = LevelFunction(3, 0, 2, np.ones(9))
        assert np.max(np.abs(cusp_project(phi).coeffs)) < 1e-15

    def test_idempotent(self):
        phi = cusp_project(random_level(3, 1, 2, 8))
        again = cusp_project(phi)
        assert np.max(np.abs(again.coeffs - phi.coeffs)) < 1e-14

    def test_two_coset_balance(self):
        # 1_{1+3Z_3} - 1_{2+3Z_3} already has zero average on its shell
        phi = LevelFunction(3, 0, 1, [0.0, 1.0, -1.0])
        assert np.allclose(cusp_project(phi).coeffs, phi.coeffs)


class TestConductor:
    def test_unit_supported_multiplier_vanishes(self):
        # on the unit shell log|t| = 0, so H reduces to the Fourier-side term
        p, n = 3, 2
        c = np.zeros(9, dtype=complex)
        c[[1, 2]] = [1.0, -1.0]  # units, zero shell average, zero integral
        phi = LevelFunction(p, 0, n, c)
        H = conductor_apply(phi)
        d = fourier_inverse_level(phi)
        e = (n - d.vp).astype(float) * math.log(p) * d.coeffs
        e[0] = 0.0
        fourier_part = fourier_level(LevelFunction(p, n, 0, e))
        assert np.max(np.abs(H.coeffs - fourier_part.coeffs)) < 1e-13

    def test_radial_rejected(self):
        with pytest.raises(AdmissibilityError):
            conductor_apply(LevelFunction(3, 0, 1, [1.0, 1.0, 1.0]))

    def test_eigenvector_smallest_space(self):
        # p = 2, n = 2: one cusp vector; H phi = lambda phi with
        # lambda / log 2 a positive integer >= 2
        basis = cusp_space_basis(2, 2)
        assert len(basis) == 1
        phi = basis[0]
        H = conductor_apply(phi)
        lam = complex(np.vdot(phi.coeffs, H.coeffs) / np.vdot(phi.coeffs, phi.coeffs))
        resid = np.max(np.abs(H.coeffs - lam * phi.coeffs))
        assert resid < 1e-9
        ratio = lam.real / math.log(2.0)
        assert abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 2

    @pytest.mark.parametrize("p,n,expect_dim", [(3, 3, 23), (5, 2, 22), (2, 3, 4)])
    def test_spectrum_integral_multiples(self, p, n, expect_dim):
        ev = cuspidal_spectrum(p, n)
        assert len(ev) == expect_dim == p ** n - 1 - n
        ratios = ev / math.log(p)
        assert np.max(np.abs(ratios - np.round(ratios))) <= 1e-8
        floor = 2.0 if p == 2 else 1.0
        assert ratios.min() >= floor - 1e-8

    def test_matrix_hermitian_and_bounded_below(self):
        cm = conductor_matrix(3, 2)
        defect = np.max(np.abs(cm.matrix - cm.matrix.conj().T))
        assert defect <= 1e-12
        ev = np.linalg.eigvalsh(cm.matrix)
        assert np.all(ev >= math.log(3.0) - 1e-8)

    def test_commutes_with_unit_action(self):
        p, n = 3, 2
        for u in (2, 4, 5, 7, 8):
            for phi in cusp_space_basis(p, n):
                lhs = conductor_apply(unit_action(phi, u))
                rhs = unit_action(conductor_apply(phi), u)
                assert level_distance(lhs, rhs) <= 1e-12


def dense_conductor_matrix(p, n):
    """E H E^T p^-n with H = diag(log|t|) + F diag(log|xi|) F^{-1} built from
    explicit DFT matrices at level (0, n); E is the cusp basis."""
    size = p ** n
    vp = np.zeros(size, dtype=np.int64)
    for j in range(1, size):
        while j % p ** (vp[j] + 1) == 0:
            vp[j] += 1
    logp = math.log(p)
    log_t = -vp * logp          # |t| = p^-v(j) on the coset of j
    log_xi = (n - vp) * logp    # |xi| = p^(n - v(j)) at xi = p^-n j
    log_t[0] = log_xi[0] = 0.0  # both multipliers see data vanishing there
    j = np.arange(size)
    dft = np.exp(-2j * np.pi * (np.outer(j, j) % size) / size)
    f_inv = p ** (-n) * dft                   # level (0, n) -> (n, 0)
    f_fwd = p ** n * dft.conj() / size        # level (n, 0) -> (0, n)
    H = np.diag(log_t) + f_fwd @ np.diag(log_xi) @ f_inv
    E = np.array([e.coeffs.real for e in cusp_space_basis(p, n)])
    return E @ H @ E.T * p ** (-n)


#: the cusp levels of the conductor-spectra benchmark, dimensions 22 to 507
BENCH_LEVELS = ((5, 2), (3, 3), (2, 5), (29, 1), (7, 2), (2, 6), (53, 1), (59, 1),
                (11, 2), (2, 7), (5, 3), (127, 1), (3, 5), (2, 8), (239, 1),
                (241, 1), (2, 9), (499, 1), (503, 1), (509, 1))


class TestConductorKernel:
    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (2, 5)])
    def test_matrix_matches_dense_reference(self, p, n):
        ref = dense_conductor_matrix(p, n)
        assert np.max(np.abs(conductor_matrix(p, n).matrix - ref)) <= 1e-13

    @pytest.mark.parametrize("p,m,n", [(3, 0, 2), (3, 1, 2), (2, 2, 3), (5, 1, 1)])
    def test_batch_equals_single_rows(self, p, m, n):
        rows = np.array([cusp_project(random_level(p, m, n, seed)).coeffs
                         for seed in range(5)])
        batch = _conductor_rows(p, m, n, rows)
        for row, out in zip(rows, batch):
            single = conductor_apply(LevelFunction(p, m, n, row)).coeffs
            assert np.max(np.abs(out - single)) <= 1e-13 * np.max(np.abs(single))

    def test_radial_row_in_batch_rejected(self):
        rows = np.vstack([_cusp_basis_rows(3, 2), np.ones(9)])
        with pytest.raises(AdmissibilityError, match="coset of 0"):
            _conductor_rows(3, 0, 2, rows)

    def test_nonzero_integral_row_in_batch_rejected(self):
        unit = np.zeros(9)
        unit[1] = 1.0  # vanishes on the 0-coset, integral 1/9
        rows = np.vstack([_cusp_basis_rows(3, 2), unit])
        with pytest.raises(AdmissibilityError, match="total integral 0"):
            _conductor_rows(3, 0, 2, rows)

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 5), (3, 3), (5, 2), (2, 8), (7, 3)])
    def test_basis_rows_orthonormal(self, p, n):
        E = _cusp_basis_rows(p, n)
        assert E.shape == (p ** n - 1 - n, p ** n)
        gram = E @ E.T * p ** (-n)
        assert np.max(np.abs(gram - np.eye(E.shape[0])), initial=0.0) <= 1e-13

    def test_basis_rows_are_the_level_functions(self):
        E = _cusp_basis_rows(3, 3)
        assert np.array_equal(np.array([e.coeffs for e in cusp_space_basis(3, 3)]), E)

    @pytest.mark.parametrize("p,n", BENCH_LEVELS + ((3, 6), (2, 11), (43, 2), (7, 3)))
    def test_eigenvalues_match_closed_form(self, p, n):
        ev = cuspidal_spectrum(p, n)
        closed = closed_form_spectrum(p, n)
        assert ev.shape == closed.shape
        assert np.max(np.abs(ev - closed)) / math.log(p) <= 1e-8

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 1), (3, 4), (7, 2), (2, 11)])
    def test_closed_form_dimension_and_floor(self, p, n):
        closed = closed_form_spectrum(p, n)
        assert closed.size == p ** n - 1 - n
        assert np.all(np.diff(closed) >= 0.0)
        floor = 2 if p == 2 else 1
        if closed.size:
            assert closed[0] == pytest.approx(floor * math.log(p))

    def test_closed_form_shares_the_cap(self):
        with pytest.raises(DomainError, match="desk-scale cap"):
            closed_form_spectrum(3, 8)

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7]), m=st.integers(0, 2), n=st.integers(1, 3),
           u=st.integers(1, 10 ** 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_commutes_with_unit_action_property(self, p, m, n, u, seed):
        assume(u % p != 0)
        phi = cusp_project(random_level(p, m, n, seed))
        lhs = conductor_apply(unit_action(phi, u))
        rhs = unit_action(conductor_apply(phi), u)
        assert level_distance(lhs, rhs) <= 1e-12 * math.sqrt(phi.norm_sq())


class TestCharacterBlocks:
    @pytest.mark.parametrize("p,n", BENCH_LEVELS)
    def test_spectrum_matches_dense_eigensolve(self, p, n):
        dense = np.linalg.eigvalsh(conductor_matrix(p, n).matrix)
        assert np.max(np.abs(cuspidal_spectrum(p, n) - dense)) <= 1e-12

    # (5, 5) is over the cap
    @pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in range(1, 6)
                                     if p ** n <= 2048])
    def test_characters_per_conductor(self, p, n):
        blocks = _character_blocks(p, n)
        assert sorted(blocks) == list(range(1, n + 1))
        totient = [1] + [p ** (f - 1) * (p - 1) for f in range(1, n + 1)]
        for f, b in blocks.items():
            assert b.shape == (totient[f] - totient[f - 1], n - f + 1, n - f + 1)
        assert sum(b.shape[0] * b.shape[1] for b in blocks.values()) == p ** n - 1 - n

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 9), (3, 1), (3, 5),
                                     (7, 3), (499, 1)])
    def test_unit_group_lists_every_unit_once(self, p, n):
        residues, conductor = _unit_group(p, n)
        assert conductor.shape == residues.shape
        assert sorted(residues.ravel()) == [u for u in range(p ** n) if u % p]

    @pytest.mark.parametrize("p,n", [(2, 9), (3, 5), (499, 1), (2, 11)])
    def test_no_eigensolve_larger_than_n(self, p, n, monkeypatch):
        shapes = []
        eigvalsh = padic.np.linalg.eigvalsh

        def recording(a):
            shapes.append(np.shape(a))
            return eigvalsh(a)

        monkeypatch.setattr(padic.np.linalg, "eigvalsh", recording)
        assert cuspidal_spectrum(p, n).size == p ** n - 1 - n
        assert shapes and max(max(s[-2:]) for s in shapes) <= n

    def test_asymmetric_images_raise(self, monkeypatch):
        rows = padic._conductor_rows

        def perturbed(p, m, n, stack):
            out = rows(p, m, n, stack)
            out[0, p] += 1e-6  # H(delta_1) at p moves, H(delta_p) at 1 does not
            return out

        monkeypatch.setattr(padic, "_conductor_rows", perturbed)
        with pytest.raises(RuntimeError, match="character block Hermiticity"):
            cuspidal_spectrum(3, 3)


def _inversion_by_cosets(phi):
    """Reference inversion: one pass per output coset, two pow calls each."""
    p, m, n = phi.p, phi.m, phi.n
    if abs(phi.coeffs[0]) > 1e-12 * _admissibility_scale(phi):
        raise AdmissibilityError("inversion: support must avoid the coset of 0")
    vp = phi.vp
    occupied = sorted({int(vp[j]) - m for j in range(1, phi.size) if phi.coeffs[j] != 0})
    if not occupied:
        return LevelFunction(p, 0, 1, np.zeros(p, dtype=complex))
    m_out = max(0, occupied[-1])
    n_out = max(max(n - 2 * k for k in occupied), -occupied[0] + 1, 1)
    size_out = p ** (m_out + n_out)
    if size_out > _INVERSION_SIZE_MAX:
        raise DomainError(f"inversion output size {size_out} beyond desk scale")
    size_in = phi.size
    vpo = _vp_table(p, size_out)
    out = np.zeros(size_out, dtype=complex)
    for jp in range(1, size_out):
        k = m_out - int(vpo[jp])
        if k not in occupied:
            continue
        u = jp // p ** int(vpo[jp])
        j_in = (pow(p, m + k, size_in) * pow(u, -1, size_in)) % size_in
        u2 = (jp + size_out) // p ** int(vpo[jp])
        if (pow(p, m + k, size_in) * pow(u2, -1, size_in)) % size_in != j_in:
            raise RuntimeError("inversion output level too coarse; constancy rule violated")
        out[jp] = float(p) ** (-k) * phi.coeffs[j_in]
    return LevelFunction(p, m_out, n_out, out)


def _random_admissible_levels(seed):
    """Dense, sparse and single-shell functions at p in {2,3,5,7}, m <= 2, n <= 3."""
    rng = np.random.default_rng(seed)
    for p in (2, 3, 5, 7):
        for m in range(3):
            for n in range(4):
                size = p ** (m + n)
                vp = _vp_table(p, size)
                for kind in ("dense", "sparse", "shell"):
                    c = rng.normal(size=size) + 1j * rng.normal(size=size)
                    if kind == "sparse":
                        c[rng.random(size) > 0.2] = 0.0
                    elif kind == "shell":
                        c[vp != rng.integers(0, max(m + n, 1))] = 0.0
                    c[0] = 0.0
                    yield LevelFunction(p, m, n, c)


def _commutation_by_cosets(p, n):
    worst = 0.0
    for e in cusp_space_basis(p, n):
        lhs = conductor_apply(_inversion_by_cosets(e))
        rhs = _inversion_by_cosets(conductor_apply(e))
        worst = max(worst, level_distance(lhs, rhs) / math.sqrt(e.norm_sq()))
    return worst


class TestInversion:
    def test_gather_equals_coset_loop_exactly(self):
        compared = 0
        for seed in (0, 1):
            for phi in _random_admissible_levels(seed):
                try:
                    out = inversion(phi)
                except DomainError as exc:
                    with pytest.raises(DomainError) as ref_exc:
                        _inversion_by_cosets(phi)
                    assert str(ref_exc.value) == str(exc)
                    continue
                if out.size > 20_000:  # keeps the reference loop short
                    continue
                ref = _inversion_by_cosets(phi)
                assert (out.m, out.n) == (ref.m, ref.n)
                assert np.array_equal(out.coeffs, ref.coeffs)
                compared += 1
        assert compared >= 250

    def test_zero_function_goes_to_level_zero_one(self):
        out = inversion(LevelFunction(3, 1, 2, np.zeros(27)))
        assert (out.m, out.n) == (0, 1)
        assert not np.any(out.coeffs)

    def test_output_size_cap_fails_before_the_gather(self):
        c = np.ones(2 ** 12, dtype=complex)
        c[0] = 0.0
        with pytest.raises(DomainError, match="beyond desk scale"):
            inversion(LevelFunction(2, 6, 6, c))

    def test_involution_random_admissible(self):
        phi = random_level(3, 1, 2, 9)
        c = phi.coeffs.copy()
        c[0] = 0.0
        phi = LevelFunction(3, 1, 2, c)
        assert level_distance(inversion(inversion(phi)), phi) <= 1e-13

    def test_unit_support_permutes_by_inverse(self):
        p, n = 5, 2
        c = np.zeros(25, dtype=complex)
        for j in range(25):
            if j % 5 != 0:
                c[j] = j + 2j
        phi = LevelFunction(p, 0, n, c)
        out = inversion(phi)
        assert (out.m, out.n) == (0, n)
        for j in range(25):
            if j % 5 != 0:
                assert out.coeffs[j] == c[pow(j, -1, 25)]

    def test_norm_preserved(self):
        phi = cusp_project(random_level(2, 2, 3, 10))
        assert abs(inversion(phi).norm_sq() - phi.norm_sq()) <= 1e-12

    def test_support_touching_zero_rejected(self):
        with pytest.raises(AdmissibilityError):
            inversion(LevelFunction(2, 0, 1, [1.0, 0.0]))


class TestCommutation:
    def test_small_spaces(self):
        assert commutation_check(3, 2) <= 1e-9
        assert commutation_check(2, 3) <= 1e-9

    @pytest.mark.parametrize("p,n", [(3, 2), (2, 3), (5, 2), (3, 3), (2, 5), (7, 2)])
    def test_equals_the_coset_loop_exactly(self, p, n):
        assert commutation_check(p, n) == _commutation_by_cosets(p, n)

    def test_error_propagates_for_inadmissible_input(self):
        # a radial function touches the 0-coset, so both composites refuse it
        radial = LevelFunction(3, 0, 1, [1.0, 1.0, 1.0])
        with pytest.raises(AdmissibilityError):
            inversion(radial)
        with pytest.raises(AdmissibilityError):
            conductor_apply(radial)

    def test_scaling_invariance_of_normalized_defect(self):
        p, n = 3, 2
        phi = cusp_space_basis(p, n)[0]
        for scalefactor in (1.0, 5.0):
            psi = LevelFunction(p, 0, n, scalefactor * phi.coeffs)
            lhs = conductor_apply(inversion(psi))
            rhs = inversion(conductor_apply(psi))
            d = level_distance(lhs, rhs) / math.sqrt(psi.norm_sq())
            assert d <= 1e-12


class TestGammaIdentity:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7 + 2j])
    def test_indicator_prime(self, p, s):
        ratio = gamma_identity_check(Place.prime(p), s, LevelFunction(p, 0, 0, [1.0]))
        assert abs(ratio - gamma_factor(Place.prime(p), s)) <= 1e-8

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7 + 2j])
    def test_gaussian_real(self, s):
        ratio = gamma_identity_check(Place.real(), s, GAUSSIAN)
        assert abs(ratio - gamma_factor(Place.real(), s)) <= 1e-8

    def test_symmetry_point_any_input(self):
        # Gamma_nu(1/2) = 1, so the ratio is 1 for every admissible input
        phi = random_level(3, 1, 2, 11)
        ratio = gamma_identity_check(Place.prime(3), 0.5, phi)
        assert abs(ratio - 1.0) <= 1e-10

    def test_out_of_strip(self):
        with pytest.raises(DomainError):
            gamma_identity_check(Place.real(), 1.2, GAUSSIAN)


class TestMellinFourier:
    def test_prime_shells(self):
        for v in (0, -1, 1):
            line, direct = mellin_fourier_check(G0, Place.prime(2), v)
            assert abs(line - direct) <= 1e-6

    def test_real_point(self):
        line, direct = mellin_fourier_check(G0, Place.real(), 0.5)
        assert abs(line - direct) <= 1e-6

    def test_large_argument_decay(self):
        line, direct = mellin_fourier_check(G0, Place.real(), 40.0)
        assert abs(line) < 1e-6 and abs(direct) < 1e-6


class TestWFieldPrimeShellSums:
    def test_against_contour_oracle(self):
        # independent route: W_nu(g; y) = (1/2 pi i) int Lambda_nu ghat |y|^-s ds
        from eflab.contour import VerticalLineIntegrator
        from eflab.special import lambda_factor
        for p in (2, 3):
            pl = Place.prime(p)
            for v in (-2, -1, 0, 1, 2):
                ylog = -v * math.log(p)
                integ = VerticalLineIntegrator(G0, weight_osc=math.log(p) + abs(ylog))
                contour = integ.integrate(
                    lambda s: lambda_factor(pl, s) * np.exp(-s * ylog))
                shell = w_field_prime(G0, p, v)
                assert abs(shell - contour) <= 1e-6, (p, v)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_inversion_identity(self, p):
        # W_p(g; y) = |y|^-1 W_p(g^tau; 1/y), with |y| = p^-v
        for g in CORPUS + (StepFunction(10.0),):
            for v in range(-3, 4):
                lhs = w_field_prime(g, p, v)
                rhs = float(p) ** v * w_field_prime(g.transpose(), p, -v)
                assert abs(lhs - rhs) <= 1e-13, (p, v)

    def test_valuation_far_below_the_support(self):
        # every shell between the support and |y| is zero, so the value no
        # longer depends on |y| once |y| is below the support
        assert w_field_prime(G0, 2, 10**7) == w_field_prime(G0, 2, 50)

    @pytest.mark.parametrize("v", [1.5, -0.25, float("nan"), float("inf"), "1"])
    def test_non_integral_valuation_rejected(self, v):
        with pytest.raises(DomainError, match="valuation"):
            weil.w_field(G0, Place.prime(2), v)
        with pytest.raises(DomainError, match="valuation"):
            mellin_fourier_check(G0, Place.prime(2), v)

    def test_integral_float_valuation_accepted(self):
        assert weil.w_field(G0, Place.prime(2), 1.0) == w_field_prime(G0, 2, 1)

