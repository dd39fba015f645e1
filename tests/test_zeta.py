"""Zeta evaluation, Hardy Z, zero finding with certification, prime sums,
and the zero-table text format."""

import hashlib
import io
import math
import time
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eflab import expsum, zeta
from eflab.errors import CertificationError, DomainError, ParseError, PoleError
from eflab.special import factorize, is_prime, log_gamma
from eflab.weil import _primes_up_to
from eflab.zeta import (T_DESK_MAX, _EM_COEF, _GRID_BLOCK, _LINE_CHUNK,
                        _SCAN_REFINE, _SCAN_STEP, _TURING_T0, _U, ZeroTable,
                        VonMangoldtSieve, _add_em_tail, _certified_z,
                        _em_terms_needed, _grid_drift, _gram_points,
                        _hardy_real, _hardy_z_many, _rosser_blocks_needed,
                        _scan, _sign_margin, _zeta_em_batch, _zeta_line_grid,
                        _zeta_line_many, find_zeros, hardy_z,
                        lambda_von_mangoldt, psi_sum, read_zero_table,
                        rs_theta, write_zero_table, zero_count,
                        zero_table_to_string, zeta_em)


def siegelz_scan_count(t_max, step=0.05):
    """Independent zero count: sign changes of mpmath's Hardy function."""
    with mp.workdps(15):
        ts = np.arange(5.0, t_max, step)
        vals = [mp.siegelz(float(t)) for t in ts]
    return sum(1 for a, b in zip(vals[:-1], vals[1:]) if mp.sign(a) != mp.sign(b))


class TestZetaEM:
    def test_at_two_direct_summation_oracle(self):
        n = np.arange(1, 200_001, dtype=float)
        direct = float(np.sum(1.0 / (n * n))) + 1.0 / 200_000 - 0.5 / 200_000 ** 2
        assert abs(zeta_em(2.0) - direct) < 1e-10
        assert abs(zeta_em(2.0) - math.pi ** 2 / 6.0) < 1e-12

    def test_at_zero_continuation(self):
        # cross-checked continuation oracle (mpmath) plus the classical value
        assert abs(zeta_em(0.0) - (-0.5)) < 1e-12
        assert abs(zeta_em(0.0) - complex(mp.zeta(0))) < 1e-12

    def test_near_first_zero(self):
        assert abs(zeta_em(0.5 + 14.134725j)) < 1e-4

    def test_desk_scale_against_mpmath(self):
        for s in (0.5 + 1000j, 0.1 + 317.2j, 2.0 - 650j, 1.5):
            assert abs(zeta_em(s) - complex(mp.zeta(s))) < 1e-10, s

    @pytest.mark.parametrize("s", [complex(0.5, math.inf), complex(0.5, -math.inf),
                                   complex(math.nan, 0.0), complex(0.5, math.nan),
                                   complex(math.inf, 1.0)])
    def test_non_finite_argument_rejected(self, s):
        for arg in (s, np.array([2.0, s])):
            with pytest.raises(DomainError, match="finite"):
                zeta_em(arg)

    def test_pole(self):
        with pytest.raises(PoleError):
            zeta_em(1.0)


class TestTheta:
    def test_at_zero(self):
        assert abs(rs_theta(0.0)) < 1e-14

    def test_stirling_asymptotic_oracle(self):
        # theta(t) = (t/2) log(t/2pi) - t/2 - pi/8 + 1/(48t) + O(1/t^3)
        for t in (50.0, 200.0, 1000.0):
            main = 0.5 * t * math.log(t / (2 * math.pi)) - 0.5 * t - math.pi / 8.0
            dev = rs_theta(t) - main
            assert abs(dev - 1.0 / (48.0 * t)) < 1.0 / t ** 3 + 1e-10, t

    def test_strictly_increasing_beyond_ten(self):
        ts = np.linspace(10.0, 900.0, 200)
        th = rs_theta(ts)
        assert np.all(np.diff(th) > 0)
        # derivative via digamma: theta'(t) = Re psi(1/4 + it/2)/2 - log(pi)/2
        from eflab.special import LOG_PI, digamma
        der = 0.5 * np.real(digamma(0.25 + 0.5j * ts)) - 0.5 * LOG_PI
        assert np.all(der > 0)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            rs_theta(-1.0)


class TestHardyZ:
    def test_at_zero_is_zeta_half(self):
        assert abs(hardy_z(0.0) - zeta_em(0.5).real) < 1e-12

    def test_even(self):
        for t in (3.7, 21.3):
            assert hardy_z(t) == hardy_z(-t)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected(self, t):
        for arg in (t, np.array([14.0, t])):
            with pytest.raises(DomainError, match="finite"):
                hardy_z(arg)

    def test_sign_change_in_first_window(self):
        ts = np.linspace(14.0, 14.2, 21)
        zs = hardy_z(ts)
        assert np.min(zs) < 0.0 < np.max(zs)


class TestFindZeros:
    def test_first_three_against_independent_bisection(self, zeros100):
        # independent oracle: bisection on mpmath's Hardy function
        expected = []
        for lo, hi in ((14.0, 14.2), (21.0, 21.1), (25.0, 25.1)):
            f = lambda t: float(mp.siegelz(t))
            a, b = lo, hi
            for _ in range(60):
                m = 0.5 * (a + b)
                if mp.sign(f(a)) == mp.sign(f(m)):
                    a = m
                else:
                    b = m
            expected.append(0.5 * (a + b))
        got = find_zeros(30.0)
        assert len(got) == 3
        assert np.max(np.abs(got.ordinates - np.array(expected))) < 1e-8

    def test_count_to_hundred(self, zeros100):
        assert len(zeros100) == 29
        assert siegelz_scan_count(100.0) == 29

    def test_empty_below_first_ordinate(self):
        assert len(find_zeros(10.0)) == 0

    def test_every_ordinate_straddled_by_sign_change(self, zeros100):
        g = zeros100.ordinates
        left = hardy_z(g - 2e-9)
        right = hardy_z(g + 2e-9)
        assert np.all(np.sign(left) != np.sign(right))

    def test_desk_scale_guard(self):
        with pytest.raises(DomainError):
            find_zeros(2000.0)


class TestZetaLineGrid:
    @pytest.mark.parametrize("t", [330.0, 650.0, 970.0, 1000.0])
    def test_matches_direct_kernel_on_track(self, t):
        # step 0.01 from t = 6, a grid of about 100,000 samples at t = 1000
        ts = np.linspace(6.0, t, int(math.ceil((t - 6.0) / 0.01)) + 1)
        # ragged last block and last chunk
        assert ts.size % _GRID_BLOCK and ts.size % _LINE_CHUNK
        grid = _zeta_line_grid(ts)
        if t == 330.0:
            assert np.max(np.abs(grid - _zeta_line_many(ts))) <= 1e-11
        # The direct kernel is per sample, so a stride-13 subset of each chunk
        # at that chunk's cut N (plus the chunk's last sample) is exactly what
        # _zeta_line_many returns there; 13 is prime to the block length.
        for lo in range(0, ts.size, _LINE_CHUNK):
            chunk = ts[lo:lo + _LINE_CHUNK]
            idx = np.append(np.arange(0, chunk.size, 13), chunk.size - 1)
            direct = _zeta_em_batch(0.5 + 1j * chunk[idx], _em_terms_needed(chunk[-1]))
            assert np.max(np.abs(grid[lo + idx] - direct)) <= 1e-11

    def test_short_grids(self):
        for ts in (np.array([14.0]), np.array([14.0, 14.01]), np.linspace(20.0, 21.0, 65)):
            assert np.max(np.abs(_zeta_line_grid(ts) - _zeta_line_many(ts))) <= 1e-11

    @pytest.mark.parametrize("t", [330.0, 650.0, 970.0])
    def test_one_phase_matrix_matches_one_per_chunk(self, t):
        # the phase matrix is built once at the largest cut and sliced per
        # chunk; a matrix built for each chunk at its own cut gives the same
        # bits
        ts = np.arange(6.0, t, 0.05)
        h = (ts[-1] - ts[0]) / (ts.size - 1)
        k = np.arange(_GRID_BLOCK) * h
        per_chunk = np.empty(ts.size, dtype=complex)
        for lo in range(0, ts.size, _LINE_CHUNK):
            chunk = ts[lo:lo + _LINE_CHUNK]
            N = _em_terms_needed(float(chunk[-1]))
            logn = np.log(np.arange(1, N, dtype=float))
            A = np.exp(-np.multiply.outer(0.5 + 1j * chunk[::_GRID_BLOCK], logn))
            C = np.exp(-1j * np.multiply.outer(logn, k))
            vals = (A @ C).ravel()[:chunk.size]
            _add_em_tail(vals, 0.5 + 1j * chunk, N)
            per_chunk[lo:lo + chunk.size] = vals
        assert ts.size > 2 * _LINE_CHUNK
        assert np.array_equal(_zeta_line_grid(ts).view(np.uint64), per_chunk.view(np.uint64))


def reference_zero_table_text(t_max, step=_SCAN_STEP):
    """find_zeros with the direct kernel at every scan sample and every
    bisection midpoint, the locator before the fast kernels."""
    expected = zero_count(t_max)

    def scan(step):
        ts = np.append(np.arange(0.1, t_max, step), t_max)
        zs = _hardy_z_many(ts)
        exact = zs == 0.0
        if exact.any():
            ts = ts.copy()
            ts[exact] += step * 1e-3
            zs[exact] = _hardy_z_many(ts[exact])
        flips = np.nonzero(np.sign(zs[:-1]) * np.sign(zs[1:]) < 0)[0]
        return ts[flips], ts[flips + 1], zs[flips]

    lo, hi, zlo = scan(step)
    if lo.size != expected:
        lo, hi, zlo = scan(step / _SCAN_REFINE)
    assert lo.size == expected
    sign_lo = np.sign(zlo)
    while float(np.max(hi - lo, initial=0.0)) > 2e-10:
        mid = 0.5 * (lo + hi)
        right = np.sign(_hardy_z_many(mid)) == sign_lo
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return zero_table_to_string(ZeroTable(0.5 * (lo + hi), t_max, 1e-9, certified=True))


#: sha256 of find_zeros text, recorded with the direct-kernel locator.
TABLE_SHA256 = {
    333.33: "a8a25d47590e04672d81b8d74b3d597f86388622325dea9afdccbc91f279594c",
    648.91: "cbef78b682bd5c1070385afe2bdec484e19d96d62f3b206d1e4914c0f960b4be",
    971.07: "d148d6b7d6193edbdaca9f5c08eae85ebc440c4cc3626c76762c26447d15f14f",
    1000.0: "07305b1cc7b80e9679bb63a1287e5cd020a5f6a815af6ef52b58125290d9c3b0",
}


@lru_cache(maxsize=None)
def scan_kernel_gap(t):
    """The scan grid up to t, |Z_grid - Z_direct| there, and _sign_margin."""
    grid = np.arange(0.1, t, _SCAN_STEP)
    fast = _hardy_real(_zeta_line_grid(grid), grid)
    bound = _sign_margin(grid, _em_terms_needed(grid[-1]), _grid_drift(grid))
    return np.abs(fast - _hardy_z_many(grid)), bound


@lru_cache(maxsize=None)
def taylor_kernel_gap(t):
    """|Z_Taylor - Z_direct| at three random points of each bracket below t,
    with expsum's moments as the bisection builds them (x = -log n, F = 1,
    one centre per bracket, rho from the widest bracket), and _sign_margin."""
    lo, hi, _ = _scan(t, _SCAN_STEP)
    centres = 0.5 * (lo + hi)
    N = _em_terms_needed(float(hi[-1]))
    x = -np.log(np.arange(1, N, dtype=float))
    M = expsum.terms(0.5 * float(np.max(hi - lo)) * math.log(N))
    mom = expsum.moments(x, np.ones(x.size), 0.5 + 1j * centres, 0.0, 1.0, M)
    rng = np.random.default_rng(int(t))
    gaps, bounds = [], []
    for _ in range(3):
        mid = lo + rng.uniform(size=lo.size) * (hi - lo)
        zeta_mid = expsum.horner(mom, 1j * (mid - centres))
        _add_em_tail(zeta_mid, 0.5 + 1j * mid, N)
        gaps.append(np.abs(_hardy_real(zeta_mid, mid) - _hardy_z_many(mid)))
        bounds.append(_sign_margin(mid, N))
    return np.concatenate(gaps), np.concatenate(bounds)


class TestLocator:
    @pytest.mark.parametrize("t", [330.0, 650.0, 970.0, 1000.0])
    def test_scan_kernel_matches_direct(self, t):
        assert np.max(scan_kernel_gap(t)[0]) <= 1e-11

    @pytest.mark.parametrize("t", [330.0, 650.0, 970.0, 1000.0])
    def test_taylor_kernel_matches_direct(self, t):
        assert np.max(taylor_kernel_gap(t)[0]) <= 1e-11

    @pytest.mark.parametrize("t", [330.0, 650.0, 970.0, 1000.0])
    @pytest.mark.parametrize("kernel_gap", [scan_kernel_gap, taylor_kernel_gap])
    def test_margin_is_ten_times_the_measured_gap(self, t, kernel_gap):
        # The proven bound is not vacuous: each kernel's gap stays below a tenth of it.
        gap, bound = kernel_gap(t)
        assert np.all(gap <= 0.1 * bound)

    def test_margin_at_the_desk_cap(self):
        # The Taylor kernel's bound at the cap, about a ninth of the flat 1e-9
        # margin it replaced.
        assert 5e-11 < _sign_margin(T_DESK_MAX, _em_terms_needed(T_DESK_MAX)) < 1.5e-10

    def test_margin_assumptions_hold(self):
        # np.log(n) has the same bits at every cut, and the complex
        # exponential is within 9u of its value at the phases the kernels take.
        logs = np.log(np.arange(1, 1200, dtype=float))
        for N in (32, 33, 407, 1131, 1166):
            assert np.array_equal(np.log(np.arange(1, N, dtype=float)), logs[:N - 1])
        rng = np.random.default_rng(5)
        zs = rng.uniform(-4.0, 0.0, 300) + 1j * rng.uniform(-8500.0, 8500.0, 300)
        with mp.workdps(40):
            exact = [mp.exp(mp.mpc(z.real, z.imag)) for z in zs.tolist()]
            err = [abs(mp.mpc(v.real, v.imag) - e) / abs(e) for v, e in zip(np.exp(zs), exact)]
        assert float(max(err)) <= 9 * _U

    def test_em_remainder_below_the_bound_slack(self):
        # |s + 25| / 25.5 times the first term past B_24 bounds the
        # Euler-Maclaurin remainder; it stays below 1e-21 up to the desk cap.
        b26 = 8553103 / 6 / math.factorial(26)
        assert len(_EM_COEF) == 12
        for t in np.arange(0.0, T_DESK_MAX + 0.5, 0.5):
            s, N = complex(0.5, t), _em_terms_needed(t)
            log_poch = sum(math.log(abs(s + j)) for j in range(25))
            assert abs(s + 25) / 25.5 * b26 * math.exp(log_poch - 25.5 * math.log(N)) < 1e-21

    def test_values_below_margin_are_the_direct_kernels(self, monkeypatch):
        # Three chunks, the last one short: each sample keeps its chunk's cut.
        monkeypatch.setattr(zeta, "_sign_margin", lambda t, N, drift=0.0: math.inf)
        ts = np.append(np.arange(0.1, 330.0, _SCAN_STEP), 330.0)
        assert ts.size > 2 * _LINE_CHUNK
        fast = np.append(_zeta_line_grid(ts[:-1]), _zeta_line_many(ts[-1:]))
        assert np.array_equal(_certified_z(ts, fast, _em_terms_needed(330.0)),
                              _hardy_z_many(ts))

    def test_bisection_rarely_needs_the_direct_kernel(self, monkeypatch):
        # Each direct row costs about 1131 exponentials at t = 970; the 1e-9
        # margin took 1850 rows in this bisection, the proven bound about 200.
        rows, in_bisect = [], []
        batch, bisect = zeta._zeta_em_batch, zeta._bisect

        def counted_batch(s, N):
            if in_bisect:
                rows.append(s.size)
            return batch(s, N)

        def flagged_bisect(*args):
            in_bisect.append(True)
            try:
                return bisect(*args)
            finally:
                in_bisect.clear()

        monkeypatch.setattr(zeta, "_zeta_em_batch", counted_batch)
        monkeypatch.setattr(zeta, "_bisect", flagged_bisect)
        assert len(find_zeros(970.0)) == 624
        assert sum(rows) <= 500

    @pytest.mark.parametrize("t", [14.2, 57.3, 100.0, 181.9, 250.0])
    def test_matches_reference_loop(self, t):
        assert zero_table_to_string(find_zeros(t)) == reference_zero_table_text(t)

    @pytest.mark.parametrize("t", sorted(TABLE_SHA256))
    def test_recorded_table_bytes(self, t):
        text = zero_table_to_string(find_zeros(t))
        assert hashlib.sha256(text.encode()).hexdigest() == TABLE_SHA256[t]

    def test_refined_rescan_gives_the_same_table(self, monkeypatch):
        # The 0.08 scan separates every pair below t = 1000, so a coarse step
        # whose refinement is 0.08 stands in for a missed close pair.
        coarse = _SCAN_STEP * _SCAN_REFINE
        t = 500.0
        assert _scan(t, coarse)[0].size < zero_count(t)
        monkeypatch.setattr(zeta, "_SCAN_STEP", coarse)
        text = zero_table_to_string(find_zeros(t))
        assert text == reference_zero_table_text(t, step=coarse)
        monkeypatch.undo()
        assert text == zero_table_to_string(find_zeros(t))

    def test_forced_margin_is_the_direct_path(self, monkeypatch):
        monkeypatch.setattr(zeta, "_sign_margin", lambda t, N, drift=0.0: math.inf)
        assert zero_table_to_string(find_zeros(100.0)) == reference_zero_table_text(100.0)
        # above 168 pi, where the count reads the Gram blocks past t
        text = zero_table_to_string(find_zeros(333.33))
        assert hashlib.sha256(text.encode()).hexdigest() == TABLE_SHA256[333.33]


class TestZeroCount:
    @pytest.mark.parametrize("t,expected", [(20.0, 1), (50.0, 10), (100.0, 29)])
    def test_against_scan_oracle(self, t, expected):
        assert zero_count(t) == expected
        assert siegelz_scan_count(t) == expected

    def test_matches_table_lengths(self, zeros50, zeros200):
        assert zero_count(50.0) == len(zeros50)
        assert zero_count(200.0) == len(zeros200)

    @pytest.mark.parametrize("t", [14.2, 250.5, 500.5, 999.99, 1000.0])
    def test_against_mpmath_nzeros(self, t):
        assert zero_count(t) == mp.nzeros(t)

    @pytest.mark.parametrize("n", [126, 400, 646])
    def test_at_gram_points_against_mpmath_nzeros(self, n):
        # g_126 is the first Gram point where Gram's law fails
        t = float(mp.grampoint(n))
        assert zero_count(t) == mp.nzeros(t)

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(min_value=6.0, max_value=1000.0))
    def test_counts_the_ordinates_of_one_table(self, zeros1000, t):
        assert zero_count(t) == np.searchsorted(zeros1000.ordinates, t, side="right")

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_rejected(self, t):
        with pytest.raises(DomainError, match="finite"):
            zero_count(t)

    def test_missed_pair_goes_through_the_rescan(self, monkeypatch):
        # The 0.08 scan separates every pair below t = 1000, so a coarse step
        # whose refinement is 0.08 stands in for a missed close pair.
        steps = []
        scan = zeta._scan
        monkeypatch.setattr(zeta, "_scan", lambda t, step: steps.append(step) or scan(t, step))
        monkeypatch.setattr(zeta, "_SCAN_STEP", _SCAN_STEP * _SCAN_REFINE)
        assert zero_count(500.5) == mp.nzeros(500.5)
        assert steps == [_SCAN_STEP * _SCAN_REFINE, _SCAN_STEP]

    def test_rescan_that_misses_pairs_raises(self, monkeypatch):
        monkeypatch.setattr(zeta, "_SCAN_STEP", 8.0)
        with pytest.raises(CertificationError, match="Turing's method at Gram point"):
            zero_count(500.5)

    def test_rosser_failure_raises(self, monkeypatch):
        # Erase the two sign changes of the first Gram block of length 2
        # above t = 600 from the scan grid, at either step: the squeeze below
        # the block still holds, Rosser's rule on the block fails.
        js = math.ceil(rs_theta(600.0) / math.pi) + np.arange(40)
        gs = _gram_points(js, 600.0)
        good = np.where(js % 2, -1.0, 1.0) * hardy_z(gs) > 0.0
        m = next(i for i in range(1, js.size - 1) if good[i - 1] and not good[i] and good[i + 1])
        lo, hi = gs[m - 1], gs[m + 1]
        sign = np.sign(hardy_z(lo))
        grid_kernel = zeta._zeta_line_grid

        def erased(ts):
            vals = grid_kernel(ts)
            inside = (ts > lo) & (ts < hi)
            vals[inside] = sign * np.exp(-1j * rs_theta(ts[inside]))
            return vals

        monkeypatch.setattr(zeta, "_zeta_line_grid", erased)
        with pytest.raises(CertificationError, match=r"lengths \[2, .*\] show \[0, "):
            zero_count(lo - 0.01)

    def test_theta_slope_below_the_rosser_bound_slope(self):
        # The bound on K uses theta'(t) < log(t / 2 pi) / 2 from 168 pi up.
        from eflab.special import LOG_PI, digamma
        ts = np.linspace(_TURING_T0, 1100.0, 500)
        slope = 0.5 * np.real(digamma(0.25 + 0.5j * ts)) - 0.5 * LOG_PI
        assert np.all(slope < 0.5 * np.log(ts / (2.0 * math.pi)))
        assert np.all(np.ceil(_rosser_blocks_needed(ts)) == 2)


class TestFunctionalEquation:
    def test_completed_zeta_symmetry(self):
        # pi^(-s/2) Gamma(s/2) zeta(s) is invariant under s -> 1-s
        rng = np.random.default_rng(23)
        for _ in range(10):
            s = complex(rng.uniform(0.15, 0.85), rng.uniform(1.0, 15.0))
            def completed(z):
                return np.exp(-z / 2 * math.log(math.pi) + log_gamma(z / 2)) * zeta_em(z)
            assert abs(completed(s) - completed(1.0 - s)) <= 1e-8, s


class TestVonMangoldt:
    def test_prime_powers(self):
        assert abs(lambda_von_mangoldt(8) - math.log(2.0)) < 1e-15
        assert lambda_von_mangoldt(6) == 0.0
        assert lambda_von_mangoldt(1) == 0.0

    def test_psi_sum_enumeration(self):
        expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
        assert abs(psi_sum(10.5) - expected) < 1e-12

    def test_psi_sum_boundary_half_weight(self):
        assert abs(psi_sum(2.0) - 0.5 * math.log(2.0)) < 1e-15

    def test_psi_sum_empty(self):
        assert psi_sum(1.5) == 0.0

    def test_psi_monotone_with_prime_power_jumps(self):
        xs = np.arange(1.5, 30.0, 0.25)
        vals = np.array([psi_sum(float(x)) for x in xs])
        assert np.all(np.diff(vals) >= 0.0)
        # jump across n = 9 equals Lambda(9) = log 3
        assert abs(psi_sum(9.25) - psi_sum(8.75) - math.log(3.0)) < 1e-12

    def test_sieve_contents(self):
        sv = VonMangoldtSieve.build(30)
        ns = [n for n, _ in sv.entries]
        assert ns == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]

    def test_psi_sum_bit_identical_to_loop(self):
        xs = [float(x) for x in np.arange(2.0, 200.0, 0.25)]
        xs += [27.0 + 5e-10, 32.0 - 5e-10, 30.5, 1e6, 1e6 - 0.5, 999983.0]
        entries = reference_entries(10 ** 6)
        for x in xs:
            assert psi_sum(x) == reference_psi_sum(x, entries), x

    def test_sieve_entries_match_loop(self):
        # math.log and numpy's log differ in the last bit at p = 285343
        for limit in (2, 30, 1000, 65536, 10 ** 6):
            assert VonMangoldtSieve.build(limit).entries == reference_entries(limit)

    def test_factorize_matches_sieve(self):
        # single integers go through trial division, ranges through the sieve;
        # both give the same prime powers and bit-identical logs up to 1e5
        limit = 10 ** 5
        sv = VonMangoldtSieve.build(limit)
        lam = dict(sv.entries)
        primes = set(sv.primes.tolist())
        for n in range(1, limit + 1):
            pairs = factorize(n)
            assert math.prod(p ** e for p, e in pairs) == n
            assert [p for p, _ in pairs] == sorted(p for p, _ in pairs)
            assert lambda_von_mangoldt(n) == lam.get(n, 0.0), n
            assert is_prime(n) == (n in primes), n

    @pytest.mark.parametrize("k", [1, 2])
    def test_lambda_fail_fast_at_a_large_prime_power(self, k):
        # trial division took 6.8 s at k = 1
        p = 10000000000000061
        start = time.perf_counter()
        assert lambda_von_mangoldt(p ** k) == math.log(p)
        assert time.perf_counter() - start < 0.1

    def test_primes_up_to_reads_sieve(self):
        assert _primes_up_to(1) == []
        assert _primes_up_to(1000) == [n for n in range(1001) if is_prime(n)]

    def test_sieve_arrays_read_only(self):
        sv = VonMangoldtSieve.build(30)
        for arr in (sv.primes, sv.powers, sv.log_p, sv.psi):
            with pytest.raises(ValueError):
                arr[0] = 0


@lru_cache(maxsize=None)
def reference_entries(limit):
    """Reference entries from a smallest-prime-factor table, one step per integer."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            spf[p::p] = np.where(spf[p::p] == 0, p, spf[p::p])
    entries = []
    for p in range(2, limit + 1):
        if spf[p] == p:
            q = p
            while q <= limit:
                entries.append((q, math.log(p)))
                q *= p
    return tuple(sorted(entries))


def reference_psi_sum(X, entries):
    """Reference psi_sum: one ascending scalar loop over the entries."""
    limit = int(math.floor(X + 1e-9))
    total = 0.0
    for n, lam in entries:
        if n > limit:
            break
        if abs(n - X) <= 1e-9:
            total += 0.5 * lam
        elif n < X:
            total += lam
    return total


class TestZeroTableIO:
    def test_round_trip_identity(self, zeros100):
        text = zero_table_to_string(zeros100)
        back = read_zero_table(io.StringIO(text))
        assert np.array_equal(back.ordinates, zeros100.ordinates)
        assert zero_table_to_string(back) == text

    def test_descending_rejected(self):
        bad = "# zeta-zeros v1 t_max=30 accuracy=1e-09 count=2\n21.0\n14.1\n"
        with pytest.raises(ParseError, match="ascending"):
            read_zero_table(io.StringIO(bad))

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            read_zero_table(io.StringIO("14.134725\n"))

    def test_count_mismatch_rejected(self):
        bad = "# zeta-zeros v1 t_max=30 accuracy=1e-09 count=3\n14.134725\n"
        with pytest.raises(ParseError):
            read_zero_table(io.StringIO(bad))

    @pytest.mark.parametrize("t_max", ["nan", "inf", "-5", "0"])
    @pytest.mark.parametrize("certify", [True, False])
    def test_bad_t_max_rejected(self, t_max, certify):
        text = f"# zeta-zeros v1 t_max={t_max} accuracy=1e-09 count=0\n"
        with pytest.raises(ParseError, match="t_max must be finite and > 0"):
            read_zero_table(text, certify=certify)

    @pytest.mark.parametrize("accuracy", ["nan", "inf", "-1e-09"])
    def test_bad_accuracy_rejected(self, accuracy):
        text = f"# zeta-zeros v1 t_max=30 accuracy={accuracy} count=0\n"
        with pytest.raises(ParseError, match="accuracy must be finite and >= 0"):
            read_zero_table(text, certify=False)

    def test_external_import_certified(self):
        # a table produced elsewhere with 12 significant digits is accepted
        with mp.workdps(20):
            ords = [mp.zetazero(k).imag for k in range(1, 30)]
        text = "# zeta-zeros v1 t_max=100 accuracy=1e-09 count=29\n"
        text += "".join(f"{float(g):.12g}\n" for g in ords)
        table = read_zero_table(io.StringIO(text))
        assert len(table) == 29 and table.certified

    def test_miscounted_import_fails_certification(self):
        text = "# zeta-zeros v1 t_max=100 accuracy=1e-09 count=2\n14.1347\n21.0220\n"
        with pytest.raises(CertificationError):
            read_zero_table(io.StringIO(text))

    def test_header_t_max_round_trips(self):
        # 6 significant digits would write t_max=14.1347, below the one ordinate
        table = find_zeros(14.134726)
        text = zero_table_to_string(table)
        assert text.startswith("# zeta-zeros v1 t_max=14.134726 ")
        back = read_zero_table(text)
        assert back.t_max == table.t_max
        assert np.array_equal(back.ordinates, table.ordinates)

    def test_non_ascii_file_is_parse_error(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_bytes("# zeta-zeros v1 t_max=30 accuracy=1e-09 count=0\n\u00e9\n"
                         .encode("utf-8"))
        with pytest.raises(ParseError, match="ASCII"):
            read_zero_table(str(path))

    def test_write_to_path(self, tmp_path, zeros100):
        path = tmp_path / "z.txt"
        write_zero_table(zeros100, str(path))
        assert read_zero_table(str(path)).count == 29

    @settings(max_examples=80, deadline=None)
    @given(t_max=st.floats(min_value=1e-3, max_value=1e4),
           raw=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
                        unique=True, max_size=40))
    def test_round_trip_property(self, t_max, raw):
        ords = np.unique(np.minimum(np.array(raw) * t_max, t_max))
        ords = ords[ords > 0.0]
        table = ZeroTable(ords, t_max, 1e-9)
        back = read_zero_table(zero_table_to_string(table), certify=False)
        assert back.t_max == t_max and back.count == table.count
        assert np.array_equal(back.ordinates, table.ordinates)
        assert back.ordinates.tobytes() == table.ordinates.tobytes()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_ordinate_rejected(self, bad):
        text = f"# zeta-zeros v1 t_max=30 accuracy=1e-09 count=3\n14.13\n{bad}\n25.01\n"
        with pytest.raises(ParseError, match="line 3: ordinate must be finite"):
            read_zero_table(text)

    @pytest.mark.parametrize("ords,t_max", [([14.13, math.nan, 25.01], 30.0),
                                            ([math.nan], 30.0), ([14.13, math.nan], 30.0),
                                            ([14.13], math.nan)])
    def test_zero_table_rejects_nan(self, ords, t_max):
        with pytest.raises(DomainError, match="strictly ascending"):
            ZeroTable(np.array(ords), t_max, 1e-9)

    def test_hand_built_table_not_certified(self):
        t = ZeroTable(np.array([14.13, 21.02]), 25.0, 1e-9)
        assert not t.certified
