"""The vertical-line integrator: t >= 0 evaluation closed by conjugation."""

import math

import numpy as np
import pytest

from eflab import contour, testfn, weil
from eflab.contour import BATCH_BLOCKS, BLOCK_TOL, BLOCK_WIDTH, VerticalLineIntegrator
from eflab.padic import mellin_fourier_check
from eflab.quadrature import panel_nodes
from eflab.special import Place, lambda_factor
from eflab.testfn import bump

from conftest import CORPUS, G0, random_bumps

REAL_CORPUS = [g for g in CORPUS if g.is_real]
PRIMES = (2, 3, 5, 7)


def two_sided_integral(g, weight_fn, weight_osc):
    """The block sum evaluated at both 1/2 + it and 1/2 - it, as a reference.

    Each block has its own panel rule, at the integrator's rate rounded up to
    an integer; the blocks are stacked in batches as the integrator stacks
    them, so that ghat sees the same Mellin nodes, and the sum stops after the
    same two consecutive small blocks.
    """
    a, b = g.support_log()
    osc = math.ceil(max(abs(a), abs(b)) + weight_osc)
    total = 0.0 + 0.0j
    small = 0
    n_blocks = int(np.ceil(contour.T_CAP / BLOCK_WIDTH))
    for first in range(0, n_blocks, BATCH_BLOCKS):
        rules = [panel_nodes((k * BLOCK_WIDTH, (k + 1) * BLOCK_WIDTH), density=8.0, osc=osc)
                 for k in range(first, min(first + BATCH_BLOCKS, n_blocks))]
        t = np.concatenate([t for t, _ in rules])
        w = np.concatenate([w for _, w in rules])
        terms = sum(w * g.mellin(s) * weight_fn(s) for s in (0.5 + 1j * t, 0.5 - 1j * t))
        for block in np.split(terms, len(rules)):
            contrib = np.sum(block) / (2.0 * np.pi)
            total += contrib
            small = small + 1 if abs(contrib) < BLOCK_TOL else 0
            if small == 2:
                return complex(total)
    raise AssertionError("reference integral did not converge")


def place_weight(place):
    return lambda s: lambda_factor(place, s)


def captured_mellin_fourier_weights(monkeypatch, g, points):
    """The (weight function, key) pairs mellin_fourier_check hands to the
    integrator at each (place, x) of points."""
    weights = []
    integrate = VerticalLineIntegrator.integrate

    def recording(self, weight_fn, key):
        weights.append((weight_fn, key))
        return integrate(self, weight_fn, key)

    monkeypatch.setattr(VerticalLineIntegrator, "integrate", recording)
    for place, x in points:
        mellin_fourier_check(g, place, x)
    return weights


class TestStopRule:
    def test_small_block_inside_an_oscillation(self):
        # The block on t in [340, 360] adds -4.8e-11, below BLOCK_TOL, and
        # the blocks after it add -5.3e-9: stopping at the first small block
        # returned 5.16e-9 for a term that is exactly 0.  Summing all 100
        # blocks with a 512-per-unit Mellin rule levels off at -1.20e-10, so
        # the t-rule, not the truncation, sets the floor.
        g = testfn.parse_test_function("bump:mu=0.3,sigma=1.2,amp=0.5+mu=-0.2,sigma=0.5")
        assert weil.w_p(g, 5) == 0.0
        assert abs(weil.w_p_contour(g, 5)) <= 2e-10


class TestRealImaginaryPart:
    @pytest.mark.parametrize("g", REAL_CORPUS)
    def test_contour_routes(self, g):
        assert weil.w_r(g, "contour").imag == 0.0
        for p in PRIMES:
            assert weil.w_p_contour(g, p).imag == 0.0

    def test_mellin_fourier_line(self):
        for place, xs in ((Place.prime(2), (0, -1, 1)), (Place.real(), (0.5, 40.0))):
            for x in xs:
                line, _ = mellin_fourier_check(G0, place, x)
                assert line.imag == 0.0, (place.label, x)

    def test_complex_amplitude_keeps_its_imaginary_part(self):
        g = CORPUS[-1]
        assert not g.is_real
        assert weil.w_p_contour(g, 2).imag != 0.0


class TestAgainstTwoSidedSum:
    @pytest.mark.parametrize("g", CORPUS + tuple(random_bumps(5, seed=11)))
    def test_local_weights(self, g):
        for place, osc in [(Place.real(), 1.0)] + [(Place.prime(p), math.log(p)) for p in PRIMES]:
            want = two_sided_integral(g, place_weight(place), osc)
            got = VerticalLineIntegrator(g, osc).integrate(place_weight(place), place)
            assert abs(got - want) <= 1e-12, place.label

    def test_mellin_fourier_weight(self, monkeypatch):
        g = CORPUS[-1]  # complex amplitude: the lower half needs conj(g)
        ((weight, key),) = captured_mellin_fourier_weights(monkeypatch, g, [(Place.prime(3), 1)])
        osc = abs(-math.log(3.0)) + math.log(3.0)
        got = VerticalLineIntegrator(g, osc).integrate(weight, key)
        assert abs(got - two_sided_integral(g, weight, osc)) <= 1e-12


class TestWeightContract:
    """W(conj s) = conj W(s), the symmetry the conjugate closure rests on."""

    S = np.array([0.5 + 0.0j, 0.5 + 3.7j, 0.5 - 41.0j, 0.5 + 977.25j,
                  0.1 + 2.0j, 0.9 - 15.5j, 0.3 + 250.0j])

    @staticmethod
    def assert_contract(weight_fn, s):
        w, wbar = weight_fn(s), weight_fn(np.conj(s))
        assert np.all(np.abs(wbar - np.conj(w)) <= 1e-15 * np.abs(w))

    @pytest.mark.parametrize("p", [None, 2, 3, 5, 7, 11, 13])
    def test_lambda_factor(self, p):
        place = Place.real() if p is None else Place.prime(p)
        self.assert_contract(place_weight(place), self.S)

    def test_mellin_fourier_weight(self, monkeypatch):
        points = [(Place.prime(2), v) for v in (0, -1, 1)] + [(Place.real(), 0.5), (Place.real(), 3.0)]
        weights = captured_mellin_fourier_weights(monkeypatch, G0, points)
        assert len(weights) == 5
        for weight, _ in weights:
            self.assert_contract(weight, self.S)


class TestWork:
    @staticmethod
    def count_calls(monkeypatch):
        calls = {"mellin": [], "panel_nodes": 0}
        mellin = testfn.TestFunction.mellin

        def counted_mellin(self, s):
            calls["mellin"].append((self, np.array(s)))
            return mellin(self, s)

        def counted_panel_nodes(*args, **kwargs):
            calls["panel_nodes"] += 1
            return panel_nodes(*args, **kwargs)

        monkeypatch.setattr(testfn.TestFunction, "mellin", counted_mellin)
        monkeypatch.setattr(contour, "panel_nodes", counted_panel_nodes)
        return calls

    def test_real_bump_one_mellin_and_weight_per_batch(self, monkeypatch):
        g = bump(0.7, 0.6)
        calls = self.count_calls(monkeypatch)
        weight_args = []

        def weight(s):
            weight_args.append(s)
            return lambda_factor(Place.prime(2), s)

        VerticalLineIntegrator(g, math.log(2.0)).integrate(weight, object())  # a cold key
        assert calls["panel_nodes"] == 1  # one t-rule for every block
        batches = calls["mellin"]
        assert len(batches) == len(weight_args) > 1
        half = 0.5 * BLOCK_WIDTH
        # the rate 0.7 + 0.6 + log 2 = 1.99 is rounded up to 2
        rule, _ = panel_nodes((-half, half), density=8.0, osc=2)
        for b, ((fn, s), ws) in enumerate(zip(batches, weight_args)):
            assert fn is g and np.array_equal(s, ws)
            assert s.size == BATCH_BLOCKS * rule.size and np.all(s.real == 0.5)
            # each block's slice is the rule translated to the block, bit for bit
            for j, block in enumerate(np.split(s.imag, BATCH_BLOCKS)):
                k = b * BATCH_BLOCKS + j
                assert np.array_equal(block, rule + (k + 0.5) * BLOCK_WIDTH)

    def test_complex_bump_adds_the_conjugate(self, monkeypatch):
        g = CORPUS[-1]
        calls = self.count_calls(monkeypatch)
        VerticalLineIntegrator(g, 1.0).integrate(place_weight(Place.real()), Place.real())
        fns = [fn for fn, _ in calls["mellin"]]
        assert fns[0::2] == [g] * (len(fns) // 2)
        assert fns[1::2] == [g.conjugate()] * (len(fns) // 2)
        assert all(np.all(s.imag >= 0.0) for _, s in calls["mellin"])


class TestWeightTable:
    """The Lambda_nu weights tabulated per (key, rounded rate, batch)."""

    #: Bumps whose rounded rate equals G0's at r (3), at 2 (2) and at 3 (3).
    SAME_KEY = (bump(0.6, 0.5), bump(0.5, 0.7, amp=2.0), bump(0.75, 0.5, amp=-1.0))

    @staticmethod
    def routes(g):
        return [weil.w_r(g, "contour")] + [weil.w_p_contour(g, p) for p in (2, 3)]

    def test_cold_and_warm_values_are_bit_identical(self, monkeypatch):
        for h in self.SAME_KEY:
            for w_osc in (1.0, math.log(2.0), math.log(3.0)):
                assert (VerticalLineIntegrator(h, w_osc)._osc
                        == VerticalLineIntegrator(G0, w_osc)._osc)
        contour._weight_table.clear()
        cold = self.routes(G0)
        contour._weight_table.clear()
        for h in self.SAME_KEY:
            self.routes(h)
        calls = []

        def counted(place, s):
            calls.append(place)
            return lambda_factor(place, s)

        monkeypatch.setattr(weil, "lambda_factor", counted)
        warm = self.routes(G0)
        assert calls == []  # every batch came from the table
        assert np.array_equal(np.array(warm).view(np.uint64), np.array(cold).view(np.uint64))

    def test_bounded_by_a_constant(self):
        bound = contour.WEIGHT_TABLE_BATCHES
        integ = VerticalLineIntegrator(G0, 1.0)
        for k in range(bound + 20):
            integ.integrate(np.ones_like, ("bound", k))
            assert len(contour._weight_table) <= bound
        assert len(contour._weight_table) == bound
        assert not any(key == ("bound", 0) for key, _, _ in contour._weight_table)
        assert all(not W.flags.writeable for W in contour._weight_table.values())
