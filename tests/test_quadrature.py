"""Gauss-Legendre rules against scipy's reference rule, and panel sizing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from eflab.errors import DomainError
from eflab.quadrature import _MIN_PANEL_NODES, _gl_rule, _rule_size, panel_nodes

#: The rule sizes panel_nodes may build: multiples of 8 from its 24-node
#: minimum below 128, then eight sizes per octave up to the 6000-node cap.
LADDER = (list(range(24, 128, 8))
          + [m << (e - 3) for e in range(7, 13) for m in range(8, 16) if m << (e - 3) < 6000]
          + [6000])

#: Every ladder size up to 1100 nodes, plus large sizes up to the panel cap.
SIZES = [n for n in LADDER if n <= 1100] + [2000, 4000, 6000]


def test_matches_reference_rule():
    # Newton on the recurrence measured max|dx| 2.2e-16 and sum|dw| 5.7e-12
    # (at n = 6000) over these sizes.
    for n in SIZES:
        x, w = _gl_rule(n)
        xr, wr = roots_legendre(n)
        assert np.max(np.abs(x - xr)) <= 1e-15, n
        assert np.sum(np.abs(w - wr)) <= 1e-11, n


@pytest.mark.parametrize("n", [1, 2, 3, 7, 9, 25])
def test_small_and_odd_sizes(n):
    x, w = _gl_rule(n)
    xr, wr = roots_legendre(n)
    assert np.max(np.abs(x - xr)) <= 1e-15
    assert np.max(np.abs(w - wr)) <= 1e-14


def test_rule_is_read_only():
    x, w = _gl_rule(48)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


class TestPanelNodes:
    @pytest.mark.parametrize("breaks,kw", [
        ((0.0, 1e300, 1e308), {}),
        ((0.0, 1.0), {"osc": float("inf")}),
        ((0.0, 1.0), {"density": float("nan")}),
    ])
    def test_non_finite_node_count_rejected(self, breaks, kw):
        with pytest.raises(DomainError, match="non-finite number of nodes"):
            panel_nodes(breaks, **kw)

    def test_node_counts_are_ladder_sizes(self):
        assert len(LADDER) == 58
        seen = set()
        for length in np.geomspace(1e-3, 200.0, 400):
            for density, osc in ((8.0, 0.0), (64.0, 0.0), (8.0, 3.0), (64.0, 2400.0)):
                x, _ = panel_nodes((0.0, length), density=density, osc=osc)
                assert x.size in LADDER, (length, density, osc)
                seen.add(x.size)
        assert len(seen) >= 40

    def test_long_finite_panel_is_capped(self):
        x, w = panel_nodes((0.0, 1e300))
        assert x.size == 6000 and abs(w.sum() - 1e300) <= 1e288


def numpy_panel_nodes(breakpoints, density=64.0, osc=0.0):
    """panel_nodes as an array computation (np.unique, np.diff, np.ceil), the
    reference for the Python-float assembly."""
    bs = np.unique(np.asarray(breakpoints, dtype=float))
    if bs.size < 2:
        return np.empty(0), np.empty(0)
    lengths = np.diff(bs)
    with np.errstate(over="ignore", invalid="ignore"):
        wanted = density * lengths + osc * lengths / 3.5
    bad = np.flatnonzero(~np.isfinite(wanted))
    if bad.size:
        i = bad[0]
        raise DomainError(f"quadrature panel [{bs[i]:.6g}, {bs[i + 1]:.6g}] "
                          f"needs a non-finite number of nodes")
    xs = []
    ws = []
    for a, b, length, want in zip(bs[:-1], bs[1:], lengths, wanted):
        if length <= 1e-14:
            continue
        n = _rule_size(max(_MIN_PANEL_NODES, int(np.ceil(want)) + 16))
        x0, w0 = _gl_rule(n)
        xs.append(0.5 * (a + b) + 0.5 * length * x0)
        ws.append(0.5 * length * w0)
    if not xs:
        return np.empty(0), np.empty(0)
    return np.concatenate(xs), np.concatenate(ws)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def unsorted_breaks(draw):
    """Breakpoints in any order, with repeats and panels of 1e-14 or less."""
    bs = draw(st.lists(st.floats(-50.0, 50.0), max_size=7))
    for b in draw(st.lists(st.sampled_from(bs), max_size=3)) if bs else []:
        bs.append(b + draw(st.sampled_from([0.0, 1e-15, 1e-14, 2e-14])))
    return bs


class TestPythonAssembly:
    @settings(max_examples=300, deadline=None)
    @given(unsorted_breaks(), st.sampled_from([0.02, 8.0, 48.0, 64.0, 96.0]),
           st.sampled_from([0.0, 3.0, 2.0 * math.pi * 7.0, 2400.0]))
    def test_same_bits_as_the_array_version(self, breaks, density, osc):
        x, w = panel_nodes(breaks, density=density, osc=osc)
        xr, wr = numpy_panel_nodes(breaks, density=density, osc=osc)
        assert same_bits(x, xr) and same_bits(w, wr)

    @pytest.mark.parametrize("breaks,kw", [
        ((0.0, 1e300, 1e308), {}),
        ((0.0, 1.0), {"osc": math.inf}),
        ((0.0, 1.0), {"density": math.nan}),
        ((2.0, 0.0, math.nan, 1.0, math.nan), {}),
        ((-math.inf, 0.0, 1.0), {}),
        ((1.0, math.inf, 0.0), {}),
    ])
    def test_same_domain_error(self, breaks, kw):
        with pytest.raises(DomainError) as ref:
            numpy_panel_nodes(breaks, **kw)
        with pytest.raises(DomainError, match="non-finite number of nodes") as got:
            panel_nodes(breaks, **kw)
        assert str(got.value) == str(ref.value)

    def test_degenerate_inputs(self):
        for breaks in ((), (1.0,), (1.0, 1.0), (1.0, 1.0 + 1e-15), (math.inf, math.inf)):
            x, w = panel_nodes(breaks)
            assert x.size == w.size == 0
