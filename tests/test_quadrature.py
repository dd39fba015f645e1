"""Gauss-Legendre rules against scipy's reference rule, and panel sizing."""

import numpy as np
import pytest
from scipy.special import roots_legendre

from eflab.errors import DomainError
from eflab.quadrature import _gl_rule, panel_nodes

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
