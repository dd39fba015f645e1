"""Gauss-Legendre rules against scipy's reference rule, and panel sizing."""

import numpy as np
import pytest
from scipy.special import roots_legendre

from eflab.errors import DomainError
from eflab.quadrature import _gl_rule, panel_nodes

#: Every size panel_nodes builds below 1100 nodes (multiples of 8 from its
#: 24-node minimum), plus large sizes up to the 6000-node panel cap.
SIZES = list(range(24, 1097, 8)) + [2000, 4000, 6000]


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

    def test_long_finite_panel_is_capped(self):
        x, w = panel_nodes((0.0, 1e300))
        assert x.size == 6000 and abs(w.sum() - 1e300) <= 1e288
