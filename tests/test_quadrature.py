"""Gauss-Legendre rules against scipy's reference rule."""

import numpy as np
import pytest
from scipy.special import roots_legendre

from eflab.quadrature import _gl_rule

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
