"""Adaptive truncated integrals over the critical line.

Integrals of the shape (1/2 pi i) int_{Re s = 1/2} W(s) ghat(s) ds are
computed in t-blocks [T, T+20] on the upper half t >= 0.  One Gauss-Legendre
t-rule is translated to every block, and the blocks are evaluated in batches
of BATCH_BLOCKS: one weight call and one Mellin call on the stacked ordinates
of the batch.  Block contributions are added in block order, and the sum
stops after two consecutive blocks each contribute less than BLOCK_TOL: an
oscillating integrand can add little over one block and more after it.

The lower half is never evaluated.  The weight must satisfy the contract

    W(conj s) = conj W(s),

which Lambda_nu and the Mellin-Fourier kernel |x|^(s-1)/Gamma_nu(s) do, and
ghat(conj s) = conj gbar-hat(s) with gbar the conjugate test function.  So
the point 1/2 - it contributes conj(gbar-hat(s) W(s)) at s = 1/2 + it.  For a
real g, gbar is g: each batch evaluates ghat once, and the block sum
a + conj(a) has an imaginary part of exactly 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .quadrature import panel_nodes

LINE_RE = 0.5
BLOCK_WIDTH = 20.0
#: Blocks evaluated per weight and Mellin call.  Every node of a batch gets
#: the Mellin node density of the batch's largest |t|, so larger batches cost
#: more than they save.
BATCH_BLOCKS = 8
BLOCK_TOL = 1e-10
T_CAP = 2000.0


def mellin_pair(g, s: np.ndarray):
    """(ghat(s), gbar-hat(s)) with gbar = conj g, so ghat(conj s) = conj gbar-hat(s).

    For a real g the second entry is the first array itself, not a copy.
    """
    upper = g.mellin(s)
    return upper, (upper if g.is_real else g.conjugate().mellin(s))


class VerticalLineIntegrator:
    """Blockwise integrator for (1/2 pi i) int W(s) ghat(s) ds on Re s = 1/2."""

    def __init__(self, g, weight_osc: float):
        a, b = g.support_log()
        self._g = g
        # t-oscillation of the integrand: ghat(1/2+it) rings at the support edges,
        # the weight at most at rate weight_osc (log p for prime places).
        self._osc = max(abs(a), abs(b)) + float(weight_osc)
        # One t-rule centred on 0; block k is its translate by (k + 1/2) * BLOCK_WIDTH.
        half = 0.5 * BLOCK_WIDTH
        self._t, self._w = panel_nodes((-half, half), density=8.0, osc=self._osc)

    def integrate(self, weight_fn) -> complex:
        """Integrate until two consecutive blocks each contribute < BLOCK_TOL.

        Blocks are evaluated BATCH_BLOCKS at a time and added in block order;
        blocks of a batch past the stopping block are dropped.  Raises
        ConvergenceError when the t cap is reached first.  weight_fn must
        satisfy weight_fn(conj s) = conj weight_fn(s); it is called on the
        t >= 0 half only.
        """
        total = 0.0 + 0.0j
        small = 0
        n_blocks = int(np.ceil(T_CAP / BLOCK_WIDTH))
        for first in range(0, n_blocks, BATCH_BLOCKS):
            centres = (np.arange(first, min(first + BATCH_BLOCKS, n_blocks)) + 0.5) * BLOCK_WIDTH
            t = self._t + centres[:, None]  # one row per block
            s = LINE_RE + 1j * t.reshape(-1)
            W = weight_fn(s).reshape(t.shape)
            ghat, gbar_hat = mellin_pair(self._g, s)
            upper = self._w * ghat.reshape(t.shape) * W
            lower = upper if gbar_hat is ghat else self._w * gbar_hat.reshape(t.shape) * W
            contribs = np.sum(upper + np.conj(lower), axis=1) / (2.0 * np.pi)
            for contrib in contribs:
                total += contrib
                small = small + 1 if abs(contrib) < BLOCK_TOL else 0
                if small == 2:
                    return complex(total)
        raise ConvergenceError(
            f"vertical-line integral did not converge below {BLOCK_TOL} by t = {T_CAP}")
