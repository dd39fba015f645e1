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

The t-rule depends on g only through the oscillation rate _osc, which is
rounded up to an integer, and it is fixed by its node count n: every rate
whose node count rounds to the same ladder size gets the same rule, bit for
bit.  A batch's ordinates are then fixed by (n, first block), and two tables
keep what was computed on them:

  * the weight table, keyed by (weight key, n, first block), holds at most
    WEIGHT_TABLE_BATCHES read-only weight arrays, the least recently used
    dropped first.  A key names one weight function: equal keys must give
    equal weights.
  * the Mellin table holds (ghat, gbar-hat) per (id(g), n, first block)
    for the most recent test function only.  Each entry holds g itself, so
    a recycled id never hits, and a new g clears the table; its size is
    that of one g's batches.  So the place reports of one g at r and at its
    primes share every batch whose rule size they share.

A table hit returns the read-only arrays the miss computed, so values do not
depend on what ran before.
"""

from __future__ import annotations

import math
from collections import OrderedDict

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
#: Batches of weight values kept across calls.
WEIGHT_TABLE_BATCHES = 256

_weight_table: OrderedDict = OrderedDict()
_mellin_table: dict = {}


def _batch_weights(entry, weight_fn, s: np.ndarray) -> np.ndarray:
    """weight_fn(s) for the table entry (key, rule size, first block), read-only."""
    W = _weight_table.get(entry)
    if W is not None:
        _weight_table.move_to_end(entry)
        return W
    W = weight_fn(s)
    W.flags.writeable = False
    _weight_table[entry] = W
    if len(_weight_table) > WEIGHT_TABLE_BATCHES:
        _weight_table.popitem(last=False)
    return W


def _batch_mellin(g, entry, s: np.ndarray):
    """mellin_pair(g, s) for the batch entry (rule size, first block) of g, read-only.

    Keys lead with id(g), and each value keeps g beside its pair, so no
    other object can take that id while the entry lives.  A miss for a g
    with no entry clears the table first.
    """
    key = (id(g),) + entry
    hit = _mellin_table.get(key)
    if hit is not None:
        return hit[1]
    pair = mellin_pair(g, s)
    for a in pair:
        a.flags.writeable = False
    if any(k[0] != key[0] for k in list(_mellin_table)):
        _mellin_table.clear()
    _mellin_table[key] = (g, pair)
    return pair


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
        # Rounded up, so that the rule and the tabulated batches are shared.
        self._osc = math.ceil(max(abs(a), abs(b)) + float(weight_osc))
        # One t-rule centred on 0; block k is its translate by (k + 1/2) * BLOCK_WIDTH.
        half = 0.5 * BLOCK_WIDTH
        self._t, self._w = panel_nodes((-half, half), density=8.0, osc=self._osc)

    def integrate(self, weight_fn, key) -> complex:
        """Integrate until two consecutive blocks each contribute < BLOCK_TOL.

        Blocks are evaluated BATCH_BLOCKS at a time and added in block order;
        blocks of a batch past the stopping block are dropped.  Raises
        ConvergenceError when the t cap is reached first.  weight_fn must
        satisfy weight_fn(conj s) = conj weight_fn(s); it is called on the
        t >= 0 half only, and only for batches the weight table lacks; g's
        Mellin transform is taken only for batches the Mellin table lacks.
        key is a hashable name of weight_fn (a Place for Lambda_nu).
        """
        total = 0.0 + 0.0j
        small = 0
        n = self._t.size
        n_blocks = int(np.ceil(T_CAP / BLOCK_WIDTH))
        for first in range(0, n_blocks, BATCH_BLOCKS):
            centres = (np.arange(first, min(first + BATCH_BLOCKS, n_blocks)) + 0.5) * BLOCK_WIDTH
            t = self._t + centres[:, None]  # one row per block
            s = LINE_RE + 1j * t.reshape(-1)
            W = _batch_weights((key, n, first), weight_fn, s).reshape(t.shape)
            ghat, gbar_hat = _batch_mellin(self._g, (n, first), s)
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
