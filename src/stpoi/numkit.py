"""Dense numerical kernels for the recurrent cells.

The cells and the model call these kernels on row batches: (B, K) float
arrays whose last axis is the vector axis, one row per sequence.  The
elementwise functions take any shape.  Default precision is float64.

Matrix products over a row batch (``affine``, ``matmul_rows``) give each row
the bits of a ``TILE_ROWS``-row BLAS call, whatever the batch size and the
row's place in it, and make as few calls as that allows: exactly
``TILE_ROWS`` rows at a width that is a multiple of ``TAIL_COLS`` are one
``np.matmul`` with no padding, probe or tail.  The products and
``softmax_xent_rows`` write into ``out=`` when given, so that the model's
readout turns its logits into gradients in place.  Any other batch takes
one decision, for all its column blocks: one call over all its rows, or
``TILE_ROWS``-row tiles, the last one zero-padded, in one batched call.  A
batch of fewer than ``TILE_ROWS`` rows is the one-tile case (below 16 rows
the bits can differ from a 16-row call's, which is why 16 is the least call
height).  The model's step products need no padding here: they run on
views of at least ``TILE_ROWS`` rows of its workspaces, whose rows past the
live ones are zero or finite (a row's bits do not depend on the others).  A
taller batch is one call where that gives the same bits.  Where it does
not: OpenBLAS computes small products with a second kernel (with the
SkylakeX kernels: up to 10^6 multiply-adds and, for a transposed matrix,
1200 outputs from K >= 32), whose bits can differ from the large kernel's,
so one call over B rows matches 16-row calls for every B only if both
kernels round alike or the 16-row call already runs the large one.  That
decides between one call and tiles, and ``_one_call_exact`` probes this
per matrix shape and layout.  A fixed call shape alone does not give the
property when the output width is not a multiple of ``TAIL_COLS``: OpenBLAS
then computes the last ``width % TAIL_COLS`` columns with bits that depend
on the row's slot.  So the widest multiple-of-``TAIL_COLS`` column block is
one product, and the remaining columns come from a product against a
zero-padded ``TAIL_COLS``-column copy of the matrix.
``tests/test_numkit.py`` asserts the property against the installed BLAS,
from one row to taller than any call the model makes, at the shapes the
model uses.

No kernel here checks finiteness.  One guard, ``cells.check_bounded``,
proves that no gate pre-activation or logit can overflow where parameters
meet inputs: in ``model.batch_loss_and_grads``, ``eval.collect_ranks``,
``train.fit`` after each epoch and ``cells.cell_forward``.  It raises
``NonFiniteError``, naming a NaN or inf tensor through ``check_finite``.
"""

from __future__ import annotations

import math

import numpy as np

# fewest rows per BLAS call in affine and matmul_rows
TILE_ROWS = 16
# output columns are computed in blocks of a multiple of this width
TAIL_COLS = 8
# multiply-adds and outputs past which _one_call_exact trusts a probe for
# every height: 4x and 6.8x the limits of OpenBLAS's small-product kernel
PROBE_SIZE = 1 << 22
PROBE_OUTPUTS = 1 << 13
# bytes per cache-sized block, so that a block stays in a core's L2: of the
# model's interval terms, of a weight gradient's rows in ``cells.add_step_sums``
# and of the Adam update's slices
BLOCK_BYTES = 256 * 1024

# (K, O, strides, dtype) of a matrix -> the most rows one call is known to
# take exactly: inf for any number, 0 for none past TILE_ROWS.  A property
# of the process's BLAS, so one table serves every caller.
_ONE_CALL_ROWS = {}


class NonFiniteError(ValueError):
    """An input or parameter holds a NaN or inf."""


def sigmoid(a: np.ndarray, out=None) -> np.ndarray:
    """Elementwise logistic function 1 / (1 + exp(-a)) of a float array,
    overflow-safe: exp(min(a, 0)) / (1 + exp(-|a|)), into ``out`` if given.
    Both exponents are -|a| where a < 0, so this is exactly the two-branch
    ``where(a >= 0, 1, e) / (1 + e)``, e = exp(-|a|), with no branch.
    -|a| is ``negative(abs(a))``, the bits of ``copysign(a, -1)`` from two
    vectorised calls."""
    out = np.minimum(a, 0.0, out=out)
    np.exp(out, out=out)
    e = np.abs(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    out /= e
    return out


def check_finite(tensors, who: str) -> None:
    """Raise NonFiniteError, naming the first bad tensor, if the ``flat``
    buffer of ``tensors`` (a ``cells.CellParams``) holds a NaN or inf."""
    if not np.all(np.isfinite(tensors.flat)):
        name = next(n for n, a in tensors.items() if not np.all(np.isfinite(a)))
        raise NonFiniteError(f"{who}: {name}: input contains NaN or inf")


def _in_tiles(rows: np.ndarray, m: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = rows @ m`` as TILE_ROWS-row BLAS calls, the last tile
    zero-padded, made by one batched ``np.matmul``."""
    n, k = rows.shape
    tiles = np.zeros((-(-n // TILE_ROWS) * TILE_ROWS, k))
    tiles[:n] = rows
    out[...] = np.matmul(tiles.reshape(-1, TILE_ROWS, k), m).reshape(
        len(tiles), m.shape[1])[:n]


def _one_call_exact(m: np.ndarray, n: int) -> bool:
    """Whether one BLAS call over n > TILE_ROWS rows gives each row of
    ``a @ m`` the bits of TILE_ROWS-row calls.

    The BLAS picks its kernel from the shapes alone and switches kernel at
    most once as the height grows, so a probe that agrees at some height
    vouches for every height up to it, and for every height at all once it
    is past the small-product kernel's limits.  So a shape, layout and dtype
    of ``m`` is probed on random rows, one call against the same rows in
    TILE_ROWS-row tiles, when a call first needs more rows than known: at
    twice the known height or more, and at most just past those limits.
    The probe's height leaves a partial tile, so that the kernels' row
    remainders are compared too.
    """
    k, width = m.shape
    key = (k, width, m.strides, m.dtype.str)
    known = _ONE_CALL_ROWS.get(key, TILE_ROWS)
    if known and n > known:
        past = max(-(-PROBE_SIZE // max(1, k * width)),
                   -(-PROBE_OUTPUTS // max(1, width)))
        target = min(max(n, 2 * known), past)
        height = -(-target // TILE_ROWS) * TILE_ROWS + 11
        a = np.random.default_rng(0).standard_normal((height, k))
        tiles = np.empty((height, width))
        _in_tiles(a, m, tiles)
        if not np.array_equal(a @ m, tiles):
            known = 0
        else:
            known = math.inf if target == past else height
        _ONE_CALL_ROWS[key] = known
    return n <= known


def affine(w, x, b, out=None) -> np.ndarray:
    """x @ w.T + b for a (B, K) row batch x: ``matmul_rows(x, w.T, out)``
    plus the bias."""
    out = matmul_rows(x, w.T, out)
    out += b
    return out


def matmul_rows(a, m, out=None) -> np.ndarray:
    """(B, K) @ (K, O) with the bits of TILE_ROWS-row BLAS calls per row,
    whatever B and the row's place in the batch, into the (B, O) ``out`` if
    given.

    Same contract as ``a @ m`` for 2-D arrays; the backward passes use it
    wherever a per-row product feeds gradient accumulation.  Exactly
    TILE_ROWS rows and an output width that is a multiple of TAIL_COLS are
    one ``np.matmul`` on the contiguous rows.  Otherwise the first
    ``O - O % TAIL_COLS`` columns are one column block, a view of ``m``, and
    the last ``O % TAIL_COLS`` columns another, those columns of ``m``
    zero-padded to ``TAIL_COLS``, so no column falls in the BLAS's width
    remainder, whose bits vary with the row's slot.  One decision serves
    both blocks: one call over all the rows if B is TILE_ROWS, or taller
    and ``_one_call_exact`` holds for every block; TILE_ROWS-row tiles
    otherwise, which for B < TILE_ROWS is one zero-padded tile.
    """
    n, k = a.shape
    width = m.shape[1]
    main = width - width % TAIL_COLS
    if n == TILE_ROWS and main == width:
        return np.matmul(np.ascontiguousarray(a), m, out=out)
    rows = np.ascontiguousarray(a, dtype=np.float64)
    if out is None:
        out = np.empty((n, width))
    blocks = [(m[:, :main], out[:, :main])]
    if main < width:
        pad = np.zeros((k, TAIL_COLS))
        pad[:, :width - main] = m[:, main:]
        tail = np.empty((n, TAIL_COLS))
        blocks.append((pad, tail))
    one_call = n == TILE_ROWS or n > TILE_ROWS and all(
        _one_call_exact(block, n) for block, _ in blocks)
    for block, dest in blocks:
        (np.matmul if one_call else _in_tiles)(rows, block, dest)
    if main < width:
        out[:, main:] = tail[:, :width - main]
    return out


def softmax_xent_rows(logits, targets, out=None):
    """Row-wise softmax cross-entropy for a batch.

    ``logits`` is (B, N), ``targets`` (B,) ints.  Returns ``(losses, grads)``
    with losses (B,) and grads (B, N), written into ``out`` if given, which
    may be ``logits`` itself; used by the mini-batch training path.  A row
    whose target holds the maximum logit takes its loss as log1p of the
    other classes' mass, so a tiny loss keeps full precision.
    """
    z = np.asarray(logits)
    t = np.asarray(targets)
    if z.ndim != 2 or t.shape != (z.shape[0],):
        raise ValueError(
            f"softmax_xent_rows: bad shapes logits={z.shape} targets={t.shape}"
        )
    if t.size and (t.min() < 0 or t.max() >= z.shape[1]):
        raise IndexError("softmax_xent_rows: target out of range")
    rows = np.arange(z.shape[0])
    m = z.max(axis=1)
    zt = z[rows, t]
    ex = np.subtract(z, m[:, None], out=out)
    np.exp(ex, out=ex)
    total = ex.sum(axis=1, keepdims=True)
    losses = np.log(total[:, 0]) - (zt - m)
    top = np.flatnonzero(zt == m)       # rows where ex[target] = 1
    if top.size:
        rest = ex[top]
        rest[np.arange(top.size), t[top]] = 0.0
        losses[top] = np.log1p(rest.sum(axis=1))
    ex /= total
    ex[rows, t] -= 1.0
    return losses, ex
