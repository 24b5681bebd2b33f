"""Dense numerical kernels for the recurrent cells.

The cells and the model call these kernels on row batches: (B, K) float
arrays whose last axis is the vector axis, one row per sequence.  The
elementwise functions take any shape.  Default precision is float64.

Matrix products over a row batch (``affine``, ``matmul_rows``) run in fixed
``TILE_ROWS``-row tiles, the last one zero-padded, so every BLAS call has the
same shape and a row's bits depend neither on the batch size nor on the
row's place in it.  A fixed tile shape alone does not give that when the
output width is not a multiple of ``TAIL_COLS``: OpenBLAS then computes the
last ``width % TAIL_COLS`` columns with bits that depend on the row's slot in
the tile.  So each tile's widest multiple-of-``TAIL_COLS`` column block is
one product, and the remaining columns come from a product against a
zero-padded ``TAIL_COLS``-column copy of the matrix.  ``tests/test_numkit.py``
asserts the property against the installed BLAS, at widths that are and are
not multiples of ``TAIL_COLS``.

Finiteness is checked at boundaries, not inside the matrix kernels:
``check_finite`` tests the parameters' ``flat`` buffer once per mini-batch
(``model.batch_loss_and_grads``) and once per evaluation call
(``eval.collect_ranks``); ``model._pad`` checks the intervals once per
batch; the checked ``sigmoid`` covers the interval gates once per block of
steps; the cell kernel ``cells.cell_step`` checks its gate pre-activations
once per step, and the public ``cells.cell_forward`` also checks its state
and intervals on every call; ``train.fit`` aborts on a non-finite loss.  A
NaN or inf means upstream state is already corrupt, so it fails loudly
there, as ``NonFiniteError`` (a bad interval as a plain ``ValueError``),
instead of spreading.
"""

from __future__ import annotations

import numpy as np

_FLOATS = (np.float32, np.float64)

# rows per BLAS call in affine and matmul_rows
TILE_ROWS = 16
# output columns are computed in blocks of a multiple of this width
TAIL_COLS = 8


class NonFiniteError(ValueError):
    """An input or parameter holds a NaN or inf."""


def _as_float(x, name: str) -> np.ndarray:
    a = np.asarray(x)
    if a.dtype not in _FLOATS:
        a = a.astype(np.float64)
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name}: input contains NaN or inf")
    return a


def sigmoid(x) -> np.ndarray:
    """Elementwise logistic function 1 / (1 + exp(-x)), overflow-safe;
    rejects a NaN or inf input."""
    return sigmoid_unchecked(_as_float(x, "sigmoid"))


def sigmoid_unchecked(a: np.ndarray) -> np.ndarray:
    """``sigmoid`` of a float array whose finiteness the caller checked.
    The operations of ``where(a >= 0, 1, e) / (1 + e)``, e = exp(-|a|),
    run in place on two temporaries."""
    e = np.abs(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(a >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def check_finite(tensors, who: str) -> None:
    """Raise NonFiniteError, naming the first bad tensor, if the ``flat``
    buffer of ``tensors`` (a ``cells.CellParams``) holds a NaN or inf."""
    if not np.all(np.isfinite(tensors.flat)):
        name = next(n for n, a in tensors.items() if not np.all(np.isfinite(a)))
        raise NonFiniteError(f"{who}: {name}: input contains NaN or inf")


def _tiled_matmul(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(B, K) @ (K, O) in fixed TILE_ROWS-row tiles, the last one zero-padded.

    A single (B,K)@(K,O) BLAS call picks its blocking from B, so a row's bits
    would depend on the batch width; every tile here has one shape.  The
    first ``O - O % TAIL_COLS`` columns are one product per tile against a
    view of ``m``; the last ``O % TAIL_COLS`` columns are one product per
    tile against those columns of ``m`` zero-padded to ``TAIL_COLS``, so no
    column falls in the BLAS's width remainder, whose bits vary with the
    row's slot.  The main block writes straight into the output; the tail
    passes through one TILE_ROWS x TAIL_COLS buffer.
    """
    n, k = a.shape
    width = m.shape[1]
    main = width - width % TAIL_COLS
    height = -(-n // TILE_ROWS) * TILE_ROWS
    tiles = np.zeros((height, k))
    tiles[:n] = a
    out = np.empty((height, width))
    for r in range(0, height, TILE_ROWS):
        np.matmul(tiles[r:r + TILE_ROWS], m[:, :main],
                  out=out[r:r + TILE_ROWS, :main])
    if main < width:
        pad = np.zeros((k, TAIL_COLS))
        pad[:, :width - main] = m[:, main:]
        tail = np.empty((TILE_ROWS, TAIL_COLS))
        for r in range(0, height, TILE_ROWS):
            np.matmul(tiles[r:r + TILE_ROWS], pad, out=tail)
            out[r:r + TILE_ROWS, main:] = tail[:, :width - main]
    return out[:n]


def affine(w, x, b) -> np.ndarray:
    """x @ w.T + b for a (B, K) row batch x: ``matmul_rows(x, w.T)`` plus
    the bias."""
    w, b = np.asarray(w), np.asarray(b)
    if w.ndim != 2 or b.shape != w.shape[:1]:
        raise ValueError(f"affine: bias of shape {b.shape} does not fit w {w.shape}")
    out = matmul_rows(x, w.T)
    out += b
    return out


def matmul_rows(a, m) -> np.ndarray:
    """(B, K) @ (K, O) with batch-size-independent bits per row.

    Same contract as ``a @ m``; the backward passes use it wherever a per-row
    product feeds gradient accumulation.
    """
    a, m = np.asarray(a), np.asarray(m)
    if a.ndim != 2 or m.ndim != 2 or a.shape[1] != m.shape[0]:
        raise ValueError(f"matmul_rows: incompatible shapes {a.shape} @ {m.shape}")
    return _tiled_matmul(a, m)


def softmax_xent_rows(logits, targets):
    """Row-wise softmax cross-entropy for a batch.

    ``logits`` is (B, N), ``targets`` (B,) ints.  Returns ``(losses, grads)``
    with losses (B,) and grads (B, N); used by the mini-batch training path.
    A row whose target holds the maximum logit takes its loss as log1p of
    the other classes' mass, so a tiny loss keeps full precision.
    """
    z = np.asarray(logits)
    t = np.asarray(targets)
    if z.ndim != 2 or t.shape != (z.shape[0],):
        raise ValueError(
            f"softmax_xent_rows: bad shapes logits={z.shape} targets={t.shape}"
        )
    if t.size and (t.min() < 0 or t.max() >= z.shape[1]):
        raise IndexError("softmax_xent_rows: target out of range")
    m = z.max(axis=1, keepdims=True)
    ex = np.exp(z - m)
    total = ex.sum(axis=1, keepdims=True)
    rows = np.arange(z.shape[0])
    losses = np.log(total[:, 0]) - (z[rows, t] - m[:, 0])
    top = np.flatnonzero(z[rows, t] == m[:, 0])     # rows where ex[target] = 1
    rest = ex[top]
    rest[np.arange(top.size), t[top]] = 0.0
    losses[top] = np.log1p(rest.sum(axis=1))
    grads = ex / total
    grads[rows, t] -= 1.0
    return losses, grads
