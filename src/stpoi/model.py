"""Next-POI network: embedding lookup, recurrent cell, softmax readout.

A user's history enters as transition triples (poi id, hours to the next
visit, km to the next visit).  Each step embeds the POI, runs one cell step,
and projects the hidden state onto logits over the whole vocabulary.  Loss is
the mean per-step cross-entropy against the next POI; gradients come from
hand-rolled backpropagation through the unrolled sequence.

Mini-batches are lists of independent user sequences.  One function,
``_forward``, runs the cell loop of every batch: step t on a prefix of live
rows, in blocks of steps whose interval terms (the gates that read no h)
are computed just before the block's steps.  Evaluation (``forward_batch``)
runs packed: rows in length-descending order, step t only on the sequences
longer than t.  Training's cell loop alone runs every padded row: padded
positions provably contribute exactly zero gradient, so the batched path
and the per-sequence path agree bit for bit within one OpenBLAS kernel set
(see the README's determinism scope).  Each step's z = [h_prev | x] is a
slot of one (slots, max(B, 16), n_c + n_i) workspace whose rows past the
live ones are finite, so that each step's gate product runs on a view of at
least 16 rows (see ``numkit``); a step's gates go into one ``cells.Gates``
per batch.  Training keeps every step, T + 1 slots whose x halves are
filled once from the embedding gather of the live rows.  Evaluation
streams through two slots, each step's x rows copied in just before it,
and hands each step's states to a callback before their slot is reused, so
its memory grows with the batch and not with T.  Past training's cell
loop only the real (b, t) rows are kept, and the readout streams them
through one buffer of ``READOUT_ROWS`` x vocab floats, a block of whole
steps at a time from the last step backwards: it writes the block's logits
there, turns them into gradients in place and adds their ``w_out``/``b_out``
sums through ``cells.add_step_sums``, which forms the cell's weight sums
too, before the next block.  No (real rows, vocab) array is made.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import cells, container, numkit
from .cells import (
    CellParams,
    GateAblation,
    Gates,
    VARIANTS,
    _tensor_shapes,
    cell_step,
    check_bounded,
    check_intervals,
    constrained_names,
    count_params,
    draw_tensors,
    formula_param_count,
    input_backward,
    interval_terms,
    step_backward,
)
from .numkit import TILE_ROWS, affine, matmul_rows, softmax_xent_rows
from .optim import AdamState

CHECKPOINT_KIND = "stpoi-checkpoint"

# real (b, t) rows per training readout block (whole tiles)
READOUT_ROWS = 64


@dataclass
class ModelConfig:
    variant: str
    vocab: int
    n_i: int = 128
    n_c: int = 128
    ablation: GateAblation = field(default_factory=GateAblation)
    bptt_cap: Optional[int] = None
    constraint_target: str = "interval"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.vocab < 1 or self.n_i < 1 or self.n_c < 1:
            raise ValueError("vocab, n_i and n_c must all be positive")
        if self.bptt_cap is not None and self.bptt_cap < 1:
            raise ValueError("bptt_cap must be None or >= 1")
        constrained_names(self.variant, self.constraint_target)  # checks it

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``to_dict``; raises ValueError unless ``d`` holds
        exactly the fields of ``to_dict`` with their JSON types."""
        _check_fields(d, _CONFIG_TYPES, "config")
        _check_fields(d["ablation"], dict.fromkeys(GateAblation().to_dict(), bool),
                      "config.ablation")
        return cls(**{**d, "ablation": GateAblation(**d["ablation"])})


# JSON type of every ModelConfig field as to_dict writes it
_CONFIG_TYPES = {"variant": str, "vocab": int, "n_i": int, "n_c": int,
                 "ablation": dict, "bptt_cap": (int, type(None)),
                 "constraint_target": str}


def _check_fields(d, types: dict, who: str) -> None:
    """Raise ValueError unless ``d`` is a dict with exactly the keys of
    ``types``, each value an instance of its type (a bool is no int)."""
    if not isinstance(d, dict):
        raise ValueError(f"{who}: expected an object, got {type(d).__name__}")
    for name in d:
        if name not in types:
            raise ValueError(f"{who}: unknown field {name!r}")
    for name, kind in types.items():
        if name not in d:
            raise ValueError(f"{who}: missing field {name!r}")
        value = d[name]
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ValueError(f"{who}: field {name!r} has type {type(value).__name__}")


def _model_shapes(cfg: ModelConfig) -> dict:
    """Ordered name -> shape of every model tensor: the embedding, the
    cell's tensors, then the readout."""
    return {"embedding": (cfg.vocab, cfg.n_i),
            **_tensor_shapes(cfg.variant, cfg.n_i, cfg.n_c),
            "w_out": (cfg.vocab, cfg.n_c), "b_out": (cfg.vocab,)}


class ModelParams(CellParams):
    """The whole model as one CellParams mapping checked against
    ``_model_shapes(cfg)``; the cell functions take it as the cell's."""

    def __init__(self, cfg: ModelConfig, tensors: dict):
        super().__init__(cfg.variant, tensors, _model_shapes(cfg))

    def tensors(self) -> "ModelParams":
        return self


def init_model(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Fresh parameters drawn in ``_model_shapes`` order (see
    ``cells.draw_tensors``), so a seeded generator gives identical models."""
    return ModelParams(cfg, draw_tensors(
        _model_shapes(cfg), cfg.n_c, rng,
        constrained_names(cfg.variant, cfg.constraint_target)))


def model_param_count(cfg: ModelConfig) -> dict:
    """Scalar-count report: the enumerated live total alongside the quoted
    closed-form figure (which uses different bookkeeping and is reported,
    not reconciled)."""
    cell_and_readout = count_params(cfg.variant, cfg.n_i, cfg.n_c, n_o=cfg.vocab)
    embedding = cfg.vocab * cfg.n_i
    return {
        "enumerated_cell_and_readout": cell_and_readout,
        "embedding": embedding,
        "enumerated_total": cell_and_readout + embedding,
        "formula_cell_and_readout": formula_param_count(
            cfg.variant, cfg.n_i, cfg.n_c, n_o=cfg.vocab
        ),
    }


def readout(params: ModelParams, h, out=None) -> np.ndarray:
    """Logits over the whole vocabulary for a (B, n_c) row batch of states,
    written into the (B, vocab) ``out`` if given."""
    return affine(params.w_out, h, params.b_out, out=out)


def _pad(seqs, cfg: ModelConfig, who: str, columns: int = 3):
    """Stack the first ``columns`` of ``(pois, dts, dds, targets, ...)``
    tuples into zero-padded (B, T) arrays.

    Returns them, POIs and targets as int64, then the lengths.  Padding
    steps read POI 0 at zero intervals; batch rows are independent, so they
    never reach a real step.  Every sequence must have length >= 1 and
    columns of one length (ValueError); then each column is checked once
    per batch: ids must lie in the vocabulary (IndexError), intervals must
    be finite and non-negative (ValueError), whatever the variant.
    """
    if not seqs:
        raise ValueError(f"{who}: empty batch")
    lengths = np.array([len(seq[0]) for seq in seqs])
    for seq, n in zip(seqs, lengths):
        if n == 0:
            raise ValueError(f"{who}: sequence must have length >= 1")
        if any(len(col) != n for col in seq[1:]):
            raise ValueError(f"{who}: ragged sequence tuple")
    real = np.arange(lengths.max()) < lengths[:, None]
    padded = []
    for c in range(columns):
        col = np.concatenate([seq[c] for seq in seqs])
        ids = c in (0, 3)
        if ids and (col.min() < 0 or col.max() >= cfg.vocab):
            raise IndexError(f"{who}: POI id out of vocabulary (size {cfg.vocab})")
        a = np.zeros(real.shape, dtype=np.int64 if ids else float)
        a[real] = col
        padded.append(a)
    check_intervals(padded[1], padded[2], who)
    return (*padded, lengths)


def term_rows(n_c: int) -> int:
    """Rows per block of interval terms at cell width ``n_c``: as many as
    fit a (4, rows, n_c) float array in ``numkit.BLOCK_BYTES``, one at least."""
    return max(1, numkit.BLOCK_BYTES // (32 * n_c))


def _step_blocks(counts, most: int):
    """Yield ``(t0, t1)``: runs of consecutive steps, the first first, each
    of at most ``most`` rows in all (one step at least), step t having
    ``counts[t]`` rows."""
    t0 = 0
    while t0 < len(counts):
        t1, height = t0 + 1, counts[t0]
        while t1 < len(counts) and height + counts[t1] <= most:
            height += counts[t1]
            t1 += 1
        yield t0, t1
        t0 = t1


def _forward(params: ModelParams, cfg: ModelConfig, pois, dts, dds, live,
             gates, kept=None, emit=None):
    """The cell over (B, T) ``pois`` and intervals from the zero state, step
    t on its first ``live[t]`` rows (a non-increasing count).  Returns the
    workspace z of (slots, max(B, TILE_ROWS), n_c + n_i): step t reads its
    [h_prev | x] from z[t % slots] and writes its h into
    z[(t + 1) % slots, :, :n_c] and its gates into ``gates``; rows past the
    live ones hold zeros or an earlier step's finite values, so that each
    step's product is one BLAS call on a view of at least ``TILE_ROWS``
    rows.  The steps run in blocks of at most ``term_rows(cfg.n_c)`` live
    rows (one step at least); a block's ``interval_terms`` (step-major rows)
    are computed just before its steps, so that at the paper's n_c they are
    still in a core's L2 cache when read, and ``(t0, t1, terms)`` is
    appended to ``kept`` if given.

    Without ``emit`` (training) z keeps every step: T + 1 slots, their x
    halves filled once from the embedding gather of the live rows.  With
    ``emit`` (evaluation) z has two slots: each block's x rows come from
    its own embedding gather, which also feeds its interval terms, a step's
    x rows are copied into its slot just before the step, and ``emit(t,
    h)`` gets the step's (live[t], n_c) states before their slot is reused,
    so memory does not grow with T.  The caller's ``_pad`` checked the
    inputs."""
    B, T = pois.shape
    n = cfg.n_c
    z = np.zeros((T + 1 if emit is None else 2, max(B, TILE_ROWS), n + cfg.n_i))
    rows = np.arange(B) < np.asarray(live)[:, None]
    if emit is None:
        ts, bs = np.nonzero(rows)
        z[ts, bs, n:] = params.embedding[pois[bs, ts]]
    for t0, t1 in _step_blocks(live, term_rows(n)):
        m = rows[t0:t1]
        # the block's x rows: training's from z, the stream's own gather
        x = (z[t0:t1, :B, n:][m] if emit is None
             else params.embedding[pois.T[t0:t1][m]])
        terms = interval_terms(params, x, dts.T[t0:t1][m], dds.T[t0:t1][m],
                               cfg.ablation)
        if kept is not None:
            kept.append((t0, t1, terms))
        _, _, iv, ow = terms
        r = 0
        for t in range(t0, t1):
            k = live[t]
            zt, h = z[t % len(z)], z[(t + 1) % len(z), :k, :n]
            if emit is not None:
                zt[:k, n:] = x[r:r + k]
            cell_step(params, h, zt[:max(k, TILE_ROWS)],
                      None if iv is None else ow[:, r:r + k],
                      None if iv is None else iv[:, r:r + k], gates, t)
            if emit is not None:
                emit(t, h)
            r += k
    return z


def forward_batch(params: ModelParams, cfg: ModelConfig, seqs, at=None):
    """Cache-free forward of a batch of ``(pois, dts, dds, ...)`` sequences.

    Returns hs (B, T, n_c), row b the hidden state of ``seqs[b]`` after
    every step, zero past its length; or, given ``at=(rows, steps)``, the
    (len(rows), n_c) states of ``seqs[rows[j]]`` after step ``steps[j]``, a
    step within that sequence, in that order: ``hs[rows, steps]``.  The
    batch runs packed through ``_forward``'s two-slot stream: its rows in
    stable length-descending order, step t only on the sequences longer
    than t, each block's interval terms just before its steps, and each
    step's wanted states copied out as it ends, so that memory grows with
    the batch and the states asked for, not with T.  Gates are kept for
    the last step only.  Parameters are not checked here: callers run
    ``cells.check_bounded`` once per call.
    """
    pois, dts, dds, lengths = _pad(seqs, cfg, "forward_batch")
    T = pois.shape[1]
    real = np.arange(T) < lengths[:, None]
    rows, steps = np.nonzero(real) if at is None else map(np.asarray, at)
    order = np.argsort(-lengths, kind="stable")
    # the positions asked for by step, and each one's row in the packed order
    by_step = np.argsort(steps, kind="stable")
    bounds = np.searchsorted(steps[by_step], np.arange(T + 1)).tolist()
    packed = np.argsort(order)[rows]
    out = np.zeros((len(rows), cfg.n_c))

    def emit(t, h):
        j = by_step[bounds[t]:bounds[t + 1]]
        out[j] = h[packed[j]]

    _forward(params, cfg, pois[order], dts[order], dds[order],
             real.sum(axis=0).tolist(), Gates(params, 1, len(seqs)), emit=emit)
    if at is not None:
        return out
    hs = np.zeros((*real.shape, cfg.n_c))
    hs[real] = out
    return hs


def batch_loss_and_grads(params: ModelParams, cfg: ModelConfig, seqs, out=None):
    """Mean per-step loss and its gradients over a mini-batch.

    ``seqs`` is a list of ``(pois, dts, dds, targets)`` tuples, one user
    sequence each; targets are the next POI per step.  The normalizer is the
    total number of real steps across the batch.  Gradient flow from step t
    to t-1 is severed at multiples of ``cfg.bptt_cap`` when a cap is set, so
    a loss reaches at most ``bptt_cap`` steps backwards.  The batch's ids
    and intervals, and then the bound of ``cells.check_bounded`` on the
    parameters, are checked once, up front.  The gradients are written into
    ``out`` (a ``params.zeros_like()`` mapping, zeroed here) if given.

    The forward is ``_forward`` on every row of every step, with one gate
    slot per step, keeping each block's interval terms (computed just
    before its steps, as in evaluation) for the backward.  Only this cell
    loop runs padded rows.  After it, the readout, softmax
    and ``dlogits @ w_out`` run over the real (b, t) rows, step-major, in
    blocks of whole steps of at most ``READOUT_ROWS`` rows (one step at
    least), taken from the last step backwards; tile invariance gives each
    row the bits of a per-step readout.  A block's logits are written into
    one reused buffer of ``READOUT_ROWS`` (or the batch's width, if
    larger) x vocab floats and turned into their gradients there, so the
    readout's memory does not grow with the batch's real rows.  The loss
    is summed per step in ascending t.  Before the next block,
    ``cells.add_step_sums`` adds each of the block's steps into the
    ``w_out``/``b_out`` gradient in descending t, over its runs of steps
    with equal real-row counts, in groups of as many steps as
    ``STEP_GROUP_BYTES`` holds of ``w_out``.  The backward mirrors the
    forward: it walks the kept blocks once, the last first, running
    ``cells.step_backward`` over a block's steps in descending t and then
    ``cells.input_backward`` on the block, which adds every cell parameter
    gradient.  The embedding gradient gets each step's per-POI sums of the
    real rows' input gradients, added in descending t.
    """
    pois, dts, dds, targets, lengths = _pad(seqs, cfg, "batch_loss_and_grads", 4)
    check_bounded(params, 1.0, dts, dds, "batch_loss_and_grads")
    B, T = pois.shape
    n = cfg.n_c
    mask = (np.arange(T) < lengths[:, None]).astype(float)

    # every step runs all B rows: padded rows contribute exactly zero
    gates, blocks = Gates(params, T, B), []
    z = _forward(params, cfg, pois, dts, dds, [B] * T, gates, blocks)

    # real rows step-major, step t's at[t]:at[t + 1]; padded rows keep 0 loss, dh
    real_t, real_b = np.nonzero(mask.T)
    at = np.searchsorted(real_t, np.arange(T + 1))
    h = z[real_t + 1, real_b, :n]
    losses = np.zeros((T, B))
    dhs = np.zeros((T, B, n))
    grads = out
    if out is not None:
        out.flat[...] = 0.0
    group = max(1, cells.STEP_GROUP_BYTES // params.w_out.nbytes)
    counts = np.diff(at).tolist()
    buf = np.empty((min(len(real_t), max(READOUT_ROWS, B)), cfg.vocab))
    for e0, e1 in _step_blocks(counts[::-1], READOUT_ROWS):
        s0, s1 = T - e1, T - e0     # blocks from the last step backwards
        r0, r1 = at[s0], at[s1]
        ts, bs = real_t[r0:r1], real_b[r0:r1]
        # logits, then their gradients, in place in the buffer
        d = readout(params, h[r0:r1], out=buf[:r1 - r0])
        losses[ts, bs] = softmax_xent_rows(d, targets[bs, ts], out=d)[0]
        dhs[ts, bs] = matmul_rows(d, params.w_out)
        if grads is None:
            # only now, after the products of the first and fullest block:
            # a process's first products at a height run numkit's BLAS
            # probes, whose memory then does not add to the gradients'
            grads = params.zeros_like()
        # the block's runs of steps with equal real-row counts (a run ends
        # where a sequence does)
        cuts = [s0, *(t for t in range(s0 + 1, s1)
                      if counts[t] < counts[t - 1]), s1]
        runs = [(d[at[t0] - r0:at[t1] - r0].reshape(t1 - t0, counts[t0], -1),
                 h[at[t0]:at[t1]].reshape(t1 - t0, counts[t0], -1))
                for t0, t1 in zip(cuts, cuts[1:])]
        cells.add_step_sums(grads["w_out"], grads["b_out"], runs, group)
    del buf, d, runs  # the views too, or they keep the buffer alive
    # the strided mask column, not a dense vector, fixes the order in which
    # BLAS adds a step's losses; per-step oracles sum the same way.  One
    # stacked product makes the same dot call for every step.
    total_loss = 0.0
    dots = np.matmul(losses[:, None], mask.T[:, :, None])
    for loss in dots[:, 0, 0].tolist():
        total_loss += loss

    # per step of a block: the gate pre-activation gradients, zero-padded to
    # the workspace's rows (step_backward writes only the first B, so the
    # padding stays zero from block to block), and the write-gate gradients
    gates.hoist()
    most = max(t1 - t0 for t0, t1, _ in blocks)
    das = np.zeros((most, params.blocks["w_z"].shape[0] // n, z.shape[1], n))
    dws = np.empty((most, 2, B, n))
    dxs = np.empty((T, B, cfg.n_i))
    dh_next = np.zeros((B, n))
    dc = np.zeros((2, B, n))    # [c_hat, c] gradients of the step running
    for t0, t1, terms in reversed(blocks):
        # each step's four interval gates as one contiguous block
        ivs = [None] * (t1 - t0) if terms[2] is None else list(
            terms[2].reshape(4, -1, B, n).transpose(1, 0, 2, 3).copy())
        da, dw = das[:t1 - t0], dws[:t1 - t0]
        for t in reversed(range(t0, t1)):
            dh_next = step_backward(params, gates, t, ivs[t - t0],
                                    dhs[t] + dh_next, dc, da[t - t0], dw[t - t0])
            if cfg.bptt_cap is not None and t % cfg.bptt_cap == 0:
                dh_next = np.zeros((B, n))
                dc[1] = 0.0
        dxs[t0:t1] = input_backward(params, z[t0:t1, :B], terms, gates.s[t0:t1, 0],
                                    da, dw, grads).reshape(t1 - t0, B, -1)
    # reduce duplicate POIs within each step first, rows in batch order:
    # each embedding row then receives one delta per step, added in
    # descending t, which keeps a duplicated batch exactly twice the single
    # run
    uniq, inv = np.unique(real_t * cfg.vocab + pois[real_b, real_t],
                          return_inverse=True)
    sums = np.zeros((len(uniq), cfg.n_i))
    np.add.at(sums, inv, dxs[real_t, real_b])
    np.add.at(grads["embedding"], uniq[::-1] % cfg.vocab, sums[::-1])

    grads.flat /= len(real_t)
    return total_loss / len(real_t), grads


def loss_and_grads(params: ModelParams, cfg: ModelConfig, pois, dts, dds, targets):
    """Single-sequence convenience wrapper around the batched path."""
    return batch_loss_and_grads(params, cfg, [(pois, dts, dds, targets)])


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig, adam=None):
    """Persist the model and optionally the Adam state.  The batch-order
    generator is not stored, so a run continued from it does not repeat the
    uninterrupted run (see the README)."""
    meta = {"kind": CHECKPOINT_KIND, "config": cfg.to_dict()}
    arrays = {f"param.{k}": v for k, v in params.tensors().items()}
    if adam is not None:
        meta["adam"] = {k: getattr(adam, k) for k in ("lr", "beta1", "beta2", "eps", "t")}
        arrays.update({f"adam.m.{k}": v for k, v in adam.m.items()})
        arrays.update({f"adam.v.{k}": v for k, v in adam.v.items()})
    container.save(path, meta, arrays)


def load_checkpoint(path):
    """Load a checkpoint, returning ``(params, cfg, adam_or_None)``."""
    meta, arrays = container.load(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise ValueError(f"{path}: not a model checkpoint")

    def tensors(prefix):
        try:
            return ModelParams(cfg, {k[len(prefix):]: v for k, v in arrays.items()
                                     if k.startswith(prefix)})
        except ValueError as exc:
            raise ValueError(f"{prefix}*: {exc}") from None

    adam = None
    try:
        cfg = ModelConfig.from_dict(meta.get("config"))
        params = tensors("param.")
        if "adam" in meta:
            a = meta["adam"]
            real = (int, float)
            _check_fields(a, {"lr": real, "beta1": real, "beta2": real,
                              "eps": real, "t": int}, "adam")
            adam = AdamState(tensors("adam.m."), tensors("adam.v."), **a)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return params, cfg, adam
