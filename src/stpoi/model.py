"""Next-POI network: embedding lookup, recurrent cell, softmax readout.

A user's history enters as transition triples (poi id, hours to the next
visit, km to the next visit).  Each step embeds the POI, runs one cell step,
and projects the hidden state onto logits over the whole vocabulary.  Loss is
the mean per-step cross-entropy against the next POI; gradients come from
hand-rolled backpropagation through the unrolled sequence.

Mini-batches are lists of independent user sequences.  The time loop runs
step t on a prefix of live rows.  Evaluation (``forward_batch``) runs packed:
rows in length-descending order, step t only on the sequences longer than
t.  Training's cell loop alone runs every padded row: padded positions
provably contribute exactly zero gradient, so the batched path and the
per-sequence path agree.  Every step's z = [h_prev | x] lives in one
(T + 1, max(B, 16), n_c + n_i) array, its x half filled once from the
embedding gather of the live rows, the rows past B zero, so that each step's
gate product runs on a view of at least 16 rows (see ``numkit``); a step's
gates go into one ``cells.Gates`` per batch.  Past training's cell loop
only the real (b, t) rows are kept.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import container
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
# w_out rows per block of the w_out/b_out gradient sum
VOCAB_ROWS = 256
# (b, t) rows per block of the interval terms, computed ahead of the steps
# and backpropagated after them (one step at least)
TERM_ROWS = 512


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


def _check_ids(pois, vocab, who):
    pois = np.asarray(pois)
    if pois.size == 0:
        raise ValueError(f"{who}: sequence must have length >= 1")
    if pois.min() < 0 or pois.max() >= vocab:
        raise IndexError(f"{who}: POI id out of vocabulary (size {vocab})")
    return pois


def readout(params: ModelParams, h) -> np.ndarray:
    """Logits over the whole vocabulary for a (B, n_c) row batch of states."""
    return affine(params.w_out, h, params.b_out)


def _pad(seqs, cfg: ModelConfig, who: str):
    """Stack ``(pois, dts, dds, ...)`` tuples into zero-padded (B, T) arrays.

    Returns ``(pois, dts, dds, lengths)``.  Padding steps read POI 0 at zero
    intervals; batch rows are independent, so they never reach a real step.
    Every POI id and interval is checked here, once per batch: ids must lie
    in the vocabulary (IndexError), intervals must be finite and
    non-negative (ValueError), whatever the variant.
    """
    if not seqs:
        raise ValueError(f"{who}: empty batch")
    lengths = []
    for seq in seqs:
        _check_ids(seq[0], cfg.vocab, who)
        if any(len(col) != len(seq[0]) for col in seq[1:]):
            raise ValueError(f"{who}: ragged sequence tuple")
        lengths.append(len(seq[0]))
    B, T = len(seqs), max(lengths)
    pois = np.zeros((B, T), dtype=np.int64)
    dts = np.zeros((B, T))
    dds = np.zeros((B, T))
    for b, seq in enumerate(seqs):
        for a, col in zip((pois, dts, dds), seq):
            a[b, :lengths[b]] = col
    check_intervals(dts, dds, who)
    return pois, dts, dds, np.array(lengths)


def _workspace(params: ModelParams, cfg: ModelConfig, pois, live):
    """The (T + 1, max(B, TILE_ROWS), n_c + n_i) z of (B, T) ``pois``: z[t]
    is step t's [h_prev | x], its x half gathered here for the first
    ``live[t]`` rows, everything else zero until a step writes h.  The rows
    past B are zero, so that every step's product is one BLAS call on a
    view of at least ``TILE_ROWS`` rows."""
    B, T = pois.shape
    z = np.zeros((T + 1, max(B, TILE_ROWS), cfg.n_c + cfg.n_i))
    ts, bs = np.nonzero(np.arange(B) < np.asarray(live)[:, None])
    z[ts, bs, cfg.n_c:] = params.embedding[pois[bs, ts]]
    return z


def _term_blocks(params: ModelParams, cfg: ModelConfig, z, dts, dds, live):
    """Yield ``(t0, t1, terms)``: the ``interval_terms`` of the live rows of
    steps t0..t1-1 of the ``_workspace`` z and (B, T) intervals, step-major,
    for blocks of at most ``TERM_ROWS`` rows (one step at least).  Step t's
    live rows are its first ``live[t]`` batch rows."""
    B, T = dts.shape
    rows = np.arange(B) < np.asarray(live)[:, None]
    t0 = 0
    while t0 < T:
        t1, height = t0 + 1, live[t0]
        while t1 < T and height + live[t1] <= TERM_ROWS:
            height += live[t1]
            t1 += 1
        r = rows[t0:t1]
        yield t0, t1, interval_terms(params, z[t0:t1, :B, cfg.n_c:][r],
                                     dts.T[t0:t1][r], dds.T[t0:t1][r],
                                     cfg.ablation)
        t0 = t1


def _unroll(params: ModelParams, cfg: ModelConfig, z, live, blocks, gates):
    """Run ``cells.cell_step`` over the ``_workspace`` z from the zero
    state: step t runs on its first ``live[t]`` rows (a non-increasing
    count), reads z[t] and writes its h into z[t + 1, :, :n_c] and its
    gates into ``gates``; the other rows of z are left as they are.
    ``blocks`` are the ``_term_blocks`` of z with the same ``live`` (the
    caller's ``_pad`` checked the inputs)."""
    for t0, t1, (_, _, iv, ow) in blocks:
        r = 0
        for t in range(t0, t1):
            k = live[t]
            cell_step(params, z[t + 1, :k, :cfg.n_c], z[t, :max(k, TILE_ROWS)],
                      None if iv is None else ow[:, r:r + k],
                      None if iv is None else iv[:, r:r + k], gates, t)
            r += k


def forward_batch(params: ModelParams, cfg: ModelConfig, seqs):
    """Cache-free forward of a batch of ``(pois, dts, dds, ...)`` sequences.

    Returns hs (B, T, n_c), row b the hidden state of ``seqs[b]`` after
    every step, zero past its length.  The batch runs packed: its rows in
    stable length-descending order, step t only on the sequences longer
    than t, and the workspace holds the embedding rows of those steps
    alone.  For a batch already in that order hs is a view of the
    ``_workspace``; otherwise it is a copy put back in the caller's order.
    Gates are kept for the last step only.  Parameters are not checked
    here: callers run ``cells.check_bounded`` once per call.  The interval
    terms of a block of steps are computed just ahead of the steps that
    read them.
    """
    pois, dts, dds, lengths = _pad(seqs, cfg, "forward_batch")
    order = np.argsort(-lengths, kind="stable")
    live = (lengths[:, None] > np.arange(pois.shape[1])).sum(axis=0).tolist()
    z = _workspace(params, cfg, pois[order], live)
    blocks = _term_blocks(params, cfg, z, dts[order], dds[order], live)
    _unroll(params, cfg, z, live, blocks, Gates(params, 1, len(seqs)))
    hs = z[1:, :len(seqs), :cfg.n_c].transpose(1, 0, 2)
    if (order == np.arange(len(order))).all():
        return hs
    return hs[np.argsort(order)]


def batch_loss_and_grads(params: ModelParams, cfg: ModelConfig, seqs):
    """Mean per-step loss and its gradients over a mini-batch.

    ``seqs`` is a list of ``(pois, dts, dds, targets)`` tuples, one user
    sequence each; targets are the next POI per step.  The normalizer is the
    total number of real steps across the batch.  Gradient flow from step t
    to t-1 is severed at multiples of ``cfg.bptt_cap`` when a cap is set, so
    a loss reaches at most ``bptt_cap`` steps backwards.  The batch's ids
    and intervals, and then the bound of ``cells.check_bounded`` on the
    parameters, are checked once, up front.

    Only the cell loop runs padded rows.  After it, the readout, softmax and
    ``dlog @ w_out`` run once over the real (b, t) rows, step-major, in
    ``READOUT_ROWS``-row blocks (tile invariance gives each row the bits of
    a per-step readout); the loss is summed per step in ascending t; the
    ``w_out``/``b_out`` gradient adds each step's real rows in descending t,
    one ``VOCAB_ROWS``-row vocabulary block at a time.  The backward mirrors
    the forward: the time loop runs only ``cells.step_backward``, then
    ``cells.input_backward`` runs once per block of interval terms, the last
    first, and adds every cell parameter gradient.  The embedding gradient
    gets each step's per-POI sums of the real rows' input gradients, added
    in descending t.
    """
    pois, dts, dds, lengths = _pad(seqs, cfg, "batch_loss_and_grads")
    check_bounded(params, 1.0, dts, dds, "batch_loss_and_grads")
    B, T = pois.shape
    n = cfg.n_c
    targets = np.zeros((B, T), dtype=np.int64)
    for b, seq in enumerate(seqs):
        targets[b, :lengths[b]] = _check_ids(seq[3], cfg.vocab,
                                             "batch_loss_and_grads")
    mask = (np.arange(T) < lengths[:, None]).astype(float)

    # every step runs all B rows: padded rows contribute exactly zero
    live = [B] * T
    z = _workspace(params, cfg, pois, live)
    blocks = list(_term_blocks(params, cfg, z, dts, dds, live))
    gates = Gates(params, T, B)
    _unroll(params, cfg, z, live, blocks, gates)

    # real rows step-major, step t's at[t]:at[t + 1]; padded rows keep 0 loss, dh
    real_t, real_b = np.nonzero(mask.T)
    at = np.searchsorted(real_t, np.arange(T + 1))
    h = z[real_t + 1, real_b, :n]
    losses = np.zeros((T, B))
    dhs = np.zeros((T, B, n))
    dlog = np.empty((len(real_t), cfg.vocab))
    for r in range(0, len(real_t), READOUT_ROWS):
        rows = slice(r, r + READOUT_ROWS)
        ts, bs = real_t[rows], real_b[rows]
        losses[ts, bs], dlog[rows] = softmax_xent_rows(readout(params, h[rows]),
                                                       targets[bs, ts])
        dhs[ts, bs] = matmul_rows(dlog[rows], params.w_out)
    # the strided mask column, not a dense vector, fixes the order in which
    # BLAS adds a step's losses; per-step oracles sum the same way
    total_loss = 0.0
    for t in range(T):
        total_loss += float(losses[t] @ mask[:, t])

    grads = params.zeros_like()
    for v in range(0, cfg.vocab, VOCAB_ROWS):
        gw = grads["w_out"][v:v + VOCAB_ROWS]
        gb = grads["b_out"][v:v + VOCAB_ROWS]
        for t in reversed(range(T)):
            d = dlog[at[t]:at[t + 1], v:v + VOCAB_ROWS]
            gw += d.T @ h[at[t]:at[t + 1]]
            gb += d.sum(axis=0)
    del dlog, d     # the last view too, or it keeps dlog alive

    # per step: the gate pre-activation gradients, zero-padded to the
    # workspace's rows, and the write-gate gradients (see
    # cells.step_backward)
    gates.hoist()
    das = np.zeros((T, params.blocks["w_z"].shape[0] // n, z.shape[1], n))
    dws = np.empty((T, 2, B, n))
    dh_next = dc_next = np.zeros((B, n))
    for t0, t1, (_, _, iv, _) in reversed(blocks):
        for t in reversed(range(t0, t1)):
            r = (t - t0) * B
            dh_next, dc_next = step_backward(
                params, gates, t, None if iv is None else iv[:, r:r + B],
                dhs[t] + dh_next, dc_next, das[t], dws[t])
            if cfg.bptt_cap is not None and t % cfg.bptt_cap == 0:
                dh_next = dc_next = np.zeros((B, n))
    # of the gates only i feeds the input part
    i = gates.s[:, 0]
    del gates
    dxs = np.empty((T, B, cfg.n_i))
    for t0, t1, terms in reversed(blocks):
        dxs[t0:t1] = input_backward(
            params, z[t0:t1, :B], terms, i[t0:t1], das[t0:t1], dws[t0:t1],
            grads).reshape(t1 - t0, B, -1)
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
