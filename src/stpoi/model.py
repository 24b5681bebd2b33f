"""Next-POI network: embedding lookup, recurrent cell, softmax readout.

A user's history enters as transition triples (poi id, hours to the next
visit, km to the next visit).  Each step embeds the POI, runs one cell step,
and projects the hidden state onto logits over the whole vocabulary.  Loss is
the mean per-step cross-entropy against the next POI; gradients come from
hand-rolled backpropagation through the unrolled sequence.

Mini-batches are lists of independent user sequences.  They are padded to the
longest member with the loss masked on padding; padded positions provably
contribute exactly zero gradient, so the batched path and the per-sequence
path agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import container
from .cells import (
    CellParams,
    GateAblation,
    StepInput,
    VARIANTS,
    _tensor_shapes,
    cell_backward,
    cell_forward,
    check_shapes,
    constrained_names,
    count_params,
    draw_tensors,
    formula_param_count,
    zero_state,
)
from .numkit import affine, check_finite, matmul_rows, softmax_xent_rows

CHECKPOINT_KIND = "stpoi-checkpoint"

# real (b, t) rows per training readout block (whole tiles)
READOUT_ROWS = 64
# w_out rows per block of the w_out/b_out gradient sum
VOCAB_ROWS = 256


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

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "vocab": self.vocab,
            "n_i": self.n_i,
            "n_c": self.n_c,
            "ablation": self.ablation.to_dict(),
            "bptt_cap": self.bptt_cap,
            "constraint_target": self.constraint_target,
        }

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
        n = lengths[b]
        pois[b, :n] = seq[0]
        dts[b, :n] = seq[1]
        dds[b, :n] = seq[2]
    return pois, dts, dds, np.array(lengths)


def _unroll(params: ModelParams, cfg: ModelConfig, pois, dts, dds):
    """Run the cell over padded (B, T) inputs from the zero state, yielding
    ``(state, cache)`` after each step."""
    state = zero_state(cfg.n_c, batch=pois.shape[0])
    for t in range(pois.shape[1]):
        state, cache = cell_forward(
            cfg.variant, params,
            StepInput(params.embedding[pois[:, t]], dts[:, t], dds[:, t]),
            state, cfg.ablation)
        yield state, cache


def forward_batch(params: ModelParams, cfg: ModelConfig, seqs):
    """Cache-free forward of a batch of ``(pois, dts, dds, ...)`` sequences.

    Returns hs (B, T, n_c), the hidden state after every step of the padded
    batch; entries past a sequence's length are padding.  Parameters are
    not checked for finiteness here: callers check once per call.
    """
    pois, dts, dds, _ = _pad(seqs, cfg, "forward_batch")
    hs = np.empty(pois.shape + (cfg.n_c,))
    for t, (state, _) in enumerate(_unroll(params, cfg, pois, dts, dds)):
        hs[:, t] = state.h
    return hs


def batch_loss_and_grads(params: ModelParams, cfg: ModelConfig, seqs):
    """Mean per-step loss and its gradients over a mini-batch.

    ``seqs`` is a list of ``(pois, dts, dds, targets)`` tuples, one user
    sequence each; targets are the next POI per step.  Sequences are padded
    to the longest and masked, the normalizer is the total number of real
    steps across the batch.  Gradient flow from step t to t-1 is severed at
    multiples of ``cfg.bptt_cap`` when a cap is set, so a loss reaches at
    most ``bptt_cap`` steps backwards.  Every parameter tensor is checked
    for NaN and inf once, up front.

    The readout, its softmax and ``dlog @ w_out`` run once, after the
    forward, over the real (b, t) rows only, in ``READOUT_ROWS``-row blocks;
    tile invariance gives each row the bits of a per-step readout.  The loss
    is summed per step in ascending t.  The ``w_out``/``b_out`` gradient is
    a rank-B sum per step, added in descending t, one ``VOCAB_ROWS``-row
    block of the vocabulary at a time so the block of the accumulator stays
    in cache.
    """
    check_finite(params.tensors(), "batch_loss_and_grads")
    pois, dts, dds, lengths = _pad(seqs, cfg, "batch_loss_and_grads")
    B, T = pois.shape
    targets = np.zeros((B, T), dtype=np.int64)
    for b, seq in enumerate(seqs):
        targets[b, :lengths[b]] = _check_ids(seq[3], cfg.vocab,
                                             "batch_loss_and_grads")
    mask = (np.arange(T) < lengths[:, None]).astype(float)

    caches = []
    hs = np.empty((T, B, cfg.n_c))
    for t, (state, cache) in enumerate(_unroll(params, cfg, pois, dts, dds)):
        hs[t] = state.h
        caches.append(cache)

    # real rows in step-major order; padded rows keep zero loss, dlog and dh
    real_t, real_b = np.nonzero(mask.T)
    losses = np.zeros((T, B))
    dhs = np.zeros((T, B, cfg.n_c))
    dlogits = [np.zeros((B, cfg.vocab)) for _ in range(T)]
    for r in range(0, len(real_t), READOUT_ROWS):
        ts, bs = real_t[r:r + READOUT_ROWS], real_b[r:r + READOUT_ROWS]
        logits = readout(params, hs[ts, bs])
        losses[ts, bs], dlog = softmax_xent_rows(logits, targets[bs, ts])
        dhs[ts, bs] = matmul_rows(dlog, params.w_out)
        for t in np.unique(ts):
            dlogits[t][bs[ts == t]] = dlog[ts == t]
    total_loss = 0.0
    for t in range(T):
        total_loss += float(losses[t] @ mask[:, t])

    grads = params.zeros_like()
    for v in range(0, cfg.vocab, VOCAB_ROWS):
        gw = grads["w_out"][v:v + VOCAB_ROWS]
        gb = grads["b_out"][v:v + VOCAB_ROWS]
        for t in reversed(range(T)):
            dlog = dlogits[t][:, v:v + VOCAB_ROWS]
            gw += dlog.T @ hs[t]
            gb += dlog.sum(axis=0)
    del dlogits

    n_steps = float(mask.sum())
    dh_next = np.zeros((B, cfg.n_c))
    dc_next = np.zeros((B, cfg.n_c))
    cap = cfg.bptt_cap
    for t in reversed(range(T)):
        dh = dhs[t] + dh_next
        dh_prev, dc_prev, dx = cell_backward(params, caches[t], dh, dc_next, grads)
        # reduce duplicate rows within the step before touching the
        # accumulator: each embedding row then receives one delta per step,
        # which keeps a duplicated batch exactly twice the single run
        uniq, inv = np.unique(pois[:, t], return_inverse=True)
        sums = np.zeros((len(uniq), cfg.n_i))
        np.add.at(sums, inv, dx)
        grads["embedding"][uniq] += sums
        if cap is not None and t % cap == 0:
            dh_next = np.zeros((B, cfg.n_c))
            dc_next = np.zeros((B, cfg.n_c))
        else:
            dh_next, dc_next = dh_prev, dc_prev

    loss = total_loss / n_steps
    for name in grads:
        grads[name] /= n_steps
    return loss, grads


def loss_and_grads(params: ModelParams, cfg: ModelConfig, pois, dts, dds, targets):
    """Single-sequence convenience wrapper around the batched path."""
    return batch_loss_and_grads(params, cfg, [(pois, dts, dds, targets)])


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig, adam=None):
    """Persist model (and optionally optimizer state) for exact resume."""
    meta = {"kind": CHECKPOINT_KIND, "config": cfg.to_dict()}
    arrays = {f"param.{k}": v for k, v in params.tensors().items()}
    if adam is not None:
        meta["adam"] = {"lr": adam.lr, "beta1": adam.beta1, "beta2": adam.beta2,
                        "eps": adam.eps, "t": adam.t}
        arrays.update({f"adam.m.{k}": v for k, v in adam.m.items()})
        arrays.update({f"adam.v.{k}": v for k, v in adam.v.items()})
    container.save(path, meta, arrays)


def load_checkpoint(path):
    """Load a checkpoint, returning ``(params, cfg, adam_or_None)``."""
    from .optim import AdamState

    meta, arrays = container.load(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise ValueError(f"{path}: not a model checkpoint")
    try:
        cfg = ModelConfig.from_dict(meta.get("config"))
        params = ModelParams(cfg, {k[len("param."):]: v for k, v in arrays.items()
                                   if k.startswith("param.")})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    adam = None
    if "adam" in meta:
        a = meta["adam"]
        real = (int, float)
        _check_fields(a, {"lr": real, "beta1": real, "beta2": real,
                          "eps": real, "t": int}, f"{path}: adam")
        adam = AdamState(lr=a["lr"], beta1=a["beta1"], beta2=a["beta2"],
                         eps=a["eps"], t=a["t"],
                         m={k[len("adam.m."):]: v for k, v in arrays.items()
                            if k.startswith("adam.m.")},
                         v={k[len("adam.v."):]: v for k, v in arrays.items()
                            if k.startswith("adam.v.")})
        check_shapes(adam.m, _model_shapes(cfg), f"{path}: adam first moments")
        check_shapes(adam.v, _model_shapes(cfg), f"{path}: adam second moments")
    return params, cfg, adam
