"""Mini-batch trainer: shuffled user sequences, Adam, sign projection.

Each epoch shuffles the training sequences with a seeded generator, walks
them in batches, clips the global gradient norm, takes one Adam step, and
re-projects the constrained tensors.  The constraint is then re-checked
after every step; a violation is a bug, not a tolerable drift, so it raises
immediately.  A non-finite loss aborts with a diagnostic dump instead of
silently training on garbage.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .cells import constrained_names
from .model import ModelConfig, ModelParams, batch_loss_and_grads, save_checkpoint
from .optim import AdamState, adam_step, clip_global_norm, project

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; see the diagnostic dump for context."""


@dataclass
class FitResult:
    losses: list = field(default_factory=list)   # per-epoch mean loss per step
    epochs_run: int = 0
    stopped_early: bool = False
    adam: Optional[AdamState] = None


def train_sequences(corpus):
    """Per-user training tuples ``(pois, dts, dds, targets)``; users whose
    training split yields no transition are skipped."""
    seqs = []
    names = []
    for u in corpus.users:
        pois, dts, dds, targets = u.train_steps()
        if len(pois) == 0:
            continue
        seqs.append((pois, dts, dds, targets))
        names.append(u.user)
    return seqs, names


def _check_constraints(params: ModelParams, cfg: ModelConfig):
    for name in constrained_names(cfg.variant, cfg.constraint_target):
        worst = float(params[name].max())
        if worst > 0.0:
            raise AssertionError(
                f"constraint violated after projection: {name} max {worst}"
            )


def _dump_divergence(out_dir, payload):
    if out_dir is None:
        return None
    path = Path(out_dir) / "divergence.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True),
                    encoding="utf-8")
    return path


def fit(params: ModelParams, cfg: ModelConfig, sequences, *,
        epochs: int = 100, batch_size: int = 10, lr: float = 1e-3,
        beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
        clip_norm: float = 5.0, seed: int = 0,
        early_stop: bool = False, patience: int = 10, rel_tol: float = 1e-4,
        out_dir=None, names=None, adam: Optional[AdamState] = None,
        on_step: Optional[Callable] = None) -> FitResult:
    """Train ``params`` in place; returns per-epoch losses and optimizer state.

    ``sequences`` is a list of ``(pois, dts, dds, targets)`` tuples.  With
    ``early_stop``, training ends once ``patience`` consecutive epochs bring
    no relative improvement of at least ``rel_tol`` over the best epoch loss.
    ``out_dir`` (optional) receives one checkpoint per epoch plus a final
    ``checkpoint.bin``.  ``on_step(epoch, batch_index, params)`` runs after
    every optimizer step, after projection.
    """
    if not sequences:
        raise ValueError("fit: no training sequences")
    if epochs < 1 or batch_size < 1:
        raise ValueError("fit: epochs and batch_size must be >= 1")
    if adam is None:
        adam = AdamState.for_tensors(params, lr=lr, beta1=beta1, beta2=beta2,
                                     eps=eps)
    constrained = constrained_names(cfg.variant, cfg.constraint_target)
    rng = np.random.default_rng(seed)
    steps_per_seq = [len(s[0]) for s in sequences]
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    result = FitResult(adam=adam)
    best = np.inf
    flat_epochs = 0
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(sequences))
        total_loss = 0.0
        total_steps = 0
        for b0 in range(0, len(order), batch_size):
            idx = order[b0:b0 + batch_size]
            batch = [sequences[j] for j in idx]
            loss, grads = batch_loss_and_grads(params, cfg, batch)
            n_steps = sum(steps_per_seq[j] for j in idx)
            if not np.isfinite(loss):
                payload = {
                    "epoch": epoch,
                    "batch_start": int(b0),
                    "sequences": [
                        (names[j] if names else str(j)) for j in idx
                    ],
                    "loss": repr(loss),
                    "epoch_losses": result.losses,
                }
                path = _dump_divergence(out_dir, payload)
                where = f"; dump: {path}" if path else ""
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}{where}"
                )
            clip_global_norm(grads, clip_norm)
            adam_step(params, grads, adam)
            project(params, constrained)
            _check_constraints(params, cfg)
            if on_step is not None:
                on_step(epoch, b0 // batch_size, params)
            total_loss += loss * n_steps
            total_steps += n_steps
        epoch_loss = total_loss / total_steps
        result.losses.append(epoch_loss)
        result.epochs_run = epoch
        log.debug("epoch %d: loss %.6f", epoch, epoch_loss)
        if out_dir is not None:
            save_checkpoint(out_dir / f"epoch-{epoch:04d}.bin", params, cfg,
                            adam)
        if epoch_loss < best * (1.0 - rel_tol):
            best = epoch_loss
            flat_epochs = 0
        else:
            flat_epochs += 1
            if early_stop and flat_epochs >= patience:
                result.stopped_early = True
                log.info("early stop after epoch %d (no improvement for %d "
                         "epochs)", epoch, patience)
                break
    if out_dir is not None:
        save_checkpoint(out_dir / "checkpoint.bin", params, cfg, adam)
    return result
