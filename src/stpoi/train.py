"""Mini-batch trainer: shuffled user sequences, Adam, sign projection.

Each epoch shuffles the training sequences with a seeded generator, walks
them in batches, clips the global gradient norm, takes one Adam step, and
re-projects the constrained tensors.  The constraint is then re-checked
after every step; a violation is a bug, not a tolerable drift, so it raises
immediately.  A non-finite loss or gradient norm, or parameters that fail
the overflow bound (``cells.check_bounded``) before a batch or at the end
of an epoch, abort with a diagnostic dump instead of silently training on
garbage or writing it to a checkpoint.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .cells import check_bounded, constrained_names
from .model import ModelConfig, ModelParams, batch_loss_and_grads, save_checkpoint
from .numkit import NonFiniteError
from .optim import AdamState, adam_step, clip_global_norm, project

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """Loss or parameters became non-finite; see the diagnostic dump."""


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


def _diverged(out_dir, error, epoch, batch_start, idx, names, losses):
    """TrainingDiverged for ``error`` met at the batch of sequences ``idx``,
    after writing ``divergence.json`` into ``out_dir`` if given."""
    where = ""
    if out_dir is not None:
        path = Path(out_dir) / "divergence.json"
        payload = {"epoch": epoch, "batch_start": int(batch_start),
                   "sequences": [names[j] if names else str(j) for j in idx],
                   "error": error, "epoch_losses": losses}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True),
                        encoding="utf-8")
        where = f"; dump: {path}"
    return TrainingDiverged(f"{error} at epoch {epoch}{where}")


def fit(params: ModelParams, cfg: ModelConfig, sequences, *,
        epochs: int = 100, batch_size: int = 10, lr: float = 1e-3,
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
    every optimizer step, after projection.  Raises ``TrainingDiverged``
    before a step whose loss or gradient norm is not finite or whose
    parameters fail ``cells.check_bounded``, and at the end of an epoch,
    before any checkpoint, when they fail it on any of ``sequences``.
    """
    if not sequences:
        raise ValueError("fit: no training sequences")
    if epochs < 1 or batch_size < 1 or patience < 1:
        raise ValueError("fit: epochs, batch_size and patience must be >= 1")
    if adam is None:
        adam = AdamState.for_tensors(params, lr=lr)
    constrained = constrained_names(cfg.variant, cfg.constraint_target)
    rng = np.random.default_rng(seed)
    steps_per_seq = [len(s[0]) for s in sequences]
    dt_max = max(np.max(s[1], initial=0.0) for s in sequences)
    dd_max = max(np.max(s[2], initial=0.0) for s in sequences)
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
            try:
                loss, grads = batch_loss_and_grads(params, cfg, batch)
                norm = clip_global_norm(grads, clip_norm)
                error = (None if np.isfinite(loss) and np.isfinite(norm) else
                         f"non-finite loss {loss!r} or gradient norm {norm!r}")
            except NonFiniteError as exc:
                error = str(exc)
            n_steps = sum(steps_per_seq[j] for j in idx)
            if error is not None:
                raise _diverged(out_dir, error, epoch, b0, idx, names,
                                result.losses)
            adam_step(params, grads, adam)
            project(params, constrained)
            _check_constraints(params, cfg)
            if on_step is not None:
                on_step(epoch, b0 // batch_size, params)
            total_loss += loss * n_steps
            total_steps += n_steps
        epoch_loss = total_loss / total_steps
        if epoch_loss < best * (1.0 - rel_tol):
            best = epoch_loss
            flat_epochs = 0
        else:
            flat_epochs += 1
        stop = early_stop and flat_epochs >= patience
        # no next batch checks the epoch's last step
        try:
            check_bounded(params, 1.0, dt_max, dd_max, "params")
        except NonFiniteError as exc:
            raise _diverged(out_dir, f"after the epoch's last step: {exc}",
                            epoch, b0, idx, names, result.losses) from None
        result.losses.append(epoch_loss)
        result.epochs_run = epoch
        log.debug("epoch %d: loss %.6f", epoch, epoch_loss)
        if out_dir is not None:
            save_checkpoint(out_dir / f"epoch-{epoch:04d}.bin", params, cfg,
                            adam)
        if stop:
            result.stopped_early = True
            log.info("early stop after epoch %d (no improvement for %d "
                     "epochs)", epoch, patience)
            break
    if out_dir is not None:
        save_checkpoint(out_dir / "checkpoint.bin", params, cfg, adam)
    return result
