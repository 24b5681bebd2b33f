"""Span tracer that wraps stpoi's module-level names from outside the package.

A traced session replaces each name in ``TRACED`` (``"<module>.<attribute>"``,
the binding a caller module looks up at call time) with a wrapper that
records one span per call: name, start, end and the span that was open when
the call began (its parent).  Spans are appended to flat in-memory arrays;
when the session ends the originals are restored and the spans are reduced
to per-name totals, self times (a span's time minus its children's) and call
counts.  Names a future version of the package no longer has are skipped,
so their layers read zero instead of breaking the benchmark.
"""

from __future__ import annotations

import array
import contextlib
import importlib
import time
from dataclasses import dataclass, field

import numpy as np

# callers first, callees after; each entry is the binding inside the caller
TRACED = (
    "train.fit",
    "train.batch_loss_and_grads",
    "train.clip_global_norm",
    "train.adam_step",
    "train.project",
    "train._check_constraints",
    "model.cell_forward",
    "model.cell_backward",
    "model.affine",
    "model.softmax_xent_rows",
    "model.matmul_rows",
    "numkit._as_float",
    "numkit.affine",
    "numkit.sigmoid",
    "container.save",
    "container.load",
    "data.load_checkins",
    "data.clean",
    "data.build_corpus",
    "eval.step",
    "eval.rank_of",
)


def _count_padding(counters, args, kwargs):
    seqs = args[2] if len(args) > 2 else kwargs["seqs"]
    lengths = [len(s[0]) for s in seqs]
    counters["pad_real"] += sum(lengths)
    counters["pad_slots"] += len(lengths) * max(lengths)


def _count_saved_bytes(counters, args, kwargs):
    arrays = args[2] if len(args) > 2 else kwargs["arrays"]
    counters["save_bytes"] += sum(np.asarray(a).nbytes for a in arrays.values())


ON_CALL = {
    "train.batch_loss_and_grads": _count_padding,
    "container.save": _count_saved_bytes,
}


@dataclass
class Profile:
    """Per-name reduction of one traced session."""

    total: dict = field(default_factory=dict)     # name -> seconds inside
    self_time: dict = field(default_factory=dict)  # name -> seconds minus children
    calls: dict = field(default_factory=dict)      # name -> number of spans
    counters: dict = field(default_factory=dict)   # pad_real, pad_slots, save_bytes
    eval_score_s: float = 0.0    # eval.step spans followed by an eval.rank_of
    eval_warmup_s: float = 0.0   # the remaining eval.step spans


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self._ids = array.array("i")
        self._parents = array.array("q")
        self._starts = array.array("d")
        self._ends = array.array("d")
        self._stack = [-1]
        self._counters = {"pad_real": 0.0, "pad_slots": 0.0, "save_bytes": 0.0}

    def _wrap(self, nid, fn, on_call):
        ids, parents, starts, ends = self._ids, self._parents, self._starts, self._ends
        stack, counters, clock = self._stack, self._counters, time.perf_counter

        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            if on_call is not None:
                on_call(counters, args, kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        return traced

    @contextlib.contextmanager
    def session(self):
        """Trace everything run inside the block; yields a Profile that is
        filled in when the block exits."""
        for buf in (self._ids, self._parents, self._starts, self._ends):
            del buf[:]
        for key in self._counters:
            self._counters[key] = 0.0
        originals = []
        for nid, name in enumerate(self.names):
            module_name, attr = name.split(".", 1)
            module = importlib.import_module(f"stpoi.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(nid, fn, ON_CALL.get(name)))
        profile = Profile()
        try:
            yield profile
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)
        self._reduce(profile)

    def spans(self) -> dict:
        """The last session's spans as arrays (name table plus one row per span)."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self._ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parents, dtype=np.int64).copy(),
            "start": np.frombuffer(self._starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self._ends, dtype=np.float64).copy(),
        }

    def _reduce(self, profile: Profile) -> None:
        ids = np.frombuffer(self._ids, dtype=np.int32)
        parents = np.frombuffer(self._parents, dtype=np.int64)
        dur = np.frombuffer(self._ends, dtype=np.float64) - np.frombuffer(
            self._starts, dtype=np.float64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(ids))
        own = dur - child
        k = len(self.names)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_time = np.bincount(ids, weights=own, minlength=k)
        calls = np.bincount(ids, minlength=k)
        for nid, name in enumerate(self.names):
            profile.total[name] = float(total[nid])
            profile.self_time[name] = float(self_time[nid])
            profile.calls[name] = int(calls[nid])
        profile.counters = dict(self._counters)

        # a scoring step is an eval.step whose next sibling is an eval.rank_of
        step_id = self.names.index("eval.step")
        rank_id = self.names.index("eval.rank_of")
        sel = np.flatnonzero((ids == step_id) | (ids == rank_id))
        is_step = ids[sel] == step_id
        scoring = np.zeros(len(sel), dtype=bool)
        scoring[:-1] = is_step[:-1] & ~is_step[1:]
        profile.eval_score_s = float(dur[sel[scoring]].sum())
        profile.eval_warmup_s = float(dur[sel[is_step & ~scoring]].sum())


def _mean(profiles, get):
    return sum(get(p) for p in profiles) / len(profiles) if profiles else 0.0


def layer_metrics(setups, units, kept_ratio, overhead_ratio) -> dict:
    """Per-layer figures: mean per traced set-up plus mean per traced unit.

    ``setups`` and ``units`` are lists of Profile.  Times are inclusive span
    times unless the name says ``self``; a layer the workload never enters
    reads 0.
    """
    def per_run(get):
        return _mean(setups, get) + _mean(units, get)

    def total(name):
        return per_run(lambda p: p.total[name])

    def self_of(name):
        return per_run(lambda p: p.self_time[name])

    def calls(name):
        return per_run(lambda p: p.calls[name])

    both = setups + units
    pad_slots = sum(p.counters["pad_slots"] for p in both)
    pad_real = sum(p.counters["pad_real"] for p in both)
    steps = sum(p.calls["eval.step"] for p in both)
    ranks = sum(p.calls["eval.rank_of"] for p in both)
    values = {
        "data.load_checkins_s": (total("data.load_checkins"), "s"),
        "data.clean_s": (total("data.clean"), "s"),
        "data.build_corpus_s": (total("data.build_corpus"), "s"),
        "data.kept_ratio": (kept_ratio, "ratio"),
        "container.save_s": (total("container.save"), "s"),
        "container.save_calls": (calls("container.save"), "count"),
        "container.save_mb": (per_run(lambda p: p.counters["save_bytes"]) / 1e6, "MB"),
        "container.load_s": (total("container.load"), "s"),
        "cells.forward_s": (total("model.cell_forward"), "s"),
        "cells.forward_calls": (calls("model.cell_forward"), "count"),
        "cells.backward_s": (total("model.cell_backward"), "s"),
        "cells.backward_calls": (calls("model.cell_backward"), "count"),
        "numkit.validate_s": (total("numkit._as_float"), "s"),
        "numkit.validate_calls": (calls("numkit._as_float"), "count"),
        "numkit.affine_s": (total("numkit.affine"), "s"),
        "numkit.sigmoid_s": (total("numkit.sigmoid"), "s"),
        "model.readout_fwd_s": (total("model.affine"), "s"),
        "model.softmax_s": (total("model.softmax_xent_rows"), "s"),
        "model.readout_bwd_s": (total("model.matmul_rows"), "s"),
        "model.batch_self_s": (self_of("train.batch_loss_and_grads"), "s"),
        "model.pad_useful_ratio": (pad_real / pad_slots if pad_slots else 0.0, "ratio"),
        "model.step_self_s": (self_of("eval.step"), "s"),
        "optim.clip_s": (total("train.clip_global_norm"), "s"),
        "optim.adam_s": (total("train.adam_step"), "s"),
        "optim.project_s": (total("train.project"), "s"),
        "train.fit_self_s": (self_of("train.fit"), "s"),
        "train.check_constraints_s": (total("train._check_constraints"), "s"),
        "eval.warmup_s": (per_run(lambda p: p.eval_warmup_s), "s"),
        "eval.score_s": (per_run(lambda p: p.eval_score_s), "s"),
        "eval.rank_s": (total("eval.rank_of"), "s"),
        "eval.readout_useful_ratio": (ranks / steps if steps else 0.0, "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
