"""Seeded inputs, set-up, measured units and correctness checks per workload.

Each workload turns the run's seed into input files under its work
directory, then exposes three things to the runner:

* ``setup()``: what a user of ``stpoi`` pays before the first step (parse,
  clean and build the corpus; load a cache or a checkpoint; initialise the
  model).  The runner times it several times and keeps the median.
* ``unit(k, timer)``: one repeatable piece of measured work through the
  public entry points (``train.fit``, ``eval.collect_ranks``).  A
  ``clock.Timer``, when given, ticks between optimizer steps or between
  users.  Every unit with the same ``key`` must give the same output digest.
* ``checks()``: the correctness checks that are not about repetition.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from stpoi import data
from stpoi import eval as ev
from stpoi import model as M
from stpoi import train as T

PAPER_SHAPE = {"variant": "st-clstm", "n_i": 128, "n_c": 128}
# stpoi prepare defaults, except that the synthetic dump is far smaller than
# a real one, so a POI needs two distinct visitors instead of ten
CLEAN = {"min_user_checkins": 10, "min_poi_users": 2}


@dataclass
class Outcome:
    seconds: float     # wall time of the public call, ticks included
    ops: int           # optimizer steps, or ranked instances
    items: int         # real (unpadded) transitions trained, or instances ranked
    key: str           # units with equal keys must give equal digests
    digest: str
    quality: float     # mean epoch loss, or mean log-rank (nats)
    finite: bool = True


def _digest_tensors(params) -> str:
    h = hashlib.sha256()
    for name, arr in sorted(params.tensors().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _digest_ranks(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.user}\t{r.step}\t{r.rank}\n".encode())
    return h.hexdigest()


def write_paper_checkins(path: Path, seed: int) -> None:
    """Write a raw check-in dump in ``snap`` format.

    200 regular users with ragged histories (38-78 check-ins, about 40
    training transitions each) inside one metropolitan box.  About 5000
    POIs are each dealt to two histories, so they survive cleaning; every
    regular user also has 1-4 single-visitor POIs that cleaning removes.
    30 noise users (2-8 check-ins) and 8 borderline users (11 check-ins,
    three of them at single-visitor POIs) make cleaning take three sweeps:
    the borderline users fall under the threshold once their rare POIs go,
    and 12 POIs that only they shared with one regular user go next.
    Lines are grouped by user, newest first, as public dumps are.
    """
    rng = np.random.default_rng(seed)
    n_regular, n_noise, n_border, n_fragile = 200, 30, 8, 12
    lengths = rng.integers(38, 79, size=n_regular)
    n_rare = rng.integers(1, 5, size=n_regular)
    n_core = np.round(0.86 * lengths).astype(int)
    if n_core.sum() % 2:
        n_core[0] -= 1
    n_shared = int(n_core.sum()) // 2
    dealt = rng.permutation(np.repeat(np.arange(n_shared), 2))
    next_poi = n_shared

    def fresh(count):
        nonlocal next_poi
        ids = list(range(next_poi, next_poi + count))
        next_poi += count
        return ids

    visits = []
    at = 0
    for u in range(n_regular):
        own = [int(p) for p in dealt[at:at + n_core[u]]]
        at += n_core[u]
        repeats = lengths[u] - n_core[u] - n_rare[u]
        own += [int(p) for p in rng.choice(own, size=repeats)]
        visits.append(own + fresh(int(n_rare[u])))
    fragile = fresh(n_fragile)
    for j, poi in enumerate(fragile):
        visits[int(rng.integers(n_regular))].append(poi)
    for b in range(n_border):
        mine = fragile[b::n_border]
        shared = [int(p) for p in rng.integers(n_shared, size=11 - 3 - len(mine))]
        visits.append(fresh(3) + mine + shared)
    for _ in range(n_noise):
        visits.append([int(p) for p in rng.integers(n_shared, size=rng.integers(2, 9))])

    n_pois = next_poi
    lat = rng.uniform(40.55, 40.90, size=n_pois)
    lon = rng.uniform(-74.10, -73.75, size=n_pois)
    label = rng.permutation(n_pois)
    with open(path, "w", encoding="utf-8") as fh:
        for u in rng.permutation(len(visits)):
            pois = rng.permutation(visits[u])
            gaps = np.round(1800.0 + rng.exponential(12 * 3600.0, size=len(pois)))
            stamps = 1262304000.0 + rng.uniform(0, 60 * 86400.0) // 1 + np.cumsum(gaps)
            for poi, ts in reversed(list(zip(pois, stamps))):
                when = datetime.fromtimestamp(ts, tz=timezone.utc).strftime(
                    "%Y-%m-%dT%H:%M:%SZ")
                fh.write(f"user{u:04d}\t{when}\t{lat[poi]:.6f}\t{lon[poi]:.6f}\t"
                         f"venue{label[poi]:05d}\n")


def _same_bits(a, b) -> bool:
    la, ga = a
    lb, gb = b
    return la == lb and ga.keys() == gb.keys() and all(
        np.array_equal(ga[k], gb[k]) for k in ga)


def _per_row_check(params, cfg, seq):
    """A sequence alone and as a duplicated batch: loss and mean gradients
    must agree bit for bit."""
    alone = M.batch_loss_and_grads(params, cfg, [seq])
    twice = M.batch_loss_and_grads(params, cfg, [seq, seq])
    return _same_bits(alone, twice)


def _padding_share(lengths, batch_size, seed):
    """Padded share of the first epoch's batches (fit draws the same order)."""
    order = np.random.default_rng(seed).permutation(len(lengths))
    slots = real = 0
    for b0 in range(0, len(order), batch_size):
        chunk = [lengths[j] for j in order[b0:b0 + batch_size]]
        slots += len(chunk) * max(chunk)
        real += sum(chunk)
    return 1.0 - real / slots


class _Ticking(list):
    """A user list that calls ``tick()`` before handing out each user."""

    def __init__(self, users, tick):
        super().__init__(users)
        self._tick = tick

    def __iter__(self):
        for user in super().__iter__():
            self._tick()
            yield user


class Workload:
    name = ""
    setup_reps = 5     # set-ups per run; setup_s is their median
    min_units = 2      # units per untraced run, whatever --seconds says
    min_pairs = 1      # untraced+traced unit pairs per traced run
    # interpreter-bound share of a unit's time at the seed commit, from the
    # trace: everything but the BLAS- and memory-bound readout, w_out
    # gradient and optimizer spans (set-up is always timed with share 1)
    interp_share = 1.0
    op_is_unit = False  # latency samples: step intervals, or whole units

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.kept_ratio = 1.0
        self.stats = {}

    def key(self, k: int) -> str:
        return "fit"

    def _pipeline(self, tsv):
        raw = data.load_checkins(tsv, "snap")
        kept = data.clean(raw, **CLEAN)
        self.kept_ratio = len(kept) / len(raw)
        return data.build_corpus(kept)


class FitWorkload(Workload):
    epochs = batch_size = 0
    lr = 0.0
    checkpoint = False

    def unit(self, k, timer):
        params = M.init_model(self.cfg, np.random.default_rng(self.seed))
        out_dir = self.work / f"unit-{k}" if self.checkpoint else None
        t0 = time.perf_counter()
        result = T.fit(params, self.cfg, self.seqs, epochs=self.epochs,
                       batch_size=self.batch_size, lr=self.lr, seed=self.seed,
                       out_dir=out_dir, names=self.names,
                       on_step=timer.tick if timer else None)
        seconds = time.perf_counter() - t0
        if out_dir is not None:
            shutil.rmtree(out_dir)
        if k == 0:
            self.trained = params
        transitions = sum(len(s[0]) for s in self.seqs)
        return Outcome(
            seconds=seconds,
            ops=self.epochs * math.ceil(len(self.seqs) / self.batch_size),
            items=self.epochs * transitions, key="fit",
            digest=_digest_tensors(params),
            quality=float(np.mean(result.losses)),
            finite=bool(np.all(np.isfinite(result.losses))),
        )

    def checks(self):
        init = M.init_model(self.cfg, np.random.default_rng(self.seed))
        batch = self.seqs[:self.batch_size]
        before = M.batch_loss_and_grads(init, self.cfg, batch)[0]
        after = M.batch_loss_and_grads(self.trained, self.cfg, batch)[0]
        return [
            ("per-row determinism", _per_row_check(init, self.cfg, self.seqs[0])),
            ("loss finite and falling",
             bool(np.isfinite(after) and after < before)),
        ]

    def _record_stats(self, corpus):
        lengths = [len(s[0]) for s in self.seqs]
        self.stats = {
            "users": len(corpus.users), "vocab": corpus.n_pois,
            "train_transitions": int(sum(lengths)),
            "padding_share": _padding_share(lengths, self.batch_size, self.seed),
            "kept_ratio": self.kept_ratio,
        }


class ToyFit(FitWorkload):
    """The acceptance ``interval_runs`` fit: 150 epochs at tiny shapes."""

    name = "toy-fit"
    setup_reps = 25
    epochs, batch_size, lr = 150, 4, 1e-2

    def generate(self):
        corpus = data.synth_corpus(self.seed, n_users=12, n_pois=72, length=40,
                                   pattern="interval")
        self.cache = self.work / "toy.bin"
        data.save_corpus(corpus, self.cache)

    def setup(self):
        corpus = data.load_corpus(self.cache)
        self.seqs, self.names = T.train_sequences(corpus)
        self.cfg = M.ModelConfig(vocab=corpus.n_pois, variant="st-clstm",
                                 n_i=16, n_c=16)
        M.init_model(self.cfg, np.random.default_rng(self.seed))
        self._record_stats(corpus)


class PaperFit(FitWorkload):
    """Paper-like scale with one checkpoint per epoch, as ``stpoi train``."""

    name = "paper-fit"
    epochs, batch_size, lr = 1, 10, 1e-3
    checkpoint = True
    interp_share = 0.3

    def generate(self):
        self.tsv = self.work / "checkins.tsv"
        write_paper_checkins(self.tsv, self.seed)

    def setup(self):
        corpus = self._pipeline(self.tsv)
        self.seqs, self.names = T.train_sequences(corpus)
        self.cfg = M.ModelConfig(vocab=corpus.n_pois, **PAPER_SHAPE)
        M.init_model(self.cfg, np.random.default_rng(self.seed))
        self._record_stats(corpus)


class PaperEval(Workload):
    """Streaming evaluation of a random-init paper-scale model, both modes."""

    name = "paper-eval"
    min_units = 3      # plain, exclude-visited, plain again
    min_pairs = 2      # both modes
    op_is_unit = True
    interp_share = 0.7
    n_sampled = 3      # users re-ranked alone on a one-user corpus

    def key(self, k):
        return "exclude_visited" if k % 2 else "plain"

    def generate(self):
        self.tsv = self.work / "checkins.tsv"
        write_paper_checkins(self.tsv, self.seed)
        vocab = self._pipeline(self.tsv).n_pois
        cfg = M.ModelConfig(vocab=vocab, **PAPER_SHAPE)
        self.init = M.init_model(cfg, np.random.default_rng(self.seed))
        self.init_cfg = cfg
        self.ckpt = self.work / "model.bin"
        self.first = {}

    def setup(self):
        self.corpus = self._pipeline(self.tsv)
        M.save_checkpoint(self.ckpt, self.init, self.init_cfg)
        self.params, self.cfg, _ = M.load_checkpoint(self.ckpt)
        c = self.corpus
        self.stats = {
            "users": len(c.users), "vocab": c.n_pois,
            "train_transitions": c.stats()["train_transitions"],
            "test_instances": c.stats()["test_transitions"],
            "padding_share": 0.0, "kept_ratio": self.kept_ratio,
        }

    def unit(self, k, timer):
        mode = self.key(k)
        corpus = self.corpus
        if timer is not None:
            corpus = data.Corpus(users=_Ticking(corpus.users, timer.tick),
                                 vocab=corpus.vocab, meta=corpus.meta)
        t0 = time.perf_counter()
        results = ev.collect_ranks(self.params, self.cfg, corpus,
                                   exclude_visited=mode == "exclude_visited")
        seconds = time.perf_counter() - t0
        self.first.setdefault(mode, results)
        return Outcome(
            seconds=seconds, ops=len(results), items=len(results), key=mode,
            digest=_digest_ranks(results),
            quality=float(np.mean([math.log(r.rank) for r in results])),
        )

    def checks(self):
        users = self.corpus.users
        seq = next(u.train_steps() for u in users if u.n_train > 1)
        out = [("per-row determinism", _per_row_check(self.params, self.cfg, seq))]
        pick = np.random.default_rng(self.seed).choice(len(users), self.n_sampled,
                                                       replace=False)
        for j in sorted(pick):
            alone = data.Corpus(users=[users[j]], vocab=self.corpus.vocab)
            for mode, full in self.first.items():
                mine = [r for r in full if r.user == users[j].user]
                got = ev.collect_ranks(self.params, self.cfg, alone,
                                       exclude_visited=mode == "exclude_visited")
                out.append((f"one-user ranks {users[j].user} {mode}",
                            _digest_ranks(got) == _digest_ranks(mine)))
        return out


WORKLOADS = {w.name: w for w in (ToyFit, PaperFit, PaperEval)}
