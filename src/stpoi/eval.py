"""Ranking metrics and cohort evaluation.

Every test transition of every user is one instance: the model state is
warmed on the user's training inputs, then rolled through the test inputs
with ground-truth history (teacher forcing), ranking the true next POI at
each position.  Rank is 1-based: 1 + the number of strictly higher logits +
the number of equal logits at lower ids, so ties go to the lower id; this
is the package's one tie-break rule (``_ranks``).

``collect_ranks`` makes one pass over the ranked users, and a cohort is a
filter over its results (``rank_cohorts``): ``all`` keeps every user,
``cold`` those with fewer than ``cold_threshold`` training records.  MAP uses
one relevant item per instance, so it reduces to the mean reciprocal rank.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from .cells import check_bounded
from .model import ModelConfig, ModelParams, forward_batch, readout

ACC_KS = (1, 5, 10, 15, 20)
COHORTS = ("all", "cold")
# ranked instances per readout block.  Each block's (rows, n_c) @ (n_c,
# vocab) product makes OpenBLAS pack all of w_out (5 MB at n_c 128, vocab
# 5000) once per call, and 256 rows spread that copy over four times the
# work of 64: a paper-shape pass's readout took 93-97 ms against 114-122 at
# 64 rows, 44-46 against 35-38 GFLOP/s (one SkylakeX core).  The cost is a
# pass's (EVAL_CHUNK, vocab) float64 logit buffer and its two bool masks,
# 10 * EVAL_CHUNK * vocab bytes: 12.6 MB at vocab 4937
EVAL_CHUNK = 256
# users per packed forward chunk (taken in length order).  The forward
# streams through two workspace slots, so a chunk's memory grows with its
# users, not with their histories: at n_c = n_i = 128 a 256-user chunk's two
# slots, one-slot Gates, one block's interval terms and the chunk's test
# states need about what one 64-user chunk's (T + 1)-slot workspace did,
# and each step's gate product runs on up to four times the rows
FORWARD_USERS = 256


class EmptyCohortError(ValueError):
    """No instances to aggregate; metrics would be undefined."""


@dataclass
class RankingResult:
    user: str
    step: int
    rank: int        # 1-based rank of the true next POI


@dataclass
class MetricsReport:
    cohort: str
    n_instances: int
    acc: dict        # K -> fraction of instances with rank <= K
    mean_ap: Optional[float]     # None for an empty cohort, which has no acc

    def to_dict(self) -> dict:
        return {
            "cohort": self.cohort,
            "n_instances": self.n_instances,
            "acc": {str(k): v for k, v in self.acc.items()},
            "map": self.mean_ap,
        }

    def lines(self) -> list:
        out = [f"cohort {self.cohort}", f"n_instances {self.n_instances}"]
        for k, v in sorted(self.acc.items()):
            out.append(f"acc@{k} {v:.6f}")
        if self.mean_ap is not None:
            out.append(f"map {self.mean_ap:.6f}")
        return out


def acc_at_k(results: Iterable[RankingResult], k: int) -> float:
    ranks = [r.rank for r in results]
    if not ranks:
        raise EmptyCohortError("acc_at_k: no instances")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def mean_ap(results: Iterable[RankingResult]) -> float:
    ranks = [r.rank for r in results]
    if not ranks:
        raise EmptyCohortError("mean_ap: no instances")
    return sum(1.0 / r for r in ranks) / len(ranks)


def _ranks(logits, targets, keep=None, out=None) -> np.ndarray:
    """1-based rank of ``targets[r]`` in row r of a (R, V) logit block,
    logit descending and ties to the lower id.

    ``keep`` is an optional (R, V) mask of the candidates that count; no
    row's target is ever ahead of itself, so it never matters whether the
    target is kept.  ``out`` is an optional (R, V) bool scratch array.  The
    logits must be finite, which ``collect_ranks``' bound check proves, so
    every target equals itself and a row has a tie exactly when its count
    of logits equal to the target's exceeds one; the lower-id rule runs on
    those rows alone.
    """
    n = len(targets)
    lt = logits[np.arange(n), targets][:, None]
    ahead = np.greater(logits, lt, out=out)
    if keep is not None:
        ahead &= keep
    # one count per row: faster than a reduction along the rows
    ranks = 1 + np.fromiter(map(np.count_nonzero, ahead), np.int64, n)
    tied = np.equal(logits, lt, out=ahead)
    if np.count_nonzero(tied) > n:
        for r in np.flatnonzero(np.count_nonzero(tied, axis=1) > 1).tolist():
            lower = tied[r, :targets[r]]
            if keep is not None:
                lower &= keep[r, :targets[r]]
            ranks[r] += np.count_nonzero(lower)
    return ranks


def collect_ranks(params: ModelParams, cfg: ModelConfig, corpus, *,
                  exclude_visited: bool = False) -> list:
    """One RankingResult per test transition of every user of ``corpus``.

    Users run ``FORWARD_USERS`` at a time through the cache-free forward,
    each over its training inputs then its test inputs.  Chunks are taken
    in stable length-descending order and run packed through a two-slot
    stream (see ``model.forward_batch``): no step runs a padded row, and
    only the hidden states at test positions are kept.  The readout runs
    on those, ``EVAL_CHUNK`` instances a block.  Every block's logits go
    into one (``EVAL_CHUNK``, vocab) float64 buffer per call and its
    ranking's bool masks into two more, 10 * ``EVAL_CHUNK`` * vocab bytes
    in all; a chunk's instance and target indices are built once per
    chunk, and a block's visited mask one instance row at a time, from a
    slice of the chunk's POIs.  So a pass's memory grows with the users of
    a chunk and the instances of a block, not with the users' history
    length.
    Results come back in corpus order, each user's in step order.  The
    tiled kernels make every rank equal, bit for bit, to stepping each user
    alone (``tests/helpers.py`` keeps that oracle).  Parameters that could
    overflow a gate or logit on the ranked users' inputs raise
    ``NonFiniteError`` before any step (``cells.check_bounded``).
    """
    if cfg.vocab != corpus.n_pois:
        raise ValueError(
            f"vocabulary size mismatch: model has {cfg.vocab}, corpus has "
            f"{corpus.n_pois}"
        )
    users = [u for u in corpus.users if len(u.pois) > u.n_train]
    check_bounded(params, 1.0, [np.max(u.dts, initial=0.0) for u in users],
                  [np.max(u.dds, initial=0.0) for u in users], "collect_ranks")
    # chunks in stable length-descending order, so that each step of a
    # chunk's forward runs only its live rows; results in corpus order
    order = sorted(range(len(users)), key=lambda j: -len(users[j].pois))
    ranked = [[] for _ in users]
    # every readout block's logits, ranking scratch and exclusion mask
    logits = np.empty((EVAL_CHUNK, cfg.vocab))
    ahead = np.empty(logits.shape, dtype=bool)
    keep = np.empty(logits.shape, dtype=bool)
    for c0 in range(0, len(order), FORWARD_USERS):
        slot = order[c0:c0 + FORWARD_USERS]
        chunk = [users[j] for j in slot]
        # one instance per test input position s of user row b, instances
        # user by user in step order: its test step is s - n_train + 1 and
        # its target the POI visited next, at starts[b] + s + 1 in pois
        pois = np.concatenate([u.pois for u in chunk])
        lengths = np.array([len(u.pois) for u in chunk])
        starts = np.cumsum(lengths) - lengths
        firsts = np.array([u.n_train - 1 for u in chunk])
        counts = lengths - 1 - firsts
        b_idx = np.repeat(np.arange(len(chunk)), counts)
        steps = np.arange(len(b_idx)) - np.repeat(np.cumsum(counts) - counts,
                                                  counts)
        s_idx = firsts[b_idx] + steps
        targets = pois[starts[b_idx] + s_idx + 1]
        if targets.min() < 0 or targets.max() >= cfg.vocab:
            raise IndexError("collect_ranks: target POI out of vocabulary")
        # the instances' states alone, streamed out of the forward
        hs = forward_batch(params, cfg, [(u.pois[:-1], u.dts, u.dds)
                                         for u in chunk], at=(b_idx, s_idx))
        for r0 in range(0, len(b_idx), EVAL_CHUNK):
            r1 = min(r0 + EVAL_CHUNK, len(b_idx))
            mask = None
            if exclude_visited:
                # each instance's visited POIs, the first s + 1 of its
                # user's pois, cleared in its own row
                mask = keep[:r1 - r0]
                mask.fill(True)
                lo = starts[b_idx[r0:r1]]
                for j, (a, b) in enumerate(zip(
                        lo.tolist(), (lo + s_idx[r0:r1] + 1).tolist())):
                    mask[j, pois[a:b]] = False
            ranks = _ranks(readout(params, hs[r0:r1], out=logits[:r1 - r0]),
                           targets[r0:r1], mask, ahead[:r1 - r0])
            for b, step, rank in zip(b_idx[r0:r1].tolist(),
                                     steps[r0:r1].tolist(), ranks.tolist()):
                ranked[slot[b]].append(RankingResult(
                    user=chunk[b].user, step=step, rank=rank))
    return [r for user_results in ranked for r in user_results]


def rank_cohorts(params: ModelParams, cfg: ModelConfig, corpus, cohorts, *,
                 cold_threshold: int = 5, exclude_visited: bool = False) -> dict:
    """cohort -> its users' RankingResults, in corpus order, from one
    ``collect_ranks`` pass over the widest of ``cohorts``.  ``cold`` holds
    the users with fewer than ``cold_threshold`` training records.  A
    cohort asked for alone must not be empty; next to another, it may be.
    """
    if not set(cohorts) <= set(COHORTS):
        raise ValueError(f"unknown cohort in {cohorts}; expected one of {COHORTS}")
    cold = [u for u in corpus.users if u.n_train < cold_threshold]
    results = collect_ranks(params, cfg, corpus if "all" in cohorts
                            else replace(corpus, users=cold),
                            exclude_visited=exclude_visited)
    names = {u.user for u in cold}
    by_cohort = {c: results if c == "all" else [r for r in results if r.user in names]
                 for c in cohorts}
    if len(cohorts) == 1 and not results:
        raise EmptyCohortError(f"cohort {cohorts[0]!r} is empty under "
                               f"cold-threshold {cold_threshold}")
    return by_cohort


def summarize(results, cohort: str, ks=ACC_KS) -> MetricsReport:
    """The metrics of ``results``; an empty cohort reports its count alone."""
    if not results:
        return MetricsReport(cohort=cohort, n_instances=0, acc={}, mean_ap=None)
    return MetricsReport(
        cohort=cohort,
        n_instances=len(results),
        acc={k: acc_at_k(results, k) for k in ks},
        mean_ap=mean_ap(results),
    )


def evaluate(params: ModelParams, cfg: ModelConfig, corpus, *,
             cohort: str = "all", cold_threshold: int = 5,
             exclude_visited: bool = False, ks=ACC_KS) -> MetricsReport:
    results = rank_cohorts(params, cfg, corpus, (cohort,),
                           cold_threshold=cold_threshold,
                           exclude_visited=exclude_visited)[cohort]
    return summarize(results, cohort, ks)
