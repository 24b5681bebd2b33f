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
# users per packed forward batch (taken in length order), and ranked
# instances per readout block
EVAL_CHUNK = 64


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


def _ranks(logits, targets, visited=None) -> np.ndarray:
    """1-based rank of ``targets[r]`` in row r of a (R, V) logit block,
    logit descending and ties to the lower id.

    ``visited`` is an optional (R, V) mask of excluded candidates; the
    target itself is never counted, so it is never excluded either.  The
    logits must be finite, which ``collect_ranks``' bound check proves.
    """
    lt = logits[np.arange(len(targets)), targets][:, None]
    ahead = (logits > lt) | ((logits == lt)
                             & (np.arange(logits.shape[1]) < targets[:, None]))
    if visited is not None:
        ahead &= ~visited
    return 1 + ahead.sum(axis=1)


def collect_ranks(params: ModelParams, cfg: ModelConfig, corpus, *,
                  exclude_visited: bool = False) -> list:
    """One RankingResult per test transition of every user of ``corpus``.

    Users run ``EVAL_CHUNK`` at a time through the cache-free forward, each
    over its training inputs then its test inputs.  Chunks are taken in
    stable length-descending order and run packed (see
    ``model.forward_batch``): no step runs a padded row, and the readout
    runs only on the hidden states at test positions.  Results come back in
    corpus order, each user's in step order.  The tiled kernels make every
    rank equal, bit for bit, to stepping each user alone
    (``tests/helpers.py`` keeps that oracle).  Parameters that could
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
    for c0 in range(0, len(order), EVAL_CHUNK):
        slot = order[c0:c0 + EVAL_CHUNK]
        chunk = [users[j] for j in slot]
        # one instance per test input position s of user row b; its test
        # step is s - n_train + 1 and its target the POI visited next
        rows = [(b, s) for b, u in enumerate(chunk)
                for s in range(u.n_train - 1, len(u.pois) - 1)]
        # gather the instances' states once, freeing the forward's workspace
        b_idx, s_idx = np.array(rows).T
        hs = forward_batch(params, cfg, [(u.pois[:-1], u.dts, u.dds)
                                         for u in chunk])[b_idx, s_idx]
        for r0 in range(0, len(rows), EVAL_CHUNK):
            block = rows[r0:r0 + EVAL_CHUNK]
            targets = np.array([chunk[b].pois[s + 1] for b, s in block])
            if targets.min() < 0 or targets.max() >= cfg.vocab:
                raise IndexError("collect_ranks: target POI out of vocabulary")
            visited = None
            if exclude_visited:
                # one scatter of every instance's POI prefix, s + 1 long
                visited = np.zeros((len(block), cfg.vocab), dtype=bool)
                visited[np.repeat(np.arange(len(block)), s_idx[r0:r0 + EVAL_CHUNK] + 1),
                        np.concatenate([chunk[b].pois[:s + 1]
                                        for b, s in block])] = True
            ranks = _ranks(readout(params, hs[r0:r0 + EVAL_CHUNK]), targets, visited)
            for (b, s), rank in zip(block, ranks):
                ranked[slot[b]].append(RankingResult(
                    user=chunk[b].user, step=s - chunk[b].n_train + 1,
                    rank=int(rank)))
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
