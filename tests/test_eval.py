import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stpoi import data
from stpoi import eval as E
from stpoi import model as M
from stpoi.data import CheckIn

from stpoi.numkit import NonFiniteError

from helpers import (brute_force_rank, overflowing_readout, rank_of,
                     streaming_ranks, user_test_steps)


def rr(ranks):
    return [E.RankingResult(user="u", step=i, rank=r)
            for i, r in enumerate(ranks)]


def zero_model(vocab, n_i=3, n_c=4, variant="lstm"):
    cfg = M.ModelConfig(variant=variant, vocab=vocab, n_i=n_i, n_c=n_c)
    params = M.init_model(cfg, np.random.default_rng(0))
    for arr in params.tensors().values():
        arr[...] = 0.0
    return params, cfg


class TestMetrics:
    def test_acc_examples(self):
        results = rr([1, 3, 20])
        assert E.acc_at_k(results, 5) == pytest.approx(2 / 3)
        assert E.acc_at_k(results, 20) == 1.0
        assert E.acc_at_k(results, 1) == pytest.approx(1 / 3)

    def test_map_examples(self):
        assert E.mean_ap(rr([1, 1, 1])) == 1.0
        assert E.mean_ap(rr([1, 4])) == pytest.approx(0.625)
        worse = E.mean_ap(rr([1, 4, 10_000]))
        assert worse < 0.625

    def test_empty_rejected(self):
        with pytest.raises(E.EmptyCohortError):
            E.acc_at_k([], 5)
        with pytest.raises(E.EmptyCohortError):
            E.mean_ap([])

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                    max_size=40))
    def test_acc_monotone_and_map_bounds(self, ranks):
        results = rr(ranks)
        accs = [E.acc_at_k(results, k) for k in (1, 5, 10, 15, 20, 50)]
        assert all(a <= b + 1e-15 for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0
        m = E.mean_ap(results)
        assert accs[0] - 1e-12 <= m <= 1.0 + 1e-12

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=2,
                    max_size=20), st.randoms())
    def test_map_permutation_invariant(self, ranks, rnd):
        before = E.mean_ap(rr(ranks))
        shuffled = list(ranks)
        rnd.shuffle(shuffled)
        assert E.mean_ap(rr(shuffled)) == pytest.approx(before, rel=1e-12)

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            ranks = rng.integers(1, 60, size=rng.integers(1, 30)).tolist()
            results = rr(ranks)
            for k in (1, 5, 10):
                brute = sum(r <= k for r in ranks) / len(ranks)
                assert E.acc_at_k(results, k) == pytest.approx(brute)
            brute_map = sum(1 / r for r in ranks) / len(ranks)
            assert E.mean_ap(results) == pytest.approx(brute_map)


def ranks_of(logits, targets, exclude=()):
    """eval._ranks with one shared logit vector and exclusion set per row."""
    logits = np.asarray(logits, dtype=float)
    keep = np.ones((len(targets), len(logits)), dtype=bool)
    keep[:, list(exclude)] = False
    return E._ranks(np.tile(logits, (len(targets), 1)), np.asarray(targets),
                    keep).tolist()


class TestRankOf:
    def test_hand_example_with_ties(self):
        logits = [0.5, 2.0, 2.0, -1.0]
        # tie between ids 1 and 2: the higher id loses
        assert ranks_of(logits, [1, 2, 0, 3]) == [1, 2, 3, 4]
        assert ranks_of(logits, [2]) == [2]     # a block's one tie
        assert [rank_of(logits, t) for t in (1, 2, 0, 3)] == [1, 2, 3, 4]

    def test_matches_topk_position(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            v = rng.integers(4, 12)
            logits = rng.integers(-2, 3, size=v).astype(float)  # forces ties
            # lexsort's last key is primary; ascending ids settle ties
            order = np.lexsort((np.arange(v), -logits))
            pos = [int(np.where(order == t)[0][0]) + 1 for t in range(v)]
            assert ranks_of(logits, range(v)) == pos
            assert [rank_of(logits, t) for t in range(v)] == pos

    def test_exclusion_shifts_rank(self):
        logits = [3.0, 2.0, 1.0]
        for exclude, want in (((), 3), ([0], 2), ([0, 1], 1),
                              # the target itself is never excluded
                              ([0, 1, 2], 1)):
            assert ranks_of(logits, [2], exclude) == [want]
            assert rank_of(logits, 2, exclude) == want


class TestRanksOracle:
    """eval._ranks on readout blocks of 1, 63, 64, EVAL_CHUNK - 1 and
    EVAL_CHUNK rows against sorting every candidate
    (helpers.brute_force_rank), in a reused scratch array, with and without
    a mask of kept candidates."""

    VOCAB = 23

    def block(self, rows, first):
        """Logits with few distinct values, so that most rows tie their
        target at lower and at higher ids, and row 0 ``first``: "ties",
        descending logits with target 11 tied at ids 6, 9 and 15, and ids
        9, 11 and 15 visited; or "constant", a constant row.  Returns the
        logits, targets and visited mask."""
        rng = np.random.default_rng(rows)
        logits = rng.integers(-3, 4, size=(rows, self.VOCAB)).astype(float)
        targets = rng.integers(0, self.VOCAB, size=rows)
        visited = rng.random((rows, self.VOCAB)) < 0.3
        targets[0] = 11
        if first == "ties":
            logits[0] = -np.arange(self.VOCAB)
            logits[0, [6, 9, 15]] = logits[0, 11]
            visited[0] = False
            visited[0, [9, 11, 15]] = True
        else:
            logits[0] = 0.25
        return logits, targets, visited

    @pytest.mark.parametrize("first", ["ties", "constant"])
    @pytest.mark.parametrize("rows", [1, 63, 64, E.EVAL_CHUNK - 1,
                                      E.EVAL_CHUNK])
    def test_ranks_equal_sorting_every_candidate(self, rows, first):
        logits, targets, visited = self.block(rows, first)
        keep = ~visited
        got = []
        for mask in (None, keep):
            scratch = np.ones((E.EVAL_CHUNK, self.VOCAB), dtype=bool)
            got.append(E._ranks(logits, targets, mask, scratch[:rows]).tolist())
            want = [brute_force_rank(logits[r], targets[r], () if mask is None
                                     else np.flatnonzero(visited[r]))
                    for r in range(rows)]
            assert got[-1] == want
        np.testing.assert_array_equal(keep, ~visited)    # read, not written
        if first == "ties":
            # ids 0-10 come first, 6 and 9 by the lower-id rule, 15 after;
            # excluding the visited drops 9 alone
            assert (got[0][0], got[1][0]) == (12, 11)
        else:
            assert (got[0][0], got[1][0]) == (12, 12 - int(visited[0, :11].sum()))


class TestEvaluate:
    def make_corpus(self):
        return data.synth_corpus(5, n_users=6, n_pois=20, length=12, n_short=2)

    def test_zero_model_ranks_equal_target_id_plus_one(self):
        # all logits zero, so the tie-break ranks id t at position t+1;
        # this pins down exactly which (user, step, target) triples are scored
        corpus = self.make_corpus()
        params, cfg = zero_model(corpus.n_pois)
        results = E.collect_ranks(params, cfg, corpus)
        expected = []
        for u in corpus.users:
            _, _, _, targets = user_test_steps(u)
            expected.extend(int(t) + 1 for t in targets)
        assert [r.rank for r in results] == expected
        assert len(results) == corpus.stats()["test_transitions"]

    def test_report_matches_hand_aggregation(self):
        corpus = self.make_corpus()
        params, cfg = zero_model(corpus.n_pois)
        report = E.evaluate(params, cfg, corpus)
        ranks = [r.rank for r in E.collect_ranks(params, cfg, corpus)]
        assert report.n_instances == len(ranks)
        assert report.acc[5] == pytest.approx(sum(r <= 5 for r in ranks)
                                              / len(ranks))
        assert report.mean_ap == pytest.approx(sum(1 / r for r in ranks)
                                               / len(ranks))
        assert set(report.acc) == {1, 5, 10, 15, 20}

    def test_cold_cohort_selects_short_users(self):
        corpus = self.make_corpus()
        params, cfg = zero_model(corpus.n_pois)
        cold = E.rank_cohorts(params, cfg, corpus, ("cold",),
                              cold_threshold=5)["cold"]
        cold_users = {u.user for u in corpus.users if u.n_train < 5}
        assert cold_users and {r.user for r in cold} == cold_users
        n_expected = sum(len(user_test_steps(u)[0]) for u in corpus.users
                         if u.n_train < 5)
        assert len(cold) == n_expected
        # asked for next to "all", the cold cohort is the same filter
        both = E.rank_cohorts(params, cfg, corpus, ("all", "cold"),
                              cold_threshold=5)
        assert both["cold"] == cold
        assert both["all"] == E.collect_ranks(params, cfg, corpus)

    def test_all_warm_corpus_gives_empty_cold_cohort(self):
        corpus = data.synth_corpus(5, n_users=4, n_pois=16, length=12)
        params, cfg = zero_model(corpus.n_pois)
        with pytest.raises(E.EmptyCohortError, match="cold"):
            E.evaluate(params, cfg, corpus, cohort="cold")

    def test_vocab_mismatch_rejected(self):
        corpus = self.make_corpus()
        params, cfg = zero_model(corpus.n_pois + 3)
        with pytest.raises(ValueError, match="mismatch"):
            E.evaluate(params, cfg, corpus)

    def test_unknown_cohort_rejected(self):
        corpus = self.make_corpus()
        params, cfg = zero_model(corpus.n_pois)
        with pytest.raises(ValueError, match="cohort"):
            E.evaluate(params, cfg, corpus, cohort="veterans")

    def test_deterministic(self):
        corpus = self.make_corpus()
        cfg = M.ModelConfig(variant="st-clstm", vocab=corpus.n_pois, n_i=4,
                            n_c=5)
        params = M.init_model(cfg, np.random.default_rng(3))
        r1 = E.evaluate(params, cfg, corpus)
        r2 = E.evaluate(params, cfg, corpus)
        assert r1 == r2

    def test_exclusion_hand_oracle(self):
        # one user, visits 3 -> 0 -> 1; split keeps two records for training,
        # so the single test instance ranks target 1 after seeing {3, 0}
        recs = [
            CheckIn(user="a", ts=0.0, lat=0.0, lon=0.0, poi="p3"),
            CheckIn(user="a", ts=3600.0, lat=0.0, lon=0.0, poi="p0"),
            CheckIn(user="a", ts=7200.0, lat=0.0, lon=0.0, poi="p1"),
        ]
        # vocab order by first appearance: p3 -> 0, p0 -> 1, p1 -> 2
        corpus = data.build_corpus(recs)
        params, cfg = zero_model(corpus.n_pois)
        plain = E.evaluate(params, cfg, corpus)
        assert plain.acc[1] == 0.0            # target id 2 ranks third
        excl = E.evaluate(params, cfg, corpus, exclude_visited=True)
        assert excl.acc[1] == 1.0             # ids 0 and 1 are both visited

    def test_uniform_ranks_monte_carlo(self):
        # K/N expectation for uniformly random ranks, 3 sigma band
        rng = np.random.default_rng(10)
        n, k, vocab = 2000, 10, 100
        ranks = rng.integers(1, vocab + 1, size=n)
        results = rr(ranks.tolist())
        p = k / vocab
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(E.acc_at_k(results, k) - p) <= 3 * sigma

    def test_report_lines_format(self):
        report = E.MetricsReport(cohort="all", n_instances=4,
                                 acc={1: 0.25, 5: 0.5}, mean_ap=0.375)
        lines = report.lines()
        assert lines[0] == "cohort all"
        assert "acc@1 0.250000" in lines
        assert lines[-1] == "map 0.375000"

    @pytest.mark.parametrize("bad", [-1, 20])
    def test_out_of_vocabulary_target_rejected(self, bad):
        corpus = data.synth_corpus(5, n_users=6, n_pois=20, length=12)
        params, cfg = zero_model(corpus.n_pois)
        corpus.users[2].pois[-1] = bad
        with pytest.raises(IndexError):
            E.collect_ranks(params, cfg, corpus)

    def test_nonfinite_parameter_rejected(self):
        corpus = data.synth_corpus(5, n_users=6, n_pois=20, length=12)
        cfg = M.ModelConfig(variant="st-clstm", vocab=corpus.n_pois, n_i=4,
                            n_c=5)
        params = M.init_model(cfg, np.random.default_rng(3))
        params.w_out[0, 0] = np.nan
        with pytest.raises(ValueError, match="w_out"):
            E.collect_ranks(params, cfg, corpus)

    def test_overflowing_logits_rejected(self):
        # finite parameters, but every readout row overflows to inf
        corpus = data.synth_corpus(5, n_users=6, n_pois=36, pattern="interval",
                                   length=12)
        params, cfg = overflowing_readout(corpus)
        with pytest.raises(NonFiniteError, match="collect_ranks: parameters up to "
                           ".* let a gate or logit overflow to NaN or inf"):
            E.collect_ranks(params, cfg, corpus)


def ragged_corpus(n_users, seed):
    """A corpus of ``n_users`` users in shuffled length order: histories of
    2 to 48 records, split anywhere from one training record to none left
    for testing, so that every packed chunk runs a different live prefix at
    each step."""
    rng = np.random.default_rng(seed)
    corpus = data.synth_corpus(seed, n_users=n_users, n_pois=6 * n_users,
                               length=48, pattern="interval")
    users = []
    for u, n in zip(corpus.users, rng.permutation(np.linspace(2, 48, n_users)
                                                   .astype(int))):
        users.append(dataclasses.replace(
            u, pois=u.pois[:n], dts=u.dts[:n - 1], dds=u.dds[:n - 1],
            n_train=int(rng.integers(1, n + 1))))
    return data.Corpus(users=users, vocab=corpus.vocab)


class TestBatchedMatchesStreaming:
    """collect_ranks runs users packed, in length order; its ranks must
    equal the one-user-at-a-time oracle (helpers.step + rank_of) bit for
    bit, in corpus order."""

    # readout blocks and forward chunks of this many, so that the corpora
    # below, sized from it, span several of each at a test's cost
    CHUNK = 64

    @pytest.fixture(autouse=True)
    def chunks(self, monkeypatch):
        monkeypatch.setattr(E, "EVAL_CHUNK", self.CHUNK)
        monkeypatch.setattr(E, "FORWARD_USERS", self.CHUNK)

    @pytest.fixture(scope="class", params=["periodic", "interval", "ragged"])
    def corpus(self, request):
        # more users than one chunk, some of them cold
        n_users = self.CHUNK + 6
        if request.param == "ragged":
            return ragged_corpus(2 * self.CHUNK + 9, seed=4)
        return data.synth_corpus(3, n_users=n_users, n_pois=6 * n_users,
                                 length=12, pattern=request.param, n_short=4)

    @pytest.mark.parametrize("exclude_visited", [False, True])
    @pytest.mark.parametrize("cohort", ["all", "cold"])
    @pytest.mark.parametrize("variant", ["lstm", "st-lstm", "st-clstm"])
    def test_ranks_equal_oracle(self, corpus, variant, cohort,
                                exclude_visited):
        cfg = M.ModelConfig(variant=variant, vocab=corpus.n_pois, n_i=6,
                            n_c=8)
        params = M.init_model(cfg, np.random.default_rng(1))
        kw = dict(cold_threshold=5, exclude_visited=exclude_visited)
        want = streaming_ranks(params, cfg, corpus, cohort=cohort, **kw)
        # the cold cohort both ranked alone and filtered out of "all"'s pass
        runs = [("all",)] if cohort == "all" else [("cold",), ("all", "cold")]
        for cohorts in runs:
            got = [(r.user, r.step, r.rank) for r in
                   E.rank_cohorts(params, cfg, corpus, cohorts, **kw)[cohort]]
            assert want and got == want

    def test_chunks_run_in_length_order(self, corpus, monkeypatch):
        # each chunk reaches the forward already in length-descending order,
        # so its packed order is the caller's
        lengths = []

        def recording(params, cfg, seqs, at=None):
            lengths.extend(len(s[0]) for s in seqs)
            return forward_batch(params, cfg, seqs, at=at)

        forward_batch = E.forward_batch
        monkeypatch.setattr(E, "forward_batch", recording)
        cfg = M.ModelConfig(variant="lstm", vocab=corpus.n_pois, n_i=3, n_c=4)
        E.collect_ranks(M.init_model(cfg, np.random.default_rng(1)), cfg, corpus)
        ranked = [len(u.pois) - 1 for u in corpus.users
                  if len(u.pois) > u.n_train]
        assert lengths == sorted(ranked, reverse=True)


class TestReadoutBlocks:
    """collect_ranks reads every block out into one (EVAL_CHUNK, vocab)
    buffer and ranks it with one scratch mask; a block that is not full
    must see only its own rows, and a full chunk nothing of the last one."""

    @staticmethod
    def held_out(n_users, n_test):
        """An interval corpus of ``n_users`` users, user j with its last
        ``n_test[j % len(n_test)]`` transitions held out for testing and at
        least ten records for training."""
        corpus = data.synth_corpus(6, n_users=n_users, n_pois=6 * n_users,
                                   length=max(n_test) + 11, pattern="interval")
        users = [dataclasses.replace(u, n_train=len(u.pois)
                                     - n_test[j % len(n_test)])
                 for j, u in enumerate(corpus.users)]
        return data.Corpus(users=users, vocab=corpus.vocab)

    @pytest.mark.parametrize("exclude_visited", [False, True])
    @pytest.mark.parametrize("n_users, n_test, blocks", [
        # one chunk of exactly EVAL_CHUNK instances: one full block
        (16, (E.EVAL_CHUNK // 16,), [E.EVAL_CHUNK]),
        # one chunk of a full block then a partial one
        (10, (E.EVAL_CHUNK // 10 + 1,),
         [E.EVAL_CHUNK, 10 * (E.EVAL_CHUNK // 10 + 1) - E.EVAL_CHUNK]),
        # a full chunk of 64 users, 22 of them with k test instances and
        # 21 each with k + 1 and k + 2 (2 * EVAL_CHUNK - 1 instances), then
        # a chunk of 3 users with 3k + 3
        (67, tuple(E.EVAL_CHUNK // 32 - 1 + d for d in range(3)),
         [E.EVAL_CHUNK, E.EVAL_CHUNK - 1, 3 * (E.EVAL_CHUNK // 32)]),
    ])
    def test_blocks_equal_stepping_each_user_alone(self, n_users, n_test,
                                                   blocks, exclude_visited,
                                                   monkeypatch):
        # forward chunks of 64 users, so that the last case spans two
        monkeypatch.setattr(E, "FORWARD_USERS", 64)
        corpus = self.held_out(n_users, n_test)
        cfg = M.ModelConfig(variant="st-clstm", vocab=corpus.n_pois, n_i=6,
                            n_c=8)
        params = M.init_model(cfg, np.random.default_rng(2))
        heights = []

        def recording(params, h, out=None):
            heights.append(len(h))
            return readout(params, h, out=out)

        readout = E.readout
        monkeypatch.setattr(E, "readout", recording)
        got = E.collect_ranks(params, cfg, corpus,
                              exclude_visited=exclude_visited)
        assert heights == blocks
        assert [(r.user, r.step, r.rank) for r in got] == streaming_ranks(
            params, cfg, corpus, exclude_visited=exclude_visited)


class TestEvaluationMemory:
    """A pass's memory grows with the users of a forward chunk and the
    instances of a readout block, not with the users' history length: the
    forward streams through two workspace slots, and each block builds its
    exclusion mask one row at a time."""

    @pytest.mark.parametrize("exclude_visited", [False, True])
    def test_long_histories_trace_under_a_fixed_bound(self, exclude_visited):
        # four users of 1000 check-ins, 300 test instances each
        corpus = data.synth_corpus(5, n_users=4, n_pois=24, length=1000,
                                   pattern="interval")
        cfg = M.ModelConfig(variant="st-clstm", vocab=corpus.n_pois, n_i=32,
                            n_c=32)
        params = M.init_model(cfg, np.random.default_rng(4))
        kw = dict(exclude_visited=exclude_visited)
        E.collect_ranks(params, cfg, corpus, **kw)      # numkit's probes
        tracemalloc.start()
        try:
            got = E.collect_ranks(params, cfg, corpus, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert [(r.user, r.step, r.rank) for r in got] == streaming_ranks(
            params, cfg, corpus, **kw)
