import numpy as np
import pytest
from hypothesis import given, strategies as st

from stpoi import data
from stpoi import eval as E
from stpoi import model as M
from stpoi.data import CheckIn

from stpoi.numkit import NonFiniteError

from helpers import overflowing_readout, rank_of, streaming_ranks, user_test_steps


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
    visited = np.zeros((len(targets), len(logits)), dtype=bool)
    visited[:, list(exclude)] = True
    return E._ranks(np.tile(logits, (len(targets), 1)), np.asarray(targets),
                    visited).tolist()


class TestRankOf:
    def test_hand_example_with_ties(self):
        logits = [0.5, 2.0, 2.0, -1.0]
        # tie between ids 1 and 2: the higher id loses
        assert ranks_of(logits, [1, 2, 0, 3]) == [1, 2, 3, 4]
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
        cold = E.collect_ranks(params, cfg, corpus, cohort="cold",
                               cold_threshold=5)
        cold_users = {u.user for u in corpus.users if u.n_train < 5}
        assert cold_users and {r.user for r in cold} == cold_users
        n_expected = sum(len(user_test_steps(u)[0]) for u in corpus.users
                         if u.n_train < 5)
        assert len(cold) == n_expected

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


class TestBatchedMatchesStreaming:
    """collect_ranks runs users as a padded batch; its ranks must equal the
    one-user-at-a-time oracle (helpers.step + rank_of) bit for bit."""

    @pytest.fixture(scope="class", params=["periodic", "interval"])
    def corpus(self, request):
        # more users than one evaluation chunk, some of them cold
        n_users = E.EVAL_CHUNK + 6
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
        kw = dict(cohort=cohort, cold_threshold=5,
                  exclude_visited=exclude_visited)
        got = [(r.user, r.step, r.rank)
               for r in E.collect_ranks(params, cfg, corpus, **kw)]
        want = streaming_ranks(params, cfg, corpus, **kw)
        assert want and got == want
