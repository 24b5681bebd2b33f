import numpy as np
import pytest

from stpoi import data
from stpoi import model as M
from stpoi import train as T
from stpoi.cells import GateAblation


def small_corpus(seed=7, **kw):
    kw.setdefault("n_users", 8)
    kw.setdefault("n_pois", 16)
    kw.setdefault("length", 18)
    return data.synth_corpus(seed, **kw)


def fresh(variant, corpus, seed=0, n_c=8, n_i=8, **cfg_kw):
    cfg = M.ModelConfig(variant=variant, vocab=corpus.n_pois, n_i=n_i, n_c=n_c,
                        **cfg_kw)
    params = M.init_model(cfg, np.random.default_rng(seed))
    return params, cfg


class TestFit:
    def test_loss_decreases_on_learnable_pattern(self):
        corpus = small_corpus()
        seqs, names = T.train_sequences(corpus)
        params, cfg = fresh("st-clstm", corpus)
        res = T.fit(params, cfg, seqs, epochs=15, batch_size=4, lr=5e-3,
                    seed=1, names=names)
        assert res.epochs_run == 15
        assert res.losses[-1] < res.losses[0]

    def test_epoch_loss_is_grand_mean(self):
        corpus = small_corpus()
        seqs, _ = T.train_sequences(corpus)
        params, cfg = fresh("lstm", corpus)
        res = T.fit(params, cfg, seqs, epochs=1, batch_size=3, lr=0.0, seed=2)
        direct, _ = M.batch_loss_and_grads(params, cfg, seqs)
        assert res.losses[0] == pytest.approx(direct, rel=1e-12)

    def test_constraints_hold_after_training(self):
        corpus = small_corpus()
        seqs, _ = T.train_sequences(corpus)
        for target, extra in (("interval", ()), ("input", ("w_xt1", "w_xd1"))):
            params, cfg = fresh("st-clstm", corpus, constraint_target=target)
            T.fit(params, cfg, seqs, epochs=3, batch_size=4, lr=1e-2, seed=3)
            tensors = params.tensors()
            for name in ("w_t1", "w_d1") + extra:
                assert tensors[name].max() <= 0.0

    def test_deterministic_given_seed(self, tmp_path):
        corpus = small_corpus()
        seqs, _ = T.train_sequences(corpus)
        outs = []
        for run in ("a", "b"):
            params, cfg = fresh("st-lstm", corpus, seed=5)
            out = tmp_path / run
            res = T.fit(params, cfg, seqs, epochs=4, batch_size=4, seed=11,
                        out_dir=out)
            outs.append((res.losses, (out / "checkpoint.bin").read_bytes()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_checkpoint_per_epoch(self, tmp_path):
        corpus = small_corpus()
        seqs, _ = T.train_sequences(corpus)
        params, cfg = fresh("lstm", corpus)
        T.fit(params, cfg, seqs, epochs=3, batch_size=4, seed=1,
              out_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.glob("*.bin"))
        assert names == ["checkpoint.bin", "epoch-0001.bin", "epoch-0002.bin",
                         "epoch-0003.bin"]
        loaded, loaded_cfg, adam = M.load_checkpoint(tmp_path / "checkpoint.bin")
        assert loaded_cfg == cfg and adam is not None
        np.testing.assert_array_equal(loaded.w_out, params.w_out)

    def test_divergence_aborts_with_dump(self, tmp_path, monkeypatch):
        corpus = small_corpus()
        seqs, names = T.train_sequences(corpus)
        params, cfg = fresh("st-clstm", corpus)
        # the numeric stack validates its inputs, so a NaN loss cannot be
        # provoked organically; stub the loss to exercise the abort contract
        real = M.batch_loss_and_grads
        calls = {"n": 0}

        def flaky(p, c, batch):
            calls["n"] += 1
            loss, grads = real(p, c, batch)
            if calls["n"] == 2:
                return float("nan"), grads
            return loss, grads

        monkeypatch.setattr(T, "batch_loss_and_grads", flaky)
        with pytest.raises(T.TrainingDiverged, match="epoch 1"):
            T.fit(params, cfg, seqs, epochs=2, batch_size=4, seed=1,
                  names=names, out_dir=tmp_path)
        dump = tmp_path / "divergence.json"
        assert dump.exists()
        assert '"epoch": 1' in dump.read_text()

    def test_early_stop_on_plateau(self):
        corpus = small_corpus()
        seqs, _ = T.train_sequences(corpus)
        params, cfg = fresh("lstm", corpus)
        res = T.fit(params, cfg, seqs, epochs=100, batch_size=4, lr=0.0,
                    seed=1, early_stop=True, patience=10, rel_tol=1e-4)
        assert res.stopped_early
        # lr=0 never improves: the best stays at epoch 1, stop at patience+1
        assert res.epochs_run == 11

    def test_on_step_callback_sees_every_step(self):
        corpus = small_corpus()
        seqs, _ = T.train_sequences(corpus)
        params, cfg = fresh("st-clstm", corpus)
        calls = []
        T.fit(params, cfg, seqs, epochs=2, batch_size=3, seed=1,
              on_step=lambda e, b, p: calls.append((e, b)))
        batches_per_epoch = -(-len(seqs) // 3)
        assert len(calls) == 2 * batches_per_epoch

    def test_empty_sequences_rejected(self):
        corpus = small_corpus()
        params, cfg = fresh("lstm", corpus)
        with pytest.raises(ValueError):
            T.fit(params, cfg, [], epochs=1)


class TestTrajectoryEquality:
    def test_ablated_stlstm_tracks_lstm_exactly(self):
        # all four gates pinned to ones, interval weights zero, intervals
        # zero: the spatio-temporal cell computes the plain LSTM recurrence
        # and the whole optimization trajectory must coincide
        rng = np.random.default_rng(42)
        vocab, n_i, n_c = 12, 6, 5
        seqs = []
        for _ in range(6):
            pois = rng.integers(0, vocab, size=10)
            targets = rng.integers(0, vocab, size=10)
            zero = np.zeros(10)
            seqs.append((pois, zero, zero, targets))

        cfg_l = M.ModelConfig(variant="lstm", vocab=vocab, n_i=n_i, n_c=n_c)
        params_l = M.init_model(cfg_l, np.random.default_rng(9))

        cfg_s = M.ModelConfig(
            variant="st-lstm", vocab=vocab, n_i=n_i, n_c=n_c,
            ablation=GateAblation(fix_t1=True, fix_t2=True, fix_d1=True,
                                  fix_d2=True),
        )
        params_s = M.init_model(cfg_s, np.random.default_rng(10))
        shared = ("w_i", "w_f", "w_c", "w_o", "b_i", "b_f", "b_c", "b_o")
        lt, st = params_l.tensors(), params_s.tensors()
        for name in shared:
            st[name][...] = lt[name]
        params_s.embedding[...] = params_l.embedding
        params_s.w_out[...] = params_l.w_out
        params_s.b_out[...] = params_l.b_out
        params_s.w_to[...] = 0.0
        params_s.w_do[...] = 0.0

        res_l = T.fit(params_l, cfg_l, seqs, epochs=6, batch_size=3, seed=77)
        res_s = T.fit(params_s, cfg_s, seqs, epochs=6, batch_size=3, seed=77)
        for a, b in zip(res_l.losses, res_s.losses):
            assert abs(a - b) <= 1e-9
        np.testing.assert_allclose(params_s.w_i, params_l.w_i,
                                   atol=1e-9)
