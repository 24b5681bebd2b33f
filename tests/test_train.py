import hashlib
import json
from pathlib import Path

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

    @pytest.mark.parametrize("with_dir", [False, True])
    def test_nonfinite_parameters_after_the_last_step_abort(self, tmp_path,
                                                            with_dir):
        # the epoch's last step leaves a NaN that no later batch would see
        corpus = small_corpus()
        seqs, names = T.train_sequences(corpus)
        params, cfg = fresh("st-lstm", corpus)
        last = -(-len(seqs) // 4) - 1

        def corrupt(epoch, batch, p):
            if batch == last:
                p.w_out[3, 1] = np.nan

        out_dir = tmp_path if with_dir else None
        with pytest.raises(T.TrainingDiverged,
                           match="after the epoch's last step: params: w_out"):
            T.fit(params, cfg, seqs, epochs=2, batch_size=4, seed=1,
                  names=names, out_dir=out_dir, on_step=corrupt)
        assert not list(tmp_path.glob("*.bin"))
        assert (tmp_path / "divergence.json").exists() == with_dir

    @pytest.mark.parametrize("with_dir", [False, True])
    def test_overflowing_parameters_after_the_last_step_abort(self, tmp_path,
                                                              with_dir):
        # the run's last step leaves finite parameters whose gate products
        # overflow; they are neither written nor returned
        corpus = small_corpus()
        seqs, names = T.train_sequences(corpus)
        params, cfg = fresh("st-lstm", corpus)
        last = -(-len(seqs) // 4) - 1

        def corrupt(epoch, batch, p):
            if epoch == 2 and batch == last:
                p.blocks["w_z"][...] *= 1e300
                p.embedding[...] *= 1e10

        out_dir = tmp_path if with_dir else None
        with pytest.raises(T.TrainingDiverged,
                           match="after the epoch's last step: .*NaN or inf"):
            T.fit(params, cfg, seqs, epochs=2, batch_size=4, seed=1,
                  names=names, out_dir=out_dir, on_step=corrupt)
        assert [p.name for p in tmp_path.glob("*.bin")] == (
            ["epoch-0001.bin"] if with_dir else [])

    @pytest.mark.parametrize("with_dir", [False, True])
    def test_overflow_on_a_poi_the_last_batch_never_reads_aborts(
            self, tmp_path, monkeypatch, with_dir):
        # after the run's last step an embedding row that the last batch
        # does not read is past the bound: that batch alone runs finite,
        # but the parameters overflow on another POI, so they are neither
        # written nor returned
        corpus = small_corpus(n_pois=48)
        seqs, names = T.train_sequences(corpus)
        params, cfg = fresh("st-lstm", corpus)
        real = T.batch_loss_and_grads
        batches = []

        def recording(p, c, batch):
            batches.append(batch)
            return real(p, c, batch)

        last = -(-len(seqs) // 4) - 1

        def corrupt(epoch, batch, p):
            if batch == last:
                read = set(np.concatenate([s[0] for s in batches[-1]]).tolist())
                p.embedding[min(set(range(cfg.vocab)) - read)] *= 1e305

        monkeypatch.setattr(T, "batch_loss_and_grads", recording)
        out_dir = tmp_path if with_dir else None
        with pytest.raises(T.TrainingDiverged,
                           match="after the epoch's last step: params: .*NaN or inf"):
            T.fit(params, cfg, seqs, epochs=1, batch_size=4, seed=1,
                  names=names, out_dir=out_dir, on_step=corrupt)
        assert not list(tmp_path.glob("*.bin"))
        hs = M.forward_batch(params, cfg, [s[:3] for s in batches[-1]])
        assert np.isfinite(M.readout(params, hs.reshape(-1, cfg.n_c))).all()

    def test_nonfinite_gradient_norm_aborts_before_the_step(self, tmp_path,
                                                            monkeypatch):
        # an inf gradient must not reach Adam: the run stops at its batch,
        # with the parameters of the step before
        corpus = small_corpus(n_users=12)
        seqs, names = T.train_sequences(corpus)
        params, cfg = fresh("st-clstm", corpus)
        real = T.batch_loss_and_grads
        batches = []

        def poisoned(p, c, batch):
            loss, grads = real(p, c, batch)
            batches.append(batch)
            if len(batches) == 5:
                grads.w_out[2, 3] = np.inf
            return loss, grads

        seen = []
        monkeypatch.setattr(T, "batch_loss_and_grads", poisoned)
        with pytest.raises(T.TrainingDiverged, match="gradient norm inf"):
            T.fit(params, cfg, seqs, epochs=1, batch_size=2, seed=1,
                  names=names, out_dir=tmp_path,
                  on_step=lambda e, b, p: seen.append(p.flat.copy()))
        dump = json.loads((tmp_path / "divergence.json").read_text())
        name_of = {id(s): n for s, n in zip(seqs, names)}
        assert dump["batch_start"] == 8
        assert dump["sequences"] == [name_of[id(s)] for s in batches[4]]
        assert len(seen) == 4
        np.testing.assert_array_equal(params.flat, seen[-1])

    def test_early_stop_on_plateau(self):
        corpus = small_corpus()
        seqs, _ = T.train_sequences(corpus)
        params, cfg = fresh("lstm", corpus)
        res = T.fit(params, cfg, seqs, epochs=100, batch_size=4, lr=0.0,
                    seed=1, early_stop=True, patience=10, rel_tol=1e-4)
        assert res.stopped_early
        # lr=0 never improves: the best stays at epoch 1, stop at patience+1
        assert res.epochs_run == 11

    @pytest.mark.parametrize("patience", [0, -3])
    def test_patience_below_one_rejected(self, patience):
        # a patience below 1 would stop after epoch 1 while the loss falls
        corpus = small_corpus()
        seqs, _ = T.train_sequences(corpus)
        params, cfg = fresh("lstm", corpus)
        before = params.flat.copy()
        with pytest.raises(ValueError, match="patience"):
            T.fit(params, cfg, seqs, epochs=3, batch_size=4, early_stop=True,
                  patience=patience)
        np.testing.assert_array_equal(params.flat, before)

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


# sha256 of checkpoint.bin after training on from each stored checkpoint, as
# computed when the checkpoints were written (before parameters, gradients
# and Adam moments shared one flat buffer)
RESUMED_SHA256 = {
    "lstm": "4ec8aadf68e1c81cc28ac4d7c668a3f47fabf4005fb69e03e5a6a08bd485446f",
    "st-lstm": "3ba6b804d43dd9440edbabe1dd4be6ac7977254751ecf1734b450c818aff7663",
    "st-clstm": "b84121907e920abbbd8b9401a02ec399d5b6237032a477773fcefb5071cd037c",
}


class TestStoredCheckpoint:
    @pytest.mark.parametrize("variant", sorted(RESUMED_SHA256))
    def test_trains_on_to_the_recorded_bytes(self, variant, tmp_path):
        # tests/data/resume-<variant>.bin: 2 epochs (lr 0.02, batch 4, seed 1)
        # of an n_i 3, n_c 4 model drawn with seed 5 on this corpus
        stored = Path(__file__).parent / "data" / f"resume-{variant}.bin"
        params, cfg, adam = M.load_checkpoint(stored)
        assert cfg.variant == variant and adam is not None and adam.t == 4
        assert adam.m.layout == adam.v.layout == params.layout
        M.save_checkpoint(tmp_path / "again.bin", params, cfg, adam)
        assert (tmp_path / "again.bin").read_bytes() == stored.read_bytes()
        corpus = data.synth_corpus(3, n_users=6, n_pois=20, length=14, n_short=2)
        seqs, _ = T.train_sequences(corpus)
        T.fit(params, cfg, seqs, epochs=2, batch_size=4, seed=2, adam=adam,
              out_dir=tmp_path / "run")
        got = hashlib.sha256((tmp_path / "run" / "checkpoint.bin").read_bytes())
        assert got.hexdigest() == RESUMED_SHA256[variant]
