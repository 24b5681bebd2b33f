import argparse
import hashlib
import json

import numpy as np
import pytest

from stpoi import container, data
from stpoi import model as M
from stpoi.cells import GateAblation
from stpoi.cli import build_parser, main
from stpoi.data import CheckIn

from helpers import overflowing_readout, poi_index


def run(*argv):
    return main(list(argv))


def status(*argv):
    """Exit status of a run, whether the parser or the command sets it."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def synth_cache(tmp_path):
    path = tmp_path / "corpus.bin"
    rc = run("prepare", "--synth", "--users", "6", "--pois", "20",
             "--length", "14", "--short", "2", "--seed", "7",
             "--out", str(path))
    assert rc == 0
    return path


class TestPrepare:
    def test_synth_deterministic_cache(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        for p in (p1, p2):
            assert run("prepare", "--synth", "--users", "5", "--pois", "16",
                       "--length", "12", "--seed", "3", "--out", str(p)) == 0
        assert p1.read_bytes() == p2.read_bytes()
        out = capsys.readouterr().out
        assert "users 5" in out and "density" in out

    def test_file_pipeline_stats(self, tmp_path, capsys):
        src = tmp_path / "checkins.txt"
        lines = []
        for u in range(12):
            for t in range(12):
                lines.append(f"u{u}\t{1000 * u + 60 * t}\t0.0\t0.0\tp{t}\n")
        # one user too small to survive cleaning
        lines.append("tiny\t5\t0.0\t0.0\tp0\n")
        src.write_text("".join(lines))
        out = tmp_path / "c.bin"
        assert run("prepare", "--input", str(src), "--format", "snap",
                   "--out", str(out)) == 0
        report = capsys.readouterr().out
        assert "raw_users 13" in report
        assert "users 12" in report          # tiny dropped by cleaning
        assert (tmp_path / "c.bin.stats.txt").exists()
        corpus = data.load_corpus(out)
        assert len(corpus.users) == 12

    def test_missing_file_no_partial_cache(self, tmp_path, capsys):
        out = tmp_path / "c.bin"
        rc = run("prepare", "--input", str(tmp_path / "nope.txt"),
                 "--out", str(out))
        assert rc == 2
        assert not out.exists()
        assert "prepare:" in capsys.readouterr().err

    def test_non_utf8_input_exits_2_before_writing(self, tmp_path, capsys):
        src = tmp_path / "checkins.txt"
        src.write_bytes(b"\xff\xfeu\x000\x00\t\x001\x00\n\x00")
        out = tmp_path / "c.bin"
        assert run("prepare", "--input", str(src), "--out", str(out)) == 2
        assert list(tmp_path.iterdir()) == [src]
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "not UTF-8 text at byte 0" in err and "Traceback" not in err

    def test_requires_input_or_synth(self, tmp_path, capsys):
        assert status("prepare", "--out", str(tmp_path / "c.bin")) == 2
        assert not list(tmp_path.iterdir())
        assert "--synth" in capsys.readouterr().err


class TestTrain:
    def test_run_dir_contents(self, synth_cache, tmp_path, capsys):
        out = tmp_path / "run"
        rc = run("train", "--corpus", str(synth_cache), "--out-dir", str(out),
                 "--variant", "st-clstm", "--cell-size", "6",
                 "--embed-size", "5", "--epochs", "2", "--batch-size", "4",
                 "--seed", "1")
        assert rc == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["seed"] == 1 and cfg["variant"] == "st-clstm"
        assert len(cfg["corpus_sha256"]) == 64
        assert (out / "checkpoint.bin").exists()
        assert (out / "epoch-0001.bin").exists()
        losses = (out / "losses.tsv").read_text().splitlines()
        assert len(losses) == 2
        stdout = capsys.readouterr().out
        assert "parameters (enumerated" in stdout
        assert "quoted formula" in stdout

    def test_identical_seed_bitwise_checkpoint(self, synth_cache, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("train", "--corpus", str(synth_cache), "--out-dir",
                       str(out), "--cell-size", "5", "--embed-size", "4",
                       "--epochs", "2", "--seed", "9") == 0
            outs.append((out / "checkpoint.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_divergence_in_the_forward_exits_3_with_dump(self, synth_cache,
                                                         tmp_path, capsys):
        # a step size this large sends the parameters past the range where
        # the gate pre-activations stay finite
        out = tmp_path / "run"
        rc = run("train", "--corpus", str(synth_cache), "--out-dir", str(out),
                 "--cell-size", "4", "--embed-size", "4", "--epochs", "3",
                 "--lr", "1e300")
        assert rc == 3
        err = capsys.readouterr().err
        assert "NaN or inf" in err and len(err.strip().splitlines()) == 1
        dump = json.loads((out / "divergence.json").read_text())
        assert "NaN or inf" in dump["error"]
        assert not (out / "checkpoint.bin").exists()

    def test_divergence_at_the_last_step_writes_no_checkpoint(self, tmp_path,
                                                             capsys):
        # one batch per epoch: no later batch checks the only step, whose
        # parameters stay finite (about 1e300) while the gate products
        # overflow
        corpus = tmp_path / "corpus.bin"
        assert run("prepare", "--synth", "--users", "20",
                   "--out", str(corpus)) == 0
        out = tmp_path / "run"
        rc = run("train", "--corpus", str(corpus), "--out-dir", str(out),
                 "--lr", "1e300", "--epochs", "1", "--batch-size", "100")
        assert rc == 3
        err = capsys.readouterr().err
        assert "last step" in err and len(err.strip().splitlines()) == 1
        dump = json.loads((out / "divergence.json").read_text())
        assert "NaN or inf" in dump["error"] and dump["epoch"] == 1
        assert not (out / "checkpoint.bin").exists()
        assert not list(out.glob("epoch-*.bin"))

    def test_ablation_flags_recorded(self, synth_cache, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--corpus", str(synth_cache), "--out-dir",
                   str(out), "--cell-size", "4", "--embed-size", "4",
                   "--epochs", "1", "--fix-t1", "--fix-t2") == 0
        _, cfg, _ = M.load_checkpoint(out / "checkpoint.bin")
        assert cfg.ablation.fix_t1 and cfg.ablation.fix_t2
        assert not cfg.ablation.fix_d1
        saved = json.loads((out / "config.json").read_text())
        assert saved["ablation"]["fix_t1"] is True

    def test_corpus_header_mismatch_rejected(self, synth_cache, tmp_path,
                                             capsys):
        meta, arrays = container.load(synth_cache)
        meta["users"][0]["n"] += 5
        container.save(synth_cache, meta, arrays)
        rc = run("train", "--corpus", str(synth_cache), "--out-dir",
                 str(tmp_path / "run"), "--epochs", "1")
        assert rc == 2
        err = capsys.readouterr().err
        assert "users hold" in err and len(err.strip().splitlines()) == 1

    def test_missing_corpus(self, tmp_path, capsys):
        rc = run("train", "--corpus", str(tmp_path / "nope.bin"),
                 "--out-dir", str(tmp_path / "run"))
        assert rc == 2


class TestEval:
    def oracle_setup(self, tmp_path):
        # every user's one test transition lands on the same POI, and a
        # biased output bias ranks that POI first: all metrics must be 1.0
        recs = []
        for u in range(3):
            for t, poi in enumerate(["a", "b", "b", "b"]):
                recs.append(CheckIn(user=f"u{u}", ts=1000.0 * u + 60 * t,
                                    lat=0.0, lon=0.0, poi=poi))
        corpus = data.build_corpus(recs)
        corpus_path = tmp_path / "oracle.bin"
        data.save_corpus(corpus, corpus_path)
        cfg = M.ModelConfig(variant="lstm", vocab=corpus.n_pois, n_i=3, n_c=3)
        params = M.init_model(cfg, np.random.default_rng(0))
        for arr in params.tensors().values():
            arr[...] = 0.0
        params.b_out[poi_index(corpus)["b"]] = 5.0
        ck = tmp_path / "oracle-ck.bin"
        M.save_checkpoint(ck, params, cfg)
        return corpus_path, ck

    def test_oracle_checkpoint_scores_one(self, tmp_path, capsys):
        corpus_path, ck = self.oracle_setup(tmp_path)
        out = tmp_path / "eval"
        rc = run("eval", "--corpus", str(corpus_path), "--checkpoint",
                 str(ck), "--cohort", "all", "--out-dir", str(out),
                 "--dump-ranks")
        assert rc == 0
        payload = json.loads((out / "metrics.json").read_text())
        (rep,) = payload
        assert rep["cohort"] == "all"
        assert all(v == 1.0 for v in rep["acc"].values())
        assert rep["map"] == 1.0
        ranks = (out / "ranks.tsv").read_text().splitlines()
        assert ranks[0] == "user\tstep\trank"
        assert len(ranks) == 1 + rep["n_instances"]
        assert (out / "metrics.txt").exists()

    def test_random_checkpoint_near_uniform(self, tmp_path, capsys):
        corpus = data.synth_corpus(11, n_users=12, n_pois=40, length=30)
        corpus_path = tmp_path / "c.bin"
        data.save_corpus(corpus, corpus_path)
        cfg = M.ModelConfig(variant="st-lstm", vocab=corpus.n_pois, n_i=6,
                            n_c=8)
        params = M.init_model(cfg, np.random.default_rng(2))
        ck = tmp_path / "rand.bin"
        M.save_checkpoint(ck, params, cfg)
        assert run("eval", "--corpus", str(corpus_path), "--checkpoint",
                   str(ck), "--cohort", "all") == 0
        out = capsys.readouterr().out
        acc10 = float([ln for ln in out.splitlines()
                       if ln.startswith("acc@10 ")][0].split()[1])
        # untrained ranking: acc@10 should sit near 10/vocab
        expect = 10.0 / corpus.n_pois
        assert expect - 0.15 <= acc10 <= expect + 0.20

    def test_explicit_empty_cold_cohort_errors(self, tmp_path, capsys):
        corpus = data.synth_corpus(3, n_users=4, n_pois=16, length=20)
        corpus_path = tmp_path / "c.bin"
        data.save_corpus(corpus, corpus_path)
        cfg = M.ModelConfig(variant="lstm", vocab=corpus.n_pois, n_i=3, n_c=3)
        params = M.init_model(cfg, np.random.default_rng(0))
        ck = tmp_path / "ck.bin"
        M.save_checkpoint(ck, params, cfg)
        rc = run("eval", "--corpus", str(corpus_path), "--checkpoint",
                 str(ck), "--cohort", "cold", "--cold-threshold", "5")
        assert rc == 2
        assert "empty" in capsys.readouterr().err
        # in the default both-cohort mode the same corpus is not an error
        assert run("eval", "--corpus", str(corpus_path), "--checkpoint",
                   str(ck)) == 0
        assert "n_instances 0" in capsys.readouterr().out

    def test_repeated_user_id_exits_2(self, tmp_path, capsys):
        # renaming warm u2 to cold u0 would put u2's instances in the cold
        # cohort and make ranks.tsv rows ambiguous
        corpus = data.synth_corpus(0, n_users=8, n_pois=40, length=12, n_short=2)
        corpus_path = tmp_path / "c.bin"
        data.save_corpus(corpus, corpus_path)
        meta, arrays = container.load(corpus_path)
        meta["users"][2]["user"] = "u0"
        container.save(corpus_path, meta, arrays)
        cfg = M.ModelConfig(variant="lstm", vocab=corpus.n_pois, n_i=3, n_c=3)
        ck = tmp_path / "ck.bin"
        M.save_checkpoint(ck, M.init_model(cfg, np.random.default_rng(0)), cfg)
        rc = run("eval", "--corpus", str(corpus_path), "--checkpoint", str(ck))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "'u0' repeats" in err[0]

    def test_overflowing_logits_exit_2(self, tmp_path, capsys):
        corpus = data.synth_corpus(5, n_users=6, n_pois=36, pattern="interval",
                                   length=12)
        corpus_path = tmp_path / "c.bin"
        data.save_corpus(corpus, corpus_path)
        params, cfg = overflowing_readout(corpus)
        ck = tmp_path / "ck.bin"
        M.save_checkpoint(ck, params, cfg)
        # the directories made for --out-dir before ranking go again
        out = tmp_path / "runs" / "eval"
        rc = run("eval", "--corpus", str(corpus_path), "--checkpoint", str(ck),
                 "--out-dir", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert "NaN or inf" in err and len(err.strip().splitlines()) == 1
        assert not out.exists() and not out.parent.exists()

    def test_vocab_mismatch(self, synth_cache, tmp_path, capsys):
        cfg = M.ModelConfig(variant="lstm", vocab=99, n_i=3, n_c=3)
        params = M.init_model(cfg, np.random.default_rng(0))
        ck = tmp_path / "ck.bin"
        M.save_checkpoint(ck, params, cfg)
        rc = run("eval", "--corpus", str(synth_cache), "--checkpoint",
                 str(ck))
        assert rc == 2
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("name, bad, message", [
        ("w_c", None, "missing tensors w_c"),
        ("w_out", lambda vocab: np.zeros((vocab, 4)), "w_out"),
        ("b_out", lambda vocab: np.zeros(vocab + 1), "b_out"),
    ], ids=["missing-cell-tensor", "w_out-shape", "b_out-shape"])
    def test_malformed_checkpoint_rejected(self, synth_cache, tmp_path, capsys,
                                           name, bad, message):
        vocab = data.load_corpus(synth_cache).n_pois
        cfg = M.ModelConfig(variant="st-lstm", vocab=vocab, n_i=3, n_c=3)
        ck = tmp_path / "ck.bin"
        M.save_checkpoint(ck, M.init_model(cfg, np.random.default_rng(0)), cfg)
        meta, arrays = container.load(ck)
        if bad is None:
            del arrays[f"param.{name}"]
        else:
            arrays[f"param.{name}"] = bad(vocab)
        container.save(ck, meta, arrays)
        rc = run("eval", "--corpus", str(synth_cache), "--checkpoint", str(ck))
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["config"].pop("ablation"), "missing field 'ablation'"),
        (lambda m: m["config"].update(n_c="3"), "field 'n_c' has type str"),
        (lambda m: m["config"]["ablation"].update(fix_t1=1),
         "field 'fix_t1' has type int"),
        (lambda m: m["config"].update(extra=1), "unknown field 'extra'"),
        (lambda m: m.pop("config"), "expected an object"),
        (lambda m: m["adam"].pop("lr"), "missing field 'lr'"),
    ], ids=["missing-ablation", "n_c-string", "ablation-int", "unknown-field",
            "no-config", "adam-missing-lr"])
    def test_malformed_config_rejected(self, synth_cache, tmp_path, capsys,
                                       edit, message):
        from stpoi.optim import AdamState

        vocab = data.load_corpus(synth_cache).n_pois
        cfg = M.ModelConfig(variant="st-lstm", vocab=vocab, n_i=3, n_c=3)
        params = M.init_model(cfg, np.random.default_rng(0))
        ck = tmp_path / "ck.bin"
        M.save_checkpoint(ck, params, cfg,
                          AdamState.for_tensors(params.tensors()))
        meta, arrays = container.load(ck)
        edit(meta)
        container.save(ck, meta, arrays)
        rc = run("eval", "--corpus", str(synth_cache), "--checkpoint", str(ck))
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1

    def test_unknown_constraint_target_exits_2(self, synth_cache, tmp_path,
                                                capsys):
        vocab = data.load_corpus(synth_cache).n_pois
        cfg = M.ModelConfig(variant="lstm", vocab=vocab, n_i=3, n_c=3)
        ck = tmp_path / "ck.bin"
        M.save_checkpoint(ck, M.init_model(cfg, np.random.default_rng(0)), cfg)
        meta, arrays = container.load(ck)
        meta["config"]["constraint_target"] = "bogus"
        container.save(ck, meta, arrays)
        rc = run("eval", "--corpus", str(synth_cache), "--checkpoint", str(ck))
        assert rc == 2
        err = capsys.readouterr().err
        assert "constraint_target 'bogus'" in err
        assert len(err.strip().splitlines()) == 1

    def test_truncated_checkpoint_rejected(self, synth_cache, tmp_path, capsys):
        vocab = data.load_corpus(synth_cache).n_pois
        cfg = M.ModelConfig(variant="lstm", vocab=vocab, n_i=3, n_c=3)
        ck = tmp_path / "ck.bin"
        M.save_checkpoint(ck, M.init_model(cfg, np.random.default_rng(0)), cfg)
        ck.write_bytes(ck.read_bytes()[:6])
        rc = run("eval", "--corpus", str(synth_cache), "--checkpoint", str(ck))
        assert rc == 2
        err = capsys.readouterr().err
        assert "truncated" in err and len(err.strip().splitlines()) == 1


class TestEvalCohorts:
    """`stpoi eval` ranks each user once, whatever the cohorts asked for,
    on a corpus of 20 users of which 6 are cold."""

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cohorts")
        corpus = data.synth_corpus(0, n_users=20, n_pois=40, length=30,
                                   n_short=6)
        corpus_path = tmp / "c.bin"
        data.save_corpus(corpus, corpus_path)
        cfg = M.ModelConfig(variant="st-clstm", vocab=corpus.n_pois, n_i=6,
                            n_c=8)
        ck = tmp / "ck.bin"
        M.save_checkpoint(ck, M.init_model(cfg, np.random.default_rng(2)), cfg)
        return corpus, corpus_path, ck, tmp

    @pytest.mark.parametrize("cohort", ["both", "all", "cold"])
    def test_each_user_forwarded_once(self, setup, cohort, monkeypatch):
        from stpoi import eval as E

        corpus, corpus_path, ck, _ = setup
        lengths = []

        def counting(params, cfg, seqs, at=None):
            lengths.extend(len(s[0]) for s in seqs)
            return forward_batch(params, cfg, seqs, at=at)

        forward_batch = E.forward_batch
        monkeypatch.setattr(E, "forward_batch", counting)
        assert run("eval", "--corpus", str(corpus_path), "--checkpoint",
                   str(ck), "--cohort", cohort) == 0
        ranked = [u for u in corpus.users if len(u.pois) > u.n_train
                  and (cohort != "cold" or u.n_train < 5)]
        assert len(ranked) == (6 if cohort == "cold" else 20)
        assert sorted(lengths) == sorted(len(u.pois) - 1 for u in ranked)

    @pytest.mark.parametrize("exclude", [False, True])
    def test_both_is_all_then_cold(self, setup, exclude, capsys):
        _, corpus_path, ck, tmp = setup
        got = {}
        for cohort in ("all", "cold", "both"):
            out = tmp / f"{cohort}-{exclude}"
            argv = ["eval", "--corpus", str(corpus_path), "--checkpoint",
                    str(ck), "--cohort", cohort, "--out-dir", str(out),
                    "--dump-ranks"] + ["--exclude-visited"] * exclude
            assert run(*argv) == 0
            got[cohort] = (capsys.readouterr().out,
                           (out / "metrics.txt").read_text(),
                           json.loads((out / "metrics.json").read_text()),
                           (out / "ranks.tsv").read_text().splitlines())
        stdout, text, payload, ranks = got["both"]
        # reports are separated by one blank line
        assert stdout == got["all"][0] + "\n" + got["cold"][0]
        assert text == got["all"][1] + "\n" + got["cold"][1]
        assert payload == got["all"][2] + got["cold"][2]
        assert [rep["cohort"] for rep in payload] == ["all", "cold"]
        assert ranks[0] == "user\tstep\trank"
        assert ranks == got["all"][3] + got["cold"][3][1:]
        assert len(got["cold"][3]) > 1

    def test_empty_cold_cohort_is_reported_in_order(self, tmp_path, capsys):
        # every user has at least 5 training records, so cold is empty
        corpus = data.synth_corpus(3, n_users=8, n_pois=40, length=30)
        assert all(u.n_train >= 5 for u in corpus.users)
        corpus_path = tmp_path / "c.bin"
        data.save_corpus(corpus, corpus_path)
        cfg = M.ModelConfig(variant="st-lstm", vocab=corpus.n_pois, n_i=4,
                            n_c=6)
        ck = tmp_path / "ck.bin"
        M.save_checkpoint(ck, M.init_model(cfg, np.random.default_rng(4)), cfg)
        out = tmp_path / "eval"
        assert run("eval", "--corpus", str(corpus_path), "--checkpoint",
                   str(ck), "--cohort", "both", "--out-dir", str(out),
                   "--dump-ranks") == 0
        stdout = capsys.readouterr().out
        assert stdout == (out / "metrics.txt").read_text()
        assert stdout.startswith("cohort all\n")
        assert stdout.endswith("\n\ncohort cold\nn_instances 0\n")
        payload = json.loads((out / "metrics.json").read_text())
        assert [rep["cohort"] for rep in payload] == ["all", "cold"]
        assert payload[1] == {"cohort": "cold", "n_instances": 0, "acc": {},
                              "map": None}
        ranks = (out / "ranks.tsv").read_text().splitlines()
        assert len(ranks) == 1 + payload[0]["n_instances"]


class TestGrid:
    def test_cross_product_and_determinism(self, synth_cache, tmp_path,
                                           capsys):
        out1 = tmp_path / "g1"
        argv = ("grid", "--corpus", str(synth_cache),
                "--variants", "lstm,st-clstm", "--cell-sizes", "4,6",
                "--batch-sizes", "4", "--seeds", "0", "--embed-size", "4",
                "--epochs", "1")
        assert run(*argv, "--out-dir", str(out1)) == 0
        table = (out1 / "grid.tsv").read_text().splitlines()
        assert len(table) == 1 + 4            # header + 2 variants x 2 cells
        assert table[0].startswith("leg\tvariant")
        out2 = tmp_path / "g2"
        assert run(*argv, "--out-dir", str(out2)) == 0
        assert ((out1 / "grid.tsv").read_text()
                == (out2 / "grid.tsv").read_text())

    def test_ablation_rows_skip_lstm(self, synth_cache, tmp_path):
        out = tmp_path / "g"
        assert run("grid", "--corpus", str(synth_cache),
                   "--variants", "lstm,st-clstm",
                   "--ablations", "none,time-only,distance-only",
                   "--cell-sizes", "4", "--batch-sizes", "4", "--seeds", "0",
                   "--embed-size", "4", "--epochs", "1",
                   "--out-dir", str(out)) == 0
        rows = (out / "grid.tsv").read_text().splitlines()[1:]
        # lstm contributes one row (ablations don't apply), st-clstm three
        assert len(rows) == 4

    def test_each_leg_is_a_train_run_directory(self, synth_cache, tmp_path):
        shared = ("--embed-size", "4", "--epochs", "2", "--lr", "0.01",
                  "--clip-norm", "1.5", "--constraint-target", "input")
        assert run("grid", "--corpus", str(synth_cache),
                   "--variants", "lstm,st-lstm", "--ablations", "none,short-only",
                   "--cell-sizes", "4", "--batch-sizes", "3", "--seeds", "0,2",
                   *shared, "--out-dir", str(tmp_path / "g")) == 0
        sha = hashlib.sha256(synth_cache.read_bytes()).hexdigest()
        legs = [(v, a, s) for v, a in (("lstm", "none"), ("st-lstm", "none"),
                                       ("st-lstm", "short-only"))
                for s in (0, 2)]
        for variant, ablation, seed in legs:
            leg = tmp_path / "g" / f"{variant}-{ablation}-c4-b3-s{seed}"
            cfg = json.loads((leg / "config.json").read_text())
            assert cfg["command"] == "grid" and cfg["corpus_sha256"] == sha
            assert (cfg["variant"], cfg["cell_size"], cfg["batch_size"],
                    cfg["seed"]) == (variant, 4, 3, seed)
            assert cfg["ablation"] == GateAblation.from_name(ablation).to_dict()
            assert len((leg / "losses.tsv").read_text().splitlines()) == 2
            assert sorted(p.name for p in leg.glob("*.bin")) == [
                "checkpoint.bin", "epoch-0001.bin", "epoch-0002.bin"]
        # train given a leg's values reruns that leg bit for bit
        assert run("train", "--corpus", str(synth_cache), "--variant", "st-lstm",
                   "--ablation", "short-only", "--cell-size", "4",
                   "--batch-size", "3", "--seed", "2", *shared,
                   "--out-dir", str(tmp_path / "run")) == 0
        for name in ("checkpoint.bin", "losses.tsv"):
            assert ((tmp_path / "run" / name).read_bytes() == (
                tmp_path / "g" / "st-lstm-short-only-c4-b3-s2" / name).read_bytes())

    def test_failed_legs_exit_1_with_nan_rows(self, synth_cache, tmp_path,
                                              capsys):
        # a step of 1e300 takes the parameters past the overflow bound in
        # epoch 1, so both legs diverge; the grid still writes its table
        out = tmp_path / "g"
        assert run("grid", "--corpus", str(synth_cache),
                   "--variants", "lstm,st-clstm", "--cell-sizes", "4",
                   "--batch-sizes", "4", "--seeds", "0", "--embed-size", "4",
                   "--epochs", "2", "--lr", "1e300", "--out-dir", str(out)) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "grid: 2 leg(s) failed"
        rows = [r.split("\t") for r in (out / "grid.tsv").read_text().splitlines()[1:]]
        assert sorted(r[0] for r in rows) == ["lstm-none-c4-b4-s0",
                                              "st-clstm-none-c4-b4-s0"]
        for r in rows:
            assert r[6:10] == ["nan"] * 4 and r[10].startswith("failed: ")
            leg = out / r[0]
            assert sorted(p.name for p in leg.iterdir()) == ["config.json",
                                                             "divergence.json"]

    def test_unknown_variant_rejected(self, synth_cache, tmp_path, capsys):
        for flag, name in (("--variants", "gru"), ("--ablations", "all-off")):
            rc = status("grid", "--corpus", str(synth_cache), flag, name,
                        "--out-dir", str(tmp_path / "g"))
            assert rc == 2
            assert name in capsys.readouterr().err
            assert not (tmp_path / "g").exists()


class TestGradcheck:
    def test_all_variants_pass(self, capsys):
        assert run("gradcheck", "--steps", "3") == 0
        out = capsys.readouterr().out
        assert out.count("gradient check ok") == 3

    def test_single_variant(self, capsys):
        assert run("gradcheck", "--variant", "st-clstm", "--steps", "2") == 0
        assert "st-clstm" in capsys.readouterr().out


class TestParser:
    @pytest.mark.parametrize("argv", [
        ("train", "--epochs", "0"),
        ("train", "--batch-size", "0"),
        ("train", "--cell-size", "0"),
        ("train", "--bptt-cap", "0"),
        ("eval", "--topk", "1,x"),
        ("eval", "--topk", "0,5"),
        ("grid", "--cell-sizes", "4,-1"),
        ("train", "--lr", "nan"),
        ("train", "--lr", "0"),
        ("train", "--clip-norm", "nan"),
        ("grid", "--lr", "-0.001"),
        ("grid", "--clip-norm", "inf"),
        ("train", "--patience", "0"),
        ("train", "--patience", "-3"),
        ("eval", "--cold-threshold", "-1"),
    ], ids=["epochs-0", "batch-size-0", "cell-size-0", "bptt-cap-0",
            "topk-word", "topk-0", "grid-cell-size-negative", "lr-nan", "lr-0",
            "clip-norm-nan", "grid-lr-negative", "grid-clip-norm-inf",
            "patience-0", "patience-negative", "cold-threshold-negative"])
    def test_bad_numeric_flag_exits_2_before_writing(self, synth_cache, tmp_path,
                                                     capsys, argv):
        out = tmp_path / "out"
        ck = tmp_path / "ck.bin"
        cfg = M.ModelConfig(variant="lstm", vocab=data.load_corpus(synth_cache).n_pois,
                            n_i=3, n_c=3)
        M.save_checkpoint(ck, M.init_model(cfg, np.random.default_rng(0)), cfg)
        paths = {"train": ("--out-dir", str(out)), "grid": ("--out-dir", str(out)),
                 "eval": ("--checkpoint", str(ck), "--out-dir", str(out))}
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--corpus", str(synth_cache), *paths[argv[0]])
        assert exc.value.code == 2
        assert not out.exists()
        assert argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--pois", "0"), ("--pois", "10"), ("--train-frac", "2"),
        ("--jump-every", "0"), ("--users", "0"), ("--users", "-2"),
        ("--length", "1"), ("--clip-dt", "-1"), ("--clip-dd", "nan"),
        ("--pattern", "interval"), ("--short", "-1"),
        ("--min-user-checkins", "-1"), ("--min-poi-users", "-1"),
    ], ids=["pois-0", "pois-below-periodic-minimum", "train-frac-2",
            "jump-every-0", "users-0", "users-negative", "length-1",
            "clip-dt-negative", "clip-dd-nan", "interval-too-few-pois",
            "short-negative", "min-user-checkins-negative",
            "min-poi-users-negative"])
    def test_bad_prepare_input_exits_2_before_writing(self, tmp_path, capsys, flags):
        out = tmp_path / "c.bin"
        argv = ("prepare", "--synth", "--users", "4", "--pois", "20", "--length", "8",
                *flags, "--out", str(out))
        assert status(*argv) == 2
        assert not out.exists() and not list(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert err.strip() and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "0"), ("--eps", "nan"), ("--tol", "-1"), ("--tol", "inf")])
    def test_bad_gradcheck_step_exits_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run("gradcheck", flag, value)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_every_numeric_flag_has_a_checked_type(self):
        # a bare int or float accepts values the command cannot use
        (commands,) = [a.choices for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        bare = [f"{command} {action.option_strings[0]}"
                for command, parser in commands.items()
                for action in parser._actions if action.type in (int, float)]
        assert bare == []

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            run("conjure")

    def test_missing_required(self):
        with pytest.raises(SystemExit):
            run("train")


class TestExitStatus:
    """A flag value, input or output path the command cannot use exits 2
    with one line on stderr, no traceback, and nothing written."""

    @pytest.fixture()
    def inputs(self, tmp_path, synth_cache, capsys):
        checkins = tmp_path / "checkins.tsv"
        checkins.write_text("")
        # three check-ins of one user, whom cleaning drops
        one_user = tmp_path / "one-user.tsv"
        one_user.write_text("".join(f"u0\t{60 * t}\t0.0\t0.0\tp{t}\n"
                                    for t in range(3)))
        empty = tmp_path / "empty.bin"     # a corpus with no users or POIs
        data.save_corpus(data.build_corpus([]), empty)
        cfg = M.ModelConfig(variant="lstm",
                            vocab=data.load_corpus(synth_cache).n_pois,
                            n_i=3, n_c=3)
        ck = tmp_path / "ck.bin"
        M.save_checkpoint(ck, M.init_model(cfg, np.random.default_rng(0)), cfg)
        # checkpoints that hold no valid model: one more tensor, or a
        # config that ModelConfig rejects
        meta, arrays = container.load(ck)
        bad = {"ck_extra": (meta, {**arrays, "param.extra": np.zeros(1)})}
        for name, value in (("n_c", 0), ("bptt_cap", 0), ("variant", "gru")):
            bad[f"ck_{name}"] = ({**meta, "config": {**meta["config"],
                                                     name: value}}, arrays)
        for name, (m, a) in bad.items():
            container.save(tmp_path / f"{name}.bin", m, a)
        file = tmp_path / "file"
        file.write_text("")
        capsys.readouterr()
        return {"tmp": tmp_path, "corpus": synth_cache, "empty": empty,
                "checkins": checkins, "one_user": one_user, "ck": ck,
                "file": file, **{name: tmp_path / f"{name}.bin" for name in bad}}

    @pytest.mark.parametrize("argv, message", [
        ("train --corpus {corpus} --out-dir {tmp}/run --seed -1", "--seed"),
        ("gradcheck --seed -1", "--seed"),
        ("grid --corpus {corpus} --out-dir {tmp}/g --seeds -1", "--seeds"),
        ("prepare --synth --seed -1 --out {tmp}/c.bin", "--seed"),
        ("train --corpus {empty} --out-dir {tmp}/run", "no training transitions"),
        ("grid --corpus {empty} --out-dir {tmp}/g", "no training transitions"),
        ("train --corpus {corpus} --out-dir {file}", "File exists"),
        ("eval --corpus {corpus} --checkpoint {ck} --out-dir {file}",
         "File exists"),
        ("grid --corpus {corpus} --out-dir {file}", "File exists"),
        ("prepare --synth --users 4 --pois 20 --length 8 --out {file}/c.bin",
         "File exists"),
        ("prepare --synth --input {checkins} --out {tmp}/c.bin", "--input"),
        ("prepare --input {checkins} --out {tmp}/c.bin", "no user"),
        ("prepare --input {one_user} --out {tmp}/c.bin", "no user"),
        ("grid --corpus {corpus} --out-dir {tmp}/g --seeds=", "--seeds"),
        ("grid --corpus {corpus} --out-dir {tmp}/g --variants ,", "--variants"),
        ("grid --corpus {corpus} --out-dir {tmp}/g --ablations=", "--ablations"),
        ("grid --corpus {corpus} --out-dir {tmp}/g --cell-sizes ,,",
         "--cell-sizes"),
        ("grid --corpus {corpus} --out-dir {tmp}/g --batch-sizes=",
         "--batch-sizes"),
        ("eval --corpus {corpus} --checkpoint {ck} --topk=", "--topk"),
        ("grid --corpus {corpus} --out-dir {tmp}/g --variants lstm --seeds 0,0",
         "--seeds"),
        ("grid --corpus {corpus} --out-dir {tmp}/g --cell-sizes 4,04",
         "--cell-sizes"),
        ("eval --corpus {corpus} --checkpoint {ck} --topk 1,5,1", "--topk"),
        ("grid --corpus {corpus} --out-dir {tmp}/g --variants lstm "
         "--ablations time-only,long-only", "no legs"),
        ("eval --corpus {corpus} --checkpoint {ck_extra}",
         "unexpected tensors extra"),
        ("eval --corpus {corpus} --checkpoint {ck_n_c}",
         "n_c must all be positive"),
        ("eval --corpus {corpus} --checkpoint {ck_bptt_cap}",
         "bptt_cap must be None or >= 1"),
        ("eval --corpus {corpus} --checkpoint {ck_variant}",
         "unknown variant 'gru'"),
    ], ids=["train-seed-negative", "gradcheck-seed-negative",
            "grid-seeds-negative", "prepare-seed-negative",
            "train-empty-corpus", "grid-empty-corpus", "train-out-dir-file",
            "eval-out-dir-file", "grid-out-dir-file", "prepare-out-under-file",
            "prepare-synth-and-input", "prepare-empty-file",
            "prepare-every-user-cleaned", "grid-seeds-empty",
            "grid-variants-empty", "grid-ablations-empty",
            "grid-cell-sizes-empty", "grid-batch-sizes-empty", "eval-topk-empty",
            "grid-seeds-repeated", "grid-cell-sizes-repeated",
            "eval-topk-repeated", "grid-no-legs", "eval-extra-tensor",
            "eval-n_c-zero", "eval-bptt_cap-zero", "eval-unknown-variant"])
    def test_exits_2_with_one_line_and_writes_nothing(self, inputs, capsys,
                                                      argv, message):
        before = sorted(inputs["tmp"].rglob("*"))
        assert status(*[tok.format(**inputs) for tok in argv.split()]) == 2
        out, err = capsys.readouterr()
        assert out == ""           # no command output before it fails
        assert len(err.strip().splitlines()) == 1
        assert message in err and "Traceback" not in err
        assert sorted(inputs["tmp"].rglob("*")) == before
