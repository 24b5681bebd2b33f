import math
import tracemalloc

import numpy as np
import pytest

from stpoi import cells
from stpoi import data
from stpoi import eval as E
from stpoi import model as M
from stpoi import numkit
from stpoi import train as T
from stpoi.cells import GateAblation, zero_state
from stpoi.numkit import NonFiniteError
from stpoi.optim import AdamState, fd_check

from helpers import (largest_sum, per_step_forward, per_step_loss_and_grads,
                     softmax_xent, step)


def tiny_cfg(variant, vocab=6, n_i=3, n_c=4, **kw):
    return M.ModelConfig(variant=variant, vocab=vocab, n_i=n_i, n_c=n_c, **kw)


def random_seq(rng, vocab, length):
    pois = rng.integers(0, vocab, size=length)
    targets = rng.integers(0, vocab, size=length)
    dts = rng.uniform(0.5, 30.0, size=length)
    dds = rng.uniform(0.0, 40.0, size=length)
    return pois, dts, dds, targets


def seq_logits(params, cfg, pois, dts, dds):
    """(T, vocab) logits after every step of one sequence."""
    return M.readout(params, M.forward_batch(params, cfg, [(pois, dts, dds)])[0])


def last_ranks(params, cfg, pois, dts, dds, keep=None):
    """Rank of every id after the final step (1 = predicted first)."""
    logits = seq_logits(params, cfg, pois, dts, dds)[-1:].repeat(cfg.vocab, 0)
    return E._ranks(logits, np.arange(cfg.vocab), keep)


def cap_term_rows(monkeypatch, n_c, rows):
    """Set the byte budget of cache-sized blocks so that interval-term
    blocks hold ``rows`` rows at ``n_c``."""
    monkeypatch.setattr(numkit, "BLOCK_BYTES", 32 * n_c * rows)
    assert M.term_rows(n_c) == rows


def zero_model(cfg):
    params = M.init_model(cfg, np.random.default_rng(0))
    for arr in params.tensors().values():
        arr[...] = 0.0
    return params


class TestForward:
    def test_zero_params_uniform(self):
        cfg = tiny_cfg("st-clstm")
        params = zero_model(cfg)
        logits = seq_logits(params, cfg, [2], [1.0], [3.0])
        np.testing.assert_array_equal(logits, np.zeros((1, 6)))
        loss, _ = M.loss_and_grads(params, cfg, [2], [1.0], [3.0], [4])
        assert loss == pytest.approx(math.log(6), rel=1e-12)

    def test_loss_is_mean_of_per_step_xent(self):
        cfg = tiny_cfg("st-lstm")
        rng = np.random.default_rng(3)
        params = M.init_model(cfg, rng)
        pois, dts, dds, targets = random_seq(rng, cfg.vocab, 3)
        logits = seq_logits(params, cfg, pois, dts, dds)
        manual = np.mean(
            [softmax_xent(logits[t], targets[t])[0] for t in range(3)]
        )
        loss, _ = M.loss_and_grads(params, cfg, pois, dts, dds, targets)
        assert loss == pytest.approx(manual, rel=1e-12)

    def test_vocabulary_permutation_symmetry(self):
        cfg = tiny_cfg("st-clstm")
        rng = np.random.default_rng(4)
        params = M.init_model(cfg, rng)
        pois, dts, dds, _ = random_seq(rng, cfg.vocab, 7)
        logits = seq_logits(params, cfg, pois, dts, dds)

        perm = rng.permutation(cfg.vocab)          # new id of old id j
        params2 = M.ModelParams(cfg, {
            **params, "embedding": params.embedding.copy(),
            "w_out": params.w_out.copy(), "b_out": params.b_out.copy(),
        })
        params2.embedding[perm] = params.embedding
        params2.w_out[perm] = params.w_out
        params2.b_out[perm] = params.b_out
        logits2 = seq_logits(params2, cfg, perm[pois], dts, dds)
        np.testing.assert_allclose(logits2[:, perm], logits, atol=1e-12)

    def test_softmax_of_final_logits_normalizes(self):
        cfg = tiny_cfg("st-lstm", vocab=23)
        rng = np.random.default_rng(5)
        params = M.init_model(cfg, rng)
        pois, dts, dds, _ = random_seq(rng, cfg.vocab, 9)
        logits = seq_logits(params, cfg, pois, dts, dds)
        e = np.exp(logits[-1] - logits[-1].max())
        assert abs(e.sum() / e.sum() - 1.0) < 1e-9      # exact by construction
        probs = e / e.sum()
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_streaming_step_matches_unrolled(self):
        cfg = tiny_cfg("st-clstm")
        rng = np.random.default_rng(6)
        params = M.init_model(cfg, rng)
        pois, dts, dds, _ = random_seq(rng, cfg.vocab, 8)
        hs = M.forward_batch(params, cfg, [(pois, dts, dds)])[0]
        logits = M.readout(params, hs)
        state = zero_state(cfg.n_c)
        for t in range(8):
            step_logits, state = step(params, cfg, state, int(pois[t]),
                                      dts[t], dds[t])
            np.testing.assert_allclose(step_logits, logits[t], atol=1e-12)
        np.testing.assert_allclose(state.h[0], hs[-1], atol=1e-12)

    def test_batched_forward_rows_equal_streaming_steps(self):
        cfg = tiny_cfg("st-lstm")
        rng = np.random.default_rng(7)
        params = M.init_model(cfg, rng)
        seqs = [random_seq(rng, cfg.vocab, n)[:3] for n in (5, 2, 7)]
        hs = M.forward_batch(params, cfg, seqs)
        assert hs.shape == (3, 7, cfg.n_c)
        for b, (pois, dts, dds) in enumerate(seqs):
            state = zero_state(cfg.n_c)
            for t in range(len(pois)):
                logits, state = step(params, cfg, state, int(pois[t]),
                                     dts[t], dds[t])
                np.testing.assert_array_equal(hs[b, t], state.h[0])
                np.testing.assert_array_equal(
                    M.readout(params, hs[b, t:t + 1])[0], logits)

    @pytest.mark.parametrize("term_rows", [512, 10])
    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_packed_forward_of_an_unsorted_ragged_batch(self, variant,
                                                        term_rows, monkeypatch):
        # the longest row is neither first nor alone, lengths tie, and one
        # row is a single step, so the live prefix shrinks unevenly; at 10
        # term rows a block holds from one to several steps
        cfg = tiny_cfg(variant, vocab=20, n_i=5, n_c=6)
        cap_term_rows(monkeypatch, cfg.n_c, term_rows)
        rng = np.random.default_rng(9)
        params = M.init_model(cfg, rng)
        lengths = (3, 11, 1, 7, 20, 11, 4, 20, 2)
        seqs = [random_seq(rng, cfg.vocab, n)[:3] for n in lengths]
        heights = {"step": [], "terms": []}

        def recording(name, kernel):
            def run(params, rows, *args):
                heights[name].append(len(rows))       # z or x rows
                return kernel(params, rows, *args)
            return run

        monkeypatch.setattr(M, "cell_step", recording("step", M.cell_step))
        monkeypatch.setattr(M, "interval_terms",
                            recording("terms", M.interval_terms))
        hs = M.forward_batch(params, cfg, seqs)
        # step t runs the sequences longer than t, and no term block is
        # taller than term_rows unless it holds a single step
        assert heights["step"] == [sum(n > t for n in lengths)
                                   for t in range(max(lengths))]
        assert sum(heights["terms"]) == sum(lengths)
        assert all(h <= max(term_rows, len(seqs)) for h in heights["terms"])
        np.testing.assert_array_equal(hs, per_step_forward(params, cfg, seqs))
        order = sorted(range(len(seqs)), key=lambda b: -len(seqs[b][0]))
        np.testing.assert_array_equal(
            M.forward_batch(params, cfg, [seqs[b] for b in order]), hs[order])

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_states_at_given_positions(self, variant):
        # an unsorted ragged batch; the positions in no order, one of them
        # twice
        cfg = tiny_cfg(variant, vocab=20, n_i=5, n_c=6)
        rng = np.random.default_rng(10)
        params = M.init_model(cfg, rng)
        lengths = (3, 11, 1, 7, 20, 11, 4, 20, 2)
        seqs = [random_seq(rng, cfg.vocab, n)[:3] for n in lengths]
        hs = M.forward_batch(params, cfg, seqs)
        np.testing.assert_array_equal(hs, per_step_forward(params, cfg, seqs))
        rows, steps = np.nonzero(np.arange(20) < np.array(lengths)[:, None])
        pick = rng.permutation(len(rows))[:40]
        rows, steps = rows[[*pick, pick[0]]], steps[[*pick, pick[0]]]
        np.testing.assert_array_equal(
            M.forward_batch(params, cfg, seqs, at=(rows, steps)),
            hs[rows, steps])

    def test_readout_into_a_buffer_is_bit_equal(self):
        cfg = tiny_cfg("st-clstm", vocab=37, n_c=24)
        rng = np.random.default_rng(8)
        params = M.init_model(cfg, rng)
        buf = np.full((E.EVAL_CHUNK, cfg.vocab), np.nan)
        for rows in (1, 15, 16, 17, E.EVAL_CHUNK - 1, E.EVAL_CHUNK):
            h = rng.uniform(-1.0, 1.0, size=(rows, cfg.n_c))
            got = M.readout(params, h, out=buf[:rows])
            assert np.shares_memory(got, buf)
            np.testing.assert_array_equal(got, M.readout(params, h))

    def test_term_blocks_are_capped_in_bytes(self):
        # at the paper's n_c 128 a block of terms stays in a core's L2 next
        # to the steps that read it; at the toy's n_c 16 a whole toy batch
        # (108 rows) is one block; a cell too wide for one row takes one
        assert (M.term_rows(128), M.term_rows(16)) == (64, 512)
        assert M.term_rows(numkit.BLOCK_BYTES) == 1

    def test_id_out_of_vocab(self):
        cfg = tiny_cfg("lstm")
        params = zero_model(cfg)
        with pytest.raises(IndexError):
            M.forward_batch(params, cfg, [([6], [0.0], [0.0])])
        with pytest.raises(IndexError):
            M.loss_and_grads(params, cfg, [0], [0.0], [0.0], [-1])

    def test_empty_sequence_rejected(self):
        cfg = tiny_cfg("lstm")
        params = zero_model(cfg)
        with pytest.raises(ValueError):
            M.forward_batch(params, cfg, [([], [], [])])

    def test_empty_batch_rejected(self):
        cfg = tiny_cfg("lstm")
        with pytest.raises(ValueError, match="forward_batch: empty batch"):
            M.forward_batch(zero_model(cfg), cfg, [])

    def test_ragged_sequence_tuple_rejected(self):
        cfg = tiny_cfg("lstm")
        seq = ([0, 1], [0.0, 0.0], [0.0], [1, 2])     # one distance short
        with pytest.raises(ValueError, match="ragged sequence tuple"):
            M.batch_loss_and_grads(zero_model(cfg), cfg, [seq])


class TestGradients:
    @pytest.mark.parametrize("variant", ["lstm", "st-lstm", "st-clstm"])
    def test_finite_differences(self, variant):
        cfg = tiny_cfg(variant)
        rng = np.random.default_rng(11)
        params = M.init_model(cfg, rng)
        pois, dts, dds, targets = random_seq(rng, cfg.vocab, 5)
        _, grads = M.loss_and_grads(params, cfg, pois, dts, dds, targets)
        report = fd_check(
            lambda: M.loss_and_grads(params, cfg, pois, dts, dds, targets)[0],
            params.tensors(), grads, tol=1e-4,
        )
        assert report.passed, str(report)

    def test_duplicated_sequence_leaves_mean_grads_unchanged(self):
        # the summed gradient doubles; under the fixed per-step normalizer
        # that means the returned mean gradient is bitwise identical
        cfg = tiny_cfg("st-clstm")
        rng = np.random.default_rng(12)
        params = M.init_model(cfg, rng)
        seq = random_seq(rng, cfg.vocab, 6)
        loss1, g1 = M.batch_loss_and_grads(params, cfg, [seq])
        loss2, g2 = M.batch_loss_and_grads(params, cfg, [seq, seq])
        assert loss1 == loss2
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])

    def test_nonfinite_parameter_rejected(self):
        cfg = tiny_cfg("st-clstm")
        rng = np.random.default_rng(14)
        params = M.init_model(cfg, rng)
        params.w_out[0, 0] = np.nan
        with pytest.raises(ValueError, match="w_out"):
            M.batch_loss_and_grads(params, cfg, [random_seq(rng, cfg.vocab, 4)])

    def test_ragged_batch_matches_weighted_single_runs(self):
        cfg = tiny_cfg("st-lstm")
        rng = np.random.default_rng(13)
        params = M.init_model(cfg, rng)
        s1 = random_seq(rng, cfg.vocab, 3)
        s2 = random_seq(rng, cfg.vocab, 5)
        _, ga = M.batch_loss_and_grads(params, cfg, [s1])
        _, gb = M.batch_loss_and_grads(params, cfg, [s2])
        _, gboth = M.batch_loss_and_grads(params, cfg, [s1, s2])
        for name in ga:
            oracle = (3.0 * ga[name] + 5.0 * gb[name]) / 8.0
            np.testing.assert_allclose(gboth[name], oracle, rtol=1e-12,
                                       atol=1e-15)

    # vocab 520 is a multiple of 8 and 601 is not; both span several
    # gradient vocabulary blocks.  n_c 12 puts dlog @ w_out on the 8-column
    # tail too.  13 sequences of up to 12 steps fill more than one readout
    # block; 17 make each step's rows wider than one 16-row tile, where
    # summing a step's losses in another order than the per-step oracle's
    # moves the loss by an ulp.
    @pytest.mark.parametrize("variant", ["lstm", "st-lstm", "st-clstm"])
    @pytest.mark.parametrize("bptt_cap", [None, 3])
    @pytest.mark.parametrize("vocab", [520, 601])
    @pytest.mark.parametrize("n_seqs", [10, 13, 17])
    def test_matches_per_step_readout_oracle(self, variant, bptt_cap, vocab,
                                             n_seqs):
        cfg = tiny_cfg(variant, vocab=vocab, n_i=8, n_c=12, bptt_cap=bptt_cap)
        rng = np.random.default_rng(vocab + n_seqs)
        params = M.init_model(cfg, rng)
        seqs = [random_seq(rng, vocab, int(n)) for n in rng.integers(1, 13, n_seqs)]
        loss, grads = M.batch_loss_and_grads(params, cfg, seqs)
        want_loss, want = per_step_loss_and_grads(params, cfg, seqs)
        assert loss == want_loss
        assert list(grads) == list(want)
        for name in want:
            np.testing.assert_array_equal(grads[name], want[name], err_msg=name)

    def test_bptt_cap_one_isolates_embedding_rows(self):
        cfg = tiny_cfg("st-clstm", bptt_cap=1)
        rng = np.random.default_rng(14)
        params = M.init_model(cfg, rng)
        pois = np.array([1, 2])
        dts = np.array([2.0, 3.0])
        dds = np.array([1.0, 4.0])
        targets = np.array([3, 4])
        _, capped = M.batch_loss_and_grads(params, cfg, [(pois, dts, dds, targets)])
        # oracle: the step-1 prefix alone; same zero start state, so the
        # step-1 loss and its gradient to embedding row 1 are identical
        _, prefix = M.batch_loss_and_grads(
            params, cfg, [(pois[:1], dts[:1], dds[:1], targets[:1])]
        )
        np.testing.assert_array_equal(capped["embedding"][1] * 2.0,
                                      prefix["embedding"][1])
        # without the cap, step-2 loss also reaches row 1 through the state
        cfg_full = tiny_cfg("st-clstm", bptt_cap=None)
        _, full = M.batch_loss_and_grads(params, cfg_full,
                                         [(pois, dts, dds, targets)])
        assert not np.allclose(full["embedding"][1] * 2.0,
                               prefix["embedding"][1])

    def test_large_cap_equals_uncapped(self):
        rng = np.random.default_rng(15)
        seq = random_seq(rng, 6, 7)
        params = M.init_model(tiny_cfg("st-lstm"), rng)
        _, g_none = M.batch_loss_and_grads(params, tiny_cfg("st-lstm"), [seq])
        _, g_big = M.batch_loss_and_grads(
            params, tiny_cfg("st-lstm", bptt_cap=7), [seq]
        )
        for name in g_none:
            np.testing.assert_array_equal(g_none[name], g_big[name])

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_ragged_unsorted_batch_matches_per_step_oracle(self, variant,
                                                           monkeypatch):
        # the longest row is neither first nor alone, lengths tie and one
        # row is a single step; the parameter sums run three steps a group
        cfg = tiny_cfg(variant, vocab=30, n_i=5, n_c=6)
        rng = np.random.default_rng(54)
        params = M.init_model(cfg, rng)
        step_bytes = sum(params.blocks[b].nbytes for b in ("w_z", "w_x")
                         if b in params.blocks)
        monkeypatch.setattr(cells, "STEP_GROUP_BYTES", 3 * step_bytes)
        seqs = [random_seq(rng, cfg.vocab, n)
                for n in (3, 11, 1, 7, 20, 11, 4, 20, 2)]
        loss, grads = M.batch_loss_and_grads(params, cfg, seqs)
        want_loss, want = per_step_loss_and_grads(params, cfg, seqs)
        assert loss == want_loss
        for name in want:
            np.testing.assert_array_equal(grads[name], want[name], err_msg=name)


    # lengths 5, 9, 5, 2, 9, 9, 1 give runs of steps with 7, 6, 5 and 3
    # real rows, one, one, three and four steps long; the w_out gradient's
    # 601 rows are one row block.  The budget gives whole runs (default),
    # groups of two steps with a short last one, or one-step groups.
    @pytest.mark.parametrize("steps_per_group", [None, 2, 0])
    def test_step_grouped_readout_sums_match_per_step_oracle(
            self, steps_per_group, monkeypatch):
        self.check_readout_sums("st-clstm", steps_per_group, monkeypatch)

    # the same batch with the w_out gradient in three row blocks of 256
    # rows, the last short, or in 86 of 7 rows; at 7 rows the w_z and w_x
    # sums are cut into row blocks too, and each block of interval terms
    # holds one step
    @pytest.mark.parametrize("w_out_rows", [256, 7])
    @pytest.mark.parametrize("steps_per_group", [None, 2, 0])
    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_row_blocked_weight_sums_match_per_step_oracle(
            self, variant, steps_per_group, w_out_rows, monkeypatch):
        self.check_readout_sums(variant, steps_per_group, monkeypatch,
                                w_out_rows)

    # readout blocks of one step each, every step taller than the block
    # height; or of at most 6 rows: steps 0-4 one block each (step 0's 7
    # rows taller than a block, the 5-row run of steps 2-4 cut into single
    # steps), then steps 5-6 and 7-8, which cut the 3-row run in two
    @pytest.mark.parametrize("steps_per_group", [None, 2])
    @pytest.mark.parametrize("readout_rows", [1, 6])
    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_streamed_readout_blocks_match_per_step_oracle(
            self, variant, readout_rows, steps_per_group, monkeypatch):
        monkeypatch.setattr(M, "READOUT_ROWS", readout_rows)
        self.check_readout_sums(variant, steps_per_group, monkeypatch)

    def check_readout_sums(self, variant, steps_per_group, monkeypatch,
                           w_out_rows=None):
        cfg = tiny_cfg(variant, vocab=601, n_i=5, n_c=6)
        rng = np.random.default_rng(55)
        params = M.init_model(cfg, rng)
        if steps_per_group is None:
            assert cells.STEP_GROUP_BYTES // params.w_out.nbytes >= 4
        else:
            monkeypatch.setattr(cells, "STEP_GROUP_BYTES",
                                steps_per_group * params.w_out.nbytes)
        if w_out_rows is None:
            assert numkit.BLOCK_BYTES // params.w_out[0].nbytes >= cfg.vocab
        else:
            monkeypatch.setattr(numkit, "BLOCK_BYTES",
                                w_out_rows * params.w_out[0].nbytes)
        seqs = [random_seq(rng, cfg.vocab, n) for n in (5, 9, 5, 2, 9, 9, 1)]
        loss, grads = M.batch_loss_and_grads(params, cfg, seqs)
        want_loss, want = per_step_loss_and_grads(params, cfg, seqs)
        assert loss == want_loss
        for name in want:
            np.testing.assert_array_equal(grads[name], want[name], err_msg=name)

    def test_gradients_into_a_used_buffer_match_fresh_ones(self):
        cfg = tiny_cfg("st-lstm", vocab=30, n_i=5, n_c=6)
        rng = np.random.default_rng(57)
        params = M.init_model(cfg, rng)
        seqs = [random_seq(rng, cfg.vocab, n) for n in (4, 9, 2)]
        loss, fresh = M.batch_loss_and_grads(params, cfg, seqs)
        used = params.zeros_like()
        used.flat[...] = np.nan
        loss_out, grads = M.batch_loss_and_grads(params, cfg, seqs, out=used)
        assert grads is used and loss_out == loss
        np.testing.assert_array_equal(grads.flat, fresh.flat)

    def test_readout_memory_does_not_scale_with_rows_times_vocab(self):
        # 200 real rows at vocab 20 000: an (R, V) array alone is 32 MB,
        # the readout buffer READOUT_ROWS x V floats, 10 MB
        cfg = tiny_cfg("st-clstm", vocab=20_000, n_i=4, n_c=4)
        rng = np.random.default_rng(56)
        params = M.init_model(cfg, rng)
        seqs = [random_seq(rng, cfg.vocab, 10) for _ in range(20)]
        M.batch_loss_and_grads(params, cfg, seqs)   # numkit's one-off probes
        tracemalloc.start()
        try:
            M.batch_loss_and_grads(params, cfg, seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * cfg.vocab * 8


class TestHoistedTerms:
    """The model computes the interval gates ahead for blocks of steps and
    steps through the unchecked kernel; its backward runs only the
    recurrent part per step and the input part once per block.  Forward,
    loss and every gradient must equal the per-step path, the public
    ``cell_forward`` and the one-pass ``per_step_cell_backward``, bit for
    bit."""

    def check_against_oracle(self, variant, ablation, bptt_cap=None):
        cfg = tiny_cfg(variant, vocab=40, n_i=8, n_c=12, bptt_cap=bptt_cap,
                       ablation=GateAblation.from_name(ablation))
        rng = np.random.default_rng(50)
        params = M.init_model(cfg, rng)
        # ragged, with repeated POIs within a step; B * T spans two blocks
        seqs = [random_seq(rng, cfg.vocab, int(n))
                for n in (*rng.integers(1, 60, 12), 60)]
        assert len(seqs) * 60 > M.term_rows(cfg.n_c)
        np.testing.assert_array_equal(
            M.forward_batch(params, cfg, [s[:3] for s in seqs]),
            per_step_forward(params, cfg, seqs))
        loss, grads = M.batch_loss_and_grads(params, cfg, seqs)
        want_loss, want = per_step_loss_and_grads(params, cfg, seqs)
        assert loss == want_loss
        for name in want:
            np.testing.assert_array_equal(grads[name], want[name], err_msg=name)

    @pytest.mark.parametrize("ablation", sorted(cells.ABLATION_PRESETS))
    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_bitwise_equal_to_per_step_oracle(self, variant, ablation):
        self.check_against_oracle(variant, ablation)

    def test_blocks_of_one_step_when_the_batch_is_wider(self, monkeypatch):
        cap_term_rows(monkeypatch, 12, 5)
        self.check_against_oracle("st-lstm", "short-only")

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_blocks_of_a_few_steps_and_a_short_last_block(self, variant,
                                                          monkeypatch):
        # 13 rows a step, seven steps (91 rows) a block, and the last four
        # of the 60 steps in a shorter one: each block's input gradient is
        # one product over rows of several steps
        cap_term_rows(monkeypatch, 12, 91)
        self.check_against_oracle(variant, "none")

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_capped_backward(self, variant):
        self.check_against_oracle(variant, "time-only", bptt_cap=7)

    @pytest.mark.parametrize("training", [False, True],
                             ids=["evaluation", "training"])
    def test_each_blocks_terms_come_just_before_its_steps(self, training,
                                                          monkeypatch):
        # blocks of at most 10 rows: packed, from one to several steps;
        # training's nine rows a step, one step each
        cfg = tiny_cfg("st-lstm", vocab=20, n_i=5, n_c=6)
        cap_term_rows(monkeypatch, cfg.n_c, 10)
        rng = np.random.default_rng(58)
        params = M.init_model(cfg, rng)
        lengths = (3, 11, 1, 7, 20, 11, 4, 20, 2)
        seqs = [random_seq(rng, cfg.vocab, n) for n in lengths]
        calls = []

        def recording(name, kernel):
            def run(params, rows, *args):
                calls.append((name, len(rows)))     # x or h rows
                return kernel(params, rows, *args)
            return run

        monkeypatch.setattr(M, "interval_terms",
                            recording("terms", M.interval_terms))
        monkeypatch.setattr(M, "cell_step", recording("step", M.cell_step))
        if training:
            M.batch_loss_and_grads(params, cfg, seqs)
        else:
            M.forward_batch(params, cfg, [s[:3] for s in seqs])
        assert calls[0][0] == "terms"
        blocks = []     # (term rows, [rows of each step that follows])
        for name, rows in calls:
            if name == "terms":
                blocks.append((rows, []))
            else:
                blocks[-1][1].append(rows)
        for rows, steps in blocks:
            assert rows == sum(steps)
            assert rows <= 10 or len(steps) == 1
        assert sum(len(steps) for _, steps in blocks) == max(lengths)


class TestFiniteBoundaries:
    """Checks run once per batch, before any step: the intervals, then the
    overflow bound on the parameters (``cells.check_bounded``)."""

    @pytest.mark.parametrize("block, variant", [
        ("w_z", "lstm"), ("w_z", "st-lstm"), ("w_z", "st-clstm"),
        ("w_x", "st-lstm"), ("w_x", "st-clstm")])
    def test_overflowing_gate_products_raise(self, block, variant):
        corpus = data.synth_corpus(5, n_users=6, n_pois=20, length=12)
        cfg = tiny_cfg(variant, vocab=corpus.n_pois)
        params = M.init_model(cfg, np.random.default_rng(51))
        # every tensor stays finite; their products overflow
        params.blocks[block][...] *= 1e300
        params.embedding[...] *= 1e10
        seqs = [u.train_steps() for u in corpus.users]
        with pytest.raises(NonFiniteError, match="NaN or inf"):
            M.batch_loss_and_grads(params, cfg, seqs)
        with pytest.raises(NonFiniteError, match="NaN or inf"):
            E.collect_ranks(params, cfg, corpus)

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "NaN or inf"), (np.inf, "NaN or inf"),
        (-1.0, "non-negative")])
    @pytest.mark.parametrize("column", [1, 2])
    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_bad_interval_raises_before_any_step(self, variant, column, bad,
                                                 message, monkeypatch):
        cfg = tiny_cfg(variant)
        rng = np.random.default_rng(52)
        params = M.init_model(cfg, rng)
        seqs = [random_seq(rng, cfg.vocab, n) for n in (4, 6)]
        seqs[1][column][5] = bad

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(M, "cell_step", no_step)
        monkeypatch.setattr(M, "interval_terms", no_step)
        with pytest.raises(ValueError, match=message):
            M.batch_loss_and_grads(params, cfg, seqs)
        with pytest.raises(ValueError, match=message):
            M.forward_batch(params, cfg, [s[:3] for s in seqs])

    @pytest.mark.parametrize("ablation", sorted(cells.ABLATION_PRESETS))
    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_bound_is_sound_and_checked_before_any_step(self, variant,
                                                        ablation, monkeypatch):
        corpus = data.synth_corpus(5, n_users=6, n_pois=20, length=12)
        cfg = tiny_cfg(variant, vocab=corpus.n_pois,
                       ablation=GateAblation.from_name(ablation))
        params = M.init_model(cfg, np.random.default_rng(53))
        seqs = [u.train_steps() for u in corpus.users]
        # once w is past 1 and every interval, s = w: the limit on w is
        # K * w**2 + 1 = BOUND
        limit = math.sqrt((cells.BOUND - 1.0) / (cfg.n_c + cfg.n_i + 3))

        def scale_to(w):
            params.flat[...] *= w / np.abs(params.flat).max()

        # the random draw, then every entry w, which brings the sums near
        # the bound: all products add up with one sign
        for aligned in (False, True):
            if aligned:
                params.flat[...] = 1.0
            scale_to(limit * (1.0 - 1e-9))
            assert largest_sum(params, cfg, seqs) < cells.BOUND
            hs = M.forward_batch(params, cfg, [s[:3] for s in seqs])
            assert np.isfinite(M.readout(params, hs.reshape(-1, cfg.n_c))).all()
            assert E.collect_ranks(params, cfg, corpus)
            state, _ = cells.cell_forward(variant, params, cells.StepInput(
                params.embedding[0], 1.0, 2.0), zero_state(cfg.n_c), cfg.ablation)
            assert np.isfinite(state.h).all()

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        scale_to(limit * (1.0 + 1e-9))
        for module in (M, cells):
            monkeypatch.setattr(module, "cell_step", no_step)
            monkeypatch.setattr(module, "interval_terms", no_step)
        with pytest.raises(NonFiniteError, match="NaN or inf"):
            M.batch_loss_and_grads(params, cfg, seqs)
        with pytest.raises(NonFiniteError, match="NaN or inf"):
            E.collect_ranks(params, cfg, corpus)
        with pytest.raises(T.TrainingDiverged, match="NaN or inf"):
            T.fit(params, cfg, seqs, epochs=1)
        with pytest.raises(NonFiniteError, match="NaN or inf"):
            cells.cell_forward(variant, params, cells.StepInput(
                params.embedding[0], 1.0, 2.0), zero_state(cfg.n_c), cfg.ablation)


class TestPredict:
    """Ranking after a history: forward_batch, readout, then eval._ranks."""

    def test_k_equals_vocab_is_permutation(self):
        cfg = tiny_cfg("st-clstm", vocab=9)
        rng = np.random.default_rng(21)
        params = M.init_model(cfg, rng)
        pois, dts, dds, _ = random_seq(rng, cfg.vocab, 4)
        ranks = last_ranks(params, cfg, pois, dts, dds)
        assert sorted(ranks.tolist()) == list(range(1, 10))

    def test_zero_params_ties_break_ascending(self):
        cfg = tiny_cfg("lstm", vocab=7)
        params = zero_model(cfg)
        ranks = last_ranks(params, cfg, [0, 1], [0.0, 0.0], [0.0, 0.0])
        assert ranks.tolist() == list(range(1, 8))

    def test_top1_is_argmax(self):
        cfg = tiny_cfg("st-lstm", vocab=11)
        rng = np.random.default_rng(22)
        params = M.init_model(cfg, rng)
        pois, dts, dds, _ = random_seq(rng, cfg.vocab, 5)
        logits = seq_logits(params, cfg, pois, dts, dds)
        ranks = last_ranks(params, cfg, pois, dts, dds)
        assert ranks.tolist().index(1) == int(np.argmax(logits[-1]))

    def test_exclusion(self):
        cfg = tiny_cfg("lstm", vocab=5)
        params = zero_model(cfg)
        keep = np.ones((5, 5), dtype=bool)
        keep[:, [0, 1]] = False
        ranks = last_ranks(params, cfg, [0], [0.0], [0.0], keep)
        assert ranks[2:].tolist() == [1, 2, 3]

    def test_empty_history_rejected(self):
        cfg = tiny_cfg("lstm")
        params = zero_model(cfg)
        with pytest.raises(ValueError):
            last_ranks(params, cfg, [], [], [])


class TestParams:
    def test_one_mapping_checked_against_one_table(self):
        cfg = tiny_cfg("st-clstm")
        params = M.init_model(cfg, np.random.default_rng(40))
        assert params.tensors() is params
        assert list(params) == ["embedding", *cells._tensor_shapes("st-clstm", 3, 4),
                                "w_out", "b_out"]
        rebuilt = M.ModelParams(cfg, dict(params))
        assert rebuilt.layout == params.layout
        for name, arr in rebuilt.items():
            assert arr.base is rebuilt.flat, name
            np.testing.assert_array_equal(arr, params[name])
        assert not np.shares_memory(rebuilt.flat, params.flat)
        with pytest.raises(ValueError, match="missing tensors w_out"):
            M.ModelParams(cfg, {k: v for k, v in params.items() if k != "w_out"})
        with pytest.raises(ValueError, match="embedding has shape"):
            M.ModelParams(cfg, {**params, "embedding": np.zeros((6, 4))})

    def test_gradients_share_the_layout(self):
        cfg = tiny_cfg("lstm")
        params = M.init_model(cfg, np.random.default_rng(41))
        _, grads = M.loss_and_grads(params, cfg, [1, 2], [0.0, 0.0], [0.0, 0.0],
                                    [2, 3])
        assert type(grads) is M.ModelParams and list(grads) == list(params)
        np.testing.assert_array_equal(grads.blocks["w_z"][:cfg.n_c], grads.w_i)
        grads["embedding"] += 1.0
        with pytest.raises(TypeError):
            grads["embedding"] = np.zeros((6, 3))

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_every_tensor_is_a_view_of_its_own_flat(self, variant):
        cfg = tiny_cfg(variant)
        params = M.init_model(cfg, np.random.default_rng(42))
        _, grads = M.loss_and_grads(params, cfg, [1, 2], [1.0, 2.0], [0.5, 0.0],
                                    [2, 3])
        adam = AdamState.for_tensors(params)
        mappings = (params, grads, adam.m, adam.v)
        for q in mappings:
            assert type(q) is M.ModelParams and q.layout == params.layout
            assert q.flat.dtype == np.float64 and q.flat.flags.owndata
            assert q.flat.size == sum(a.size for a in q.values())
            for name, arr in [*q.items(), *q.blocks.items()]:
                assert arr.base is q.flat, name
        for i, q in enumerate(mappings):
            assert not any(np.shares_memory(q.flat, r.flat) for r in mappings[i + 1:])


class TestCheckpoint:
    def test_round_trip_with_optimizer(self, tmp_path):
        cfg = tiny_cfg("st-clstm", ablation=GateAblation(fix_d1=True),
                       bptt_cap=12, constraint_target="input")
        rng = np.random.default_rng(31)
        params = M.init_model(cfg, rng)
        adam = AdamState.for_tensors(params.tensors(), lr=0.01)
        adam.t = 5
        adam.m["w_out"] += 0.25
        path = tmp_path / "ck.bin"
        M.save_checkpoint(path, params, cfg, adam)
        params2, cfg2, adam2 = M.load_checkpoint(path)
        assert cfg2 == cfg
        for name, arr in params.tensors().items():
            np.testing.assert_array_equal(params2.tensors()[name], arr)
        assert adam2.t == 5 and adam2.lr == 0.01
        np.testing.assert_array_equal(adam2.m["w_out"], adam.m["w_out"])

    def test_byte_stable(self, tmp_path):
        cfg = tiny_cfg("lstm")
        params = M.init_model(cfg, np.random.default_rng(32))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        M.save_checkpoint(p1, params, cfg)
        M.save_checkpoint(p2, params, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        from stpoi import container

        path = tmp_path / "x.bin"
        container.save(path, {"kind": "stpoi-corpus"}, {"a": np.zeros(1)})
        with pytest.raises(ValueError):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_unknown_constraint_target_rejected(self, tmp_path, variant):
        from stpoi import container

        # lstm constrains no tensor, but its config must still be valid
        with pytest.raises(ValueError, match="constraint_target 'bogus'"):
            tiny_cfg(variant, constraint_target="bogus")
        cfg = tiny_cfg(variant)
        path = tmp_path / "ck.bin"
        M.save_checkpoint(path, M.init_model(cfg, np.random.default_rng(33)), cfg)
        meta, arrays = container.load(path)
        meta["config"]["constraint_target"] = "bogus"
        container.save(path, meta, arrays)
        with pytest.raises(ValueError, match="ck.bin: unknown constraint_target"):
            M.load_checkpoint(path)


class TestParamCount:
    def test_report_fields(self):
        cfg = tiny_cfg("st-lstm", vocab=6, n_i=3, n_c=4)
        rep = M.model_param_count(cfg)
        live = sum(a.size for a in M.init_model(cfg, np.random.default_rng(0))
                   .tensors().values())
        assert rep["enumerated_total"] == live
        assert rep["embedding"] == 18
        # the quoted closed form disagrees with the enumeration on purpose
        assert rep["formula_cell_and_readout"] is not None
        cfg_c = tiny_cfg("st-clstm", vocab=6, n_i=3, n_c=4)
        assert M.model_param_count(cfg_c)["formula_cell_and_readout"] is None
