import copy
import math
import pickle

import numpy as np
import pytest

from stpoi import cells, numkit, optim
from stpoi.cells import CellState, GateAblation, StepInput
from stpoi.numkit import NonFiniteError

from helpers import (
    central_diff,
    one_step_backward,
    per_gate_forward,
    per_step_input_sums,
    random_cell_setup,
    rel_err,
    unrolled_readout_grads,
    unrolled_readout_loss,
)

SIG_HALF = 1.0 / (1.0 + math.exp(-0.5))   # 0.6224593312018546


def zero_lstm(n_i=1, n_c=1):
    rng = np.random.default_rng(0)
    p = cells.init_params("lstm", n_i, n_c, rng)
    for a in p.values():
        a[...] = 0.0
    return p


def zero_st(variant, n_i=1, n_c=1):
    rng = np.random.default_rng(0)
    p = cells.init_params(variant, n_i, n_c, rng)
    for a in p.values():
        a[...] = 0.0
    return p


class TestLstmForward:
    def test_all_zero_params_unit_prev_cell(self):
        p = zero_lstm()
        prev = CellState(c=np.array([1.0]), h=np.array([0.0]), c_hat=np.array([1.0]))
        state, cache = cells.cell_forward("lstm", p, StepInput(np.array([0.3])), prev)
        np.testing.assert_allclose(cache.i, [[0.5]], atol=1e-15)
        np.testing.assert_allclose(cache.f, [[0.5]], atol=1e-15)
        np.testing.assert_allclose(cache.o, [[0.5]], atol=1e-15)
        np.testing.assert_allclose(state.c, [[0.5]], atol=1e-15)
        np.testing.assert_allclose(state.h, [[0.5 * math.tanh(0.5)]], atol=1e-15)

    def test_zero_state_zero_input_fixed_point(self):
        p = zero_lstm(n_i=3, n_c=2)
        state, _ = cells.cell_forward("lstm", p, StepInput(np.zeros(3)),
                                      cells.zero_state(2))
        np.testing.assert_array_equal(state.c, np.zeros((1, 2)))
        np.testing.assert_array_equal(state.h, np.zeros((1, 2)))

    def test_saturated_forget_open_input_closed_preserves_cell(self):
        rng = np.random.default_rng(1)
        p = cells.init_params("lstm", 3, 4, rng)
        p.b_f[...] = 50.0
        p.b_i[...] = -50.0
        prev = CellState(
            c=rng.normal(size=4), h=rng.normal(size=4) * 0.1, c_hat=np.zeros(4)
        )
        state, _ = cells.cell_forward("lstm", p, StepInput(rng.normal(size=3)), prev)
        np.testing.assert_allclose(state.c[0], prev.c, atol=1e-6)

    def test_state_shape_mismatch_raises(self):
        p = zero_lstm(n_i=2, n_c=3)
        with pytest.raises(ValueError):
            cells.cell_forward("lstm", p, StepInput(np.zeros(2)), cells.zero_state(4))
        with pytest.raises(ValueError):
            cells.cell_forward("lstm", p, StepInput(np.zeros(5)), cells.zero_state(3))

    def test_batch_rows_match_single_calls(self):
        rng = np.random.default_rng(2)
        p = cells.init_params("lstm", 3, 4, rng)
        xb = rng.normal(size=(5, 3))
        prev_b = CellState(
            c=rng.normal(size=(5, 4)), h=rng.normal(size=(5, 4)),
            c_hat=np.zeros((5, 4)),
        )
        batch_state, _ = cells.cell_forward("lstm", p, StepInput(xb), prev_b)
        for r in range(5):
            prev = CellState(c=prev_b.c[r], h=prev_b.h[r], c_hat=prev_b.c_hat[r])
            st, _ = cells.cell_forward("lstm", p, StepInput(xb[r]), prev)
            np.testing.assert_allclose(batch_state.c[r], st.c[0], atol=1e-14)
            np.testing.assert_allclose(batch_state.h[r], st.h[0], atol=1e-14)


class TestStLstmForward:
    def test_all_zero_params_zero_intervals(self):
        p = zero_st("st-lstm")
        state, cache = cells.cell_forward(
            "st-lstm", p, StepInput(x=np.array([0.0]), dt=0.0, dd=0.0),
            cells.zero_state(1)
        )
        for gate in ("t1", "t2", "d1", "d2"):
            np.testing.assert_allclose(cache.gates[gate][0], [[SIG_HALF]], atol=1e-15)
        np.testing.assert_array_equal(state.c, [[0.0]])
        np.testing.assert_array_equal(state.c_hat, [[0.0]])
        np.testing.assert_array_equal(state.h, [[0.0]])

    def test_negative_intervals_rejected(self):
        p = zero_st("st-lstm")
        with pytest.raises(ValueError):
            cells.cell_forward(
                "st-lstm", p, StepInput(x=np.zeros(1), dt=-1.0, dd=0.0), cells.zero_state(1)
            )
        with pytest.raises(ValueError):
            cells.cell_forward(
                "st-lstm", p, StepInput(x=np.zeros(1), dt=0.0, dd=-0.5), cells.zero_state(1)
            )

    def test_t1_non_increasing_in_dt_under_constraint(self):
        # the projection keeps w_t1 <= 0; under that sign the short time
        # gate can never open wider as the elapsed time grows
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = cells.init_params("st-lstm", 3, 4, rng)
            x = rng.uniform(-1, 1, size=3)
            near, _ = cells.cell_forward(
                "st-lstm", p, StepInput(x=x, dt=0.0, dd=1.0), cells.zero_state(4)
            )
            far, _ = cells.cell_forward(
                "st-lstm", p, StepInput(x=x, dt=10.0, dd=1.0), cells.zero_state(4)
            )
            # compare gate values straight from fresh caches
            g_near = cells.cell_forward(
                "st-lstm", p, StepInput(x=x, dt=0.0, dd=1.0), cells.zero_state(4)
            )[1].gates["t1"][0]
            g_far = cells.cell_forward(
                "st-lstm", p, StepInput(x=x, dt=10.0, dd=1.0), cells.zero_state(4)
            )[1].gates["t1"][0]
            assert np.all(g_near >= g_far)

    def test_gates_lie_in_open_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = cells.init_params("st-lstm", 3, 4, rng)
            step = StepInput(
                x=rng.uniform(-2, 2, size=3),
                dt=float(rng.uniform(0, 100)),
                dd=float(rng.uniform(0, 100)),
            )
            _, cache = cells.cell_forward("st-lstm", p, step, cells.zero_state(4))
            for gate in ("t1", "t2", "d1", "d2"):
                v = cache.gates[gate][0]
                assert np.all(v > 0.0) and np.all(v < 1.0)

    def test_reduces_to_lstm_when_gates_pinned_and_interval_terms_zero(self):
        rng = np.random.default_rng(5)
        lstm = cells.init_params("lstm", 3, 4, rng)
        st = cells.init_params("st-lstm", 3, 4, rng)
        for name in ("w_i", "b_i", "w_f", "b_f", "w_c", "b_c", "w_o", "b_o"):
            getattr(st, name)[...] = getattr(lstm, name)
        st.w_to[...] = 0.0
        st.w_do[...] = 0.0
        pin_all = GateAblation(fix_t1=True, fix_t2=True, fix_d1=True, fix_d2=True)
        for _ in range(10):
            lstm_state = cells.zero_state(4)
            st_state = cells.zero_state(4)
            for _t in range(20):
                x = rng.normal(size=3)
                step = StepInput(
                    x=x, dt=float(rng.uniform(0, 50)), dd=float(rng.uniform(0, 50))
                )
                lstm_state, _ = cells.cell_forward("lstm", lstm, step, lstm_state)
                st_state, _ = cells.cell_forward("st-lstm", st, step, st_state,
                                                 pin_all)
                np.testing.assert_allclose(st_state.h, lstm_state.h, atol=1e-12)
                np.testing.assert_allclose(st_state.c, lstm_state.c, atol=1e-12)

    def test_forget_gate_required(self):
        p = zero_st("st-clstm")
        with pytest.raises(ValueError):
            cells.cell_forward(
                "st-lstm", p, StepInput(x=np.zeros(1)), cells.zero_state(1)
            )


class TestStClstmForward:
    def test_all_zero_params_unit_prev_cell(self):
        p = zero_st("st-clstm")
        prev = CellState(c=np.array([1.0]), h=np.array([0.0]), c_hat=np.zeros(1))
        state, cache = cells.cell_forward(
            "st-clstm", p, StepInput(x=np.array([0.0]), dt=0.0, dd=0.0), prev
        )
        expected_c_hat = 1.0 - 0.5 * SIG_HALF * SIG_HALF
        np.testing.assert_allclose(state.c_hat, [[expected_c_hat]], atol=1e-15)
        np.testing.assert_allclose(state.c, [[0.5]], atol=1e-15)

    def test_input_gate_saturated_open_overwrites_memory(self):
        rng = np.random.default_rng(6)
        p = cells.init_params("st-clstm", 3, 4, rng)
        p.b_i[...] = 50.0
        prev = CellState(c=rng.normal(size=4), h=np.zeros(4), c_hat=np.zeros(4))
        pin_all = GateAblation(fix_t1=True, fix_t2=True, fix_d1=True, fix_d2=True)
        step = StepInput(x=rng.normal(size=3), dt=1.0, dd=1.0)
        state, cache = cells.cell_forward("st-clstm", p, step, prev, pin_all)
        np.testing.assert_allclose(state.c_hat, cache.g, atol=1e-12)
        np.testing.assert_allclose(state.c, cache.g, atol=1e-12)

    def test_input_gate_closed_preserves_memory(self):
        rng = np.random.default_rng(7)
        p = cells.init_params("st-clstm", 3, 4, rng)
        p.b_i[...] = -50.0
        prev = CellState(c=rng.normal(size=4), h=np.zeros(4), c_hat=np.zeros(4))
        step = StepInput(x=rng.normal(size=3), dt=1.0, dd=1.0)
        state, _ = cells.cell_forward("st-clstm", p, step, prev)
        np.testing.assert_allclose(state.c[0], prev.c, atol=1e-12)
        np.testing.assert_allclose(state.c_hat[0], prev.c, atol=1e-12)

    def test_has_no_forget_tensors(self):
        p = zero_st("st-clstm", 3, 4)
        names = set(p)
        assert "w_f" not in names and "b_f" not in names

    def test_rejects_params_with_forget_gate(self):
        p = zero_st("st-lstm")
        with pytest.raises(ValueError):
            cells.cell_forward("st-clstm", p, StepInput(x=np.zeros(1)),
                               cells.zero_state(1))


class TestForwardContract:
    """The public cell_forward rejects what the unchecked kernels cannot
    take: a non-finite x, and parameters past the overflow bound."""

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_nonfinite_x_rejected(self, variant):
        p = cells.init_params(variant, 3, 4, np.random.default_rng(5))
        for bad in (np.nan, np.inf):
            x = np.array([0.1, bad, -0.2])
            with pytest.raises(ValueError, match="NaN or inf"):
                cells.cell_forward(variant, p, StepInput(x, 1.0, 2.0),
                                   cells.zero_state(4))

    @pytest.mark.parametrize("variant", ["st-lstm", "st-clstm"])
    def test_interval_shapes_must_match_the_batch(self, variant):
        p = cells.init_params(variant, 3, 4, np.random.default_rng(7))
        step = StepInput(np.zeros((2, 3)), [1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError, match=r"dt/dd shapes \(3,\)/\(2,\)"):
            cells.cell_forward(variant, p, step, cells.zero_state(4, 2))

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_parameters_past_the_bound_rejected(self, variant):
        rng = np.random.default_rng(6)
        p = cells.init_params(variant, 3, 4, rng)
        p.flat[...] *= 1e300
        x = 1e10 * rng.normal(size=3)       # products with x overflow
        with pytest.raises(NonFiniteError, match="NaN or inf"):
            cells.cell_forward(variant, p, StepInput(x, 1.0, 2.0),
                               cells.zero_state(4))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(8)
        for variant in cells.VARIANTS:
            p, seq, _ = random_cell_setup(variant, 3, 4, 1, rng)
            state, cache = cells.cell_forward(variant, p, seq[0], cells.zero_state(4))
            grads = p.zeros_like()
            dh, dc, dx = one_step_backward(
                p, cache, np.zeros((1, 4)), np.zeros((1, 4)), grads
            )
            for name, g in grads.items():
                np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)
            np.testing.assert_array_equal(dh, np.zeros((1, 4)))
            np.testing.assert_array_equal(dx, np.zeros((1, 3)))

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_param_grads_match_finite_differences(self, variant):
        rng = np.random.default_rng(9)
        p, seq, readouts = random_cell_setup(variant, 3, 4, 3, rng)
        _, grads, _ = unrolled_readout_grads(variant, p, seq, readouts)

        def loss():
            return unrolled_readout_loss(variant, p, seq, readouts)[0]

        for name, arr in p.items():
            fd = central_diff(loss, arr)
            assert rel_err(grads[name], fd) <= 1e-6, name

    @pytest.mark.parametrize("variant", ("st-lstm", "st-clstm"))
    def test_input_grads_match_finite_differences(self, variant):
        rng = np.random.default_rng(10)
        p, seq, readouts = random_cell_setup(variant, 3, 4, 3, rng)
        _, _, dxs = unrolled_readout_grads(variant, p, seq, readouts)

        def loss():
            return unrolled_readout_loss(variant, p, seq, readouts)[0]

        for t, step in enumerate(seq):
            fd_x = central_diff(loss, step.x)
            assert rel_err(dxs[t], fd_x) <= 1e-6

    @pytest.mark.parametrize("variant", ("st-lstm", "st-clstm"))
    def test_pinned_gates_get_exactly_zero_grads(self, variant):
        rng = np.random.default_rng(11)
        ablation = GateAblation(fix_t1=True, fix_d2=True)
        p, seq, readouts = random_cell_setup(variant, 3, 4, 3, rng)
        _, grads, _ = unrolled_readout_grads(variant, p, seq, readouts, ablation)
        for name in ("w_xt1", "w_t1", "b_t1", "w_xd2", "w_d2", "b_d2"):
            np.testing.assert_array_equal(grads[name], np.zeros_like(grads[name]))
        # the live gates still learn
        assert np.any(grads["w_xt2"] != 0.0)
        assert np.any(grads["w_xd1"] != 0.0)
        # and the pinned configuration still has exact FD gradients
        def loss():
            return unrolled_readout_loss(variant, p, seq, readouts, ablation)[0]

        for name in ("w_i", "w_xt2", "w_d1", "w_to"):
            fd = central_diff(loss, p[name])
            assert rel_err(grads[name], fd) <= 1e-6, name

    def test_batch_backward_matches_summed_single_rows(self):
        rng = np.random.default_rng(14)
        p = cells.init_params("st-clstm", 3, 4, rng)
        xb = rng.normal(size=(5, 3))
        dtb = rng.uniform(0.5, 2.0, size=5)
        ddb = rng.uniform(0.5, 2.0, size=5)
        prev = CellState(
            c=rng.normal(size=(5, 4)), h=rng.normal(size=(5, 4)),
            c_hat=np.zeros((5, 4)),
        )
        gh = rng.normal(size=(5, 4))
        gc = rng.normal(size=(5, 4))
        _, cache = cells.cell_forward("st-clstm", p, StepInput(x=xb, dt=dtb, dd=ddb),
                                      prev)
        grads_b = p.zeros_like()
        dh_b, dc_b, dx_b = one_step_backward(p, cache, gh, gc, grads_b)
        summed = p.zeros_like()
        for r in range(5):
            prev_r = CellState(c=prev.c[r], h=prev.h[r], c_hat=prev.c_hat[r])
            _, cache_r = cells.cell_forward(
                "st-clstm", p, StepInput(x=xb[r], dt=float(dtb[r]), dd=float(ddb[r])),
                prev_r
            )
            dh_r, dc_r, dx_r = one_step_backward(
                p, cache_r, gh[r:r + 1], gc[r:r + 1], summed
            )
            np.testing.assert_allclose(dh_b[r], dh_r[0], atol=1e-12)
            np.testing.assert_allclose(dx_b[r], dx_r[0], atol=1e-12)
        for k in summed:
            np.testing.assert_allclose(grads_b[k], summed[k], atol=1e-11, err_msg=k)


class TestStepGroupedSums:
    """``input_backward`` adds each step's parameter sums from one stacked
    product or reduction per group of steps, groups sized by
    ``STEP_GROUP_BYTES``.  Onto a running gradient, so that the order of the
    adds shows, every gradient and the input gradient must equal the
    per-step oracle bit for bit, whatever the group size; padding rows of
    ``da`` (NaN here) are never read."""

    @staticmethod
    def step_bytes(p):
        return p.blocks["w_z"].nbytes + (p.blocks["w_x"].nbytes if "w_x" in p.blocks else 0)

    def check(self, variant, n, b, steps, ablation="none"):
        rng = np.random.default_rng(61)
        p = cells.init_params(variant, n, n, rng)
        rows = steps * b
        x = rng.uniform(-1.0, 1.0, (rows, n))
        terms = cells.interval_terms(p, x, rng.uniform(0.0, 30.0, rows),
                                     rng.uniform(0.0, 20.0, rows),
                                     GateAblation.from_name(ablation))
        z = np.concatenate([rng.uniform(-1.0, 1.0, (steps, b, n)),
                            x.reshape(steps, b, n)], axis=2)
        da = np.full((steps, p.blocks["w_z"].shape[0] // n, max(b, 16), n), np.nan)
        da[:, :, :b] = rng.normal(size=(steps, da.shape[1], b, n))
        dw = rng.normal(size=(steps, 2, b, n))
        i = rng.uniform(0.0, 1.0, (steps, b, n))
        start = p.zeros_like()
        start.flat[...] = rng.normal(size=start.flat.size)
        want, got = copy.deepcopy(start), copy.deepcopy(start)
        want_dx = per_step_input_sums(p, z, terms, i, da, dw.copy(), want)
        got_dx = cells.input_backward(p, z, terms, i, da, dw.copy(), got)
        np.testing.assert_array_equal(got_dx, want_dx)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        return p

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_toy_shape_one_group(self, variant):
        p = self.check(variant, 16, 4, 40)
        assert cells.STEP_GROUP_BYTES // self.step_bytes(p) >= 40

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_toy_shape_groups_of_three_and_a_short_last(self, variant,
                                                         monkeypatch):
        p = cells.init_params(variant, 16, 16, np.random.default_rng(0))
        monkeypatch.setattr(cells, "STEP_GROUP_BYTES", 3 * self.step_bytes(p) + 1)
        self.check(variant, 16, 4, 40, "short-only")

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_one_step_groups(self, variant, monkeypatch):
        monkeypatch.setattr(cells, "STEP_GROUP_BYTES", 1)
        self.check(variant, 16, 4, 40, "time-only")

    @pytest.mark.parametrize("steps_per_group", [3, 0])
    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_toy_shape_row_blocks(self, variant, steps_per_group, monkeypatch):
        # a budget of 5 rows of w_z (32 columns) a row block and 10 of w_x
        # (16 columns): each weight gradient in several blocks, the last
        # one short, in groups of three steps or of one
        p = cells.init_params(variant, 16, 16, np.random.default_rng(0))
        monkeypatch.setattr(cells, "STEP_GROUP_BYTES",
                            steps_per_group * self.step_bytes(p) + 1)
        monkeypatch.setattr(numkit, "BLOCK_BYTES", 5 * 32 * 8)
        heights, add = [], cells._add_last_first

        def recording(total, parts):
            if total.ndim == 2:
                heights.append(len(total))
            add(total, parts)
        monkeypatch.setattr(cells, "_add_last_first", recording)
        self.check(variant, 16, 4, 40, "short-only")
        assert 5 in heights and max(heights) <= 10

    def test_paper_shape_one_step_groups(self):
        # w_z (384 rows of 256 floats) in three row blocks, w_x (512 rows
        # of 128) in two
        p = self.check("st-clstm", 128, 10, 3)
        assert cells.STEP_GROUP_BYTES // self.step_bytes(p) == 0
        assert numkit.BLOCK_BYTES // p.blocks["w_z"][0].nbytes == 128
        assert numkit.BLOCK_BYTES // p.blocks["w_x"][0].nbytes == 256

    def test_paper_shape_groups_of_two(self, monkeypatch):
        p = cells.init_params("st-lstm", 128, 128, np.random.default_rng(0))
        monkeypatch.setattr(cells, "STEP_GROUP_BYTES", 2 * self.step_bytes(p))
        self.check("st-lstm", 128, 10, 3)


class TestStateFlow:
    """The carry c only influences later steps; c_hat's only outlet is h."""

    def _per_step_losses(self, variant, p, seq, readouts, c_bump=None, rng=None):
        state = cells.zero_state(p.n_c)
        losses = []
        for t, (step, r) in enumerate(zip(seq, readouts)):
            state, _ = cells.cell_forward(variant, p, step, state)
            losses.append(float(state.h[0] @ r))
            if c_bump is not None and t == c_bump:
                state = CellState(c=state.c + 0.1, h=state.h, c_hat=state.c_hat)
        return losses

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_perturbing_carry_changes_only_later_losses(self, variant):
        rng = np.random.default_rng(15)
        p, seq, readouts = random_cell_setup(variant, 3, 4, 6, rng)
        base = self._per_step_losses(variant, p, seq, readouts)
        bumped = self._per_step_losses(variant, p, seq, readouts, c_bump=2)
        assert bumped[:3] == base[:3]
        assert any(abs(a - b) > 1e-9 for a, b in zip(bumped[3:], base[3:]))

    @pytest.mark.parametrize("variant", ("st-lstm", "st-clstm"))
    def test_short_term_memory_reaches_future_only_through_h(self, variant):
        rng = np.random.default_rng(16)
        p, seq, readouts = random_cell_setup(variant, 3, 4, 6, rng)
        t_hit = 2
        state = cells.zero_state(p.n_c)
        base, bumped = [], []
        for t, (step, r) in enumerate(zip(seq, readouts)):
            state, cache = cells.cell_forward(variant, p, step, state)
            base.append(float(state.h[0] @ r))
            if t == t_hit:
                # recompute this step's h from a bumped c_hat, but hand the
                # original h/c to the next step: the bump must stay local
                h_alt = cache.o[0] * np.tanh(state.c_hat[0] + 0.1)
                bumped.append(float(r @ h_alt))
            else:
                bumped.append(base[-1])
        rerun = self._per_step_losses(variant, p, seq, readouts)
        assert abs(bumped[t_hit] - base[t_hit]) > 1e-9
        assert rerun == base


class TestParamCounting:
    def test_quoted_single_unit_lstm(self):
        assert cells.count_params("lstm", 1, 1) == 12

    def test_enumerated_counts_small(self):
        # frozen by hand from the tensor shapes: 4*(4*7)+4*4 = 128 core,
        # plus 4*(4*3) gate mats, 8*4 gate vec+bias, 2*4 output interval
        assert cells.count_params("st-lstm", 3, 4) == 216
        assert cells.count_params("st-clstm", 3, 4) == 216 - (4 * 7 + 4)
        assert cells.count_params("lstm", 3, 4) == 128

    def test_readout_adds_dense_plus_bias(self):
        base = cells.count_params("lstm", 3, 4)
        assert cells.count_params("lstm", 3, 4, n_o=10) == base + 10 * 4 + 10

    def test_count_matches_live_tensors(self):
        rng = np.random.default_rng(17)
        for variant in cells.VARIANTS:
            p = cells.init_params(variant, 5, 7, rng)
            live = sum(a.size for a in p.values())
            assert cells.count_params(variant, 5, 7) == live

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'gru'; expected"):
            cells.count_params("gru", 3, 4)

    def test_formula_of_an_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'gru'"):
            cells.formula_param_count("gru", 3, 4)

    def test_formula_counts_are_reported_not_reconciled(self):
        n_i, n_c, n_o = 128, 128, 5000
        assert cells.formula_param_count("lstm", n_i, n_c, n_o) == (
            4 * n_c * n_c + 4 * n_i * n_c + n_c * n_o + 3 * n_c
        )
        assert cells.formula_param_count("st-lstm", n_i, n_c, n_o) == (
            5 * n_c * n_c + 8 * n_i * n_c + n_c * n_o + 9 * n_c
        )
        assert cells.formula_param_count("st-clstm", n_i, n_c, n_o) is None
        # the two routes intentionally disagree
        assert cells.formula_param_count("lstm", n_i, n_c, 0) != cells.count_params(
            "lstm", n_i, n_c, 0
        )


class TestStackedLayout:
    """Each gate group is one stacked block whose views are the named
    tensors; the stacked forward has the bits of one product per gate."""

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    @pytest.mark.parametrize("ablation", list(cells.ABLATION_PRESETS))
    def test_forward_matches_per_gate_oracle(self, variant, ablation):
        pinned = GateAblation.from_name(ablation)
        rng = np.random.default_rng(
            [cells.VARIANTS.index(variant), list(cells.ABLATION_PRESETS).index(ablation)])
        for n_c in (4, 5, 16):
            p = cells.init_params(variant, 3, n_c, rng)
            for name in ("b_i", "b_c", "b_o", "b_t1", "b_d2"):
                if name in p:
                    p[name][...] = rng.uniform(-0.5, 0.5, n_c)
            for batch in (1, 4, 13):
                state = want = cells.zero_state(n_c, batch)
                for _ in range(3):
                    step = StepInput(x=rng.uniform(-1, 1, (batch, 3)),
                                     dt=rng.uniform(0, 5, batch),
                                     dd=rng.uniform(0, 5, batch))
                    state, cache = cells.cell_forward(variant, p, step, state,
                                                      pinned)
                    want, gates = per_gate_forward(variant, p, step, want,
                                                   pinned)
                    for name in ("h", "c", "c_hat"):
                        np.testing.assert_array_equal(
                            getattr(state, name), getattr(want, name),
                            err_msg=f"{name} n_c {n_c} batch {batch}")
                    got = {gate: value for gate, (value, _) in cache.gates.items()}
                    got.update(i=cache.i, f=cache.f, g=cache.g, o=cache.o)
                    assert got.keys() == gates.keys()
                    for gate, value in gates.items():
                        np.testing.assert_array_equal(
                            got[gate], value,
                            err_msg=f"{gate} n_c {n_c} batch {batch}")

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_named_tensors_are_views_of_their_blocks(self, variant):
        p = cells.init_params(variant, 3, 4, np.random.default_rng(20))
        grouped = [name for names in cells._gate_groups(variant).values()
                   for name in names]
        assert sorted(grouped + [n for n in p if n not in grouped]) == sorted(p)
        for block, names in cells._gate_groups(variant).items():
            np.testing.assert_array_equal(p.blocks[block],
                                          np.concatenate([p[n] for n in names]))
            for name in names:
                assert np.shares_memory(p[name], p.blocks[block]), name
        p.w_i[...] = 7.0
        np.testing.assert_array_equal(p.blocks["w_z"][:4], 7.0)
        grads = p.zeros_like()
        assert type(grads) is type(p) and list(grads) == list(p)
        assert not any(np.shares_memory(grads.blocks[b], p.blocks[b])
                       for b in p.blocks)

    @pytest.mark.parametrize("variant", ("st-lstm", "st-clstm"))
    def test_adam_and_projection_write_into_blocks(self, variant):
        rng = np.random.default_rng(21)
        p = cells.init_params(variant, 3, 4, rng)
        before = {b: a.copy() for b, a in p.blocks.items()}
        grads = p.zeros_like()
        for a in grads.values():
            a[...] = rng.normal(size=a.shape)
        grads.w_t1[...] = -1.0          # Adam pushes w_t1 up, past zero
        adam = optim.AdamState.for_tensors(p, lr=1.0)
        optim.adam_step(p, grads, adam)
        for block, names in cells._gate_groups(variant).items():
            assert not np.array_equal(p.blocks[block], before[block]), block
            np.testing.assert_array_equal(p.blocks[block],
                                          np.concatenate([p[n] for n in names]))
        assert p.w_t1.max() > 0.0
        optim.project(p, cells.constrained_names(variant))
        np.testing.assert_array_equal(p.blocks["w_u"][:4], np.minimum(p.w_t1, 0.0))
        assert p.blocks["w_u"][:4].max() <= 0.0

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_the_layout(self, duplicate):
        p = cells.init_params("st-lstm", 3, 4, np.random.default_rng(23))
        q = duplicate(p)
        assert type(q) is type(p) and q.variant == p.variant and list(q) == list(p)
        for block, names in cells._gate_groups("st-lstm").items():
            for name in names:
                np.testing.assert_array_equal(q[name], p[name])
                assert np.shares_memory(q[name], q.blocks[block]), name
                assert not np.shares_memory(q[name], p[name]), name

    def test_entries_are_written_in_place_not_replaced(self):
        p = cells.init_params("st-clstm", 3, 4, np.random.default_rng(22))
        grads = p.zeros_like()
        grads["w_i"] += 1.0
        grads["w_xd2"] /= 2.0
        np.testing.assert_array_equal(grads.blocks["w_z"][:4], 1.0)
        with pytest.raises(TypeError):
            grads["w_i"] = np.ones((4, 7))
        np.testing.assert_array_equal(grads.w_i, 1.0)


class TestInit:
    def test_same_seed_same_params(self):
        a = cells.init_params("st-lstm", 3, 4, np.random.default_rng(42))
        b = cells.init_params("st-lstm", 3, 4, np.random.default_rng(42))
        for (n1, t1), (n2, t2) in zip(a.items(), b.items()):
            assert n1 == n2
            np.testing.assert_array_equal(t1, t2)

    def test_bounds_biases_and_constraints(self):
        rng = np.random.default_rng(43)
        p = cells.init_params("st-clstm", 6, 9, rng)
        lim = 1.0 / math.sqrt(9)
        for name, t in p.items():
            if name.startswith("b_"):
                np.testing.assert_array_equal(t, np.zeros_like(t))
            else:
                assert np.all(np.abs(t) <= lim)
        assert np.all(p.w_t1 <= 0.0)
        assert np.all(p.w_d1 <= 0.0)

    def test_input_constraint_target(self):
        rng = np.random.default_rng(44)
        p = cells.init_params("st-lstm", 6, 9, rng, constraint_target="input")
        assert np.all(p.w_xt1 <= 0.0)
        assert np.all(p.w_xd1 <= 0.0)
        with pytest.raises(ValueError):
            cells.constrained_names("st-lstm", "everything")

    def test_ablation_presets(self):
        ab = GateAblation.from_name("time-only")
        assert (ab.fix_d1, ab.fix_d2, ab.fix_t1, ab.fix_t2) == (True, True, False, False)
        ab = GateAblation.from_name("short-only")
        assert (ab.fix_t2, ab.fix_d2, ab.fix_t1, ab.fix_d1) == (True, True, False, False)
        with pytest.raises(ValueError):
            GateAblation.from_name("everything")
