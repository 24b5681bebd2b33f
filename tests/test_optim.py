import numpy as np
import pytest

from stpoi import cells
from stpoi import model as M
from stpoi import optim
from stpoi.cells import CellParams

from helpers import adam_step_per_tensor, clip_per_tensor


def mapping(**tensors):
    """The named arrays as one CellParams over one flat buffer."""
    return CellParams("lstm", tensors, {k: np.shape(a) for k, a in tensors.items()})


def scalar_params(value=1.0):
    return mapping(p=np.array([value]))


class TestAdam:
    def test_zero_grad_leaves_params_unchanged(self):
        tensors = mapping(a=np.array([1.0, -2.0]), b=np.array([[3.0]]))
        state = optim.AdamState.for_tensors(tensors)
        before = {k: v.copy() for k, v in tensors.items()}
        optim.adam_step(tensors, tensors.zeros_like(), state)
        assert state.t == 1
        for k in tensors:
            np.testing.assert_array_equal(tensors[k], before[k])

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes m_hat = g and v_hat = g^2 on step one, so the
        # update is lr * g / (|g| + eps): magnitude lr, direction -sign(g)
        for g0, lr in ((1.0, 1e-3), (-0.25, 0.05), (7.0, 1e-2)):
            tensors = scalar_params(0.0)
            state = optim.AdamState.for_tensors(tensors, lr=lr)
            optim.adam_step(tensors, scalar_params(g0), state)
            assert np.sign(tensors["p"][0]) == -np.sign(g0)
            np.testing.assert_allclose(abs(tensors["p"][0]), lr, rtol=1e-6)

    def test_steady_state_step_approaches_lr(self):
        tensors = scalar_params(0.0)
        state = optim.AdamState.for_tensors(tensors, lr=1e-3)
        g = scalar_params(0.5)
        prev = tensors["p"][0]
        for _ in range(500):
            prev = tensors["p"][0]
            optim.adam_step(tensors, g, state)
        assert abs(abs(tensors["p"][0] - prev) - 1e-3) < 1e-6

    def test_quadratic_converges(self):
        # minimize 0.5*(p - 3)^2
        tensors = scalar_params(0.0)
        state = optim.AdamState.for_tensors(tensors, lr=0.05)
        for _ in range(2000):
            grad = mapping(p=tensors["p"] - 3.0)
            optim.adam_step(tensors, grad, state)
        np.testing.assert_allclose(tensors["p"][0], 3.0, atol=1e-3)

    def test_missing_grad_raises(self):
        tensors = mapping(a=np.zeros(2), b=np.zeros(2))
        state = optim.AdamState.for_tensors(tensors)
        with pytest.raises(KeyError, match="adam_step: layout"):
            optim.adam_step(tensors, mapping(a=np.zeros(2)), state)
        assert state.t == 0

    def test_shape_mismatch_raises(self):
        tensors = mapping(a=np.zeros(2))
        state = optim.AdamState.for_tensors(tensors)
        with pytest.raises(ValueError, match=r"\('a', \(3,\)\),\)\) is not"):
            optim.adam_step(tensors, mapping(a=np.zeros(3)), state)
        with pytest.raises(ValueError):
            optim.adam_step(tensors, tensors.zeros_like(),
                            optim.AdamState.for_tensors(mapping(a=np.zeros(3))))

    @pytest.mark.parametrize("variant", cells.VARIANTS)
    def test_clip_adam_project_match_the_per_tensor_oracle(self, variant):
        cfg = M.ModelConfig(variant=variant, vocab=7, n_i=3, n_c=4,
                            constraint_target="input")
        rng = np.random.default_rng(50)
        params = M.init_model(cfg, rng)
        state = optim.AdamState.for_tensors(params, lr=0.05)
        ref = {k: a.copy() for k, a in params.items()}
        ref_m = {k: np.zeros_like(a) for k, a in params.items()}
        ref_v = {k: np.zeros_like(a) for k, a in params.items()}
        constrained = cells.constrained_names(variant, "input")
        for t in range(1, 7):
            grads = params.zeros_like()
            grads.flat[:] = rng.normal(size=grads.flat.size) * rng.uniform(0.1, 3.0)
            ref_g = {k: a.copy() for k, a in grads.items()}
            assert optim.clip_global_norm(grads, 2.0) == clip_per_tensor(ref_g, 2.0)
            optim.adam_step(params, grads, state)
            adam_step_per_tensor(ref, ref_g, ref_m, ref_v, t, lr=0.05)
            optim.project(params, constrained)
            optim.project(ref, constrained)
            assert state.t == t
            for name in ref:
                for got, want in ((params, ref), (grads, ref_g), (state.m, ref_m),
                                  (state.v, ref_v)):
                    assert got[name].tobytes() == want[name].tobytes(), (t, name)


    def test_sliced_update_matches_the_per_tensor_oracle(self):
        # two tensors straddle the first slice edge; the buffer is more than
        # two slices and not a multiple of one
        size = optim.ADAM_SLICE
        rng = np.random.default_rng(51)
        params = mapping(a=rng.normal(size=(3, size // 2 + 5)),
                         b=rng.normal(size=size - 11))
        assert params.flat.size > 2 * size and params.flat.size % size
        state = optim.AdamState.for_tensors(params, lr=0.03)
        ref = {k: a.copy() for k, a in params.items()}
        ref_m = {k: np.zeros_like(a) for k, a in params.items()}
        ref_v = {k: np.zeros_like(a) for k, a in params.items()}
        for t in range(1, 4):
            grads = params.zeros_like()
            grads.flat[:] = rng.normal(size=grads.flat.size)
            optim.adam_step(params, grads, state)
            adam_step_per_tensor(ref, dict(grads), ref_m, ref_v, t, lr=0.03)
            for name in ref:
                for got, want in ((params, ref), (state.m, ref_m),
                                  (state.v, ref_v)):
                    assert got[name].tobytes() == want[name].tobytes(), (t, name)


class TestProject:
    def test_clamps_positive_entries_only(self):
        tensors = {"w": np.array([0.5, -0.3, 0.0])}
        optim.project(tensors, ["w"])
        np.testing.assert_array_equal(tensors["w"], [0.0, -0.3, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        tensors = {"w": rng.normal(size=20)}
        optim.project(tensors, ["w"])
        once = tensors["w"].copy()
        optim.project(tensors, ["w"])
        np.testing.assert_array_equal(tensors["w"], once)

    def test_all_positive_goes_to_zero(self):
        tensors = {"w": np.array([1.0, 2.0, 3.0])}
        optim.project(tensors, ["w"])
        np.testing.assert_array_equal(tensors["w"], np.zeros(3))

    def test_untouched_tensors_stay(self):
        tensors = {"w": np.array([1.0]), "u": np.array([1.0])}
        optim.project(tensors, ["w"])
        np.testing.assert_array_equal(tensors["u"], [1.0])

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            optim.project({"w": np.zeros(1)}, ["nope"])


class TestClip:
    def test_below_threshold_unchanged_exactly(self):
        g = mapping(a=np.array([0.3, 0.4]))
        before = g["a"].copy()
        norm = optim.clip_global_norm(g, max_norm=5.0)
        np.testing.assert_array_equal(g["a"], before)
        np.testing.assert_allclose(norm, 0.5, atol=1e-15)

    def test_example_scales_to_unit_norm(self):
        g = mapping(a=np.array([3.0, 4.0]))
        optim.clip_global_norm(g, max_norm=1.0)
        np.testing.assert_allclose(g["a"], [0.6, 0.8], atol=1e-12)

    def test_post_clip_norm_never_exceeds_max(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = mapping(a=rng.normal(size=(3, 4)) * rng.uniform(0, 10),
                        b=rng.normal(size=7) * rng.uniform(0, 10))
            optim.clip_global_norm(g, max_norm=2.0)
            total = np.sqrt(sum(float(np.sum(x * x)) for x in g.values()))
            assert total <= 2.0 + 1e-9

    def test_disabled_with_nonpositive_max(self):
        g = mapping(a=np.array([30.0, 40.0]))
        optim.clip_global_norm(g, max_norm=0.0)
        np.testing.assert_array_equal(g["a"], [30.0, 40.0])


class TestFdCheck:
    def test_quadratic_gradient_passes_tightly(self):
        rng = np.random.default_rng(3)
        tensors = {"p": rng.normal(size=6), "q": rng.normal(size=(2, 3))}

        def loss():
            return 0.5 * sum(float(np.sum(a * a)) for a in tensors.values())

        analytic = {k: v.copy() for k, v in tensors.items()}
        report = optim.fd_check(loss, tensors, analytic, tol=1e-8)
        assert report.passed, str(report)
        assert report.max_rel_err <= 1e-8
        assert report.n_checked == 12

    def test_corrupted_gradient_fails(self):
        rng = np.random.default_rng(4)
        tensors = {"p": rng.normal(size=6) + 2.0}

        def loss():
            return 0.5 * float(np.sum(tensors["p"] ** 2))

        analytic = {"p": 2.0 * tensors["p"]}   # doubled on purpose
        report = optim.fd_check(loss, tensors, analytic)
        assert not report.passed
        assert report.max_rel_err > 0.1

    def test_restores_parameters(self):
        tensors = {"p": np.array([1.0, -2.0])}
        before = tensors["p"].copy()

        def loss():
            return float(np.sum(tensors["p"] ** 2))

        optim.fd_check(loss, tensors, {"p": 2 * tensors["p"]})
        np.testing.assert_array_equal(tensors["p"], before)

    def test_missing_gradient_raises(self):
        tensors = {"p": np.zeros(2)}
        with pytest.raises(KeyError):
            optim.fd_check(lambda: 0.0, tensors, {})
