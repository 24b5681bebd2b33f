import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stpoi import model, numkit
from stpoi.cells import CellParams

from helpers import matmul_in_tiles, sigmoid_two_branch, softmax_xent

# Expected values below are frozen from independent oracles (math module /
# closed forms), not from the functions under test.
SIG_NEG1 = 1.0 / (1.0 + math.e)          # 0.2689414213699951
LOG4 = math.log(4.0)                     # 1.3862943611198906
XENT_10_M10 = np.logaddexp(0.0, -20.0)   # -log sigmoid(20) = 2.0611536e-09


class TestSigmoid:
    def test_zero_is_half(self):
        np.testing.assert_array_equal(numkit.sigmoid(np.zeros(3)), 0.5 * np.ones(3))

    def test_minus_one(self):
        got = numkit.sigmoid(np.array([-1.0]))
        np.testing.assert_allclose(got, [SIG_NEG1], rtol=0, atol=1e-15)

    def test_saturation(self):
        got = numkit.sigmoid(np.array([100.0, -100.0]))
        assert abs(got[0] - 1.0) < 1e-12
        assert got[1] >= 0.0 and got[1] < 1e-12

    def test_symmetry(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(
            numkit.sigmoid(x) + numkit.sigmoid(-x), np.ones_like(x), atol=1e-15
        )

    def test_bitwise_equal_to_two_branch_form(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = rng.normal(scale=20.0, size=(16, 128))
            np.testing.assert_array_equal(numkit.sigmoid(x), sigmoid_two_branch(x))
        edges = np.array([0.0, -0.0, 800.0, -800.0, 36.7, -36.7, 745.2, -745.2])
        got = numkit.sigmoid(edges)
        want = sigmoid_two_branch(edges)
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @given(st.floats(-15, 15), st.floats(min_value=1e-3, max_value=10))
    def test_strictly_increasing(self, x, gap):
        lo = numkit.sigmoid(np.array([x]))[0]
        hi = numkit.sigmoid(np.array([x + gap]))[0]
        assert lo < hi
        assert 0.0 < lo < 1.0 and 0.0 < hi < 1.0


class TestAffine:
    def test_identity(self):
        x = np.array([[2.0, -3.0]])
        got = numkit.affine(np.eye(2), x, np.zeros(2))
        np.testing.assert_array_equal(got, x)

    def test_zero_matrix_returns_bias(self):
        b = np.array([1.5, -0.5, 2.0])
        got = numkit.affine(np.zeros((3, 4)), np.ones((1, 4)), b)
        np.testing.assert_array_equal(got, [b])

    def test_example(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = numkit.affine(w, np.array([[1.0, 1.0]]), np.zeros(2))
        np.testing.assert_array_equal(got, [[3.0, 7.0]])

    def test_batch_rows_match_vector_calls(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        xb = rng.normal(size=(5, 6))
        batch = numkit.affine(w, xb, b)
        for r in range(5):
            np.testing.assert_allclose(batch[r], numkit.affine(w, xb[r:r + 1], b)[0],
                                       atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            numkit.affine(np.ones((2, 3)), np.ones((1, 4)), np.ones(2))
        with pytest.raises(ValueError):
            numkit.affine(np.ones((2, 3)), np.ones((1, 3)), np.ones(3))
        with pytest.raises(ValueError):     # a bare vector is not a batch
            numkit.affine(np.ones((2, 3)), np.ones(3), np.ones(2))


class TestTileInvariance:
    """A row's bits must not depend on the batch it rides in: batched
    training stays exactly additive and batched evaluation equals the
    streaming one.  The kernels make one BLAS call over at least 16 rows
    where a probe finds that it gives each row the bits of a 16-row call,
    and 16-row tiles elsewhere; a BLAS or a probe that breaks that fails
    here, at call heights from one row to taller than the model's
    blocks."""

    POOL = 40
    ROWS = model.TERM_ROWS + 100
    # (rows of w, cols of w, leading and trailing columns of a wider matrix
    # that w is a view without): one toy gate and the toy readout, one
    # paper gate and the paper readout, a readout whose affine (4937, 128)
    # and whose matmul_rows (128, 4937) output width is not a multiple of
    # 8, the stacked z-gates at n 16 (whose tall products differ from
    # 16-row ones on OpenBLAS's SkylakeX kernels) and at n 128, the
    # products over whole blocks of steps: the interval gates' w_x at n 128
    # (affine forward, matmul_rows backward) and the input gradient's
    # w_z[:, n_c:] at n 128 for three and four z-gates and at n 16 for
    # three, then the recurrent gradient's w_z[:, :n_c] at n 128 and n 16
    SHAPES = [(16, 32, 0, 0), (72, 16, 0, 0), (128, 256, 0, 0),
              (5000, 128, 0, 0), (4937, 128, 0, 0), (128, 4937, 0, 0),
              (48, 32, 0, 0), (384, 256, 0, 0), (512, 128, 0, 0),
              (384, 128, 128, 0), (512, 128, 128, 0), (48, 16, 16, 0),
              (384, 128, 0, 128), (48, 16, 0, 16)]

    @staticmethod
    def _pool(shape, seed):
        rows, cols, lead, trail = shape
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(rows, lead + cols + trail))[:, lead:lead + cols]
        b = rng.normal(size=rows)
        x = rng.normal(size=(TestTileInvariance.POOL, cols))
        up = rng.normal(size=(TestTileInvariance.POOL, rows))
        # each pool row computed alone, as a batch of one
        alone_affine = np.stack([numkit.affine(w, x[r:r + 1], b)[0]
                                 for r in range(len(x))])
        alone_matmul = np.stack([numkit.matmul_rows(up[r:r + 1], w)[0]
                                 for r in range(len(up))])
        return w, b, x, up, alone_affine, alone_matmul

    @pytest.fixture(scope="class")
    def pools(self):
        return [self._pool(shape, seed) for seed, shape in enumerate(self.SHAPES)]

    def check_rows(self, pool, rows):
        """``affine`` and ``matmul_rows`` on the pool rows ``rows`` equal
        the 16-row tile oracle on the same batch and each row alone."""
        w, b, x, up, alone_affine, alone_matmul = pool
        got = numkit.affine(w, x[rows], b)
        want = matmul_in_tiles(x[rows], w.T)
        want += b
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, alone_affine[rows])
        got = numkit.matmul_rows(up[rows], w)
        np.testing.assert_array_equal(got, matmul_in_tiles(up[rows], w))
        np.testing.assert_array_equal(got, alone_matmul[rows])

    @settings(max_examples=60, deadline=None)
    @given(which=st.integers(0, len(SHAPES) - 1),
           rows=st.lists(st.integers(0, POOL - 1), min_size=1, max_size=POOL))
    def test_rows_bit_identical_across_batch_size_and_position(self, pools,
                                                               which, rows):
        self.check_rows(pools[which], rows)

    @settings(max_examples=40, deadline=None)
    @given(which=st.integers(0, len(SHAPES) - 1),
           n=st.integers(1, ROWS), seed=st.integers(0, 2**32 - 1))
    def test_tall_batches_of_repeated_rows(self, pools, which, n, seed):
        self.check_rows(pools[which],
                        np.random.default_rng(seed).integers(0, self.POOL, n))

    @pytest.mark.parametrize("which", range(len(SHAPES)))
    def test_every_height_at_the_edges(self, pools, which):
        rng = np.random.default_rng(which)
        for n in (*range(1, 34), model.TERM_ROWS - 1, model.TERM_ROWS,
                  model.TERM_ROWS + 1, self.ROWS):
            self.check_rows(pools[which], rng.integers(0, self.POOL, n))

    @settings(max_examples=20, deadline=None)
    @given(which=st.integers(0, len(SHAPES) - 1),
           perm=st.permutations(range(POOL)))
    def test_rows_bit_identical_under_permutation(self, pools, which, perm):
        self.check_rows(pools[which], perm)


class TestCheckFinite:
    def test_names_the_bad_tensor(self):
        tensors = CellParams("lstm", {"ok": np.ones(3), "bad": np.array([[0.0, 1.0]]),
                                      "late": np.ones(2)},
                             {"ok": (3,), "bad": (1, 2), "late": (2,)})
        numkit.check_finite(tensors, "who")
        tensors["late"][0] = np.nan
        tensors["bad"][0, 1] = np.inf
        with pytest.raises(numkit.NonFiniteError, match="who: bad"):
            numkit.check_finite(tensors, "who")
        assert issubclass(numkit.NonFiniteError, ValueError)


def xent_row(z, t):
    """softmax_xent_rows on a single row."""
    losses, grads = numkit.softmax_xent_rows(np.asarray(z)[None, :], [t])
    return float(losses[0]), grads[0]


class TestSoftmaxXent:
    def test_uniform_logits_loss_is_log_n(self):
        loss, grad = xent_row(np.zeros(4), 2)
        assert abs(loss - LOG4) < 1e-12
        np.testing.assert_allclose(grad, [0.25, 0.25, -0.75, 0.25], atol=1e-15)

    def test_confident_correct(self):
        # the row function and the one-row oracle keep a tiny loss to full
        # precision (log1p)
        loss, _ = softmax_xent(np.array([10.0, -10.0]), 0)
        np.testing.assert_allclose(loss, XENT_10_M10, rtol=1e-9)
        loss, _ = xent_row(np.array([10.0, -10.0]), 0)
        np.testing.assert_allclose(loss, XENT_10_M10, rtol=1e-9)

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 2.0, 0.0])
        l1, g1 = xent_row(z, 1)
        l2, g2 = xent_row(z + 1000.0, 1)
        assert abs(l1 - l2) < 1e-9
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_grad_sums_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.normal(size=8) * 3
            _, g = xent_row(z, int(rng.integers(8)))
            assert abs(g.sum()) < 1e-12

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        eps = 1e-6
        for _ in range(20):
            z = rng.normal(size=6) * 2
            t = int(rng.integers(6))
            _, g = xent_row(z, t)
            for j in range(6):
                zp, zm = z.copy(), z.copy()
                zp[j] += eps
                zm[j] -= eps
                lp, _ = xent_row(zp, t)
                lm, _ = xent_row(zm, t)
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - g[j]) <= 1e-6 * max(1.0, abs(fd), abs(g[j]))

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            xent_row(np.zeros(3), 3)
        with pytest.raises(IndexError):
            xent_row(np.zeros(3), -1)

    def test_row_batch_matches_vector_calls(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(7, 5)) * 2
        t = rng.integers(5, size=7)
        losses, grads = numkit.softmax_xent_rows(z, t)
        for r in range(7):
            l1, g1 = softmax_xent(z[r], int(t[r]))
            assert abs(losses[r] - l1) < 1e-12
            np.testing.assert_allclose(grads[r], g1, atol=1e-14)
