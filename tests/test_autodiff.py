"""Engine tests: forward values against hand results, gradients against
central finite differences, Adam against its closed form."""

import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvfcast.autodiff import (
    AdamState,
    BatchNormState,
    EngineError,
    ShapeError,
    Tensor,
    adam_step,
    batch_norm,
    concat_channels,
    conv2d,
    dense,
    grad_check,
    masked_mae,
    relu,
    _toposort,
)
from hvfcast.domain import valid_mask_array
from hvfcast.evaluation import ensemble_means
from hvfcast.models import build_model, spec_from_name
from hvfcast.trainer import evaluate_masked_mae


def fd_grad(f, tensor: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued closure w.r.t. one tensor."""
    g = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f().data)
        flat[i] = orig - eps
        fm = float(f().data)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


class TestConv2d:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 8, 9)))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = conv2d(x, Tensor(w), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_kernel_counts_neighbors(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
        assert out.data[0, 0, 1, 1] == 9.0
        assert out.data[0, 0, 0, 0] == 4.0
        assert out.data[0, 0, 0, 1] == 6.0

    def test_relu_activation_clamps(self):
        x = Tensor(np.full((1, 1, 2, 2), -2.0))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = relu(conv2d(x, Tensor(w), Tensor(np.zeros(1))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_channel_mismatch_names_shapes(self):
        x = Tensor(np.zeros((1, 2, 8, 9)))
        with pytest.raises(ShapeError, match=r"\(1, 2, 8, 9\).*\(4, 3, 3, 3\)"):
            conv2d(x, Tensor(np.zeros((4, 3, 3, 3))), Tensor(np.zeros(4)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 2, 5, 6)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5)
        b = Tensor(rng.normal(size=3))
        probe = Tensor(rng.normal(size=(2, 3, 5, 6)))  # fixed projection -> smooth scalar

        def f():
            return _dot(conv2d(x, w, b), probe)

        for t in (x, w, b):
            t.zero_grad()
        out = f()
        out.backward()
        for t in (x, w, b):
            np.testing.assert_allclose(t.grad, fd_grad(f, t), rtol=0, atol=1e-7)

    def test_linear_in_input_with_zero_bias(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        b = Tensor(np.zeros(3))
        x1 = rng.normal(size=(1, 2, 8, 9))
        x2 = rng.normal(size=(1, 2, 8, 9))
        a, c = 1.7, -0.3
        lhs = conv2d(Tensor(a * x1 + c * x2), w, b).data
        rhs = a * conv2d(Tensor(x1), w, b).data + c * conv2d(Tensor(x2), w, b).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


    @pytest.mark.parametrize("k", [1, 3])
    def test_bit_identical_to_np_pad_im2col(self, k):
        """Forward and gradients equal the np.pad + im2col formulas exactly;
        the input gradient is the transposed convolution of `g`."""
        rng = np.random.default_rng(4)
        xd = rng.normal(size=(3, 2, 8, 9))
        wd = rng.normal(size=(4, 2, k, k))
        bd = rng.normal(size=4)
        g = rng.normal(size=(3, 4, 8, 9))
        w_flipped = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(2, 4 * k * k)
        expected_dx = np.matmul(w_flipped, _np_pad_im2col(g, k)).reshape(xd.shape)

        x, w, b = Tensor(xd), Tensor(wd), Tensor(bd)
        out = conv2d(x, w, b)
        expected, expected_dw, expected_db, _ = _reference_conv(xd, wd, bd, g)
        np.testing.assert_array_equal(out.data, expected)
        out._backward(g)
        np.testing.assert_array_equal(w.grad, expected_dw)
        np.testing.assert_array_equal(b.grad, expected_db)
        np.testing.assert_array_equal(x.grad, expected_dx)

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 4),
        c_in=st.integers(1, 5),
        c_out=st.integers(1, 5),
        k=st.sampled_from([1, 3]),
        height=st.integers(1, 9),
        width=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=32, c_in=26, c_out=1, k=3, height=8, width=9, seed=0)  # the Cascade head
    def test_transposed_conv_matches_col2im(self, batch, c_in, c_out, k, height, width, seed):
        """The input gradient equals the col2im scatter of W.T @ g within
        1e-12 relative; the output and the kernel and bias gradients are
        the im2col formulas bit for bit, except on the kn2row path, which
        sums the output and the kernel gradient in another order (within
        1e-12 relative)."""
        rng = np.random.default_rng(seed)
        xd = rng.normal(size=(batch, c_in, height, width))
        wd = rng.normal(size=(c_out, c_in, k, k))
        bd = rng.normal(size=c_out)
        g = rng.normal(size=(batch, c_out, height, width))
        x, w, b = Tensor(xd), Tensor(wd), Tensor(bd)
        out = conv2d(x, w, b)
        out._backward(g)
        expected, expected_dw, expected_db, col2im_dx = _reference_conv(xd, wd, bd, g)
        if _conv_path(c_in, c_out, k) == "kn2row":
            _assert_close(out.data, expected)
            _assert_close(w.grad, expected_dw)
        else:
            np.testing.assert_array_equal(out.data, expected)
            np.testing.assert_array_equal(w.grad, expected_dw)
        np.testing.assert_array_equal(b.grad, expected_db)
        _assert_close(x.grad, col2im_dx)

    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 4),
        c_in=st.integers(1, 16),
        c_out=st.integers(1, 6),
        k=st.sampled_from([1, 3, 5]),
        height=st.integers(1, 9),
        width=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=32, c_in=26, c_out=1, k=3, height=8, width=9, seed=1)  # Cascade-1 desk head
    @example(batch=4, c_in=50, c_out=8, k=3, height=8, width=9, seed=2)  # Cascade-3 block entry
    @example(batch=1, c_in=14, c_out=1, k=3, height=8, width=9, seed=3)  # a head at batch 1
    @example(batch=3, c_in=24, c_out=4, k=1, height=8, width=9, seed=4)  # a Residual projection
    def test_each_path_matches_its_reference(self, batch, c_in, c_out, k, height, width, seed):
        """Each forward path (1x1 matmul, kn2row, im2col) gives its own
        np.pad reference's output and gradients bit for bit; kn2row is also
        the im2col formula within 1e-12 relative."""
        rng = np.random.default_rng(seed)
        xd = rng.normal(size=(batch, c_in, height, width))
        wd = rng.normal(size=(c_out, c_in, k, k))
        bd = rng.normal(size=c_out)
        g = rng.normal(size=(batch, c_out, height, width))
        x, w, b = Tensor(xd), Tensor(wd), Tensor(bd)
        out = conv2d(x, w, b)
        out._backward(g)
        im2col_out, im2col_dw, expected_db, _ = _reference_conv(xd, wd, bd, g)
        w_flipped = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, c_out * k * k)
        expected_dx = np.matmul(w_flipped, _np_pad_im2col(g, k)).reshape(xd.shape)
        if _conv_path(c_in, c_out, k) == "kn2row":
            expected, expected_dw = _reference_kn2row(xd, wd, bd, g)
            _assert_close(out.data, im2col_out)
            _assert_close(w.grad, im2col_dw)
        else:
            expected, expected_dw = im2col_out, im2col_dw
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(w.grad, expected_dw)
        np.testing.assert_array_equal(b.grad, expected_db)
        np.testing.assert_array_equal(x.grad, expected_dx)

    def test_constant_input_gets_no_gradient(self):
        """A constant input is given no gradient, and the kernel and bias
        gradients are those of an input that requires one."""
        rng = np.random.default_rng(5)
        xd, wd, bd = rng.normal(size=(2, 6, 8, 9)), rng.normal(size=(2, 6, 3, 3)), rng.normal(size=2)
        g = rng.normal(size=(2, 2, 8, 9))
        grads = []
        for requires_grad in (True, False):
            x, w, b = Tensor(xd, requires_grad=requires_grad), Tensor(wd), Tensor(bd)
            conv2d(x, w, b)._backward(g)
            assert (x._grad is None) is not requires_grad
            grads.append((w.grad, b.grad))
        for a, b in zip(*grads):
            np.testing.assert_array_equal(a, b)


def _conv_path(c_in: int, c_out: int, k: int) -> str:
    """The forward conv2d takes for a layer shape: 1x1 kernels are one
    matmul, and an input at least 3 times wider than the output is kn2row."""
    if k == 1:
        return "matmul"
    return "kn2row" if c_in >= 3 * c_out else "im2col"


def _assert_close(actual, expected):
    """Equal within 1e-12 of the expected array's largest magnitude."""
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


def _reference_kn2row(xd, wd, bd, g):
    """kn2row output and kernel gradient: per-tap GEMMs of the kernel rows
    on the input, summed over np.pad-shifted taps in row-major order; the
    kernel gradient from the np.pad gather of `g` against the input."""
    batch, c_in, height, width = xd.shape
    c_out, _, k, _ = wd.shape
    pad = k // 2
    x_flat = xd.reshape(batch, c_in, height * width)
    rows = wd.transpose(2, 3, 0, 1).reshape(k * k * c_out, c_in)
    taps = np.matmul(rows, x_flat).reshape(batch, k, k, c_out, height, width)
    out = np.zeros((batch, c_out, height, width))
    for di in range(k):
        for dj in range(k):
            shifted = np.pad(taps[:, di, dj], ((0, 0), (0, 0), (pad, pad), (pad, pad)))
            out += shifted[:, :, di : di + height, dj : dj + width]
    dw = np.matmul(_np_pad_im2col(g, k), x_flat.transpose(0, 2, 1)).sum(axis=0)
    dw = dw.reshape(c_out, k, k, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    return out + bd[None, :, None, None], dw


def _np_pad_im2col(a: np.ndarray, k: int) -> np.ndarray:
    """(B, C*k*k, H*W) windows of `a` zero-padded by k//2, via np.pad and
    sliding_window_view, in a C-contiguous buffer like the engine's (matmul
    may sum a strided operand in another order)."""
    batch, channels, height, width = a.shape
    pad = k // 2
    apad = np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(apad, (k, k), axis=(2, 3))
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(batch, channels * k * k, height * width)
    return np.ascontiguousarray(cols)


def _reference_conv(xd, wd, bd, g):
    """Output, kernel and bias gradients by im2col, and the input gradient
    by the col2im scatter of W.T @ g."""
    batch, c_in, height, width = xd.shape
    c_out, _, k, _ = wd.shape
    pad = k // 2
    cols = _np_pad_im2col(xd, k)
    w2d = wd.reshape(c_out, c_in * k * k)
    g2 = g.reshape(batch, c_out, height * width)
    out = np.matmul(w2d, cols).reshape(g.shape) + bd[None, :, None, None]
    dw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(wd.shape)
    dcols = np.matmul(w2d.T, g2).reshape(batch, c_in, k, k, height, width)
    dxpad = np.zeros((batch, c_in, height + 2 * pad, width + 2 * pad))
    for di in range(k):
        for dj in range(k):
            dxpad[:, :, di : di + height, dj : dj + width] += dcols[:, :, di, dj]
    return out, dw, g.sum(axis=(0, 2, 3)), dxpad[:, :, pad : pad + height, pad : pad + width]


def _dot(out: Tensor, probe: Tensor) -> Tensor:
    """Scalar projection sum(out * probe) built from engine ops."""

    def backward(g):
        out.grad += g * probe.data

    prod = Tensor(out.data * probe.data, (out,), backward)

    def backward_sum(g):
        prod.grad += g

    return Tensor(prod.data.sum(), (prod,), backward_sum)


class TestDense:
    def test_identity(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        out = dense(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_example(self):
        out = dense(Tensor([[3.0, 4.0]]), Tensor([[1.0, 2.0]]), Tensor([0.5]))
        assert out.data[0, 0] == pytest.approx(11.5, abs=1e-15)

    def test_relu_on_negative_preactivation(self):
        out = relu(dense(Tensor([[1.0]]), Tensor([[-1.0]]), Tensor([0.0])))
        assert out.data[0, 0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            dense(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=2))
        probe = Tensor(rng.normal(size=(4, 2)))

        def f():
            return _dot(dense(x, w, b), probe)

        for t in (x, w, b):
            t.zero_grad()
        f().backward()
        for t in (x, w, b):
            np.testing.assert_allclose(t.grad, fd_grad(f, t), atol=1e-8)

    def test_linear_in_input(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(5, 3)))
        b = Tensor(np.zeros(5))
        x1, x2 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        lhs = dense(Tensor(2.0 * x1 - 0.5 * x2), w, b).data
        rhs = 2.0 * dense(Tensor(x1), w, b).data - 0.5 * dense(Tensor(x2), w, b).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(loc=3.0, scale=2.5, size=(4, 3, 8, 9)))
        state = BatchNormState.create(3)
        out = batch_norm(x, state, True)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(var, 1.0, atol=1e-4)  # epsilon shrinks variance slightly

    def test_infer_mode_hand_example(self):
        state = BatchNormState.create(1)
        state.running_mean[:] = 0.0
        state.running_var[:] = 1.0
        state.gamma.data[:] = 2.0
        state.beta.data[:] = 3.0
        out = batch_norm(Tensor(np.ones((1, 1, 2, 2))), state, train=False)
        np.testing.assert_allclose(out.data, 5.0, atol=1e-4)

    def test_infer_is_pure(self):
        rng = np.random.default_rng(6)
        state = BatchNormState.create(2)
        batch_norm(Tensor(rng.normal(size=(4, 2, 3, 3))), state, True)  # populate running stats
        x = rng.normal(size=(2, 2, 3, 3))
        running = (state.running_mean.copy(), state.running_var.copy())
        a = batch_norm(Tensor(x), state, train=False).data
        b = batch_norm(Tensor(x), state, train=False).data
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state.running_mean, running[0])
        np.testing.assert_array_equal(state.running_var, running[1])
        # infer mode really reads the running statistics, not the batch's
        assert np.abs(a - batch_norm(Tensor(x), state, train=True).data).max() > 1e-3

    def test_running_stats_ema(self):
        rng = np.random.default_rng(7)
        x = rng.normal(loc=5.0, size=(8, 1, 4, 4))
        state = BatchNormState.create(1)
        assert state.momentum == 0.9
        batch_norm(Tensor(x), state, True)
        np.testing.assert_allclose(state.running_mean, 0.1 * x.mean(), atol=1e-12)
        np.testing.assert_allclose(state.running_var, 0.9 + 0.1 * x.var(), atol=1e-12)

    def test_train_mode_writes_running_stats_in_place(self):
        """A model lists its running-statistic arrays once, at build time."""
        rng = np.random.default_rng(9)
        x = rng.normal(loc=2.0, size=(4, 2, 3, 3))
        state = BatchNormState.create(2)
        state.momentum = 0.5
        mean, var = state.running_mean, state.running_var
        batch_norm(Tensor(x), state, True)
        assert state.running_mean is mean and state.running_var is var
        np.testing.assert_array_equal(mean, 0.5 * x.mean(axis=(0, 2, 3)))
        np.testing.assert_array_equal(var, 0.5 + 0.5 * x.var(axis=(0, 2, 3)))

    def test_batch_of_one_constant_channel_is_finite(self):
        state = BatchNormState.create(1)
        out = batch_norm(Tensor(np.full((1, 1, 3, 3), 7.0)), state, True)
        assert np.all(np.isfinite(out.data))

    def test_train_gradients(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 2, 4, 4)))
        state = BatchNormState.create(2)
        probe = Tensor(rng.normal(size=(3, 2, 4, 4)))

        def f():
            return _dot(batch_norm(x, state, True), probe)

        for t in (x, state.gamma, state.beta):
            t.zero_grad()
        f().backward()
        for t in (x, state.gamma, state.beta):
            np.testing.assert_allclose(t.grad, fd_grad(f, t), atol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            batch_norm(Tensor(np.zeros((1, 3, 2, 2))), BatchNormState.create(2), True)


class TestConcat:
    def test_order_and_channel_count(self):
        a = Tensor(np.full((1, 2, 2, 2), 1.0))
        b = Tensor(np.full((1, 3, 2, 2), 2.0))
        out = concat_channels([a, b])
        assert out.data.shape == (1, 5, 2, 2)
        np.testing.assert_array_equal(out.data[:, :2], 1.0)
        np.testing.assert_array_equal(out.data[:, 2:], 2.0)

    def test_single_input_is_identity(self):
        a = Tensor(np.zeros((1, 2, 2, 2)))
        assert concat_channels([a]) is a

    def test_backward_splits_gradient(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(2, 2, 3, 3)))
        b = Tensor(rng.normal(size=(2, 1, 3, 3)))
        probe = Tensor(rng.normal(size=(2, 3, 3, 3)))

        def f():
            return _dot(concat_channels([a, b]), probe)

        a.zero_grad(), b.zero_grad()
        f().backward()
        np.testing.assert_allclose(a.grad, fd_grad(f, a), atol=1e-8)
        np.testing.assert_allclose(b.grad, fd_grad(f, b), atol=1e-8)

    def test_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            concat_channels([Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 2)))])


class TestMaskedMae:
    def _mask(self, cells, shape=(2, 3)):
        m = np.zeros(shape, dtype=bool)
        for cell in cells:
            m[cell] = True
        return m

    def test_equal_is_zero(self):
        x = np.arange(6, dtype=float).reshape(1, 1, 2, 3)
        loss = masked_mae(Tensor(x), x.copy(), self._mask([(0, 0), (1, 2)]))
        assert float(loss.data) == 0.0

    def test_hand_mean(self):
        pred = np.zeros((1, 1, 2, 3))
        target = np.zeros((1, 1, 2, 3))
        target[0, 0, 0, 0] = 2.0
        target[0, 0, 1, 1] = -4.0
        loss = masked_mae(Tensor(pred), target, self._mask([(0, 0), (1, 1)]))
        assert float(loss.data) == pytest.approx(3.0, abs=1e-15)

    def test_off_mask_cells_ignored(self):
        rng = np.random.default_rng(10)
        pred = rng.normal(size=(2, 1, 2, 3))
        target = rng.normal(size=(2, 1, 2, 3))
        mask = self._mask([(0, 1)])
        base = float(masked_mae(Tensor(pred), target, mask).data)
        pred2 = pred.copy()
        pred2[:, :, 1, 2] += 100.0
        assert float(masked_mae(Tensor(pred2), target, mask).data) == base

    def test_gradient_values(self):
        pred = Tensor(np.zeros((2, 1, 2, 3)))
        target = np.zeros((2, 1, 2, 3))
        target[0, 0, 0, 0] = 1.0  # pred < target there
        target[1, 0, 1, 1] = -1.0
        mask = self._mask([(0, 0), (1, 1)])
        loss = masked_mae(pred, target, mask)
        loss.backward()
        denom = 2 * 2  # batch * mask size
        assert pred.grad[0, 0, 0, 0] == -1.0 / denom
        assert pred.grad[1, 0, 1, 1] == 1.0 / denom
        assert pred.grad[0, 0, 1, 1] == 0.0  # equal -> subgradient 0
        assert pred.grad[0, 0, 0, 2] == 0.0  # off-mask -> exactly 0

    def test_empty_mask_errors(self):
        with pytest.raises(EngineError, match="empty mask"):
            masked_mae(Tensor(np.zeros((1, 1, 2, 3))), np.zeros((1, 1, 2, 3)), np.zeros((2, 3), bool))


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.array([1.0, -2.0]))
        params = {"p": p}
        adam_step(params, AdamState())
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        p = Tensor(np.array([0.0]))
        params = {"theta": p}
        p.grad[:] = 1.0
        state = AdamState(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        adam_step(params, state)
        expected = -1e-3 * 1.0 / (1.0 + 1e-8)  # bias-corrected m=v=1
        assert abs(p.data[0] - expected) < 1e-12
        assert state.step_count == 1
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_quadratic_convergence(self):
        # matches torch.optim.Adam bit-for-bit on this trajectory; the slow
        # second-moment decay makes the first |theta| < 1e-2 land at step 2203
        p = Tensor(np.array([1.0]))
        params = {"theta": p}
        state = AdamState(lr=1e-3)
        first_pass = None
        for step in range(2500):
            p.grad[:] = 2.0 * p.data
            adam_step(params, state)
            if first_pass is None and abs(p.data[0]) < 1e-2:
                first_pass = step + 1
        assert first_pass is not None and first_pass <= 2250

    def test_determinism(self):
        def run():
            p = Tensor(np.array([0.3, -0.7]))
            params = {"p": p}
            state = AdamState(lr=1e-2)
            for i in range(50):
                p.grad[:] = np.sin(p.data + i)
                adam_step(params, state)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_nonfinite_gradient_names_parameter(self):
        p = Tensor(np.array([0.0]))
        params = {"bad_layer": p}
        p.grad[:] = np.nan
        with pytest.raises(FloatingPointError, match="^non-finite gradient in 'bad_layer'$"):
            adam_step(params, AdamState())

    def test_nonfinite_gradient_moves_no_parameter(self):
        first, bad = Tensor(np.array([1.0])), Tensor(np.array([2.0]))
        first.grad[:] = 1.0
        bad.grad[:] = np.inf
        with pytest.raises(FloatingPointError, match="'bad'"):
            adam_step({"first": first, "bad": bad}, AdamState())
        assert first.data[0] == 1.0 and bad.data[0] == 2.0

    def test_concatenated_update_equals_per_parameter_update(self):
        """50 steps of a Cascade-2 model give the parameters of Adam run
        separately on each parameter, bit for bit."""
        spec = spec_from_name("Cascade-2", widths=(3, 4, 5), in_channels=2, seed=8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 2, 8, 9)) * 4 + 20
        y = rng.normal(size=(4, 1, 8, 9)) * 4 + 20
        mask = valid_mask_array()
        models = [build_model(spec), build_model(spec)]
        states = [AdamState(lr=1e-2), AdamState(lr=1e-2)]
        moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for _ in range(50):
            for m in models:
                masked_mae(m.forward(x, mode="train"), y, mask).backward()
            adam_step(models[0].params, states[0])
            _per_parameter_adam(models[1].params, states[1], moments)
            for (name, a), b in zip(models[0].params.items(), models[1].params.values()):
                np.testing.assert_array_equal(a.data, b.data, err_msg=name)


def _per_parameter_adam(params: dict[str, Tensor], state: AdamState, moments: dict) -> None:
    """Bias-corrected Adam, one parameter at a time."""
    state.step_count += 1
    bias1 = 1.0 - state.beta1**state.step_count
    bias2 = 1.0 - state.beta2**state.step_count
    for name, p in params.items():
        g = p.grad
        m, v = moments.setdefault(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
        m[...] = state.beta1 * m + (1.0 - state.beta1) * g
        v[...] = state.beta2 * v + (1.0 - state.beta2) * g * g
        p.data -= state.lr * (m / bias1) / (np.sqrt(v / bias2) + state.eps)
        p.grad[...] = 0.0


class TestRequiresGrad:
    def test_outputs_inherit_from_any_parent(self):
        const, var = Tensor(np.ones(3), requires_grad=False), Tensor(np.ones(3))
        assert (const + var).requires_grad and (var + const).requires_grad
        both = const + Tensor(np.ones(3), requires_grad=False)
        assert not both.requires_grad
        assert (both._parents, both._backward) == ((), None)  # no graph behind a constant

    def test_dense_and_concat_skip_constant_inputs(self):
        rng = np.random.default_rng(3)
        const = Tensor(rng.normal(size=(2, 1, 2, 3)), requires_grad=False)
        var = Tensor(rng.normal(size=(2, 2, 2, 3)))
        joined = concat_channels([const, var])
        w, b = Tensor(rng.normal(size=(4, 18))), Tensor(np.zeros(4))
        out = dense(joined.reshape(2, 18), w, b)
        _dot(out, Tensor(rng.normal(size=(2, 4)))).backward()
        assert const._grad is None
        assert np.any(var.grad != 0.0) and np.any(w.grad != 0.0)

        flat = Tensor(rng.normal(size=(2, 18)), requires_grad=False)
        _dot(dense(flat, w, b), Tensor(np.ones((2, 4)))).backward()
        assert flat._grad is None


class TestGradCheck:
    def test_quadratic(self):
        theta = Tensor(np.array([3.0]))

        def f():
            def backward(g):
                theta.grad += g * 2 * theta.data

            return Tensor(theta.data**2, (theta,), backward)

        assert grad_check(f, [theta]) < 1e-8

    def test_constant_function(self):
        theta = Tensor(np.array([1.0, 2.0]))

        def f():
            return Tensor(np.array(5.0), parents=(theta,), backward=lambda g: None)

        assert grad_check(f, [theta]) == 0.0

    def test_composed_network(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 1, 4, 5)) + 1.0
        target = rng.normal(size=(2, 1, 4, 5))
        mask = rng.random((4, 5)) < 0.7
        w = Tensor(rng.normal(size=(3, 1, 3, 3)) * 0.4)
        b = Tensor(rng.normal(size=3) * 0.1)
        state = BatchNormState.create(3)

        def f():
            h = conv2d(Tensor(x), w, b)
            h = batch_norm(h, state, True)
            h = relu(h)
            return masked_mae(_reduce_channels(h), target, mask)

        err = grad_check(f, [w, b, state.gamma, state.beta], kink_tol=1e-6)
        assert err < 1e-5

    def test_kink_exclusion_skips_corner(self):
        theta = Tensor(np.array([0.0]))  # exactly at the relu corner

        def f():
            return _sum_all(relu(theta))

        # without exclusion the finite difference sees slope 0.5
        assert grad_check(f, [theta]) > 0.4
        assert grad_check(f, [theta], kink_tol=1e-6) == 0.0


def _sum_all(x: Tensor) -> Tensor:
    def backward(g):
        x.grad += g

    return Tensor(x.data.sum(), (x,), backward)


def _reduce_channels(x: Tensor) -> Tensor:
    """(B, C, H, W) -> (B, 1, H, W) by channel sum, so shapes fit masked_mae."""

    def backward(g):
        x.grad += np.broadcast_to(g, x.data.shape)

    return Tensor(x.data.sum(axis=1, keepdims=True), (x,), backward)


class TestTensor:
    def test_backward_requires_scalar(self):
        with pytest.raises(EngineError, match="scalar"):
            Tensor(np.zeros(3)).backward()

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2))) + Tensor(np.zeros((3, 2)))

    def test_reshape_round_trip_gradient(self):
        x = Tensor(np.arange(6, dtype=float))
        y = x.reshape(2, 3).reshape(6)
        _sum_all(y).backward()
        np.testing.assert_array_equal(x.grad, 1.0)

    def test_float64_enforced(self):
        assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == np.float64

    def test_grad_allocated_on_first_read(self):
        t = Tensor(np.ones((2, 3)))
        t.zero_grad()
        assert t._grad is None
        np.testing.assert_array_equal(t.grad, np.zeros((2, 3)))
        assert t.grad is t._grad


def _every_op(rng) -> list[Tensor]:
    """One output of each op, on small random operands."""
    x = Tensor(rng.normal(size=(2, 2, 4, 5)))
    w, b = Tensor(rng.normal(size=(3, 2, 3, 3))), Tensor(rng.normal(size=3))
    conv = conv2d(x, w, b)
    state = BatchNormState.create(3)
    flat = x.reshape(2, 40)
    return [
        x + x,
        flat,
        relu(x),
        conv,
        dense(flat, Tensor(rng.normal(size=(4, 40))), Tensor(rng.normal(size=4))),
        batch_norm(conv, state, train=False),
        batch_norm(conv, state, train=True),
        concat_channels([x, conv]),
        masked_mae(Tensor(rng.normal(size=(2, 1, 4, 5))), np.zeros((2, 1, 4, 5)), np.ones((4, 5))),
    ]


def _cyclic_garbage_after(run) -> int:
    """Objects the cyclic collector finds once `run()` has returned, with
    automatic collection off while it runs."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestAcyclicGraph:
    """No closure references its own output, so a dropped graph is freed by
    reference counting, backpropagated or not."""

    def test_every_op_output_leaves_no_cycle(self):
        assert _cyclic_garbage_after(lambda: _every_op(np.random.default_rng(1))) == 0

    @pytest.mark.parametrize("name", ["Cascade-2", "Residual-2"])
    def test_inference_leaves_no_cycle(self, name):
        rng = np.random.default_rng(2)
        fold_models = [
            build_model(spec_from_name(name, widths=(2, 3, 4), seed=seed)) for seed in (0, 1)
        ]
        xs, ys = rng.normal(size=(2, 7, 1, 8, 9)) * 4 + 20
        assert _cyclic_garbage_after(lambda: ensemble_means(fold_models, xs)) == 0
        assert _cyclic_garbage_after(lambda: evaluate_masked_mae(fold_models[0], xs, ys, 3)) == 0


def _small_net(rng) -> tuple[Tensor, list[Tensor]]:
    """A scalar loss over every taped op, one input used twice, and its leaves."""
    x = Tensor(rng.normal(size=(2, 2, 4, 5)))
    w1, b1 = Tensor(rng.normal(size=(3, 2, 3, 3))), Tensor(rng.normal(size=3))
    w2, b2 = Tensor(rng.normal(size=(1, 5, 1, 1))), Tensor(rng.normal(size=1))
    wd, bd = Tensor(rng.normal(size=(20, 20))), Tensor(rng.normal(size=20))
    state = BatchNormState.create(3)
    h = relu(batch_norm(conv2d(x, w1, b1), state, train=True))
    h = conv2d(concat_channels([h, x]), w2, b2)
    h = dense((h + h).reshape(2, 20), wd, bd).reshape(2, 1, 4, 5)
    loss = masked_mae(h, rng.normal(size=(2, 1, 4, 5)), rng.random((4, 5)) < 0.7)
    return loss, [x, w1, b1, w2, b2, wd, bd, state.gamma, state.beta]


class TestBackwardConsumesGraph:
    def test_nodes_dropped_and_gradients_unchanged(self):
        loss, leaves = _small_net(np.random.default_rng(5))
        nodes = _toposort(loss)
        loss.backward()
        assert len(nodes) == 19
        assert [(n._parents, n._backward) for n in nodes] == [((), None)] * len(nodes)

        # the reference walk runs every closure and keeps the graph
        kept, kept_leaves = _small_net(np.random.default_rng(5))
        order = _toposort(kept)
        kept.grad = np.ones_like(kept.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
        assert sum(n._backward is not None for n in order) == 10
        for a, b in zip(leaves, kept_leaves):
            np.testing.assert_array_equal(a.grad, b.grad)
