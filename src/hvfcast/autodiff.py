"""Reverse-mode automatic differentiation on float64 numpy arrays.

Small tape-based engine sized for this pipeline: 4-axis grids shaped
(batch, channels, height, width), 3x3/1x1 same-padding convolutions,
per-channel batch normalization, dense layers, channel concatenation,
and a masked mean-absolute-error loss.

Every op builds a `Tensor` node holding the forward value, its parents,
and a closure `backward(g)` that scatters the upstream gradient `g` into
the parents' accumulators.  A gradient array the closure has just
allocated becomes the parent's accumulator when it has none; no gradient
is computed for a parent that does not require one (a constant, such as
the input batch).  A closure captures the arrays it needs and the
parents, never its own output, so a graph has no reference cycle: it is
freed by reference counting as soon as its output is dropped, whether or
not it was backpropagated.  `Tensor.backward()` walks the graph in reverse
topological order and drops each closure once it has run.

A convolution takes one of two GEMM forms by its shape (see `conv2d`):
im2col, one GEMM on the gathered k x k windows of the input, or, where the
input is at least 3 times wider than the output, kn2row, one GEMM on the
ungathered input followed by a shift-add of k*k narrow partial outputs.
A 1x1 convolution is a plain matmul.

`conv2d`, `dense` and `batch_norm` run M models of one architecture at
once: each parameter may carry a leading model axis M (without one, M = 1),
and an activation holds the M models' batches model-major, (M*B, ...), so
rows m*B to (m+1)*B - 1 are model m's.  A `shared` input is one batch of B
rows that every model reads, gathered once.  Every model's values are
those of its own forward: the stacked GEMMs are the same per-model GEMMs
in one call, and batch norm keeps per-model statistics.  The other ops are
elementwise or per row, so they need not know M.

All arithmetic is 64-bit, and every reduction is a plain numpy reduction
with a fixed evaluation order, so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class EngineError(ValueError):
    """Misuse of the engine: incompatible operand shapes, an empty mask or
    concat, a non-scalar backward.  A bug, not bad input."""


class Tensor:
    """An array node in the autodiff graph with a gradient accumulator.

    The accumulator is allocated on first read or write, so nodes that
    never take part in a backward pass (inference forwards, loaded
    parameters) hold none.  `requires_grad` is false for a constant, such
    as the input batch a model is run on; an op's output requires a
    gradient when any parent does, and one that does not keeps no closure
    and no parents.  Ops skip the gradients of constants.
    """

    __slots__ = ("data", "_grad", "_parents", "_backward", "requires_grad")

    def __init__(self, data, parents=(), backward=None, requires_grad=True):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None
        if parents:
            requires_grad = any(p.requires_grad for p in parents)
        self.requires_grad = requires_grad
        self._parents = tuple(parents) if requires_grad else ()
        self._backward = backward if requires_grad else None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    def _take_grad(self, g: np.ndarray) -> None:
        """Accumulate `g`, an array of this node's shape that the caller
        has just allocated and hands over: the first one becomes the
        accumulator.  A view of another array must go through `grad +=`."""
        if self._grad is None:
            self._grad = g
        else:
            self._grad += g

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.data.shape != other.data.shape:
            raise EngineError(f"add: {self.data.shape} vs {other.data.shape}")

        def backward(g):
            self.grad += g
            other.grad += g

        return Tensor(self.data + other.data, (self, other), backward)

    def reshape(self, *shape) -> "Tensor":
        def backward(g):
            self.grad += g.reshape(self.data.shape)

        return Tensor(self.data.reshape(*shape), (self,), backward)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable node's .grad.

        The graph is consumed: each node's closure and parents are dropped
        once the closure has run, so buffers held only by a closure (such
        as conv2d's `cols`) are released during the walk, not when the
        caller drops the output.
        """
        if self.data.size != 1:
            raise EngineError("backward() requires a scalar output")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = None
                node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


# ---------------------------------------------------------------------------
# Layers


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)

    def backward(g):
        x._take_grad(g * (y > 0.0))

    return Tensor(y, (x,), backward)


# kn2row pays where the input is at least this many times wider than the
# output (see conv2d)
KN2ROW_MIN_RATIO = 3
# At most this many rows of windows are gathered at once by an im2col conv
# of a stack that builds no graph, so that serving a bin needs no buffer
# much larger than a training step's
STACK_GATHER_ROWS = 64


def _model_rows(op: str, x: Tensor, models: int, shared: bool) -> tuple[int, int]:
    """(leading axis of x's batches: 1 if shared else M, B) for an input of
    M*B model-major rows, or of B rows read by every model."""
    rows = x.data.shape[0]
    if shared:
        return 1, rows
    if rows % models:
        raise EngineError(f"{op}: {rows} input rows do not split over {models} models")
    return models, rows // models


def conv2d(x: Tensor, weights: Tensor, bias: Tensor, shared: bool = False) -> Tensor:
    """Stride-1 same-padding 2-D convolution over (M*B, C_in, H, W) with
    square odd kernels, for the M models of `weights` (M, C_out, C_in, k, k)
    and `bias` (M, C_out), or one model's (C_out, C_in, k, k) and (C_out,).

    Output spatial size equals input size, shaped (M*B, C_out, H, W), model
    m's rows from its own kernel on its own rows of `x`; with `shared`, `x`
    is one (B, C_in, H, W) batch that every model reads, and it is gathered
    once.  The layer's shape picks one of three forwards, all exact up to
    the order of float sums:

    * k = 1: one GEMM of the (C_out, C_in) kernel on the input itself.
    * k > 1 and C_in >= 3 * C_out (kn2row, Vasudevan, Anderson & Gregg
      2017): one GEMM of the (k*k*C_out, C_in) kernel rows on the
      ungathered input gives k*k narrow partial outputs, which a
      shift-add in fixed tap order sums.
    * otherwise (im2col): one GEMM on the gather of every k x k window of
      the zero-padded input.

    Each is one stacked `np.matmul` over (model, sample), which runs the
    per-model GEMMs, so a model's output has the same bits alone or in a
    stack.  An im2col stack that builds no graph gathers and multiplies a
    group of models at a time, at most STACK_GATHER_ROWS rows of windows.

    The 3x rule comes from forward+backward timings at B=32 on the 8x9
    grid (2-vCPU Xeon, one OpenBLAS thread), im2col -> kn2row: 26->1
    1323 -> 262 us, 50->8 4719 -> 2526, 24->8 2371 -> 1905, 12->4
    1138 -> 876, about even at 16->8 (1504 -> 1511), and slower at 12->8
    (1303 -> 1464).

    The backward gathers the upstream gradient `g`, never the input.  The
    input gradient is the transposed convolution: that gather times the
    180-degree-rotated kernel with its channel axes swapped, so there is no
    col2im scatter; it is skipped when the input requires no gradient, and
    a shared input's sums the models'.  kn2row's kernel gradient is the same
    gather against the input, so on that path nothing as wide as the input
    is gathered at all.  Gradients are exact w.r.t. the input, the kernel,
    and the bias.
    """
    if x.data.ndim != 4:
        raise EngineError(f"conv2d input must be 4-axis, got shape {x.data.shape}")
    rows, c_in, height, width = x.data.shape
    c_out, c_in_w, kh, kw = weights.data.shape[-4:]
    if c_in != c_in_w:
        raise EngineError(
            f"conv2d channel mismatch: input {x.data.shape} vs kernel {weights.data.shape}"
        )
    if kh != kw or kh % 2 == 0:
        raise EngineError(f"conv2d kernel must be square and odd, got {kh}x{kw}")
    w = weights.data.reshape(-1, c_out, c_in, kh, kh)
    models = w.shape[0]
    lead, batch = _model_rows("conv2d", x, models, shared)
    pixels = height * width

    x_flat = x.data.reshape(lead, batch, c_in, pixels)
    kn2row = kh > 1 and c_in >= KN2ROW_MIN_RATIO * c_out
    if kn2row:
        rows_w = w.transpose(0, 3, 4, 1, 2).reshape(models, 1, kh * kh * c_out, c_in)
        partial = np.matmul(rows_w, x_flat).reshape(models * batch, kh * kh * c_out, pixels)
        out = _shift_add(partial, kh, height, width).reshape(models, batch, c_out, height, width)
        out = out + bias.data.reshape(models, 1, c_out, 1, 1)
    else:
        # The cols buffer lives in the backward closure until backward runs
        # or the output is dropped; at the grid sizes this engine targets
        # that is a few MB per layer.  A 1x1 window is the input itself.
        def gather(rows):
            cols = _im2col(rows.reshape(-1, c_in, height, width), kh) if kh > 1 else rows
            return cols.reshape(-1, batch, c_in * kh * kh, pixels)

        w2d = w.reshape(models, 1, c_out, c_in * kh * kh)
        if lead == 1 or x.requires_grad or weights.requires_grad or bias.requires_grad:
            cols = gather(x_flat)
            out = np.matmul(w2d, cols)
        else:  # an untaped stack gathers a few models at a time
            group = max(1, STACK_GATHER_ROWS // batch)
            out = np.empty((models, batch, c_out, pixels))
            for m in range(0, models, group):
                np.matmul(w2d[m : m + group], gather(x_flat[m : m + group]), out=out[m : m + group])
        out += bias.data.reshape(models, 1, c_out, 1)

    def backward(g):
        g2 = g.reshape(models, batch, c_out, pixels)
        bias._take_grad(g2.sum(axis=(1, 3)).reshape(bias.data.shape))
        # row o*k*k + di*k + dj, column i*W + j of g_cols is g[o] at
        # (i+di-p, j+dj-p): where tap (k-1-di, k-1-dj) carries input pixel (i, j)
        if kh > 1 and (kn2row or x.requires_grad):
            g_cols = _im2col(g, kh).reshape(models, batch, -1, pixels)
        else:
            g_cols = g2
        if kn2row:
            dw = np.matmul(g_cols, x_flat.transpose(0, 1, 3, 2)).sum(axis=1)
            dw = dw.reshape(models, c_out, kh, kh, c_in)[:, :, ::-1, ::-1].transpose(0, 1, 4, 2, 3)
            weights._take_grad(np.ascontiguousarray(dw).reshape(weights.data.shape))
        else:
            weights._take_grad(
                np.matmul(g2, cols.transpose(0, 1, 3, 2)).sum(axis=1).reshape(weights.data.shape)
            )
        if x.requires_grad:
            flipped = w[:, :, :, ::-1, ::-1].transpose(0, 2, 1, 3, 4)
            dx = np.matmul(flipped.reshape(models, 1, c_in, c_out * kh * kh), g_cols)
            x._take_grad((dx.sum(axis=0) if shared else dx).reshape(x.data.shape))

    return Tensor(out.reshape(models * batch, c_out, height, width), (x, weights, bias), backward)


def _shift_add(partial: np.ndarray, k: int, height: int, width: int) -> np.ndarray:
    """Sum kn2row's partial outputs: `partial` is (B, k*k*C, H*W), row
    (di*k + dj)*C + o holding tap (di, dj)'s product for channel o; output
    pixel (i, j) adds tap (di, dj)'s pixel (i+di-p, j+dj-p) where it lies
    on the grid, taps in row-major order, starting from zero."""
    batch = partial.shape[0]
    taps = partial.reshape(batch, k, k, -1, height, width)
    acc = np.zeros((batch, taps.shape[3], height + k - 1, width + k - 1))
    for di in range(k):
        for dj in range(k):
            acc[:, :, k - 1 - di : k - 1 - di + height, k - 1 - dj : k - 1 - dj + width] += taps[:, di, dj]
    pad = k // 2
    return acc[:, :, pad : pad + height, pad : pad + width]


def _im2col(a: np.ndarray, k: int) -> np.ndarray:
    """Zero-pad (B, C, H, W) by k//2 on each side and gather every k x k
    window: (B, C*k*k, H*W), row c*k*k + di*k + dj holding pixel
    (i+di, j+dj) of channel c's padded plane at column i*W+j."""
    batch, channels, height, width = a.shape
    pad = k // 2
    padded = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad))
    padded[:, :, pad : pad + height, pad : pad + width] = a
    return np.take(
        padded.reshape(batch, channels, -1), _im2col_index(k, height, width), axis=2
    ).reshape(batch, channels * k * k, height * width)


@lru_cache(maxsize=None)
def _im2col_index(k: int, height: int, width: int) -> np.ndarray:
    """(k*k, H*W) flat offsets into a padded (H+k-1, W+k-1) plane: row
    di*k+dj, column i*W+j holds the position of pixel (i+di, j+dj)."""
    padded_width = width + k - 1
    offsets = np.arange(k)[:, None] * padded_width + np.arange(k)[None, :]
    pixels = np.arange(height)[:, None] * padded_width + np.arange(width)[None, :]
    index = offsets.reshape(-1, 1) + pixels.reshape(1, -1)
    index.setflags(write=False)
    return index


def dense(x: Tensor, weights: Tensor, bias: Tensor, shared: bool = False) -> Tensor:
    """y = x @ W.T + b per model, for x shaped (M*B, in_dim), model-major,
    and the M models' W (M, out_dim, in_dim) and b (M, out_dim), or one
    model's (out_dim, in_dim) and (out_dim,); with `shared`, x is one
    (B, in_dim) batch that every model reads.  Output (M*B, out_dim)."""
    if x.data.ndim != 2:
        raise EngineError(f"dense input must be 2-axis, got shape {x.data.shape}")
    if x.data.shape[1] != weights.data.shape[-1]:
        raise EngineError(
            f"dense dimension mismatch: input {x.data.shape} vs weights {weights.data.shape}"
        )
    out_dim, in_dim = weights.data.shape[-2:]
    w = weights.data.reshape(-1, out_dim, in_dim)
    models = w.shape[0]
    lead, batch = _model_rows("dense", x, models, shared)
    xs = x.data.reshape(lead, batch, in_dim)

    def backward(g):
        g3 = g.reshape(models, batch, out_dim)
        weights._take_grad(np.matmul(g3.transpose(0, 2, 1), xs).reshape(weights.data.shape))
        bias._take_grad(g3.sum(axis=1).reshape(bias.data.shape))
        if x.requires_grad:
            dx = np.matmul(g3, w)
            x._take_grad((dx.sum(axis=0) if shared else dx).reshape(x.data.shape))

    out = np.matmul(xs, w.transpose(0, 2, 1)) + bias.data.reshape(models, 1, out_dim)
    return Tensor(out.reshape(models * batch, out_dim), (x, weights, bias), backward)


@dataclass
class BatchNormState:
    """Per-channel batch normalization parameters and running statistics.

    `gamma`/`beta` are trainable; the running mean/variance are inference
    statistics that training updates in place, by exponential moving
    average, so each array keeps its identity for the state's life.  They
    start at mean 0 and variance 1, the identity normalization, and each
    train-mode call keeps `momentum` = 0.9 of the old value (PyTorch's
    default), so that inference after a few steps divides by about the
    data's spread, not by `sqrt(eps)`.
    """

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    eps: float = 1e-5

    @classmethod
    def create(cls, channels: int) -> "BatchNormState":
        return cls(
            gamma=Tensor(np.ones(channels)),
            beta=Tensor(np.zeros(channels)),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
        )


def batch_norm(x: Tensor, state: BatchNormState, train: bool) -> Tensor:
    """Normalize per model and channel over (batch, H, W).

    The state's arrays are (M, C) for M models, or (C,) for one; `x` is
    (M*B, C, H, W), model-major.  With `train` it uses each model's batch
    statistics (biased variance, the same statistic stored in the running
    average) and updates the running statistics; otherwise it uses the
    running statistics and is a pure function of its input.
    """
    if x.data.ndim != 4:
        raise EngineError(f"batch_norm input must be 4-axis, got shape {x.data.shape}")
    channels = state.gamma.data.shape[-1]
    if x.data.shape[1] != channels:
        raise EngineError(
            f"batch_norm channel mismatch: input has {x.data.shape[1]}, state has {channels}"
        )
    gamma, beta = state.gamma, state.beta
    models = gamma.data.size // channels
    _, batch = _model_rows("batch_norm", x, models, False)
    xs = x.data.reshape(models, batch, channels, -1)
    n = batch * xs.shape[3]  # values per model and channel

    def per_channel(a):  # (M, C) or (C,) -> broadcast against xs
        return a.reshape(models, 1, channels, 1)

    # Each elementwise step writes into a buffer this call allocated; the
    # values are those of the plain expressions in the comments.
    if train:
        mu = xs.mean(axis=(1, 3))
        xhat = xs - per_channel(mu)
        # np.var's own arithmetic, on the centred input it would recompute
        var = np.square(xhat).sum(axis=(1, 3)) / n
        inv = 1.0 / np.sqrt(var + state.eps)
        xhat *= per_channel(inv)  # (x - mu) * inv
        shape = state.running_mean.shape
        state.running_mean[...] = state.momentum * state.running_mean + (1.0 - state.momentum) * mu.reshape(shape)
        state.running_var[...] = state.momentum * state.running_var + (1.0 - state.momentum) * var.reshape(shape)
    else:
        inv = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = xs - per_channel(state.running_mean)
        xhat *= per_channel(inv)

    def backward(g):
        g = g.reshape(xs.shape)
        work = g * xhat
        gamma._take_grad(work.sum(axis=(1, 3)).reshape(gamma.data.shape))
        beta._take_grad(g.sum(axis=(1, 3)).reshape(beta.data.shape))
        dx = g * per_channel(gamma.data)  # g_xhat
        if train:
            # inv / n * (n * g_xhat - sum_g - xhat * sum_gx)
            sum_g = dx.sum(axis=(1, 3), keepdims=True)
            sum_gx = np.multiply(dx, xhat, out=work).sum(axis=(1, 3), keepdims=True)
            dx *= n
            dx -= sum_g
            dx -= np.multiply(xhat, sum_gx, out=work)
            dx *= per_channel(inv) / n
        else:
            dx *= per_channel(inv)  # g_xhat * inv
        x._take_grad(dx.reshape(x.data.shape))

    out = xhat * per_channel(gamma.data)
    out += per_channel(beta.data)  # gamma * xhat + beta
    return Tensor(out.reshape(x.data.shape), (x, gamma, beta), backward)


def concat_channels(xs: list[Tensor]) -> Tensor:
    """Concatenate along the channel axis, in argument order."""
    if not xs:
        raise EngineError("concat_channels needs at least one input")
    if len(xs) == 1:
        return xs[0]
    ref = xs[0].data.shape
    for t in xs[1:]:
        s = t.data.shape
        if s[0] != ref[0] or s[2:] != ref[2:]:
            raise EngineError(f"concat_channels spatial mismatch: {ref} vs {s}")
    sizes = [t.data.shape[1] for t in xs]

    def backward(g):
        offset = 0
        for t, size in zip(xs, sizes):
            if t.requires_grad:
                t.grad += g[:, offset : offset + size]
            offset += size

    return Tensor(np.concatenate([t.data for t in xs], axis=1), tuple(xs), backward)


def masked_mae(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean absolute error over the masked cells only.

    loss = sum_b sum_{cell in mask} |pred - target| / (B * |mask|).
    The gradient w.r.t. pred is sign(pred - target) / (B * |mask|) on mask
    cells, exactly 0 elsewhere, and 0 where pred equals target.
    """
    mask = np.asarray(mask, dtype=bool)
    n_mask = int(mask.sum())
    if n_mask == 0:
        raise EngineError("masked_mae: empty mask")
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise EngineError(f"masked_mae: pred {pred.data.shape} vs target {target.shape}")

    batch = pred.data.shape[0]
    denom = batch * n_mask
    diff = pred.data - target
    m = mask[None, None, :, :]

    def backward(g):
        pred._take_grad(g * np.sign(diff) * m / denom)

    return Tensor(np.abs(diff * m).sum() / denom, (pred,), backward)


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamState:
    """Adam optimizer state: step counter plus the moments of every
    parameter, concatenated in the order of the params dict."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update; gradients are cleared afterwards.

    The update runs once over the concatenation of all gradients.  It is
    elementwise, so each parameter moves exactly as under its own update.
    A non-finite gradient raises FloatingPointError naming its parameter,
    before any parameter moves (see `train_model` for why it is checked).
    """
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    grads = [p.grad.reshape(-1) for p in params.values()]
    g = np.concatenate(grads)
    if not np.all(np.isfinite(g)):
        name = next(name for name, gp in zip(params, grads) if not np.all(np.isfinite(gp)))
        raise FloatingPointError(f"non-finite gradient in {name!r}")
    if state.first_moment is None:
        state.first_moment, state.second_moment = np.zeros_like(g), np.zeros_like(g)
    m, v = state.first_moment, state.second_moment
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    update = state.lr * (m / bias1) / (np.sqrt(v / bias2) + state.eps)
    offset = 0
    for p in params.values():
        p.data -= update[offset : offset + p.data.size].reshape(p.data.shape)
        offset += p.data.size
        p.grad = None


# ---------------------------------------------------------------------------
# Gradient checking


def grad_check(f, params: list[Tensor], eps: float = 1e-6, kink_tol: float | None = None) -> float:
    """Max relative error between reverse-mode and central finite differences.

    `f` is a zero-argument callable returning a scalar Tensor; it must be
    re-evaluable (it is called twice per coordinate).  The error at each
    coordinate is |g_ad - g_fd| / max(1, |g_ad|, |g_fd|).

    With `kink_tol` set, coordinates whose finite-difference probe straddles
    a non-smooth point (relu or absolute-value corner) are skipped: for a
    piecewise-linear function the one-sided slope mismatch
    |f(x+h) - 2 f(x) + f(x-h)| / h equals exactly twice the central-difference
    error, so coordinates where that estimate exceeds `kink_tol` (relative to
    the gradient scale) carry no information about the analytic gradient.
    """
    for p in params:
        p.zero_grad()
    out = f()
    out.backward()
    analytic = [p.grad.copy() for p in params]
    f0 = out.data.item()

    max_err = 0.0
    for p, g in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f().data.item()
            flat[i] = orig - eps
            fm = f().data.item()
            flat[i] = orig
            g_fd = (fp - fm) / (2.0 * eps)
            g_ad = gflat[i]
            scale = max(1.0, abs(g_ad), abs(g_fd))
            if kink_tol is not None:
                kink_err = abs(fp - 2.0 * f0 + fm) / (2.0 * eps)
                if kink_err > kink_tol * scale:
                    continue
            max_err = max(max_err, abs(g_ad - g_fd) / scale)
    return max_err
