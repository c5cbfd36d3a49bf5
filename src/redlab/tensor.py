"""Minimal deterministic tensor engine with reverse-mode differentiation.

Values are dense row-major float64 numpy arrays.  Differentiation uses an
explicit tape: operations executed while a :class:`Tape` is active append a
record (output id, inputs, vector-Jacobian product), and :func:`backward`
replays the records in reverse.  Creation order is execution order, so the
tape is topologically sorted by construction and the reverse sweep visits
each node exactly once.

Outside a tape every operation is plain numpy compute with no bookkeeping,
which is what inference paths use.

:func:`finite_diff_check` is the independent oracle for the whole engine:
central differences against the tape's gradients, coordinate by coordinate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError
from .rng import Rng

_NODE_COUNTER = itertools.count()


class Tensor:
    """Dense float64 array, taped when a :class:`Tape` is active.

    ``requires_grad`` marks leaf tensors (parameters); :func:`backward`
    writes their gradients into arrays its caller passes.
    """

    __slots__ = ("data", "requires_grad", "node_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.node_id = next(_NODE_COUNTER)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __deepcopy__(self, memo):
        t = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        memo[id(self)] = t
        return t

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(arr: np.ndarray) -> Tensor:
    """Internal constructor that trusts dtype/layout of `arr`."""
    t = Tensor.__new__(Tensor)
    t.data = arr
    t.requires_grad = False
    t.node_id = next(_NODE_COUNTER)
    return t


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


# --------------------------------------------------------------------------
# Tape
# --------------------------------------------------------------------------

_ACTIVE: "Tape | None" = None


class Tape:
    """Ordered record of primitive operations for one backward sweep.

    Use as a context manager around the forward computation::

        tape = Tape()
        with tape:
            loss = mean_all(absolute(sub(conv2d(x, k), target)))
        g_k = np.empty_like(k.data)
        backward(tape, loss, [(k, g_k)])

    A tape is confined to a single evaluation context; tapes do not nest.
    """

    __slots__ = ("_records", "_connected", "_tracked")

    def __init__(self):
        self._records = []        # (out_id, inputs, needs, vjp)
        self._connected = set()   # ids of tensors produced on this tape
        self._tracked = set()     # ids of leaves with requires_grad

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise ContractError("a tape is already active; tapes do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        _ACTIVE = None
        return False

    def __len__(self) -> int:
        return len(self._records)


def _record(out: Tensor, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    tape = _ACTIVE
    if tape is None:
        return out
    needs = []
    live = False
    for t in inputs:
        need = t.requires_grad or (t.node_id in tape._connected)
        needs.append(need)
        live = live or need
        if t.requires_grad:
            tape._tracked.add(t.node_id)
    if not live:
        return out
    tape._connected.add(out.node_id)
    tape._records.append((out.node_id, tuple(inputs), tuple(needs), vjp))
    return out


def backward(tape: Tape, loss: Tensor, into: Sequence) -> None:
    """Write d(loss)/d(tensor) into the caller's destination arrays.

    ``into`` is a sequence of (tensor, destination array) pairs that covers
    every tracked tensor.  Each listed tensor's gradient, summed over its
    uses within the tape, is copied into its destination; a tensor the loss
    does not reach gets +0.0.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("loss must be a Tensor")
    if loss.data.size != 1:
        raise ContractError("loss must be scalar")
    if not tape._tracked <= {t.node_id for t, _ in into}:
        raise ContractError("backward destinations must cover every tracked tensor")
    grads = {loss.node_id: np.ones_like(loss.data)}
    for out_id, inputs, needs, vjp in reversed(tape._records):
        g = grads.pop(out_id, None)
        if g is None:
            continue
        for t, need, gi in zip(inputs, needs, vjp(g, needs)):
            if not need or gi is None:
                continue
            prev = grads.get(t.node_id)
            grads[t.node_id] = gi if prev is None else prev + gi
    for t, dst in into:
        g = grads.get(t.node_id)
        if g is None:
            dst[...] = 0.0
        else:
            dst[...] = g.reshape(dst.shape)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# --------------------------------------------------------------------------
# Elementwise and reduction primitives
# --------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _wrap(a.data + b.data)

    def vjp(g, needs):
        return (
            _unbroadcast(g, a.data.shape) if needs[0] else None,
            _unbroadcast(g, b.data.shape) if needs[1] else None,
        )

    return _record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _wrap(a.data - b.data)

    def vjp(g, needs):
        return (
            _unbroadcast(g, a.data.shape) if needs[0] else None,
            _unbroadcast(-g, b.data.shape) if needs[1] else None,
        )

    return _record(out, (a, b), vjp)


def absolute(x: Tensor) -> Tensor:
    out = _wrap(np.abs(x.data))

    def vjp(g, needs):
        return (g * np.sign(x.data),)

    return _record(out, (x,), vjp)


def relu(x: Tensor) -> Tensor:
    out = _wrap(np.maximum(x.data, 0.0))

    def vjp(g, needs):
        return (g * (x.data > 0.0),)

    return _record(out, (x,), vjp)


def clamp01(x: Tensor) -> Tensor:
    """Clamp to [0, 1]; gradient passes where the input is inside the range."""
    out = _wrap(np.clip(x.data, 0.0, 1.0))

    def vjp(g, needs):
        return (g * ((x.data >= 0.0) & (x.data <= 1.0)),)

    return _record(out, (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    out = _wrap(np.asarray(np.mean(x.data)))
    n = x.data.size

    def vjp(g, needs):
        return (np.broadcast_to(g / n, x.data.shape).copy(),)

    return _record(out, (x,), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    out = _wrap(x.data.reshape(shape))

    def vjp(g, needs):
        return (g.reshape(x.data.shape),)

    return _record(out, (x,), vjp)


# --------------------------------------------------------------------------
# Linear algebra and convolution
# --------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects 2-D tensors")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"inner dimensions disagree: {a.data.shape} @ {b.data.shape}"
        )
    out = _wrap(a.data @ b.data)

    def vjp(g, needs):
        return (
            g @ b.data.T if needs[0] else None,
            a.data.T @ g if needs[1] else None,
        )

    return _record(out, (a, b), vjp)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """[C, H, W] -> [C*k*k, H*W] patch matrix under same-padding.

    For k = 1 the matrix is a view of ``x``; otherwise it is one copy of a
    [C, k, k, H, W] strided view of every shifted window of the zero-padded
    input.  The view is built with the ``np.ndarray`` constructor, which
    checks that it fits in the padded buffer and costs less per call than
    ``as_strided`` or ``sliding_window_view``.
    """
    c, h, w = x.shape
    if k == 1:
        return x.reshape(c, h * w)
    pad = k // 2
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    xp[:, pad:pad + h, pad:pad + w] = x
    sc, sh, sw = xp.strides
    windows = np.ndarray((c, k, k, h, w), np.float64, xp, 0, (sc, sh, sw, sh, sw))
    return windows.reshape(c * k * k, h * w)


def _col2im(colg: np.ndarray, c: int, h: int, w: int, k: int) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add patches back to [C, H, W].

    Each window is added, in (di, dj) order, onto zeros through the part of
    it that lies inside the image; what fell on the padding is never read,
    and a window wholly on the padding (k > 2 * h + 1, say) is skipped.
    Every element thus sums its terms in the order a padded buffer would,
    and starting from +0.0 turns a -0.0 sum into +0.0, for k = 1 too.
    """
    if k == 1:
        return colg.reshape(c, h, w) + 0.0
    pad = k // 2
    xg = np.zeros((c, h, w), dtype=np.float64)
    patches = colg.reshape(c, k * k, h, w)
    rows = [_clip(d - pad, h) for d in range(k)]
    cols = [_clip(d - pad, w) for d in range(k)]
    for di, (ti, si) in enumerate(rows):
        if ti is None:
            continue
        for dj, (tj, sj) in enumerate(cols):
            if tj is not None:
                xg[:, ti, tj] += patches[:, di * k + dj, si, sj]
    return xg


def _clip(shift: int, n: int):
    """(target, source) slices of a window shifted by `shift` over n pixels.

    Both are None when the shifted window misses the image entirely.
    """
    t0, t1 = max(0, shift), min(n, n + shift)
    if t0 >= t1:
        return None, None
    return slice(t0, t1), slice(t0 - shift, t1 - shift)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Same-padded stride-1 convolution of [C_in,H,W] with [C_out,C_in,k,k].

    An optional [C_out] ``bias`` is added per output channel in the same
    record.  Values and gradients equal those of the chain
    ``add(conv2d(x, kernel), reshape(bias, (C_out, 1, 1)))`` bit for bit.
    The record keeps ``x``, not its patch matrix (9x the bytes for k = 3):
    the VJP rebuilds the matrix, a plain copy, when it needs the kernel's
    gradient, so the product reads the same operand.
    """
    if x.data.ndim != 3:
        raise DimensionError("conv2d input must be [C, H, W]")
    if kernel.data.ndim != 4:
        raise DimensionError("conv2d kernel must be [C_out, C_in, k, k]")
    c_out, c_in, kh, kw = kernel.data.shape
    if kh != kw:
        raise DimensionError("conv2d kernel must be square")
    if kh % 2 == 0:
        raise DimensionError("conv2d kernel size must be odd")
    if c_in != x.data.shape[0]:
        raise DimensionError(
            f"kernel expects {c_in} input channels, got {x.data.shape[0]}"
        )
    c, h, w = x.data.shape
    kmat = kernel.data.reshape(c_out, c_in * kh * kw)
    y = (kmat @ _im2col(x.data, kh)).reshape(c_out, h, w)
    if bias is not None:
        if bias.data.shape != (c_out,):
            raise DimensionError(f"conv2d bias must be [{c_out}], got {bias.data.shape}")
        np.add(y, bias.data.reshape(c_out, 1, 1), out=y)
    out = _wrap(y)

    def vjp(g, needs):
        gmat = g.reshape(c_out, h * w)
        gx = gk = None
        if needs[0]:
            gx = _col2im(kmat.T @ gmat, c, h, w, kh)
        if needs[1]:
            gk = (gmat @ _im2col(x.data, kh).T).reshape(kernel.data.shape)
        if bias is None:
            return (gx, gk)
        gb = _unbroadcast(g, (c_out, 1, 1)).reshape(c_out) if needs[2] else None
        return (gx, gk, gb)

    return _record(out, (x, kernel) if bias is None else (x, kernel, bias), vjp)


def softmax(v: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction.

    For a 1-D input this is the probability vector of the logits; for
    higher ranks each row of the final axis is normalized independently.
    """
    y = _softmax_forward(v.data)
    out = _wrap(y)

    def vjp(g, needs):
        return (_softmax_vjp(g, y),)

    return _record(out, (v,), vjp)


def _softmax_forward(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a finite array; ContractError otherwise."""
    if not np.isfinite(x).all():
        raise ContractError("softmax input must be finite")
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the logits given ``g`` at the softmax output ``y``."""
    inner = np.sum(g * y, axis=-1, keepdims=True)
    return y * (g - inner)


# --------------------------------------------------------------------------
# Channel concat / split
# --------------------------------------------------------------------------

def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Stack [C_p, H, W] tensors along the channel axis."""
    if not parts:
        raise ContractError("concat_channels needs at least one part")
    hw = parts[0].data.shape[1:]
    for p in parts:
        if p.data.ndim != 3 or p.data.shape[1:] != hw:
            raise DimensionError("concat_channels parts must share H and W")
    out = _wrap(np.concatenate([p.data for p in parts], axis=0))
    sizes = [p.data.shape[0] for p in parts]

    def vjp(g, needs):
        grads = []
        start = 0
        for p, cs in zip(parts, sizes):
            grads.append(g[start:start + cs] if needs[len(grads)] else None)
            start += cs
        return tuple(grads)

    return _record(out, tuple(parts), vjp)


def slice_channels(t: Tensor, start: int, stop: int) -> Tensor:
    out = _wrap(t.data[start:stop])

    def vjp(g, needs):
        full = np.zeros_like(t.data)
        full[start:stop] = g
        return (full,)

    return _record(out, (t,), vjp)


def split_channels(t: Tensor, sizes: Sequence[int]) -> list[Tensor]:
    """Inverse of concat_channels for the given channel sizes."""
    if sum(sizes) != t.data.shape[0]:
        raise DimensionError(
            f"split sizes {list(sizes)} do not sum to {t.data.shape[0]} channels"
        )
    outs = []
    start = 0
    for cs in sizes:
        outs.append(slice_channels(t, start, start + cs))
        start += cs
    return outs


# --------------------------------------------------------------------------
# Resampling
# --------------------------------------------------------------------------

def _block_sum2x(x: np.ndarray) -> np.ndarray:
    """Sum of each 2x2 block of [C, H, W], as (a00 + a01) + (a10 + a11).

    That order equals ``reshape(c, h/2, 2, w/2, 2).sum(axis=(2, 4))`` bit
    for bit, without the strided reduction.
    """
    return (x[:, 0::2, 0::2] + x[:, 0::2, 1::2]) + (x[:, 1::2, 0::2] + x[:, 1::2, 1::2])


def _repeat2x(x: np.ndarray) -> np.ndarray:
    """[C, H, W] -> [C, 2H, 2W], each value copied into its 2x2 block."""
    c, h, w = x.shape
    out = np.empty((c, 2 * h, 2 * w), dtype=np.float64)
    for i in (0, 1):
        for j in (0, 1):
            out[:, i::2, j::2] = x
    return out


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x spatial upsampling of [C, H, W]."""
    out = _wrap(_repeat2x(x.data))

    def vjp(g, needs):
        return (_block_sum2x(g),)

    return _record(out, (x,), vjp)


def downsample2x_mean(x: Tensor) -> Tensor:
    """2x spatial downsampling by averaging each 2x2 block."""
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise DimensionError("downsample2x_mean needs even spatial dims")
    out = _wrap(_block_sum2x(x.data) / 4.0)

    def vjp(g, needs):
        return (_repeat2x(g / 4.0),)

    return _record(out, (x,), vjp)


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

@dataclass
class MlpParams:
    """Parameters of a 2-layer MLP: out = W2 . relu(W1 . x + b1) + b2."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.w1", self.w1),
            (f"{prefix}.b1", self.b1),
            (f"{prefix}.w2", self.w2),
            (f"{prefix}.b2", self.b2),
        ]


def init_uniform(rng: Rng, out: np.ndarray) -> None:
    """Init rule of kernels, candidate banks and MLP weights: ``out`` drawn uniform
    within +-sqrt(1/fan_in), ``fan_in`` being the product of the axes after the
    first (after the second for a 5-D ``[K, C_out, C_in, k, k]`` candidate bank);
    a scalar or a vector draws within +-1."""
    shape = out.shape
    fan_in = math.prod(shape[2:] if len(shape) == 5 else shape[1:])
    bound = (1.0 / fan_in) ** 0.5
    rng.fill_uniform(shape, -bound, bound, out)


def init_zero(rng: Rng, out: np.ndarray) -> None:
    """Init rule of biases: zeros, drawing nothing."""
    out[...] = 0.0


class Planner:
    """Stands in for the Rng while an owner plans its parameters.

    :func:`parameter` records each tensor here with its shape and init rule,
    and leaves its ``data`` None: nothing is allocated.  The owner then points every
    tensor at its view of one buffer (see :class:`~redlab.enhancer.ToyEnhancer`).
    """

    def __init__(self):
        self.rules = {}  # id(tensor) -> (shape, init rule)


def _carve(flat: np.ndarray, shapes: list) -> list:
    """Views of ``flat`` with the given shapes, laid end to end from offset 0."""
    views = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return views


def parameter(rng: Rng | Planner, shape: tuple, init=init_uniform) -> Tensor:
    """A trainable tensor of ``shape`` holding ``init(rng, data)``'s values.

    Given a :class:`Planner` in place of the Rng, the tensor is only recorded in it.
    """
    if isinstance(rng, Planner):
        t = _wrap(None)
        t.requires_grad = True
        rng.rules[id(t)] = (shape, init)
        return t
    data = np.empty(shape)
    init(rng, data)
    return Tensor(data, requires_grad=True)


def init_mlp(rng: Rng | Planner, d_in: int, d_hidden: int, d_out: int) -> MlpParams:
    """Fresh MLP parameters: weights from :func:`init_uniform`, biases zero."""
    return MlpParams(
        w1=parameter(rng, (d_hidden, d_in)),
        b1=parameter(rng, (d_hidden,), init_zero),
        w2=parameter(rng, (d_out, d_hidden)),
        b2=parameter(rng, (d_out,), init_zero),
    )


# --------------------------------------------------------------------------
# Gradient oracle
# --------------------------------------------------------------------------

def finite_diff_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
    sample: int | None = None,
    rng: Rng | None = None,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``f(params)`` must deterministically build a scalar loss from the given
    parameter tensors (and must not open a tape of its own), and ``params``
    must hold every ``requires_grad`` tensor it uses.  The analytic
    gradient is computed once via :func:`backward`; each checked coordinate
    is then perturbed by +-eps in place and the central difference
    (f(p+eps) - f(p-eps)) / (2 eps) compared against it.  Relative error
    uses max(|analytic|, |numeric|, 1e-8) in the denominator.

    ``sample`` limits the check to that many coordinates, chosen by a
    deterministic shuffle of all coordinates with ``rng``; it must be at
    least 1, and ``None`` checks every coordinate.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ContractError("eps must lie in [1e-7, 1e-3]")
    if sample is not None and sample < 1:
        raise ContractError(f"sample must be at least 1 coordinate, got {sample}")
    tape = Tape()
    with tape:
        loss = f(params)
    analytic = [np.empty_like(p.data) for p in params]
    backward(tape, loss, list(zip(params, analytic)))
    coords = [(i, j) for i, p in enumerate(params) for j in range(p.data.size)]
    if sample is not None and sample < len(coords):
        r = rng if rng is not None else Rng(0)
        order = list(range(len(coords)))
        r.shuffle(order)
        coords = [coords[k] for k in order[:sample]]
    worst = 0.0
    for pi, j in coords:
        p = params[pi]
        orig = p.data.flat[j]
        p.data.flat[j] = orig + eps
        fp = f(params).item()
        p.data.flat[j] = orig - eps
        fm = f(params).item()
        p.data.flat[j] = orig
        numeric = (fp - fm) / (2.0 * eps)
        exact = float(analytic[pi].flat[j])
        rel = abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-8)
        if rel > worst:
            worst = rel
    return worst
