"""Input-conditioned convolution kernels from orthogonally-reflected weights.

A :class:`PogGenerator` owns one learnable embedding row per generated kernel
element.  At generation time the rows are unit-normalized, a per-input weight
vector on the simplex is produced by pooling the conditioning features through
a small MLP, and each row's Householder reflector is applied to that shared
weight vector.  Reflected vectors decode row-wise to scalars, which reshape
into the kernel.

The reflector B = I - 2nn^T is symmetric, orthogonal, and involutory; applying
it in the closed form s = W - 2<n, W>n costs O(D_e) per row instead of the
O(D_e^2) a materialized matrix would, with exactly equal results.  Distinct
unit rows therefore give distinct orthonormal bases, and the generated kernel
elements respond to the input through the weight vector alone.

Generation runs as fused NumPy code.  The taped chain it replaced
(``normalize_embeddings`` -> ``specific_embedding``) and the materialized
reflector (``build_basis``) are its test oracles, in ``tests/composed.py``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateEmbeddingError,
    DimensionError,
)
from .rng import Rng
from .tensor import MlpParams, Tensor


def _check_norms(norms: np.ndarray) -> None:
    if np.any(norms < 1e-8):
        raise DegenerateEmbeddingError(f"embedding row norm {norms.min():.3e} below 1e-8")


def _unit_rows(e: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """(rows of [N, D_e] ``e`` over their norms, the [N, 1] norms), untaped.

    Runs the NumPy operations of the taped ``normalize_embeddings``
    (``tests/composed.py``) in its order, so the rows equal its values bit
    for bit, and refuses a collapsed row through the same
    :func:`_check_norms`.  The rows are written into ``out`` when given
    (``e`` itself included).
    """
    if e.ndim != 2:
        raise DimensionError("embeddings must be [N, D_e]")
    sq = e * e
    norms = np.sqrt(np.sum(sq, axis=-1, keepdims=True))
    _check_norms(norms)
    return np.divide(e, norms, out=sq if out is None else out), norms


def _init_embeddings(rng: Rng, out: np.ndarray) -> None:
    """Init rule of generator embeddings: rows uniform in [-1, 1), unit-normalized in place."""
    rng.fill_uniform(out.shape, -1.0, 1.0, out)
    _unit_rows(out, out)


def compute_weights(f_in: Tensor, mlp: MlpParams) -> Tensor:
    """Simplex weight vector for one conditioning input: softmax(mlp(pool)),
    as one taped operation (see :func:`_weight_head`)."""
    y, vjp = _weight_head(f_in.data, mlp)
    return T._record(T._wrap(y), (f_in, mlp.w1, mlp.b1, mlp.w2, mlp.b2), vjp)


def _weight_head(x: np.ndarray, mlp: MlpParams):
    """Untaped softmax of a 2-layer MLP of the per-channel mean of [C, H, W] ``x``.

    Returns the [D_out] weights and their VJP ``vjp(g, needs)``, which gives
    the gradients of ``x`` (only when ``needs[0]``), w1, b1, w2 and b2.  The
    forward runs the NumPy operations of the chain global average pool ->
    two-layer MLP on a column -> softmax in order, and the VJP each of their
    VJPs in reverse order, so values and gradients equal that chain's
    (``composed_weights`` in ``tests/composed.py``) bit for bit.
    """
    _check_conditioning(x, mlp)
    c, h, w = x.shape
    col = x.reshape(c, h * w).mean(axis=1).reshape(c, 1)
    pre1 = mlp.w1.data @ col + mlp.b1.data.reshape(-1, 1)
    h1 = np.maximum(pre1, 0.0)
    y = T._softmax_forward((mlp.w2.data @ h1 + mlp.b2.data.reshape(-1, 1)).reshape(-1))

    def vjp(g, needs):
        g_o = T._softmax_vjp(g, y).reshape(-1, 1)
        g_b2 = g_o.reshape(mlp.b2.data.shape)
        g_w2 = g_o @ h1.T
        g_pre1 = (mlp.w2.data.T @ g_o) * (pre1 > 0.0)
        g_b1 = g_pre1.reshape(mlp.b1.data.shape)
        g_w1 = g_pre1 @ col.T
        g_x = None
        if needs[0]:
            g_pool = (mlp.w1.data.T @ g_pre1).reshape(c)
            g_x = np.broadcast_to(g_pool[:, None, None] / (h * w), x.shape).copy()
        return g_x, g_w1, g_b1, g_w2, g_b2

    return y, vjp


def _check_conditioning(x: np.ndarray, mlp: MlpParams) -> None:
    if x.ndim != 3:
        raise DimensionError("conditioning input must be [C, H, W]")
    if x.shape[0] != mlp.w1.data.shape[1]:
        raise DimensionError(
            f"conditioning input has {x.shape[0]} channels, "
            f"weight MLP expects {mlp.w1.data.shape[1]}"
        )


class PogGenerator:
    """Generates a [C_out, C_in, D_k, D_k] kernel from a conditioning input.

    ``target_shape`` is (C_in, C_out, D_k); the generator owns
    N = C_in * C_out * D_k^2 embedding rows of width ``d_e``, a weight MLP
    (d_c -> d_c -> d_e) and a decode MLP (d_e -> d_e -> 1).  Construction
    consumes the rng in that order, so equal seeds rebuild equal generators.

    Embeddings start as unit rows (uniform draws normalized in place), and
    ``generate`` normalizes them again on every call while they train.
    ``freeze()`` caches the normalized embeddings in ``_cached_norm``, which
    is ``None`` until then, and stops gradients to them; a frozen generator
    is immutable.
    """

    def __init__(self, rng: Rng | T.Planner, d_c: int, d_e: int, target_shape: tuple):
        c_in, c_out, d_k = target_shape
        if d_e < 2:
            raise ConfigurationError(f"embedding width must be >= 2, got {d_e}")
        if min(c_in, c_out, d_k, d_c) < 1:
            raise ConfigurationError(f"bad generator dimensions {target_shape}")
        if d_k % 2 == 0:
            raise ConfigurationError("kernel size must be odd")
        self.embeddings = T.parameter(rng, (c_in * c_out * d_k * d_k, d_e), _init_embeddings)
        self.weight_mlp = T.init_mlp(rng, d_c, d_c, d_e)
        self.decode_mlp = T.init_mlp(rng, d_e, d_e, 1)
        self.target_shape = (c_in, c_out, d_k)
        self._cached_norm = None

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        dot = f"{prefix}." if prefix else ""
        out = [(f"{dot}embeddings", self.embeddings)]
        out += self.weight_mlp.named(f"{dot}weight_mlp")
        out += self.decode_mlp.named(f"{dot}decode_mlp")
        return out

    def freeze(self) -> None:
        """Cache normalized embeddings as a constant; idempotent.

        Call again after externally mutating ``embeddings`` to refresh the
        cache (layer-reset probing does this).
        """
        self._cached_norm = Tensor(_unit_rows(self.embeddings.data)[0])

    def generate(self, f_in: Tensor) -> Tensor:
        return generate(self, f_in)


def generate(gen: PogGenerator, f_in: Tensor) -> Tensor:
    """Full pipeline: normalize, weight, reflect, decode, reshape to kernel.

    One taped operation.  Its forward runs the NumPy operations of the
    chain ``composed_generate`` in ``tests/composed.py`` in the same order:
    row normalization (skipped when frozen) -> the weight head of
    ``compute_weights`` -> the closed-form reflection -> the decode MLP
    applied to each row.  Its VJP evaluates each of their VJPs in reverse
    tape order, summing the two uses of the normalized rows and of the
    weight row as ``backward`` would.  So kernels and gradients equal that
    chain's bit for bit.  [N, D_e] intermediates are written in place
    (``out=``) where their inputs are spent, which changes no value and
    keeps fewer of them alive.
    """
    if gen._cached_norm is not None:
        e = None
        n_p = gen._cached_norm.data
    else:
        e = gen.embeddings.data
        n_p, norms = _unit_rows(e)
    wm, dm = gen.weight_mlp, gen.decode_mlp
    y, head_vjp = _weight_head(f_in.data, wm)
    # reflect every row: s_i = W - (<n_i, W> * 2) n_i
    wr = y.reshape(1, -1)
    s = n_p * wr
    dots2 = np.sum(s, axis=-1, keepdims=True) * 2.0
    np.multiply(dots2, n_p, out=s)
    np.subtract(wr, s, out=s)
    # decode MLP on every row, one scalar per row
    h2 = s @ dm.w1.data.T
    np.add(h2, dm.b1.data.reshape(1, -1), out=h2)
    np.maximum(h2, 0.0, out=h2)
    scalars = h2 @ dm.w2.data.T + dm.b2.data.reshape(1, -1)
    c_in, c_out, d_k = gen.target_shape
    out = T._wrap(scalars.reshape(c_out, c_in, d_k, d_k))

    def vjp(g, needs):
        g = g.reshape(scalars.shape)
        # decode MLP
        g_db2 = _sum_rows(g).reshape(dm.b2.data.shape)
        g_dw2 = (h2.T @ g).T
        g_pre2 = g @ dm.w2.data
        np.multiply(g_pre2, h2 > 0.0, out=g_pre2)
        g_db1 = _sum_rows(g_pre2).reshape(dm.b1.data.shape)
        g_dw1 = (s.T @ g_pre2).T
        g_s = g_pre2 @ dm.w1.data
        # reflection; wr and n_p add their later use's term first
        tmp = -g_s
        g_np = tmp * dots2 if e is not None else None
        np.multiply(tmp, n_p, out=tmp)
        g_dots = np.sum(tmp, axis=1, keepdims=True) * 2.0
        g_wr = _sum_rows(g_s) + _sum_rows(np.multiply(g_dots, n_p, out=tmp))
        grads = head_vjp(g_wr.reshape(y.shape), needs) + (g_dw1, g_db1, g_dw2, g_db2)
        if e is None:
            return grads
        np.add(g_np, np.multiply(g_dots, wr, out=tmp), out=g_np)
        # normalization, n_p = e / norms with norms = sqrt(sum(e * e)):
        # g_e = g_np / norms + 2.0 * e * (g_norms * 0.5 / norms)
        np.negative(g_np, out=tmp)
        np.multiply(tmp, e, out=tmp)
        np.divide(tmp, norms * norms, out=tmp)
        g_norms = np.sum(tmp, axis=1, keepdims=True)
        np.divide(g_np, norms, out=g_np)
        np.multiply(2.0, e, out=tmp)
        np.multiply(tmp, g_norms * 0.5 / norms, out=tmp)
        return grads + (np.add(g_np, tmp, out=g_np),)

    inputs = (f_in, wm.w1, wm.b1, wm.w2, wm.b2, dm.w1, dm.b1, dm.w2, dm.b2)
    if e is not None:
        inputs += (gen.embeddings,)
    return T._record(out, inputs, vjp)


def _sum_rows(g: np.ndarray) -> np.ndarray:
    """A [N, D] gradient reduced onto a broadcast [1, D] operand, as the tape reduces it."""
    return g if g.shape[0] == 1 else g.sum(axis=0, keepdims=True)


def degradation_score(gen, inputs: list) -> float:
    """How much the generated kernel actually varies across inputs.

    Mean over kernel elements of the across-input standard deviation,
    normalized by the mean absolute generated value plus 1e-12.  Zero means
    the generator has degraded to a static kernel.  ``gen`` is anything with
    a ``generate(x) -> Tensor`` method.
    """
    if len(inputs) < 2:
        raise ContractError("degradation_score needs at least 2 inputs")
    stack = np.stack([gen.generate(x).data.reshape(-1) for x in inputs])
    num = stack.std(axis=0).mean()
    den = np.abs(stack).mean() + 1e-12
    return float(num / den)
