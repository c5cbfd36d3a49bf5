"""Composed chains: the byte oracles for redlab's fused operations.

``pog.compute_weights``, ``pog.generate``, ``tensor.conv2d`` with a bias and
``enhancer.attention`` are each one tape record that replaced a chain of
one-record primitives.  The chains live here, with the primitives that only
they use (``mul``, ``div``, ``square``, ``sqrt``, ``sum_last``,
``transpose2d``, ``global_avg_pool`` and both forms of ``mlp2``), and
:func:`oracle_bytes` runs a fused operation or its chain so that tests can
compare the two byte for byte; :func:`replay_bytes` does the same for a
whole training run and ``dmr``.  ``pog.generate``'s whole chain is here:
:func:`normalize_embeddings` -> :func:`composed_weights` ->
:func:`specific_embedding` -> ``mlp2``, in :func:`composed_generate`, and
:func:`build_basis` materializes the reflector its closed form applies.
``sum_all`` and ``mse``, the losses tests build on the engine, live here
too: the package itself uses neither.
"""

import numpy as np

from redlab import pog
from redlab import tensor as T
from redlab.datagen import make_corpus
from redlab.enhancer import ToyEnhancer, train
from redlab.errors import ContractError, DimensionError
from redlab.redundancy import default_selectors, dmr
from redlab.rng import Rng
from redlab.tensor import (
    MlpParams,
    Tensor,
    _as_tensor,
    _record,
    _unbroadcast,
    _wrap,
    add,
    matmul,
    mean_all,
    relu,
    reshape,
    sub,
)
from tape_helpers import grads, step_grads


def sum_all(x: Tensor) -> Tensor:
    out = _wrap(np.asarray(np.sum(x.data)))

    def vjp(g, needs):
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _record(out, (x,), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _wrap(a.data * b.data)

    def vjp(g, needs):
        return (
            _unbroadcast(g * b.data, a.data.shape) if needs[0] else None,
            _unbroadcast(g * a.data, b.data.shape) if needs[1] else None,
        )

    return _record(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _wrap(a.data / b.data)

    def vjp(g, needs):
        return (
            _unbroadcast(g / b.data, a.data.shape) if needs[0] else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if needs[1] else None,
        )

    return _record(out, (a, b), vjp)


def square(x: Tensor) -> Tensor:
    out = _wrap(x.data * x.data)

    def vjp(g, needs):
        return (2.0 * x.data * g,)

    return _record(out, (x,), vjp)


def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)
    out = _wrap(y)

    def vjp(g, needs):
        return (g * 0.5 / y,)

    return _record(out, (x,), vjp)


def sum_last(x: Tensor) -> Tensor:
    """Sum over the final axis, keeping it as size 1."""
    out = _wrap(np.sum(x.data, axis=-1, keepdims=True))

    def vjp(g, needs):
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _record(out, (x,), vjp)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared elementwise difference (scalar)."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mse shapes differ: {a.data.shape} vs {b.data.shape}")
    return mean_all(square(sub(a, b)))


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError("transpose2d expects a 2-D tensor")
    out = _wrap(x.data.T)

    def vjp(g, needs):
        return (g.T,)

    return _record(out, (x,), vjp)


def global_avg_pool(f: Tensor) -> Tensor:
    """Per-channel spatial mean: [C, H, W] -> [C]."""
    if f.data.ndim != 3:
        raise DimensionError("global_avg_pool input must be [C, H, W]")
    c, h, w = f.data.shape
    out = _wrap(f.data.reshape(c, h * w).mean(axis=1))

    def vjp(g, needs):
        return (np.broadcast_to(g[:, None, None] / (h * w), f.data.shape).copy(),)

    return _record(out, (f,), vjp)


def mlp2(x: Tensor, params: MlpParams) -> Tensor:
    """Two-layer MLP with ReLU between the layers.

    A 1-D input [d_in] maps to [d_out]; a 2-D input [B, d_in] is treated as
    a batch of rows and maps to [B, d_out].
    """
    w1, b1, w2, b2 = params.w1, params.b1, params.w2, params.b2
    if x.data.ndim == 1:
        if x.data.shape[0] != w1.data.shape[1]:
            raise DimensionError(
                f"mlp2 expects input width {w1.data.shape[1]}, got {x.data.shape[0]}"
            )
        col = reshape(x, (x.data.shape[0], 1))
        h = relu(add(matmul(w1, col), reshape(b1, (b1.data.shape[0], 1))))
        out = add(matmul(w2, h), reshape(b2, (b2.data.shape[0], 1)))
        return reshape(out, (w2.data.shape[0],))
    if x.data.ndim == 2:
        if x.data.shape[1] != w1.data.shape[1]:
            raise DimensionError(
                f"mlp2 expects input width {w1.data.shape[1]}, got {x.data.shape[1]}"
            )
        h = relu(add(matmul(x, transpose2d(w1)), reshape(b1, (1, b1.data.shape[0]))))
        return add(matmul(h, transpose2d(w2)), reshape(b2, (1, b2.data.shape[0])))
    raise DimensionError("mlp2 input must be 1-D or 2-D")


def normalize_embeddings(e: Tensor) -> Tensor:
    """Unit-normalize each row of [N, D_e]; differentiable through the division.

    A row norm below 1e-8 signals a collapsed embedding and raises rather
    than being epsilon-guarded away.
    """
    if e.data.ndim != 2:
        raise DimensionError("embeddings must be [N, D_e]")
    norms = sqrt(sum_last(square(e)))
    pog._check_norms(norms.data)
    return div(e, norms)


def build_basis(n_i: Tensor) -> Tensor:
    """Materialize the Householder reflector I - 2 n n^T for one unit row.

    Only for inspection and oracle tests; generation never builds this.
    """
    v = n_i.data
    if v.ndim != 1:
        raise DimensionError("basis direction must be a 1-D unit vector")
    norm = float(np.sqrt(v @ v))
    if abs(norm - 1.0) > 1e-10:
        raise ContractError(f"basis direction must be unit-norm, got {norm!r}")
    return Tensor(np.eye(v.shape[0]) - 2.0 * np.outer(v, v))


def specific_embedding(n_p: Tensor, w: Tensor) -> Tensor:
    """Apply each row's Householder reflector to the shared weight vector.

    Closed form s_i = W - 2 <n_i, W> n_i, vectorized over rows: [N, D_e].
    """
    if n_p.data.ndim != 2 or w.data.ndim != 1:
        raise DimensionError("expected [N, D_e] rows and a [D_e] weight vector")
    if n_p.data.shape[1] != w.data.shape[0]:
        raise DimensionError(
            f"rows have width {n_p.data.shape[1]}, weights have {w.data.shape[0]}"
        )
    wr = T.reshape(w, (1, w.data.shape[0]))
    dots = sum_last(mul(n_p, wr))            # [N, 1] row-wise <n_i, W>
    return T.sub(wr, mul(mul(dots, 2.0), n_p))


def composed_weights(f_in, mlp):
    """The weight head as the 11-record chain pool -> 1-D ``mlp2`` -> softmax:
    the byte oracle for the single-record ``pog.compute_weights``."""
    return T.softmax(mlp2(global_avg_pool(f_in), mlp))


def composed_generate(gen, f_in):
    """The generator as a chain of its published sub-steps, one tape record per
    primitive: the byte oracle for the single-record ``pog.generate``.  Its
    weights come from :func:`composed_weights`, not from the fused head."""
    n_p = gen._cached_norm
    if n_p is None:
        n_p = normalize_embeddings(gen.embeddings)
    w = composed_weights(f_in, gen.weight_mlp)
    s = specific_embedding(n_p, w)
    c_in, c_out, d_k = gen.target_shape
    return T.reshape(mlp2(s, gen.decode_mlp), (c_out, c_in, d_k, d_k))


def composed_attention(q, k, v, tau):
    """The attention core as the 19-record chain it replaces: the byte oracle
    for the single-record ``enhancer.attention``."""
    d, hh, ww = q.data.shape
    qm = T.reshape(q, (d, hh * ww))
    km = T.reshape(k, (d, hh * ww))
    vm = T.reshape(v, (d, hh * ww))
    qh = div(qm, sqrt(T.add(sum_last(square(qm)), 1e-24)))
    kh = div(km, sqrt(T.add(sum_last(square(km)), 1e-24)))
    a = T.softmax(mul(T.matmul(qh, transpose2d(kh)), tau))
    return T.reshape(T.matmul(a, vm), (d, hh, ww))


def composed_conv2d(x, kernel, bias):
    """A biased convolution as the chain of three records it replaces: the byte
    oracle for ``T.conv2d(x, kernel, bias)``."""
    return T.add(T.conv2d(x, kernel), T.reshape(bias, (bias.data.shape[0], 1, 1)))


def composed_conv_forward(layer, x, observe=None, path=""):
    """``Conv2dLayer.forward`` as the convolve, reshape-bias, add chain it replaces."""
    return composed_conv2d(x, layer.kernel, layer.bias)


def oracle_bytes(op, inputs, cotangent):
    """``op(*inputs)`` and the tape records it took, as ``(bytes list, count)``.

    With a ``cotangent`` array the list holds the output and the gradient of
    ``<op(*inputs), cotangent>`` for each of ``inputs``, which must cover every
    leaf ``op`` tracks; the count includes the two loss records.  With
    ``cotangent`` None, ``op`` runs outside a tape: the list holds the output
    only and the count is 0.
    """
    if cotangent is None:
        return [op(*inputs).data.tobytes()], 0
    tape = T.Tape()
    with tape:
        out = op(*inputs)
        loss = sum_all(mul(out, Tensor(cotangent)))
    return [out.data.tobytes()] + [g.tobytes() for g in grads(tape, loss, inputs)], len(tape)


def replay_bytes(**kw):
    """Bytes of a seeded 20-step run of ``ToyEnhancer(Rng(7), **kw)`` on two
    16x16 pairs: the loss history, the trained arena, the trained model's
    gradients on the first pair, and the frozen model's ``dmr`` terms.

    An oracle test calls it, monkeypatches the composed chains in, and
    calls it again; the two tuples must be equal.
    """
    pairs = make_corpus(3, 2, 16, 16)
    model = ToyEnhancer(Rng(7), **kw)
    state = train(model, pairs, 20, 11)
    trained = step_grads(model, pairs[0])
    model.freeze()
    report = dmr(model, default_selectors(model), [p.low for p in pairs], 5)
    history = np.array(state.loss_history).tobytes()
    return history, model.arena.tobytes(), trained, report.terms.tobytes()
