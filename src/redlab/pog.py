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


def normalize_embeddings(e: Tensor) -> Tensor:
    """Unit-normalize each row of [N, D_e]; differentiable through the division.

    A row norm below 1e-8 signals a collapsed embedding and raises rather
    than being epsilon-guarded away.
    """
    if e.data.ndim != 2:
        raise DimensionError("embeddings must be [N, D_e]")
    norms = T.sqrt(T.sum_last(T.square(e)))
    if np.any(norms.data < 1e-8):
        raise DegenerateEmbeddingError(
            f"embedding row norm {norms.data.min():.3e} below 1e-8"
        )
    return T.div(e, norms)


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


def compute_weights(f_in: Tensor, mlp: MlpParams) -> Tensor:
    """Simplex weight vector for one conditioning input: softmax(mlp(pool))."""
    if f_in.data.ndim != 3:
        raise DimensionError("conditioning input must be [C, H, W]")
    if f_in.data.shape[0] != mlp.w1.data.shape[1]:
        raise DimensionError(
            f"conditioning input has {f_in.data.shape[0]} channels, "
            f"weight MLP expects {mlp.w1.data.shape[1]}"
        )
    return T.softmax(T.mlp2(T.global_avg_pool(f_in), mlp))


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
    dots = T.sum_last(T.mul(n_p, wr))            # [N, 1] row-wise <n_i, W>
    return T.sub(wr, T.mul(T.mul(dots, 2.0), n_p))


class PogGenerator:
    """Generates a [C_out, C_in, D_k, D_k] kernel from a conditioning input.

    ``target_shape`` is (C_in, C_out, D_k); the generator owns
    N = C_in * C_out * D_k^2 embedding rows of width ``d_e``, a weight MLP
    (d_c -> d_c -> d_e) and a decode MLP (d_e -> d_e -> 1).  Construction
    consumes the rng in that order, so equal seeds rebuild equal generators.

    ``freeze()`` caches the normalized embeddings and stops gradients to
    them; a frozen generator is immutable.
    """

    def __init__(self, rng: Rng, d_c: int, d_e: int, target_shape: tuple):
        c_in, c_out, d_k = target_shape
        if d_e < 2:
            raise ConfigurationError(f"embedding width must be >= 2, got {d_e}")
        if min(c_in, c_out, d_k, d_c) < 1:
            raise ConfigurationError(f"bad generator dimensions {target_shape}")
        if d_k % 2 == 0:
            raise ConfigurationError("kernel size must be odd")
        n = c_in * c_out * d_k * d_k
        raw = Tensor(rng.fill_uniform((n, d_e), -1.0, 1.0))
        self.embeddings = Tensor(normalize_embeddings(raw).data, requires_grad=True)
        self.weight_mlp = T.init_mlp(rng, d_c, d_c, d_e)
        self.decode_mlp = T.init_mlp(rng, d_e, d_e, 1)
        self.d_c = d_c
        self.d_e = d_e
        self.target_shape = (c_in, c_out, d_k)
        self.frozen = False
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
        self._cached_norm = Tensor(normalize_embeddings(self.embeddings).data.copy())
        self.frozen = True

    def generate(self, f_in: Tensor) -> Tensor:
        return generate(self, f_in)


def generate(gen: PogGenerator, f_in: Tensor) -> Tensor:
    """Full pipeline: normalize, weight, reflect, decode, reshape to kernel."""
    if gen.frozen:
        n_p = gen._cached_norm
    else:
        n_p = normalize_embeddings(gen.embeddings)
    w = compute_weights(f_in, gen.weight_mlp)
    s = specific_embedding(n_p, w)
    scalars = T.mlp2(s, gen.decode_mlp)          # [N, 1]
    c_in, c_out, d_k = gen.target_shape
    return T.reshape(scalars, (c_out, c_in, d_k, d_k))


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
