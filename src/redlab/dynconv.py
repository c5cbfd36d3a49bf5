"""Classic dynamic convolution: input-weighted mixing of candidate kernels.

The comparison mechanism whose redundancy the probing protocol diagnoses —
an attention MLP turns pooled input statistics into a softmax over K
candidate kernels, and the convolution runs with their weighted sum.  The
``generate`` method exposes that effective kernel so the same
input-sensitivity scoring used for orthogonal generation applies here.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DegenerateCandidateError, DimensionError
from .rng import Rng
from .tensor import MlpParams, Tensor


class DynamicConv:
    """K candidate kernels plus an attention MLP (C_in -> C_in -> K)."""

    def __init__(self, rng: Rng, c_in: int, c_out: int, d_k: int = 3, k: int = 4):
        if k < 1:
            raise ConfigurationError(f"need at least one candidate kernel, got {k}")
        if d_k % 2 == 0:
            raise ConfigurationError("kernel size must be odd")
        self.candidates = Tensor(
            T.init_uniform(rng, (k, c_out, c_in, d_k, d_k)), requires_grad=True
        )
        self.att_mlp = T.init_mlp(rng, c_in, c_in, k)
        self.k = k
        self.c_in = c_in
        self.c_out = c_out
        self.d_k = d_k

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        dot = f"{prefix}." if prefix else ""
        out = [(f"{dot}candidates", self.candidates)]
        out += self.att_mlp.named(f"{dot}att_mlp")
        return out

    def generate(self, x: Tensor) -> Tensor:
        """Effective kernel for this input: the softmax-weighted candidate sum."""
        if x.data.ndim != 3 or x.data.shape[0] != self.c_in:
            raise DimensionError(
                f"expected [{self.c_in}, H, W] input, got {x.data.shape}"
            )
        pi = T.softmax(T.mlp2(T.global_avg_pool(x), self.att_mlp))
        flat = T.reshape(self.candidates, (self.k, self.c_out * self.c_in * self.d_k ** 2))
        mixed = T.matmul(T.reshape(pi, (1, self.k)), flat)
        return T.reshape(mixed, (self.c_out, self.c_in, self.d_k, self.d_k))

    def forward(self, x: Tensor) -> Tensor:
        """Convolve with the input's effective kernel."""
        return T.conv2d(x, self.generate(x))


def candidate_similarity(dc: DynamicConv) -> np.ndarray:
    """K x K cosine similarities between flattened candidate kernels.

    Symmetric with unit diagonal; entries near 1 mean the bank has
    collapsed to near-duplicate kernels.
    """
    flat = dc.candidates.data.reshape(dc.k, -1)
    norms = np.sqrt((flat * flat).sum(axis=1))
    if np.any(norms < 1e-12):
        raise DegenerateCandidateError(
            f"candidate norm {norms.min():.3e} too small for cosine similarity"
        )
    unit = flat / norms[:, None]
    sim = unit @ unit.T
    sim = 0.5 * (sim + sim.T)
    np.fill_diagonal(sim, 1.0)
    return np.clip(sim, -1.0, 1.0)
