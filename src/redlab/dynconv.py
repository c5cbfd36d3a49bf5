"""Classic dynamic convolution: input-weighted mixing of candidate kernels.

The comparison mechanism whose redundancy the probing protocol diagnoses —
an attention MLP turns pooled input statistics into a softmax over K
candidate kernels, and the convolution runs with their weighted sum.  The
``generate`` method exposes that effective kernel so the same
input-sensitivity scoring used for orthogonal generation applies here.
"""

from __future__ import annotations

import numpy as np

from . import pog
from . import tensor as T
from .errors import ConfigurationError, DegenerateCandidateError
from .rng import Rng
from .tensor import Tensor


# the candidates' kernel size: a decoder stage's 3x3 convolution is what they replace
_D_K = 3


class DynamicConv:
    """K candidate [C_out, C_in, 3, 3] kernels plus an attention MLP (C_in -> C_in -> K).

    Construction draws the candidate bank, then the attention MLP, from
    ``rng`` in that order.
    """

    def __init__(self, rng: Rng | T.Planner, c_in: int, c_out: int, k: int):
        if k < 1:
            raise ConfigurationError(f"need at least one candidate kernel, got {k}")
        self.candidates = T.parameter(rng, (k, c_out, c_in, _D_K, _D_K))
        self.att_mlp = T.init_mlp(rng, c_in, c_in, k)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        dot = f"{prefix}." if prefix else ""
        out = [(f"{dot}candidates", self.candidates)]
        out += self.att_mlp.named(f"{dot}att_mlp")
        return out

    def generate(self, x: Tensor) -> Tensor:
        """Effective kernel for this input: the candidate sum weighted by POG's
        weight head, :func:`pog.compute_weights`."""
        shape = self.candidates.data.shape
        pi = pog.compute_weights(x, self.att_mlp)
        flat = T.reshape(self.candidates, (shape[0], -1))
        mixed = T.matmul(T.reshape(pi, (1, shape[0])), flat)
        return T.reshape(mixed, shape[1:])

    def forward(self, x: Tensor) -> Tensor:
        """Convolve with the input's effective kernel."""
        return T.conv2d(x, self.generate(x))


def candidate_similarity(dc: DynamicConv) -> np.ndarray:
    """K x K cosine similarities between flattened candidate kernels.

    Symmetric with unit diagonal; entries near 1 mean the bank has
    collapsed to near-duplicate kernels.
    """
    flat = dc.candidates.data.reshape(dc.candidates.data.shape[0], -1)
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
