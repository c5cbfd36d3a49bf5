"""Attention feature reallocation through a generated residual bottleneck.

Concatenated Q/K/V features pass through two convolutions whose kernels are
produced per-input by a pair of :class:`~redlab.pog.PogGenerator`s — down to a
narrow bottleneck width and back — and the result is added residually before
splitting into new Q*/K*/V*.  With zero-decoding generators the branch
contributes exactly nothing, so the block degrades gracefully to the identity.

The activation between the two convolutions is ReLU; without one the branch
would collapse into a single linear convolution.
"""

from __future__ import annotations

from . import tensor as T
from .errors import ConfigurationError, DimensionError
from .pog import PogGenerator
from .rng import Rng
from .tensor import Tensor


class AdrBlock:
    """Residual Q/K/V rewrite with input-generated bottleneck kernels.

    ``d_c`` is the concatenated channel count (3x the per-tensor width),
    ``d_m`` the bottleneck width (must be strictly smaller), ``d_e`` the
    generator embedding width, and ``d_k`` the kernel size.  gen1 maps
    d_c -> d_m channels, gen2 maps back d_m -> d_c; both condition on the
    same concatenated input.
    """

    def __init__(self, rng: Rng, d_c: int, d_m: int, d_e: int = 16, d_k: int = 3):
        if d_c % 3 != 0:
            raise ConfigurationError(
                f"concatenated channel count must be divisible by 3, got {d_c}"
            )
        if not 1 <= d_m < d_c:
            raise ConfigurationError(
                f"bottleneck width must satisfy 1 <= d_m < d_c, got d_m={d_m}, d_c={d_c}"
            )
        self.d_c = d_c
        self.d_m = d_m
        self.d_k = d_k
        self.gen1 = PogGenerator(rng, d_c, d_e, (d_c, d_m, d_k))
        self.gen2 = PogGenerator(rng, d_c, d_e, (d_m, d_c, d_k))

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        dot = f"{prefix}." if prefix else ""
        return self.gen1.named_parameters(f"{dot}gen1") + self.gen2.named_parameters(
            f"{dot}gen2"
        )

    def freeze(self) -> None:
        self.gen1.freeze()
        self.gen2.freeze()


def reallocate(block: AdrBlock, q: Tensor, k: Tensor, v: Tensor):
    """Rewrite (Q, K, V) jointly; output shapes equal input shapes.

    f_in = concat(Q, K, V); both kernels are generated from this same f_in;
    f_out = f_in + conv(relu(conv(f_in, P1)), P2); then split three ways.
    """
    if not (q.data.shape == k.data.shape == v.data.shape):
        raise DimensionError(
            f"Q/K/V shapes differ: {q.data.shape}, {k.data.shape}, {v.data.shape}"
        )
    d = q.data.shape[0]
    if 3 * d != block.d_c:
        raise ConfigurationError(
            f"block expects {block.d_c} concatenated channels, got 3*{d}"
        )
    f_in = T.concat_channels([q, k, v])
    p1 = block.gen1.generate(f_in)
    p2 = block.gen2.generate(f_in)
    inner = T.relu(T.conv2d(f_in, p1))
    f_out = T.add(f_in, T.conv2d(inner, p2))
    qs, ks, vs = T.split_channels(f_out, [d, d, d])
    return qs, ks, vs
