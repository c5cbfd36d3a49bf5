"""Synthetic clean/low-light pairs: gradient + rectangles + texture noise,
darkened by a gamma curve with gain and per-pixel Gaussian read noise.

Everything is a pure function of seeds, so corpora regenerate bit-exactly
and degradation records replay to the same low image.  Scene structure is
deliberately simple — enough content variation that per-image metrics
(and therefore improvement fractions) are meaningful, nothing more.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import load_tensors, save_tensors
from .errors import ContractError
from .rng import Rng, child_seed
from .tensor import Tensor


@dataclass
class ScenePair:
    """One training example: clean target, degraded input, and provenance."""

    clean: Tensor
    low: Tensor
    seed: int
    record: dict


def make_scene(rng: Rng, h: int, w: int) -> Tensor:
    """Clean [3, h, w] image in [0, 1].

    Draw order (fixed for reproducibility): gradient direction and end
    luminances, rectangle count, per-rectangle geometry then color, texture
    noise.  Texture is uniform +-0.02.
    """
    if h < 8 or w < 8:
        raise ContractError(f"scene must be at least 8x8, got {h}x{w}")
    gx = rng.uniform(-1.0, 1.0)
    gy = rng.uniform(-1.0, 1.0)
    a0 = rng.uniform(0.1, 0.9)
    a1 = rng.uniform(0.1, 0.9)
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    proj = gx * xs + gy * ys
    span = proj.max() - proj.min()
    t = (proj - proj.min()) / span if span > 1e-12 else np.full((h, w), 0.5)
    img = np.broadcast_to(a0 + (a1 - a0) * t, (3, h, w)).copy()

    count = 2 + rng.next_below(4)
    for _ in range(count):
        x0 = rng.next_below(w - 1)
        y0 = rng.next_below(h - 1)
        rw = 2 + rng.next_below(max(w // 2, 1))
        rh = 2 + rng.next_below(max(h // 2, 1))
        color = np.array([rng.uniform(0.0, 1.0) for _ in range(3)])
        img[:, y0:y0 + rh, x0:x0 + rw] = color[:, None, None]

    img += rng.fill_uniform((3, h, w), -0.02, 0.02)
    return Tensor(np.clip(img, 0.0, 1.0))


def apply_degradation(
    clean: Tensor, gamma: float, s: float, sigma: float, noise_rng: Rng
) -> Tensor:
    """low = clamp(clean^gamma * s + N(0, sigma^2)), the noise drawn from ``noise_rng``."""
    # the noise is drawn before the power product is made, so the fill's chunk
    # temporaries do not sit below a live 3*H*W array on the heap
    noise = noise_rng.fill_normal(clean.data.shape, sigma)
    return Tensor(np.clip(np.power(clean.data, gamma) * s + noise, 0.0, 1.0))


def degrade(clean: Tensor, rng: Rng) -> tuple:
    """Draw degradation parameters, apply them, and return (low, record).

    The record carries everything needed to replay the exact low image:
    gamma ~ U[2,3], gain s ~ U[0.1,0.3], sigma ~ U[0.01,0.05], and the seed
    of the noise stream.
    """
    gamma = rng.uniform(2.0, 3.0)
    s = rng.uniform(0.1, 0.3)
    sigma = rng.uniform(0.01, 0.05)
    noise_seed = rng.next_u64()
    low = apply_degradation(clean, gamma, s, sigma, Rng(noise_seed))
    return low, {"gamma": gamma, "s": s, "sigma": sigma, "noise_seed": noise_seed}


def make_pair(seed: int, h: int, w: int) -> ScenePair:
    """Scene plus degradation from one seed-pinned stream."""
    rng = Rng(seed)
    clean = make_scene(rng, h, w)
    low, record = degrade(clean, rng)
    return ScenePair(clean=clean, low=low, seed=seed, record=record)


def make_corpus(seed: int, count: int, h: int, w: int) -> list:
    """Independent pairs under child streams of one corpus seed."""
    if count < 1:
        raise ContractError(f"corpus needs at least one pair, got {count}")
    return [make_pair(child_seed(seed, i), h, w) for i in range(count)]


def save_pairs(dirpath: str, pairs: list) -> None:
    """Export a corpus as a tensor blob plus JSON index under `dirpath`.

    A corpus with no pairs is refused before anything is written, as
    ``load_pairs`` would refuse it."""
    if not pairs:
        raise ContractError(f"corpus {dirpath!r} needs at least one pair")
    named = []
    index = []
    for i, pair in enumerate(pairs):
        named.append((f"pair{i:04d}.clean", pair.clean.data))
        named.append((f"pair{i:04d}.low", pair.low.data))
        index.append({"seed": pair.seed, "record": pair.record})
    save_tensors(
        os.path.join(dirpath, "corpus"), named, {"kind": "corpus", "pairs": index}
    )


def load_pairs(dirpath: str) -> list:
    """Read a corpus back; a corpus with no pairs is malformed input, and so
    is a pair with a non-finite pixel, a pair whose two tensors are not both
    [3, H, W] of one shape, or a tensor that belongs to no pair.

    The pairs' tensors are views of the one buffer :func:`load_tensors`
    reads, so a load holds one copy of the corpus.
    """
    tensors, meta = load_tensors(os.path.join(dirpath, "corpus"))
    if meta.get("kind") != "corpus":
        raise ContractError(f"not a corpus directory: {dirpath!r}")
    entries = meta.get("pairs")
    if not isinstance(entries, list):
        raise ContractError(f"corpus index in {dirpath!r} has no 'pairs' list")
    if not entries:
        raise ContractError(f"corpus {dirpath!r} holds no pairs")
    pairs = []
    paired = set()
    for i, entry in enumerate(entries):
        clean, low = f"pair{i:04d}.clean", f"pair{i:04d}.low"
        if not (
            isinstance(entry, dict)
            and {"seed", "record"} <= entry.keys()
            and clean in tensors
            and low in tensors
        ):
            raise ContractError(f"corpus pair {i} in {dirpath!r} is incomplete")
        for name in (clean, low):
            if not np.isfinite(tensors[name]).all():
                raise ContractError(f"corpus tensor {name} in {dirpath!r} holds non-finite values")
        shapes = tensors[clean].shape, tensors[low].shape
        if len(shapes[0]) != 3 or shapes[0][0] != 3 or shapes[0] != shapes[1]:
            raise ContractError(
                f"corpus pair {i} in {dirpath!r} is not two [3, H, W] tensors of one shape: "
                f"clean {list(shapes[0])}, low {list(shapes[1])}"
            )
        paired.update((clean, low))
        pairs.append(
            ScenePair(
                clean=Tensor(tensors[clean]),
                low=Tensor(tensors[low]),
                seed=entry["seed"],
                record=entry["record"],
            )
        )
    stray = [name for name in tensors if name not in paired]
    if stray:
        raise ContractError(f"corpus tensor {stray[0]} in {dirpath!r} belongs to no pair")
    return pairs
