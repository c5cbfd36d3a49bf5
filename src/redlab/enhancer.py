"""Toy U-shaped enhancement network hosting the reallocation mechanisms.

Two downsampling encoder stages, a channel-attention latent block, two
upsampling decoder stages (each ending in a channel-attention block that can
carry an :class:`~redlab.adr.AdrBlock`), and a 3-channel head clamped to
[0, 1].  Decoder 3x3 convolutions can be swapped for candidate-mixing
dynamic convolutions, giving the static-vs-dynamic probe target.

Attention is transposed (channel-wise): per-channel rows of Q and K are
L2-normalized, their d x d product is scaled by a learnable temperature and
row-softmaxed, and the result mixes V's channel rows.  Reallocation, when
attached, rewrites Q/K/V before any of that happens.

Training is batch-1 Adam on mean-absolute error with a seed-derived shuffle
schedule, so runs are bit-reproducible.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .adr import AdrBlock, reallocate
from .config import check_bool, check_int, check_list
from .dynconv import DynamicConv
from .errors import ContractError, DimensionError, DivergenceError
from .redundancy import psnr
from .rng import Rng, child_seed
from .tensor import Tensor

_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8


class Conv2dLayer:
    """Same-padded convolution with bias, kernel from :func:`~redlab.tensor.init_uniform`."""

    def __init__(self, rng: Rng, c_in: int, c_out: int, d_k: int):
        self.kernel = Tensor(T.init_uniform(rng, (c_out, c_in, d_k, d_k)), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)
        self.c_out = c_out

    def forward(self, x: Tensor, capture: dict | None = None, path: str = "") -> Tensor:
        return T.add(T.conv2d(x, self.kernel), T.reshape(self.bias, (self.c_out, 1, 1)))

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.kernel", self.kernel), (f"{prefix}.bias", self.bias)]


class ChannelAttentionBlock:
    """Residual channel attention over 1x1-projected Q/K/V.

    The optional reallocation block rewrites Q/K/V between projection and
    attention.  Row normalization carries a 1e-24 additive guard inside the
    square root so an all-zero feature map stays finite (relative effect on
    any non-degenerate row is ~1e-24, far below every stated tolerance).
    """

    def __init__(self, rng: Rng, d: int, adr_dims: tuple | None = None):
        self.d = d
        self.q_conv = Conv2dLayer(rng, d, d, 1)
        self.k_conv = Conv2dLayer(rng, d, d, 1)
        self.v_conv = Conv2dLayer(rng, d, d, 1)
        self.tau = Tensor(np.asarray(1.0), requires_grad=True)
        self.out_conv = Conv2dLayer(rng, d, d, 1)
        if adr_dims is not None:
            d_m, d_e, d_k = adr_dims
            self.adr = AdrBlock(rng, 3 * d, d_m, d_e, d_k)
        else:
            self.adr = None

    def forward(self, f: Tensor, capture: dict | None = None, path: str = "") -> Tensor:
        if f.data.shape[0] != self.d:
            raise DimensionError(
                f"attention block expects {self.d} channels, got {f.data.shape[0]}"
            )
        q = self.q_conv.forward(f)
        k = self.k_conv.forward(f)
        v = self.v_conv.forward(f)
        if self.adr is not None:
            if capture is not None:
                capture.setdefault("adr_inputs", {})[f"{path}.adr"] = T.concat_channels(
                    [q, k, v]
                )
            q, k, v = reallocate(self.adr, q, k, v)
        d, hh, ww = self.d, f.data.shape[1], f.data.shape[2]
        qm = T.reshape(q, (d, hh * ww))
        km = T.reshape(k, (d, hh * ww))
        vm = T.reshape(v, (d, hh * ww))
        qh = T.div(qm, T.sqrt(T.add(T.sum_last(T.square(qm)), 1e-24)))
        kh = T.div(km, T.sqrt(T.add(T.sum_last(T.square(km)), 1e-24)))
        a = T.softmax(T.mul(T.matmul(qh, T.transpose2d(kh)), self.tau))
        if capture is not None:
            capture.setdefault("attention", {})[path] = a.data
        out = self.out_conv.forward(T.reshape(T.matmul(a, vm), (d, hh, ww)))
        return T.add(out, f)

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = self.q_conv.named_parameters(f"{prefix}.qkv.q")
        out += self.k_conv.named_parameters(f"{prefix}.qkv.k")
        out += self.v_conv.named_parameters(f"{prefix}.qkv.v")
        out.append((f"{prefix}.tau", self.tau))
        out += self.out_conv.named_parameters(f"{prefix}.out")
        if self.adr is not None:
            out += self.adr.named_parameters(f"{prefix}.adr")
        return out


class EncoderStage:
    def __init__(self, rng: Rng, c_in: int, c_out: int):
        self.conv = Conv2dLayer(rng, c_in, c_out, 3)

    def forward(self, x: Tensor, capture: dict | None = None, path: str = "") -> Tensor:
        return T.downsample2x_mean(T.relu(self.conv.forward(x)))

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return self.conv.named_parameters(f"{prefix}.conv")


class DecoderStage:
    def __init__(
        self,
        rng: Rng,
        c_in: int,
        c_out: int,
        adr_dims: tuple | None,
        dyn_candidates: int,
    ):
        if dyn_candidates:
            self.conv = DynamicConv(rng, c_in, c_out, 3, dyn_candidates)
            self.dynamic = True
        else:
            self.conv = Conv2dLayer(rng, c_in, c_out, 3)
            self.dynamic = False
        self.attn = ChannelAttentionBlock(rng, c_out, adr_dims)

    def forward(self, x: Tensor, capture: dict | None, path: str) -> Tensor:
        y = self.conv.forward(T.upsample2x(x))
        return self.attn.forward(T.relu(y), capture, f"{path}.attn")

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        sub = "dynconv" if self.dynamic else "conv"
        out = self.conv.named_parameters(f"{prefix}.{sub}")
        out += self.attn.named_parameters(f"{prefix}.attn")
        return out


def _carve(flat: np.ndarray, shapes: list) -> list:
    """Views of ``flat`` with the given shapes, laid end to end from offset 0."""
    views = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return views


class ToyEnhancer:
    """3xHxW -> 3xHxW enhancer; H and W must be divisible by 4.

    ``adr_blocks`` switches reallocation per decoder block; with both off
    (and ``dyn_candidates`` 0) the network holds no dynamic parameters.
    Construction consumes the rng in fixed stage order, so a seed pins every
    initial weight.  A recipe it refuses raises ConfigurationError naming the argument.

    Every parameter's ``data`` is a view into ``arena``, one contiguous
    float64 buffer laid out in ``named_parameters`` order, which is also the
    order of a checkpoint's blob.  Write parameters in place; a copy of the
    model copies the arena once and gives its tensors views of the copy.
    """

    def __init__(
        self,
        rng: Rng,
        widths: tuple = (8, 16),
        adr_blocks: tuple = (False, False),
        adr_dims: tuple = (4, 16, 3),
        dyn_candidates: int = 0,
    ):
        widths = check_list(widths, 2, "widths")
        adr_blocks = check_list(adr_blocks, 2, "adr_blocks")
        adr_dims = check_list(adr_dims, 3, "adr_dims")
        self.widths = tuple(check_int(w, 1, "widths") for w in widths)
        self.adr_blocks = tuple(check_bool(b, "adr_blocks") for b in adr_blocks)
        # D_m, D_e, D_k, with the minimums RunConfig gives them
        self.adr_dims = tuple(check_int(v, low, "adr_dims") for v, low in zip(adr_dims, (1, 2, 1)))
        self.dyn_candidates = check_int(dyn_candidates, 0, "dyn_candidates")
        w1, w2 = self.widths
        self.enc1 = EncoderStage(rng, 3, w1)
        self.enc2 = EncoderStage(rng, w1, w2)
        self.latent = ChannelAttentionBlock(rng, w2, None)
        self.dec1 = DecoderStage(
            rng, w2, w1, self.adr_dims if self.adr_blocks[0] else None, self.dyn_candidates
        )
        self.dec2 = DecoderStage(
            rng, w1, w1, self.adr_dims if self.adr_blocks[1] else None, self.dyn_candidates
        )
        self.head = Conv2dLayer(rng, w1, 3, 3)
        # (path, stage) for every stage, in forward order: the one place these
        # parameter paths are spelled out.  Each stage maps its input alone
        # (plus the optional capture) to the next stage's input.
        self.stages = (
            ("encoder.stage1", self.enc1),
            ("encoder.stage2", self.enc2),
            ("latent.attn", self.latent),
            ("decoder.block1", self.dec1),
            ("decoder.block2", self.dec2),
            ("head", self.head),
        )
        self.frozen = False
        named = self.named_parameters()
        self.arena = np.concatenate([t.data.reshape(-1) for _, t in named])
        for (_, t), view in zip(named, _carve(self.arena, [t.data.shape for _, t in named])):
            t.data = view

    def __deepcopy__(self, memo):
        arena = self.arena.copy()
        memo[id(self.arena)] = arena
        named = self.named_parameters()
        for (_, t), view in zip(named, _carve(arena, [t.data.shape for _, t in named])):
            twin = Tensor(view, requires_grad=t.requires_grad)
            if t.grad is not None:
                twin.grad = t.grad.copy()
            memo[id(t)] = twin
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(copy.deepcopy(self.__dict__, memo))
        return clone

    def forward(
        self, x: Tensor, capture: dict | None = None, stage_inputs: list | None = None
    ) -> Tensor:
        """The enhanced image; ``stage_inputs``, if given, receives each stage's input."""
        if x.data.ndim != 3 or x.data.shape[0] != 3:
            raise DimensionError(f"expected [3, H, W] input, got {x.data.shape}")
        h, w = x.data.shape[1], x.data.shape[2]
        if h % 4 or w % 4:
            raise DimensionError(f"H and W must be divisible by 4, got {h}x{w}")
        return self.resume(x, 0, capture, stage_inputs)

    def resume(
        self,
        y: Tensor,
        start: int,
        capture: dict | None = None,
        stage_inputs: list | None = None,
    ) -> Tensor:
        """The forward from ``stages[start]`` on, given that stage's input ``y``.

        ``resume(stage_inputs[k], k)``, with the list a forward recorded,
        equals that forward's output as long as no parameter of the stages
        before ``k`` changed in between.
        """
        for path, stage in self.stages[start:]:
            if stage_inputs is not None:
                stage_inputs.append(y)
            y = stage.forward(y, capture, path)
        return T.clamp01(y)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for path, stage in self.stages:
            out += stage.named_parameters(path)
        return out

    def reallocation_blocks(self) -> dict:
        """Attached :class:`AdrBlock`s keyed by parameter path, in forward order."""
        found = {}
        for path, stage in self.stages:
            if isinstance(stage, DecoderStage):
                path, stage = f"{path}.attn", stage.attn
            if getattr(stage, "adr", None) is not None:
                found[f"{path}.adr"] = stage.adr
        return found

    def freeze(self) -> None:
        """Cache the generators' normalized embeddings and drop every gradient.

        A frozen model cannot train, so its gradients are never read again,
        and copies of it (reset probes) need not carry them.  Call it again
        after writing a frozen model's parameters to re-derive the caches.
        """
        for adr in self.reallocation_blocks().values():
            adr.freeze()
        for _, t in self.named_parameters():
            t.grad = None
        self.frozen = True


def collect_adr_inputs(model: ToyEnhancer, x: Tensor) -> dict:
    """Concatenated Q/K/V conditioning tensors per reallocation block path."""
    capture: dict = {}
    model.forward(x, capture)
    return capture.get("adr_inputs", {})


@dataclass
class TrainState:
    """Everything the optimizer carries between steps."""

    params: list
    m: dict
    v: dict
    step: int
    rng: Rng
    loss_history: list = field(default_factory=list)


def _as_low_ref(pair):
    if hasattr(pair, "low"):
        return pair.low, pair.clean
    low, ref = pair
    return low, ref


def train(model, pairs, steps: int, seed: int, lr: float = 1e-3) -> TrainState:
    """Adam on batch-1 mean-absolute error, deterministic per seed.

    The sample order reshuffles every epoch from a child stream of ``seed``.
    Raises on a frozen model.  A non-finite loss, or a forward or loss that
    fails on non-finite values from a finite input, raises
    :class:`DivergenceError` with the failing step recorded on it; a
    non-finite input raises :class:`ContractError`.
    """
    if model.frozen:
        raise ContractError("cannot train a frozen model")
    if steps < 1:
        raise ContractError(f"steps must be >= 1, got {steps}")
    if not pairs:
        raise ContractError("training needs at least one pair")
    named = model.named_parameters()
    shapes = [t.data.shape for _, t in named]
    arena = model.arena
    for name, p in named:
        if p.data.base is not arena:
            raise ContractError(f"parameter {name} is not a view of the model's arena")
    # Flat Adam buffers beside the arena; m and v are exposed per name as views.
    m, v, g = np.zeros_like(arena), np.zeros_like(arena), np.empty_like(arena)
    a, b = np.empty_like(arena), np.empty_like(arena)
    state = TrainState(
        params=named,
        m={name: view for (name, _), view in zip(named, _carve(m, shapes))},
        v={name: view for (name, _), view in zip(named, _carve(v, shapes))},
        step=0,
        rng=Rng(child_seed(seed, 0)),
    )
    order: list = []
    for step in range(steps):
        if not order:
            order = list(range(len(pairs)))
            state.rng.shuffle(order)
        low, ref = _as_low_ref(pairs[order.pop(0)])
        for _, p in named:
            p.grad = None
        tape = T.Tape()
        with tape, np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                out = model.forward(low)
                loss = T.mean_all(T.absolute(T.sub(out, ref)))
            except (ContractError, FloatingPointError) as exc:
                # Only a non-finite value fails here: softmax refuses one, NumPy
                # raises on overflow.  From a finite input, the parameters
                # training produced made it: the run diverged.
                if not np.isfinite(low.data).all():
                    raise ContractError(f"non-finite input at step {step}: {exc}") from None
                raise DivergenceError(step, f"non-finite forward at step {step}: {exc}") from None
        value = loss.item()
        if not np.isfinite(value):
            raise DivergenceError(step)
        T.backward(tape, loss)
        np.concatenate(
            [(p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
             for _, p in named],
            out=g,
        )
        # Per element, in the order of the per-tensor form
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        #   p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
        # with out= temporaries, so the result is bit-identical to it.
        t = step + 1
        np.multiply(m, _ADAM_B1, out=m)
        np.multiply(g, 1.0 - _ADAM_B1, out=a)
        np.add(m, a, out=m)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - _ADAM_B2, out=a)
        np.multiply(v, _ADAM_B2, out=v)
        np.add(v, a, out=v)
        np.divide(v, 1.0 - _ADAM_B2 ** t, out=a)
        np.sqrt(a, out=a)
        np.add(a, _ADAM_EPS, out=a)
        np.divide(m, 1.0 - _ADAM_B1 ** t, out=b)
        np.multiply(b, lr, out=b)
        np.divide(b, a, out=b)
        np.subtract(arena, b, out=arena)
        state.step = t
        state.loss_history.append(value)
    return state


def evaluate(model, pairs) -> float:
    """Mean reconstruction PSNR (dB, I_max = 1) over the given pairs."""
    if not pairs:
        raise ContractError("evaluate needs at least one pair")
    total = 0.0
    for pair in pairs:
        low, ref = _as_low_ref(pair)
        total += psnr(model.forward(low), ref, 1.0)
    return total / len(pairs)
