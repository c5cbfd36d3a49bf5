"""Toy U-shaped enhancement network hosting the reallocation mechanisms.

Two downsampling encoder stages, a channel-attention latent block, two
upsampling decoder stages (each followed by a channel-attention block that
can carry an :class:`~redlab.adr.AdrBlock`), and a 3-channel head clamped to
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

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .adr import AdrBlock, reallocate
from .checkpoint import _RECIPE_KEYS
from .config import ADR_AXES, check_bool, check_int, check_list
from .dynconv import DynamicConv
from .errors import ConfigurationError, ContractError, DimensionError, DivergenceError
from .redundancy import psnr
from .rng import Rng, child_seed
from .tensor import Tensor

_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8

# observe(path, tensor): watches a forward; see ToyEnhancer.resume
Observer = Callable[[str, Tensor], object]


class Conv2dLayer:
    """Same-padded convolution with bias, kernel from :func:`~redlab.tensor.init_uniform`."""

    def __init__(self, rng: Rng | T.Planner, c_in: int, c_out: int, d_k: int):
        self.kernel = T.parameter(rng, (c_out, c_in, d_k, d_k))
        self.bias = T.parameter(rng, (c_out,), T.init_zero)

    def forward(self, x: Tensor, observe: Observer | None = None, path: str = "") -> Tensor:
        return T.conv2d(x, self.kernel, self.bias)

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.kernel", self.kernel), (f"{prefix}.bias", self.bias)]


class ChannelAttentionBlock:
    """Residual channel attention over 1x1-projected Q/K/V.

    The optional reallocation block rewrites Q/K/V between projection and
    attention.  As a stage of :class:`ToyEnhancer` it holds the one resume
    point inside a stage: the attention core's output (``.out``), which the
    out projection reads (see :meth:`resume`).  Row normalization carries a
    1e-24 additive guard inside the square root so an all-zero feature map
    stays finite (relative effect on any non-degenerate row is ~1e-24, far
    below every stated tolerance).
    """

    def __init__(self, rng: Rng | T.Planner, d: int, adr_dims: tuple | None = None):
        self.q_conv = Conv2dLayer(rng, d, d, 1)
        self.k_conv = Conv2dLayer(rng, d, d, 1)
        self.v_conv = Conv2dLayer(rng, d, d, 1)
        self.tau = T.parameter(rng, (1,), _init_one)
        self.out_conv = Conv2dLayer(rng, d, d, 1)
        if adr_dims is not None:
            d_m, d_e, d_k = adr_dims
            self.adr = AdrBlock(rng, 3 * d, d_m, d_e, d_k)
        else:
            self.adr = None

    def forward(self, f: Tensor, observe: Observer | None = None, path: str = "") -> Tensor:
        q = self.q_conv.forward(f)  # conv2d refuses a wrong channel count
        k = self.k_conv.forward(f)
        v = self.v_conv.forward(f)
        if self.adr is not None:
            if observe is not None:
                observe(f"{path}.adr", T.concat_channels([q, k, v]))
            q, k, v = reallocate(self.adr, q, k, v)
        a = attention(q, k, v, self.tau)
        if observe is not None:
            observe(f"{path}.out", a)
        return T.add(self.out_conv.forward(a), f)

    def resume(self, seen: dict, point: str, observe: Observer | None, path: str) -> Tensor:
        """The block's output from its ``.out`` point, ``seen`` holding the
        core output there and the block input at ``path``."""
        a = seen[point]
        if observe is not None:
            observe(point, a)
        return T.add(self.out_conv.forward(a), seen[path])

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = self.q_conv.named_parameters(f"{prefix}.qkv.q")
        out += self.k_conv.named_parameters(f"{prefix}.qkv.k")
        out += self.v_conv.named_parameters(f"{prefix}.qkv.v")
        out.append((f"{prefix}.tau", self.tau))
        out += self.out_conv.named_parameters(f"{prefix}.out")
        if self.adr is not None:
            out += self.adr.named_parameters(f"{prefix}.adr")
        return out


def _init_one(rng: Rng, out: np.ndarray) -> None:
    """Init rule of the attention temperature: 1.0, drawing nothing."""
    out[...] = 1.0


def attention(q: Tensor, k: Tensor, v: Tensor, tau: Tensor) -> Tensor:
    """Transposed attention of [d, H, W] Q/K/V: V's channel rows mixed by
    ``softmax(tau * qh @ kh.T)``, qh and kh being Q's and K's rows over their
    guarded L2 norms ``sqrt(sum(row ** 2) + 1e-24)``.

    One taped operation.  Its forward runs the NumPy operations of the chain
    reshape -> square -> sum_last -> add -> sqrt -> div (Q, then K) ->
    transpose2d -> matmul -> mul -> softmax -> matmul -> reshape in the same
    order, and its VJP evaluates each of their VJPs in reverse tape order
    (K's normalization before Q's, each division's numerator term before
    its square's), so the mix and every gradient equal that chain's
    (``composed_attention`` in ``tests/composed.py``) bit for bit.
    """
    d, hh, ww = q.data.shape
    qm = q.data.reshape(d, hh * ww)
    km = k.data.reshape(d, hh * ww)
    vm = v.data.reshape(d, hh * ww)
    q_norm = np.sqrt(np.sum(qm * qm, axis=-1, keepdims=True) + 1e-24)
    qh = qm / q_norm
    k_norm = np.sqrt(np.sum(km * km, axis=-1, keepdims=True) + 1e-24)
    kh = km / k_norm
    kh_t = kh.T
    z = qh @ kh_t
    a = T._softmax_forward(z * tau.data)
    out = T._wrap((a @ vm).reshape(d, hh, ww))

    def vjp(g, needs):
        g_o = g.reshape(d, hh * ww)
        g_v = (a.T @ g_o).reshape(v.data.shape) if needs[2] else None
        g_zt = T._softmax_vjp(g_o @ vm.T, a)
        g_tau = T._unbroadcast(g_zt * z, tau.data.shape) if needs[3] else None
        g_z = g_zt * tau.data
        g_k = g_q = None
        if needs[1]:
            g_k = _normalized_rows_vjp((qh.T @ g_z).T, km, k_norm).reshape(k.data.shape)
        if needs[0]:
            g_q = _normalized_rows_vjp(g_z @ kh_t.T, qm, q_norm).reshape(q.data.shape)
        return (g_q, g_k, g_v, g_tau)

    return T._record(out, (q, k, v, tau), vjp)


def _normalized_rows_vjp(g: np.ndarray, x: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Gradient of ``x`` given ``g`` at ``x / norm``, with norm = sqrt(sum_last(x * x) + 1e-24)."""
    g_x = g / norm
    g_norm = T._unbroadcast(-g * x / (norm * norm), norm.shape)
    g_sum = g_norm * 0.5 / norm
    return g_x + 2.0 * x * np.broadcast_to(g_sum, x.shape).copy()


class EncoderStage:
    def __init__(self, rng: Rng | T.Planner, c_in: int, c_out: int):
        self.conv = Conv2dLayer(rng, c_in, c_out, 3)

    def forward(self, x: Tensor, observe: Observer | None = None, path: str = "") -> Tensor:
        return T.downsample2x_mean(T.relu(self.conv.forward(x)))

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return self.conv.named_parameters(f"{prefix}.conv")


class DecoderStage:
    """Upsampling, then a 3x3 (or dynamic) convolution and ReLU."""

    def __init__(self, rng: Rng | T.Planner, c_in: int, c_out: int, dyn_candidates: int):
        if dyn_candidates:
            self.conv = DynamicConv(rng, c_in, c_out, dyn_candidates)
        else:
            self.conv = Conv2dLayer(rng, c_in, c_out, 3)

    def forward(self, x: Tensor, observe: Observer | None = None, path: str = "") -> Tensor:
        return T.relu(self.conv.forward(T.upsample2x(x)))

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        sub = "dynconv" if isinstance(self.conv, DynamicConv) else "conv"
        return self.conv.named_parameters(f"{prefix}.{sub}")


# float64 values one NumPy array can hold: its byte count must fit in an intp
_MAX_VALUES = np.iinfo(np.intp).max // 8
# the recipe argument that sizes a parameter, by the first part of its name
# found here; widths otherwise.  The first layer of a block's weight head
# comes first because widths alone size it.
_SIZE_KEYS = (
    ("weight_mlp.w1", "widths"), ("weight_mlp.b1", "widths"),
    ("att_mlp.w1", "widths"), ("att_mlp.b1", "widths"),
    (".adr.", "adr_dims"), (".dynconv.", "dyn_candidates"),
)


def plan_size(plan: list, stop: int = _MAX_VALUES) -> int:
    """The float64 values a plan's parameters hold, summed in plan order.

    The sum stops once it passes ``stop``, so a result above ``stop`` may
    not be the whole plan's.  A sum past what one NumPy array can hold
    raises :class:`ConfigurationError` naming the recipe argument that sizes
    the parameter that passed it: ``adr_dims`` inside a reallocation block,
    ``dyn_candidates`` inside a dynamic conv, ``widths`` elsewhere and for
    the first layer of those blocks' weight heads (a generator's
    ``weight_mlp`` and a dynamic conv's ``att_mlp``), whose shape no other
    argument changes.
    """
    total = 0
    for name, shape, _ in plan:
        total += math.prod(shape)
        if total > _MAX_VALUES:
            key = next((key for part, key in _SIZE_KEYS if part in name), "widths")
            raise ConfigurationError(
                f"{key} give {name} the shape {shape}, which brings the parameters to "
                f"{total} float64 values, more than NumPy can index"
            )
        if total > stop:
            break
    return total


def _draw(rng: Rng, plan: list) -> np.ndarray:
    """A new arena holding each planned parameter's initial values, drawn in plan order."""
    arena = np.empty(plan_size(plan))
    for (_, _, init), view in zip(plan, T._carve(arena, [shape for _, shape, _ in plan])):
        init(rng, view)
    return arena


class ToyEnhancer:
    """3xHxW -> 3xHxW enhancer; H and W must be positive multiples of 4.

    ``adr_blocks`` switches reallocation per decoder block; with both off
    (and ``dyn_candidates`` 0) the network holds no dynamic parameters.
    A recipe it refuses raises ConfigurationError naming the argument.

    Every parameter's ``data`` is a view into ``arena``, one contiguous
    float64 buffer laid out in ``named_parameters`` order, which is also the
    order of a checkpoint's blob.  Write parameters in place; a copy of the
    model is built over a copy of the arena (see :meth:`rebuild`).

    Construction takes two passes.  The first builds the stages on a
    :class:`~redlab.tensor.Planner` and lists every parameter as (name, shape,
    init rule) in ``named_parameters`` order: Python ints, nothing
    allocated.  The second allocates the arena once, after
    :func:`plan_size` has refused a plan NumPy cannot index, and draws each
    parameter into its view from ``rng``, in plan order, so a seed pins
    every initial weight.  In place of ``rng``, a function that takes the
    plan and returns the filled arena gives every value, and then only that
    function draws: :func:`~redlab.checkpoint.load_model` reads the arena
    from a blob, and :meth:`rebuild` fills it for copies and reset probes.
    """

    def __init__(
        self,
        rng: Rng | Callable[[list], np.ndarray],
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
        # D_m, D_e, D_k, each at least its ADR_AXES minimum, as in RunConfig
        self.adr_dims = tuple(
            check_int(v, low, "adr_dims") for v, low in zip(adr_dims, ADR_AXES.values())
        )
        self.dyn_candidates = check_int(dyn_candidates, 0, "dyn_candidates")
        w1, w2 = self.widths
        d_m, _, d_k = self.adr_dims
        if any(self.adr_blocks) and d_k % 2 == 0:
            raise ConfigurationError(f"kernel size must be odd, got adr_dims D_k = {d_k}")
        if any(self.adr_blocks) and d_m >= 3 * w1:
            # both decoder blocks attend over w1 channels, so Q/K/V concatenate to 3 * w1
            raise ConfigurationError(
                f"adr_dims D_m must be below 3 * widths[0] = {3 * w1}, got {d_m}"
            )
        planner = T.Planner()
        adr1, adr2 = (self.adr_dims if on else None for on in self.adr_blocks)
        # (path, stage) for every stage, in forward order: the one place these
        # parameter paths are spelled out, and the one place the stages live.
        # Each stage maps its input alone (plus the optional observer) to the
        # next stage's input; each decoder block's attention is a stage of its
        # own, after the block's convolution.
        self.stages = (
            ("encoder.stage1", EncoderStage(planner, 3, w1)),
            ("encoder.stage2", EncoderStage(planner, w1, w2)),
            ("latent.attn", ChannelAttentionBlock(planner, w2, None)),
            ("decoder.block1", DecoderStage(planner, w2, w1, self.dyn_candidates)),
            ("decoder.block1.attn", ChannelAttentionBlock(planner, w1, adr1)),
            ("decoder.block2", DecoderStage(planner, w1, w1, self.dyn_candidates)),
            ("decoder.block2.attn", ChannelAttentionBlock(planner, w1, adr2)),
            ("head", Conv2dLayer(planner, w1, 3, 3)),
        )
        self.frozen = False
        named = self.named_parameters()
        plan = [(name, *planner.rules[id(t)]) for name, t in named]
        self.arena = rng(plan) if callable(rng) else _draw(rng, plan)
        for (_, t), view in zip(named, T._carve(self.arena, [shape for _, shape, _ in plan])):
            t.data = view

    def rebuild(self, fill: Callable[[list], np.ndarray]) -> ToyEnhancer:
        """A model of this one's recipe whose arena is ``fill(plan)``, frozen
        from its own values if this one is frozen."""
        twin = ToyEnhancer(fill, **{key: getattr(self, key) for key in _RECIPE_KEYS})
        if self.frozen:
            twin.freeze()
        return twin

    def __deepcopy__(self, memo):
        return self.rebuild(lambda plan: self.arena.copy())

    def forward(self, x: Tensor, observe: Observer | None = None) -> Tensor:
        """The enhanced image; ``observe``, if given, watches the forward (see :meth:`resume`)."""
        if x.data.ndim != 3 or x.data.shape[0] != 3:
            raise DimensionError(f"expected [3, H, W] input, got {x.data.shape}")
        h, w = x.data.shape[1], x.data.shape[2]
        if h < 4 or w < 4 or h % 4 or w % 4:
            raise DimensionError(f"H and W must be positive multiples of 4, got {h}x{w}")
        return self._run(x, 0, observe)

    def resume(self, seen: dict, point: str, observe: Observer | None = None) -> Tensor:
        """The forward from resume point ``point`` on, given the values a
        forward showed its observer in ``seen``.

        ``observe(key, tensor)``, if given, is called in forward order with
        each stage's path and input (a decoder block's ``<path>.attn`` being
        the input of its attention stage); inside each attention stage that
        carries reallocation with ``<path>.adr`` (a key of
        :meth:`reallocation_blocks`) and the Q/K/V stack its generators
        condition on; and inside each attention stage with ``<path>.out`` and
        the attention core's output.  Every key but the ``.adr`` ones is a
        resume point (see :meth:`resume_points`).  ``resume(seen, point)``
        equals that forward's output as long as no parameter a forward reads
        before ``point`` changed in between; it reads ``seen[point]``, and an
        ``.out`` point also reads its stage's input at the stage path.
        Anything else raises :class:`ContractError`.
        """
        for k, (path, stage) in enumerate(self.stages):
            if point == path:
                return self._run(seen[point], k, observe)
            if point == f"{path}.out" and isinstance(stage, ChannelAttentionBlock):
                return self._run(stage.resume(seen, point, observe, path), k + 1, observe)
        raise ContractError(f"resume point must be one of {list(self.resume_points())}, "
                            f"got {point!r}")

    def _run(self, y: Tensor, start: int, observe: Observer | None) -> Tensor:
        """The forward from ``stages[start]`` on, given that stage's input ``y``."""
        for path, stage in self.stages[start:]:
            if observe is not None:
                observe(path, y)
            y = stage.forward(y, observe, path)
        return T.clamp01(y)

    def resume_points(self) -> dict:
        """Every point :meth:`resume` starts at, in forward order, mapped to
        the names of the parameters a forward first reads after it.

        The points are the stage paths and, inside each attention stage,
        ``<path>.out``.  Each is a prefix of the parameters it owns: a
        parameter belongs to the last point its name extends, so an
        attention stage's Q/K/V projections, temperature and reallocation
        block belong to its path, and its out projection to ``.out``.
        """
        points = {}
        for path, stage in self.stages:
            points[path] = []
            if isinstance(stage, ChannelAttentionBlock):
                points[f"{path}.out"] = []
        for name, _ in self.named_parameters():
            owner = [point for point in points if name.startswith(point + ".")][-1]
            points[owner].append(name)
        return points

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for path, stage in self.stages:
            out += stage.named_parameters(path)
        return out

    def reallocation_blocks(self) -> dict:
        """Attached :class:`AdrBlock`s keyed by parameter path, in forward order.

        Only the decoder blocks' attention can carry one; the latent block never does.
        """
        return {
            f"{path}.adr": stage.adr
            for path, stage in self.stages
            if isinstance(stage, ChannelAttentionBlock) and stage.adr is not None
        }

    def freeze(self) -> None:
        """Cache the generators' normalized embeddings for inference.

        Call it again after writing a frozen model's parameters to re-derive
        the caches.
        """
        for adr in self.reallocation_blocks().values():
            adr.freeze()
        self.frozen = True


@dataclass
class TrainState:
    """Adam's moments, flat and laid out like the model's arena, and each step's loss."""

    m: np.ndarray
    v: np.ndarray
    loss_history: list = field(default_factory=list)


def training_loss(model, pair) -> Tensor:
    """The loss :func:`train` minimises: the mean absolute error of the
    forward of ``pair.low`` against ``pair.clean``."""
    return T.mean_all(T.absolute(T.sub(model.forward(pair.low), pair.clean)))


def train(model, pairs, steps: int, seed: int, lr: float = 1e-3) -> TrainState:
    """Adam on batch-1 mean-absolute error, deterministic per seed.

    Each pair holds a ``.low`` input and a ``.clean`` reference tensor, as
    :class:`~redlab.datagen.ScenePair` does.  The sample order reshuffles
    every epoch from a child stream of ``seed``.  Raises on a frozen model,
    and :class:`DimensionError` naming the first pair whose low and
    reference shapes differ.  A non-finite loss, or a forward or loss that
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
    for i, pair in enumerate(pairs):
        if pair.low.data.shape != pair.clean.data.shape:
            raise DimensionError(
                f"pair {i}: low {pair.low.data.shape} and reference "
                f"{pair.clean.data.shape} shapes differ"
            )
    named = model.named_parameters()
    arena = model.arena
    for name, p in named:
        if p.data.base is not arena:
            raise ContractError(f"parameter {name} is not a view of the model's arena")
    # Flat Adam buffers laid out like the arena: the moments, the gradient
    # (which holds the step once the second moment has read it) and one temporary.
    m, v = np.zeros_like(arena), np.zeros_like(arena)
    g, a = np.empty_like(arena), np.empty_like(arena)
    # backward writes each parameter's gradient straight into its view of g
    grad_views = list(zip((p for _, p in named), T._carve(g, [p.data.shape for _, p in named])))
    state = TrainState(m=m, v=v)
    rng = Rng(child_seed(seed, 0))
    order: list = []
    for step in range(steps):
        if not order:
            order = list(range(len(pairs)))
            rng.shuffle(order)
        pair = pairs[order.pop(0)]
        tape = T.Tape()
        with tape, np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                loss = training_loss(model, pair)
            except (ContractError, FloatingPointError) as exc:
                # Only a non-finite value fails here: softmax refuses one, NumPy
                # raises on overflow.  From a finite input, the parameters
                # training produced made it: the run diverged.
                if not np.isfinite(pair.low.data).all():
                    raise ContractError(f"non-finite input at step {step}: {exc}") from None
                raise DivergenceError(step, f"non-finite forward at step {step}: {exc}") from None
        value = loss.item()
        if not np.isfinite(value):
            raise DivergenceError(step)
        T.backward(tape, loss, grad_views)
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
        np.divide(m, 1.0 - _ADAM_B1 ** t, out=g)
        np.multiply(g, lr, out=g)
        np.divide(g, a, out=g)
        np.subtract(arena, g, out=arena)
        state.loss_history.append(value)
    return state


def evaluate(model, pairs) -> float:
    """Mean PSNR (dB, I_max = 1) of each pair's ``.low`` forward against its ``.clean``."""
    if not pairs:
        raise ContractError("evaluate needs at least one pair")
    total = 0.0
    for pair in pairs:
        total += psnr(model.forward(pair.low), pair.clean, 1.0)
    return total / len(pairs)
