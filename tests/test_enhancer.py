"""U-shaped enhancer: attention oracle, reallocation identity embedding,
training behavior, the parameter arena, evaluation, and shape contracts."""

import copy
import hashlib

import numpy as np
import pytest

from redlab import tensor as T
from redlab.checkpoint import load_model, save_model
from redlab.datagen import make_corpus
from redlab.enhancer import (
    ChannelAttentionBlock,
    ToyEnhancer,
    collect_adr_inputs,
    evaluate,
    train,
)
from redlab.errors import ConfigurationError, ContractError, DimensionError, DivergenceError
from redlab.redundancy import LayerSelector, psnr, reset_layer
from redlab.rng import Rng, child_seed
from redlab.tensor import Tensor


def fresh_input(seed, h=8, w=8):
    return Tensor(Rng(seed).fill_uniform((3, h, w), 0.0, 1.0))


def zero_adr_decoders(model):
    for stage in (model.dec1, model.dec2):
        adr = stage.attn.adr
        if adr is not None:
            for gen in (adr.gen1, adr.gen2):
                gen.decode_mlp.w2.data[:] = 0.0
                gen.decode_mlp.b2.data[:] = 0.0


class TestAttentionBlock:
    def test_matches_hand_scripted_attention(self):
        """A 2-channel 2x2 block agrees with an explicit matrix script."""
        block = ChannelAttentionBlock(Rng(0), 2)
        rng = Rng(1)
        f = rng.fill_uniform((2, 2, 2), 0.1, 0.9)
        out = block.forward(Tensor(f)).data

        def proj(layer):
            w = layer.kernel.data.reshape(2, 2)
            b = layer.bias.data
            return np.einsum("oc,chw->ohw", w, f) + b[:, None, None]

        q = proj(block.q_conv).reshape(2, 4)
        k = proj(block.k_conv).reshape(2, 4)
        v = proj(block.v_conv).reshape(2, 4)
        qh = q / np.sqrt((q * q).sum(axis=1, keepdims=True) + 1e-24)
        kh = k / np.sqrt((k * k).sum(axis=1, keepdims=True) + 1e-24)
        logits = (qh @ kh.T) * block.tau.data
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        mixed = (a @ v).reshape(2, 2, 2)
        w_o = block.out_conv.kernel.data.reshape(2, 2)
        want = np.einsum("oc,chw->ohw", w_o, mixed)
        want += block.out_conv.bias.data[:, None, None] + f
        assert np.max(np.abs(out - want)) < 1e-10

    def test_zero_output_conv_is_identity(self):
        """Residual guarantee: zeroed output projection passes f through."""
        block = ChannelAttentionBlock(Rng(2), 4)
        block.out_conv.kernel.data[:] = 0.0
        block.out_conv.bias.data[:] = 0.0
        f = Rng(3).fill_uniform((4, 4, 4), 0.1, 0.9)
        out = block.forward(Tensor(f))
        assert np.array_equal(out.data, f)

    def test_rows_sum_to_one_at_every_block(self):
        """Every captured attention matrix has unit row sums."""
        model = ToyEnhancer(Rng(4), adr_blocks=(True, True))
        capture = {}
        model.forward(fresh_input(5), capture)
        paths = sorted(capture["attention"])
        assert paths == [
            "decoder.block1.attn",
            "decoder.block2.attn",
            "latent.attn",
        ]
        for a in capture["attention"].values():
            assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-10
            assert a.min() >= 0.0

    def test_channel_mismatch_rejected(self):
        block = ChannelAttentionBlock(Rng(0), 4)
        with pytest.raises(DimensionError):
            block.forward(Tensor(np.zeros((3, 4, 4))))

    def test_all_zero_features_stay_finite(self):
        """The normalization guard keeps an all-zero map out of 0/0."""
        block = ChannelAttentionBlock(Rng(6), 4)
        out = block.forward(Tensor(np.zeros((4, 4, 4))))
        assert np.all(np.isfinite(out.data))


class TestAdrIdentityEmbedding:
    def test_zeroed_decoders_match_plain_variant_bitwise(self):
        """Zero-decoded reallocation embeds the plain network exactly."""
        withadr = ToyEnhancer(Rng(7), adr_blocks=(True, True))
        plain = ToyEnhancer(Rng(8), adr_blocks=(False, False))
        zero_adr_decoders(withadr)
        shared = dict(plain.named_parameters())
        for name, t in withadr.named_parameters():
            if ".adr." not in name:
                shared[name].data[...] = t.data
        x = fresh_input(9)
        assert np.array_equal(withadr.forward(x).data, plain.forward(x).data)


# (case, the argument at fault, constructor keywords)
BAD_RECIPES = [
    ("zero_width", "widths", {"widths": (0, 16)}),
    ("fractional_width", "widths", {"widths": (8.5, 16)}),
    ("one_width", "widths", {"widths": (8,)}),
    ("text_adr_block", "adr_blocks", {"adr_blocks": ("no", False)}),
    ("two_adr_dims", "adr_dims", {"adr_dims": (4, 16)}),
    ("negative_dyn_candidates", "dyn_candidates", {"dyn_candidates": -1}),
]


class TestRecipe:
    @pytest.mark.parametrize("field,kw", [case[1:] for case in BAD_RECIPES],
                             ids=[case[0] for case in BAD_RECIPES])
    def test_bad_recipe_names_the_argument(self, field, kw):
        """A malformed recipe is a ConfigurationError, not a wrong model or a raw error."""
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            ToyEnhancer(Rng(0), **kw)


class TestForward:
    def test_output_shape_matches_input(self):
        model = ToyEnhancer(Rng(10))
        for h, w in [(8, 8), (8, 12), (16, 8)]:
            out = model.forward(fresh_input(11, h, w))
            assert out.data.shape == (3, h, w)

    def test_output_in_unit_interval(self):
        model = ToyEnhancer(Rng(12), adr_blocks=(True, False))
        out = model.forward(fresh_input(13)).data
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_all_zero_parameters_give_clamped_head_bias(self):
        """With every weight zero the output is the clamped head bias."""
        model = ToyEnhancer(Rng(14))
        for _, t in model.named_parameters():
            t.data[...] = 0.0
        model.head.bias.data[:] = [0.3, -0.2, 1.7]
        out = model.forward(fresh_input(15)).data
        want = np.broadcast_to(
            np.array([0.3, 0.0, 1.0])[:, None, None], (3, 8, 8)
        )
        assert np.max(np.abs(out - want)) < 1e-15

    def test_fixed_seed_forward_is_bit_identical(self):
        """Same construction seed, same input: bit-equal outputs."""
        x = fresh_input(16)
        outs = []
        for _ in range(2):
            model = ToyEnhancer(Rng(17), adr_blocks=(True, True))
            outs.append(model.forward(x).data)
        assert np.array_equal(outs[0], outs[1])

    def test_bad_shapes_rejected(self):
        model = ToyEnhancer(Rng(18))
        with pytest.raises(DimensionError):
            model.forward(Tensor(np.zeros((1, 8, 8))))
        with pytest.raises(DimensionError):
            model.forward(Tensor(np.zeros((3, 6, 8))))
        with pytest.raises(DimensionError):
            model.forward(Tensor(np.zeros((3, 8, 8, 1))))

    def test_plain_variant_has_no_dynamic_parameters(self):
        """Both mechanisms off: no reallocation or candidate-bank params."""
        model = ToyEnhancer(Rng(19))
        names = [n for n, _ in model.named_parameters()]
        assert not any(".adr." in n or ".dynconv." in n for n in names)

    def test_dynconv_variant_swaps_decoder_convs(self):
        model = ToyEnhancer(Rng(20), dyn_candidates=4)
        names = [n for n, _ in model.named_parameters()]
        assert any(n.startswith("decoder.block1.dynconv.") for n in names)
        assert any(n.startswith("decoder.block2.dynconv.") for n in names)
        assert not any(".block1.conv." in n or ".block2.conv." in n for n in names)
        out = model.forward(fresh_input(21))
        assert out.data.shape == (3, 8, 8)

    def test_adr_conditioning_taps_have_expected_shapes(self):
        """Captured Q/K/V stacks sit at each decoder block's resolution."""
        model = ToyEnhancer(Rng(22), adr_blocks=(True, True))
        taps = collect_adr_inputs(model, fresh_input(23, 16, 16))
        assert sorted(taps) == [
            "decoder.block1.attn.adr",
            "decoder.block2.attn.adr",
        ]
        assert taps["decoder.block1.attn.adr"].data.shape == (24, 8, 8)
        assert taps["decoder.block2.attn.adr"].data.shape == (24, 16, 16)


class TestStages:
    def test_table_lists_every_stage_in_forward_order(self):
        model = ToyEnhancer(Rng(24), adr_blocks=(True, True))
        assert [path for path, _ in model.stages] == [
            "encoder.stage1",
            "encoder.stage2",
            "latent.attn",
            "decoder.block1",
            "decoder.block2",
            "head",
        ]

    def test_resume_from_every_stage_equals_forward(self):
        """Stage k resumed on the input a forward recorded for it gives that output."""
        model = ToyEnhancer(Rng(25), adr_blocks=(True, True))
        model.freeze()
        x = fresh_input(26, 16, 16)
        recorded = []
        want = model.forward(x, stage_inputs=recorded).data
        assert len(recorded) == len(model.stages)
        assert recorded[0] is x
        for k in range(len(model.stages)):
            assert np.array_equal(model.resume(recorded[k], k).data, want)

    def test_training_step_tape_length(self):
        """The benchmark's 32x32 ADR model records 263 tape entries per step."""
        model = ToyEnhancer(Rng(27), widths=(8, 16), adr_blocks=(True, True),
                            adr_dims=(4, 16, 3))
        pair = make_corpus(28, 1, 32, 32)[0]
        tape = T.Tape()
        with tape:
            T.mean_all(T.absolute(T.sub(model.forward(pair.low), pair.clean)))
        assert len(tape) == 263


class TestTraining:
    def test_zero_learning_rate_changes_nothing(self):
        """lr = 0 leaves every parameter bit-identical."""
        model = ToyEnhancer(Rng(24))
        pairs = make_corpus(25, 2, 8, 8)
        before = [t.data.copy() for _, t in model.named_parameters()]
        train(model, pairs, steps=5, seed=26, lr=0.0)
        after = [t.data for _, t in model.named_parameters()]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_overfits_a_single_pair(self):
        """200 steps on one pair at least halve the loss."""
        model = ToyEnhancer(Rng(27))
        pairs = make_corpus(28, 1, 8, 8)
        state = train(model, pairs, steps=200, seed=29)
        assert state.loss_history[-1] < 0.5 * state.loss_history[0]

    def test_identical_seeds_identical_histories(self):
        """Training is bit-reproducible end to end."""
        histories = []
        for _ in range(2):
            model = ToyEnhancer(Rng(30), adr_blocks=(True, True))
            pairs = make_corpus(31, 4, 8, 8)
            state = train(model, pairs, steps=40, seed=32)
            histories.append(state.loss_history)
        assert histories[0] == histories[1]

    def test_different_shuffle_seeds_diverge(self):
        histories = []
        for seed in (33, 34):
            model = ToyEnhancer(Rng(35))
            pairs = make_corpus(36, 4, 8, 8)
            state = train(model, pairs, steps=10, seed=seed)
            histories.append(state.loss_history)
        assert histories[0] != histories[1]

    def test_moment_buffers_match_parameter_shapes(self):
        model = ToyEnhancer(Rng(37), adr_blocks=(True, False))
        pairs = make_corpus(38, 2, 8, 8)
        state = train(model, pairs, steps=2, seed=39)
        for name, t in state.params:
            assert state.m[name].shape == t.data.shape
            assert state.v[name].shape == t.data.shape
        assert state.step == 2

    def test_non_finite_loss_raises_with_step(self):
        """A poisoned parameter surfaces as a divergence at step 0."""
        model = ToyEnhancer(Rng(40))
        model.head.bias.data[0] = np.nan
        pairs = make_corpus(41, 1, 8, 8)
        with pytest.raises(DivergenceError) as info:
            train(model, pairs, steps=3, seed=42)
        assert info.value.step == 0

    def test_overflowing_forward_raises_with_step(self):
        """lr 1e300 leaves finite parameters whose next forward overflows."""
        model = ToyEnhancer(Rng(40), adr_blocks=(True, True))
        pairs = make_corpus(41, 1, 8, 8)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            train(model, pairs, steps=3, seed=42, lr=1e300)
        assert info.value.step == 1
        assert np.isfinite(model.arena).all()

    def test_overflowing_loss_raises_with_step(self):
        """A huge finite reference overflows the loss's sum: a divergence at step 0."""
        model = ToyEnhancer(Rng(40))
        low, ref = fresh_input(46), Tensor(np.full((3, 8, 8), 1.7e308))
        with pytest.raises(DivergenceError) as info:
            train(model, [(low, ref)], steps=1, seed=48)
        assert info.value.step == 0

    def test_non_finite_input_is_not_a_divergence(self):
        """A forward that fails on a NaN input pixel stays a contract error."""
        model = ToyEnhancer(Rng(40))
        low, ref = fresh_input(46), fresh_input(47)
        low.data[0, 0, 0] = np.nan
        with pytest.raises(ContractError) as info:
            train(model, [(low, ref)], steps=1, seed=48)
        assert not isinstance(info.value, DivergenceError)

    def test_infinite_input_is_not_a_divergence(self):
        """An Inf pixel trips NumPy's invalid-value check before softmax sees it."""
        model = ToyEnhancer(Rng(40))
        low, ref = fresh_input(46), fresh_input(47)
        low.data[0, 0, 0] = np.inf
        with pytest.raises(ContractError, match="non-finite input at step 0") as info:
            train(model, [(low, ref)], steps=1, seed=48)
        assert not isinstance(info.value, DivergenceError)

    def test_train_inside_an_active_tape_is_not_a_divergence(self):
        """Only a forward's non-finite value is read as a divergence."""
        model = ToyEnhancer(Rng(40))
        pairs = make_corpus(41, 1, 8, 8)
        with T.Tape(), pytest.raises(ContractError, match="do not nest") as info:
            train(model, pairs, steps=1, seed=42)
        assert not isinstance(info.value, DivergenceError)

    def test_kernel_wider_than_the_feature_map_trains(self):
        """D_k = 11 at 8x8 puts whole ADR windows on the 4x4 block's padding."""
        model = ToyEnhancer(Rng(49), adr_blocks=(True, True), adr_dims=(4, 16, 11))
        state = train(model, make_corpus(50, 1, 8, 8), steps=2, seed=51)
        assert np.isfinite(state.loss_history).all()

    def test_contract_violations(self):
        model = ToyEnhancer(Rng(43))
        pairs = make_corpus(44, 1, 8, 8)
        with pytest.raises(ContractError):
            train(model, pairs, steps=0, seed=0)
        with pytest.raises(ContractError):
            train(model, [], steps=1, seed=0)
        model.freeze()
        with pytest.raises(ContractError):
            train(model, pairs, steps=1, seed=0)

    def test_plain_tuple_pairs_accepted(self):
        """(low, ref) tuples work in place of scene-pair objects."""
        model = ToyEnhancer(Rng(45))
        low, ref = fresh_input(46), fresh_input(47)
        state = train(model, [(low, ref)], steps=3, seed=48)
        assert len(state.loss_history) == 3


def assert_on_arena(model):
    """Every parameter is a view of model.arena, laid out in named order."""
    arena = model.arena
    assert arena.dtype == np.float64 and arena.ndim == 1 and arena.flags.c_contiguous
    start = arena.__array_interface__["data"][0]
    offset = 0
    for name, t in model.named_parameters():
        assert t.data.base is arena, name
        assert t.data.__array_interface__["data"][0] == start + 8 * offset, name
        offset += t.data.size
    assert offset == arena.size


def reference_adam(model, pairs, steps, seed, lr=1e-3):
    """The per-tensor Adam loop that train's flat update must equal bit for bit."""
    named = model.named_parameters()
    m = {name: np.zeros_like(t.data) for name, t in named}
    v = {name: np.zeros_like(t.data) for name, t in named}
    rng = Rng(child_seed(seed, 0))
    order, history = [], []
    for step in range(steps):
        if not order:
            order = list(range(len(pairs)))
            rng.shuffle(order)
        pair = pairs[order.pop(0)]
        for _, p in named:
            p.grad = None
        tape = T.Tape()
        with tape:
            loss = T.mean_all(T.absolute(T.sub(model.forward(pair.low), pair.clean)))
        history.append(loss.item())
        T.backward(tape, loss)
        t = step + 1
        for name, p in named:
            g = p.grad
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
            v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
            m_hat = m[name] / (1.0 - 0.9 ** t)
            v_hat = v[name] / (1.0 - 0.999 ** t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return history, m, v


ARENA_MODELS = {
    "plain": {},
    "adr": {"adr_blocks": (True, True)},
    "adr_dynconv": {"adr_blocks": (True, False), "dyn_candidates": 3},
}


class TestArena:
    @pytest.mark.parametrize("kw", ARENA_MODELS.values(), ids=ARENA_MODELS.keys())
    def test_construction_binds_every_parameter(self, kw):
        assert_on_arena(ToyEnhancer(Rng(60), **kw))

    def test_seeded_values_unchanged(self):
        """The arena of a seeded ADR + dynconv model holds the values the
        per-tensor construction drew before the arena existed."""
        model = ToyEnhancer(Rng(0), adr_blocks=(True, True), dyn_candidates=3)
        digest = hashlib.sha256(model.arena.astype("<f8").tobytes()).hexdigest()
        assert model.arena.size == 69336
        assert digest == "fb70c8339fe19a2266d6ca63e9e180c2638ba4a5eb2fd622e1a10bc7e10af123"

    @pytest.mark.parametrize("kw", ARENA_MODELS.values(), ids=ARENA_MODELS.keys())
    def test_deepcopy_copies_the_arena_once(self, kw):
        model = ToyEnhancer(Rng(61), **kw)
        train(model, make_corpus(62, 1, 8, 8), steps=2, seed=63)
        model.freeze()
        twin = copy.deepcopy(model)
        assert_on_arena(twin)
        assert not np.shares_memory(twin.arena, model.arena)
        assert twin.arena.tobytes() == model.arena.tobytes()
        for (name, a), (_, b) in zip(model.named_parameters(), twin.named_parameters()):
            assert a is not b and a.node_id != b.node_id, name
            assert np.array_equal(a.grad, b.grad) and not np.shares_memory(a.grad, b.grad)
        x = fresh_input(64)
        assert np.array_equal(twin.forward(x).data, model.forward(x).data)

    def test_training_a_copy_leaves_the_original(self):
        model = ToyEnhancer(Rng(65), adr_blocks=(True, True))
        before = model.arena.tobytes()
        twin = copy.deepcopy(model)
        train(twin, make_corpus(66, 2, 8, 8), steps=3, seed=67)
        assert_on_arena(twin)
        assert twin.arena.tobytes() != before
        assert model.arena.tobytes() == before
        assert_on_arena(model)

    @pytest.mark.parametrize("kw", ARENA_MODELS.values(), ids=ARENA_MODELS.keys())
    def test_flat_adam_equals_the_per_tensor_loop(self, kw):
        """Loss history, parameters and moments equal the per-tensor Adam."""
        pairs = make_corpus(68, 3, 8, 8)
        model, ref = ToyEnhancer(Rng(69), **kw), ToyEnhancer(Rng(69), **kw)
        state = train(model, pairs, steps=12, seed=70)
        history, m, v = reference_adam(ref, pairs, steps=12, seed=70)
        assert state.loss_history == history
        assert model.arena.tobytes() == ref.arena.tobytes()
        assert_on_arena(model)
        for name, _ in model.named_parameters():
            assert state.m[name].tobytes() == m[name].tobytes(), name
            assert state.v[name].tobytes() == v[name].tobytes(), name
        for moments in (state.m, state.v):
            assert len({id(view.base) for view in moments.values()}) == 1

    def test_parameter_off_the_arena_rejected(self):
        """A rebound parameter would be skipped by the flat update, so train refuses."""
        model = ToyEnhancer(Rng(71))
        model.head.bias.data = model.head.bias.data.copy()
        with pytest.raises(ContractError, match="head.bias"):
            train(model, make_corpus(72, 1, 8, 8), steps=1, seed=73)

    def test_freeze_load_and_reset_keep_the_views(self, tmp_path):
        model = ToyEnhancer(Rng(74), adr_blocks=(True, True), dyn_candidates=2)
        model.freeze()
        assert_on_arena(model)
        save_model(model, str(tmp_path / "m"))
        back = load_model(str(tmp_path / "m"))
        assert_on_arena(back)
        assert back.arena.tobytes() == model.arena.tobytes()
        before = model.arena.tobytes()
        probe = reset_layer(model, LayerSelector("decoder.block2.attn.adr", "dynamic"), Rng(75))
        assert_on_arena(probe)
        assert probe.arena.tobytes() != before
        assert model.arena.tobytes() == before


class TestGradientIntegrity:
    def test_full_training_loss_gradcheck(self):
        """Sampled coordinates of the training loss pass finite differences."""
        corpus = make_corpus(5, 4, 8, 8)
        pair = corpus[0]
        model = ToyEnhancer(Rng(3), adr_blocks=(True, True))
        train(model, corpus, steps=100, seed=2)
        params = [t for _, t in model.named_parameters()]

        def f(_):
            return T.mean_all(T.absolute(T.sub(model.forward(pair.low), pair.clean)))

        err = T.finite_diff_check(f, params, eps=1e-4, sample=60, rng=Rng(0))
        assert err < 1e-4


class TestEvaluate:
    def test_exact_reconstruction_hits_the_cap(self):
        """Pairs built from the model's own outputs score the 100 dB cap."""
        model = ToyEnhancer(Rng(49))
        low = fresh_input(50)
        pairs = [(low, model.forward(low))]
        assert evaluate(model, pairs) == 100.0

    def test_single_pair_equals_direct_psnr(self):
        model = ToyEnhancer(Rng(51))
        pair = make_corpus(52, 1, 8, 8)[0]
        want = psnr(model.forward(pair.low), pair.clean, 1.0)
        assert evaluate(model, [pair]) == want

    def test_four_pairs_equal_index_ordered_mean(self):
        model = ToyEnhancer(Rng(53))
        pairs = make_corpus(54, 4, 8, 8)
        per = [psnr(model.forward(p.low), p.clean, 1.0) for p in pairs]
        assert evaluate(model, pairs) == sum(per) / 4.0

    def test_empty_pairs_rejected(self):
        with pytest.raises(ContractError):
            evaluate(ToyEnhancer(Rng(55)), [])
