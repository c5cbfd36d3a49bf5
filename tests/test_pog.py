"""Orthogonal kernel generation: reflector algebra, closed-form equivalence,
pipeline composition, and input-sensitivity scoring."""

import numpy as np
import pytest

from redlab import pog
from redlab import tensor as T
from redlab.adr import AdrBlock, reallocate
from redlab.errors import (
    ConfigurationError,
    ContractError,
    DegenerateEmbeddingError,
    DimensionError,
)
from redlab.rng import Rng
from redlab.tensor import Tensor
from composed import (
    build_basis,
    composed_generate,
    composed_weights,
    mlp2,
    mse,
    mul,
    normalize_embeddings,
    oracle_bytes,
    replay_bytes,
    specific_embedding,
    square,
    sum_all,
)
from tape_helpers import grads


def random_unit(rng, d):
    v = rng.fill_uniform((d,), -1.0, 1.0)
    return v / np.sqrt(v @ v)


def make_gen(seed, d_c=3, d_e=4, target=(2, 2, 1)):
    return pog.PogGenerator(Rng(seed), d_c, d_e, target)


class TestNormalizeEmbeddings:
    def test_hand_case(self):
        """(3,4) normalizes to (0.6, 0.8)."""
        out = normalize_embeddings(Tensor([[3.0, 4.0]]))
        assert np.max(np.abs(out.data - [[0.6, 0.8]])) < 1e-15

    def test_unit_row_unchanged(self):
        row = np.array([[0.0, 1.0, 0.0]])
        out = normalize_embeddings(Tensor(row))
        assert np.max(np.abs(out.data - row)) < 1e-15

    def test_random_rows_become_unit(self):
        """Every normalized row has norm 1 within 1e-12."""
        for seed in range(20):
            e = Rng(seed).fill_uniform((6, 8), -2.0, 2.0)
            out = normalize_embeddings(Tensor(e)).data
            norms = np.sqrt((out * out).sum(axis=1))
            assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_near_zero_row_rejected(self):
        e = np.ones((3, 4))
        e[1] = 1e-9
        with pytest.raises(DegenerateEmbeddingError):
            normalize_embeddings(Tensor(e))

    def test_differentiable(self):
        e = Tensor(Rng(3).fill_uniform((4, 5), 0.5, 1.5), requires_grad=True)
        tgt = Tensor(Rng(4).fill_uniform((4, 5), -1.0, 1.0))

        def f(params):
            return mse(normalize_embeddings(params[0]), tgt)

        assert T.finite_diff_check(f, [e]) < 1e-6


class TestBuildBasis:
    def test_axis_vector(self):
        """n = e1 reflects the first axis only."""
        b = build_basis(Tensor([1.0, 0.0])).data
        assert np.array_equal(b, [[-1.0, 0.0], [0.0, 1.0]])

    def test_diagonal_vector(self):
        b = build_basis(Tensor([2 ** -0.5, 2 ** -0.5])).data
        assert np.max(np.abs(b - [[0.0, -1.0], [-1.0, 0.0]])) < 1e-15

    def test_random_basis_properties(self):
        """Symmetric, orthogonal, involutory, determinant -1."""
        for seed in range(20):
            n = random_unit(Rng(seed), 16)
            b = build_basis(Tensor(n)).data
            eye = np.eye(16)
            assert np.max(np.abs(b - b.T)) < 1e-12
            assert np.max(np.abs(b.T @ b - eye)) < 1e-10
            assert np.max(np.abs(b @ b - eye)) < 1e-10
            assert abs(np.linalg.det(b) + 1.0) < 1e-8

    def test_non_unit_rejected(self):
        with pytest.raises(ContractError):
            build_basis(Tensor([1.0, 1.0]))


class TestComputeWeights:
    def test_zero_mlp_gives_uniform(self):
        """All-zero weight MLP produces the uniform simplex point."""
        gen = make_gen(0, d_c=3, d_e=5)
        for _, t in gen.weight_mlp.named(""):
            t.data[:] = 0.0
        x = Tensor(Rng(1).fill_uniform((3, 4, 4), 0.0, 1.0))
        w = pog.compute_weights(x, gen.weight_mlp).data
        assert np.max(np.abs(w - 0.2)) < 1e-12

    def test_simplex_membership(self):
        """Weights are nonnegative and sum to 1 within 1e-12."""
        for seed in range(10):
            gen = make_gen(seed, d_c=4, d_e=6)
            x = Tensor(Rng(seed + 100).fill_uniform((4, 5, 5), 0.0, 1.0))
            w = pog.compute_weights(x, gen.weight_mlp).data
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_distinct_inputs_distinct_weights(self):
        gen = make_gen(7, d_c=3, d_e=8)
        a = Tensor(Rng(8).fill_uniform((3, 4, 4), 0.0, 1.0))
        b = Tensor(Rng(9).fill_uniform((3, 4, 4), 0.0, 1.0))
        wa = pog.compute_weights(a, gen.weight_mlp).data
        wb = pog.compute_weights(b, gen.weight_mlp).data
        assert np.max(np.abs(wa - wb)) > 0.0

    def test_channel_mismatch_rejected(self):
        gen = make_gen(2, d_c=3)
        with pytest.raises(DimensionError):
            pog.compute_weights(Tensor(np.zeros((5, 4, 4))), gen.weight_mlp)


class TestSpecificEmbedding:
    def test_one_hot_selects_column(self):
        """One-hot W with n = e1 picks the first reflector column."""
        s = specific_embedding(Tensor([[1.0, 0.0]]), Tensor([1.0, 0.0]))
        assert np.array_equal(s.data, [[-1.0, 0.0]])

    def test_half_half_hand_case(self):
        s = specific_embedding(Tensor([[1.0, 0.0]]), Tensor([0.5, 0.5]))
        assert np.max(np.abs(s.data - [[-0.5, 0.5]])) < 1e-15

    def test_closed_form_equals_materialized(self):
        """Closed form equals the explicit weighted basis-column sum."""
        for seed in range(20):
            rng = Rng(seed)
            d_e = [2, 4, 16][seed % 3]
            rows = np.stack([random_unit(rng, d_e) for _ in range(5)])
            w = rng.fill_uniform((d_e,), 0.0, 1.0)
            w = w / w.sum()
            got = specific_embedding(Tensor(rows), Tensor(w)).data
            for i in range(5):
                b = np.eye(d_e) - 2.0 * np.outer(rows[i], rows[i])
                want = np.zeros(d_e)
                for j in range(d_e):
                    want += w[j] * b[:, j]
                assert np.max(np.abs(got[i] - want)) < 1e-12

    def test_norm_preservation(self):
        """Reflection preserves the weight vector's L2 norm, every row."""
        for seed in range(20):
            rng = Rng(1000 + seed)
            rows = np.stack([random_unit(rng, 8) for _ in range(12)])
            w = rng.fill_uniform((8,), 0.0, 1.0)
            w = w / w.sum()
            s = specific_embedding(Tensor(rows), Tensor(w)).data
            wn = np.sqrt(w @ w)
            for i in range(12):
                assert abs(np.sqrt(s[i] @ s[i]) - wn) < 1e-10


class TestGenerate:
    def test_zero_decode_gives_zero_kernel(self):
        gen = make_gen(5)
        gen.decode_mlp.w2.data[:] = 0.0
        gen.decode_mlp.b2.data[:] = 0.0
        x = Tensor(Rng(6).fill_uniform((3, 4, 4), 0.0, 1.0))
        assert np.all(gen.generate(x).data == 0.0)

    def test_output_shape(self):
        gen = pog.PogGenerator(Rng(1), 4, 8, (3, 5, 3))
        x = Tensor(Rng(2).fill_uniform((4, 6, 6), 0.0, 1.0))
        p = gen.generate(x)
        assert p.data.shape == (5, 3, 3, 3)
        assert p.data.size == 3 * 5 * 3 * 3

    def test_pipeline_matches_stepwise_composition(self):
        """generate equals hand-chaining its four published sub-steps."""
        gen = make_gen(11, d_c=3, d_e=4, target=(2, 2, 1))
        x = Tensor(Rng(12).fill_uniform((3, 4, 4), 0.0, 1.0))
        got = gen.generate(x).data

        n_p = normalize_embeddings(gen.embeddings)
        w = pog.compute_weights(x, gen.weight_mlp)
        s = specific_embedding(n_p, w)
        decoded = mlp2(s, gen.decode_mlp)
        want = decoded.data.reshape(2, 2, 1, 1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
    def test_kernel_decodes_the_materialized_basis_sums(self, frozen):
        """The package's kernel is the decode MLP of the rows sum_j w_j B_i[:, j],
        each B_i the materialized reflector of unit row i, to within 1e-12."""
        shapes = [(1, 2, 1), (2, 1, 3), (2, 2, 1), (1, 1, 3)]
        for seed in range(8):
            d_e, target, d_c = [2, 4, 8, 16][seed % 4], shapes[seed % 4], 3 + seed % 3
            gen = pog.PogGenerator(Rng(seed), d_c, d_e, target)
            if frozen:
                gen.freeze()
            x = Tensor(Rng(seed + 500).fill_uniform((d_c, 4, 4), 0.0, 1.0))
            got = pog.generate(gen, x).data
            n_p = normalize_embeddings(gen.embeddings).data
            w = pog.compute_weights(x, gen.weight_mlp).data
            rows = np.stack([sum(w[j] * build_basis(Tensor(n)).data[:, j] for j in range(d_e))
                             for n in n_p])
            dm = gen.decode_mlp
            hidden = np.maximum(rows @ dm.w1.data.T + dm.b1.data, 0.0)
            want = (hidden @ dm.w2.data.T + dm.b2.data).reshape(got.shape)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_gradients_through_pipeline(self):
        """Embeddings and both MLPs all receive correct gradients."""
        gen = make_gen(13, d_c=3, d_e=4, target=(2, 2, 1))
        x = Tensor(Rng(14).fill_uniform((3, 4, 4), 0.1, 0.9))
        tgt = Tensor(Rng(15).fill_uniform((2, 2, 1, 1), -0.5, 0.5))
        params = [t for _, t in gen.named_parameters()]

        def f(_):
            return mse(gen.generate(x), tgt)

        assert T.finite_diff_check(f, params) < 1e-4

    def test_frozen_blocks_embedding_gradients(self):
        """Freezing stops gradients to embeddings but not to the MLPs: the
        tape tracks the ids of the MLP parameters and not the embeddings',
        so destinations without them cover it."""
        gen = make_gen(17)
        x = Tensor(Rng(18).fill_uniform((3, 4, 4), 0.1, 0.9))
        gen.freeze()
        tape = T.Tape()
        with tape:
            loss = T.mean_all(square(gen.generate(x)))
        mlps = [t for _, t in gen.named_parameters() if t is not gen.embeddings]
        assert gen.embeddings.node_id not in tape._tracked
        assert gen.weight_mlp.w1.node_id in tape._tracked
        assert tape._tracked == {t.node_id for t in mlps}
        assert all(np.isfinite(g).all() for g in grads(tape, loss, mlps))

    def test_frozen_matches_unfrozen_values(self):
        gen = make_gen(19)
        x = Tensor(Rng(20).fill_uniform((3, 4, 4), 0.0, 1.0))
        before = gen.generate(x).data.copy()
        gen.freeze()
        assert np.array_equal(gen.generate(x).data, before)

    def test_construction_validates_dims(self):
        with pytest.raises(ConfigurationError):
            pog.PogGenerator(Rng(0), 3, 1, (2, 2, 1))
        with pytest.raises(ConfigurationError):
            pog.PogGenerator(Rng(0), 3, 4, (2, 2, 2))

    def test_initial_embeddings_are_normalized(self):
        gen = pog.PogGenerator(Rng(21), 3, 16, (2, 3, 3))
        norms = np.sqrt((gen.embeddings.data ** 2).sum(axis=1))
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def signed_cotangent(seed, shape):
    """Upstream gradient of both signs with exact +0.0 and -0.0 entries."""
    g = Rng(seed).fill_uniform(shape, -1.0, 1.0)
    g.reshape(-1)[::7] = -0.0
    g.reshape(-1)[3::5] = 0.0
    return g


class TestGeneratorOracle:
    """``pog.generate`` is one taped operation whose bytes, signed zeros
    included, equal those of the composed chain it replaces."""

    @pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
    @pytest.mark.parametrize("d_e", [2, 16])
    @pytest.mark.parametrize("d_k", [1, 3, 5])
    def test_kernel_and_gradients(self, d_k, d_e, frozen):
        """C_in != C_out, and a single-row (1, 1, 1) generator."""
        for seed, d_c, target in ((0, 6, (6, 2, d_k)), (1, 3, (1, 1, d_k))):
            gen = pog.PogGenerator(Rng(seed), d_c, d_e, target)
            if frozen:
                gen.freeze()
            x = Tensor(Rng(seed + 1).fill_uniform((d_c, 5, 6), -1.0, 1.0), requires_grad=True)
            inputs = [x] + [t for _, t in gen.named_parameters()]
            c_in, c_out, d_k = target
            g = signed_cotangent(seed + 2, (c_out, c_in, d_k, d_k))
            got, records = oracle_bytes(lambda x, *_: pog.generate(gen, x), inputs, g)
            want, _ = oracle_bytes(lambda x, *_: composed_generate(gen, x), inputs, g)
            assert got == want
            assert records == 3  # generate, mul, sum_all

    def test_reallocation_gradients(self, monkeypatch):
        """Both generators and the two convolutions share f_in; its four gradient
        terms add in the composed chain's order."""
        block = AdrBlock(Rng(3), 12, 4, 5, 3)
        qkv = [Tensor(Rng(4 + i).fill_uniform((4, 6, 6), -1.0, 1.0), requires_grad=True)
               for i in range(3)]
        inputs = [t for _, t in block.named_parameters()] + qkv
        g = signed_cotangent(7, (12, 6, 6))

        def op(*ts):
            return T.concat_channels(list(reallocate(block, *ts[-3:])))

        got, _ = oracle_bytes(op, inputs, g)
        monkeypatch.setattr(pog, "generate", composed_generate)
        assert got == oracle_bytes(op, inputs, g)[0]

    @pytest.mark.parametrize("kw", [{"adr_blocks": (True, True)},
                                    {"adr_blocks": (True, True), "dyn_candidates": 3}],
                             ids=["adr", "adr_dynconv"])
    def test_training_replays_on_the_composed_chain(self, kw, monkeypatch):
        """20-step loss histories, trained arenas, the trained model's gradients
        and ``dmr`` terms are equal bytes."""
        got = replay_bytes(**kw)
        monkeypatch.setattr(pog, "generate", composed_generate)
        assert got == replay_bytes(**kw)


def weight_head_inputs(seed, c, hw, d_e, logits):
    """Conditioning input of both signs with exact +-0.0 and a fresh C -> C -> D_e
    head; ``saturated`` logits make the weights exactly one-hot, and ``dead``
    ones switch every hidden unit off."""
    mlp = T.init_mlp(Rng(seed), c, c, d_e)
    if logits == "saturated":
        mlp.b2.data[d_e // 2] = 1e3
    if logits == "dead":
        mlp.b1.data[:] = -1e3
    x = Tensor(signed_cotangent(seed + 1, (c,) + hw), requires_grad=True)
    return [x, mlp.w1, mlp.b1, mlp.w2, mlp.b2]


def fused_weights(x, *params):
    return pog.compute_weights(x, T.MlpParams(*params))


class TestWeightHeadOracle:
    """``pog.compute_weights`` is one taped operation whose bytes, signed zeros
    included, equal those of the pool -> ``mlp2`` -> softmax chain; the
    dynamic convolution's candidate gate is the same head."""

    @pytest.mark.parametrize("logits", ["plain", "saturated", "dead"])
    @pytest.mark.parametrize("c, hw, d_e", [(1, (5, 6), 4), (6, (1, 1), 2), (3, (4, 7), 16),
                                            (8, (2, 2), 3)])
    def test_weights_and_gradients(self, c, hw, d_e, logits):
        """x, w1, b1, w2 and b2 gradients under a cotangent with exact +-0.0."""
        for seed in (0, 1):
            inputs = weight_head_inputs(seed, c, hw, d_e, logits)
            g = signed_cotangent(seed + 2, (d_e,))
            got, records = oracle_bytes(fused_weights, inputs, g)
            want, _ = oracle_bytes(lambda x, *p: composed_weights(x, T.MlpParams(*p)), inputs, g)
            assert got == want
            assert records == 3  # compute_weights, mul, sum_all
            untaped, _ = oracle_bytes(fused_weights, inputs, None)
            assert untaped == got[:1]

    def test_gradients(self):
        """Input and MLP gradients match central differences."""
        inputs = weight_head_inputs(3, 3, (4, 5), 4, "plain")
        g = Tensor(Rng(4).fill_uniform((4,), -1.0, 1.0))

        def f(ps):
            return sum_all(mul(fused_weights(*ps), g))

        assert T.finite_diff_check(f, inputs) < 1e-6

    @pytest.mark.parametrize("kw", [{"dyn_candidates": 3},
                                    {"adr_blocks": (True, True), "dyn_candidates": 3}],
                             ids=["dynconv", "adr_dynconv"])
    def test_training_and_dmr_replay_on_the_composed_head(self, kw, monkeypatch):
        """20-step loss histories, trained arenas, the trained model's gradients
        and ``dmr`` terms are equal bytes when the dynamic convolutions gate
        through the composed chain."""
        got = replay_bytes(**kw)
        monkeypatch.setattr(pog, "compute_weights", composed_weights)
        assert got == replay_bytes(**kw)


class TestDegradationScore:
    def test_zero_weight_mlp_scores_zero(self):
        """Input-blind weighting collapses the score to 0."""
        gen = make_gen(23)
        for _, t in gen.weight_mlp.named(""):
            t.data[:] = 0.0
        inputs = [Tensor(Rng(30 + i).fill_uniform((3, 4, 4), 0.0, 1.0)) for i in range(4)]
        assert abs(pog.degradation_score(gen, inputs)) < 1e-12

    def test_identical_inputs_score_zero(self):
        gen = make_gen(24)
        x = Tensor(Rng(40).fill_uniform((3, 4, 4), 0.0, 1.0))
        assert abs(pog.degradation_score(gen, [x, x, x])) < 1e-12

    def test_matches_brute_force(self):
        """Score equals an explicit per-element std/mean computation."""
        gen = make_gen(25)
        inputs = [Tensor(Rng(50 + i).fill_uniform((3, 4, 4), 0.0, 1.0)) for i in range(5)]
        got = pog.degradation_score(gen, inputs)
        mats = np.stack([gen.generate(x).data.reshape(-1) for x in inputs])
        m, n = mats.shape
        stds = np.empty(n)
        for i in range(n):
            col = mats[:, i]
            stds[i] = np.sqrt(((col - col.mean()) ** 2).mean())
        want = stds.mean() / (np.abs(mats).mean() + 1e-12)
        assert abs(got - want) < 1e-12

    def test_random_generator_is_input_sensitive(self):
        """A generic generator really is dynamic: score strictly positive."""
        gen = make_gen(26)
        inputs = [Tensor(Rng(60 + i).fill_uniform((3, 4, 4), 0.0, 1.0)) for i in range(8)]
        assert pog.degradation_score(gen, inputs) > 0.0

    def test_too_few_inputs_rejected(self):
        gen = make_gen(27)
        x = Tensor(np.zeros((3, 4, 4)))
        with pytest.raises(ContractError):
            pog.degradation_score(gen, [x])
