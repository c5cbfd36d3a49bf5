"""Q/K/V reallocation block: identity degradation, matrix-form oracle,
translation consistency, gradients, and input dependence."""

import numpy as np
import pytest

from redlab import tensor as T
from redlab.adr import AdrBlock, reallocate
from redlab.errors import ConfigurationError, DimensionError
from redlab.rng import Rng
from redlab.tensor import Tensor
from composed import mse


def make_block(seed, d_c=6, d_m=2, d_e=4, d_k=3):
    return AdrBlock(Rng(seed), d_c, d_m, d_e, d_k)


def zero_decoders(block):
    for gen in (block.gen1, block.gen2):
        gen.decode_mlp.w2.data[:] = 0.0
        gen.decode_mlp.b2.data[:] = 0.0


def random_qkv(seed, d=2, h=4, w=4):
    rng = Rng(seed)
    return (
        Tensor(rng.fill_uniform((d, h, w), 0.05, 1.0)),
        Tensor(rng.fill_uniform((d, h, w), 0.05, 1.0)),
        Tensor(rng.fill_uniform((d, h, w), 0.05, 1.0)),
    )


class TestIdentityDegradation:
    def test_zero_decoders_give_bitwise_identity(self):
        """Zero-decoded generators make reallocate the exact identity map."""
        for seed in range(10):
            block = make_block(seed)
            zero_decoders(block)
            q, k, v = random_qkv(seed + 100)
            qs, ks, vs = reallocate(block, q, k, v)
            assert np.array_equal(qs.data, q.data)
            assert np.array_equal(ks.data, k.data)
            assert np.array_equal(vs.data, v.data)

    def test_shape_bookkeeping(self):
        """d=4 inputs concatenate to 12 channels and split back to 4 each."""
        block = AdrBlock(Rng(3), 12, 4, 4, 3)
        q, k, v = random_qkv(4, d=4, h=8, w=8)
        qs, ks, vs = reallocate(block, q, k, v)
        for t in (qs, ks, vs):
            assert t.data.shape == (4, 8, 8)


class TestMatrixFormOracle:
    def test_one_by_one_kernels_match_pixel_matmuls(self):
        """With 1x1 kernels the block is a per-pixel matrix bottleneck."""
        block = AdrBlock(Rng(5), 3, 1, 4, 1)
        q, k, v = random_qkv(6, d=1, h=2, w=2)
        qs, ks, vs = reallocate(block, q, k, v)
        got = np.concatenate([qs.data, ks.data, vs.data], axis=0)

        f_in = np.concatenate([q.data, k.data, v.data], axis=0)
        p1 = block.gen1.generate(Tensor(f_in)).data.reshape(1, 3)
        p2 = block.gen2.generate(Tensor(f_in)).data.reshape(3, 1)
        want = np.empty_like(f_in)
        for i in range(2):
            for j in range(2):
                pix = f_in[:, i, j]
                inner = np.maximum(p1 @ pix, 0.0)
                want[:, i, j] = pix + (p2 @ inner)
        assert np.max(np.abs(got - want)) < 1e-12


class TestTranslationConsistency:
    def test_commutes_with_interior_shift(self):
        """Shifting the input shifts the output on interior pixels."""
        block = make_block(7)
        block.freeze()
        rng = Rng(8)
        base = rng.fill_uniform((6, 12, 12), 0.2, 0.8)
        pad_val = base.mean(axis=(1, 2), keepdims=True)
        big = np.broadcast_to(pad_val, (6, 16, 16)).copy()
        big[:, 2:14, 2:14] = base
        shifted = np.broadcast_to(pad_val, (6, 16, 16)).copy()
        shifted[:, 3:15, 3:15] = base

        def run(arr):
            q, k, v = Tensor(arr[0:2]), Tensor(arr[2:4]), Tensor(arr[4:6])
            qs, ks, vs = reallocate(block, q, k, v)
            return np.concatenate([qs.data, ks.data, vs.data], axis=0)

        out_a = run(big)
        out_b = run(shifted)
        # the generated kernels depend on the global mean, which the
        # constant padding keeps identical between the two frames
        assert np.max(np.abs(out_a[:, 4:12, 4:12] - out_b[:, 5:13, 5:13])) < 1e-10


class TestGradients:
    def test_all_generator_parameters(self):
        """Finite differences confirm gradients through both generators."""
        block = AdrBlock(Rng(9), 3, 1, 3, 1)
        q, k, v = random_qkv(10, d=1, h=3, w=3)
        rng = Rng(11)
        tq = Tensor(rng.fill_uniform((1, 3, 3), 0.0, 1.0))
        tk = Tensor(rng.fill_uniform((1, 3, 3), 0.0, 1.0))
        tv = Tensor(rng.fill_uniform((1, 3, 3), 0.0, 1.0))
        params = [t for _, t in block.named_parameters()]

        def f(_):
            qs, ks, vs = reallocate(block, q, k, v)
            return T.add(T.add(mse(qs, tq), mse(ks, tk)), mse(vs, tv))

        err = T.finite_diff_check(f, params, sample=60, rng=Rng(12))
        assert err < 1e-4


class TestInputDependence:
    def test_distinct_inputs_distinct_kernels(self):
        """The mechanism is dynamic: kernels differ across inputs."""
        block = make_block(13)
        qa, ka, va = random_qkv(14)
        qb, kb, vb = random_qkv(15)
        fa = T.concat_channels([qa, ka, va])
        fb = T.concat_channels([qb, kb, vb])
        p1a = block.gen1.generate(fa).data
        p1b = block.gen1.generate(fb).data
        p2a = block.gen2.generate(fa).data
        p2b = block.gen2.generate(fb).data
        assert np.max(np.abs(p1a - p1b)) > 0.0
        assert np.max(np.abs(p2a - p2b)) > 0.0


class TestValidation:
    def test_bottleneck_must_be_narrower(self):
        with pytest.raises(ConfigurationError):
            AdrBlock(Rng(0), 6, 6, 4, 3)

    def test_channel_count_must_be_divisible_by_three(self):
        with pytest.raises(ConfigurationError):
            AdrBlock(Rng(0), 7, 2, 4, 3)

    def test_mismatched_qkv_shapes_rejected(self):
        block = make_block(1)
        q, k, v = random_qkv(2)
        bad = Tensor(np.zeros((2, 5, 4)))
        with pytest.raises(DimensionError):
            reallocate(block, q, k, bad)

    def test_wrong_width_rejected(self):
        block = make_block(1)  # expects 3*d == 6
        q, k, v = random_qkv(3, d=3)
        with pytest.raises(ConfigurationError):
            reallocate(block, q, k, v)
