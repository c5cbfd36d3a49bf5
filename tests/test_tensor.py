"""Tensor engine checks: forward values against naive oracles, gradients
against central differences."""

import copy

import numpy as np
import pytest

from redlab import tensor as T
from redlab.dynconv import DynamicConv
from redlab.enhancer import Conv2dLayer
from redlab.errors import ContractError, DimensionError
from redlab.rng import Rng
from composed import (
    composed_conv2d,
    div,
    global_avg_pool,
    mlp2,
    mse,
    mul,
    oracle_bytes,
    replay_bytes,
    sqrt,
    square,
    sum_all,
    sum_last,
    transpose2d,
)
from tape_helpers import grads


def conv_naive(x, k):
    """Quadruple-loop same-padded convolution, the independent oracle."""
    c_out, c_in, kk, _ = k.shape
    c, h, w = x.shape
    pad = kk // 2
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    out = np.zeros((c_out, h, w))
    for co in range(c_out):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for ci in range(c):
                    for di in range(kk):
                        for dj in range(kk):
                            acc += k[co, ci, di, dj] * xp[ci, i + di, j + dj]
                out[co, i, j] = acc
    return out


class TestConv2d:
    def test_matches_naive_loop(self):
        """im2col convolution equals the loop oracle within 1e-12."""
        shapes = [
            (1, 1, 4, 4, 1),
            (1, 1, 4, 4, 3),
            (2, 3, 5, 6, 3),
            (3, 2, 6, 5, 3),
            (4, 4, 3, 3, 1),
            (2, 5, 7, 4, 3),
        ]
        for idx, (c_in, c_out, h, w, kk) in enumerate(shapes):
            rng = Rng(100 + idx)
            x = rng.fill_uniform((c_in, h, w), -1.0, 1.0)
            k = rng.fill_uniform((c_out, c_in, kk, kk), -1.0, 1.0)
            got = T.conv2d(T.Tensor(x), T.Tensor(k)).data
            want = conv_naive(x, k)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_rejects_even_kernel(self):
        """Even kernel sizes have no symmetric same-padding."""
        x = T.Tensor(np.zeros((1, 4, 4)))
        k = T.Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(DimensionError):
            T.conv2d(x, k)

    def test_rejects_channel_mismatch(self):
        x = T.Tensor(np.zeros((2, 4, 4)))
        k = T.Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(DimensionError):
            T.conv2d(x, k)

    def test_gradients(self):
        """Both input and kernel gradients match central differences."""
        for seed in range(5):
            rng = Rng(seed)
            x = T.Tensor(rng.fill_uniform((2, 5, 4), -1.0, 1.0), requires_grad=True)
            k = T.Tensor(rng.fill_uniform((3, 2, 3, 3), -0.5, 0.5), requires_grad=True)

            def f(params):
                return T.mean_all(square(T.conv2d(params[0], params[1])))

            assert T.finite_diff_check(f, [x, k]) < 1e-6


class TestSoftmax:
    def test_rows_sum_to_one(self):
        """Each last-axis row of the output is a probability vector."""
        for seed in range(10):
            v = Rng(seed).fill_uniform((4, 6), -30.0, 30.0)
            y = T.softmax(T.Tensor(v)).data
            assert np.all(y > 0.0)
            assert np.max(np.abs(y.sum(axis=-1) - 1.0)) < 1e-12

    def test_matches_direct_formula(self):
        v = np.array([0.5, -1.0, 2.0])
        y = T.softmax(T.Tensor(v)).data
        e = np.exp(v - v.max())
        assert np.allclose(y, e / e.sum(), atol=1e-15)

    def test_shift_invariance(self):
        """Adding a constant to the logits leaves the output unchanged."""
        v = Rng(4).fill_uniform((8,), -5.0, 5.0)
        a = T.softmax(T.Tensor(v)).data
        b = T.softmax(T.Tensor(v + 123.0)).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_extreme_logits_stay_finite(self):
        y = T.softmax(T.Tensor(np.array([1e4, 0.0, -1e4]))).data
        assert np.all(np.isfinite(y))

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractError):
            T.softmax(T.Tensor(np.array([np.nan, 0.0])))

    def test_gradients(self):
        for seed in range(5):
            v = T.Tensor(Rng(seed).fill_uniform((5,), -2.0, 2.0), requires_grad=True)
            w = Rng(seed + 50).fill_uniform((5,), 0.1, 1.0)

            def f(params):
                return sum_all(mul(T.softmax(params[0]), T.Tensor(w)))

            assert T.finite_diff_check(f, [v]) < 1e-6


class TestElementwise:
    def test_broadcast_add_mul(self):
        """Broadcast forward values follow numpy; grads fold back correctly."""
        rng = Rng(8)
        a = T.Tensor(rng.fill_uniform((4, 1), -1.0, 1.0), requires_grad=True)
        b = T.Tensor(rng.fill_uniform((4, 6), -1.0, 1.0), requires_grad=True)
        out = mul(T.add(a, b), b)
        assert np.allclose(out.data, (a.data + b.data) * b.data)

        def f(params):
            return T.mean_all(square(mul(T.add(params[0], params[1]), params[1])))

        assert T.finite_diff_check(f, [a, b]) < 1e-6
        tape = T.Tape()
        with tape:
            loss = sum_all(T.add(a, b))
        ga, _ = grads(tape, loss, [a, b])
        assert ga.shape == (4, 1)
        assert np.allclose(ga, 6.0)

    def test_div_and_sqrt_gradients(self):
        for seed in range(5):
            rng = Rng(seed)
            a = T.Tensor(rng.fill_uniform((3, 4), 0.5, 2.0), requires_grad=True)
            b = T.Tensor(rng.fill_uniform((3, 4), 0.5, 2.0), requires_grad=True)

            def f(params):
                return T.mean_all(div(sqrt(params[0]), params[1]))

            assert T.finite_diff_check(f, [a, b]) < 1e-6

    def test_relu_values_and_gradient(self):
        x = T.Tensor(np.array([-2.0, -0.5, 0.5, 3.0]), requires_grad=True)
        y = T.relu(x)
        assert np.array_equal(y.data, [0.0, 0.0, 0.5, 3.0])
        tape = T.Tape()
        with tape:
            loss = sum_all(T.relu(x))
        (gx,) = grads(tape, loss, [x])
        assert np.array_equal(gx, [0.0, 0.0, 1.0, 1.0])

    def test_clamp01_values_and_gradient(self):
        x = T.Tensor(np.array([-0.5, 0.25, 0.75, 1.5]), requires_grad=True)
        y = T.clamp01(x)
        assert np.array_equal(y.data, [0.0, 0.25, 0.75, 1.0])
        tape = T.Tape()
        with tape:
            loss = sum_all(T.clamp01(x))
        (gx,) = grads(tape, loss, [x])
        assert np.array_equal(gx, [0.0, 1.0, 1.0, 0.0])

    def test_abs_gradient(self):
        x = T.Tensor(np.array([-1.5, 2.0]), requires_grad=True)
        tape = T.Tape()
        with tape:
            loss = sum_all(T.absolute(x))
        (gx,) = grads(tape, loss, [x])
        assert np.array_equal(gx, [-1.0, 1.0])


class TestMatmulAndPool:
    def test_matmul_matches_numpy(self):
        for seed in range(5):
            rng = Rng(seed)
            a = rng.fill_uniform((4, 3), -1.0, 1.0)
            b = rng.fill_uniform((3, 5), -1.0, 1.0)
            got = T.matmul(T.Tensor(a), T.Tensor(b)).data
            assert np.allclose(got, a @ b, atol=1e-14)

    def test_matmul_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))
        with pytest.raises(DimensionError):
            T.matmul(T.Tensor(np.zeros(3)), T.Tensor(np.zeros((3, 2))))

    def test_matmul_gradients(self):
        rng = Rng(2)
        a = T.Tensor(rng.fill_uniform((3, 4), -1.0, 1.0), requires_grad=True)
        b = T.Tensor(rng.fill_uniform((4, 2), -1.0, 1.0), requires_grad=True)

        def f(params):
            return T.mean_all(square(T.matmul(params[0], params[1])))

        assert T.finite_diff_check(f, [a, b]) < 1e-6

    def test_global_avg_pool_value(self):
        x = Rng(6).fill_uniform((3, 4, 5), -1.0, 1.0)
        got = global_avg_pool(T.Tensor(x)).data
        assert np.allclose(got, x.mean(axis=(1, 2)), atol=1e-15)


class TestResampling:
    def test_upsample_values(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        y = T.upsample2x(T.Tensor(x)).data
        assert y.shape == (2, 4, 4)
        assert np.array_equal(y[:, ::2, ::2], x)
        assert np.array_equal(y[:, 1::2, 1::2], x)

    def test_downsample_inverts_upsample(self):
        x = Rng(3).fill_uniform((2, 4, 4), 0.0, 1.0)
        y = T.downsample2x_mean(T.upsample2x(T.Tensor(x))).data
        assert np.max(np.abs(y - x)) < 1e-15

    def test_downsample_rejects_odd(self):
        with pytest.raises(DimensionError):
            T.downsample2x_mean(T.Tensor(np.zeros((1, 3, 4))))

    def test_gradients(self):
        x = T.Tensor(Rng(4).fill_uniform((2, 4, 4), -1.0, 1.0), requires_grad=True)

        def f(params):
            return T.mean_all(square(T.upsample2x(params[0])))

        assert T.finite_diff_check(f, [x]) < 1e-6

        def g(params):
            return T.mean_all(square(T.downsample2x_mean(params[0])))

        assert T.finite_diff_check(g, [x]) < 1e-6


class TestConcatSplit:
    def test_round_trip(self):
        """split_channels(concat_channels(parts)) returns the parts."""
        rng = Rng(5)
        parts = [rng.fill_uniform((c, 3, 4), -1.0, 1.0) for c in (1, 2, 3)]
        cat = T.concat_channels([T.Tensor(p) for p in parts])
        back = T.split_channels(cat, [1, 2, 3])
        for p, q in zip(parts, back):
            assert np.array_equal(p, q.data)

    def test_split_rejects_bad_sizes(self):
        with pytest.raises(DimensionError):
            T.split_channels(T.Tensor(np.zeros((4, 2, 2))), [1, 2])

    def test_gradients_through_concat(self):
        rng = Rng(7)
        a = T.Tensor(rng.fill_uniform((1, 3, 3), -1.0, 1.0), requires_grad=True)
        b = T.Tensor(rng.fill_uniform((2, 3, 3), -1.0, 1.0), requires_grad=True)

        def f(params):
            cat = T.concat_channels([params[0], params[1]])
            pieces = T.split_channels(cat, [2, 1])
            return T.mean_all(square(pieces[0]))

        assert T.finite_diff_check(f, [a, b]) < 1e-6


class TestMlp:
    def test_batch_equals_rowwise(self):
        """Batched mlp2 matches applying it row by row."""
        rng = Rng(9)
        p = T.init_mlp(rng, 5, 7, 3)
        xb = rng.fill_uniform((4, 5), -1.0, 1.0)
        batched = mlp2(T.Tensor(xb), p).data
        for i in range(4):
            row = mlp2(T.Tensor(xb[i]), p).data
            assert np.max(np.abs(batched[i] - row)) < 1e-12

    def test_init_bounds(self):
        """Weights start within +-sqrt(1/fan_in); biases at zero."""
        p = T.init_mlp(Rng(1), 16, 8, 4)
        assert np.all(np.abs(p.w1.data) <= (1 / 16) ** 0.5)
        assert np.all(np.abs(p.w2.data) <= (1 / 8) ** 0.5)
        assert np.all(p.b1.data == 0.0)
        assert np.all(p.b2.data == 0.0)

    def test_gradients(self):
        rng = Rng(13)
        p = T.init_mlp(rng, 4, 6, 2)
        x = T.Tensor(rng.fill_uniform((4,), -1.0, 1.0))

        def f(params):
            m = T.MlpParams(*params)
            return T.mean_all(square(mlp2(x, m)))

        assert T.finite_diff_check(f, [t for _, t in p.named("")]) < 1e-6


class TestInitUniform:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_constructors_draw_through_it(self, seed):
        """Conv kernels, candidate banks and MLP weights are init_uniform draws."""
        def draw(shape):
            out = np.empty(shape)
            T.init_uniform(Rng(seed), out)
            return out.tobytes()

        assert Conv2dLayer(Rng(seed), 4, 6, 3).kernel.data.tobytes() == draw((6, 4, 3, 3))
        bank = DynamicConv(Rng(seed), 4, 6, 2)
        assert bank.candidates.data.tobytes() == draw((2, 6, 4, 3, 3))
        assert T.init_mlp(Rng(seed), 5, 7, 3).w1.data.tobytes() == draw((7, 5))


class TestHandValues:
    def test_conv_identity_kernel(self):
        """A single 1x1 kernel of value 1 reproduces the input."""
        x = Rng(1).fill_uniform((1, 5, 5), 0.0, 1.0)
        k = np.ones((1, 1, 1, 1))
        assert np.array_equal(T.conv2d(T.Tensor(x), T.Tensor(k)).data, x)

    def test_conv_zero_kernel(self):
        x = Rng(2).fill_uniform((2, 4, 4), 0.0, 1.0)
        k = np.zeros((3, 2, 3, 3))
        assert np.all(T.conv2d(T.Tensor(x), T.Tensor(k)).data == 0.0)

    def test_matmul_hand_case(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_softmax_hand_case(self):
        y = T.softmax(T.Tensor([0.0, np.log(3.0)])).data
        assert np.max(np.abs(y - [0.25, 0.75])) < 1e-12

    def test_softmax_equal_logits_uniform(self):
        for c in (-7.0, 0.0, 40.0):
            y = T.softmax(T.Tensor(np.full(5, c))).data
            assert np.max(np.abs(y - 0.2)) < 1e-12

    def test_gap_hand_cases(self):
        assert np.allclose(global_avg_pool(T.Tensor(np.full((3, 2, 2), 0.7))).data, 0.7)
        x = np.arange(1.0, 5.0).reshape(1, 2, 2)
        assert global_avg_pool(T.Tensor(x)).data[0] == 2.5
        one = Rng(3).fill_uniform((4, 1, 1), -1.0, 1.0)
        assert np.array_equal(global_avg_pool(T.Tensor(one)).data, one[:, 0, 0])

    def test_mse_hand_cases(self):
        a = T.Tensor(np.zeros(2))
        assert mse(a, a).item() == 0.0
        assert mse(T.Tensor(np.zeros(3)), T.Tensor(np.ones(3))).item() == 1.0
        assert mse(T.Tensor([0.0, 0.0]), T.Tensor([1.0, 3.0])).item() == 5.0

    def test_mse_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse(T.Tensor(np.zeros(2)), T.Tensor(np.zeros(3)))

    def test_mlp2_zero_weights_gives_bias(self):
        p = T.MlpParams(
            w1=T.Tensor(np.zeros((4, 3))),
            b1=T.Tensor(np.zeros(4)),
            w2=T.Tensor(np.zeros((2, 4))),
            b2=T.Tensor(np.array([0.3, -0.7])),
        )
        y = mlp2(T.Tensor(np.ones(3)), p)
        assert np.array_equal(y.data, [0.3, -0.7])

    def test_mlp2_identity_passthrough(self):
        """Identity weights and zero biases map nonnegative inputs to themselves."""
        p = T.MlpParams(
            w1=T.Tensor(np.eye(3)),
            b1=T.Tensor(np.zeros(3)),
            w2=T.Tensor(np.eye(3)),
            b2=T.Tensor(np.zeros(3)),
        )
        x = np.array([0.0, 0.5, 2.0])
        assert np.array_equal(mlp2(T.Tensor(x), p).data, x)

    def test_backward_hand_case(self):
        """d(x^2)/dx at x=3 is 6."""
        x = T.Tensor(np.array(3.0), requires_grad=True)
        tape = T.Tape()
        with tape:
            loss = square(x)
        (gx,) = grads(tape, loss, [x])
        assert np.allclose(gx, 6.0)

    def test_quadratic_loss_near_exact(self):
        """Central differences are exact for quadratics up to roundoff."""
        x = T.Tensor(Rng(14).fill_uniform((6,), -2.0, 2.0), requires_grad=True)

        def f(params):
            return sum_all(square(params[0]))

        assert T.finite_diff_check(f, [x]) < 1e-8


class TestEveryOpGradient:
    def test_composite_of_all_primitives(self):
        """One chain touching every differentiable op passes the oracle, 20 seeds."""
        for seed in range(20):
            rng = Rng(1000 + seed)
            x = T.Tensor(rng.fill_uniform((3, 4, 4), 0.1, 0.9))
            k = T.Tensor(rng.fill_uniform((4, 3, 3, 3), -0.4, 0.4), requires_grad=True)
            m = T.init_mlp(rng, 4, 5, 4)
            wm = T.Tensor(rng.fill_uniform((4, 4), 0.3, 1.2), requires_grad=True)
            tgt = T.Tensor(rng.fill_uniform((2, 4, 4), 0.2, 0.8))

            def f(params):
                kernel, w1, b1, w2, b2, wmat = params
                mlp = T.MlpParams(w1, b1, w2, b2)
                act = T.relu(T.conv2d(x, kernel))
                up = T.upsample2x(T.downsample2x_mean(act))
                pooled = global_avg_pool(up)
                gates = T.softmax(mlp2(pooled, mlp))
                col = T.matmul(transpose2d(wmat), T.reshape(gates, (4, 1)))
                mixed = mul(up, T.reshape(col, (4, 1, 1)))
                norm = sqrt(T.add(sum_last(square(T.reshape(pooled, (1, 4)))), 1.0))
                scaled = div(mixed, T.reshape(norm, (1, 1, 1)))
                clipped = T.clamp01(T.sub(scaled, 0.01))
                parts = T.split_channels(clipped, [2, 2])
                cat = T.concat_channels([parts[1], parts[0]])
                l1 = mse(T.slice_channels(cat, 0, 2), tgt)
                l2 = T.mean_all(T.absolute(T.sub(pooled, 0.51)))
                return T.add(l1, mul(l2, 0.1))

            params = [k] + [t for _, t in m.named("")] + [wm]
            err = T.finite_diff_check(f, params, sample=12, rng=Rng(seed))
            assert err < 1e-4, f"seed {seed}: {err}"


class TestTapeSemantics:
    def test_reused_node_accumulates(self):
        """A tensor consumed twice gets the sum of both branch gradients."""
        x = T.Tensor(np.array([2.0]), requires_grad=True)
        tape = T.Tape()
        with tape:
            loss = sum_all(mul(x, x))
        (gx,) = grads(tape, loss, [x])
        assert np.allclose(gx, 4.0)

    def test_unreached_tracked_gets_zero(self):
        """Loss independent of a tracked tensor yields an explicit zero grad."""
        a = T.Tensor(np.ones(3), requires_grad=True)
        b = T.Tensor(np.ones(3), requires_grad=True)
        tape = T.Tape()
        with tape:
            _ = square(a)
            loss = sum_all(square(b))
        ga, _ = grads(tape, loss, [a, b])
        assert np.array_equal(ga, np.zeros(3))

    def test_no_tape_records_nothing(self):
        """Ops before a tape is entered and after it exits are not recorded."""
        x = T.Tensor(np.ones(4), requires_grad=True)
        tape = T.Tape()
        _ = square(x)
        with tape:
            pass
        _ = square(x)
        assert len(tape) == 0 and tape._tracked == set()

    def test_nested_tapes_rejected(self):
        with T.Tape():
            with pytest.raises(ContractError):
                with T.Tape():
                    pass

    def test_backward_requires_scalar(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        tape = T.Tape()
        with tape:
            y = square(x)
        with pytest.raises(ContractError):
            T.backward(tape, y, [(x, np.empty(3))])

    def test_destinations_receive_the_additive_bytes(self):
        """Views of one NaN-filled buffer receive the hand-derived gradients,
        summed over a leaf's uses, signed zeros included; an unreached leaf
        gets +0.0.

        With y = a * b + a and loss = sum(y * c): dL/da = c + c * b and
        dL/db = c * a, elementwise."""
        a = T.Tensor(np.array([[1.5, -2.0], [0.5, 3.0]]), requires_grad=True)
        b = T.Tensor(np.array([2.0, -0.0, 0.0, -1.0]), requires_grad=True)
        unused = T.Tensor(np.ones(2), requires_grad=True)
        c = T.Tensor(np.array([[1.0, 2.0], [-0.0, -4.0]]))
        tape = T.Tape()
        with tape:
            _ = square(unused)
            y = T.add(mul(a, T.reshape(b, (2, 2))), a)
            loss = sum_all(mul(y, c))
        flat = np.full(10, np.nan)
        views = [flat[:4].reshape(2, 2), flat[4:8], flat[8:]]
        T.backward(tape, loss, list(zip((a, b, unused), views)))
        want = np.array([
            3.0, 2.0, -0.0, 0.0,    # c + c*b: 1+2, 2+(-0), -0+(-0), -4+4
            1.5, -4.0, -0.0, -12.0,  # c*a
            0.0, 0.0,                # unreached
        ])
        assert flat.tobytes() == want.tobytes()

    def test_tape_tracks_leaf_ids(self):
        """A tape tracks the node ids of the leaves that need a gradient,
        not the tensors, and nothing for a constant input."""
        a = T.Tensor(np.ones(2), requires_grad=True)
        b = T.Tensor(np.ones(2), requires_grad=True)
        c = T.Tensor(np.ones(2))
        tape = T.Tape()
        with tape:
            _ = sum_all(mul(mul(a, b), T.add(c, a)))
        assert tape._tracked == {a.node_id, b.node_id}

    def test_destinations_must_cover_every_tracked_leaf(self):
        a = T.Tensor(np.ones(2), requires_grad=True)
        b = T.Tensor(np.ones(2), requires_grad=True)
        tape = T.Tape()
        with tape:
            loss = sum_all(mul(a, b))
        dst = np.full(2, np.nan)
        with pytest.raises(ContractError, match="every tracked tensor"):
            T.backward(tape, loss, [(a, dst)])
        assert np.isnan(dst).all()

    def test_deepcopy_gets_fresh_identity(self):
        """Copied tensors share no buffers and no tape identity."""
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = copy.deepcopy(x)
        assert y.node_id != x.node_id
        y.data[0] = 99.0
        assert x.data[0] == 1.0


class TestFiniteDiffCheck:
    def test_eps_bounds_enforced(self):
        x = T.Tensor(np.ones(2), requires_grad=True)

        def f(params):
            return sum_all(params[0])

        with pytest.raises(ContractError):
            T.finite_diff_check(f, [x], eps=1e-2)
        with pytest.raises(ContractError):
            T.finite_diff_check(f, [x], eps=1e-8)

    def test_sample_of_no_coordinates_rejected(self):
        """sample below 1 would check nothing; None still checks them all."""
        x = T.Tensor(np.ones(2), requires_grad=True)

        def f(params):
            return sum_all(params[0])

        for sample in (0, -1):
            with pytest.raises(ContractError):
                T.finite_diff_check(f, [x], sample=sample)
        assert T.finite_diff_check(f, [x], sample=None) < 1e-6
        assert T.finite_diff_check(f, [x], sample=1) < 1e-6

    def test_params_must_cover_every_leaf_f_uses(self):
        """A requires_grad tensor f uses but params omits has no destination."""
        x = T.Tensor(np.ones(2), requires_grad=True)
        w = T.Tensor(np.full(2, 3.0), requires_grad=True)

        def f(params):
            return sum_all(mul(params[0], w))

        with pytest.raises(ContractError, match="every tracked tensor"):
            T.finite_diff_check(f, [x])
        assert T.finite_diff_check(f, [x, w]) < 1e-6

    def test_detects_wrong_gradient(self):
        """A deliberately broken gradient is flagged, not silently passed."""

        def bad_op(x):
            out = T.Tensor(x.data * 3.0)
            return T._record(out, (x,), lambda g, needs: (g * 2.0,))

        x = T.Tensor(np.ones(3), requires_grad=True)

        def f(params):
            return sum_all(bad_op(params[0]))

        assert T.finite_diff_check(f, [x]) > 0.1

    def test_sampled_subset_is_deterministic(self):
        rng = Rng(21)
        x = T.Tensor(rng.fill_uniform((10, 10), -1.0, 1.0), requires_grad=True)

        def f(params):
            return T.mean_all(square(params[0]))

        a = T.finite_diff_check(f, [x], sample=10, rng=Rng(0))
        b = T.finite_diff_check(f, [x], sample=10, rng=Rng(0))
        assert a == b
        assert a < 1e-6


# --------------------------------------------------------------------------
# Bit-level oracles for the conv and 2x2 resampling kernels
# --------------------------------------------------------------------------
# The straightforward forms the engine's kernels replaced.  Each kernel must
# return the same bytes as its oracle, signed zeros included, because seeded
# loss histories, checkpoints and dmr terms are pinned bit for bit.  These
# tests also run under the oldest supported NumPy, where the summation order
# of a 2x2 block could differ.

def im2col_oracle(x, k):
    c, h, w = x.shape
    pad = k // 2
    if pad:
        xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
        xp[:, pad:pad + h, pad:pad + w] = x
    else:
        xp = x
    cols = np.empty((c, k * k, h * w), dtype=np.float64)
    idx = 0
    for di in range(k):
        for dj in range(k):
            cols[:, idx, :] = xp[:, di:di + h, dj:dj + w].reshape(c, h * w)
            idx += 1
    return cols.reshape(c * k * k, h * w)


def col2im_oracle(colg, c, h, w, k):
    pad = k // 2
    xg = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    cols = colg.reshape(c, k * k, h * w)
    idx = 0
    for di in range(k):
        for dj in range(k):
            xg[:, di:di + h, dj:dj + w] += cols[:, idx, :].reshape(c, h, w)
            idx += 1
    if pad:
        return xg[:, pad:pad + h, pad:pad + w].copy()
    return xg


def upsample2x_oracle(x):
    out = T._wrap(np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2))
    c, h, w = x.data.shape

    def vjp(g, needs):
        return (g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)),)

    return T._record(out, (x,), vjp)


def downsample2x_mean_oracle(x):
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise DimensionError("downsample2x_mean needs even spatial dims")
    out = T._wrap(x.data.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4)))

    def vjp(g, needs):
        up = np.repeat(np.repeat(g, 2, axis=1), 2, axis=2)
        return (up / 4.0,)

    return T._record(out, (x,), vjp)


def signed_values(seed, shape):
    """Values over twelve decades of both signs, with +0.0 and -0.0 mixed in."""
    r = np.random.default_rng(seed)
    x = r.standard_normal(shape) * 10.0 ** r.integers(-6, 6, shape)
    x[r.random(shape) < 0.15] = 0.0
    x[r.random(shape) < 0.15] = -0.0
    return x


def vjp_of(op, x, g, leaves=()):
    """(op(x), d<op(x), g>/dx, and d<op(x), g>/dt for each other leaf t op
    uses) through the tape; the upstream gradient is g exactly."""
    xt = T.Tensor(x, requires_grad=True)
    tape = T.Tape()
    with tape:
        y = op(xt)
        loss = sum_all(mul(y, T.Tensor(g)))
    return (y.data, *grads(tape, loss, [xt, *leaves]))


CONV_SHAPES = [(3, 6, 10), (2, 7, 5), (4, 1, 3), (1, 2, 9)]
# Kernels more than twice as wide as the map: some windows lie wholly on
# the padding (k >= 2 * h + 3 or k >= 2 * w + 3).
WIDE_KERNEL_CASES = [((2, 2, 2), 7), ((1, 4, 4), 11), ((2, 1, 3), 9), ((1, 3, 1), 7)]
CONV_CASES = [(shape, k) for k in (1, 3, 5) for shape in CONV_SHAPES] + WIDE_KERNEL_CASES
EVEN_SHAPES = [(3, 6, 10), (2, 4, 2), (5, 8, 16), (1, 2, 2)]


class TestKernelOracles:
    @pytest.mark.parametrize("shape,k", CONV_CASES)
    def test_im2col_and_col2im(self, shape, k):
        c, h, w = shape
        x = signed_values(0, shape)
        assert T._im2col(x, k).tobytes() == im2col_oracle(x, k).tobytes()
        colg = signed_values(1, (c * k * k, h * w))
        assert (T._col2im(colg, c, h, w, k).tobytes()
                == col2im_oracle(colg, c, h, w, k).tobytes())

    @pytest.mark.parametrize("shape,k", CONV_CASES)
    def test_conv2d_forward_and_vjp(self, shape, k, monkeypatch):
        c, h, w = shape
        x = signed_values(2, shape)
        kernel = signed_values(3, (3, c, k, k))
        g = signed_values(4, (3, h, w))

        def run():
            kt = T.Tensor(kernel, requires_grad=True)
            y, gx, gk = vjp_of(lambda xt: T.conv2d(xt, kt), x, g, [kt])
            return y.tobytes(), gx.tobytes(), gk.tobytes()

        got = run()
        monkeypatch.setattr(T, "_im2col", im2col_oracle)
        monkeypatch.setattr(T, "_col2im", col2im_oracle)
        assert got == run()

    @pytest.mark.parametrize("shape", EVEN_SHAPES)
    def test_downsample2x_mean(self, shape):
        c, h, w = shape
        x = signed_values(5, shape)
        g = signed_values(6, (c, h // 2, w // 2))
        got = vjp_of(T.downsample2x_mean, x, g)
        want = vjp_of(downsample2x_mean_oracle, x, g)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("shape", EVEN_SHAPES)
    def test_upsample2x(self, shape):
        c, h, w = shape
        x = signed_values(7, shape)
        g = signed_values(8, (c, 2 * h, 2 * w))
        got = vjp_of(T.upsample2x, x, g)
        want = vjp_of(upsample2x_oracle, x, g)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_training_and_dmr_match_the_oracles(self, monkeypatch):
        """An ADR + dynconv run replays bit for bit on the oracle kernels."""
        kw = {"adr_blocks": (True, True), "dyn_candidates": 3}
        got = replay_bytes(**kw)
        monkeypatch.setattr(T, "_im2col", im2col_oracle)
        monkeypatch.setattr(T, "_col2im", col2im_oracle)
        monkeypatch.setattr(T, "upsample2x", upsample2x_oracle)
        monkeypatch.setattr(T, "downsample2x_mean", downsample2x_mean_oracle)
        assert got == replay_bytes(**kw)


BIAS_SHAPES = [(3, 6, 10), (2, 7, 5), (4, 1, 1), (1, 1, 9)]


class TestConvBiasOracle:
    """``T.conv2d(x, kernel, bias)`` is one record whose bytes, signed zeros
    included, equal those of the add-of-reshaped-bias chain."""

    @pytest.mark.parametrize("tape", [True, False], ids=["trainable", "frozen"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("shape", BIAS_SHAPES)
    def test_output_and_gradients(self, shape, k, tape):
        c, h, w = shape
        x = signed_values(10, shape)
        kernel = signed_values(11, (3, c, k, k))
        bias = signed_values(12, (3,))
        g = signed_values(13, (3, h, w)) if tape else None
        ts = [T.Tensor(a, requires_grad=tape) for a in (x, kernel, bias)]
        got, _ = oracle_bytes(T.conv2d, ts, g)
        assert got == oracle_bytes(composed_conv2d, ts, g)[0]

    def test_one_record(self):
        x = T.Tensor(signed_values(14, (2, 4, 4)), requires_grad=True)
        tape = T.Tape()
        with tape:
            T.conv2d(x, T.Tensor(signed_values(15, (3, 2, 3, 3))), T.Tensor(np.ones(3)))
        assert len(tape) == 1

    def test_rejects_bias_of_wrong_width(self):
        with pytest.raises(DimensionError):
            T.conv2d(T.Tensor(np.zeros((2, 4, 4))), T.Tensor(np.zeros((3, 2, 1, 1))),
                     T.Tensor(np.zeros(2)))

    @pytest.mark.parametrize("k", [1, 3])
    def test_gradients(self, k):
        """Input, kernel and bias gradients match central differences."""
        rng = Rng(16 + k)
        x = T.Tensor(rng.fill_uniform((2, 5, 4), -1.0, 1.0), requires_grad=True)
        kernel = T.Tensor(rng.fill_uniform((3, 2, k, k), -0.5, 0.5), requires_grad=True)
        bias = T.Tensor(rng.fill_uniform((3,), -0.5, 0.5), requires_grad=True)

        def f(params):
            return T.mean_all(square(T.conv2d(*params)))

        assert T.finite_diff_check(f, [x, kernel, bias]) < 1e-6
