"""Determinism and distribution checks for the pseudorandom generator."""

import hashlib

import numpy as np
import pytest

from redlab.rng import (
    _FILL_CHUNK,
    _LANE_MIN_DRAWS,
    Rng,
    _apply,
    _jump_rows,
    child_seed,
    splitmix64,
)


class TestSplitmix64:
    def test_reference_vectors(self):
        """First three outputs of the reference stream seeded with 0."""
        gamma = 0x9E3779B97F4A7C15
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(gamma) == 0x6E789E6AA1B965F4
        assert splitmix64((2 * gamma) % (1 << 64)) == 0x06C45D188009454F

    def test_output_range(self):
        """Outputs stay within 64 bits for arbitrary inputs."""
        for x in [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF]:
            y = splitmix64(x)
            assert 0 <= y < 2**64

    def test_child_seed_formula(self):
        """child_seed is splitmix64 of parent XOR index."""
        for parent in [0, 7, 2**40 + 3]:
            for index in [0, 1, 99]:
                assert child_seed(parent, index) == splitmix64(parent ^ index)

    def test_child_seed_spreads_indices(self):
        """Consecutive indices under one parent give distinct seeds."""
        seeds = {child_seed(42, i) for i in range(100)}
        assert len(seeds) == 100


class TestRngStreams:
    def test_same_seed_same_stream(self):
        """Equal seeds reproduce the exact u64 stream."""
        for seed in [0, 1, 31337, 2**50]:
            a, b = Rng(seed), Rng(seed)
            assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_known_first_outputs(self):
        """Golden first outputs for seed 0 (regression pin)."""
        r = Rng(0)
        assert [r.next_u64() for _ in range(4)] == [
            0x99EC5F36CB75F2B4,
            0xBF6E1F784956452A,
            0x1A5F849D4933E6E0,
            0x6AA594F1262D2D2C,
        ]

    def test_distinct_seeds_diverge(self):
        """Different seeds give different streams almost surely."""
        a = [Rng(1).next_u64() for _ in range(8)]
        b = [Rng(2).next_u64() for _ in range(8)]
        assert a != b

    def test_double_unit_interval(self):
        """next_double lands in [0, 1)."""
        r = Rng(9)
        for _ in range(2000):
            d = r.next_double()
            assert 0.0 <= d < 1.0

    def test_uniform_bounds(self):
        """uniform(lo, hi) respects its half-open interval."""
        r = Rng(5)
        for _ in range(1000):
            v = r.uniform(-2.5, 0.25)
            assert -2.5 <= v < 0.25

    def test_fill_uniform_shape_dtype(self):
        """fill_uniform produces a float64 array of the requested shape."""
        arr = Rng(3).fill_uniform((4, 5, 2), 0.0, 1.0)
        assert arr.shape == (4, 5, 2)
        assert arr.dtype == np.float64
        assert np.all((arr >= 0.0) & (arr < 1.0))

    def test_fill_uniform_row_major_order(self):
        """Array fill consumes the scalar stream in row-major order."""
        flat = Rng(11).fill_uniform((6,), 0.0, 1.0)
        arr = Rng(11).fill_uniform((2, 3), 0.0, 1.0)
        assert np.array_equal(arr.reshape(-1), flat)

    def test_normal_moments(self):
        """Box-Muller normals have roughly the right mean and spread."""
        draws = Rng(17).fill_normal((20000,), 2.0)
        assert abs(draws.mean()) < 0.05
        assert abs(draws.std() - 2.0) < 0.05

    def test_next_below_range_and_coverage(self):
        """next_below(n) stays in [0, n) and hits every residue."""
        r = Rng(23)
        seen = set()
        for _ in range(500):
            v = r.next_below(7)
            assert 0 <= v < 7
            seen.add(v)
        assert seen == set(range(7))

    def test_shuffle_is_permutation(self):
        """Shuffle rearranges without loss or duplication."""
        for seed in range(10):
            items = list(range(30))
            Rng(seed).shuffle(items)
            assert sorted(items) == list(range(30))

    def test_shuffle_deterministic(self):
        """Same seed shuffles identically."""
        a, b = list(range(20)), list(range(20))
        Rng(99).shuffle(a)
        Rng(99).shuffle(b)
        assert a == b

    def test_large_fill_goldens(self):
        """Regression pins for 64x64 RGB fills and the draw that follows."""
        r = Rng(0)
        arr = r.fill_uniform((3, 64, 64), -0.02, 0.02)
        assert hashlib.sha256(arr.tobytes()).hexdigest() == (
            "2b64cb2564484f58cdc79a165e6516afc00562c0a7b59f74085bd5b63662fb25"
        )
        assert r.next_u64() == 0x90268AD0F89D1F6E
        r = Rng(1)
        arr = r.fill_normal((3, 64, 64), 0.03)
        assert hashlib.sha256(arr.tobytes()).hexdigest() == (
            "969732e32b99ece35d7656a2189a2b05877ee027694ab53b0ef17cc70ead3823"
        )
        assert r.next_u64() == 0x1C679DB0D0B2425D


class TestLaneKernel:
    """Bulk fills against the scalar stream they must reproduce."""

    def test_jump_tables_match_stepping(self):
        """M^(2^j) applied to a state equals 2^j scalar steps."""
        for j in range(11):
            r = Rng(j + 5)
            state = np.array([r._s], dtype="<u8")
            for _ in range(2**j):
                r.next_u64()
            assert [int(x) for x in _apply(_jump_rows(j), state)[0]] == r._s

    @pytest.mark.parametrize("draws", [-1, 0, 1])
    def test_fills_at_crossover_equal_scalar_draws(self, draws):
        """Fills just under, at and over the scalar/lane crossover."""
        n = _LANE_MIN_DRAWS + draws
        bulk, twin = Rng(n), Rng(n)
        got = bulk.fill_uniform((n,), 0.0, 1.0)
        want = [twin.next_double() for _ in range(n)]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        got = bulk.fill_normal((n // 2,), 1.0)
        want = [twin.normal(1.0) for _ in range(n // 2)]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        assert bulk.next_u64() == twin.next_u64()

    def test_fill_across_chunks_equals_scalar_draws(self):
        """A fill longer than one chunk continues the stream across chunks."""
        n = _FILL_CHUNK + 3
        bulk, twin = Rng(21), Rng(21)
        got = bulk.fill_uniform((n,), -1.0, 2.0)
        want = [-1.0 + 3.0 * twin.next_double() for _ in range(n)]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        got = bulk.fill_normal((n,), 0.5)
        want = [twin.normal(0.5) for _ in range(n)]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        assert bulk.next_u64() == twin.next_u64()

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0, 2)])
    def test_zero_size_fill_leaves_stream_untouched(self, shape):
        r = Rng(13)
        assert r.fill_uniform(shape, 0.0, 1.0).shape == shape
        assert r.fill_normal(shape, 1.0).shape == shape
        assert r.next_u64() == Rng(13).next_u64()

    @pytest.mark.parametrize("shape", [(-1,), (2, -3), (-600,)])
    def test_negative_shape_rejected(self, shape):
        r = Rng(13)
        with pytest.raises(ValueError):
            r.fill_uniform(shape, 0.0, 1.0)
        with pytest.raises(ValueError):
            r.fill_normal(shape, 1.0)
        assert r.next_u64() == Rng(13).next_u64()
