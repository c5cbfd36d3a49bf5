"""Determinism and distribution checks for the pseudorandom generator."""

import hashlib
import math
import tracemalloc
import types
from decimal import Decimal, localcontext

import numpy as np
import pytest

from redlab import rng as rng_module
from redlab.rng import (
    _FILL_CHUNK,
    _LANE_MIN_DRAWS,
    Rng,
    _jump,
    _jump_table,
    _step_lanes,
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

    def test_next_below_full_u64_range(self):
        """n = 2**64 accepts every draw and returns it unchanged."""
        r, twin = Rng(29), Rng(29)
        assert [r.next_below(2**64) for _ in range(5)] == [
            twin.next_u64() for _ in range(5)
        ]

    @pytest.mark.parametrize("n", [0, -3, 2**64 + 1, 2**65])
    def test_next_below_out_of_range_rejected(self, n):
        """n outside [1, 2**64] raises before drawing (n > 2**64 used to hang)."""
        r = Rng(29)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            r.next_below(n)
        assert r.next_u64() == Rng(29).next_u64()

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
            assert [int(x) for x in _jump(_jump_table(j), state)[0]] == r._s

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

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0, 2), 0])
    def test_zero_size_fill_leaves_stream_untouched(self, shape):
        r = Rng(13)
        assert r.fill_uniform(shape, 0.0, 1.0).shape == np.empty(shape).shape
        assert r.fill_normal(shape, 1.0).shape == np.empty(shape).shape
        assert r.next_u64() == Rng(13).next_u64()

    @pytest.mark.parametrize("shape", [(-1,), (2, -3), (-600,), (-2, -3)])
    def test_negative_shape_rejected(self, shape):
        """Refused before any draw, also where the dimensions multiply to a positive size."""
        r = Rng(13)
        with pytest.raises(ValueError):
            r.fill_uniform(shape, 0.0, 1.0)
        with pytest.raises(ValueError):
            r.fill_normal(shape, 1.0)
        assert r.next_u64() == Rng(13).next_u64()

    @pytest.mark.parametrize("shape", [(2.5, 2), 4.0])
    def test_float_shape_rejected_before_drawing(self, shape):
        r = Rng(13)
        with pytest.raises(TypeError):
            r.fill_uniform(shape, 0.0, 1.0)
        with pytest.raises(TypeError):
            r.fill_normal(shape, 1.0)
        assert r.next_u64() == Rng(13).next_u64()

    def test_cached_tables_stay_under_one_mib(self, monkeypatch):
        """Every lane length's jump tables together fit in 1 MiB.

        Nibble tables are 32 KB a power; 8-bit ones (256 KB) would pass 1 MiB
        by the fifth power and show in the benchmark's peak RSS.
        """
        monkeypatch.setattr(rng_module, "_JUMP_TABLES", {})
        for n in lane_fill_sizes():
            Rng(n)._lane_u64(n)
        tables = rng_module._JUMP_TABLES.values()
        assert tables
        assert sum(t.nbytes for t in tables) <= 1 << 20

    def test_large_fill_temporaries_stay_small(self):
        """Chunking bounds a fill's temporaries: a (3, 512, 512) normal fill
        (a 6.3 MB output) peaks below 2.5 times its output's bytes."""
        tracemalloc.start()
        try:
            out = Rng(17).fill_normal((3, 512, 512), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * out.nbytes


def lane_fill_sizes() -> list:
    """The largest lane-kernel fill of each bit length, up to 2 * _FILL_CHUNK.

    A ``fill_normal`` chunk draws 2 * _FILL_CHUNK values.  The lane length
    depends on n only through its bit length, and the largest n of a bit
    length has the most lanes, so these fills need every jump power that
    any fill can.
    """
    top = 2 * _FILL_CHUNK
    sizes = [(1 << b) - 1 for b in range(_LANE_MIN_DRAWS.bit_length(), top.bit_length())]
    return sizes + [top]


def requested_powers(monkeypatch) -> list:
    """Every j whose table the lane kernel uses on a fill of lane_fill_sizes().

    Spies on ``_jump_table`` from an empty cache, so the powers come from the
    kernel's own lane-length rule; building table j asks for j - 1 too.
    """
    seen = set()
    build = rng_module._jump_table

    def spy(j):
        seen.add(j)
        return build(j)

    monkeypatch.setattr(rng_module, "_JUMP_TABLES", {})
    monkeypatch.setattr(rng_module, "_jump_table", spy)
    for n in lane_fill_sizes():
        Rng(n)._lane_u64(n)
    return sorted(seen)


def _apply(rows: np.ndarray, states: np.ndarray) -> np.ndarray:
    """GF(2) product of a packed bit matrix with each of B packed states.

    The jump product the nibble tables replaced, kept as their oracle.
    ``rows`` is (256, 4) little-endian words, row r holding the input bits
    that output bit r sums; ``states`` is (B, 4).  Returns (B, 4).
    """
    acc = states[:, None, 0] & rows[:, 0]
    for w in range(1, 4):
        acc ^= states[:, None, w] & rows[:, w]
    # Parity of each word by folding halves (np.bitwise_count needs NumPy 2).
    for shift in (32, 16, 8, 4, 2, 1):
        acc ^= acc >> shift
    parity = (acc & 1).astype(np.uint8)
    return np.packbits(parity, axis=1, bitorder="little").view("<u8")


def _transpose(m: np.ndarray) -> np.ndarray:
    """Transpose a 256x256 bit matrix held as (256, 4) packed words."""
    bits = np.unpackbits(m.view(np.uint8), axis=1, bitorder="little")
    return np.packbits(bits.T.copy(), axis=1, bitorder="little").view("<u8")


_JUMP_ROWS: dict = {}


def _jump_rows(j: int) -> np.ndarray:
    """M^(2^j) as packed rows, squared from M's rows as the replaced cache did."""
    if j not in _JUMP_ROWS:
        if j == 0:
            cols = np.zeros((4, 256), dtype="<u8")
            for i in range(256):
                cols[i // 64, i] = 1 << (i % 64)
            _step_lanes(cols, np.empty(256, dtype="<u8"))
            _JUMP_ROWS[j] = _transpose(np.ascontiguousarray(cols.T))
        else:
            half = _jump_rows(j - 1)
            _JUMP_ROWS[j] = _transpose(_apply(half, _transpose(half)))
    return _JUMP_ROWS[j]


class TestJumpOracle:
    """The nibble-table jump against stepping and the packed-row product."""

    def test_powers_cover_the_lane_kernel(self, monkeypatch):
        """Powers run from 0 to the last doubling of the largest fill.

        That doubling jumps half of a 2 * _FILL_CHUNK-draw fill ahead.
        """
        powers = requested_powers(monkeypatch)
        assert powers == list(range(len(powers)))
        assert 1 << powers[-1] == _FILL_CHUNK

    def test_tables_equal_scalar_steps(self, monkeypatch):
        """M^(2^j) applied to a state equals 2^j ``next_u64`` calls."""
        for j in requested_powers(monkeypatch):
            r = Rng(100 + j)
            state = np.array([r._s], dtype="<u8")
            for _ in range(2**j):
                r.next_u64()
            assert [int(x) for x in _jump(_jump_table(j), state)[0]] == r._s

    def test_tables_equal_packed_rows(self, monkeypatch):
        """The table product equals the packed-row parity product, word for word."""
        r = Rng(7)
        states = np.array(
            [[r.next_u64() for _ in range(4)] for _ in range(61)]
            + [[0, 0, 0, 0], [2**64 - 1] * 4, [1, 0, 0, 1 << 63]],
            dtype="<u8",
        )
        for j in requested_powers(monkeypatch):
            got = _jump(_jump_table(j), states)
            assert got.tobytes() == _apply(_jump_rows(j), states).tobytes()


def mapped_cos(x: np.ndarray) -> np.ndarray:
    """``math.cos`` of each element: the cosine ``Rng.normal`` takes, and the
    form ``np.cos`` replaced in ``fill_normal``."""
    return np.fromiter(map(math.cos, x.tolist()), np.float64, x.size)


class TestCosineOracle:
    """``np.cos`` against ``math.cos``, byte for byte.

    ``fill_normal`` takes its cosine from NumPy's float64 loop, which calls
    the C library's ``cos`` as ``math.cos`` (and so ``Rng.normal``) does; a
    NumPy whose loop rounds differently fails here by name, beside the
    goldens and the lane-kernel fills that compare with ``Rng.normal``.
    """

    def test_golden_fill_arguments(self):
        """Every cosine argument of the (3, 64, 64) normal golden."""
        d = Rng(1)._doubles(2 * 3 * 64 * 64)
        x = 2.0 * math.pi * d[1::2]
        assert np.cos(x).tobytes() == mapped_cos(x).tobytes()

    def test_rng_arguments(self):
        """2^20 arguments 2 pi u, contiguous and strided."""
        x = 2.0 * math.pi * Rng(20)._doubles(1 << 20)
        assert np.cos(x).tobytes() == mapped_cos(x).tobytes()
        assert np.cos(x[1::3]).tobytes() == mapped_cos(x[1::3]).tobytes()

    def test_edge_arguments(self):
        """Signed zeros, the double 2 pi and the one below it, the largest
        argument a fill forms, and the doubles around each k pi / 4
        (k = 0..8), where the cosine is +-1, 0 or +-sqrt(2) / 2."""
        x = [0.0, -0.0, 2.0 * math.pi, 2.0 * math.pi * (1.0 - 2.0**-53)]
        x.append(float(np.nextafter(2.0 * math.pi, 0.0)))
        for k in range(9):
            c = k * math.pi / 4
            x += [float(np.nextafter(c, -1.0)), c, float(np.nextafter(c, 8.0))]
        x = np.array(x)
        assert np.cos(x).tobytes() == mapped_cos(x).tobytes()


def mapped_log(u: np.ndarray) -> np.ndarray:
    """``math.log`` of each element: the logarithm ``Rng.normal`` takes, and the
    form ``_log`` replaced in ``fill_normal``."""
    return np.fromiter(map(math.log, u.tolist()), np.float64, u.size)


def fallback_arguments(monkeypatch, u: np.ndarray) -> tuple:
    """``_log(u)``, and the arguments its rounding check sent to ``math.log``."""
    seen = []

    def spy(x):
        seen.append(x)
        return math.log(x)

    with monkeypatch.context() as m:
        m.setattr(rng_module, "math", types.SimpleNamespace(log=spy))
        got = rng_module._log(u)
    return got, seen


def is_power_of_two(y: np.ndarray) -> np.ndarray:
    return (y.view(np.uint64) & np.uint64((1 << 52) - 1)) == 0


def ulps_to_nearer_double(x: float) -> Decimal:
    """How far the exact log(x) lies from the nearer double, in the spacing
    between that double and its neighbour on the log's side."""
    with localcontext() as ctx:
        ctx.prec = 50
        exact = Decimal(x).ln()
        y = float(exact)
        side = float(np.nextafter(y, 2.0 * float(exact) if exact < Decimal(y) else 0.0))
        return abs(exact - Decimal(y)) / abs(Decimal(side) - Decimal(y))


def edge_log_arguments() -> np.ndarray:
    """1, the double below it, 2^-k (k = 1..53), and the 129 doubles around
    each e^-(2^j) (j = -3..5), whose logs sit next to a power of two."""
    x = [1.0, 1.0 - 2.0**-53] + [2.0**-k for k in range(1, 54)]
    for j in range(-3, 6):
        bits = np.float64(math.exp(-(2.0**j))).view(np.int64) + np.arange(-64, 65)
        x += bits.view(np.float64).tolist()
    return np.array(x)


# Arguments whose exact log (decimal, 50 digits) lies 0.48-0.5 ulp from the
# nearer double: drawn from 1 - Rng(4242)'s first 2^22 doubles, except the
# last, whose log lies 0.487 of the half-width spacing above -32.  For the
# first 16, glibc 2.36's log returns the farther double, and for all but the
# first and third of those, rounding the extended log alone gives the nearer.
HARD_LOG_ARGUMENTS = [float.fromhex(h) for h in (
    "0x1.2d66c0e21d838p-2", "0x1.33dc5049ec3f4p-2", "0x1.9a957b554c238p-2",
    "0x1.da078ea98509ap-2", "0x1.1a018d2ec53b2p-1", "0x1.2a3fe7a3b8916p-1",
    "0x1.51aa8dbf51911p-1", "0x1.52153512bc3e3p-1", "0x1.71e67d6b1b41ep-1",
    "0x1.7e0c0b2c8df51p-1", "0x1.9c3f5ad9af4c1p-1", "0x1.b196723e90d67p-1",
    "0x1.d268a0bda2ca2p-1", "0x1.de014c5a53d71p-1", "0x1.e9ca214fa7ef9p-1",
    "0x1.fc93bbea57668p-1",
    "0x1.ca563af770638p-4", "0x1.548f621803e48p-2", "0x1.9282f7e03bd50p-1",
    "0x1.c49bd6e257037p-1", "0x1.c8464f7616476p-47",
)]


class TestLogOracle:
    """``_log`` against ``math.log``, byte for byte.

    ``fill_normal`` takes its logarithm from ``_log``: an extended-precision
    ``np.log`` whose rounding is kept where a rounding check proves it equals
    the C library's ``log``, and ``math.log`` elsewhere.  A platform whose
    ``logl`` or ``log`` errs past the bounds the check relies on fails here
    by name, beside the goldens and the lane-kernel fills that compare with
    ``Rng.normal``.
    """

    def test_golden_fill_arguments(self):
        """Every log argument of the (3, 64, 64) normal golden."""
        u = 1.0 - Rng(1)._doubles(2 * 3 * 64 * 64)[0::2]
        assert rng_module._log(u).tobytes() == mapped_log(u).tobytes()

    def test_rng_arguments(self):
        """2^20 arguments 1 - u, contiguous and strided."""
        u = 1.0 - Rng(21)._doubles(1 << 20)
        assert rng_module._log(u).tobytes() == mapped_log(u).tobytes()
        assert rng_module._log(u[1::3]).tobytes() == mapped_log(u[1::3]).tobytes()

    def test_edge_arguments(self, monkeypatch):
        """Every argument whose log is a power of two takes ``math.log``."""
        u = edge_log_arguments()
        want = mapped_log(u)
        got, seen = fallback_arguments(monkeypatch, u)
        assert got.tobytes() == want.tobytes()
        at_powers = u[is_power_of_two(want)]
        assert len(at_powers) > 9
        assert set(at_powers.tolist()) <= set(seen)

    def test_hard_arguments(self, monkeypatch):
        """Logs within 0.02 ulp of a rounding boundary all take ``math.log``."""
        for x in HARD_LOG_ARGUMENTS:
            assert Decimal("0.48") <= ulps_to_nearer_double(x) <= Decimal("0.5"), x.hex()
        u = np.array(HARD_LOG_ARGUMENTS)
        got, seen = fallback_arguments(monkeypatch, u)
        assert got.tobytes() == mapped_log(u).tobytes()
        assert seen == HARD_LOG_ARGUMENTS

    def test_without_extended_precision(self, monkeypatch):
        """With the format guard off, every element takes ``math.log``."""
        monkeypatch.setattr(rng_module, "_LOG_DTYPE", np.float64)
        monkeypatch.setattr(rng_module, "_LOG_TOL", 0.0)
        golden = 1.0 - Rng(1)._doubles(2 * 3 * 64 * 64)[0::2]
        for u in (golden, edge_log_arguments(), np.array(HARD_LOG_ARGUMENTS)):
            got, seen = fallback_arguments(monkeypatch, u)
            assert got.tobytes() == mapped_log(u).tobytes()
            assert seen == u.tolist()
