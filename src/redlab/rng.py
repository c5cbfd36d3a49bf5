"""Deterministic pseudo-random numbers.

The generator is xoshiro256** seeded through splitmix64.  The scalar
methods run the recurrence on Python integers, so the draw sequence is
bit-identical for a given seed on every platform and interpreter.  All
stochastic behaviour in the library (initialization, data synthesis,
parameter resets, shuffling) flows through this module; nothing uses
``random`` or ``numpy.random``.

Array fills draw the same stream as repeated scalar calls, but in bulk.
Small fills run the scalar recurrence inlined on local variables.  Larger
fills split their n draws into K lanes of L consecutive draws each and step
every lane at once with ``uint64`` array operations.  This gives the same
bits because the xoshiro state update is linear over GF(2): one step is a
fixed 256x256 bit matrix M acting on the 256-bit state, so the state m
steps ahead is M^m times the current one.  L is a power of two, and lane k
starts at M^(k L) applied to the current state.  The lane starts are seeded
by doubling: lanes [2^t, 2^(t+1)) are M^(L 2^t) applied to lanes [0, 2^t).
Each M^(2^j) is kept as a nibble table of 32 KB: for each of the state's 64
four-bit nibbles, the images of its 16 values, so a product is 64 row
lookups XORed together.  Table 0 is built from one step of the 256 unit
states and table j by applying table j - 1 twice to them, on first use.
Timed on 2 vCPUs, a 24576-draw lane fill takes 0.7 ms, 0.3 of them for the
lane starts.  Lane-major order of the outputs is then exactly the scalar
order, the state after draw n is read off the lane that holds it, and the
floating-point transforms use the scalar methods' operations in the scalar
order.  The normal fill's cosine is ``np.cos``, whose float64 loop calls
the C library's ``cos``, as ``math.cos`` does, so the two agree bit for
bit; ``TestCosineOracle`` in ``tests/test_rng.py`` checks that on the
NumPy the tests run on.  NumPy's float64 ``log`` loop is its own
implementation, and it rounded 3,446 of 10^6 uniform arguments
differently from ``math.log``, so the logarithm uses Ziv's rounding test
(A. Ziv, ACM TOMS 17(3), 1991) instead.  ``np.log`` on x87 extended
(64-bit mantissa) long doubles calls the C library's ``logl``, whose error
is about 0.001 of a double ulp, and its exact residual to the nearest
double y says how far the logarithm lies from y.  glibc's and musl's
``log`` document a worst-case error of 0.519 ulp, so where the logarithm
lies within 0.481 ulp of y, ``log`` returns y.  An element keeps y when
the residual is below 0.46875 ulp and y is not a power of two (just above
a power of two in magnitude, the spacing toward zero is half as wide);
the rest, 6% of uniform arguments, take ``math.log``.  Where long double
is not the x87 format the tolerance is 0, and every element takes
``math.log``.  ``TestLogOracle`` checks the bytes against ``math.log``.
At (3, 64, 64) on 2 vCPUs the mapped ``math.cos`` took 1.0-1.7 ms and
``np.cos`` 0.4 ms; the mapped ``math.log`` 1.4-2.6 ms and the checked
extended log 1.0-1.2 ms.  A fill is drawn 65536 elements at a time; each
chunk starts where the last one left the stream, so chunking changes no
value and keeps the temporaries of a large fill to a few MB.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Fills of fewer draws than this run the inlined scalar recurrence: below
# it, the lane kernel's fixed cost per step and per jump is the larger.
# Timed on 2 vCPUs, the two cost the same at 384 draws (0.40 ms); at 320
# the scalar loop is 13% faster, at 448 the lanes are 14% faster.
_LANE_MIN_DRAWS = 384

# Array fills are drawn and transformed this many elements at a time, so a
# large fill's temporaries stay a bounded few MB beside its output.
_FILL_CHUNK = 1 << 16

# The normal fill's logarithm is taken in this dtype, and an element keeps
# its rounding when the residual is below this many ulps of the result.
# Without x87 extended long doubles the tolerance is 0, so every element
# takes math.log (and a float64 log costs little beside it).
_LOG_DTYPE, _LOG_TOL = (
    (np.longdouble, 0.46875) if np.finfo(np.longdouble).nmant == 63 else (np.float64, 0.0)
)
_MANTISSA = np.uint64((1 << 52) - 1)


def splitmix64(x: int) -> int:
    """One splitmix64 step: the first output of the stream seeded with x.

    Also used as the mixing function for deriving independent child seeds:
    ``child_seed(parent, index)`` below.
    """
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_seed(parent: int, index: int) -> int:
    """Derive a reproducible, well-separated seed for sub-stream `index`."""
    return splitmix64((parent ^ index) & _MASK64)


def _log(u: np.ndarray) -> np.ndarray:
    """``math.log`` of each element of u, a float64 array in (0, 1].

    The extended log rounds to the double ``log`` returns wherever its
    residual passes the rounding check; elements that fail it, and powers
    of two, are recomputed with ``math.log``.
    """
    ext = np.log(u.astype(_LOG_DTYPE))
    y = ext.astype(np.float64)
    # ext - y is exact (Sterbenz), and short enough to be a double
    residual = np.abs((ext - y).astype(np.float64))
    close = residual >= _LOG_TOL * np.abs(np.spacing(y))
    # a power of two: the spacing toward zero is half the one np.spacing gives
    close |= (y.view(np.uint64) & _MANTISSA) == 0
    at = np.flatnonzero(close)
    y[at] = list(map(math.log, u[at].tolist()))
    return y


def _step_lanes(s: np.ndarray, t: np.ndarray) -> None:
    """One xoshiro256** state update of every lane of s (4, K), in place.

    ``t`` is a (K,) scratch buffer.
    """
    s0, s1, s2, s3 = s
    np.left_shift(s1, 17, out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, 45, out=t)
    s3 >>= 19
    s3 |= t


# The first row of each nibble's 16 in a table, laid out as a state's
# little-endian bytes split into (low, high) nibbles.
_NIBBLE_ROWS = 16 * np.arange(64, dtype=np.intp).reshape(32, 2, 1)


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """GF(2) product of a jump matrix with each of B states (B, 4) words.

    ``table`` is the matrix's (1024, 4) nibble table: row 16 p + v is the
    image of the state whose bits 4p..4p+3 hold v and whose other bits are
    zero.  A state's image is the XOR of its 64 nibbles' rows, gathered
    nibble-major so the XOR runs over whole (B, 4) blocks.
    """
    b = states.view(np.uint8).T
    idx = np.empty((32, 2, len(states)), dtype=np.intp)
    np.bitwise_and(b, 15, out=idx[:, 0])
    np.right_shift(b, 4, out=idx[:, 1])
    idx += _NIBBLE_ROWS
    rows = np.take(table, idx.reshape(64, len(states)), axis=0)
    return np.bitwise_xor.reduce(rows, axis=0)


# The 256 unit states e_i, as (256, 4) words.
_UNITS = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little").view("<u8")

# _JUMP_TABLES[j] holds M^(2^j) as a nibble table (32 KB).  Entries are pure
# functions of j, so filling the cache concurrently can only store equal
# values.
_JUMP_TABLES: dict = {}


def _jump_table(j: int) -> np.ndarray:
    table = _JUMP_TABLES.get(j)
    if table is None:
        if j == 0:
            # Column i of M is one step applied to the unit state e_i.
            cols = np.ascontiguousarray(_UNITS.T)
            _step_lanes(cols, np.empty(256, dtype="<u8"))
            cols = cols.T
        else:
            half = _jump_table(j - 1)
            cols = _jump(half, _jump(half, _UNITS))
        # Row v of nibble p is the XOR of the columns 4p + k of v's set bits
        # k, built by doubling: rows [2^k, 2^(k+1)) are rows [0, 2^k) XOR
        # column 4p + k.
        table = np.zeros((64, 16, 4), dtype="<u8")
        for k in range(4):
            table[:, 1 << k : 2 << k] = table[:, : 1 << k] ^ cols[k::4, None]
        _JUMP_TABLES[j] = table = table.reshape(1024, 4)
    return table


class Rng:
    """xoshiro256** stream with splitmix64 state expansion."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        self._s = [splitmix64((seed + k * _GOLDEN) & _MASK64) for k in range(4)]

    def next_u64(self) -> int:
        return self._scalar_u64(1)[0]

    def _doubles(self, n: int) -> np.ndarray:
        """The next n ``next_double`` values, drawn in bulk."""
        if n < _LANE_MIN_DRAWS:
            u = np.array(self._scalar_u64(n), dtype=np.uint64)
        else:
            u = self._lane_u64(n)
        return (u >> 11).astype(np.float64) * (2.0 ** -53)

    def _scalar_u64(self, n: int) -> list:
        """The next n draws of the recurrence, run on local variables."""
        mask = _MASK64
        s0, s1, s2, s3 = self._s
        out = [0] * n
        for i in range(n):
            r = (s1 * 5) & mask
            out[i] = ((((r << 7) | (r >> 57)) & mask) * 9) & mask
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask
        self._s = [s0, s1, s2, s3]
        return out

    def _lane_u64(self, n: int) -> np.ndarray:
        """The next n ``next_u64`` values from K lanes of L steps each."""
        # L near sqrt(n)/4 balances the fixed cost of each array step
        # against the cost of jumping each lane to its start.  Timed over
        # L = 2^3..2^8 at fill sizes from 384 to 131072 draws, this rule
        # picks the fastest L or one within 10% of it.
        log_l = max(4, (n.bit_length() - 4) // 2)
        steps = 1 << log_l
        lanes = -(-n // steps)
        starts = np.empty((lanes, 4), dtype="<u8")
        starts[0] = self._s
        filled, t = 1, 0
        while filled < lanes:
            count = min(filled, lanes - filled)
            starts[filled : filled + count] = _jump(
                _jump_table(log_l + t), starts[:count]
            )
            filled += count
            t += 1
        s = np.ascontiguousarray(starts.T)
        tmp = np.empty(lanes, dtype=np.uint64)
        out = np.empty((steps, lanes), dtype=np.uint64)
        last, at = divmod(n, steps)
        if at == 0:
            # The state after draw n is where the last lane ends.
            last, at = lanes - 1, steps
        for step in range(steps):
            out[step] = s[1]
            _step_lanes(s, tmp)
            if step + 1 == at:
                self._s = [int(x) for x in s[:, last]]
        # Scramble every saved s1 at once: rotl(s1 * 5, 7) * 9.
        u = out.T.ravel()[:n]
        u *= 5
        rot = u << 7
        u >>= 57
        u |= rot
        u *= 9
        return u

    def next_double(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_double()

    def fill_uniform(self, shape, lo: float, hi: float) -> np.ndarray:
        """Row-major array of i.i.d. uniforms in [lo, hi).

        Equal to ``uniform(lo, hi)`` called once per element in row-major
        order, and leaves the stream where those calls would.
        """
        out = np.empty(shape, dtype=np.float64)  # refuses a bad shape before any draw
        flat = out.reshape(-1)
        for start in range(0, flat.size, _FILL_CHUNK):
            m = min(flat.size - start, _FILL_CHUNK)
            flat[start : start + m] = lo + (hi - lo) * self._doubles(m)
        return out

    def normal(self, sigma: float = 1.0) -> float:
        """One N(0, sigma^2) draw via Box-Muller (two uniforms per draw)."""
        u1 = 1.0 - self.next_double()  # (0, 1]: keeps the log finite
        u2 = self.next_double()
        return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def fill_normal(self, shape, sigma: float = 1.0) -> np.ndarray:
        """Row-major array of ``normal(sigma)`` draws, as repeated calls give."""
        out = np.empty(shape, dtype=np.float64)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _FILL_CHUNK):
            m = min(flat.size - start, _FILL_CHUNK)
            d = self._doubles(2 * m)
            log_u1 = _log(1.0 - d[0::2])
            cos_u2 = np.cos(2.0 * math.pi * d[1::2])
            flat[start : start + m] = sigma * np.sqrt(-2.0 * log_u1) * cos_u2
        return out

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias, for 1 <= n <= 2**64."""
        if not 0 < n <= _MASK64 + 1:
            raise ValueError(f"n must be in [1, 2**64], got {n}")
        threshold = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            v = self.next_u64()
            if v < threshold:
                return v % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
