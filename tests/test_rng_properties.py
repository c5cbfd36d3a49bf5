"""Property tests: bulk RNG fills equal the scalar draws they replace.

Needs Hypothesis; the module is skipped where it is not installed, and the
fixed-value RNG tests in ``test_rng.py`` run either way.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from redlab.rng import _LANE_MIN_DRAWS, Rng  # noqa: E402

# Fill sizes around the lane kernel's edges: tiny fills, lane-width
# boundaries, powers of two +-1 on both sides of the scalar/lane crossover,
# and one 64x64 RGB normal fill's worth of draws.  Fills longer than one
# chunk are covered in test_rng.py.
FILL_SIZES = sorted(
    {0, 1, 2, 3, 63, 64, 65, 24576}
    | {2**k + d for k in range(2, 15) for d in (-1, 1)}
    | {_LANE_MIN_DRAWS + d for d in (-1, 0, 1)}
)


@st.composite
def fill_shapes(draw):
    """A shape whose element count is one of FILL_SIZES."""
    n = draw(st.sampled_from(FILL_SIZES))
    if n == 0:
        return draw(st.sampled_from([(0,), (0, 3), (3, 0), (2, 0, 4)]))
    if n == 1:
        return draw(st.sampled_from([(), (1,), (1, 1)]))
    lead = draw(st.sampled_from([d for d in (1, 2, 3, 4, 8) if n % d == 0]))
    return (n,) if lead == 1 else (lead, n // lead)


seeds = st.integers(min_value=0, max_value=2**64 - 1)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    seed=seeds,
    shape=fill_shapes(),
    lo=st.floats(-10.0, 10.0),
    width=st.floats(1e-3, 10.0),
)
def test_fill_uniform_equals_scalar_draws(seed, shape, lo, width):
    hi = lo + width
    bulk, twin = Rng(seed), Rng(seed)
    got = bulk.fill_uniform(shape, lo, hi)
    n = int(np.prod(shape))
    want = [lo + (hi - lo) * twin.next_double() for _ in range(n)]
    assert got.shape == shape and got.dtype == np.float64
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert bulk.next_u64() == twin.next_u64()


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(seed=seeds, shape=fill_shapes(), sigma=st.floats(1e-3, 10.0))
def test_fill_normal_equals_scalar_draws(seed, shape, sigma):
    bulk, twin = Rng(seed), Rng(seed)
    got = bulk.fill_normal(shape, sigma)
    n = int(np.prod(shape))
    want = [twin.normal(sigma) for _ in range(n)]
    assert got.shape == shape and got.dtype == np.float64
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert bulk.next_u64() == twin.next_u64()
