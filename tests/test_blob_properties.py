"""Property test: any list of float64 arrays survives a checkpoint round trip.

A load reads the blob into one buffer and turns each manifest entry's byte
offset into a slice of it.  Over random shape lists (rank 0, zero-size
arrays and single tensors included) and arbitrary bit patterns (NaN
payloads included), every array loads with its own bytes and a re-save of
what was loaded is byte-identical.  Needs Hypothesis; the module is skipped
where it is not installed, and ``test_checkpoint.py`` covers fixed cases
either way.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from redlab.checkpoint import load_tensors, save_tensors  # noqa: E402

shapes = st.lists(st.lists(st.integers(0, 4), max_size=3).map(tuple), min_size=1, max_size=5)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(shape_list=shapes, seed=st.integers(0, 2**32 - 1), fortran=st.booleans())
def test_random_shapes_round_trips(shape_list, seed, fortran):
    rng = np.random.default_rng(seed)
    named = []
    for i, shape in enumerate(shape_list):
        bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False)
        arr = bits.view(np.float64)
        named.append((f"t{i}", np.asfortranarray(arr) if fortran else arr))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_tensors(str(root / "a"), named, {"kind": "test"})
        tensors, meta = load_tensors(str(root / "a"))
        assert list(tensors) == [name for name, _ in named]
        for name, arr in named:
            assert tensors[name].shape == (arr.shape or (1,))
            assert tensors[name].tobytes() == arr.tobytes(order="C")
        save_tensors(str(root / "b"), list(tensors.items()), meta)
        for suffix in (".json", ".bin"):
            assert (root / ("a" + suffix)).read_bytes() == (root / ("b" + suffix)).read_bytes()
