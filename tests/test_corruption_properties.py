"""Property test: byte-level damage to a checkpoint or corpus is malformed input.

Flipping any byte of a model's or a corpus's manifest or blob, truncating
the file at any length, or extending it, either still loads or raises
``ContractError``, which the CLI reports with exit 2.  No other exception
may escape the loaders.  Needs Hypothesis; the module is skipped where it
is not installed, and ``test_cli.py::TestMalformedInputs`` covers
hand-picked cases either way.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from redlab.checkpoint import load_model, save_model  # noqa: E402
from redlab.datagen import load_pairs, make_corpus, save_pairs  # noqa: E402
from redlab.enhancer import ToyEnhancer  # noqa: E402
from redlab.errors import ContractError  # noqa: E402
from redlab.rng import Rng  # noqa: E402

# file -> loader of the directory it sits in
LOADERS = {
    "model.json": lambda root: load_model(str(root / "model")),
    "model.bin": lambda root: load_model(str(root / "model")),
    "data/corpus.json": lambda root: load_pairs(str(root / "data")),
    "data/corpus.bin": lambda root: load_pairs(str(root / "data")),
}


def _originals() -> dict:
    """{file: bytes} of a small frozen ADR + dynconv model and a two-pair corpus.

    The model carries every meta field a corruption can reach.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        model = ToyEnhancer(Rng(0), widths=(4, 8), adr_blocks=(True, True),
                            adr_dims=(2, 4, 3), dyn_candidates=2)
        model.freeze()
        save_model(model, str(root / "model"))
        save_pairs(str(root / "data"), make_corpus(9, 2, 8, 8))
        return {name: (root / name).read_bytes() for name in LOADERS}


ORIGINALS = _originals()


@st.composite
def corruptions(draw):
    """(file, damaged bytes): one byte flipped, the file cut short, or extended."""
    name = draw(st.sampled_from(sorted(ORIGINALS)))
    data = ORIGINALS[name]
    how = draw(st.sampled_from(("flip", "truncate", "extend")))
    if how == "flip":
        i = draw(st.integers(0, len(data) - 1))
        mask = draw(st.integers(1, 255))
        return name, data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]
    if how == "truncate":
        return name, data[:draw(st.integers(0, len(data) - 1))]
    return name, data + draw(st.binary(min_size=1, max_size=16))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(case=corruptions())
def test_damaged_file_loads_or_raises_contract_error(case):
    name, damaged = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "data").mkdir()
        for other, data in ORIGINALS.items():
            (root / other).write_bytes(damaged if other == name else data)
        try:
            with np.errstate(all="ignore"):
                LOADERS[name](root)
        except ContractError:
            pass
