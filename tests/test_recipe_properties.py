"""Property test: every ToyEnhancer recipe is refused by name or works end to end.

Hypothesis draws ``widths``, ``adr_blocks``, ``adr_dims`` (D_e >= 2, D_k up
to 11), ``dyn_candidates`` and the image size.  A recipe is either refused
with a ``ConfigurationError`` naming the argument at fault, or it trains for
3 steps, resumes from every stage's recorded input to the forward's output,
re-saves byte-identically, and scores ``dmr`` terms equal to a whole forward
of each ``reset_layer`` copy.  Odd kernel and embedding sizes also drive the
fused generator through shapes the fixed tests do not.  Needs Hypothesis;
the module is skipped where it is not installed.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from redlab.checkpoint import load_model, save_model  # noqa: E402
from redlab.datagen import make_corpus  # noqa: E402
from redlab.enhancer import ToyEnhancer, train  # noqa: E402
from redlab.errors import ConfigurationError  # noqa: E402
from redlab.redundancy import default_selectors, dmr, psnr, reset_layer  # noqa: E402
from redlab.rng import Rng, child_seed  # noqa: E402

ARGUMENTS = ("widths", "adr_blocks", "adr_dims", "dyn_candidates")


@st.composite
def recipes(draw):
    """(ToyEnhancer keyword arguments, image height, image width)."""
    kw = {
        "widths": (draw(st.integers(0, 4)), draw(st.integers(1, 4))),
        "adr_blocks": (draw(st.booleans()), draw(st.booleans())),
        "adr_dims": (draw(st.integers(1, 6)), draw(st.integers(2, 5)), draw(st.integers(1, 11))),
        "dyn_candidates": draw(st.integers(0, 3)),
    }
    return kw, draw(st.sampled_from((8, 12))), draw(st.sampled_from((8, 12, 16)))


def save_bytes(model, root: Path, name: str) -> bytes:
    save_model(model, str(root / name))
    return (root / f"{name}.json").read_bytes() + (root / f"{name}.bin").read_bytes()


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(case=recipes())
def test_recipe_is_refused_by_name_or_works(case):
    kw, h, w = case
    try:
        model = ToyEnhancer(Rng(0), **kw)
    except ConfigurationError as exc:
        assert any(name in str(exc) for name in ARGUMENTS), str(exc)
        return
    pairs = make_corpus(1, 2, h, w)
    assert len(train(model, pairs, steps=3, seed=2).loss_history) == 3
    model.freeze()

    lows = [p.low for p in pairs]
    seen = {}
    want = model.forward(lows[0], seen.__setitem__).data
    for k, (path, _) in enumerate(model.stages):
        assert np.array_equal(model.resume(seen[path], k).data, want), k

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        first = save_bytes(model, root, "a")
        assert save_bytes(load_model(str(root / "a")), root, "b") == first

    selectors = default_selectors(model)
    report = dmr(model, selectors, lows, seed=3)
    for i, sel in enumerate(selectors):
        probe = reset_layer(model, sel, Rng(child_seed(3, i)))
        for j, x in enumerate(lows):
            assert report.terms[i, j] == psnr(model.forward(x), probe.forward(x)), sel.path
