"""Reset probing and the redundancy metric: PSNR anchors, reset semantics,
metric oracles, improvement fractions, sweeps, and report emission."""

import copy
import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest

from redlab.checkpoint import load_model, save_model
from redlab.datagen import make_corpus
from redlab.enhancer import ToyEnhancer, plan_size, train
from redlab.errors import ConfigurationError, ContractError, DimensionError, SelectorError
from redlab.redundancy import (
    LayerSelector,
    default_selectors,
    dmr,
    dmr_summary,
    mean_delta_by_kind,
    parse_selector,
    probe_sweep,
    psnr,
    reset_layer,
    resolve,
    write_probe_csv,
)
from redlab.rng import Rng, child_seed
from redlab.tensor import Tensor, init_zero
from composed import normalize_embeddings


def fresh_frozen_model():
    """An untrained, frozen ADR + dynconv model: every bias leaf is still zero,
    so a reset of one changes no parameter."""
    model = ToyEnhancer(Rng(120), adr_blocks=(True, True), dyn_candidates=3)
    model.freeze()
    return model


# bias leaves whose resets resume at the first point and the last
BIAS_PATHS = ["encoder.stage1.conv.bias", "head.bias"]


def trained_model(steps=60, adr=False):
    model = ToyEnhancer(Rng(100), adr_blocks=(adr, adr))
    pairs = make_corpus(101, 4, 8, 8)
    train(model, pairs, steps=steps, seed=102)
    model.freeze()
    return model, pairs


def images(seed, count, h=8, w=8):
    rng = Rng(seed)
    return [Tensor(rng.fill_uniform((3, h, w), 0.0, 1.0)) for _ in range(count)]


class TestPsnr:
    def test_hundredth_mse_is_twenty_db(self):
        """MSE 0.01 at unit peak is exactly 20 dB."""
        a = np.zeros((3, 4, 4))
        b = np.full((3, 4, 4), 0.1)
        assert abs(psnr(a, b, 1.0) - 20.0) < 1e-10

    def test_identical_images_hit_the_cap(self):
        a = np.linspace(0.0, 1.0, 48).reshape(3, 4, 4)
        assert psnr(a, a.copy(), 1.0) == 100.0

    def test_unit_mse_at_255_peak(self):
        """8-bit peak with unit MSE lands at 20 log10(255)."""
        a = np.zeros((2, 2))
        b = np.ones((2, 2))
        assert abs(psnr(a, b, 255.0) - 48.1308) < 1e-3

    def test_monotone_in_mse(self):
        """Smaller MSE never scores lower."""
        rng = Rng(0)
        base = rng.fill_uniform((3, 4, 4), 0.0, 1.0)
        for seed in range(10):
            r = Rng(seed + 1)
            na = base + r.fill_normal((3, 4, 4), 0.01)
            nb = base + r.fill_normal((3, 4, 4), 0.1)
            ma = float(np.mean((na - base) ** 2))
            mb = float(np.mean((nb - base) ** 2))
            lo, hi = (na, nb) if ma > mb else (nb, na)
            assert psnr(base, hi, 1.0) >= psnr(base, lo, 1.0)

    def test_contract_errors(self):
        with pytest.raises(DimensionError):
            psnr(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)
        with pytest.raises(ContractError):
            psnr(np.zeros((2, 2)), np.zeros((2, 2)), 0.0)


class TestResetLayer:
    def test_same_seed_gives_bit_identical_probe(self):
        model, _ = trained_model()
        sel = LayerSelector("decoder.block1.conv", "static")
        a = reset_layer(model, sel, Rng(5))
        b = reset_layer(model, sel, Rng(5))
        for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(ta.data, tb.data)

    def test_outside_parameters_untouched_and_original_pure(self):
        """Only the selected group moves; the source model never does."""
        model, _ = trained_model()
        before = {n: t.data.copy() for n, t in model.named_parameters()}
        sel = LayerSelector("decoder.block2.attn.qkv", "attention")
        probe = reset_layer(model, sel, Rng(6))
        for name, t in model.named_parameters():
            assert np.array_equal(t.data, before[name])
        for name, t in probe.named_parameters():
            if name.startswith("decoder.block2.attn.qkv."):
                continue
            assert np.array_equal(t.data, before[name])

    def test_reset_group_actually_moves(self):
        """At least one element differs after any reset of trained weights."""
        model, _ = trained_model()
        for sel in default_selectors(model):
            probe = reset_layer(model, sel, Rng(7))
            orig = dict(model.named_parameters())
            moved = 0.0
            for name, t in probe.named_parameters():
                if name == sel.path or name.startswith(sel.path + "."):
                    moved = max(moved, np.max(np.abs(t.data - orig[name].data)))
            assert moved > 0.0

    def test_redraw_bounds_and_bias_zeroing(self):
        """Kernels land within +-sqrt(1/fan_in); bias leaves zero out."""
        model, _ = trained_model()
        sel = LayerSelector("decoder.block1.conv", "static")
        probe = reset_layer(model, sel, Rng(8))
        named = dict(probe.named_parameters())
        kernel = named["decoder.block1.conv.kernel"].data
        fan = kernel.shape[1] * kernel.shape[2] * kernel.shape[3]
        assert np.max(np.abs(kernel)) <= (1.0 / fan) ** 0.5
        assert np.all(named["decoder.block1.conv.bias"].data == 0.0)

    def test_reset_draws_unchanged(self):
        """A digest pins the values every default selector and ``latent.attn.tau``
        redraw on a seeded ADR + dynconv model: draw rule, order and stream."""
        model = ToyEnhancer(Rng(0), adr_blocks=(True, True), dyn_candidates=3)
        model.freeze()
        sels = default_selectors(model) + [LayerSelector("latent.attn.tau", "attention")]
        digest = hashlib.sha256()
        for i, sel in enumerate(sels):
            probe = reset_layer(model, sel, Rng(child_seed(5, i)))
            for _, t in resolve(probe, sel.path):
                digest.update(t.data.astype("<f8").tobytes())
        assert digest.hexdigest() == "cdde8cd2b8fe64b9ee2139eed31066a9bb823d99a4d17fecc32c116a98ab4ba4"

    @pytest.mark.parametrize("path", ["decoder.block1.attn.adr.gen1.embeddings",
                                      "decoder.block2.attn.adr"])
    def test_reset_re_derives_frozen_caches(self, path, tmp_path):
        """A reset probe's caches follow its new parameters, as its reload's do."""
        model, pairs = trained_model(adr=True)
        probe = reset_layer(model, LayerSelector(path, "dynamic"), Rng(9))
        assert probe.frozen
        for adr in probe.reallocation_blocks().values():
            for gen in (adr.gen1, adr.gen2):
                want = normalize_embeddings(gen.embeddings).data
                assert gen._cached_norm.data.tobytes() == want.tobytes()
        save_model(probe, str(tmp_path / "probe"))
        reloaded = load_model(str(tmp_path / "probe"))
        for pair in pairs:
            got = probe.forward(pair.low).data
            assert got.tobytes() == reloaded.forward(pair.low).data.tobytes()

    def test_unresolvable_selector_raises(self):
        model, _ = trained_model()
        with pytest.raises(SelectorError):
            reset_layer(model, LayerSelector("decoder.block9", "static"), Rng(0))

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            LayerSelector("head", "conv")


# the four recipes the reset oracles run over
RECIPES = {
    "plain": {},
    "adr": {"adr_blocks": (True, True)},
    "dynconv": {"dyn_candidates": 3},
    "adr_dynconv": {"adr_blocks": (True, True), "dyn_candidates": 3},
}


def init_rules(kw):
    """{parameter name: construction rule} from the plan ToyEnhancer(fill, **kw) fills."""
    rules = {}

    def zeros(plan):
        rules.update((name, init) for name, _, init in plan)
        return np.zeros(plan_size(plan))

    ToyEnhancer(zeros, **kw)
    return rules


class TestResetOracle:
    """A reset probe is its model rebuilt over a copy of the arena in which
    the selected parameters are reset by their plan rule."""

    @pytest.mark.parametrize("name", RECIPES)
    def test_reset_draws_only_the_redrawn_values(self, name, monkeypatch):
        """Each default selector's reset draws, in plan order, exactly the
        values of its parameters whose rule is not ``init_zero``."""
        model = ToyEnhancer(Rng(130), **RECIPES[name])
        model.freeze()
        rules = init_rules(RECIPES[name])
        drawn = []
        fill_uniform = Rng.fill_uniform

        def counted(self, shape, lo, hi, out=None):
            drawn.append(math.prod(shape))
            return fill_uniform(self, shape, lo, hi, out)

        def refuse(*args, **kwargs):
            raise AssertionError("a reset drew normals")

        monkeypatch.setattr(Rng, "fill_uniform", counted)
        monkeypatch.setattr(Rng, "fill_normal", refuse)
        for i, sel in enumerate(default_selectors(model)):
            drawn.clear()
            reset_layer(model, sel, Rng(child_seed(131, i)))
            want = [t.data.size for n, t in resolve(model, sel.path) if rules[n] is not init_zero]
            assert drawn == want, sel.path

    @pytest.mark.parametrize("name", RECIPES)
    def test_reset_zeroes_exactly_the_init_zero_parameters(self, name):
        """Over every parameter of a trained model, a reset leaves the
        unselected ones as they were, zeroes the selected ones whose rule is
        ``init_zero`` and redraws the rest."""
        model = ToyEnhancer(Rng(132), **RECIPES[name])
        train(model, make_corpus(133, 2, 8, 8), steps=3, seed=134)
        model.freeze()
        rules = init_rules(RECIPES[name])
        before = {n: t.data.copy() for n, t in model.named_parameters()}
        for i, path in enumerate(["encoder", "latent", "decoder", "head"]):
            group = {n for n, _ in resolve(model, path)}
            assert any(np.any(before[n] != 0.0) for n in group if rules[n] is init_zero), path
            probe = reset_layer(model, LayerSelector(path, "static"), Rng(child_seed(135, i)))
            for n, t in probe.named_parameters():
                if n not in group:
                    assert t.data.tobytes() == before[n].tobytes(), n
                elif rules[n] is init_zero:
                    assert np.all(t.data == 0.0), n
                else:
                    assert np.all(t.data != 0.0) and not np.array_equal(t.data, before[n]), n


class TestDmr:
    @pytest.mark.parametrize("path", BIAS_PATHS)
    def test_dead_parameter_group_caps_every_term(self, path):
        """Resetting a bias that is already zero leaves outputs identical: DMR = cap."""
        model = fresh_frozen_model()
        report = dmr(model, [LayerSelector(path, "static")], images(9, 3), 0)
        assert np.all(report.terms == 100.0)
        assert report.dmr == 100.0

    def test_single_term_reduction(self):
        """n = m = 1 collapses to the one psnr value."""
        model, _ = trained_model()
        sel = LayerSelector("decoder.block1.attn.out", "attention")
        img = images(10, 1)
        report = dmr(model, [sel], img, 3)
        probe = reset_layer(model, sel, Rng(child_seed(3, 0)))
        want = psnr(model.forward(img[0]), probe.forward(img[0]), 1.0)
        assert report.dmr == want
        assert report.terms.shape == (1, 1)

    def test_matches_explicit_per_term_recomputation(self):
        """Every term equals its own reset + forward + psnr recomputation."""
        model, _ = trained_model()
        sels = [
            LayerSelector("decoder.block1.conv", "static"),
            LayerSelector("decoder.block2.attn.qkv", "attention"),
        ]
        imgs = images(11, 2, 8, 8)
        report = dmr(model, sels, imgs, 17)
        for i, sel in enumerate(sels):
            probe = reset_layer(model, sel, Rng(child_seed(17, i)))
            for j, img in enumerate(imgs):
                want = psnr(model.forward(img), probe.forward(img), 1.0)
                assert report.terms[i, j] == want
        assert report.dmr == float(report.terms.mean())

    def test_terms_never_exceed_cap(self):
        model, _ = trained_model(adr=True)
        report = dmr(model, default_selectors(model), images(12, 2), 5)
        assert np.all(report.terms <= 100.0)

    def test_reset_of_frozen_generators_reaches_the_output(self):
        """Reallocation resets propagate: their terms sit below the cap."""
        model, _ = trained_model(adr=True)
        sel = LayerSelector("decoder.block1.attn.adr", "dynamic")
        report = dmr(model, [sel], images(13, 2), 7)
        assert np.all(report.terms < 100.0)

    def test_purity_by_serialized_bytes(self, tmp_path):
        """The probed model's checkpoint is byte-identical before and after."""
        model, _ = trained_model(adr=True)
        save_model(model, str(tmp_path / "before"))
        dmr(model, default_selectors(model), images(14, 2), 11)
        save_model(model, str(tmp_path / "after"))
        for ext in (".json", ".bin"):
            wa = (tmp_path / ("before" + ext)).read_bytes()
            wb = (tmp_path / ("after" + ext)).read_bytes()
            assert wa == wb

    def test_reproducible_reports(self):
        model, _ = trained_model()
        sels = default_selectors(model)[:3]
        imgs = images(15, 2)
        ra = dmr(model, sels, imgs, 23)
        rb = dmr(model, sels, imgs, 23)
        assert np.array_equal(ra.terms, rb.terms)
        assert ra.dmr == rb.dmr

    def test_contract_errors(self):
        model, _ = trained_model()
        with pytest.raises(ContractError):
            dmr(model, [], images(16, 1), 0)
        with pytest.raises(ContractError):
            dmr(model, default_selectors(model)[:1], [], 0)
        thawed = ToyEnhancer(Rng(0))
        with pytest.raises(ContractError):
            dmr(thawed, default_selectors(thawed)[:1], images(17, 1), 0)


class TestUnmatchedSelector:
    """A selector that matches nothing is refused before the first forward,
    whatever selectors come before it."""

    SELECTORS = [LayerSelector("head", "static"), LayerSelector("nope", "static")]

    def test_dmr_refuses_before_any_forward(self, forward_calls):
        model = fresh_frozen_model()
        with pytest.raises(SelectorError, match="selector 'nope' matches no parameters"):
            dmr(model, self.SELECTORS, images(18, 2), 0)
        assert forward_calls == []

    def test_probe_sweep_refuses_before_any_forward(self, forward_calls):
        model = fresh_frozen_model()
        imgs = images(19, 2)
        with pytest.raises(SelectorError, match="selector 'nope' matches no parameters"):
            probe_sweep(model, self.SELECTORS, imgs, imgs, [0, 1])
        assert forward_calls == []


class TestPoi:
    @pytest.mark.parametrize("path", BIAS_PATHS)
    def test_no_op_reset_scores_zero(self, path):
        """Ties are not improvements: identical outputs give POI 0."""
        model = fresh_frozen_model()
        imgs = images(18, 4)
        refs = images(19, 4)
        sel = LayerSelector(path, "static")
        assert probe_sweep(model, [sel], imgs, refs, [0])[0].poi == 0.0

    @pytest.mark.parametrize("path", BIAS_PATHS)
    def test_universal_improvement_scores_one(self, path):
        """A reset that zeroes a harmful offset wins on every image."""
        model = fresh_frozen_model()
        imgs = images(20, 5)
        refs = [model.forward(x) for x in imgs]
        dict(model.named_parameters())[path].data[...] = 0.7
        sel = LayerSelector(path, "static")
        assert probe_sweep(model, [sel], imgs, refs, [0])[0].poi == 1.0

    def test_matches_per_image_hand_comparison(self):
        """POI equals an explicit per-image strict comparison."""
        model, pairs = trained_model()
        lows = [p.low for p in pairs]
        refs = [p.clean for p in pairs]
        sel = LayerSelector("decoder.block2.attn.qkv", "attention")
        got = probe_sweep(model, [sel], lows, refs, [31])[0].poi
        probe = reset_layer(model, sel, Rng(child_seed(31, 0)))
        wins = 0
        for low, ref in zip(lows, refs):
            if psnr(probe.forward(low), ref, 1.0) > psnr(model.forward(low), ref, 1.0):
                wins += 1
        assert got == wins / len(lows)

    def test_empty_selectors_or_seeds_rejected(self):
        """Either list empty, the other not, is refused: a sweep of nothing."""
        model = fresh_frozen_model()
        sel = LayerSelector("head.bias", "static")
        for sels, seeds in (([], [0]), ([sel], [])):
            with pytest.raises(ContractError, match="needs selectors and seeds"):
                probe_sweep(model, sels, images(23, 1), images(24, 1), seeds)

    def test_length_mismatch_rejected(self):
        model = fresh_frozen_model()
        with pytest.raises(ContractError):
            sel = LayerSelector("head.bias", "static")
            probe_sweep(model, [sel], images(21, 2), images(22, 3), [0])


class TestProbeSweep:
    def test_single_row_consistent_with_direct_calls(self):
        """One selector, one seed: the row equals manual composition."""
        model, pairs = trained_model()
        lows = [p.low for p in pairs]
        refs = [p.clean for p in pairs]
        sel = LayerSelector("decoder.block1.conv", "static")
        rows = probe_sweep(model, [sel], lows, refs, [41])
        assert len(rows) == 1
        row = rows[0]
        probe = reset_layer(model, sel, Rng(child_seed(41, 0)))
        before = [psnr(model.forward(x), r, 1.0) for x, r in zip(lows, refs)]
        after = [psnr(probe.forward(x), r, 1.0) for x, r in zip(lows, refs)]
        assert row.before == before
        assert row.after == after
        assert row.delta_psnr_mean == float(np.mean(after) - np.mean(before))
        wins = sum(1 for b, a in zip(before, after) if a > b)
        assert row.poi == wins / len(lows)

    @pytest.mark.parametrize("path", BIAS_PATHS)
    def test_identity_reset_has_zero_delta(self, path):
        """A reset of a bias that is already zero leaves ΔPSNR and POI at zero."""
        model = fresh_frozen_model()
        imgs = images(23, 3)
        refs = images(24, 3)
        rows = probe_sweep(model, [LayerSelector(path, "static")], imgs, refs, [0])
        assert rows[0].delta_psnr_mean == 0.0
        assert rows[0].poi == 0.0

    def test_grid_rows_match_independent_recomputation(self):
        """3 selectors x 2 seeds: six rows, each independently recomputed."""
        model, pairs = trained_model()
        lows = [p.low for p in pairs[:2]]
        refs = [p.clean for p in pairs[:2]]
        sels = default_selectors(model)[:3]
        rows = probe_sweep(model, sels, lows, refs, [1, 2])
        assert len(rows) == 6
        k = 0
        for seed in (1, 2):
            for i, sel in enumerate(sels):
                probe = reset_layer(model, sel, Rng(child_seed(seed, i)))
                after = [psnr(probe.forward(x), r, 1.0) for x, r in zip(lows, refs)]
                assert rows[k].selector == sel
                assert rows[k].seed == seed
                assert rows[k].after == after
                k += 1

    def test_mean_delta_by_kind_averages_per_tag(self):
        model, pairs = trained_model()
        lows = [p.low for p in pairs[:2]]
        refs = [p.clean for p in pairs[:2]]
        sels = default_selectors(model)
        rows = probe_sweep(model, sels, lows, refs, [5])
        table = mean_delta_by_kind(rows)
        for kind in table:
            vals = [r.delta_psnr_mean for r in rows if r.selector.kind == kind]
            assert table[kind] == sum(vals) / len(vals)


# the resume point of each default selector of an ADR (+ dynconv) model:
# 3 of the 13 resume inside a stage, at an attention stage's core output
RESUME_POINT_OF = {
    "encoder.stage1.conv": "encoder.stage1",
    "encoder.stage2.conv": "encoder.stage2",
    "latent.attn.qkv": "latent.attn",
    "latent.attn.out": "latent.attn.out",
    "decoder.block1.conv": "decoder.block1",
    "decoder.block1.dynconv": "decoder.block1",
    "decoder.block1.attn.qkv": "decoder.block1.attn",
    "decoder.block1.attn.out": "decoder.block1.attn.out",
    "decoder.block1.attn.adr": "decoder.block1.attn",
    "decoder.block2.conv": "decoder.block2",
    "decoder.block2.dynconv": "decoder.block2",
    "decoder.block2.attn.qkv": "decoder.block2.attn",
    "decoder.block2.attn.out": "decoder.block2.attn.out",
    "decoder.block2.attn.adr": "decoder.block2.attn",
    "head": "head",
}


class TestResume:
    """Reset forwards resume at the earliest point that owns a reset parameter, exactly."""

    @pytest.fixture
    def resume_points(self, monkeypatch):
        """Points of every resumed ToyEnhancer forward, in call order."""
        points = []
        resume = ToyEnhancer.resume

        def spy(self, seen, point, observe=None):
            points.append(point)
            return resume(self, seen, point, observe)

        monkeypatch.setattr(ToyEnhancer, "resume", spy)
        yield points
        monkeypatch.undo()

    def check_against_direct_resets(self, model, sels, points, want_points):
        lows, refs = images(111, 2), images(112, 2)
        points.clear()
        report = dmr(model, sels, lows, 7)
        rows = probe_sweep(model, sels, lows, refs, [8])
        assert points == [point for point in want_points for _ in lows] * 2
        for i, sel in enumerate(sels):
            reset_for_dmr = reset_layer(model, sel, Rng(child_seed(7, i)))
            reset_for_probe = reset_layer(model, sel, Rng(child_seed(8, i)))
            for j, x in enumerate(lows):
                want = psnr(model.forward(x), reset_for_dmr.forward(x), 1.0)
                assert report.terms[i, j] == want
                assert rows[i].after[j] == psnr(reset_for_probe.forward(x), refs[j], 1.0)

    @pytest.mark.parametrize("dyn_candidates", [0, 3], ids=["adr", "adr_dynconv"])
    def test_every_default_selector_matches_a_direct_reset(self, dyn_candidates,
                                                           resume_points):
        """Edge points included: encoder.stage1 (the first) and head (the last)."""
        model = ToyEnhancer(Rng(110), adr_blocks=(True, True), dyn_candidates=dyn_candidates)
        train(model, make_corpus(113, 2, 8, 8), steps=10, seed=114)
        model.freeze()
        sels = default_selectors(model)
        assert len(sels) == 13
        want = [RESUME_POINT_OF[sel.path] for sel in sels]
        assert sum(point not in dict(model.stages) for point in want) == 3
        self.check_against_direct_resets(model, sels, resume_points, want)

    def test_selector_spanning_two_stages_resumes_at_the_first(self, resume_points):
        model, _ = trained_model(adr=True)
        sel = LayerSelector("decoder", "static")
        self.check_against_direct_resets(model, [sel], resume_points, ["decoder.block1"])

    @pytest.mark.parametrize("path,point", [
        ("decoder.block1.attn", "decoder.block1.attn"),
        ("decoder.block2.attn.tau", "decoder.block2.attn"),
        ("latent.attn.tau", "latent.attn"),
        ("latent.attn", "latent.attn"),
        ("decoder.block2.attn.adr.gen2", "decoder.block2.attn"),
        ("decoder.block1.attn.out.bias", "decoder.block1.attn.out"),
    ])
    def test_selector_inside_a_block_resumes_at_its_earliest_point(self, path, point,
                                                                    resume_points):
        model, _ = trained_model(adr=True)
        sel = LayerSelector(path, "attention")
        self.check_against_direct_resets(model, [sel], resume_points, [point])

    @pytest.mark.parametrize("path,kept,nbytes", [
        ("head", ["head"], 65_536),
        ("latent.attn.out", ["latent.attn", "latent.attn.out"], 16_384),
        ("decoder.block2.attn.out", ["decoder.block2.attn", "decoder.block2.attn.out"], 131_072),
    ])
    def test_base_keeps_only_the_points_it_resumes_from(self, path, kept, nbytes, monkeypatch):
        """Per 32x32 image a sweep keeps its selectors' resume points and an
        ``.out`` point's stage input, where keeping all 11 points takes
        311,296 bytes (286,720 beside the input image, the first point); its
        rows and terms equal those of a sweep whose default selectors make it
        keep all 11."""
        model, _ = trained_model(adr=True)
        lows, refs = images(115, 2, 32, 32), images(116, 2, 32, 32)
        sel = LayerSelector(path, "attention")
        kept_by_resume = []
        resume = ToyEnhancer.resume

        def spy(self, seen, point, observe=None):
            kept_by_resume.append(seen)
            return resume(self, seen, point, observe)

        monkeypatch.setattr(ToyEnhancer, "resume", spy)
        rows = probe_sweep(model, [sel], lows, refs, [9])
        report = dmr(model, [sel], lows, 9)
        assert [list(seen) for seen in kept_by_resume] == [kept] * 4
        assert all(sum(t.data.nbytes for t in seen.values()) == nbytes
                   for seen in kept_by_resume)
        kept_by_resume.clear()
        every = [sel] + default_selectors(model)
        every_rows = probe_sweep(model, every, lows, refs, [9])
        assert [len(seen) for seen in kept_by_resume] == [11] * 2 * len(every)
        assert sum(t.data.nbytes for t in kept_by_resume[0].values()) == 311_296
        assert rows[0] == every_rows[0]
        assert np.array_equal(report.terms[0], dmr(model, every, lows, 9).terms[0])


class TestSelectors:
    def test_plain_model_groups(self):
        """No dynamic groups on the plain network; attention tagged as such."""
        model = ToyEnhancer(Rng(60))
        sels = {s.path: s.kind for s in default_selectors(model)}
        assert sels == {
            "encoder.stage1.conv": "static",
            "encoder.stage2.conv": "static",
            "latent.attn.qkv": "attention",
            "latent.attn.out": "attention",
            "decoder.block1.conv": "static",
            "decoder.block1.attn.qkv": "attention",
            "decoder.block1.attn.out": "attention",
            "decoder.block2.conv": "static",
            "decoder.block2.attn.qkv": "attention",
            "decoder.block2.attn.out": "attention",
            "head": "static",
        }

    def test_adr_model_adds_dynamic_groups(self):
        model = ToyEnhancer(Rng(61), adr_blocks=(True, True))
        sels = {s.path: s.kind for s in default_selectors(model)}
        assert sels["decoder.block1.attn.adr"] == "dynamic"
        assert sels["decoder.block2.attn.adr"] == "dynamic"
        assert len(sels) == 13

    def test_dynconv_model_tags_candidate_banks(self):
        model = ToyEnhancer(Rng(62), dyn_candidates=3)
        sels = {s.path: s.kind for s in default_selectors(model)}
        assert sels["decoder.block1.dynconv"] == "dynamic"
        assert sels["decoder.block2.dynconv"] == "dynamic"

    def test_temperature_scalars_left_out(self):
        model = ToyEnhancer(Rng(63))
        assert not any(s.path.endswith(".tau") for s in default_selectors(model))

    def test_parse_selector_forms(self):
        sel = parse_selector("decoder.block1.attn.adr:dynamic")
        assert sel == LayerSelector("decoder.block1.attn.adr", "dynamic")
        assert parse_selector("head") == LayerSelector("head", "static")
        # only the last colon separates the kind
        assert parse_selector("a:b:attention") == LayerSelector("a:b", "attention")
        with pytest.raises(ConfigurationError):
            parse_selector("head:conv")


class TestReports:
    def test_dmr_summary_fields(self):
        model, _ = trained_model()
        report = dmr(model, default_selectors(model)[:2], images(28, 2), 13)
        summary = dmr_summary(report)
        assert summary == {
            "dmr": report.dmr,
            "n": 2,
            "m": 2,
            "cap": 100.0,
            "I_max": 1.0,
            "seed": 13,
        }
        json.dumps(summary)

    def test_probe_csv_round_trips_rows(self, tmp_path):
        model, pairs = trained_model()
        lows = [p.low for p in pairs[:2]]
        refs = [p.clean for p in pairs[:2]]
        rows = probe_sweep(model, default_selectors(model)[:2], lows, refs, [4])
        path = str(tmp_path / "probe.csv")
        write_probe_csv(rows, path)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(rows)
        for got, row in zip(back, rows):
            assert got["selector"] == row.selector.path
            assert float(got["delta_psnr_mean"]) == row.delta_psnr_mean
            assert float(got["poi"]) == row.poi
