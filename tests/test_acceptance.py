"""Acceptance gate: ten numbered criteria, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances and runtime bounds are stated inline next to each check.
The two 2,000-step reference models, and criterion 9's replays of their
trainings, train once per session in worker processes
(``reference_training.py``); the criteria that use them run last.
"""

import copy
import math
from time import perf_counter

import numpy as np
import pytest

from redlab import tensor as T
from redlab.adr import AdrBlock, reallocate
from redlab.checkpoint import load_model, save_model
from redlab.datagen import make_corpus
from redlab.dynconv import DynamicConv, candidate_similarity
from redlab.enhancer import ToyEnhancer, evaluate, train
from redlab.pog import (
    PogGenerator,
    compute_weights,
    degradation_score,
    generate,
)
from redlab.redundancy import LayerSelector, default_selectors, dmr, probe_sweep, psnr
from redlab.rng import Rng
from redlab.tensor import Tensor, finite_diff_check
from composed import build_basis, mse, normalize_embeddings, specific_embedding

VAL_SEED = 43        # 16 held-out pairs for probing and evaluation


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def val16():
    return make_corpus(VAL_SEED, 16, 32, 32)


@pytest.fixture(scope="module")
def trained_plain(reference_runs):
    model, history, elapsed = reference_runs("plain")
    model.freeze()
    return model, history, elapsed


@pytest.fixture(scope="module")
def trained_adr(reference_runs):
    model, history, elapsed = reference_runs("adr")
    model.freeze()
    return model, history, elapsed


@pytest.fixture(scope="module")
def reflection_instances():
    """100 small generators with conditioning inputs, for criteria 2 and 3."""
    instances = []
    shapes = [(1, 2, 1), (2, 1, 3), (2, 2, 1), (1, 1, 3)]
    widths = [2, 4, 8, 16]
    for seed in range(100):
        d_e = widths[seed % 4]
        target = shapes[seed % 4]
        d_c = 3 + seed % 3
        gen = PogGenerator(Rng(seed), d_c, d_e, target)
        f_in = Tensor(Rng(seed + 500).fill_uniform((d_c, 4, 4), 0.0, 1.0))
        w = compute_weights(f_in, gen.weight_mlp)
        n_p = normalize_embeddings(gen.embeddings)
        s = specific_embedding(n_p, w)
        instances.append((n_p.data, w.data, s.data))
    return instances


class TestAcceptance:
    def test_criterion_01_householder_suite(self):
        """Orthogonality, symmetry, involution for 50 seeds x 4 widths."""
        t0 = perf_counter()
        worst_orth = worst_sym = worst_invol = 0.0
        for seed in range(50):
            rng = Rng(seed)
            for d_e in (2, 4, 16, 64):
                row = Tensor(rng.fill_uniform((1, d_e), -1.0, 1.0))
                unit = normalize_embeddings(row)
                b = build_basis(Tensor(unit.data[0])).data
                eye = np.eye(d_e)
                worst_orth = max(worst_orth, np.abs(b.T @ b - eye).max())
                worst_sym = max(worst_sym, np.abs(b - b.T).max())
                worst_invol = max(worst_invol, np.abs(b @ b - eye).max())
        elapsed = perf_counter() - t0
        ok = (
            worst_orth < 1e-10
            and worst_sym < 1e-12
            and worst_invol < 1e-10
            and elapsed < 5.0
        )
        assert report(
            1,
            ok,
            f"200 bases: max |b'b-I| {worst_orth:.2e} (<1e-10), "
            f"|b-b'| {worst_sym:.2e} (<1e-12), |bb-I| {worst_invol:.2e} "
            f"(<1e-10), {elapsed:.2f}s (<5s)",
        )

    def test_criterion_02_closed_form_equivalence(self, reflection_instances):
        """Closed-form reflection equals the materialized basis product."""
        t0 = perf_counter()
        worst = 0.0
        for n_p, w, s in reflection_instances:
            for i in range(n_p.shape[0]):
                b = build_basis(Tensor(n_p[i])).data
                materialized = sum(w[j] * b[:, j] for j in range(len(w)))
                worst = max(worst, np.abs(s[i] - materialized).max())
        elapsed = perf_counter() - t0
        ok = worst < 1e-12 and elapsed < 5.0
        assert report(
            2,
            ok,
            f"100 instances: max |closed - materialized| {worst:.2e} (<1e-12), "
            f"{elapsed:.2f}s (<5s)",
        )

    def test_criterion_03_norm_preservation(self, reflection_instances):
        """Reflected rows keep the weight vector's Euclidean norm."""
        worst = 0.0
        for n_p, w, s in reflection_instances:
            w_norm = np.linalg.norm(w)
            for i in range(n_p.shape[0]):
                worst = max(worst, abs(np.linalg.norm(s[i]) - w_norm))
        ok = worst < 1e-10
        assert report(
            3, ok, f"max norm deviation {worst:.2e} (<1e-10) on criterion-2 instances"
        )

    def test_criterion_04_reallocation_identity(self):
        """Zero-decoded reallocation passes Q/K/V through bit-exactly."""
        t0 = perf_counter()
        exact = True
        rng = Rng(999)
        for seed in range(20):
            d = 1 + rng.next_below(5)
            h = 2 + rng.next_below(8)
            w = 2 + rng.next_below(8)
            d_m = 1 + rng.next_below(3 * d - 1)
            d_k = 1 + 2 * rng.next_below(2)
            block = AdrBlock(Rng(seed), 3 * d, d_m, 4, d_k)
            for gen in (block.gen1, block.gen2):
                gen.decode_mlp.w2.data[:] = 0.0
                gen.decode_mlp.b2.data[:] = 0.0
            r = Rng(seed + 4000)
            q = Tensor(r.fill_uniform((d, h, w), 0.05, 1.0))
            k = Tensor(r.fill_uniform((d, h, w), 0.05, 1.0))
            v = Tensor(r.fill_uniform((d, h, w), 0.05, 1.0))
            qs, ks, vs = reallocate(block, q, k, v)
            exact = exact and (
                np.array_equal(qs.data, q.data)
                and np.array_equal(ks.data, k.data)
                and np.array_equal(vs.data, v.data)
            )
        elapsed = perf_counter() - t0
        ok = exact and elapsed < 5.0
        assert report(
            4, ok, f"20 random shapes bit-exact: {exact}, {elapsed:.2f}s (<5s)"
        )

    def test_criterion_05_gradient_integrity(self):
        """Finite differences within 1e-4 for both mechanisms and the model."""
        t0 = perf_counter()

        gen = PogGenerator(Rng(1), 3, 4, (2, 2, 3))
        f_in = Tensor(Rng(2).fill_uniform((3, 4, 4), 0.0, 1.0))
        target = Tensor(Rng(3).fill_uniform((2, 2, 3, 3), -0.2, 0.2))

        def loss_pog(_):
            return mse(generate(gen, f_in), target)

        err_pog = finite_diff_check(loss_pog, [t for _, t in gen.named_parameters()],
                                    sample=60, rng=Rng(4))

        block = AdrBlock(Rng(5), 3, 1, 3, 1)
        r = Rng(6)
        q = Tensor(r.fill_uniform((1, 3, 3), 0.05, 1.0))
        k = Tensor(r.fill_uniform((1, 3, 3), 0.05, 1.0))
        v = Tensor(r.fill_uniform((1, 3, 3), 0.05, 1.0))
        tq = Tensor(r.fill_uniform((1, 3, 3), 0.0, 1.0))
        tk = Tensor(r.fill_uniform((1, 3, 3), 0.0, 1.0))
        tv = Tensor(r.fill_uniform((1, 3, 3), 0.0, 1.0))

        def loss_adr(_):
            qs, ks, vs = reallocate(block, q, k, v)
            return T.add(T.add(mse(qs, tq), mse(ks, tk)), mse(vs, tv))

        err_adr = finite_diff_check(loss_adr, [t for _, t in block.named_parameters()],
                                    sample=60, rng=Rng(7))

        # full model at 8x8: a short warm-up moves the head's outputs off the
        # clamp boundary, and eps 1e-4 keeps roundoff below the tiny-gradient
        # embedding coordinates' scale
        corpus = make_corpus(5, 4, 8, 8)
        pair = corpus[0]
        model = ToyEnhancer(Rng(3), adr_blocks=(True, True))
        train(model, corpus, steps=100, seed=2)
        params = [t for _, t in model.named_parameters()]

        def loss_model(_):
            return T.mean_all(T.absolute(T.sub(model.forward(pair.low), pair.clean)))

        err_model = finite_diff_check(
            loss_model, params, eps=1e-4, sample=60, rng=Rng(0)
        )

        elapsed = perf_counter() - t0
        ok = max(err_pog, err_adr, err_model) < 1e-4 and elapsed < 60.0
        assert report(
            5,
            ok,
            f"rel err: generator {err_pog:.2e}, reallocation {err_adr:.2e}, "
            f"full model (60 coords) {err_model:.2e} (<1e-4), "
            f"{elapsed:.1f}s (<60s)",
        )

    def test_criterion_06_dmr_brute_force_oracle(self):
        """dmr matches an explicitly scripted reset/forward/log/mean."""
        t0 = perf_counter()
        model = ToyEnhancer(Rng(21), widths=(4, 8))
        model.freeze()
        images = [
            Tensor(Rng(22).fill_uniform((3, 4, 4), 0.0, 1.0)),
            Tensor(Rng(23).fill_uniform((3, 4, 4), 0.0, 1.0)),
        ]
        selectors = [
            LayerSelector("decoder.block1.conv", "static"),
            LayerSelector("decoder.block2.attn.qkv", "attention"),
        ]
        seed = 5
        report_lib = dmr(model, selectors, images, seed)

        # --- brute force, scripted from scratch ---
        def sm64(x):
            # reference mix constants of the splitmix64 generator
            x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            z = x
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            return z ^ (z >> 31)

        def fan(shape):
            if len(shape) == 4:
                return shape[1] * shape[2] * shape[3]
            if len(shape) == 2:
                return shape[1]
            if len(shape) == 1:
                return shape[0]
            return 1

        terms = np.empty((2, 2))
        for i, sel in enumerate(selectors):
            probe = copy.deepcopy(model)
            stream = Rng(sm64(seed ^ i))
            for name, t in probe.named_parameters():
                if not (name == sel.path or name.startswith(sel.path + ".")):
                    continue
                if name.rsplit(".", 1)[-1] in ("bias", "b1", "b2"):
                    t.data[...] = 0.0
                else:
                    bound = math.sqrt(1.0 / fan(t.data.shape))
                    t.data[...] = stream.fill_uniform(t.data.shape, -bound, bound)
            for j, img in enumerate(images):
                a = model.forward(img).data
                b = probe.forward(img).data
                mse = float(np.mean((a - b) ** 2))
                terms[i, j] = 100.0 if mse == 0.0 else min(
                    10.0 * math.log10(1.0 * 1.0 / mse), 100.0
                )
        brute = float(terms.sum() / terms.size)
        delta = abs(report_lib.dmr - brute)
        term_delta = np.abs(report_lib.terms - terms).max()
        elapsed = perf_counter() - t0
        ok = delta < 1e-9 and term_delta < 1e-9 and elapsed < 10.0
        assert report(
            6,
            ok,
            f"|dmr - brute| {delta:.2e} (<1e-9), max term delta {term_delta:.2e}, "
            f"{elapsed:.2f}s (<10s)",
        )

    def test_criterion_07_probe_protocol(self, trained_plain, val16):
        """Decoder-wide reset probes: finite deltas, valid POI, a helpful reset."""
        model, _, train_time = trained_plain
        t0 = perf_counter()
        selectors = [
            s for s in default_selectors(model) if s.path.startswith("decoder.")
        ]
        lows = [p.low for p in val16]
        refs = [p.clean for p in val16]
        seeds = [0, 1, 2]
        rows = probe_sweep(model, selectors, lows, refs, seeds)
        elapsed = perf_counter() - t0

        finite = all(np.isfinite(r.delta_psnr_mean) for r in rows)
        valid_poi = all(0.0 <= r.poi <= 1.0 for r in rows)
        per_selector = {}
        for row in rows:
            per_selector.setdefault(row.selector.path, []).append(row.poi)
        helpful = sorted(
            path for path, pois in per_selector.items()
            if len(pois) == len(seeds) and all(p > 0.0 for p in pois)
        )
        ok = (
            len(rows) == len(selectors) * len(seeds)
            and finite
            and valid_poi
            and bool(helpful)
            and train_time + elapsed < 300.0
        )
        assert report(
            7,
            ok,
            f"{len(rows)} rows over {len(selectors)} decoder selectors x 3 seeds: "
            f"deltas finite {finite}, poi valid {valid_poi}, "
            f"poi>0 in every seed for {helpful or 'none'}, "
            f"{train_time + elapsed:.1f}s (<300s)",
        )

    def test_criterion_08_degradation_diagnostics(self):
        """Input-blind scores zero; a live generator scores positive."""
        t0 = perf_counter()
        blind = PogGenerator(Rng(31), 3, 8, (2, 2, 3))
        for _, t in blind.weight_mlp.named(""):
            t.data[...] = 0.0
        inputs = [
            Tensor(Rng(32 + i).fill_uniform((3, 6, 6), 0.0, 1.0)) for i in range(8)
        ]
        blind_score = degradation_score(blind, inputs)

        live = PogGenerator(Rng(33), 3, 8, (2, 2, 3))
        live_score = degradation_score(live, inputs)

        dc = DynamicConv(Rng(34), 3, 2, 4)
        dc.candidates.data[:] = dc.candidates.data[0]
        sim = candidate_similarity(dc)
        sim_dev = np.abs(sim - 1.0).max()
        elapsed = perf_counter() - t0
        ok = (
            abs(blind_score) <= 1e-12
            and live_score > 1e-6
            and sim_dev < 1e-12
            and elapsed < 5.0
        )
        assert report(
            8,
            ok,
            f"input-blind score {blind_score:.2e} (0±1e-12), live score "
            f"{live_score:.2e} (>1e-6), duplicated-candidate similarity dev "
            f"{sim_dev:.2e}, {elapsed:.2f}s (<5s)",
        )

    def test_criterion_09_trainability(self, trained_plain, trained_adr, reference_runs, val16):
        """Both variants halve their loss; histories replay bit-exactly."""
        plain_model, plain_history, plain_time = trained_plain
        adr_model, adr_history, adr_time = trained_adr

        ratios = {}
        for name, history in (("plain", plain_history), ("adr", adr_history)):
            ratios[name] = history[-1] / history[0]

        # fresh models from the same seeds, trained again in other processes
        replays = {name: reference_runs(f"{name}_replay") for name in ("plain", "adr")}
        replay_time = sum(seconds for _, _, seconds in replays.values())
        reproducible = (
            replays["plain"][1] == plain_history
            and replays["adr"][1] == adr_history
        )

        adr_psnr = evaluate(adr_model, val16)
        ok = (
            ratios["plain"] < 0.5
            and ratios["adr"] < 0.5
            and reproducible
            and np.isfinite(adr_psnr)
            and plain_time < 300.0
            and adr_time < 300.0
            and replay_time < 600.0
        )
        assert report(
            9,
            ok,
            f"loss ratios: plain {ratios['plain']:.3f}, adr {ratios['adr']:.3f} "
            f"(<0.5); histories bit-reproducible {reproducible}; adr eval "
            f"{adr_psnr:.2f} dB; train {plain_time:.0f}s/{adr_time:.0f}s "
            f"(<300s each)",
        )

    def test_criterion_10_persistence(self, trained_plain, trained_adr, tmp_path):
        """save -> load -> save is byte-identical for every trained model."""
        models = {"plain": trained_plain[0], "adr": trained_adr[0]}
        warm = ToyEnhancer(Rng(3), adr_blocks=(True, True))
        train(warm, make_corpus(5, 4, 8, 8), steps=100, seed=2)
        warm.freeze()
        models["warm"] = warm

        identical = True
        for name, model in models.items():
            first = str(tmp_path / f"{name}_a")
            second = str(tmp_path / f"{name}_b")
            save_model(model, first)
            back = load_model(first)
            save_model(back, second)
            for ext in (".json", ".bin"):
                wa = open(first + ext, "rb").read()
                wb = open(second + ext, "rb").read()
                identical = identical and wa == wb
        assert report(
            10,
            identical,
            f"{len(models)} trained models re-serialize byte-identically: {identical}",
        )
