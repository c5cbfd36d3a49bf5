"""The benchmark's three workloads, each a closed loop over redlab's public API.

One caller in one process; every operation starts when the previous one
returns.  All inputs derive from the workload seed.  Each operation is
timed around the library call only; its output check runs afterwards,
outside the timed region and with tracing paused, and raises
:class:`CheckFailed` on a wrong result.

Why these workloads:

* ``train_adr`` is the taped path (forward, VJP sweep, Adam), where
  ``tensor``, ``pog`` and ``adr`` do nearly all the work and ``rng`` none.
* ``probe_adr`` is tape-free inference on a frozen model: the reset (deep
  copy plus RNG redraw) and the forward pass repeat m*(n+1) times per
  ``dmr``, while backward and Adam are bypassed.
* ``corpus_io`` is ``rng`` and ``checkpoint`` work with no ``tensor``,
  ``pog`` or ``adr`` work, writes beside reads, so tensor-level
  optimisations are predicted to leave it unchanged.
"""

from __future__ import annotations

import copy
import hashlib
import os
import shutil
import statistics

import numpy as np

import redlab

PAIRS = 16                 # corpus size on every workload
TRAIN_HW = 32              # train/probe image side
CORPUS_HW = 64             # corpus_io image side
TRAIN_STEPS = 8            # steps per train() operation
WARMUP_STEPS = 48          # probe_adr set-up training before freezing
MODEL = {"widths": (8, 16), "adr_blocks": (True, True), "adr_dims": (4, 16, 3)}
RTOL = 1e-9                # against the stored reference for a seed


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(what: str, got, want) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape and np.allclose(got, want, rtol=RTOL, atol=0.0),
             f"{what} differs from the stored reference")


def _sha256(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def corpus_digest(pairs: list) -> str:
    h = hashlib.sha256()
    for pair in pairs:
        h.update(pair.clean.data.tobytes())
        h.update(pair.low.data.tobytes())
        h.update(repr((pair.seed, sorted(pair.record.items()))).encode())
    return h.hexdigest()


def _build_model(seed: int):
    return redlab.ToyEnhancer(redlab.Rng(redlab.child_seed(seed, 0)), **MODEL)


class Workload:
    """Set-up, one method per operation kind, and the end-to-end metrics."""

    name = ""
    schedule: tuple = ()   # closed-loop order of operation kinds
    round: tuple = ()      # the fixed unit of work a traced run repeats

    def __init__(self, seed: int, reference: dict, workdir: str, clock):
        self.seed = seed
        self.reference = reference.get(self.name, {})
        self.workdir = workdir
        self.clock = clock
        self.calls = {kind: 0 for kind in self.schedule}
        self.observed: dict = {}

    def run(self, kind: str) -> None:
        index = self.calls[kind]
        self.calls[kind] += 1
        getattr(self, "op_" + kind)(index)

    def observe(self, key: str, value) -> None:
        """Keep the first value of `key` and compare it with the reference."""
        if key in self.observed:
            return
        self.observed[key] = value
        if key not in self.reference:
            return
        if isinstance(value, str):
            _require(value == self.reference[key], f"{key} differs from the stored reference")
        else:
            _close(key, value, self.reference[key])


class Stats:
    """Raw seconds per timing label, each with the host-speed scale at its time.

    Medians and tails are taken over the scaled samples (raw times ones).
    """

    def __init__(self, raw: dict, scale: dict):
        self.raw = raw
        self.scale = scale

    def _ms(self, label: str, per: int) -> list:
        return sorted(r * s * 1e3 / per for r, s in zip(self.raw[label], self.scale[label]))

    def p50_ms(self, label: str, per: int = 1) -> float:
        return statistics.median(self._ms(label, per))

    def tail_row(self, printed_name: str, label: str, per: int = 1) -> tuple:
        """Highest percentile with at least ten samples beyond it.

        Below 20 samples no percentile at or above the median qualifies, so
        the median stands in and the note says so.
        """
        values = self._ms(label, per)
        n = len(values)
        if n < 20:
            return ("op_ms.tail", printed_name, statistics.median(values), "ms",
                    f"p50 of {n} samples (fewer than 20)")
        return ("op_ms.tail", printed_name, values[n - 11], "ms",
                f"p{100.0 * (n - 10) / n:.1f} of {n} samples")


class TrainAdr(Workload):
    name = "train_adr"
    schedule = ("train",)
    round = ("train",)

    def setup(self) -> None:
        self.corpus = redlab.make_corpus(redlab.child_seed(self.seed, 1), PAIRS, TRAIN_HW, TRAIN_HW)
        self.model0 = _build_model(self.seed)
        self.train_seed = redlab.child_seed(self.seed, 2)
        state = redlab.train(copy.deepcopy(self.model0), self.corpus, TRAIN_STEPS, self.train_seed)
        self.history = list(state.loss_history)
        _require(all(np.isfinite(self.history)), "set-up loss history is not finite")

    def op_train(self, index: int) -> None:
        model = copy.deepcopy(self.model0)
        with self.clock.time("train"):
            state = redlab.train(model, self.corpus, TRAIN_STEPS, self.train_seed)
        history = list(state.loss_history)
        _require(len(history) == TRAIN_STEPS and all(np.isfinite(history)),
                 "loss history is not finite or has the wrong length")
        _require(history == self.history, "loss history differs between identical train() calls")
        self.observe("loss_history", history)

    def metrics(self, stats: Stats) -> list:
        step_ms = stats.p50_ms("train", TRAIN_STEPS)
        return [
            ("work_per_s", "train_steps_per_s", 1e3 / step_ms, "1/s", ""),
            ("op_ms.p50", "train_step_ms.p50", step_ms, "ms", ""),
            stats.tail_row("train_step_ms.tail", "train", TRAIN_STEPS),
            ("op2_ms.p50", "train_call_ms.p50", stats.p50_ms("train"), "ms",
             f"{TRAIN_STEPS} steps per call"),
        ]


class ProbeAdr(Workload):
    name = "probe_adr"
    # evaluate is short, so it runs as often as dmr to keep its median steady
    schedule = ("evaluate", "dmr", "evaluate", "probe_sweep", "evaluate", "dmr")
    round = ("evaluate", "dmr", "probe_sweep")

    def setup(self) -> None:
        self.corpus = redlab.make_corpus(redlab.child_seed(self.seed, 1), PAIRS, TRAIN_HW, TRAIN_HW)
        self.model = _build_model(self.seed)
        redlab.train(self.model, self.corpus, WARMUP_STEPS, redlab.child_seed(self.seed, 2))
        self.model.freeze()
        self.selectors = redlab.default_selectors(self.model)
        _require(len(self.selectors) == 13, f"expected 13 selectors, got {len(self.selectors)}")
        self.lows = [p.low for p in self.corpus]
        self.refs = [p.clean for p in self.corpus]
        self.snapshot = [(name, t.data.copy()) for name, t in self.model.named_parameters()]
        self.psnr = None

    def _check_pure(self) -> None:
        now = self.model.named_parameters()
        _require(len(now) == len(self.snapshot) and all(
            n == m and np.array_equal(t.data, a) for (n, t), (m, a) in zip(now, self.snapshot)
        ), "probing changed the probed model's parameters")

    def _probe_seed(self, kind: str, index: int) -> int:
        return redlab.child_seed(redlab.child_seed(self.seed, 3 if kind == "dmr" else 4), index)

    def op_evaluate(self, index: int) -> None:
        with self.clock.time("evaluate"):
            value = redlab.evaluate(self.model, self.corpus)
        _require(np.isfinite(value), "evaluate PSNR is not finite")
        if self.psnr is None:
            self.psnr = value
        _require(value == self.psnr, "evaluate PSNR differs between identical calls")
        self.observe("evaluate_psnr", value)

    def _reset_output(self, i: int, seed: int, j: int):
        probe = redlab.reset_layer(self.model, self.selectors[i], redlab.Rng(redlab.child_seed(seed, i)))
        return probe.forward(self.lows[j])

    def op_dmr(self, index: int) -> None:
        seed = self._probe_seed("dmr", index)
        with self.clock.time("dmr"):
            report = redlab.dmr(self.model, self.selectors, self.lows, seed)
        with self.clock.quiet():
            terms = report.terms
            _require(terms.shape == (13, PAIRS) and np.all(np.isfinite(terms))
                     and np.all(terms <= report.cap), "dmr terms malformed")
            _require(report.dmr == float(terms.mean()), "dmr is not the mean of its terms")
            # brute-force oracle for one (selector, image) term per call
            i, j = index % 13, (5 * index) % PAIRS
            want = redlab.psnr(self.model.forward(self.lows[j]), self._reset_output(i, seed, j),
                               1.0, report.cap)
            _require(terms[i, j] == want, f"dmr term ({i}, {j}) disagrees with a direct reset")
            self._check_pure()
        self.observe("dmr_terms", terms.tolist())

    def op_probe_sweep(self, index: int) -> None:
        seed = self._probe_seed("probe", index)
        with self.clock.time("probe_sweep"):
            rows = redlab.probe_sweep(self.model, self.selectors, self.lows, self.refs, [seed])
        with self.clock.quiet():
            _require(len(rows) == 13 and all(0.0 <= r.poi <= 1.0 for r in rows),
                     "probe_sweep rows malformed")
            i, j = index % 13, (7 * index) % PAIRS
            want = redlab.psnr(self._reset_output(i, seed, j), self.refs[j], 1.0)
            _require(rows[i].after[j] == want, f"probe row {i} image {j} disagrees with a direct reset")
            if self.psnr is not None:
                _require(np.isclose(np.mean(rows[0].before), self.psnr, rtol=1e-12, atol=0.0),
                         "probe baseline PSNR disagrees with evaluate")
            self._check_pure()
        self.observe("probe_delta", [r.delta_psnr_mean for r in rows])

    def metrics(self, stats: Stats) -> list:
        return [
            ("work_per_s", "frozen_forward_imgs_per_s", PAIRS * 1e3 / stats.p50_ms("evaluate"),
             "1/s", "from evaluate"),
            ("op_ms.p50", "dmr_ms.p50", stats.p50_ms("dmr"), "ms", ""),
            stats.tail_row("dmr_ms.tail", "dmr"),
            ("op2_ms.p50", "probe_sweep_ms.p50", stats.p50_ms("probe_sweep"), "ms", ""),
        ]


class CorpusIo(Workload):
    name = "corpus_io"
    # the round trips are short, so each runs four times per corpus
    schedule = ("make_corpus",) + ("corpus_roundtrip", "model_roundtrip") * 4
    round = ("make_corpus", "corpus_roundtrip", "model_roundtrip")

    def setup(self) -> None:
        self.corpus_seed = redlab.child_seed(self.seed, 1)
        self.corpus = redlab.make_corpus(self.corpus_seed, PAIRS, CORPUS_HW, CORPUS_HW)
        self.corpus_sha = corpus_digest(self.corpus)
        self.model = _build_model(self.seed)
        self.image = redlab.make_pair(redlab.child_seed(self.seed, 5), TRAIN_HW, TRAIN_HW).low
        self.expected_out = self.model.forward(self.image).data
        self.dirs = {k: os.path.join(self.workdir, k) for k in ("a", "b", "model")}
        for path in self.dirs.values():
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path)
        self.model_base = os.path.join(self.dirs["model"], "adr")
        redlab.save_pairs(self.dirs["a"], self.corpus)
        self.saved_sha = self._corpus_files_sha("a")
        redlab.save_model(self.model, self.model_base)
        self.model_sha = _sha256(self.model_base + ".json", self.model_base + ".bin")
        self.roundtrip_MB = 2 * sum(p.clean.data.nbytes + p.low.data.nbytes for p in self.corpus) / 1e6

    def _corpus_files_sha(self, key: str) -> str:
        base = os.path.join(self.dirs[key], "corpus")
        return _sha256(base + ".json", base + ".bin")

    def op_make_corpus(self, index: int) -> None:
        with self.clock.time("make_corpus"):
            pairs = redlab.make_corpus(self.corpus_seed, PAIRS, CORPUS_HW, CORPUS_HW)
        digest = corpus_digest(pairs)
        _require(digest == self.corpus_sha, "make_corpus is not bit-identical across calls")
        self.observe("corpus_sha256", digest)

    def op_corpus_roundtrip(self, index: int) -> None:
        with self.clock.time("corpus_roundtrip"):
            redlab.save_pairs(self.dirs["a"], self.corpus)
            loaded = redlab.load_pairs(self.dirs["a"])
        _require(self._corpus_files_sha("a") == self.saved_sha, "save_pairs output changed")
        _require(corpus_digest(loaded) == self.corpus_sha, "load_pairs returned other pairs")
        with self.clock.quiet():
            redlab.save_pairs(self.dirs["b"], loaded)
        _require(self._corpus_files_sha("b") == self.saved_sha, "save->load->save is not byte-identical")
        self.observe("corpus_files_sha256", self.saved_sha)

    def op_model_roundtrip(self, index: int) -> None:
        with self.clock.time("model_save"):
            redlab.save_model(self.model, self.model_base)
        with self.clock.time("model_load"):
            loaded = redlab.load_model(self.model_base)
        _require(_sha256(self.model_base + ".json", self.model_base + ".bin") == self.model_sha,
                 "save_model output changed")
        with self.clock.quiet():
            out = loaded.forward(self.image).data
        _require(np.array_equal(out, self.expected_out), "loaded model's forward differs")
        self.observe("model_sha256", self.model_sha)

    def metrics(self, stats: Stats) -> list:
        roundtrip_ms = stats.p50_ms("corpus_roundtrip")
        return [
            ("work_per_s", "gen_pairs_per_s", PAIRS * 1e3 / stats.p50_ms("make_corpus"),
             "1/s", f"{CORPUS_HW}x{CORPUS_HW}"),
            ("op_ms.p50", "model_load_ms.p50", stats.p50_ms("model_load"), "ms", ""),
            stats.tail_row("model_load_ms.tail", "model_load"),
            ("op2_ms.p50", "corpus_roundtrip_ms.p50", roundtrip_ms, "ms", "save_pairs then load_pairs"),
            (None, "corpus_roundtrip_MB_per_s", self.roundtrip_MB / roundtrip_ms * 1e3, "MB/s",
             f"{self.roundtrip_MB:.3f} MB written and read per round trip"),
        ]


WORKLOADS = {w.name: w for w in (TrainAdr, ProbeAdr, CorpusIo)}
