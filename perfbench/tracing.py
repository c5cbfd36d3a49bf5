"""Outside-in span tracing of redlab's layers.

The tracer replaces each layer's public function with a wrapper that records
a span (name, start, end, parent span, operation id) and, for some layers, a
few counts computed from the call's shapes.  Each wrapper is installed where
the caller looks the name up, so no file under ``src/`` changes:

* ``redlab.tensor.<fn>`` for module-level calls through ``T.<fn>`` and for
  calls inside ``tensor`` itself (module globals are module attributes);
* ``redlab.enhancer.reallocate`` and ``redlab.enhancer.psnr``, which
  ``enhancer`` imports by name;
* ``redlab.datagen.save_tensors``/``load_tensors`` beside the same names in
  ``redlab.checkpoint``;
* methods on their class (``ToyEnhancer.forward``, ``Rng.fill_uniform``);
* ``redlab.train``/``redlab.load_model``, the names the benchmark calls.

Spans stay in memory; :meth:`Tracer.write` dumps them when the run ends.
A layer's self time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import gzip
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import redlab
from redlab import checkpoint, datagen, enhancer, pog, redundancy, tensor

_MB = 1e6


def _conv_counts(args, result):
    """Forward FLOPs and im2col bytes of one conv2d, computed from shapes."""
    c, h, w = args[0].data.shape
    c_out, c_in, k, _ = args[1].data.shape
    pad = k // 2
    cols = c_in * k * k * h * w * 8
    padded = c * (h + 2 * pad) * (w + 2 * pad) * 8 if pad else 0
    return {"gflop": 2.0 * c_out * c_in * k * k * h * w / 1e9,
            "im2col_MB": (cols + padded) / _MB}


def _tape_counts(args, result):
    return {"tape_records": len(args[0])}


def _arrays(obj, out, seen):
    """Collect every ndarray reachable from a redlab object graph."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        out.append(obj)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _arrays(item, out, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            _arrays(item, out, seen)
    elif type(obj).__module__.startswith("redlab."):
        for name in getattr(type(obj), "__slots__", ()):
            _arrays(getattr(obj, name, None), out, seen)
        for item in getattr(obj, "__dict__", {}).values():
            _arrays(item, out, seen)


def _reset_counts(args, result):
    """Bytes the reset copied (not shared with the original) and redrew."""
    original, probe = [], []
    _arrays(args[0], original, set())
    _arrays(result, probe, set())
    shared = {a.__array_interface__["data"][0] for a in original}
    copied = sum(a.nbytes for a in probe if a.__array_interface__["data"][0] not in shared)
    reset = sum(t.data.nbytes for _, t in redundancy.resolve(result, args[1].path))
    return {"copied_MB": copied / _MB, "reset_MB": reset / _MB}


def _size(shape) -> int:
    return int(np.prod(shape)) if shape else 1


def _uniform_counts(args, result):
    return {"draws": _size(args[1])}


def _normal_counts(args, result):
    # Box-Muller consumes two 64-bit draws per normal value.
    return {"draws": 2 * _size(args[1])}


def _save_counts(args, result):
    return {"MB": sum(8 * np.asarray(arr).size for _, arr in args[1]) / _MB}


def _load_counts(args, result):
    return {"MB": sum(arr.nbytes for arr in result[0].values()) / _MB}


# (owner, attribute, layer name, counter)
TARGETS = (
    (tensor, "backward", "tensor.backward", _tape_counts),
    (tensor, "conv2d", "tensor.conv2d", _conv_counts),
    (tensor, "matmul", "tensor.matmul", None),
    (tensor, "softmax", "tensor.softmax", None),
    (pog, "generate", "pog.generate", None),
    (enhancer, "reallocate", "adr.reallocate", None),
    (enhancer.ToyEnhancer, "forward", "enhancer.forward", None),
    (redlab, "train", "enhancer.train", None),
    (redundancy, "reset_layer", "redundancy.reset_layer", _reset_counts),
    (redundancy, "psnr", "redundancy.psnr", None),
    (enhancer, "psnr", "redundancy.psnr", None),
    (redlab.Rng, "fill_uniform", "rng.fill_uniform", _uniform_counts),
    (redlab.Rng, "fill_normal", "rng.fill_normal", _normal_counts),
    (datagen, "make_pair", "datagen.make_pair", None),
    (datagen, "save_tensors", "checkpoint.save_tensors", _save_counts),
    (checkpoint, "save_tensors", "checkpoint.save_tensors", _save_counts),
    (datagen, "load_tensors", "checkpoint.load_tensors", _load_counts),
    (checkpoint, "load_tensors", "checkpoint.load_tensors", _load_counts),
    (redlab, "load_model", "checkpoint.load_model", None),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    """Span recorder; patches the layers only between install() and remove()."""

    def __init__(self):
        # span: [name, start, end, parent index, operation id, counts or None]
        self.spans = []
        self.op_id = 0
        self.active = True
        self._stack = []
        self._saved = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self.op_id, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                tracer.spans[index][5] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Run output checks without recording them as layer work."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def summarize(self, first: int) -> dict:
        """Per-layer self time, calls and counts over spans[first:]."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        under_load = [False] * len(spans)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            p = parent - first
            if p >= 0:
                child[p] += end - start
                under_load[i] = under_load[p]
            if name == "checkpoint.load_model":
                under_load[i] = True
        layers = {name: {"self_s": 0.0, "calls": 0, "counts": {}} for name in LAYERS}
        op_s = 0.0
        discarded = 0
        for i, (name, start, end, parent, _, counts) in enumerate(spans):
            if parent < 0:
                op_s += end - start
            entry = layers.get(name)
            if entry is None:
                continue
            entry["self_s"] += end - start - child[i]
            entry["calls"] += 1
            for key, value in (counts or {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
            if under_load[i] and name.startswith("rng.fill_"):
                discarded += counts["draws"]
        layer_s = sum(entry["self_s"] for entry in layers.values())
        return {"layers": layers, "op_s": op_s, "other_s": op_s - layer_s,
                "discarded_draws": discarded}

    def write(self, path: str) -> None:
        """One JSON array per span, gzip-compressed (a dmr round has ~15k spans)."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer_metrics(rounds: list, traced_s: list, untraced_s: list) -> dict:
    """The BENCHMARK.json per-layer metrics: medians over traced rounds.

    Times are milliseconds of self time per round; counts are per round
    except ``tensor.tape_records``, which is per training step.
    """
    def med(values):
        return float(np.median(values)) if values else 0.0

    def layer(name, key):
        if key == "self_ms":
            return med([r["layers"][name]["self_s"] * 1e3 for r in rounds])
        if key == "calls":
            return med([r["layers"][name]["calls"] for r in rounds])
        return med([r["layers"][name]["counts"].get(key, 0) for r in rounds])

    def tape_per_step(r):
        entry = r["layers"]["tensor.backward"]
        return entry["counts"].get("tape_records", 0) / entry["calls"] if entry["calls"] else 0

    def draws_per_s(r):
        names = ("rng.fill_uniform", "rng.fill_normal")
        busy = sum(r["layers"][n]["self_s"] for n in names)
        draws = sum(r["layers"][n]["counts"].get("draws", 0) for n in names)
        return draws / busy if busy > 0 else 0.0

    def useful_share(r):
        counts = r["layers"]["redundancy.reset_layer"]["counts"]
        copied = counts.get("copied_MB", 0)
        return counts.get("reset_MB", 0) / copied if copied else 0.0

    return {
        "tensor.backward.self_ms": layer("tensor.backward", "self_ms"),
        "tensor.tape_records": med([tape_per_step(r) for r in rounds]),
        "tensor.conv2d.self_ms": layer("tensor.conv2d", "self_ms"),
        "tensor.conv2d.calls": layer("tensor.conv2d", "calls"),
        "tensor.conv2d.gflop": layer("tensor.conv2d", "gflop"),
        "tensor.conv2d.im2col_MB": layer("tensor.conv2d", "im2col_MB"),
        "tensor.matmul.self_ms": layer("tensor.matmul", "self_ms"),
        "tensor.softmax.self_ms": layer("tensor.softmax", "self_ms"),
        "pog.generate.self_ms": layer("pog.generate", "self_ms"),
        "pog.generate.calls": layer("pog.generate", "calls"),
        "adr.reallocate.self_ms": layer("adr.reallocate", "self_ms"),
        "enhancer.forward.self_ms": layer("enhancer.forward", "self_ms"),
        "enhancer.forward.calls": layer("enhancer.forward", "calls"),
        "enhancer.train.self_ms": layer("enhancer.train", "self_ms"),
        "redundancy.reset_layer.self_ms": layer("redundancy.reset_layer", "self_ms"),
        "redundancy.reset_layer.copied_MB": layer("redundancy.reset_layer", "copied_MB"),
        "redundancy.reset_layer.reset_MB": layer("redundancy.reset_layer", "reset_MB"),
        "redundancy.reset_layer.useful_share": med([useful_share(r) for r in rounds]),
        "redundancy.psnr.self_ms": layer("redundancy.psnr", "self_ms"),
        "rng.fill_uniform.self_ms": layer("rng.fill_uniform", "self_ms"),
        "rng.fill_uniform.draws": layer("rng.fill_uniform", "draws"),
        "rng.fill_normal.self_ms": layer("rng.fill_normal", "self_ms"),
        "rng.fill_normal.draws": layer("rng.fill_normal", "draws"),
        "rng.draws_per_s": med([draws_per_s(r) for r in rounds]),
        "datagen.make_pair.self_ms": layer("datagen.make_pair", "self_ms"),
        "checkpoint.save_tensors.self_ms": layer("checkpoint.save_tensors", "self_ms"),
        "checkpoint.save_tensors.MB": layer("checkpoint.save_tensors", "MB"),
        "checkpoint.load_tensors.self_ms": layer("checkpoint.load_tensors", "self_ms"),
        "checkpoint.load_tensors.MB": layer("checkpoint.load_tensors", "MB"),
        "checkpoint.load_model.self_ms": layer("checkpoint.load_model", "self_ms"),
        "checkpoint.load_model.discarded_draws": med([r["discarded_draws"] for r in rounds]),
        "other.self_ms": med([r["other_s"] * 1e3 for r in rounds]),
        "trace.round_ms": med(untraced_s) * 1e3,
        "trace.overhead_pct": (med(traced_s) / med(untraced_s) - 1.0) * 100.0 if untraced_s else 0.0,
    }


def unit_of(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_ms"):
        return "ms"
    if leaf.endswith("MB"):
        return "MB"
    return {"gflop": "GFLOP", "draws_per_s": "1/s", "useful_share": "share",
            "overhead_pct": "%"}.get(leaf, "count")
