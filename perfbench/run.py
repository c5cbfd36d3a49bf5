"""Run one workload of the redlab benchmark and print its metrics.

    python3 perfbench/run.py --workload train_adr --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Their times are scaled to the reference host's speed by ``calibrate``, and
the raw times are printed beside them.  ``--trace 1`` is a separate run: it
alternates untraced and traced rounds of the workload's fixed unit of work
and prints the per-layer metrics, the ``other`` remainder and the tracing
overhead.  Both modes run every output
check; an operation that raises or fails its check counts as failed.

Human-readable lines come first (every metric with its unit and workload,
then a provenance line); the last line of standard output is the JSON
result.  Details, and the spans of a traced run, are written under
``perfbench/.out/``.  Exits non-zero without a result when the redlab
sources are missing or no operation of some kind succeeded.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")
SETUP_REPEATS = 5


def _import_redlab() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "redlab", "__init__.py")):
        sys.exit(f"perfbench: redlab sources not found under {src}")
    sys.path.insert(0, src)


_import_redlab()

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Clock:
    """Times the library call inside an operation; a traced run adds a root span."""

    def __init__(self):
        self.tracer = None
        self.pending: dict = {}

    @contextmanager
    def time(self, label: str):
        tracer = self.tracer
        span = None
        if tracer:
            tracer.op_id += 1
            span = tracer.open("op." + label)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            if tracer:
                tracer.close(span)
        self.pending[label] = (start, elapsed)

    def quiet(self):
        return self.tracer.paused() if self.tracer else nullcontext()


class Runner:
    """Runs operations and counts failures; times each successful one."""

    def __init__(self, workload, clock: Clock, speed: calibrate.HostSpeed):
        self.workload = workload
        self.clock = clock
        self.speed = speed
        self.timings: dict = {}   # label -> [(start, raw seconds)]
        self.succeeded = {kind: 0 for kind in workload.schedule}
        self.attempted = 0
        self.failures: list = []

    def op(self, kind: str) -> float | None:
        """One operation; returns its raw timed seconds, or None if it failed."""
        self.attempted += 1
        self.clock.pending.clear()
        self.speed.sample()
        try:
            self.workload.run(kind)
        except Exception as exc:  # a failed operation is counted and the loop goes on
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        self.succeeded[kind] += 1
        for label, timing in self.clock.pending.items():
            self.timings.setdefault(label, []).append(timing)
        return sum(elapsed for _, elapsed in self.clock.pending.values())

    def round(self) -> float | None:
        times = [self.op(kind) for kind in self.workload.round]
        return None if None in times else sum(times)

    def stats(self, scaled: bool) -> workloads.Stats:
        """Raw seconds per label, with host-speed scales (or ones)."""
        raw = {label: [e for _, e in timings] for label, timings in self.timings.items()}
        scale = {label: [self.speed.scale(t, t + e) if scaled else 1.0 for t, e in timings]
                 for label, timings in self.timings.items()}
        return workloads.Stats(raw, scale)


def _setup(cls, seed: int, reference: dict, workdir: str, clock: Clock, speed):
    """Set the workload up SETUP_REPEATS times; keep the last.

    Returns the workload and each set-up's (start, raw seconds).
    """
    timings = []
    for _ in range(SETUP_REPEATS):
        workload = cls(seed, reference, workdir, clock)
        speed.sample()
        start = perf_counter()
        workload.setup()
        timings.append((start, perf_counter() - start))
    return workload, timings


def _timed(runner: Runner, seconds: float) -> None:
    schedule = runner.workload.schedule
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or i < len(schedule):
        runner.op(schedule[i % len(schedule)])
        i += 1
    runner.speed.sample()


def _traced(runner: Runner, seconds: float, tracer) -> tuple:
    rounds, traced_s, untraced_s = [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not rounds:
        elapsed = runner.round()
        if elapsed is not None:
            untraced_s.append(elapsed)
        first = len(tracer.spans)
        tracer.install()
        runner.clock.tracer = tracer
        try:
            elapsed = runner.round()
        finally:
            runner.clock.tracer = None
            tracer.remove()
        if elapsed is not None:
            traced_s.append(elapsed)
            rounds.append(tracer.summarize(first))
    return rounds, traced_s, untraced_s


def _openblas() -> dict:
    """OpenBLAS version and thread count as numpy loaded them (read only)."""
    info = {"version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _provenance(args, started: float, wall_s: float) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "REDLAB_THREADS")},
        "commit": _git_commit(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "wall_s": wall_s,
    }


def _load_reference(seed: int) -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["seeds"].get(str(seed), {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.time()
    wall_start = perf_counter()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    clock = Clock()
    try:
        cls = workloads.WORKLOADS[args.workload]
        speed = calibrate.HostSpeed()
        workload, setup_timings = _setup(
            cls, args.seed, _load_reference(args.seed), workdir, clock, speed)
        runner = Runner(workload, clock, speed)
        if args.trace:
            tracer = tracing.Tracer()
            rounds, traced_s, untraced_s = _traced(runner, args.seconds, tracer)
        else:
            _timed(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [kind for kind, ok in runner.succeeded.items() if not ok]
    if missing or (args.trace and not rounds):
        sys.exit(f"perfbench: no successful {args.workload} operation of kind {missing}")

    # rows: (BENCHMARK.json name or None, printed name, value, unit, note, raw value or None)
    if args.trace:
        rows = [(name, name, value, tracing.unit_of(name), "", None)
                for name, value in tracing.per_layer_metrics(rounds, traced_s, untraced_s).items()]
    else:
        setup_raw = [e for _, e in setup_timings]
        setup_scaled = [e * speed.scale(t, t + e) for t, e in setup_timings]
        rows = [
            ("setup_s", "setup_s", statistics.median(setup_scaled), "s",
             f"median of {SETUP_REPEATS} set-ups", statistics.median(setup_raw)),
            ("ok_share", "ok_share", 1.0 - len(runner.failures) / runner.attempted, "share",
             f"failed_share {len(runner.failures)}/{runner.attempted}", None),
            ("peak_rss_MB", "peak_rss_MB",
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "", None),
        ]
        raw = workload.metrics(runner.stats(scaled=False))
        scaled = workload.metrics(runner.stats(scaled=True))
        rows += [row + (raw_row[2],) for row, raw_row in zip(scaled, raw)]

    provenance = _provenance(args, started, perf_counter() - wall_start)
    for key, name, value, unit, note, raw_value in rows:
        alias = f"[{key}]" if key and key != name else ""
        measured = "" if raw_value is None else f"raw {raw_value:.6g}"
        print(f"{args.workload:10s} {name:38s} {value:12.6g} {unit:6s} {measured:16s} "
              f"{alias} {note}".rstrip())
    print(json.dumps({"provenance": provenance}))

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {key: {"value": value, "unit": unit} for key, _, value, unit, _, _ in rows if key},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({**result, "provenance": provenance, "rows": rows, "failures": runner.failures,
                   "setup_s": setup_timings, "timings_s": runner.timings,
                   "calibration_s": speed.marks}, fh, indent=1)
    if args.trace:
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl.gz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
