"""Regenerate perfbench/reference.json.

For each seed in SEEDS and each workload, it records the first output of
every operation kind: the train() loss history, the evaluate PSNR, the
first dmr call's terms, the first probe_sweep's PSNR deltas, and the corpus,
corpus-file and checkpoint digests.  A benchmark run on one of these seeds
compares its first outputs with them (floats to a relative 1e-9, digests
exactly) and counts a mismatch as a failed operation.

    python3 perfbench/make_reference.py

Rerun it only when a change to redlab is meant to change these outputs.
"""

from __future__ import annotations

import json
import os
import shutil

import run
import workloads

SEEDS = range(20)


def main() -> None:
    seeds = {}
    workdir = os.path.join(run.OUT, f"reference-{os.getpid()}")
    os.makedirs(run.OUT, exist_ok=True)
    try:
        for seed in SEEDS:
            entry = {}
            for name, cls in workloads.WORKLOADS.items():
                workload = cls(seed, {}, workdir, run.Clock())
                workload.setup()
                for kind in dict.fromkeys(workload.schedule):
                    workload.run(kind)
                entry[name] = workload.observed
            seeds[str(seed)] = entry
            print(f"seed {seed} recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump({"seeds": seeds}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
