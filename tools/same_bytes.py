"""Run redlab's CLI over a fixed set of commands and keep every output, so
that two source trees, or two runs of one tree, can be compared byte for byte.

Run from anywhere::

    python tools/same_bytes.py OUT [--tree DIR]   # DIR/src's CLI, outputs in OUT
    python tools/same_bytes.py --compare A B      # the first file that differs

A run imports redlab from ``DIR/src`` (the tree beside this script by
default), ahead of everything else on ``sys.path``, and calls ``cli.run`` in
this one interpreter with stdout and stderr captured.  In the new or empty
directory OUT it runs ``gen-data`` (4 pairs, 16x16, seed 5) and then, for
plain, ADR (D_m 2, D_e 8), dynconv K=3 and ADR+dynconv K=3 configs (widths
4, 8, seed 2, 30 steps): ``train``, ``probe`` (auto, seeds 0,1), ``dmr``
(seed 3, auto and then four explicit selectors), ``degrade-score``,
``gradcheck`` (20 samples) and ``ablate`` over ``D_m=1,2``.  Last come
commands that must be refused: ``train`` on six configs with one fault each
(``steps`` 0, ``lr`` -1, ``widths`` [8], ``adr.D_k`` 4, an unknown ``adr``
key, ``dynconv.K`` 0) and ``ablate`` over ``D_k=1,4`` on an ADR config, so
their messages and exit codes are compared too.  Every command
runs inside OUT with relative paths, so no output or message names where
OUT is.  OUT keeps every output file, and
``log/NN-<config>-<command>.json`` keeps each command's argv, exit code,
stdout and stderr.  The run ends by printing the SHA-256 of every file in
OUT, by path.

``--compare`` exits 0 when A and B hold the same files with the same bytes.
Otherwise it prints the first path, in sorted order, whose bytes differ or
that only one of them holds, and exits 1.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

_ADR = {"enabled": True, "D_m": 2, "D_e": 8}
_DYNCONV = {"enabled": True, "K": 3}
CONFIGS = {
    "plain": {},
    "adr": {"adr": _ADR},
    "dynconv": {"dynconv": _DYNCONV},
    "adr_dynconv": {"adr": _ADR, "dynconv": _DYNCONV},
}
_BASE = {"steps": 30, "seed": 2, "widths": [4, 8]}
# commands that must be refused, each with a config of its own over _BASE:
# train on a config with one fault, and an ablation grid with an even D_k
_TRAIN = ["train", "--data", "corpus", "--out", "refused/model"]
_REFUSED = {
    "steps": ({"steps": 0}, _TRAIN),
    "lr": ({"lr": -1}, _TRAIN),
    "widths": ({"widths": [8]}, _TRAIN),
    "adr_d_k": ({"adr": {**_ADR, "D_k": 4}}, _TRAIN),
    "adr_key": ({"adr": {**_ADR, "D_x": 1}}, _TRAIN),
    "dynconv_k": ({"dynconv": {**_DYNCONV, "K": 0}}, _TRAIN),
    "grid": ({"adr": _ADR}, ["ablate", "--grid", "D_k=1,4", "--data", "corpus",
                             "--out", "refused/ablate.csv"]),
}
# explicit dmr selectors: two bare paths (kind static), a prefix of two stages
# with its kind, and a path with another kind
_SELECTORS = "decoder.block1.attn.qkv,head,encoder:static,latent.attn.out:attention"
# the source tree this script sits in
_TREE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _commands(size: int, configs: dict) -> list:
    """(label, argv) of every command a run makes, in order."""
    out = [("corpus-gen-data", ["gen-data", "--seed", "5", "--out", "corpus",
                                "--count", "4", "--size", f"{size}x{size}"])]
    for name in configs:
        cfg, ckpt = f"{name}.config.json", f"{name}/model"
        model = ["--ckpt", ckpt, "--data", "corpus"]
        out += [
            (f"{name}-train", ["train", "--config", cfg, "--data", "corpus", "--out", ckpt]),
            (f"{name}-probe", ["probe", *model, "--selectors", "auto", "--seeds", "0,1",
                               "--out", f"{name}/probe.csv"]),
            (f"{name}-dmr", ["dmr", *model, "--selectors", "auto", "--seed", "3",
                             "--out", f"{name}/dmr.json"]),
            (f"{name}-dmr-selectors", ["dmr", *model, "--selectors", _SELECTORS, "--seed", "3",
                                       "--out", f"{name}/dmr-selectors.json"]),
            (f"{name}-degrade-score", ["degrade-score", *model, "--out", f"{name}/degrade.json"]),
            (f"{name}-gradcheck", ["gradcheck", "--config", cfg, "--samples", "20"]),
            (f"{name}-ablate", ["ablate", "--config", cfg, "--grid", "D_m=1,2",
                                "--data", "corpus", "--out", f"{name}/ablate.csv"]),
        ]
    for name, (_, argv) in _REFUSED.items():
        out.append((f"refused-{name}-{argv[0]}",
                    [*argv, "--config", f"refused-{name}.config.json"]))
    return out


def _call(cli_run, argv: list) -> dict:
    """One command's argv, exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli_run(argv)
        except Exception as exc:  # an error cli.run lets through is a result too
            code = f"raised {type(exc).__name__}: {exc}"
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def run(cli_run, out: str, size: int = 16, configs: dict = CONFIGS) -> None:
    """Run every command through ``cli_run`` (a ``cli.run``) into the new or
    empty directory ``out``, at ``size`` x ``size`` pixels."""
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        raise SystemExit(f"error: {out} is not empty")
    home = os.getcwd()
    os.chdir(out)
    try:
        os.mkdir("log")
        refused = {f"refused-{name}": extra for name, (extra, _) in _REFUSED.items()}
        for name, extra in {**configs, **refused}.items():
            with open(f"{name}.config.json", "w") as fh:
                json.dump({**_BASE, **extra}, fh, indent=2, sort_keys=True)
        for k, (label, argv) in enumerate(_commands(size, configs)):
            with open(os.path.join("log", f"{k:02d}-{label}.json"), "w") as fh:
                json.dump(_call(cli_run, argv), fh, indent=2)
    finally:
        os.chdir(home)


def digests(root: str) -> dict:
    """SHA-256 of every file under ``root``, keyed by its /-separated relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return dict(sorted(out.items()))


def compare(a: str, b: str) -> int:
    """0 if ``a`` and ``b`` hold the same bytes; else 1, naming the first difference."""
    da, db = digests(a), digests(b)
    for path in sorted(da.keys() | db.keys()):
        if path not in db or path not in da:
            print(f"{path}: only in {a if path in da else b}")
            return 1
        if da[path] != db[path]:
            print(f"{path}: bytes differ")
            return 1
    print(f"same bytes: {len(da)} files")
    return 0


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="directory the run writes")
    parser.add_argument("--tree", default=_TREE,
                        help="source tree whose src/redlab runs (default: this one)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give OUT, or --compare A B")
    src = os.path.join(os.path.abspath(args.tree), "src")
    sys.path.insert(0, src)
    from redlab import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported redlab from {cli.__file__}, not from {src}")
    run(cli.run, args.out)
    for path, digest in digests(args.out).items():
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
