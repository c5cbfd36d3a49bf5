"""Command-line interface: data generation, training, probing, redundancy
reports, degradation diagnostics, ablation grids, and gradient checks.

Every subcommand is a pure function of its flags, config, and seeds, so
re-running any of them reproduces its output files byte for byte.  Outputs
are computed in full, then put in place as one group by
``checkpoint.write_files``: a run writes all of its files or none.

Exit codes: 0 success; 2 configuration problems (unknown flags, malformed
config, checkpoint or corpus, bad selectors); 3 numeric failures (training
divergence, gradient check above tolerance).
"""

from __future__ import annotations

import argparse
import itertools
import sys

from . import tensor as T
from .checkpoint import (
    base_path,
    csv_text,
    encode_tensors,
    json_text,
    load_model,
    model_tensors,
    write_files,
)
from .config import ADR_AXES, build_model, load_config
from .datagen import load_pairs, make_corpus, save_pairs
from .dynconv import DynamicConv, candidate_similarity
from .enhancer import evaluate, train, training_loss
from .errors import ConfigurationError, DivergenceError, RedlabError
from .pog import degradation_score
from .redundancy import (
    default_selectors,
    dmr,
    dmr_summary,
    observed_pass,
    parse_selector,
    probe_sweep,
    write_probe_csv,
)
from .rng import Rng

GRADCHECK_EPS = 1e-4
GRADCHECK_TOL = 1e-4
GRADCHECK_WARMUP_STEPS = 100


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns the exit code."""

    def error(self, message):
        raise ConfigurationError(message)


def _parse_size(text: str) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigurationError(f"--size must look like HxW, got {text!r}")
    try:
        h, w = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigurationError(f"--size must look like HxW, got {text!r}")
    return h, w


def _parse_selectors(text: str, model) -> list:
    if text.strip() == "auto":
        return default_selectors(model)
    return [parse_selector(part) for part in text.split(",") if part.strip()]


def _parse_ints(text: str, message: str) -> list:
    """The comma-separated integers in ``text``; else ``message`` names the flag."""
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(f"{message}, got {text!r}")


def _cmd_gen_data(args) -> int:
    h, w = _parse_size(args.size)
    pairs = make_corpus(args.seed, args.count, h, w)
    save_pairs(args.out, pairs)
    print(f"wrote {len(pairs)} pairs of {h}x{w} to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    pairs = load_pairs(args.data)
    model = build_model(cfg)
    state = train(model, pairs, steps=cfg.steps, seed=cfg.seed, lr=cfg.lr)
    model.freeze()
    history = [["step", "loss"]] + [[i, repr(v)] for i, v in enumerate(state.loss_history)]
    loss_path = base_path(args.out) + ".loss.csv"
    files = encode_tensors(args.out, *model_tensors(model))
    write_files({**files, loss_path: csv_text(history)})
    print(
        f"trained {cfg.steps} steps: loss {state.loss_history[0]:.6f} -> "
        f"{state.loss_history[-1]:.6f}; checkpoint {args.out}, history {loss_path}"
    )
    return 0


def _load_probed(args) -> tuple:
    """The frozen model and the corpus that ``probe``, ``dmr`` and
    ``degrade-score`` read.  A checkpoint ``train`` wrote is frozen already;
    freezing is idempotent, so an unfrozen one gets the same report."""
    model = load_model(args.ckpt)
    model.freeze()
    return model, load_pairs(args.data)


def _cmd_probe(args) -> int:
    model, pairs = _load_probed(args)
    selectors = _parse_selectors(args.selectors, model)
    seeds = _parse_ints(args.seeds, "--seeds must be comma-separated integers")
    lows = [p.low for p in pairs]
    refs = [p.clean for p in pairs]
    rows = probe_sweep(model, selectors, lows, refs, seeds)
    write_probe_csv(rows, args.out)
    print(f"wrote {len(rows)} probe rows to {args.out}")
    return 0


def _cmd_dmr(args) -> int:
    model, pairs = _load_probed(args)
    selectors = _parse_selectors(args.selectors, model)
    images = [p.low for p in pairs]
    report = dmr(model, selectors, images, args.seed)
    write_files({args.out: json_text(dmr_summary(report))})
    n, m = report.terms.shape
    print(f"dmr {report.dmr:.4f} dB over {n} selectors x {m} images -> {args.out}")
    return 0


def _cmd_degrade_score(args) -> int:
    model, pairs = _load_probed(args)
    lows = [p.low for p in pairs[:8]]
    adr_blocks = model.reallocation_blocks()
    # the generators' inputs, from dmr's observed pass; a model without a block runs none
    kept = [observed_pass(model, low, adr_blocks)[1] for low in lows] if adr_blocks else []
    scores = {}
    for path, adr in adr_blocks.items():
        inputs = [seen[path] for seen in kept]
        scores[f"{path}.gen1"] = degradation_score(adr.gen1, inputs)
        scores[f"{path}.gen2"] = degradation_score(adr.gen2, inputs)
    similarity = {}
    for path, stage in model.stages:
        if isinstance(getattr(stage, "conv", None), DynamicConv):
            sim = candidate_similarity(stage.conv)
            similarity[f"{path}.dynconv"] = [list(map(float, row)) for row in sim]
    doc = {
        "degradation_scores": scores,
        "candidate_similarity": similarity,
        "images_used": len(lows),
    }
    write_files({args.out: json_text(doc)})
    print(
        f"scored {len(scores)} generators, {len(similarity)} candidate banks -> {args.out}"
    )
    return 0


def _parse_grid(entries: list) -> dict:
    axes: dict = {}
    for entry in entries:
        if "=" not in entry:
            raise ConfigurationError(f"grid entries look like D_m=4,8,16; got {entry!r}")
        key, _, values = entry.partition("=")
        key = key.strip()
        if key not in ADR_AXES:
            raise ConfigurationError(f"unknown ablation axis {key!r}")
        if key in axes:
            raise ConfigurationError(f"duplicate ablation axis {key!r}")
        axes[key] = _parse_ints(values, "grid values must be integers")
        if not axes[key]:
            raise ConfigurationError(f"grid axis {key!r} has no values")
    if not axes:
        raise ConfigurationError("--grid needs at least one axis")
    return axes


def _cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    if not cfg.adr_enabled:
        raise ConfigurationError(
            "ablation sweeps reallocation dimensions; set adr.enabled in the config"
        )
    axes = _parse_grid(args.grid)
    names = list(axes)
    combos = list(itertools.product(*(axes[name] for name in names)))
    run_cfgs = [cfg.replace_adr(**dict(zip(names, combo))) for combo in combos]
    for run_cfg in run_cfgs:
        build_model(run_cfg)  # refuse a bad grid point before training any
    if args.data:
        pairs = load_pairs(args.data)
    else:
        pairs = make_corpus(cfg.seed, 16, 16, 16)
    rows = []
    for combo, run_cfg in zip(combos, run_cfgs):
        model = build_model(run_cfg)
        state = train(model, pairs, steps=run_cfg.steps, seed=run_cfg.seed, lr=run_cfg.lr)
        psnr_db = evaluate(model, pairs)
        rows.append(list(combo) + [repr(state.loss_history[-1]), repr(psnr_db)])
    write_files({args.out: csv_text([names + ["final_loss", "psnr_db"]] + rows)})
    print(f"wrote {len(rows)} ablation rows to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    pairs = make_corpus(cfg.seed, 4, 8, 8)
    train(model, pairs, steps=GRADCHECK_WARMUP_STEPS, seed=cfg.seed, lr=1e-3)
    params = [t for _, t in model.named_parameters()]
    err = T.finite_diff_check(
        lambda _: training_loss(model, pairs[0]), params, eps=GRADCHECK_EPS,
        sample=args.samples, rng=Rng(0),
    )
    print(
        f"gradcheck: max rel err {err:.3e} over {args.samples} coordinates "
        f"(tolerance {GRADCHECK_TOL:.0e})"
    )
    return 0 if err < GRADCHECK_TOL else 3


def _build_parser() -> _Parser:
    parser = _Parser(prog="redlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic paired corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--size", default="32x32")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write its checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("probe", help="reset-probe sweep over selectors and seeds")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--selectors", required=True, help='"auto" or path:kind,(...)')
    p.add_argument("--seeds", required=True, help="comma-separated integers")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("dmr", help="redundancy metric report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--selectors", required=True, help='"auto" or path:kind,(...)')
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dmr)

    p = sub.add_parser(
        "degrade-score", help="generator degradation and candidate-similarity report"
    )
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_degrade_score)

    p = sub.add_parser("ablate", help="train over a reallocation-dimension grid")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", nargs="+", required=True, help="e.g. D_m=4,8 D_e=16,32")
    p.add_argument("--data", default=None, help="optional corpus; synthesized if absent")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference verification of gradients")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=int, default=60)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def run(argv: list) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RedlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a recipe too big to build fails at the first array NumPy cannot allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
