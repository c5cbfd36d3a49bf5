"""Layer-reset probing and the redundancy metric.

The protocol: freeze a trained model, rebuild it over a copy of its
parameters with one named parameter group redrawn from the
fresh-initialization distribution, and measure how much the outputs move.
Outputs that barely move — a high capped log-MSE term — expose parameters
the network was not really using.  The aggregate over (selector, image)
pairs is the redundancy metric; the fraction of images that actually
*improve* under a reset is the POI.

The probed model is never mutated: every reset builds a model of its own.

``dmr`` and ``probe_sweep`` run one base forward per image and keep the
value at every resume point of the model (``ToyEnhancer.resume_points``):
each stage's input, each decoder block's attention input and each attention
core's output.  Each reset forward resumes at the earliest point that owns a
reset parameter and matches a whole forward of the reset copy bit for bit.
The kept values are held for one call, about 287 KB per 32x32 image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import csv_text, write_files
from .errors import ConfigurationError, ContractError, DimensionError, SelectorError
from .rng import Rng, child_seed
from .tensor import Tensor, _carve, init_uniform, init_zero

KINDS = ("static", "dynamic", "attention", "feedforward")

DEFAULT_CAP_DB = 100.0


@dataclass(frozen=True)
class LayerSelector:
    """A named parameter group plus its mechanism kind."""

    path: str
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"selector kind must be one of {KINDS}, got {self.kind!r}"
            )


@dataclass
class ProbeResult:
    """One reset experiment: selector x seed against a paired image set."""

    selector: LayerSelector
    seed: int
    before: list
    after: list
    delta_psnr_mean: float
    poi: float


@dataclass
class DmrReport:
    """Every per-(selector, image) log term plus the aggregate; no term exceeds ``cap``."""

    terms: np.ndarray
    dmr: float
    seed: int
    cap = DEFAULT_CAP_DB  # a class constant, not a field


def psnr(a, b, i_max: float = 1.0, cap: float = DEFAULT_CAP_DB) -> float:
    """Capped peak log-MSE in dB; identical inputs return the cap exactly."""
    da = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    db = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    if da.shape != db.shape:
        raise DimensionError(f"psnr shapes differ: {da.shape} vs {db.shape}")
    if i_max <= 0:
        raise ContractError(f"i_max must be positive, got {i_max}")
    diff = da - db
    m = float(np.mean(diff * diff))
    if m == 0.0:
        return cap
    return min(float(10.0 * np.log10(i_max * i_max / m)), cap)


def resolve(model, path: str) -> list:
    """All (name, tensor) pairs whose name equals or extends the path."""
    hits = [
        (name, t)
        for name, t in model.named_parameters()
        if name == path or name.startswith(path + ".")
    ]
    if not hits:
        raise SelectorError(f"selector {path!r} matches no parameters")
    return hits


def reset_layer(model, selector: LayerSelector, rng: Rng):
    """Fresh-random copy of one parameter group; the original is untouched.

    The copy is the model rebuilt (:meth:`~redlab.enhancer.ToyEnhancer.rebuild`)
    over a copy of its arena in which the group is reset by the plan's rules:
    each parameter whose construction rule is :func:`~redlab.tensor.init_zero`
    goes to zero, and every other one is redrawn by
    :func:`~redlab.tensor.init_uniform`, the init rule construction draws
    kernels, candidate banks and MLP weights by.  Two leaves differ from
    their construction: generator embeddings redraw unnormalised within
    +-sqrt(1/D_e), which after row normalisation has the direction
    distribution of construction's +-1 draw, and ``tau`` redraws within +-1
    where construction sets 1.0.
    Parameters reset in plan (named_parameters) order from the one stream, so
    a seed pins the whole reset.  A frozen model's copy is frozen once, from
    its final values, which derives its generator caches.
    """
    names = {name for name, _ in resolve(model, selector.path)}

    def fill(plan: list) -> np.ndarray:
        arena = model.arena.copy()
        for (name, _, init), view in zip(plan, _carve(arena, [shape for _, shape, _ in plan])):
            if name in names:
                (init_zero if init is init_zero else init_uniform)(rng, view)
        return arena

    return model.rebuild(fill)


def observed_pass(model, x: Tensor, keys) -> tuple:
    """(output, {key: value the forward observed there}) of one forward of
    ``model``, keeping only ``keys`` (resume points, ``.adr`` inputs)."""
    seen: dict = {}
    out = model.forward(x, seen.__setitem__)
    return out, {key: seen[key] for key in keys}


def _reset_point(model, selector: LayerSelector, points: dict) -> str:
    """The earliest of the resume ``points`` that owns a parameter the
    selector resets; a selector that matches nothing raises here, so
    ``dmr`` and ``probe_sweep`` refuse it before their first forward."""
    names = {name for name, _ in resolve(model, selector.path)}
    return next(point for point, owned in points.items() if names.intersection(owned))


def _reset_outputs(model, selector: LayerSelector, rng: Rng, base: list, point: str) -> list:
    """Per-image outputs of ``reset_layer(model, selector, rng)``.

    Each forward resumes at ``point``, the earliest resume point that owns a
    reset parameter (see :func:`_reset_point`), from the values kept in
    ``base`` (see :func:`observed_pass`): a forward reads no reset parameter
    before that point, and ``freeze`` derives the frozen caches it skips
    unchanged.
    """
    probe = reset_layer(model, selector, rng)
    return [probe.resume(kept, point) for _, kept in base]


def dmr(model, selectors: list, images: list, seed: int) -> DmrReport:
    """Mean capped log-MSE between the frozen model and its per-layer resets.

    Selector i resets with the child stream splitmix64(seed XOR i).  Larger
    values mean probed outputs barely moved — higher redundancy.
    """
    if not selectors:
        raise ContractError("dmr needs at least one selector")
    if not images:
        raise ContractError("dmr needs at least one image")
    if not model.frozen:
        raise ContractError("dmr probes a frozen model; call freeze() first")
    points = model.resume_points()
    starts = [_reset_point(model, sel, points) for sel in selectors]
    base = [observed_pass(model, x, points) for x in images]
    terms = np.empty((len(selectors), len(images)))
    for i, (sel, start) in enumerate(zip(selectors, starts)):
        outs = _reset_outputs(model, sel, Rng(child_seed(seed, i)), base, start)
        for j, ((out, _), probed) in enumerate(zip(base, outs)):
            terms[i, j] = psnr(out, probed)
    return DmrReport(terms=terms, dmr=float(terms.mean()), seed=seed)


def probe_sweep(
    model, selectors: list, low_images: list, ref_images: list, seeds: list
) -> list:
    """One ProbeResult per (selector, seed) over the paired image set."""
    if not selectors or not seeds:
        raise ContractError("probe_sweep needs selectors and seeds")
    if len(low_images) != len(ref_images) or not low_images:
        raise ContractError("probe_sweep needs nonempty paired image lists")
    points = model.resume_points()
    starts = [_reset_point(model, sel, points) for sel in selectors]
    base = [observed_pass(model, x, points) for x in low_images]
    before = [psnr(out, ref) for (out, _), ref in zip(base, ref_images)]
    rows = []
    for seed in seeds:
        for i, (sel, start) in enumerate(zip(selectors, starts)):
            outs = _reset_outputs(model, sel, Rng(child_seed(seed, i)), base, start)
            after = [psnr(out, ref) for out, ref in zip(outs, ref_images)]
            wins = sum(1 for b, a in zip(before, after) if a > b)
            rows.append(
                ProbeResult(
                    selector=sel,
                    seed=seed,
                    before=list(before),
                    after=after,
                    delta_psnr_mean=float(np.mean(after) - np.mean(before)),
                    poi=wins / len(low_images),
                )
            )
    return rows


def mean_delta_by_kind(rows: list) -> dict:
    """Mean PSNR change per selector kind, e.g. attention vs feedforward."""
    sums: dict = {}
    counts: dict = {}
    for row in rows:
        sums[row.selector.kind] = sums.get(row.selector.kind, 0.0) + row.delta_psnr_mean
        counts[row.selector.kind] = counts.get(row.selector.kind, 0) + 1
    return {kind: sums[kind] / counts[kind] for kind in sums}


def default_selectors(model) -> list:
    """Standard probe groups for a model, derived from its parameter names.

    Reallocation and candidate-bank groups tag as dynamic, attention
    projections as attention, plain convolutions as static.  Temperature
    scalars stay out of the default set (address them explicitly if wanted).
    """
    seen = {}
    for name, _ in model.named_parameters():
        if ".adr." in name:
            path = name.split(".adr.")[0] + ".adr"
            kind = "dynamic"
        elif ".dynconv." in name:
            path = name.split(".dynconv.")[0] + ".dynconv"
            kind = "dynamic"
        elif ".qkv." in name:
            path = name.split(".qkv.")[0] + ".qkv"
            kind = "attention"
        elif name.endswith(".tau"):
            continue
        else:
            path = name.rsplit(".", 1)[0]
            kind = "attention" if ".attn.out." in name else "static"
        if path not in seen:
            seen[path] = LayerSelector(path, kind)
    return list(seen.values())


def parse_selector(spec_str: str) -> LayerSelector:
    """Parse "path" or "path:kind" (kind defaults to static)."""
    if ":" in spec_str:
        path, kind = spec_str.rsplit(":", 1)
        return LayerSelector(path.strip(), kind.strip())
    return LayerSelector(spec_str.strip(), "static")


def dmr_summary(report: DmrReport) -> dict:
    n, m = report.terms.shape
    return {
        "dmr": report.dmr,
        "n": n,
        "m": m,
        "cap": report.cap,
        "I_max": 1.0,
        "seed": report.seed,
    }


def write_probe_csv(rows: list, path: str) -> None:
    """One row per (selector, seed) probe with its aggregate statistics."""
    table = [["selector", "kind", "seed", "psnr_before_mean", "psnr_after_mean",
              "delta_psnr_mean", "poi"]]
    for row in rows:
        table.append(
            [
                row.selector.path,
                row.selector.kind,
                row.seed,
                repr(float(np.mean(row.before))),
                repr(float(np.mean(row.after))),
                repr(row.delta_psnr_mean),
                repr(row.poi),
            ]
        )
    write_files({path: csv_text(table)})
