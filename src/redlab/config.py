"""Run configuration: a strict JSON schema with fail-fast unknown keys.

The document shape is::

    {
      "steps": 2000, "lr": 0.001, "seed": 0, "widths": [8, 16],
      "adr": {"enabled": false, "D_m": 4, "D_e": 16, "D_k": 3},
      "dynconv": {"enabled": false, "K": 4}
    }

Every key is optional (defaults above), but any key outside the schema —
at any nesting level — is rejected outright.  A silent typo in, say,
``"D_e"`` would otherwise invalidate a whole probe campaign.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

from .errors import ConfigurationError
from .rng import Rng

# reallocation dimensions an ablation grid may sweep, each with its minimum
ADR_AXES = {"D_m": 1, "D_e": 2, "D_k": 1}
# each nested object of the document, in document order: the prefix of its
# RunConfig fields and its keys, each the field f"{prefix}_{key.lower()}"
_SECTIONS = {"adr": ("adr", ("enabled", *ADR_AXES)), "dynconv": ("dyn", ("enabled", "K"))}


def _require_keys(doc: dict, allowed, where: str) -> None:
    unknown = set(doc).difference(allowed)
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")


def check_int(value, minimum: int, name: str) -> int:
    """``value`` if it is an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_bool(value, name: str) -> bool:
    """``value`` if it is a JSON boolean."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a boolean, got {value!r}")
    return value


def check_list(value, n: int, name: str) -> list:
    """``value`` if it is a list (or tuple) of exactly ``n`` items."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ConfigurationError(f"{name} must be a list of {n} items, got {value!r}")
    return list(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated model/training settings; the single source for builds.

    The constructor checks every value, so a config is checked however it is
    made: by hand, by :meth:`from_dict` or by :meth:`replace_adr`."""

    steps: int = 2000
    lr: float = 1e-3
    seed: int = 0
    widths: tuple = (8, 16)
    adr_enabled: bool = False
    adr_d_m: int = 4
    adr_d_e: int = 16
    adr_d_k: int = 3
    dyn_enabled: bool = False
    dyn_k: int = 4

    def __post_init__(self):
        check_int(self.steps, 1, "config.steps")
        check_int(self.seed, 0, "config.seed")
        lr = self.lr
        if isinstance(lr, bool) or not isinstance(lr, (int, float)):
            raise ConfigurationError(f"config.lr must be a number, got {lr!r}")
        # NaN fails every comparison; an int past the float range would overflow float()
        if not 0 <= lr <= sys.float_info.max:
            raise ConfigurationError(f"config.lr must be finite and >= 0, got {lr}")
        widths = check_list(self.widths, 2, "config.widths")
        for w in widths:
            check_int(w, 1, "config.widths")
        check_bool(self.adr_enabled, "config.adr.enabled")
        for axis, minimum in ADR_AXES.items():
            check_int(getattr(self, f"adr_{axis.lower()}"), minimum, f"config.adr.{axis}")
        if self.adr_d_k % 2 == 0:
            raise ConfigurationError(f"config.adr.D_k must be odd, got {self.adr_d_k}")
        check_bool(self.dyn_enabled, "config.dynconv.enabled")
        check_int(self.dyn_k, 1, "config.dynconv.K")
        object.__setattr__(self, "lr", float(lr))
        object.__setattr__(self, "widths", tuple(widths))

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        """The config a JSON document describes: its shape is checked here,
        its values by the constructor."""
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config must be a JSON object, got {type(doc).__name__}")
        _require_keys(doc, {"steps", "lr", "seed", "widths", *_SECTIONS}, "config")
        values = {key: doc[key] for key in ("steps", "lr", "seed", "widths") if key in doc}
        for section, (prefix, keys) in _SECTIONS.items():
            sub = doc.get(section, {})
            if not isinstance(sub, dict):
                raise ConfigurationError(f"config.{section} must be an object, got {sub!r}")
            _require_keys(sub, keys, f"config.{section}")
            values.update({f"{prefix}_{key.lower()}": v for key, v in sub.items()})
        return RunConfig(**values)

    def to_dict(self) -> dict:
        doc = {"steps": self.steps, "lr": self.lr, "seed": self.seed, "widths": list(self.widths)}
        for section, (prefix, keys) in _SECTIONS.items():
            doc[section] = {key: getattr(self, f"{prefix}_{key.lower()}") for key in keys}
        return doc

    def replace_adr(self, **keys) -> "RunConfig":
        """A copy with some ``config.adr`` keys overridden (ablation grids set
        D_m/D_e/D_k); a key outside ``config.adr`` is refused as unknown."""
        _require_keys(keys, _SECTIONS["adr"][1], "config.adr")
        return replace(self, **{f"adr_{key.lower()}": v for key, v in keys.items()})


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file; any JSON problem fails fast."""
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}")
    except (ValueError, RecursionError) as exc:  # undecodable, malformed or too deep
        raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}")
    return RunConfig.from_dict(doc)


def build_model(cfg: RunConfig):
    """Seed-pinned enhancer matching the configuration."""
    from .enhancer import ToyEnhancer

    return ToyEnhancer(
        Rng(cfg.seed),
        widths=cfg.widths,
        adr_blocks=(cfg.adr_enabled, cfg.adr_enabled),
        adr_dims=(cfg.adr_d_m, cfg.adr_d_e, cfg.adr_d_k),
        dyn_candidates=cfg.dyn_k if cfg.dyn_enabled else 0,
    )
