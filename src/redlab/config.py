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
from dataclasses import dataclass

from .errors import ConfigurationError
from .rng import Rng

# reallocation dimensions an ablation grid may sweep
ADR_AXES = ("D_m", "D_e", "D_k")


def _require_keys(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
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
    """Validated model/training settings; the single source for builds."""

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

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config must be a JSON object, got {type(doc).__name__}")
        _require_keys(doc, {"steps", "lr", "seed", "widths", "adr", "dynconv"}, "config")

        steps = check_int(doc.get("steps", 2000), 1, "config.steps")
        seed = check_int(doc.get("seed", 0), 0, "config.seed")

        lr = doc.get("lr", 1e-3)
        if isinstance(lr, bool) or not isinstance(lr, (int, float)):
            raise ConfigurationError(f"config.lr must be a number, got {lr!r}")
        # NaN fails every comparison; an int past the float range would overflow float()
        if not 0 <= lr <= sys.float_info.max:
            raise ConfigurationError(f"config.lr must be finite and >= 0, got {lr}")

        widths = check_list(doc.get("widths", [8, 16]), 2, "config.widths")
        for w in widths:
            check_int(w, 1, "config.widths")

        adr = doc.get("adr", {})
        if not isinstance(adr, dict):
            raise ConfigurationError(f"config.adr must be an object, got {adr!r}")
        _require_keys(adr, {"enabled", *ADR_AXES}, "config.adr")
        adr_enabled = check_bool(adr.get("enabled", False), "config.adr.enabled")
        adr_d_m = check_int(adr.get("D_m", 4), 1, "config.adr.D_m")
        adr_d_e = check_int(adr.get("D_e", 16), 2, "config.adr.D_e")
        adr_d_k = check_int(adr.get("D_k", 3), 1, "config.adr.D_k")
        if adr_d_k % 2 == 0:
            raise ConfigurationError(f"config.adr.D_k must be odd, got {adr_d_k}")

        dyn = doc.get("dynconv", {})
        if not isinstance(dyn, dict):
            raise ConfigurationError(f"config.dynconv must be an object, got {dyn!r}")
        _require_keys(dyn, {"enabled", "K"}, "config.dynconv")
        dyn_enabled = check_bool(dyn.get("enabled", False), "config.dynconv.enabled")
        dyn_k = check_int(dyn.get("K", 4), 1, "config.dynconv.K")

        return RunConfig(
            steps=steps,
            lr=float(lr),
            seed=seed,
            widths=tuple(widths),
            adr_enabled=adr_enabled,
            adr_d_m=adr_d_m,
            adr_d_e=adr_d_e,
            adr_d_k=adr_d_k,
            dyn_enabled=dyn_enabled,
            dyn_k=dyn_k,
        )

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "lr": self.lr,
            "seed": self.seed,
            "widths": list(self.widths),
            "adr": {
                "enabled": self.adr_enabled,
                "D_m": self.adr_d_m,
                "D_e": self.adr_d_e,
                "D_k": self.adr_d_k,
            },
            "dynconv": {"enabled": self.dyn_enabled, "K": self.dyn_k},
        }

    def replace_adr(self, **axes) -> "RunConfig":
        """A copy with some of D_m/D_e/D_k overridden (ablation grids); an axis
        outside :data:`ADR_AXES` is refused as an unknown ``config.adr`` key."""
        doc = self.to_dict()
        doc["adr"].update(axes)
        return RunConfig.from_dict(doc)


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
