"""Desk-scale laboratory for parameter-redundancy experiments.

A small deterministic stack: a float64 autodiff engine (`tensor`), two
dynamic-parameter mechanisms — orthogonal-basis kernel generation (`pog`)
and Q/K/V reallocation (`adr`) — a candidate-mixing dynamic convolution
baseline (`dynconv`), a trainable toy enhancement network (`enhancer`),
reset-probing and redundancy metrics (`redundancy`), synthetic paired data
(`datagen`), bit-exact persistence (`checkpoint`), and a CLI (`cli`).
"""

from .adr import AdrBlock, reallocate
from .checkpoint import load_model, load_tensors, save_model, save_tensors
from .config import RunConfig, build_model, load_config
from .datagen import ScenePair, degrade, load_pairs, make_corpus, make_pair, make_scene, save_pairs
from .dynconv import DynamicConv, candidate_similarity
from .enhancer import ToyEnhancer, evaluate, train
from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateCandidateError,
    DegenerateEmbeddingError,
    DimensionError,
    DivergenceError,
    RedlabError,
    SelectorError,
)
from .pog import PogGenerator, degradation_score
from .redundancy import (
    DmrReport,
    LayerSelector,
    ProbeResult,
    default_selectors,
    dmr,
    dmr_summary,
    mean_delta_by_kind,
    parse_selector,
    probe_sweep,
    psnr,
    reset_layer,
    write_probe_csv,
)
from .rng import Rng, child_seed, splitmix64
from .tensor import Tape, Tensor, backward, finite_diff_check

__version__ = "0.1.0"

__all__ = [
    "AdrBlock",
    "ConfigurationError",
    "ContractError",
    "DegenerateCandidateError",
    "DegenerateEmbeddingError",
    "DimensionError",
    "DivergenceError",
    "DmrReport",
    "DynamicConv",
    "LayerSelector",
    "PogGenerator",
    "ProbeResult",
    "RedlabError",
    "Rng",
    "RunConfig",
    "ScenePair",
    "SelectorError",
    "Tape",
    "Tensor",
    "ToyEnhancer",
    "backward",
    "build_model",
    "candidate_similarity",
    "child_seed",
    "default_selectors",
    "degradation_score",
    "degrade",
    "dmr",
    "dmr_summary",
    "evaluate",
    "finite_diff_check",
    "load_config",
    "load_model",
    "load_pairs",
    "load_tensors",
    "make_corpus",
    "make_pair",
    "make_scene",
    "mean_delta_by_kind",
    "parse_selector",
    "probe_sweep",
    "psnr",
    "reallocate",
    "reset_layer",
    "save_model",
    "save_pairs",
    "save_tensors",
    "splitmix64",
    "train",
    "write_probe_csv",
]
