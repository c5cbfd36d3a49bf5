"""Flat tensor persistence: one JSON manifest plus one binary blob.

The blob is every tensor's data concatenated as little-endian IEEE-754
64-bit values in manifest order; the manifest records name, shape, dtype,
byte offset, and byte length for each entry, plus free-form metadata.
Nothing is compressed or framed, so round-trips are trivially byte-exact —
the property the probing protocol's purity checks lean on.

A checkpoint path is a base name: ``base.json`` and ``base.bin``.

Every file redlab writes, checkpoint or report, is put in place by
:func:`write_files`: a command writes all of its files or, on failure, none.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np

from .config import check_bool, check_int
from .errors import ConfigurationError, ContractError

FORMAT_VERSION = 1
_ENTRY_KEYS = frozenset({"name", "shape", "dtype", "offset", "length"})
_MODEL_META_KEYS = frozenset(
    {"widths", "adr_blocks", "adr_dims", "dyn_candidates", "frozen"}
)


def base_path(path: str) -> str:
    """The checkpoint base name, with any ``.json``/``.bin`` suffix removed."""
    for suffix in (".json", ".bin"):
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


def write_files(files: dict) -> None:
    """Put an ordered group of files in place, all or none.

    ``files`` maps each target path to its text or bytes.  Missing parent
    directories are created first.  Every file is written to a temporary
    ``<path>.<pid>.tmp`` beside its target, then the temporaries are moved
    into place in order; on any failure the temporaries, every file already
    moved and every directory this call created are removed.  Each target
    is unlinked before the rename: renaming over an existing file makes
    ext4 write the new data out inside the rename, about 1 ms per 3 MB
    saved (2-vCPU host, ext4).
    """
    temps = {path: f"{path}.{os.getpid()}.tmp" for path in files}
    placed = []
    made = []
    try:
        for path in files:
            _make_dirs(os.path.dirname(path), made)
        for path, data in files.items():
            with open(temps[path], "wb") as fh:
                fh.write(data.encode() if isinstance(data, str) else data)
        for path, tmp in temps.items():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for leftover in (*temps.values(), *placed):
            with contextlib.suppress(FileNotFoundError):
                os.remove(leftover)
        for dirpath in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(dirpath)
        raise


def _make_dirs(dirpath: str, made: list) -> None:
    """Create `dirpath` and its missing ancestors, appending each to `made`."""
    missing = []
    while dirpath and not os.path.isdir(dirpath):
        missing.append(dirpath)
        dirpath = os.path.dirname(dirpath)
    for path in reversed(missing):
        os.mkdir(path)
        made.append(path)


def json_text(doc) -> str:
    """The document as sorted, indented JSON with a trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def csv_text(rows) -> str:
    """The rows as CSV text, with the csv module's \\r\\n line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def encode_tensors(path: str, named: list, meta: dict) -> dict:
    """{blob path: bytes, manifest path: text} of a checkpoint, blob first.

    Zero-dimensional inputs are stored with shape [1], matching the engine's
    own promotion of scalars to rank-1 tensors.
    """
    base = base_path(path)
    entries = []
    chunks = []
    offset = 0
    seen = set()
    for name, arr in named:
        if name in seen:
            raise ContractError(f"duplicate tensor name {name!r}")
        seen.add(name)
        data = np.ascontiguousarray(arr, dtype=np.float64)
        raw = data.astype("<f8", copy=False).tobytes()
        entries.append(
            {
                "name": name,
                "shape": list(data.shape),
                "dtype": "f64",
                "offset": offset,
                "length": len(raw),
            }
        )
        chunks.append(raw)
        offset += len(raw)
    manifest = {"format_version": FORMAT_VERSION, "tensors": entries, "meta": meta}
    return {base + ".bin": b"".join(chunks), base + ".json": json_text(manifest)}


def save_tensors(path: str, named: list, meta: dict) -> tuple:
    """Write (name, array) pairs and metadata; returns (manifest, blob) paths."""
    files = encode_tensors(path, named, meta)
    write_files(files)
    blob_path, manifest_path = files
    return manifest_path, blob_path


def _read(path: str) -> tuple:
    """(entries, blob, meta) of a checkpoint, with the manifest validated.

    Each entry is (name, shape, offset, count): ``count`` float64 values at
    byte ``offset`` of the blob.  Names are unique, as :func:`encode_tensors`
    writes them.
    """
    base = base_path(path)
    manifest_path, blob_path = base + ".json", base + ".bin"
    if not os.path.exists(manifest_path) or not os.path.exists(blob_path):
        raise ContractError(f"checkpoint {base!r} is missing manifest or blob")
    with open(manifest_path, "rb") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ContractError(f"manifest {manifest_path!r} is not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ContractError(f"manifest {manifest_path!r} is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ContractError(
            f"unsupported checkpoint format_version {manifest.get('format_version')!r}"
        )
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise ContractError(f"manifest {manifest_path!r} has no 'tensors' list")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise ContractError(f"manifest {manifest_path!r} meta is not an object")
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    out = []
    seen = set()
    expected = 0
    for entry in entries:
        if not isinstance(entry, dict) or not _ENTRY_KEYS <= entry.keys():
            raise ContractError(
                f"manifest entry {entry!r} needs {', '.join(sorted(_ENTRY_KEYS))}"
            )
        if not isinstance(entry["name"], str) or not isinstance(entry["shape"], list):
            raise ContractError(f"malformed manifest entry {entry!r}")
        if entry["name"] in seen:
            raise ContractError(f"manifest {manifest_path!r} lists tensor {entry['name']!r} twice")
        seen.add(entry["name"])
        try:
            offset = check_int(entry["offset"], 0, "offset")
            length = check_int(entry["length"], 0, "length")
            shape = tuple(check_int(v, 0, "shape") for v in entry["shape"])
        except ConfigurationError as exc:
            raise ContractError(f"malformed manifest entry {entry!r}: {exc}") from None
        if entry["dtype"] != "f64":
            raise ContractError(f"unsupported dtype {entry['dtype']!r}")
        if offset != expected:
            raise ContractError(
                f"manifest offsets must be contiguous; {entry['name']} at {offset}, "
                f"expected {expected}"
            )
        expected = offset + length
        count = int(np.prod(shape)) if shape else 1
        if length != count * 8:
            raise ContractError(f"length mismatch for tensor {entry['name']!r}")
        if offset + length > len(blob):
            raise ContractError("blob is shorter than the manifest requires")
        out.append((entry["name"], shape, offset, count))
    if expected != len(blob):
        raise ContractError("blob is longer than the manifest describes")
    return out, blob, meta


def load_tensors(path: str) -> tuple:
    """Read back (ordered {name: array}, meta); validates the manifest."""
    entries, blob, meta = _read(path)
    tensors = {}
    for name, shape, offset, count in entries:
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        tensors[name] = arr.astype(np.float64).reshape(shape)
    return tensors, meta


def model_tensors(model) -> tuple:
    """(named arrays, meta) a ToyEnhancer's checkpoint stores: parameters and recipe."""
    meta = {
        "kind": "toy_enhancer",
        "widths": list(model.widths),
        "adr_blocks": list(model.adr_blocks),
        "adr_dims": list(model.adr_dims),
        "dyn_candidates": model.dyn_candidates,
        "frozen": bool(model.frozen),
    }
    return [(name, t.data) for name, t in model.named_parameters()], meta


def save_model(model, path: str) -> tuple:
    """Persist a ToyEnhancer's parameters and rebuild recipe."""
    return save_tensors(path, *model_tensors(model))


class _Unfilled:
    """Stands in for the Rng when a model is built only to be filled from a blob.

    Every fill is ones: the load overwrites them, and their rows pass the
    embedding normalisation's degenerate-row check.
    """

    @staticmethod
    def fill_uniform(shape, low: float, high: float) -> np.ndarray:
        return np.ones(shape)


def load_model(model_path: str):
    """Reconstruct a ToyEnhancer bit-exactly from its checkpoint.

    The model is built from the metadata without drawing random numbers, and
    the blob, which lists the parameters in ``named_parameters`` order, is
    copied into its arena in one piece.  Non-finite parameters are rejected.
    """
    from .enhancer import ToyEnhancer

    entries, blob, meta = _read(model_path)
    if meta.get("kind") != "toy_enhancer":
        raise ContractError(f"not an enhancer checkpoint: kind={meta.get('kind')!r}")
    missing = _MODEL_META_KEYS - meta.keys()
    if missing:
        raise ContractError(f"enhancer checkpoint meta lacks {sorted(missing)}")
    try:
        # the constructor checks the recipe, so a meta it refuses is malformed input
        model = ToyEnhancer(
            _Unfilled(),
            widths=meta["widths"],
            adr_blocks=meta["adr_blocks"],
            adr_dims=meta["adr_dims"],
            dyn_candidates=meta["dyn_candidates"],
        )
        check_bool(meta["frozen"], "frozen")
    except ConfigurationError as exc:
        raise ContractError(f"enhancer checkpoint meta: {exc}") from None
    named = model.named_parameters()
    names = [name for name, _ in named]
    listed = [name for name, *_ in entries]
    if listed != names:
        differ = set(listed) ^ set(names)
        if differ:
            raise ContractError(f"checkpoint/model parameter mismatch: {sorted(differ)}")
        raise ContractError("checkpoint does not list the model's parameters in order")
    for (name, t), (_, shape, _, _) in zip(named, entries):
        if t.data.shape != shape:
            raise ContractError(f"shape mismatch for {name}: {t.data.shape} vs {shape}")
    model.arena[...] = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(model.arena).all():
        name = next(name for name, t in named if not np.isfinite(t.data).all())
        raise ContractError(f"checkpoint tensor {name} holds non-finite values")
    if meta["frozen"]:
        model.freeze()
    return model
