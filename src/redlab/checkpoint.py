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
import itertools
import json
import math
import os

import numpy as np

from .config import check_bool, check_int
from .errors import ConfigurationError, ContractError

FORMAT_VERSION = 1
_ENTRY_KEYS = frozenset({"name", "shape", "dtype", "offset", "length"})
# a ToyEnhancer's rebuild recipe: its constructor's keyword arguments, and the
# attributes it keeps them in, stored under these names in a checkpoint's meta
_RECIPE_KEYS = ("widths", "adr_blocks", "adr_dims", "dyn_candidates")


def base_path(path: str) -> str:
    """The checkpoint base name, with any ``.json``/``.bin`` suffix removed."""
    for suffix in (".json", ".bin"):
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


def write_files(files: dict) -> None:
    """Put an ordered group of files in place, all or none.

    ``files`` maps each target path to its text, its bytes, or a list of
    bytes-like chunks (any C-contiguous buffer, a NumPy array included)
    written one after another.  Missing parent directories are created
    first.  Every file is written to a temporary
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
                for chunk in data if isinstance(data, list) else [data]:
                    fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
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
    """{blob path: chunks, manifest path: text} of a checkpoint, blob first.

    The blob is a list of the arrays' own little-endian float64 buffers, in
    manifest order, for :func:`write_files` to write one after another.  An
    array that already is contiguous little-endian float64 is not copied:
    its chunk is the caller's array, so write the files before changing it.
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
        entries.append(
            {
                "name": name,
                "shape": list(data.shape),
                "dtype": "f64",
                "offset": offset,
                "length": data.nbytes,
            }
        )
        chunks.append(data.astype("<f8", copy=False))
        offset += data.nbytes
    manifest = {"format_version": FORMAT_VERSION, "tensors": entries, "meta": meta}
    return {base + ".bin": chunks, base + ".json": json_text(manifest)}


def save_tensors(path: str, named: list, meta: dict) -> None:
    """Write (name, array) pairs and metadata as ``base.json`` and ``base.bin``."""
    write_files(encode_tensors(path, named, meta))


def _open(path: str) -> tuple:
    """(entries, meta, blob file) of a checkpoint, with the manifest validated.

    Each entry is (name, shape, offset, count): ``count`` float64 values at
    byte ``offset`` of the blob.  Names are unique, as :func:`encode_tensors`
    writes them.  The blob file is open at its start, none of it read yet,
    and its size is what the manifest describes; the caller closes it.
    """
    base = base_path(path)
    manifest_path, blob_path = base + ".json", base + ".bin"
    if not os.path.exists(manifest_path) or not os.path.exists(blob_path):
        raise ContractError(f"checkpoint {base!r} is missing manifest or blob")
    with open(manifest_path, "rb") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:  # undecodable, malformed or too deep
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
        count = math.prod(shape)
        if length != count * 8:
            raise ContractError(f"length mismatch for tensor {entry['name']!r}")
        out.append((entry["name"], shape, offset, count))
    fh = open(blob_path, "rb")
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        fh.close()
        if size < expected:
            raise ContractError("blob is shorter than the manifest requires")
        raise ContractError("blob is longer than the manifest describes")
    return out, meta, fh


def _read_values(fh, count: int) -> np.ndarray:
    """The next `count` float64 values of an open blob, read with one ``readinto``."""
    values = np.empty(count, dtype="<f8")
    if fh.readinto(values) != values.nbytes:
        raise ContractError("blob is shorter than the manifest requires")
    return values.astype(np.float64, copy=False)


def load_tensors(path: str) -> tuple:
    """Read back (ordered {name: array}, meta); validates the manifest.

    The blob is read once into one float64 buffer, and each array is a
    writable view of its own slice of that buffer, in manifest order; no two
    views overlap, and the buffer lives as long as any of them.
    """
    entries, meta, fh = _open(path)
    with fh:
        values = _read_values(fh, sum(count for _, _, _, count in entries))
    tensors = {}
    for name, shape, offset, count in entries:
        start = offset // 8
        tensors[name] = values[start:start + count].reshape(shape)
    return tensors, meta


def model_tensors(model) -> tuple:
    """(named arrays, meta) a ToyEnhancer's checkpoint stores: parameters and recipe."""
    meta = {key: getattr(model, key) for key in _RECIPE_KEYS}
    meta.update(kind="toy_enhancer", frozen=bool(model.frozen))
    return [(name, t.data) for name, t in model.named_parameters()], meta


def save_model(model, path: str) -> None:
    """Persist a ToyEnhancer's parameters and rebuild recipe."""
    save_tensors(path, *model_tensors(model))


def load_model(model_path: str):
    """Reconstruct a ToyEnhancer bit-exactly from its checkpoint.

    The model's plan, built from the metadata, is checked against the
    manifest before anything is allocated: a recipe NumPy cannot index, or
    one that needs more values than the blob holds, is refused, and so is a
    manifest that does not list the planned parameters in order.  The blob
    is then read straight into the model's arena; no random number is drawn.
    Non-finite parameters are rejected.
    """
    from .enhancer import ToyEnhancer, plan_size

    entries, meta, fh = _open(model_path)
    with fh:
        if meta.get("kind") != "toy_enhancer":
            raise ContractError(f"not an enhancer checkpoint: kind={meta.get('kind')!r}")
        missing = {*_RECIPE_KEYS, "frozen"} - meta.keys()
        if missing:
            raise ContractError(f"enhancer checkpoint meta lacks {sorted(missing)}")
        values = sum(count for _, _, _, count in entries)

        def read_arena(plan: list) -> np.ndarray:
            if plan_size(plan, stop=values) > values:
                raise ContractError(
                    "enhancer checkpoint meta: its widths, adr_blocks, adr_dims and "
                    "dyn_candidates describe more parameter values than the blob holds"
                )
            listed = [(name, shape) for name, shape, _, _ in entries]
            want = [(name, shape) for name, shape, _ in plan]
            for k, (got, need) in enumerate(itertools.zip_longest(listed, want)):
                if got != need:
                    raise ContractError(
                        "checkpoint does not list the model's parameters in order: "
                        f"entry {k} is {got}, the model's is {need}"
                    )
            return _read_values(fh, values)

        try:
            # the constructor checks the recipe, so a meta it refuses is malformed input
            check_bool(meta["frozen"], "frozen")
            model = ToyEnhancer(read_arena, **{key: meta[key] for key in _RECIPE_KEYS})
        except ConfigurationError as exc:
            raise ContractError(f"enhancer checkpoint meta: {exc}") from None
    if not np.isfinite(model.arena).all():
        name = next(name for name, t in model.named_parameters() if not np.isfinite(t.data).all())
        raise ContractError(f"checkpoint tensor {name} holds non-finite values")
    if meta["frozen"]:
        model.freeze()
    return model
