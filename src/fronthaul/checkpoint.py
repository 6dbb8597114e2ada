"""Self-describing binary checkpoints.

Layout: 4-byte magic, little-endian uint32 format version, uint64 header
length, a UTF-8 JSON header (config echo, round index, array manifest
with names and shapes), then the arrays back to back as little-endian
float64 in manifest order. Loading a file written by this module gives
back bit-identical arrays; anything malformed, truncated, or from a
different format version is rejected outright.
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np

Array = np.ndarray

MAGIC = b"FHCK"
VERSION = 2  # 2: one "{set}.{key}" array per stacked array; 1 named every slice
_FIXED = struct.Struct("<4sIQ")


class CheckpointError(ValueError):
    """Raised for unreadable or incompatible checkpoint files."""


def save_checkpoint(path, params: dict[str, Array], config_text: str,
                    round_index: int = 0) -> None:
    names = sorted(params)
    manifest = []
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps({"config_text": config_text, "round": int(round_index),
                         "arrays": manifest}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_FIXED.pack(MAGIC, VERSION, len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> tuple[dict[str, Array], str, int]:
    """Returns (params, config_text, round_index)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if len(raw) < _FIXED.size:
        raise CheckpointError(f"{path}: truncated before the fixed header")
    magic, version, header_len = _FIXED.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    if version != VERSION:
        raise CheckpointError(
            f"{path}: format version {version}, this library reads version {VERSION}")
    header_end = _FIXED.size + header_len
    if len(raw) < header_end:
        raise CheckpointError(f"{path}: truncated inside the header")
    try:
        header = json.loads(raw[_FIXED.size:header_end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or too deep
        raise CheckpointError(f"{path}: unreadable header: {exc}") from None
    manifest = _check_header(header, path)
    params: dict[str, Array] = {}
    offset = header_end
    for name, shape in manifest:
        count = math.prod(shape)
        nbytes = count * 8
        if len(raw) < offset + nbytes:
            raise CheckpointError(f"{path}: truncated inside array {name!r}")
        try:
            params[name] = np.frombuffer(
                raw, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        except (ValueError, OverflowError) as exc:  # e.g. a zero dim beside a huge one
            raise CheckpointError(f"{path}: array {name!r} has shape {list(shape)}: {exc}") \
                from None
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return params, header["config_text"], header["round"]


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_header(header, path) -> list[tuple[str, tuple[int, ...]]]:
    """The array manifest as (name, shape) pairs, once every header field is well formed."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key in ("config_text", "round", "arrays"):
        if key not in header:
            raise CheckpointError(f"{path}: header has no {key!r}")
    if not isinstance(header["config_text"], str):
        raise CheckpointError(f"{path}: header 'config_text' is not a string")
    if not _is_count(header["round"]):
        raise CheckpointError(f"{path}: header 'round' is not a nonnegative integer")
    if not isinstance(header["arrays"], list):
        raise CheckpointError(f"{path}: header 'arrays' is not a list")
    manifest = []
    for idx, entry in enumerate(header["arrays"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CheckpointError(f"{path}: array entry {idx} has no string 'name'")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
            raise CheckpointError(
                f"{path}: array {entry['name']!r} has no list of nonnegative dims as 'shape'")
        manifest.append((entry["name"], tuple(shape)))
    if len({name for name, _ in manifest}) != len(manifest):
        raise CheckpointError(f"{path}: array names repeat")
    return manifest
