"""Tensor serialization: single-tensor files and named-tensor checkpoints.

File layout (little-endian throughout):

    magic   8 bytes  b"CFTNSR01"
    rank    u32
    dims    rank * u32
    data    prod(dims) * f32, row-major

A checkpoint is a directory holding ``tensors.bin`` (the records above,
concatenated in sorted name order) and ``index.json`` mapping each name to
its byte offset. float64 tensors are narrowed to float32 on write.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Optional

import numpy as np

from .tensor import Tensor

MAGIC = b"CFTNSR01"
INDEX_NAME = "index.json"
DATA_NAME = "tensors.bin"
SCHEMA_VERSION = 1


class TensorFormatError(ValueError):
    """Raised for bad magic bytes, truncated payloads, or index mismatches."""


def write_tensor(fp: BinaryIO, tensor: Tensor) -> int:
    """Append one record to an open binary stream; returns bytes written."""
    # ascontiguousarray would promote rank-0 to rank-1; asarray keeps it.
    arr = np.asarray(tensor.data, dtype="<f4", order="C")
    dims = arr.shape
    header = MAGIC + struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    payload = arr.tobytes(order="C")
    fp.write(header)
    fp.write(payload)
    return len(header) + len(payload)


def read_tensor(fp: BinaryIO) -> Tensor:
    magic = fp.read(len(MAGIC))
    if magic != MAGIC:
        raise TensorFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    raw = fp.read(4)
    if len(raw) != 4:
        raise TensorFormatError("truncated header: missing rank")
    (rank,) = struct.unpack("<I", raw)
    # The header's sizes are checked against the bytes left before they are
    # read, so a corrupted header cannot ask for a read of any size.
    here = fp.tell()
    left = fp.seek(0, os.SEEK_END) - here
    fp.seek(here)
    if 4 * rank > left:
        raise TensorFormatError(f"truncated header: expected {rank} dims")
    dims = struct.unpack(f"<{rank}I", fp.read(4 * rank)) if rank else ()
    count = math.prod(dims)
    if 4 * count > left - 4 * rank:
        raise TensorFormatError(f"truncated payload: wanted {4 * count} bytes, got {left - 4 * rank}")
    payload = fp.read(4 * count)
    arr = np.frombuffer(payload, dtype="<f4").astype(np.float32).reshape(dims)
    return Tensor(arr)


def save_tensor(path, tensor: Tensor) -> None:
    with open(path, "wb") as fp:
        write_tensor(fp, tensor)


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fp:
        return read_tensor(fp)


def save_checkpoint(dirpath, tensors: dict[str, Tensor], metadata: Optional[dict] = None) -> None:
    """Write a named-tensor archive. Names must be non-empty and unique.

    Both files are written under temporary names in the directory and then
    renamed into place, data first and index last, so a write that fails
    leaves the checkpoint already there as it was.
    """
    if not all(tensors):
        raise ValueError("checkpoint tensor names must be non-empty")
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    data_tmp, index_tmp = d / f"{DATA_NAME}.tmp", d / f"{INDEX_NAME}.tmp"
    try:
        entries = []
        offset = 0
        with open(data_tmp, "wb") as fp:
            for name in sorted(tensors):
                t = tensors[name]
                size = write_tensor(fp, t)
                entries.append({"name": name, "offset": offset, "shape": list(t.shape)})
                offset += size
        index = {
            "schema_version": SCHEMA_VERSION,
            "entries": entries,
            "metadata": metadata or {},
        }
        with open(index_tmp, "w") as fp:
            json.dump(index, fp, indent=2, sort_keys=True)
            fp.write("\n")
        os.replace(data_tmp, d / DATA_NAME)
        os.replace(index_tmp, d / INDEX_NAME)
    finally:
        data_tmp.unlink(missing_ok=True)
        index_tmp.unlink(missing_ok=True)


def load_checkpoint(dirpath) -> tuple[dict[str, Tensor], dict]:
    """Read a checkpoint written by ``save_checkpoint``. A malformed index or
    a record that does not match it raises ``TensorFormatError``."""
    d = Path(dirpath)
    index_path = d / INDEX_NAME
    data_path = d / DATA_NAME
    if not index_path.exists() or not data_path.exists():
        raise TensorFormatError(f"{d} is not a checkpoint directory (missing index or data file)")
    with open(index_path) as fp:
        try:
            index = json.load(fp)
        except json.JSONDecodeError as e:
            raise TensorFormatError(f"{index_path}: bad JSON ({e})") from e
    schema = index.get("schema_version") if isinstance(index, dict) else None
    if schema != SCHEMA_VERSION:
        raise TensorFormatError(f"unsupported checkpoint schema {schema!r}")
    entries = index.get("entries")
    if not isinstance(entries, list):
        raise TensorFormatError(f"{index_path}: entries must be a list, got {type(entries).__name__}")
    metadata = index.get("metadata", {})
    if not isinstance(metadata, dict):
        raise TensorFormatError(f"{index_path}: metadata must be an object, got {type(metadata).__name__}")
    tensors: dict[str, Tensor] = {}
    with open(data_path, "rb") as fp:
        for i, entry in enumerate(entries):
            if not (isinstance(entry, dict) and {"name", "offset", "shape"} <= entry.keys()
                    and isinstance(entry["name"], str)
                    and type(entry["offset"]) is int and entry["offset"] >= 0):
                raise TensorFormatError(f"{index_path}: entry {i} needs a string name, a shape and "
                                        f"an offset >= 0, got {entry!r:.200}")
            name = entry["name"]
            if name in tensors:
                raise TensorFormatError(f"{index_path}: entry {i} repeats the name {name!r}")
            fp.seek(entry["offset"])
            try:
                t = read_tensor(fp)
            except TensorFormatError as e:
                raise TensorFormatError(f"{name}: {e}") from e
            if list(t.shape) != entry["shape"]:
                raise TensorFormatError(
                    f"{name}: stored shape {list(t.shape)} != index shape {entry['shape']}"
                )
            tensors[name] = t
    return tensors, metadata
