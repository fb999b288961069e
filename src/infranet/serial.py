"""Versioned binary tensor container for embeddings and value-net checkpoints.

Layout of version 2 (all integers little-endian uint32):
  magic 'NVDT' | version | d | n_nodes | depth | n_arrays
  then per array: ndim | dims... | little-endian float64 payload, column-major.
Version 1, the same layout with a float32 payload, still reads.
A JSON sidecar (<path>.json) records the producing config.
Arrays read back C-ordered float64, like every array the package computes.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

MAGIC = b"NVDT"
FORMAT_VERSION = 2
PAYLOAD_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}    # by version


class FormatError(ValueError):
    pass


def write_tensors(path, arrays, d: int, n_nodes: int, depth: int, sidecar: dict = None):
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<5I", FORMAT_VERSION, d, n_nodes, depth, len(arrays)))
        for a in arrays:
            a = np.asarray(a, dtype=PAYLOAD_DTYPES[FORMAT_VERSION])
            f.write(struct.pack("<I", a.ndim))
            f.write(struct.pack(f"<{a.ndim}I", *a.shape))
            f.write(a.tobytes(order="F"))
    if sidecar is not None:
        with open(str(path) + ".json", "w") as f:
            json.dump(sidecar, f, sort_keys=True, indent=2)
            f.write("\n")


def read_tensors(path):
    """Returns (arrays, header dict); loads the sidecar when present.

    A file that ends inside a part raises FormatError naming the part:
    the header, an array's shape or an array's payload. So do bytes after
    the last array, and a sidecar that is not a JSON object.
    """
    with open(path, "rb") as f:
        raw = f.read()
    pos = 0

    def take(size, part):
        nonlocal pos
        if size > len(raw) - pos:
            raise FormatError(f"{path}: truncated {part}: {len(raw) - pos} of {size} bytes")
        pos += size
        return raw[pos - size:pos]

    if take(4, "header") != MAGIC:
        raise FormatError(f"{path}: bad magic")
    version, d, n_nodes, depth, n_arrays = struct.unpack("<5I", take(20, "header"))
    if version not in PAYLOAD_DTYPES:
        raise FormatError(f"{path}: unsupported version {version}")
    dtype = PAYLOAD_DTYPES[version]
    arrays = []
    for i in range(n_arrays):
        (ndim,) = struct.unpack("<I", take(4, f"shape of array {i}"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"shape of array {i}"))
        data = np.frombuffer(take(dtype.itemsize * math.prod(shape), f"payload of array {i}"),
                             dtype=dtype)
        arrays.append(np.reshape(data, shape, order="F").astype(np.float64, order="C"))
    if pos != len(raw):
        raise FormatError(f"{path}: {len(raw) - pos} trailing bytes after the last array")
    header = {"version": version, "d": d, "n_nodes": n_nodes, "depth": depth}
    try:
        with open(str(path) + ".json", encoding="utf-8") as f:
            sidecar = json.load(f)
    except FileNotFoundError:
        sidecar = None
    except (ValueError, RecursionError) as e:
        raise FormatError(f"{path}.json: sidecar is not valid JSON: {e}") from None
    if sidecar is not None and not isinstance(sidecar, dict):
        raise FormatError(f"{path}.json: sidecar must be a JSON object, "
                          f"got {type(sidecar).__name__}")
    header["sidecar"] = sidecar
    return arrays, header
