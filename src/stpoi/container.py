"""Self-describing binary container for named tensors.

One file holds a JSON header plus the raw bytes of each tensor.  The same
layout backs model checkpoints and prepared-corpus caches, so both stay
inspectable with nothing but the standard library.

Layout (all integers little-endian):

    bytes 0..3    magic b"STPK"
    bytes 4..7    container format version, uint32
    bytes 8..15   header length in bytes, uint64
    next          UTF-8 JSON header
    next          tensor payloads, concatenated in header order

The header is a JSON object with a caller-supplied ``meta`` object and a
``tensors`` list.  Each tensor entry records ``name``, ``dtype`` (numpy
string such as "float64" or "int64"), ``shape``, and ``nbytes``.  Payloads
are C-order, little-endian, and appear in exactly the order listed.  Writing
the same header and arrays therefore always produces identical bytes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"STPK"
VERSION = 1
_PREFIX = struct.Struct("<4sIQ")    # magic, version, header length

# dtypes we are willing to round-trip; everything else is a caller bug.  A
# tuple, so that testing an unhashable header value for membership is False.
_ALLOWED = ("float32", "float64", "int32", "int64", "uint8")


class ContainerError(ValueError):
    """Raised when a file is not a readable container."""


def save(path, meta: dict, arrays: dict) -> None:
    """Write ``arrays`` (name -> ndarray) with metadata ``meta`` to ``path``.

    Tensors are stored sorted by name, so equal content yields equal bytes
    no matter how the caller's dict was built.  The bytes go to a temporary
    file in the same directory that then replaces ``path``, so a failed or
    interrupted write leaves any earlier file at ``path`` as it was.
    """
    tensors = {name: np.asarray(arrays[name]) for name in sorted(arrays)}
    entries = []
    for name, arr in tensors.items():
        dtype = arr.dtype.name
        if dtype not in _ALLOWED:
            raise TypeError(f"unsupported tensor dtype {dtype!r} for {name!r}")
        entries.append(
            {"name": name, "dtype": dtype, "shape": list(arr.shape), "nbytes": arr.nbytes}
        )
    header = json.dumps(
        {"meta": meta, "tensors": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_PREFIX.pack(MAGIC, VERSION, len(header)))
            fh.write(header)
            for arr in tensors.values():
                # C order, little-endian: one tensor's copy at most, where
                # it is not so already
                fh.write(np.ascontiguousarray(arr, arr.dtype.newbyteorder("<"))
                         .reshape(-1).view(np.uint8))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load(path):
    """Read a container, returning ``(meta, arrays)``.

    Raises ContainerError for any file that is not a well-formed container
    (bad magic, unknown version, malformed header, or sizes that disagree
    with the file); FileNotFoundError propagates from open().
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX.size)
        if prefix[:4] != MAGIC:
            raise ContainerError(f"{path}: not a container file (bad magic {prefix[:4]!r})")
        if len(prefix) < _PREFIX.size:
            raise ContainerError(f"{path}: truncated before the header")
        _, version, hlen = _PREFIX.unpack(prefix)
        if version != VERSION:
            raise ContainerError(f"{path}: unsupported container version {version}")
        if hlen > size - _PREFIX.size:
            raise ContainerError(f"{path}: header length {hlen} exceeds the file size")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ContainerError(f"{path}: unreadable header ({exc})") from None
        entries = _entries(path, header)
        if sum(e["nbytes"] for e in entries) != size - _PREFIX.size - hlen:
            raise ContainerError(f"{path}: payload size does not match the header")
        arrays = {}
        for entry in entries:
            name, dt = entry["name"], np.dtype(entry["dtype"])
            try:      # the payload's little-endian layout, read in place
                arr = np.empty(entry["shape"], dtype=dt.newbyteorder("<"))
            except ValueError as exc:     # numpy's own limits on rank and size
                raise ContainerError(f"{path}: tensor {name!r}: {exc}") from None
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != entry["nbytes"]:
                raise ContainerError(f"{path}: tensor {name!r} is cut short")
            arrays[name] = arr.astype(dt, copy=False)    # a copy on big-endian hosts only
    return header["meta"], arrays


def _entries(path, header) -> list:
    """The tensor entries of a parsed header.  Raises ContainerError unless
    the header is an object with an object ``meta`` and a list ``tensors``
    of distinct names, each with an allowed dtype, a shape of non-negative
    ints and ``nbytes`` equal to the shape's size."""
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("tensors"), list)):
        raise ContainerError(f"{path}: header is not an object with an object "
                             f"'meta' and a list 'tensors'")
    names = set()
    for e in header["tensors"]:
        if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                and e["name"] not in names and e.get("dtype") in _ALLOWED
                and isinstance(e.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in e["shape"])
                and type(e.get("nbytes")) is int
                and e["nbytes"] == math.prod(e["shape"]) * np.dtype(e["dtype"]).itemsize):
            raise ContainerError(f"{path}: malformed tensor entry {e!r:.100}")
        names.add(e["name"])
    return header["tensors"]
