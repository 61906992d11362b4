"""Versioned binary checkpoint container.

Byte layout (all integers little-endian, floats IEEE-754 little-endian):

    magic   4 bytes  b"MLCK"
    version u32      currently 1
    cfg_len u64      length of the UTF-8 JSON model-config blob
    config  cfg_len bytes
    count   u32      number of named arrays
    then per array:
        name_len u16, name (UTF-8)
        dtype    u8   (0 = float64, 1 = int64)
        ndim     u8
        dims     ndim x u64
        data     row-major, element width 8

Round-trips are bit-exact. Loading verifies magic, version, truncation
and trailing bytes, that the config holds exactly the ``ModelConfig``
fields (plus ``RETIRED_KEYS`` at their one value) with their JSON types,
and that the arrays have the names, shapes and dtype that config needs
and finite values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct

import numpy as np

from . import network as net

MAGIC = b"MLCK"
VERSION = 1
_DTYPES = ("<f8", "<i8")   # by dtype code


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str, params: net.ModelParams,
                    config: net.ModelConfig) -> None:
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True).encode()
    arrays = params.named_arrays()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<Q", len(blob))
    out += blob
    out += struct.pack("<I", len(arrays))
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        nb = name.encode()
        out += struct.pack("<H", len(nb)) + nb
        out += struct.pack("<BB", _DTYPES.index(arr.dtype.str), arr.ndim)
        out += struct.pack("<%dQ" % arr.ndim, *arr.shape)
        out += arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load_checkpoint(path: str):
    """Returns (params, config). Raises CheckpointError on bad files."""
    with open(path, "rb") as fh:
        data = fh.read()
    view = memoryview(data)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError("truncated checkpoint file")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<Q", take(8))
    config = _config_from_json(bytes(take(cfg_len)))
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        # an undecodable name cannot match a needed one; see the check below
        name = bytes(take(name_len)).decode(errors="replace")
        code, ndim = struct.unpack("<BB", take(2))
        dims = struct.unpack("<%dQ" % ndim, take(8 * ndim))
        if code >= len(_DTYPES):
            raise CheckpointError(f"unknown dtype code {code} for array {name!r}")
        # the element count in Python ints, checked against the bytes left
        raw = take(8 * math.prod(dims))
        try:
            arr = np.frombuffer(raw, dtype=_DTYPES[code]).reshape(dims)
        except ValueError:   # no elements, but a dim beyond NumPy's limit
            raise CheckpointError(f"array {name!r} has unsupported dims {list(dims)}") from None
        arrays[name] = arr.astype(arr.dtype.newbyteorder("="))
    if pos != len(view):
        raise CheckpointError(f"{len(view) - pos} trailing bytes after the last array")
    mismatch = CheckpointError("checkpoint arrays do not have the names, shapes "
                               "and dtype its config needs")
    # counted before anything is allocated: a config can ask for far more
    # than the file holds
    if net.param_count(config) != sum(a.size for a in arrays.values()):
        raise mismatch
    params = net.init_params(config)
    needed = params.named_arrays()
    if ({k: (a.shape, a.dtype) for k, a in arrays.items()}
            != {k: (a.shape, a.dtype) for k, a in needed}):
        raise mismatch
    for name, arr in needed:
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"array {name!r} has a non-finite value")
        arr[...] = arrays[name]
    return params, config


# Keys older checkpoints store for retired model variants, at their one value
RETIRED_KEYS = {"abs_mode": "componentwise", "normalize_regions": False, "head": "linear"}


def _config_from_json(blob: bytes) -> net.ModelConfig:
    """The stored model config."""
    try:
        cfg = json.loads(blob.decode())
    except ValueError as e:
        raise CheckpointError(f"unreadable checkpoint config: {e}") from None
    fields = {f.name: net.field_type(f) for f in dataclasses.fields(net.ModelConfig)}
    keys = set(cfg) if isinstance(cfg, dict) else set()
    for k in keys & RETIRED_KEYS.keys():
        if (value := cfg.pop(k)) != RETIRED_KEYS[k]:
            raise CheckpointError(f"checkpoint config key {k!r} is {value!r}; "
                                  f"only {RETIRED_KEYS[k]!r} is supported")
        keys.remove(k)
    if keys != fields.keys():
        raise CheckpointError(f"checkpoint config has unknown keys {sorted(keys - fields.keys())} "
                              f"and lacks keys {sorted(fields.keys() - keys)}")
    # each value has its field's type (a bool is not an int), a tuple field a list
    for k, value in cfg.items():
        kind, many = fields[k]
        for v in value if many and isinstance(value, list) else [value]:
            if type(v) is not kind:
                raise CheckpointError(f"invalid checkpoint config: {type(v).__name__!r} object "
                                      f"cannot be interpreted as {kind.__name__} in {k!r}")
    try:
        return net.ModelConfig(**{k: tuple(v) if isinstance(v, list) else v
                                  for k, v in cfg.items()})
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"invalid checkpoint config: {e}") from None


def checkpoint_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
