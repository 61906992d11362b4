"""Versioned checkpoint container: round trips, digests, error paths."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshlearn.network as net
from meshlearn.checkpoint import (MAGIC, CheckpointError, checkpoint_digest,
                                  load_checkpoint, save_checkpoint)

from test_network import small_config


def _params(config, seed=0):
    return net.init_params(config, np.random.default_rng(seed))


def test_round_trip_bit_identical(tmp_path):
    config = small_config()
    params = _params(config)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, params, config)
    loaded, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    for (na, a), (nb, b) in zip(params.named_arrays(), loaded.named_arrays()):
        assert na == nb
        assert np.array_equal(a, b) and a.dtype == b.dtype


# sha256 of the config blob of TUPLE_CONFIG, as the writer that turned
# every tuple into a list before json.dumps stored it
TUPLE_CONFIG = net.ModelConfig(num_classes=4, k_geo=2, k_geom=3, block_channels=(8, 12),
                               convs_per_block=1, region_sizes=(3, 5), t_schedule=(60, 30),
                               use_activation=False, seed=5)
TUPLE_CONFIG_BLOB_SHA256 = "b16fe2630f475596c5528bc69a6b6123f2cd1c4fa675dc2d974f0684b2c546f7"


def test_file_layout_and_pinned_config_blob(tmp_path):
    """The whole file is the documented layout, byte for byte, and the
    config blob of a config with non-default tuples has a pinned digest."""
    params = _params(TUPLE_CONFIG)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, params, TUPLE_CONFIG)
    data = open(path, "rb").read()
    (cfg_len,) = struct.unpack_from("<Q", data, 8)
    blob = data[16:16 + cfg_len]
    assert hashlib.sha256(blob).hexdigest() == TUPLE_CONFIG_BLOB_SHA256
    assert json.loads(blob)["block_channels"] == [8, 12]
    arrays = params.named_arrays()
    expected = MAGIC + struct.pack("<IQ", 1, cfg_len) + blob + struct.pack("<I", len(arrays))
    for name, arr in arrays:
        expected += struct.pack("<H", len(name)) + name.encode()
        expected += struct.pack("<BB", 0, arr.ndim) + struct.pack("<%dQ" % arr.ndim, *arr.shape)
        expected += arr.astype("<f8").tobytes()
    assert data == expected


def test_truncated_file(tmp_path):
    config = small_config()
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, _params(config), config)
    data = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_bad_magic_and_version(tmp_path):
    config = small_config()
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, _params(config), config)
    data = bytearray(open(path, "rb").read())
    bad = str(tmp_path / "bad.ckpt")
    with open(bad, "wb") as fh:
        fh.write(b"NOPE" + bytes(data[4:]))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)
    ver = str(tmp_path / "ver.ckpt")
    with open(ver, "wb") as fh:
        fh.write(bytes(MAGIC) + struct.pack("<I", 99) + bytes(data[8:]))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(ver)


def test_digest_stable_across_saves(tmp_path):
    config = small_config()
    params = _params(config, seed=0)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, params, config)
    save_checkpoint(p2, _params(config, seed=0), config)
    assert checkpoint_digest(p1) == checkpoint_digest(p2)
    save_checkpoint(p2, _params(config, seed=1), config)
    assert checkpoint_digest(p1) != checkpoint_digest(p2)


def test_retired_keys_at_their_value_load(tmp_path):
    """A config that also stores the retired keys at the one value each now
    fixes, as checkpoints written before their retirement do, loads to the
    same config and arrays."""
    config = small_config()
    params = _params(config)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, params, config)
    data = open(path, "rb").read()
    (cfg_len,) = struct.unpack_from("<Q", data, 8)
    cfg = json.loads(data[16:16 + cfg_len])
    cfg.update(abs_mode="componentwise", normalize_regions=False, head="linear")
    blob = json.dumps(cfg, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + cfg_len:])
    loaded, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    for (na, a), (nb, b) in zip(params.named_arrays(), loaded.named_arrays()):
        assert na == nb and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Each malformed checkpoint, with the message its CheckpointError carries.
DEFECTS = {
    "unknown_dtype": "dtype code 7",
    "unknown_config_key": r"unknown keys \['dropout'\]",
    "missing_config_key": r"lacks keys \['block_channels'\]",
    "trailing_bytes": "8 trailing bytes",
    "missing_conv_layers": "names, shapes",
    "non_utf8_name": "names, shapes",
    # the retired keys, each at a value other than the one it now fixes
    "unknown_head": "key 'head' is 'channel_gap'; only 'linear' is supported",
    "unknown_abs_mode": "key 'abs_mode' is 'norm'; only 'componentwise' is supported",
    "unknown_normalize_regions": "key 'normalize_regions' is True; only False is supported",
    "region_size_below_3": r"region_sizes \S.* has an entry below 3",
    "t_schedule_below_4": r"t_schedule \S.* has an entry below 4",
    "negative_seed": "seed must be >= 0",
    # (10**5)**2 weights per conv layer: over net.MAX_PARAMS
    "huge_block_channels": "150004500017 parameters exceed the budget of 100000000",
    # 6e7 elements, within the budget; rejected before any is allocated
    "block_channels_beyond_file": "names, shapes",
    # u64 dims whose product overflows int64, wraps it to 0, or has no
    # elements but a dim beyond NumPy's limit
    "dims_beyond_int64": "truncated checkpoint file",
    "dims_product_wraps": "truncated checkpoint file",
    "dims_zero_and_huge": r"array 'descriptor.geo' has unsupported dims \[0, 18446744073709551615\]",
    # non-finite weights: the loader checks every array
    "nan_in_conv0_w0": "array 'conv0.w0' has a non-finite value",
    "inf_in_descriptor_geo": "array 'descriptor.geo' has a non-finite value",
    # each field's JSON type is checked: ints that are not bools, lists of
    # them, and a bool flag
    "float_k_geo": "invalid checkpoint config: 'float' object cannot be interpreted",
    "float_region_size": r"'float' object cannot be interpreted as int in 'region_sizes'",
    "float_t_schedule": r"'float' object cannot be interpreted as int in 't_schedule'",
    "float_seed": r"'float' object cannot be interpreted as int in 'seed'",
    "bool_k_geo": r"'bool' object cannot be interpreted as int in 'k_geo'",
    "string_use_activation": r"'str' object cannot be interpreted as bool in 'use_activation'",
    "int_use_activation": r"'int' object cannot be interpreted as bool in 'use_activation'",
}

# the first array's two u64 dims, for each dims defect
HUGE_DIMS = {"dims_beyond_int64": (2**64 - 1, 2**64 - 1),
             "dims_product_wraps": (2**32, 2**32),
             "dims_zero_and_huge": (0, 2**64 - 1)}


def write_malformed(path, defect):
    """Save a checkpoint of ``small_config`` at ``path`` with one defect."""
    config = small_config()
    params = _params(config)
    if defect == "missing_conv_layers":
        params.conv_layers = params.conv_layers[:3]    # the config needs 6
    elif defect == "nan_in_conv0_w0":
        params.conv_layers[0].w0[1, 2] = np.nan
    elif defect == "inf_in_descriptor_geo":
        params.descriptor.geo[0, 1] = np.inf
    save_checkpoint(path, params, config)
    data = bytearray(open(path, "rb").read())
    (cfg_len,) = struct.unpack_from("<Q", data, 8)
    cfg = json.loads(bytes(data[16:16 + cfg_len]))
    rest = data[16 + cfg_len:]     # array count, then the arrays
    if defect == "unknown_dtype":
        (name_len,) = struct.unpack_from("<H", rest, 4)
        rest[6 + name_len] = 7     # the first array's dtype code
    elif defect == "unknown_config_key":
        cfg["dropout"] = 0.5
    elif defect == "missing_config_key":
        del cfg["block_channels"]
    elif defect == "trailing_bytes":
        rest += bytes(8)
    elif defect == "unknown_head":
        cfg["head"] = "channel_gap"
    elif defect == "unknown_abs_mode":
        cfg["abs_mode"] = "norm"
    elif defect == "unknown_normalize_regions":
        cfg["normalize_regions"] = True
    elif defect == "region_size_below_3":
        cfg["region_sizes"][0] = 2
    elif defect == "t_schedule_below_4":
        cfg["t_schedule"][-1] = 3
    elif defect == "negative_seed":
        cfg["seed"] = -1
    elif defect == "float_k_geo":
        cfg["k_geo"] = float(cfg["k_geo"])
    elif defect == "float_region_size":
        cfg["region_sizes"] = [3.5, 4, 5]
    elif defect == "float_t_schedule":
        cfg["t_schedule"] = [40.5, 34, 28]
    elif defect == "float_seed":
        cfg["seed"] = 1.5
    elif defect == "bool_k_geo":
        cfg["k_geo"] = True
    elif defect == "string_use_activation":
        cfg["use_activation"] = "no"
    elif defect == "int_use_activation":
        cfg["use_activation"] = 0
    elif defect == "huge_block_channels":
        cfg["block_channels"] = [10**5] * 3
    elif defect == "block_channels_beyond_file":
        cfg["block_channels"] = [2000] * 3
    elif defect == "non_utf8_name":
        rest[6] = 0xFF             # the first byte of the first array's name
    elif defect in HUGE_DIMS:
        (name_len,) = struct.unpack_from("<H", rest, 4)
        assert rest[7 + name_len] == 2    # the first array's ndim
        struct.pack_into("<2Q", rest, 8 + name_len, *HUGE_DIMS[defect])
    blob = json.dumps(cfg, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(bytes(data[:8]) + struct.pack("<Q", len(blob)) + blob + bytes(rest))


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_malformed_checkpoint_rejected(tmp_path, defect):
    path = str(tmp_path / "bad.ckpt")
    write_malformed(path, defect)
    with pytest.raises(CheckpointError, match=DEFECTS[defect]):
        load_checkpoint(path)


def mutate_bytes(data: bytes, draw, limit: int | None = None) -> bytes:
    """One to three byte overwrites, insertions or deletions, at positions
    below ``limit`` (by default anywhere)."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, min(limit or len(out), len(out)) - 1))
        op = draw(st.sampled_from(["set", "insert", "delete"]))
        if op == "delete":
            del out[i]
        else:
            out[i:i + (op == "set")] = bytes([draw(st.integers(0, 255))])
    return bytes(out)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_raises_only_checkpoint_error(tmp_path_factory, data):
    path = str(tmp_path_factory.mktemp("ckpt") / "m.ckpt")
    config = small_config()
    save_checkpoint(path, _params(config), config)
    good = open(path, "rb").read()
    # most of the structure sits in the header, the config and the first
    # array headers; the rest is float data
    limit = data.draw(st.sampled_from([64, 400, None]))
    with open(path, "wb") as fh:
        fh.write(mutate_bytes(good, data.draw, limit))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
