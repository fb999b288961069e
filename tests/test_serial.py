import json
import struct

import numpy as np
import pytest

from infranet.agent import QNetParams, load_qnet, save_qnet
from infranet.embed import EmbeddingMatrix, load_embedding, save_embedding
from infranet.serial import FormatError, read_tensors, write_tensors


def test_roundtrip_arrays(tmp_path):
    p = tmp_path / "t.bin"
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=(3, 4)).astype(np.float32),
              rng.normal(size=7).astype(np.float32)]
    write_tensors(p, arrays, d=3, n_nodes=4, depth=2)
    back, header = read_tensors(p)
    assert header["version"] == 1
    assert (header["d"], header["n_nodes"], header["depth"]) == (3, 4, 2)
    for a, b in zip(arrays, back):
        np.testing.assert_array_equal(a.astype(np.float64), b)


def test_write_byte_stable(tmp_path):
    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_tensors(p1, [a], d=3, n_nodes=4, depth=1)
    write_tensors(p2, [a.copy(order="C")], d=3, n_nodes=4, depth=1)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    p = tmp_path / "t.bin"
    write_tensors(p, [], d=5, n_nodes=9, depth=2)
    raw = p.read_bytes()
    assert raw[:4] == b"NVDT"
    assert np.frombuffer(raw[4:24], dtype="<u4").tolist() == [1, 5, 9, 2, 0]


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError, match="bad magic"):
        read_tensors(p)


def test_every_truncation_raises_format_error(tmp_path):
    p = tmp_path / "t.bin"
    write_tensors(p, [np.arange(6, dtype=np.float32).reshape(2, 3)], d=2, n_nodes=3, depth=1)
    raw = p.read_bytes()
    assert len(raw) == 60    # header 24, shape 4 + 8, payload 24
    short = tmp_path / "short.bin"
    for size in range(len(raw)):
        short.write_bytes(raw[:size])
        part = "header" if size < 24 else "shape" if size < 36 else "payload"
        with pytest.raises(FormatError, match=rf"short\.bin: truncated {part}"):
            read_tensors(short)
    # a shape that claims a 16 GiB payload is caught by length, not by allocating it
    short.write_bytes(raw[:24] + struct.pack("<3I", 2, 2**31, 2))
    with pytest.raises(FormatError, match="truncated payload"):
        read_tensors(short)


def test_bad_version(tmp_path):
    p = tmp_path / "t.bin"
    write_tensors(p, [], d=1, n_nodes=1, depth=1)
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="unsupported version"):
        read_tensors(p)


def test_sidecar_roundtrip(tmp_path):
    p = tmp_path / "t.bin"
    write_tensors(p, [np.zeros(2, dtype=np.float32)], d=2, n_nodes=1, depth=1,
                  sidecar={"lr": 0.01, "seed": 3})
    _, header = read_tensors(p)
    assert header["sidecar"] == {"lr": 0.01, "seed": 3}
    assert json.loads((tmp_path / "t.bin.json").read_text())["seed"] == 3


def test_missing_sidecar_is_none(tmp_path):
    p = tmp_path / "t.bin"
    write_tensors(p, [], d=1, n_nodes=1, depth=1)
    _, header = read_tensors(p)
    assert header["sidecar"] is None


def test_embedding_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    emb = EmbeddingMatrix(rng.normal(size=(4, 10)).astype(np.float32).astype(np.float64))
    p = tmp_path / "emb.bin"
    save_embedding(p, emb)
    back = load_embedding(p)
    np.testing.assert_array_equal(back.Z, emb.Z)
    assert back.provenance == emb.provenance


def test_qnet_roundtrip(tmp_path):
    params = QNetParams.init(4, np.random.default_rng(2))
    # float32 storage: quantize before comparing
    params.theta1[:] = params.theta1.astype(np.float32)
    params.theta2[:] = params.theta2.astype(np.float32)
    params.sync_target()
    p = tmp_path / "q.bin"
    save_qnet(p, params)
    back = load_qnet(p)
    np.testing.assert_array_equal(back.theta1, params.theta1)
    np.testing.assert_array_equal(back.theta2, params.theta2)
    assert back.checksum() == params.checksum()
