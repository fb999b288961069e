import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from infranet.agent import (
    QNetParams,
    hidden_layer,
    load_qnet,
    pooled_state,
    q_values,
    save_qnet,
)
from infranet.embed import EmbeddingMatrix, load_embedding, random_embeddings, save_embedding
from infranet.netgen import generate, preset_config
from infranet.serial import FormatError, read_tensors, write_tensors

from conftest import JSON_VALUES


def test_roundtrip_arrays(tmp_path):
    p = tmp_path / "t.bin"
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=7)]
    write_tensors(p, arrays, d=3, n_nodes=4, depth=2)
    back, header = read_tensors(p)
    assert header["version"] == 2
    assert (header["d"], header["n_nodes"], header["depth"]) == (3, 4, 2)
    for a, b in zip(arrays, back):
        assert b.dtype == np.float64 and b.shape == a.shape
        assert b.flags.c_contiguous and b.flags.writeable
        assert b.tobytes() == a.tobytes()


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
    assert np.frombuffer(raw[4:24], dtype="<u4").tolist() == [2, 5, 9, 2, 0]


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError, match="bad magic"):
        read_tensors(p)


def test_every_truncation_raises_format_error(tmp_path):
    p = tmp_path / "t.bin"
    write_tensors(p, [np.arange(6.0).reshape(2, 3)], d=2, n_nodes=3, depth=1)
    raw = p.read_bytes()
    assert len(raw) == 84    # header 24, shape 4 + 8, payload 48
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
    emb = EmbeddingMatrix(rng.normal(size=(4, 10)))
    p = tmp_path / "emb.bin"
    save_embedding(p, emb)
    back = load_embedding(p)
    assert back.Z.tobytes() == emb.Z.tobytes()
    assert back.provenance == emb.provenance


def test_qnet_roundtrip(tmp_path):
    params = QNetParams.init(4, np.random.default_rng(2))
    p = tmp_path / "q.bin"
    save_qnet(p, params)
    back = load_qnet(p)
    assert back.theta1.tobytes() == params.theta1.tobytes()
    assert back.theta2.tobytes() == params.theta2.tobytes()
    assert back.checksum() == params.checksum()


@pytest.mark.parametrize("d", [8, 16, 64])
def test_loaded_value_net_scores_like_the_saved_one(tmp_path, d):
    # `s @ theta2` takes another BLAS path for a Fortran-ordered theta2
    g = generate(preset_config("desk", seed=0))
    Z = random_embeddings(g, d, 0).Z
    params = QNetParams.init(d, np.random.default_rng(d))
    save_qnet(tmp_path / "q.bin", params)
    back = load_qnet(tmp_path / "q.bin")
    s = pooled_state(Z, [])
    q = q_values(s, params, hidden_layer(Z, params))
    assert len(q) == g.n
    assert q_values(s, back, hidden_layer(Z, back)).tobytes() == q.tobytes()


# an embedding (d=1, n_nodes=3) and a value net (d=1) as the version-1 writer
# wrote them, without sidecars: uint32 header and shapes, float32 payloads
EMBEDDING_V1 = bytes.fromhex(
    "4e564454" "01000000" "01000000" "03000000" "00000000" "01000000"
    "02000000" "01000000" "03000000"
    "cdcccc3d" "000020c0" "e6b1617f")                  # 0.1, -2.5, 3e38
QNET_V1 = bytes.fromhex(
    "4e564454" "01000000" "01000000" "00000000" "02000000" "02000000"
    "02000000" "02000000" "01000000" "cdcccc3d" "cdcc4c3e"     # theta1 0.1, 0.2
    "02000000" "01000000" "02000000" "9a99993e" "333333bf")    # theta2 0.3, -0.7


def test_version_1_files_read_as_float32_widened(tmp_path):
    emb_p, qnet_p = tmp_path / "emb.bin", tmp_path / "q.bin"
    emb_p.write_bytes(EMBEDDING_V1)
    qnet_p.write_bytes(QNET_V1)
    z = np.array([[0.1, -2.5, 3e38]], dtype=np.float32).astype(np.float64)
    thetas = [np.array([[0.1], [0.2]], dtype=np.float32).astype(np.float64),
              np.array([[0.3, -0.7]], dtype=np.float32).astype(np.float64)]
    arrays, header = read_tensors(emb_p)
    assert (header["version"], header["d"], header["n_nodes"]) == (1, 1, 3)
    assert [a.tobytes() for a in arrays] == [z.tobytes()]
    assert load_embedding(emb_p).Z.tobytes() == z.tobytes()
    arrays, header = read_tensors(qnet_p)
    assert (header["version"], header["d"], header["depth"]) == (1, 1, 2)
    assert [a.tobytes() for a in arrays] == [t.tobytes() for t in thetas]
    params = load_qnet(qnet_p)
    assert [params.theta1.tobytes(), params.theta2.tobytes()] == [t.tobytes() for t in thetas]
    # what it read is float64 and writable; a save writes it as version 2
    assert params.theta1.dtype == np.float64 and params.theta1.flags.writeable
    save_qnet(qnet_p, params)
    assert read_tensors(qnet_p)[1]["version"] == 2
    assert load_qnet(qnet_p).theta2.tobytes() == thetas[1].tobytes()
    # a (2, 3) array, column-major in the file, reads back C-ordered
    a = np.arange(6, dtype="<f4").reshape(2, 3) / 8
    p = tmp_path / "a.bin"
    p.write_bytes(b"NVDT" + struct.pack("<5I", 1, 2, 3, 0, 1) + struct.pack("<3I", 2, 2, 3)
                  + a.tobytes(order="F"))
    (b,), _ = read_tensors(p)
    assert b.dtype == np.float64 and b.flags.c_contiguous and b.flags.writeable
    assert b.tobytes() == a.astype(np.float64).tobytes()


# -- malformed files fail with FormatError -----------------------------------

def _qnet_file(tmp_path, d=2):
    params = QNetParams.init(d, np.random.default_rng(0))
    p = tmp_path / "q.bin"
    save_qnet(p, params)
    return p


def _embedding_file(tmp_path, shape=(2, 3)):
    p = tmp_path / "emb.bin"
    save_embedding(p, EmbeddingMatrix(np.ones(shape)))
    return p


@pytest.mark.parametrize("raw", [b"{", b"not json", b'{"provenance": }', b"\xff\xfe{}"])
def test_sidecar_that_is_not_json_raises_format_error(tmp_path, raw):
    p = _embedding_file(tmp_path)
    (tmp_path / "emb.bin.json").write_bytes(raw)
    for read in (read_tensors, load_embedding):
        with pytest.raises(FormatError, match=r"emb\.bin\.json: sidecar is not valid JSON"):
            read(p)


@pytest.mark.parametrize("doc", ["[]", '["provenance"]', "3", '"random"', "null"])
def test_sidecar_that_is_not_an_object_raises_format_error(tmp_path, doc):
    p = _embedding_file(tmp_path)
    (tmp_path / "emb.bin.json").write_text(doc)
    if doc == "null":
        # an explicit null reads like a missing sidecar: no config recorded
        assert read_tensors(p)[1]["sidecar"] is None
        return
    for read in (read_tensors, load_embedding):
        with pytest.raises(FormatError, match="sidecar must be a JSON object"):
            read(p)


def test_unknown_provenance_raises_format_error(tmp_path):
    p = _embedding_file(tmp_path)
    (tmp_path / "emb.bin.json").write_text('{"provenance": ["random"]}')
    with pytest.raises(FormatError, match="unknown provenance"):
        load_embedding(p)


def test_file_without_arrays_raises_format_error(tmp_path):
    p = tmp_path / "empty.bin"
    write_tensors(p, [], d=2, n_nodes=3, depth=1)
    with pytest.raises(FormatError, match=r"expected one \(2, 3\) array"):
        load_embedding(p)
    with pytest.raises(FormatError, match="expected thetas"):
        load_qnet(p)


@pytest.mark.parametrize("make", [_qnet_file, _embedding_file])
def test_trailing_bytes_raise_format_error(tmp_path, make):
    p = make(tmp_path)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="1 trailing bytes after the last array"):
        read_tensors(p)


def test_header_shape_must_match_the_embedding(tmp_path):
    p = tmp_path / "emb.bin"
    write_tensors(p, [np.zeros((4, 4))], d=2, n_nodes=3, depth=0)
    with pytest.raises(FormatError, match=r"expected one \(2, 3\) array .* \[\(4, 4\)\]"):
        load_embedding(p)
    write_tensors(p, [np.zeros((2, 3)), np.zeros((2, 3))], d=2, n_nodes=3, depth=0)
    with pytest.raises(FormatError, match="expected one"):
        load_embedding(p)
    write_tensors(p, [np.zeros(6)], d=2, n_nodes=3, depth=0)
    with pytest.raises(FormatError, match="expected one"):
        load_embedding(p)


@pytest.mark.parametrize("shapes", [
    [(4, 2)], [(4, 2), (2, 4), (2, 4)], [(2, 4), (4, 2)], [(4, 2), (2, 3)],
    [(6, 3), (3, 6)],   # a valid pair for d=3 under a header saying d=2
])
def test_qnet_thetas_must_match_the_header_d(tmp_path, shapes):
    p = tmp_path / "q.bin"
    write_tensors(p, [np.zeros(s) for s in shapes], d=2, n_nodes=0, depth=2)
    with pytest.raises(FormatError, match=r"expected thetas of shapes \(4, 2\) and \(2, 4\)"):
        load_qnet(p)


def test_non_finite_payload_raises_format_error(tmp_path):
    p = tmp_path / "t.bin"
    write_tensors(p, [np.array([[1.0, np.inf, 0.0], [0.0, 0.0, 0.0]])],
                  d=2, n_nodes=3, depth=0)
    with pytest.raises(FormatError, match="non-finite embedding entries"):
        load_embedding(p)
    theta1 = np.zeros((4, 2))
    theta1[1, 1] = np.nan
    write_tensors(p, [theta1, np.zeros((2, 4))], d=2, n_nodes=0, depth=2)
    with pytest.raises(FormatError, match="non-finite value-net entries"):
        load_qnet(p)


@pytest.mark.parametrize("big", [1e39, -3.5e38, 1e300, np.finfo(np.float64).max,
                                 -np.finfo(np.float64).max])
def test_finite_values_beyond_float32_roundtrip(tmp_path, big):
    # the float64 payload stores every finite value as it is, never as inf
    p = tmp_path / "t.bin"
    arrays = [np.zeros((2, 3)), np.array([[0.0, big, np.inf]])]
    write_tensors(p, arrays, d=2, n_nodes=3, depth=0)
    back = read_tensors(p)[0]
    assert [b.tobytes() for b in back] == [a.tobytes() for a in arrays]


# -- fuzzing: the readers raise nothing but FormatError ----------------------

READERS = (read_tensors, load_embedding, load_qnet)


def _only_format_errors(path):
    for read in READERS:
        try:
            read(path)
        except FormatError:
            pass


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=200))
def test_fuzz_arbitrary_bytes(tmp_path, data):
    p = tmp_path / "fuzz.bin"
    p.write_bytes(data)
    _only_format_errors(p)
    # the same bytes behind a valid magic and version reach the array parser,
    # at each payload width
    for version in (1, 2):
        p.write_bytes(b"NVDT" + struct.pack("<I", version) + data)
        _only_format_errors(p)


@pytest.mark.parametrize("make", [_qnet_file, _embedding_file])
def test_fuzz_every_truncation(tmp_path, make):
    p = make(tmp_path)
    raw = p.read_bytes()
    for size in range(len(raw)):
        p.write_bytes(raw[:size])
        for read in READERS:
            with pytest.raises(FormatError):
                read(p)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=JSON_VALUES | st.dictionaries(st.just("provenance"), JSON_VALUES, min_size=1),
       text=st.one_of(st.none(), st.text(max_size=40)),
       which=st.sampled_from(["qnet", "embedding"]))
def test_fuzz_sidecars(tmp_path, doc, text, which):
    p = _qnet_file(tmp_path) if which == "qnet" else _embedding_file(tmp_path)
    sidecar = tmp_path / (p.name + ".json")
    sidecar.write_text(json.dumps(doc) if text is None else text, encoding="utf-8")
    _only_format_errors(p)
