import errno
import io
import json
import struct
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stpoi import container


def test_round_trip(tmp_path):
    path = tmp_path / "x.bin"
    meta = {"kind": "test", "tags": ["a", "b"], "n": 3}
    arrays = {
        "f64": np.linspace(0, 1, 7),
        "f32": np.ones((2, 3), dtype=np.float32),
        "ids": np.arange(5, dtype=np.int64),
        "empty": np.zeros((0, 4)),
    }
    container.save(path, meta, arrays)
    meta2, arrays2 = container.load(path)
    assert meta2 == meta
    assert set(arrays2) == set(arrays)
    for k in arrays:
        assert arrays2[k].dtype == arrays[k].dtype
        assert arrays2[k].shape == arrays[k].shape
        np.testing.assert_array_equal(arrays2[k], arrays[k])


def test_byte_determinism(tmp_path):
    meta = {"b": 1, "a": 2}
    arrays = {"z": np.arange(3.0), "a": np.eye(2)}
    p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
    container.save(p1, meta, arrays)
    container.save(p2, {"a": 2, "b": 1}, {"a": np.eye(2), "z": np.arange(3.0)})
    assert p1.read_bytes() == p2.read_bytes()


def test_non_contiguous_and_scalar_ok(tmp_path):
    path = tmp_path / "x.bin"
    arr = np.arange(12.0).reshape(3, 4)[:, ::2]      # non-contiguous view
    container.save(path, {}, {"v": arr, "s": np.float64(2.5)})
    _, arrays = container.load(path)
    np.testing.assert_array_equal(arrays["v"], arr)
    assert arrays["s"].shape == () and arrays["s"] == 2.5


# struct codes of the allowed dtypes, for payloads built without numpy
_CODES = {"float64": "d", "float32": "f", "int64": "q", "int32": "i", "uint8": "B"}


def test_odd_layouts_written_as_documented(tmp_path):
    # 0-d, empty, non-contiguous, Fortran-order and big-endian tensors: the
    # file is the prefix, the sorted compact JSON header, then each
    # tensor's values in C order as little-endian scalars
    arrays = {
        "a_scalar": np.float64(2.5),
        "b_scalar_be": np.array(-7, dtype=">i4"),
        "c_empty": np.zeros((0, 4)),
        "d_empty_be": np.zeros((3, 0), dtype=">f4"),
        "e_strided": np.arange(24.0).reshape(4, 6)[::2, ::-3],
        "f_fortran": np.asfortranarray(np.arange(6, dtype=np.int64).reshape(2, 3)),
        "g_be": np.arange(6, dtype=">f8").reshape(2, 3) / 7,
        "h_be_strided": np.arange(12, dtype=">f4").reshape(3, 4).T,
        "i_bytes": np.arange(5, dtype=np.uint8)[::2],
    }
    path = tmp_path / "x.bin"
    container.save(path, {"k": 1}, arrays)
    entries, payload = [], b""
    for name, arr in arrays.items():
        dtype = np.dtype(arr.dtype).name
        values = np.ravel(arr, order="C").tolist()
        blob = struct.pack("<" + _CODES[dtype] * len(values), *values)
        entries.append({"name": name, "dtype": dtype, "shape": list(np.shape(arr)),
                        "nbytes": len(blob)})
        payload += blob
    header = json.dumps({"meta": {"k": 1}, "tensors": entries},
                        sort_keys=True, separators=(",", ":")).encode()
    assert path.read_bytes() == (b"STPK" + struct.pack("<IQ", 1, len(header))
                                 + header + payload)


def test_at_most_one_tensor_copy_while_saving(tmp_path):
    # four 512 KB tensors that each need a converted copy: one copy at a
    # time stays below two tensors' bytes
    base = np.arange(4 * 2 * 65536, dtype=np.float64).reshape(4, 2 * 65536)
    arrays = {"strided": base[0, ::2], "reversed": base[1, ::-2],
              "be": base[2, :65536].astype(">f8"), "be2": base[3, 65536:].astype(">f8")}
    tracemalloc.start()
    try:
        container.save(tmp_path / "x.bin", {}, arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 65536 * 8


def test_one_copy_of_a_tensor_while_loading(tmp_path):
    # each payload is read straight into the array that load returns
    path = tmp_path / "x.bin"
    container.save(path, {}, {"a": np.arange(65536.0), "b": np.arange(65536)})
    tracemalloc.start()
    try:
        _, arrays = container.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(arrays["b"], np.arange(65536))
    assert arrays["a"].dtype == np.float64 and arrays["b"].dtype == np.int64
    assert peak < 3 * 65536 * 8


def test_payload_cut_short_while_reading_rejected(tmp_path, monkeypatch):
    # a file that shrinks after load took its size
    path = tmp_path / "x.bin"
    container.save(path, {}, {"a": np.arange(8.0)})
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    monkeypatch.setattr(container, "os", types.SimpleNamespace(
        fstat=lambda fd: types.SimpleNamespace(st_size=full)))
    with pytest.raises(container.ContainerError, match="'a' is cut short"):
        container.load(path)


def test_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(TypeError):
        container.save(tmp_path / "x.bin", {}, {"c": np.zeros(2, dtype=complex)})


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(container.ContainerError):
        container.load(path)


def test_rejects_truncation(tmp_path):
    path = tmp_path / "x.bin"
    container.save(path, {"kind": "t"}, {"a": np.ones(100)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 40])
    with pytest.raises(container.ContainerError):
        container.load(path)


def _raw(header, payload=b"", hlen=None, version=1):
    """A container file built by hand: prefix, header (an object to dump
    as JSON, or raw bytes) and payload; ``hlen`` overrides the recorded
    header length."""
    head = header if isinstance(header, bytes) else json.dumps(header).encode()
    return (container.MAGIC + struct.pack("<I", version)
            + struct.pack("<Q", len(head) if hlen is None else hlen) + head + payload)


def _entry(**overrides):
    entry = {"name": "a", "dtype": "float64", "shape": [2], "nbytes": 16}
    entry.update(overrides)
    return entry


@pytest.mark.parametrize("blob", [
    b"",
    container.MAGIC + b"\x01\x00",                            # 6 bytes
    container.MAGIC + b"\x01\x00\x00\x00\x10\x00\x00\x00",    # 12 bytes
    _raw({"meta": {}, "tensors": []}, version=2),
    _raw({"meta": {}, "tensors": []}, hlen=10**12),
    _raw(b"{not json"),
    _raw(b"\xff\xfe"),
    _raw(b"[" * 100000),
    _raw([]),
    _raw({}),
    _raw({"meta": [], "tensors": []}),
    _raw({"meta": {}, "tensors": {}}),
    _raw({"meta": {}, "tensors": ["a"]}),
    _raw({"meta": {}, "tensors": [_entry(dtype="complex128")]}, bytes(16)),
    _raw({"meta": {}, "tensors": [_entry(dtype="object")]}, bytes(16)),
    _raw({"meta": {}, "tensors": [_entry(dtype=["float64"])]}, bytes(16)),
    _raw({"meta": {}, "tensors": [_entry(shape=[-2])]}, bytes(16)),
    _raw({"meta": {}, "tensors": [_entry(shape=[2.0])]}, bytes(16)),
    _raw({"meta": {}, "tensors": [_entry(shape="2")]}, bytes(16)),
    _raw({"meta": {}, "tensors": [_entry(nbytes=8)]}, bytes(8)),
    _raw({"meta": {}, "tensors": [_entry(nbytes=10**12)]}, bytes(16)),
    _raw({"meta": {}, "tensors": [_entry(shape=[0, 10**30], nbytes=0)]}),
    _raw({"meta": {}, "tensors": [_entry(shape=[1] * 100, nbytes=8)]}, bytes(8)),
    _raw({"meta": {}, "tensors": [_entry(), _entry()]}, bytes(32)),
    _raw({"meta": {}, "tensors": [_entry()]}, bytes(15)),
    _raw({"meta": {}, "tensors": [_entry()]}, bytes(17)),
], ids=["empty", "6-bytes", "12-bytes", "version", "header-length", "bad-json",
        "bad-utf8", "deep-json", "header-list", "header-empty", "meta-list",
        "tensors-object", "entry-string", "dtype-complex", "dtype-object", "dtype-list",
        "negative-dim", "float-dim", "shape-string", "nbytes-short", "nbytes-huge",
        "dim-too-large", "rank-too-high", "duplicate-name", "payload-short",
        "payload-long"])
def test_rejects_malformed(tmp_path, blob):
    path = tmp_path / "x.bin"
    path.write_bytes(blob)
    with pytest.raises(container.ContainerError):
        container.load(path)


def test_hand_built_file_loads(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(_raw({"meta": {"k": 1}, "tensors": [_entry()]},
                          np.array([1.5, -2.0]).astype("<f8").tobytes()))
    meta, arrays = container.load(path)
    assert meta == {"k": 1}
    np.testing.assert_array_equal(arrays["a"], [1.5, -2.0])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "x.bin"
    container.save(path, {"kind": "t", "n": [1, 2]},
                   {"f": np.linspace(0, 1, 5), "i": np.arange(3, dtype=np.int32)})
    return path.parent, path.read_bytes()


def test_every_truncation_rejected(fuzz_dir):
    where, blob = fuzz_dir
    path = where / "cut.bin"
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(container.ContainerError):
            container.load(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_flipped_byte_loads_or_raises_container_error(fuzz_dir, data):
    where, blob = fuzz_dir
    at = data.draw(st.integers(0, len(blob) - 1))
    flip = data.draw(st.integers(1, 255))
    path = where / "flip.bin"
    path.write_bytes(blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:])
    try:
        container.load(path)
    except container.ContainerError:
        pass


def test_failed_write_keeps_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "x.bin"
    container.save(path, {"kind": "t"}, {"a": np.arange(50.0)})
    before = path.read_bytes()

    class DiskFull(io.BufferedWriter):
        def write(self, data):
            super().write(data[:5])
            raise OSError(errno.ENOSPC, "no space left on device")

    monkeypatch.setattr(container, "open",
                        lambda name, mode: DiskFull(io.FileIO(name, mode[0])),
                        raising=False)
    with pytest.raises(OSError):
        container.save(path, {"kind": "u"}, {"a": np.ones(50)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
