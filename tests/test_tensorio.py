"""Serialization format and checkpoint directory tests."""

import io
import json
import struct

import numpy as np
import pytest

from crossfuse import tensorio
from crossfuse.tensor import Tensor
from crossfuse.tensorio import (
    MAGIC,
    TensorFormatError,
    load_checkpoint,
    load_tensor,
    read_tensor,
    save_checkpoint,
    save_tensor,
    write_tensor,
)


def test_single_tensor_byte_layout():
    buf = io.BytesIO()
    n = write_tensor(buf, Tensor(np.array([1.0, 2.5], np.float32)))
    want = (
        MAGIC
        + struct.pack("<I", 1)
        + struct.pack("<I", 2)
        + np.array([1.0, 2.5], dtype="<f4").tobytes()
    )
    assert buf.getvalue() == want
    assert n == len(want)


def test_roundtrip_ranks(tmp_path):
    rng = np.random.default_rng(0)
    for shape in ((), (5,), (3, 4), (2, 3, 4, 5)):
        arr = rng.normal(size=shape).astype(np.float32)
        path = tmp_path / f"r{len(shape)}.tnsr"
        save_tensor(path, Tensor(arr))
        back = load_tensor(path)
        assert back.shape == shape
        np.testing.assert_array_equal(back.data, arr)


def test_float64_is_narrowed_on_write(tmp_path):
    arr = np.array([1.0, 1.0 + 1e-12], np.float64)
    save_tensor(tmp_path / "x.tnsr", Tensor(arr))
    back = load_tensor(tmp_path / "x.tnsr")
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back.data, arr.astype(np.float32))


def test_bad_magic_is_rejected():
    with pytest.raises(TensorFormatError, match="bad magic"):
        read_tensor(io.BytesIO(b"NOTMAGIC" + b"\x00" * 16))


def test_truncated_header_is_rejected():
    with pytest.raises(TensorFormatError, match="truncated header"):
        read_tensor(io.BytesIO(MAGIC + b"\x01"))
    with pytest.raises(TensorFormatError, match="truncated header"):
        read_tensor(io.BytesIO(MAGIC + struct.pack("<I", 3) + struct.pack("<I", 2)))


def test_truncated_payload_is_rejected():
    buf = io.BytesIO()
    write_tensor(buf, Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)))
    clipped = buf.getvalue()[:-4]
    with pytest.raises(TensorFormatError, match="truncated payload"):
        read_tensor(io.BytesIO(clipped))


class _ReadLog(io.BytesIO):
    """A byte stream that records the size of every read."""

    def __init__(self, data):
        super().__init__(data)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


def test_corrupted_dims_raise_format_error():
    # 2^32 - 1 squared elements: the count overflowed a read before.
    header = MAGIC + struct.pack("<I", 2) + struct.pack("<2I", 0xFFFFFFFF, 0xFFFFFFFF)
    with pytest.raises(TensorFormatError, match="truncated payload"):
        read_tensor(io.BytesIO(header + b"\x00" * 16))


def test_a_header_claiming_a_large_payload_reads_nothing_past_the_stream():
    body = np.zeros(4, dtype="<f4").tobytes()
    stream = _ReadLog(MAGIC + struct.pack("<I", 1) + struct.pack("<I", 1 << 28) + body)
    with pytest.raises(TensorFormatError, match=f"wanted {4 << 28} bytes, got {len(body)}"):
        read_tensor(stream)
    assert max(stream.sizes) <= len(stream.getvalue())


def test_a_corrupted_rank_reads_nothing_past_the_stream():
    stream = _ReadLog(MAGIC + struct.pack("<I", 0xFFFFFFFF) + b"\x00" * 8)
    with pytest.raises(TensorFormatError, match="truncated header: expected 4294967295 dims"):
        read_tensor(stream)
    assert max(stream.sizes) <= len(stream.getvalue())


def test_stream_holds_multiple_records():
    buf = io.BytesIO()
    write_tensor(buf, Tensor(np.array([1.0], np.float32)))
    write_tensor(buf, Tensor(np.array([[2.0, 3.0]], np.float32)))
    buf.seek(0)
    first = read_tensor(buf)
    second = read_tensor(buf)
    np.testing.assert_array_equal(first.data, [1.0])
    np.testing.assert_array_equal(second.data, [[2.0, 3.0]])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _tensors(seed=1):
    rng = np.random.default_rng(seed)
    return {
        "stage.w": Tensor(rng.normal(size=(4, 3)).astype(np.float32), name="stage.w", trainable=True),
        "stage.b": Tensor(rng.normal(size=(3,)).astype(np.float32), name="stage.b", trainable=True),
        "emb": Tensor(rng.normal(size=(2, 2, 2)).astype(np.float32), name="emb", trainable=True),
    }


def test_checkpoint_roundtrip_with_metadata(tmp_path):
    tensors = _tensors()
    save_checkpoint(tmp_path, tensors, metadata={"kind": "test", "step": 7})
    loaded, meta = load_checkpoint(tmp_path)
    assert meta == {"kind": "test", "step": 7}
    assert set(loaded) == set(tensors)
    for name, t in tensors.items():
        np.testing.assert_array_equal(loaded[name].data, t.data)


def test_checkpoint_index_is_sorted_by_name(tmp_path):
    save_checkpoint(tmp_path, _tensors())
    index = json.loads((tmp_path / "index.json").read_text())
    names = [e["name"] for e in index["entries"]]
    assert names == sorted(names)


def test_checkpoint_rejects_empty_name(tmp_path):
    bad = {"": Tensor(np.zeros(1, np.float32))}
    with pytest.raises(ValueError, match="non-empty"):
        save_checkpoint(tmp_path, bad)


def test_checkpoint_missing_files(tmp_path):
    with pytest.raises(TensorFormatError, match="not a checkpoint"):
        load_checkpoint(tmp_path / "nowhere")


def test_checkpoint_detects_shape_tamper(tmp_path):
    save_checkpoint(tmp_path, _tensors())
    index = json.loads((tmp_path / "index.json").read_text())
    index["entries"][0]["shape"] = [999]
    (tmp_path / "index.json").write_text(json.dumps(index))
    with pytest.raises(TensorFormatError, match="shape"):
        load_checkpoint(tmp_path)


def test_checkpoint_rejects_unknown_schema(tmp_path):
    save_checkpoint(tmp_path, _tensors())
    index = json.loads((tmp_path / "index.json").read_text())
    index["schema_version"] = 99
    (tmp_path / "index.json").write_text(json.dumps(index))
    with pytest.raises(TensorFormatError, match="schema"):
        load_checkpoint(tmp_path)


def _tamper_index(dirpath, edit):
    path = dirpath / "index.json"
    path.write_text(edit(json.loads(path.read_text())))


def test_checkpoint_rejects_malformed_index_json(tmp_path):
    save_checkpoint(tmp_path, _tensors())
    _tamper_index(tmp_path, lambda index: json.dumps(index)[:-5])
    with pytest.raises(TensorFormatError, match="index.json: bad JSON"):
        load_checkpoint(tmp_path)


def test_checkpoint_rejects_entries_that_are_not_a_list(tmp_path):
    save_checkpoint(tmp_path, _tensors())
    _tamper_index(tmp_path, lambda index: json.dumps(dict(index, entries=5)))
    with pytest.raises(TensorFormatError, match="entries must be a list, got int"):
        load_checkpoint(tmp_path)


def test_checkpoint_rejects_metadata_that_is_not_an_object(tmp_path):
    save_checkpoint(tmp_path, _tensors())
    _tamper_index(tmp_path, lambda index: json.dumps(dict(index, metadata=5)))
    with pytest.raises(TensorFormatError, match="metadata must be an object, got int"):
        load_checkpoint(tmp_path)


def test_checkpoint_names_an_entry_without_offset(tmp_path):
    save_checkpoint(tmp_path, _tensors())

    def drop_offset(index):
        del index["entries"][1]["offset"]
        return json.dumps(index)

    _tamper_index(tmp_path, drop_offset)
    with pytest.raises(TensorFormatError, match="entry 1 needs .* offset >= 0, got .*'stage.b'"):
        load_checkpoint(tmp_path)


def test_checkpoint_rejects_a_repeated_name(tmp_path):
    save_checkpoint(tmp_path, _tensors())

    def repeat(index):
        index["entries"][2]["name"] = index["entries"][0]["name"]
        return json.dumps(index)

    _tamper_index(tmp_path, repeat)
    with pytest.raises(TensorFormatError, match="entry 2 repeats the name 'emb'"):
        load_checkpoint(tmp_path)


def test_checkpoint_names_the_entry_whose_record_is_bad(tmp_path):
    save_checkpoint(tmp_path, _tensors())

    def shift(index):
        index["entries"][1]["offset"] += 1
        return json.dumps(index)

    _tamper_index(tmp_path, shift)
    with pytest.raises(TensorFormatError, match="stage.b: bad magic"):
        load_checkpoint(tmp_path)


def test_checkpoint_write_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    save_checkpoint(a, _tensors(), metadata={"k": 1})
    save_checkpoint(b, _tensors(), metadata={"k": 1})
    assert (a / "tensors.bin").read_bytes() == (b / "tensors.bin").read_bytes()
    assert (a / "index.json").read_text() == (b / "index.json").read_text()


def _assert_checkpoint_is(dirpath, tensors, metadata):
    loaded, meta = load_checkpoint(dirpath)
    assert meta == metadata
    assert sorted(loaded) == sorted(tensors)
    for name, t in tensors.items():
        assert loaded[name].data.tobytes() == t.data.tobytes()
    assert sorted(p.name for p in dirpath.iterdir()) == ["index.json", "tensors.bin"]


def test_rejected_names_leave_the_old_checkpoint(tmp_path):
    save_checkpoint(tmp_path, _tensors(), metadata={"step": 1})
    with pytest.raises(ValueError, match="non-empty"):
        save_checkpoint(tmp_path, {"": Tensor(np.zeros(1, np.float32))})
    _assert_checkpoint_is(tmp_path, _tensors(), {"step": 1})


def test_failed_write_leaves_the_old_checkpoint(tmp_path, monkeypatch):
    save_checkpoint(tmp_path, _tensors(), metadata={"step": 1})
    calls = []

    def failing_write(fp, tensor):
        calls.append(tensor)
        if len(calls) == 2:
            raise OSError("disk full")
        return write_tensor(fp, tensor)

    monkeypatch.setattr(tensorio, "write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path, {k: Tensor(t.data * 2) for k, t in _tensors().items()}, metadata={"step": 2})
    assert len(calls) == 2
    _assert_checkpoint_is(tmp_path, _tensors(), {"step": 1})
