import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from embreg.container import open_atomic, read_vol1, write_vol1
from embreg.errors import CorruptContainer, NotVol1, RegistrationError, ShapeMismatch

# tmp_path is shared by a test's examples; every example overwrites the same files
examples = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def test_round_trip_scalar_volume(tmp_path):
    rng = np.random.default_rng(0)
    vol = rng.normal(size=(4, 5, 6))
    path = tmp_path / "a.vol1"
    write_vol1(path, vol, spacing=(1.0, 0.5, 2.0), attrs={"kind": "intensity"})
    back = read_vol1(path)
    assert back.values.shape == (4, 5, 6, 1)
    np.testing.assert_array_equal(back.values[..., 0], vol)
    assert back.spacing == (1.0, 0.5, 2.0)
    assert back.dtype == "f64"
    assert back.attrs == {"kind": "intensity"}


def test_round_trip_multichannel_field(tmp_path):
    rng = np.random.default_rng(1)
    field = rng.normal(size=(3, 4, 5, 7))
    path = tmp_path / "b.vol1"
    write_vol1(path, field)
    np.testing.assert_array_equal(read_vol1(path).values, field)


def test_round_trip_integer_dtypes(tmp_path):
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 4, size=(4, 4, 4)).astype(np.uint16)
    path = tmp_path / "c.vol1"
    write_vol1(path, labels, dtype="u16")
    back = read_vol1(path)
    assert back.values.dtype == np.int64
    np.testing.assert_array_equal(back.values[..., 0], labels)


def test_f32_round_trip_preserves_f32_values(tmp_path):
    rng = np.random.default_rng(3)
    vol = rng.normal(size=(3, 3, 3)).astype(np.float32)
    path = tmp_path / "d.vol1"
    write_vol1(path, vol, dtype="f32")
    np.testing.assert_array_equal(read_vol1(path).values[..., 0], vol.astype(np.float64))


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(4)
    field = rng.normal(size=(4, 4, 4, 3))
    p1 = tmp_path / "e1.vol1"
    p2 = tmp_path / "e2.vol1"
    write_vol1(p1, field, spacing=(2.0, 1.0, 1.0), attrs={"b": "2", "a": "1"})
    write_vol1(p2, read_vol1(p1).values, spacing=(2.0, 1.0, 1.0), attrs={"a": "1", "b": "2"})
    assert p1.read_bytes() == p2.read_bytes()


def test_attrs_sorted_in_file(tmp_path):
    path = tmp_path / "f.vol1"
    write_vol1(path, np.zeros((2, 2, 2)), attrs={"zeta": "1", "alpha": "2"})
    blob = path.read_bytes()
    assert blob.index(b"alpha=2") < blob.index(b"zeta=1")


def test_f32_signalling_nan_reads_as_nan(tmp_path):
    path = tmp_path / "n.vol1"
    write_vol1(path, np.full((1, 1, 2), np.inf), dtype="f32")
    blob = bytearray(path.read_bytes())
    blob[-4:] = struct.pack("<I", 0x7F800001)  # a signalling NaN
    path.write_bytes(bytes(blob))
    values = read_vol1(path).values[0, 0, :, 0]
    assert values[0] == np.inf and np.isnan(values[1])


def test_payload_is_channel_major(tmp_path):
    field = np.zeros((1, 1, 2, 2))
    field[0, 0, :, 0] = [1.0, 2.0]
    field[0, 0, :, 1] = [3.0, 4.0]
    path = tmp_path / "g.vol1"
    write_vol1(path, field)
    blob = path.read_bytes()
    header_size = struct.calcsize("<4s4sIIIIdddI")
    values = np.frombuffer(blob[header_size:], dtype="<f8")
    np.testing.assert_array_equal(values, [1.0, 2.0, 3.0, 4.0])


def test_write_vol1_bytes_are_pinned(tmp_path):
    field = np.arange(24, dtype=np.float64).reshape(1, 2, 3, 4)  # (D, H, W, C)
    path = tmp_path / "pinned.vol1"
    write_vol1(path, field, spacing=(2.0, 1.0, 0.5), attrs={"stride": "4", "kind": "field"})
    attrs = b"kind=field\nstride=4\n"
    header = struct.pack("<4s4sIIIIdddI", b"VOL1", b"f64\x00", 1, 2, 3, 4, 2.0, 1.0, 0.5, len(attrs))
    payload = b"".join(
        struct.pack("<d", field[0, y, x, c]) for c in range(4) for y in range(2) for x in range(3)
    )
    assert path.read_bytes() == header + attrs + payload


@pytest.mark.parametrize("channels", [1, 3, 16])
@pytest.mark.parametrize("dtype", ["f64", "f32", "u16", "u8"])
def test_read_values_are_c_contiguous(tmp_path, dtype, channels):
    values = np.arange(4 * 5 * 6 * channels, dtype=np.float64).reshape(4, 5, 6, channels) % 200
    path = tmp_path / "layout.vol1"
    write_vol1(path, values, dtype=dtype)
    back = read_vol1(path).values
    assert back.flags.c_contiguous
    np.testing.assert_array_equal(back, values)


def test_bad_magic_raises_not_vol1(tmp_path):
    path = tmp_path / "h.vol1"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(NotVol1):
        read_vol1(path)


def test_truncated_header_raises(tmp_path):
    path = tmp_path / "i.vol1"
    path.write_bytes(b"VOL1\x00\x00")
    with pytest.raises(CorruptContainer):
        read_vol1(path)


def test_unknown_dtype_raises(tmp_path):
    good = tmp_path / "j.vol1"
    write_vol1(good, np.zeros((2, 2, 2)))
    blob = bytearray(good.read_bytes())
    blob[4:8] = b"f16\x00"
    bad = tmp_path / "j2.vol1"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CorruptContainer):
        read_vol1(bad)


def test_truncated_payload_raises(tmp_path):
    good = tmp_path / "k.vol1"
    write_vol1(good, np.zeros((3, 3, 3)))
    bad = tmp_path / "k2.vol1"
    bad.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(CorruptContainer):
        read_vol1(bad)


def test_malformed_attribute_line_raises(tmp_path):
    good = tmp_path / "l.vol1"
    write_vol1(good, np.zeros((2, 2, 2)), attrs={"ok": "1"})
    blob = bytearray(good.read_bytes())
    # corrupt the '=' of the attribute line
    idx = blob.index(b"ok=1")
    blob[idx + 2] = ord("_")
    bad = tmp_path / "l2.vol1"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CorruptContainer):
        read_vol1(bad)


def test_non_utf8_attribute_block_raises(tmp_path):
    good = tmp_path / "o.vol1"
    write_vol1(good, np.zeros((2, 2, 2)), attrs={"ok": "1"})
    blob = bytearray(good.read_bytes())
    blob[blob.index(b"ok=1")] = 0xFF
    bad = tmp_path / "o2.vol1"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CorruptContainer):
        read_vol1(bad)


def test_write_rejects_bad_shapes_and_dtypes(tmp_path):
    with pytest.raises(ShapeMismatch):
        write_vol1(tmp_path / "m.vol1", np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch):
        write_vol1(tmp_path / "n.vol1", np.zeros((2, 2, 2)), dtype="i32")


@pytest.mark.parametrize(
    "dtype,value", [("u16", 70000), ("u16", -1), ("u8", 2.7), ("u8", float("nan")), ("u8", float("inf"))]
)
def test_write_rejects_integer_code_values_the_cast_would_change(tmp_path, dtype, value):
    values = np.ones((2, 2, 2))
    values[1, 0, 1] = value
    with pytest.raises(ShapeMismatch, match=f"{dtype} values must be integers"):
        write_vol1(tmp_path / "u.vol1", values, dtype=dtype)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", [1e39, -1e39])
def test_write_rejects_finite_values_f32_would_store_as_inf(tmp_path, value):
    values = np.ones((2, 2, 2))
    values[0, 1, 0] = value
    with pytest.raises(ShapeMismatch, match="beyond float32's range"):
        write_vol1(tmp_path / "f.vol1", values, dtype="f32")
    assert os.listdir(tmp_path) == []
    # values that are already non-finite are stored as they are
    values[0, 1, 0] = np.inf
    values[1, 1, 1] = np.nan
    write_vol1(tmp_path / "f.vol1", values, dtype="f32")
    back = read_vol1(tmp_path / "f.vol1").values[..., 0]
    assert back[0, 1, 0] == np.inf and np.isnan(back[1, 1, 1])


def test_write_rejects_attrs_that_cannot_round_trip(tmp_path):
    for attrs in ({"a=b": "1"}, {"a": "1\nb=2"}, {"a\rb": "1"}, {"a": "\ud800"}):
        with pytest.raises(ShapeMismatch):
            write_vol1(tmp_path / "p.vol1", np.zeros((2, 2, 2)), attrs=attrs)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("spacing", [(float("nan"), 1.0, -2.0), (0.0, 1.0, 1.0), (1.0, float("inf"), 1.0)])
def test_spacing_must_be_finite_and_positive(tmp_path, spacing):
    with pytest.raises(ShapeMismatch):
        write_vol1(tmp_path / "t.vol1", np.zeros((2, 2, 2)), spacing=spacing)
    assert os.listdir(tmp_path) == []
    path = tmp_path / "t.vol1"
    write_vol1(path, np.zeros((2, 2, 2)))
    blob = bytearray(path.read_bytes())
    blob[24:48] = struct.pack("<ddd", *spacing)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptContainer):
        read_vol1(path)


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "q.vol1"
    write_vol1(path, np.ones((2, 2, 2)))
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with open_atomic(path) as fh:
            fh.write(b"VOL1 partial")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["q.vol1"]


_SAMPLES = {
    "f64": st.floats(allow_nan=False),
    "f32": st.floats(width=32, allow_nan=False),
    "u16": st.integers(0, 2**16 - 1),
    "u8": st.integers(0, 2**8 - 1),
}
_ATTR_TEXT = st.text(st.characters(codec="utf-8", blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))


@st.composite
def volumes(draw):
    dtype = draw(st.sampled_from(sorted(_SAMPLES)))
    shape = draw(st.tuples(*[st.integers(1, 4)] * 4))
    flat = draw(st.lists(_SAMPLES[dtype], min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    spacing = draw(st.tuples(*[st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)] * 3))
    attrs = draw(st.dictionaries(_ATTR_TEXT.filter(lambda k: "=" not in k), _ATTR_TEXT, max_size=3))
    return np.array(flat, dtype=np.float64).reshape(shape), dtype, spacing, attrs


@examples
@given(volumes())
def test_round_trip_is_exact(tmp_path, volume):
    values, dtype, spacing, attrs = volume
    path = tmp_path / "r.vol1"
    write_vol1(path, values, spacing=spacing, dtype=dtype, attrs=attrs)
    back = read_vol1(path)
    assert back.dtype == dtype
    assert back.spacing == spacing
    assert back.attrs == attrs
    assert back.values.shape == values.shape
    np.testing.assert_array_equal(back.values, values)


@examples
@given(volumes(), st.data())
def test_damaged_files_raise_only_registration_errors(tmp_path, volume, data):
    values, dtype, spacing, attrs = volume
    path = tmp_path / "s.vol1"
    write_vol1(path, values, spacing=spacing, dtype=dtype, attrs=attrs)
    blob = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for index in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
            blob[index] ^= data.draw(st.integers(1, 255), label="mask")
    path.write_bytes(bytes(blob))
    try:
        read_vol1(path)
    except RegistrationError:
        pass
