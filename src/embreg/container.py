"""VOL1: a minimal bit-exact binary container for volumes and fields.

Layout (all little-endian):

========  =====  ==========================================
offset    size   field
========  =====  ==========================================
0         4      magic ``VOL1``
4         4      dtype code, NUL-padded (``f32``/``f64``/``u16``/``u8``)
8         16     D, H, W, C as uint32
24        24     spacing, 3 x float64, finite and > 0
48        4      attribute block length (uint32)
52        var    attributes, UTF-8 ``key=value`` lines
...       var    payload, raw values in channel-major (C, D, H, W) order
========  =====  ==========================================
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import CorruptContainer, NotVol1, ShapeMismatch

_MAGIC = b"VOL1"
_HEADER = struct.Struct("<4s4sIIIIdddI")

_DTYPES = {
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
    "u16": np.dtype("<u2"),
    "u8": np.dtype("<u1"),
}


@dataclass
class Vol1:
    """Decoded container: values as ``(D, H, W, C)`` plus metadata."""

    values: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    dtype: str = "f64"
    attrs: dict[str, str] = field(default_factory=dict)


def _bad_spacing(spacing) -> bool:
    """True unless ``spacing`` is three finite, positive real numbers."""
    values = tuple(spacing) if np.iterable(spacing) else ()
    return len(values) != 3 or not all(isinstance(s, Real) and math.isfinite(s) and s > 0 for s in values)


@contextlib.contextmanager
def open_atomic(path, mode: str = "wb", encoding: str | None = None):
    """Open a temporary file next to ``path`` for writing; it replaces ``path`` on success.

    If the block raises, ``path`` keeps its previous content and the temporary file is removed.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def write_vol1(path, values, spacing=(1.0, 1.0, 1.0), dtype: str = "f64", attrs=None) -> None:
    """Write a scalar volume ``(D,H,W)`` or channels-last field ``(D,H,W,C)``."""
    arr = np.asarray(values)
    if arr.ndim == 3:
        arr = arr[..., None]
    if arr.ndim != 4:
        raise ShapeMismatch(f"values must be (D,H,W) or (D,H,W,C), got {arr.shape}")
    if dtype not in _DTYPES:
        raise ShapeMismatch(f"unsupported dtype code {dtype!r}")
    if _bad_spacing(spacing):
        raise ShapeMismatch(f"spacing must be finite and positive, got {tuple(spacing)!r}")
    d, h, w, c = arr.shape
    items = sorted((attrs or {}).items())
    for key, value in items:
        line = f"{key}={value}"
        if "=" in str(key) or line.splitlines() != [line]:
            raise ShapeMismatch(f"attribute {line!r} cannot be read back as one key=value line")
    try:
        attr_text = "".join(f"{k}={v}\n" for k, v in items).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ShapeMismatch(f"attributes are not encodable as UTF-8 ({exc.reason})") from None
    header = _HEADER.pack(
        _MAGIC,
        dtype.encode("ascii").ljust(4, b"\x00"),
        d,
        h,
        w,
        c,
        float(spacing[0]),
        float(spacing[1]),
        float(spacing[2]),
        len(attr_text),
    )
    # One copy: channel-major, in the file's dtype, written through the buffer protocol.
    channels = np.moveaxis(arr, -1, 0)
    with np.errstate(invalid="ignore", over="ignore"):
        payload = channels.astype(_DTYPES[dtype], order="C")
    # u8/u16 must hold every value exactly, where a cast would wrap, truncate or zero it.
    if payload.dtype.kind == "u" and not np.array_equal(payload, channels):
        raise ShapeMismatch(f"{dtype} values must be integers from 0 to {np.iinfo(payload.dtype).max}")
    # f32 must keep every finite value finite, where a cast would store inf.
    if dtype == "f32" and np.count_nonzero(np.isfinite(payload)) != np.count_nonzero(np.isfinite(channels)):
        raise ShapeMismatch("f32 would store a finite value beyond float32's range as inf")
    with open_atomic(path) as fh:
        fh.write(header)
        fh.write(attr_text)
        fh.write(payload)


def read_vol1(path) -> Vol1:
    """Decode a VOL1 file into C-contiguous ``(D, H, W, C)`` values.

    The values are float64 for ``f32``/``f64`` and int64 for ``u16``/``u8``.
    The payload is copied once, from the file's bytes into that layout.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if len(blob) < 4 or blob[:4] != _MAGIC:
        raise NotVol1(f"{path}: missing VOL1 magic")
    if len(blob) < _HEADER.size:
        raise CorruptContainer(f"{path}: truncated header")
    magic, dtype_raw, d, h, w, c, sz, sy, sx, attr_len = _HEADER.unpack_from(blob)
    dtype = dtype_raw.rstrip(b"\x00").decode("ascii", errors="replace")
    if dtype not in _DTYPES:
        raise CorruptContainer(f"{path}: unknown dtype code {dtype!r}")
    if _bad_spacing((sz, sy, sx)):
        raise CorruptContainer(f"{path}: spacing must be finite and positive, got {(sz, sy, sx)!r}")
    payload_start = _HEADER.size + attr_len
    if len(blob) < payload_start:
        raise CorruptContainer(f"{path}: truncated attribute block")
    try:
        attr_text = str(blob[_HEADER.size : payload_start], "utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptContainer(f"{path}: attribute block is not UTF-8 ({exc.reason})") from None
    attrs: dict[str, str] = {}
    for line in attr_text.splitlines():
        if not line:
            continue
        if "=" not in line:
            raise CorruptContainer(f"{path}: malformed attribute line {line!r}")
        key, _, value = line.partition("=")
        attrs[key] = value
    np_dtype = _DTYPES[dtype]
    expected = np_dtype.itemsize * d * h * w * c
    payload = blob[payload_start:]
    if len(payload) != expected:
        raise CorruptContainer(
            f"{path}: payload length {len(payload)} != expected {expected}"
        )
    arr = np.frombuffer(payload, dtype=np_dtype).reshape(c, d, h, w)
    # A signalling NaN in an f32 payload reads as a quiet NaN; the cast's
    # "invalid" flag says nothing more.
    with np.errstate(invalid="ignore"):
        values = np.moveaxis(arr, 0, -1).astype(
            np.float64 if dtype in ("f32", "f64") else np.int64, order="C"
        )
    return Vol1(
        values=values,
        spacing=(sz, sy, sx),
        dtype=dtype,
        attrs=attrs,
    )
