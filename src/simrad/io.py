"""Flat binary file formats for volumes and sinograms.

Both formats are a fixed-size ASCII header (space-padded, newline-terminated)
followed by raw little-endian float64 samples, so files round-trip
bit-exactly and can be read from any language with two lines of code.

Volume (`.svol`):  64-byte header
    ``SIMRAD-VOL v1 N=<int> h=<float> origin=<f,f,f> dtype=f64``
followed by N^3 values with x varying fastest.  Without ``origin`` the grid
is centred, ``-(N // 2) * h`` on every axis; the writer leaves the token out
only when the header would not fit otherwise and the origin is that centred
one at 9 significant digits.

Sinogram (`.sgm`):  96-byte header
    ``SIMRAD-SGM v1 kind=plane ntheta=.. nphi=.. nt=.. tmax=..``   or
    ``SIMRAD-SGM v1 kind=line ntheta=.. nphi=.. nu=.. nv=.. umax=..``
followed by samples with the offset axis fastest (plane: t; line: v then u),
directions in C order.  The sinogram keys are the geometry's short keys
(:meth:`simrad.xform.DirectionChart.from_keys`).

Readers raise ``ValueError`` for a header that lacks a field or declares a
payload other than the one the file holds, before reading the payload.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

from .errors import GeometryMismatch
from .grid import Volume
from .xform import GEOMETRY_KINDS, Sinogram

VOL_HEADER_BYTES = 64
SGM_HEADER_BYTES = 96
VOL_MAGIC = "SIMRAD-VOL"
SGM_MAGIC = "SIMRAD-SGM"
FORMAT_VERSION = "v1"
# Payload bytes a volume reader holds besides the volume itself: slabs of
# whole z-planes, so at least one plane (8 N^2 bytes) when that is larger.
READ_SLAB_BYTES = 64 << 10


class _Header(dict):
    """Header fields by key; a missing field is a malformed file."""

    def __missing__(self, key: str):
        raise ValueError(f"header has no {key!r} field")


def _pack_header(text: str, size: int) -> bytes:
    if len(text) + 1 > size:
        raise ValueError(f"header {text!r} does not fit in {size} bytes")
    return (text + " " * (size - 1 - len(text)) + "\n").encode("ascii")


def _parse_header(raw: bytes, magic: str) -> _Header:
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not a {magic} file: binary header") from exc
    tokens = text.split()
    if len(tokens) < 2 or tokens[0] != magic:
        raise ValueError(f"not a {magic} file: header starts {text[:20]!r}")
    if tokens[1] != FORMAT_VERSION:
        raise ValueError(f"unsupported {magic} version {tokens[1]!r}")
    fields = _Header()
    for token in tokens[2:]:
        key, _, value = token.partition("=")
        if not value:
            raise ValueError(f"malformed header token {token!r}")
        fields[key] = value
    return fields


def _payload_count(fh, shape: tuple[int, ...], what: str) -> int:
    """The number of float64 samples of ``shape``, checked against what follows the header.

    The size the header declares must equal the bytes left in the file; it
    is checked before anything is allocated or read, so a header that
    undercounts cannot reshape a longer payload into a scrambled array.
    """
    count = math.prod(shape)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count < 1 or 8 * count != left:
        raise ValueError(
            f"truncated or oversized {what}: header declares {count} samples, "
            f"file holds {left} bytes"
        )
    return count


def write_volume(path: str, v: Volume) -> None:
    n = v.data.shape[0]
    h = f"{v.spacing:.9g}"
    origin = ",".join(f"{c:.9g}" for c in v.origin)
    centred = ",".join([f"{-(n // 2) * float(h):.9g}"] * 3)
    text = f"{VOL_MAGIC} {FORMAT_VERSION} N={n} h={h} origin={origin} dtype=f64"
    # Without the token the reader centres the grid from N and the written h,
    # so the token goes only where it does not fit and says nothing more.
    if len(text) + 1 > VOL_HEADER_BYTES and origin == centred:
        text = f"{VOL_MAGIC} {FORMAT_VERSION} N={n} h={h} dtype=f64"
    header = _pack_header(text, VOL_HEADER_BYTES)  # before a refusal can leave a file
    with open(path, "wb") as fh:
        fh.write(header)
        np.ascontiguousarray(v.data.transpose(2, 1, 0), dtype="<f8").tofile(fh)


def read_volume(path: str) -> Volume:
    with open(path, "rb") as fh:
        fields = _parse_header(fh.read(VOL_HEADER_BYTES), VOL_MAGIC)
        if fields.get("dtype") != "f64":
            raise ValueError(f"unsupported dtype {fields.get('dtype')!r}")
        n = int(fields["N"])
        spacing = float(fields["h"])
        origin_field = fields.get("origin")
        origin = (
            np.array([float(c) for c in origin_field.split(",")])
            if origin_field
            else None
        )
        _payload_count(fh, (n, n, n), "volume")
        # z-slabs of the x-fastest payload, each transposed into place, so
        # the file is held once plus one slab
        data = np.empty((n, n, n))
        step = max(1, READ_SLAB_BYTES // (8 * n * n))
        for z0 in range(0, n, step):
            slab = np.fromfile(fh, dtype="<f8", count=n * n * min(step, n - z0))
            data[:, :, z0 : z0 + step] = slab.reshape(-1, n, n).transpose(2, 1, 0)
    return Volume(data, spacing, origin)


def write_sinogram(path: str, s: Sinogram) -> None:
    """Write ``s`` as ``.sgm``; refuses, leaving no file, a geometry that would read back
    as another (one of a type other than its kind's, like an unglued chart)."""
    g = s.geometry
    if type(g) is not GEOMETRY_KINDS[g.kind]:
        raise GeometryMismatch(f"a {type(g).__name__} would read back as another geometry")
    # the keys DirectionChart.from_keys reads; floats at 9 significant digits
    keyed = [
        (f.name.replace("_", ""), getattr(g, f.name), ".9g" if isinstance(f.default, float) else "")
        for f in dataclasses.fields(g)
    ]
    text = f"{SGM_MAGIC} {FORMAT_VERSION} kind={g.kind} " + " ".join(
        f"{key}={value:{spec}}" for key, value, spec in keyed
    )
    header = _pack_header(text, SGM_HEADER_BYTES)  # before a refusal can leave a file
    with open(path, "wb") as fh:
        fh.write(header)
        np.ascontiguousarray(s.data, dtype="<f8").tofile(fh)


def read_sinogram(path: str) -> Sinogram:
    with open(path, "rb") as fh:
        fields = _parse_header(fh.read(SGM_HEADER_BYTES), SGM_MAGIC)
        kind = fields.get("kind")
        if kind not in GEOMETRY_KINDS:
            raise ValueError(f"unknown sinogram kind {kind!r}")
        geometry = GEOMETRY_KINDS[kind].from_keys(fields)
        count = _payload_count(fh, geometry.shape, "sinogram")
        data = np.fromfile(fh, dtype="<f8", count=count).reshape(geometry.shape)
    return geometry.sinogram_type(data, geometry)
