"""File formats and the command-line front end."""

from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import simrad
from simrad import cli
from simrad.errors import GeometryMismatch, SimradError
from simrad.grid import Volume, gaussian_phantom
from simrad.io import (
    READ_SLAB_BYTES,
    SGM_HEADER_BYTES,
    VOL_HEADER_BYTES,
    _pack_header,
    read_sinogram,
    read_volume,
    write_sinogram,
    write_volume,
)
from simrad.verify import VerifyConfig, smooth_doubled_field, standard_intertwining_sweep
from simrad.xform import LineGeometry, LineSinogram, PlaneGeometry, PlaneSinogram

# Reconstruction-quality thresholds for the pipeline smoke runs.  These are
# deliberately loose: the CLI tests pin plumbing and metrics on small, fast
# grids (16x16 directions), while the tight quality bounds live in the invert
# and acceptance suites.  Measured: FBP 0.18, direct Fourier 0.032.
CLI_FBP_TOL = 2.5e-1
CLI_DF_TOL = 1e-1
# Bytes a reader may hold beyond the size of the file it reads, the payload
# slab a volume reader transposes into place and the finiteness mask: the
# file object's buffer (one filesystem block), the header, the parsed fields
# and the array objects.  Measured at most 6.6 KiB over the fuzzed files
# below, with 4 KiB blocks.
READER_ALLOWANCE = 16 << 10


def _metrics(out: str) -> dict[str, float]:
    values = {}
    for line in out.splitlines():
        key, sep, val = line.partition("=")
        if sep and " " not in key:
            try:
                values[key] = float(val)
            except ValueError:
                pass
    return values


# ---------------------------------------------------------------------------
# Volume format
# ---------------------------------------------------------------------------


def test_volume_roundtrip_bit_exact(tmp_path):
    v = gaussian_phantom(24, 0.25, center=[0.3, -0.2, 0.1], scale=0.7)
    path = tmp_path / "v.svol"
    write_volume(path, v)
    assert path.stat().st_size == VOL_HEADER_BYTES + 24**3 * 8
    r = read_volume(path)
    assert np.array_equal(r.data, v.data)
    assert r.spacing == v.spacing
    assert np.array_equal(r.origin, v.origin)
    # writing the reread volume reproduces the file byte for byte
    again = tmp_path / "again.svol"
    write_volume(again, r)
    assert again.read_bytes() == path.read_bytes()


def test_volume_header_and_sample_order(tmp_path):
    v = gaussian_phantom(8, 0.5, scale=0.4)
    v.data[1, 2, 3] = 7.25  # exactly representable marker
    path = tmp_path / "v.svol"
    write_volume(path, v)
    raw = path.read_bytes()
    header = raw[:VOL_HEADER_BYTES].decode("ascii")
    assert header.startswith("SIMRAD-VOL v1 N=8 h=0.5 origin=-2,-2,-2 dtype=f64")
    assert header.endswith("\n")
    samples = np.frombuffer(raw[VOL_HEADER_BYTES:], dtype="<f8").reshape(8, 8, 8)
    # file order is z-slowest, x-fastest
    assert samples[3, 2, 1] == 7.25


def test_volume_roundtrip_preserves_offcenter_origin(tmp_path):
    v = Volume(np.arange(27, dtype=float).reshape(3, 3, 3), 0.5, origin=[0.1, -0.2, 0.3])
    path = tmp_path / "v.svol"
    write_volume(path, v)
    r = read_volume(path)
    assert np.array_equal(r.origin, v.origin)
    assert np.array_equal(r.data, v.data)


@pytest.mark.parametrize("n", [48, 96])
def test_read_volume_holds_the_payload_once(tmp_path, n):
    # The reader fills the volume slab by slab, so beyond the payload it holds
    # one slab and the finiteness mask (one byte per voxel) that the volume's
    # own check allocates; a transposed copy of the whole payload would add
    # another 8 bytes per voxel (measured 2.13x the file size).  A slab is at
    # least one z-plane, which outgrows READ_SLAB_BYTES from n = 91 on.
    v = gaussian_phantom(n, 0.2, center=[0.3, -0.2, 0.1])
    path = tmp_path / "v.svol"
    write_volume(path, v)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        r = read_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.data.flags.c_contiguous and r.data.tobytes() == v.data.tobytes()
    slab = max(READ_SLAB_BYTES, 8 * n * n)
    assert peak <= size + n**3 + slab + READER_ALLOWANCE


# ---------------------------------------------------------------------------
# Sinogram format
# ---------------------------------------------------------------------------


def test_plane_sinogram_roundtrip(tmp_path):
    geometry = PlaneGeometry(4, 5, 9, 2.0)
    rng = np.random.default_rng(0)
    s = PlaneSinogram(rng.standard_normal((4, 5, 9)), geometry)
    path = tmp_path / "s.sgm"
    write_sinogram(path, s)
    assert path.stat().st_size == SGM_HEADER_BYTES + 4 * 5 * 9 * 8
    r = read_sinogram(path)
    assert isinstance(r, PlaneSinogram)
    assert r.geometry == geometry
    assert np.array_equal(r.data, s.data)


def test_line_sinogram_roundtrip(tmp_path):
    # unequal detector axes catch transposed layouts
    geometry = LineGeometry(4, 4, 6, 5, 2.0)
    rng = np.random.default_rng(1)
    s = LineSinogram(rng.standard_normal((4, 4, 6, 5)), geometry)
    path = tmp_path / "s.sgm"
    write_sinogram(path, s)
    r = read_sinogram(path)
    assert isinstance(r, LineSinogram)
    assert r.geometry == geometry
    assert np.array_equal(r.data, s.data)
    header = path.read_bytes()[:SGM_HEADER_BYTES].decode("ascii")
    assert header.startswith("SIMRAD-SGM v1 kind=line ntheta=4 nphi=4 nu=6 nv=5")


def test_write_sinogram_refuses_a_geometry_its_header_cannot_name(tmp_path):
    # The evenness check's doubled sphere holds 2 n_theta azimuth rows over
    # [0, 2 pi); a plane header would read it back as a glued chart with half
    # its azimuth step.
    s = smooth_doubled_field(PlaneGeometry(4, 5, 9, 2.0))
    assert not s.geometry.glued
    path = tmp_path / "s.sgm"
    with pytest.raises(GeometryMismatch):
        write_sinogram(path, s)
    assert not path.exists()


def _write_raw(path, text: str, size: int, payload: bytes = b"") -> None:
    path.write_bytes(_pack_header(text, size) + payload)


@pytest.mark.parametrize(
    "header",
    [
        "NOTAFORMAT v1 N=8 h=0.5 origin=0,0,0 dtype=f64",
        "SIMRAD-VOL v9 N=8 h=0.5 origin=0,0,0 dtype=f64",
        "SIMRAD-VOL v1 N=8 h=0.5 origin=0,0,0 dtype=f32",
        "SIMRAD-VOL v1 N=8 h origin=0,0,0 dtype=f64",
    ],
    ids=["magic", "version", "dtype", "malformed-token"],
)
def test_read_volume_rejects_bad_headers(tmp_path, header):
    path = tmp_path / "bad.svol"
    _write_raw(path, header, VOL_HEADER_BYTES, b"\x00" * (8**3 * 8))
    with pytest.raises(ValueError):
        read_volume(path)


def test_read_volume_rejects_binary_header(tmp_path):
    path = tmp_path / "bad.svol"
    path.write_bytes(b"\xff" * VOL_HEADER_BYTES)
    with pytest.raises(ValueError, match="binary header"):
        read_volume(path)


def test_read_volume_rejects_truncated_payload(tmp_path):
    v = gaussian_phantom(8, 0.5, scale=0.4)
    path = tmp_path / "v.svol"
    write_volume(path, v)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError, match="truncated"):
        read_volume(path)


def test_read_volume_refuses_an_empty_grid(tmp_path):
    path = tmp_path / "empty.svol"
    _write_raw(path, "SIMRAD-VOL v1 N=0 h=0.5 dtype=f64", VOL_HEADER_BYTES)
    with pytest.raises(ValueError, match="declares 0 samples"):
        read_volume(path)


def test_read_sinogram_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.sgm"
    _write_raw(path, "SIMRAD-SGM v1 kind=fan ntheta=2 nphi=2", SGM_HEADER_BYTES)
    with pytest.raises(ValueError, match="kind"):
        read_sinogram(path)


def test_write_volume_refuses_an_origin_that_does_not_fit(tmp_path):
    # 9-digit spacing and origin overrun the 64-byte header; an origin other
    # than the centred default cannot be left for the reader to rebuild.
    v = Volume(np.zeros((40, 40, 40)), 0.123456789012, origin=[-2.3456789012] * 3)
    path = tmp_path / "v.svol"
    with pytest.raises(ValueError, match="does not fit"):
        write_volume(path, v)
    assert not path.exists()


def test_pack_header_rejects_oversized_text():
    with pytest.raises(ValueError, match="does not fit"):
        _pack_header("x" * 64, 64)


# Valid files to edit: (header text, header size in bytes, payload samples).
_FUZZ_BASES = {
    "volume": ("SIMRAD-VOL v1 N=3 h=0.5 origin=0,0,0 dtype=f64", VOL_HEADER_BYTES, 27),
    "plane": ("SIMRAD-SGM v1 kind=plane ntheta=2 nphi=2 nt=3 tmax=1", SGM_HEADER_BYTES, 12),
    "line": ("SIMRAD-SGM v1 kind=line ntheta=2 nphi=2 nu=2 nv=2 umax=1", SGM_HEADER_BYTES, 16),
}
_FUZZ_TOKEN = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12)
_FUZZ_VALUE = st.one_of(
    st.integers(-3, 6).map(str),
    st.integers(10**4, 10**18).map(str),
    st.sampled_from(["nan", "inf", "1e400", "0.5", "1,2", "1,,2", "plane", "line", "f32"]),
    _FUZZ_TOKEN,
)
_FUZZ_KEY = st.one_of(
    st.sampled_from(["N", "h", "origin", "dtype", "kind", "ntheta", "nphi", "nt", "tmax",
                     "nu", "nv", "umax"]),
    _FUZZ_TOKEN,
)
_FUZZ_EDIT = st.one_of(
    st.tuples(st.just("set"), _FUZZ_KEY, _FUZZ_VALUE),
    st.tuples(st.just("insert"), st.integers(0, 9), _FUZZ_TOKEN),
    st.tuples(st.just("drop"), st.integers(0, 9), st.just("")),
)


def _fuzzed_file(kind: str, edits, cut: int) -> bytes:
    """A base file with its header tokens edited and ``cut`` payload bytes dropped
    (appended when negative)."""
    text, size, samples = _FUZZ_BASES[kind]
    tokens = text.split()
    for op, where, value in edits:
        if op == "set":
            keys = [t.partition("=")[0] for t in tokens]
            if where in keys:
                tokens[keys.index(where)] = f"{where}={value}"
            else:
                tokens.append(f"{where}={value}")
        elif op == "insert":
            tokens.insert(where % (len(tokens) + 1), value)
        elif tokens:
            del tokens[where % len(tokens)]
    header = (" ".join(tokens)[: size - 1].ljust(size - 1) + "\n").encode("ascii")
    payload = np.arange(samples, dtype="<f8").tobytes()
    payload = payload[: len(payload) - cut] if cut >= 0 else payload + b"\x00" * -cut
    return header + payload


@given(kind=st.sampled_from(sorted(_FUZZ_BASES)), edits=st.lists(_FUZZ_EDIT, max_size=4),
       cut=st.integers(-16, 128))
@example(kind="volume", edits=[], cut=0)
@example(kind="volume", edits=[("set", "N", "100000")], cut=0)
@example(kind="volume", edits=[("set", "N", "40")], cut=0)
@example(kind="volume", edits=[("set", "N", "2")], cut=0)
@example(kind="volume", edits=[], cut=8)
@example(kind="line", edits=[("set", k, "4000") for k in ("ntheta", "nphi", "nu", "nv")], cut=0)
@example(kind="plane", edits=[("set", "nt", "10000000000")], cut=-8)
@example(kind="plane", edits=[("set", "nt", "1")], cut=0)
@settings(max_examples=300, deadline=None)
def test_readers_reject_fuzzed_files(kind, edits, cut, workdir):
    # Whatever the header says, a reader either returns the file's content or
    # raises ValueError or a package error, and it allocates no more than the
    # file holds: a header declaring petabytes is refused before any payload
    # is allocated.
    raw = _fuzzed_file(kind, edits, cut)
    path = workdir / f"fuzz.{'svol' if kind == 'volume' else 'sgm'}"
    path.write_bytes(raw)
    read = read_volume if kind == "volume" else read_sinogram
    tracemalloc.start()
    try:
        try:
            read(path)
        except (ValueError, SimradError):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(raw) + READER_ALLOWANCE


# ---------------------------------------------------------------------------
# Command-line front end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def vol_path(workdir):
    path = workdir / "vol.svol"
    rc = cli.main(
        ["gen", "--phantom", "gaussian", "--n", "32", "--h", "0.25",
         "--scale", "0.9", "--out", str(path)]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def plane_path(workdir, vol_path):
    path = workdir / "plane.sgm"
    rc = cli.main(
        ["radon", "--in", str(vol_path), "--ntheta", "16", "--nphi", "16",
         "--nt", "49", "--tmax", "4.0", "--out", str(path)]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def line_path(workdir, vol_path):
    path = workdir / "line.sgm"
    rc = cli.main(
        ["xray", "--in", str(vol_path), "--ntheta", "16", "--nphi", "16",
         "--nu", "32", "--nv", "32", "--umax", "4.0", "--out", str(path)]
    )
    assert rc == 0
    return path


def test_cli_gen_prints_metrics_and_is_deterministic(workdir, vol_path, capsys):
    twin = workdir / "vol_twin.svol"
    rc = cli.main(
        ["gen", "--phantom", "gaussian", "--n", "32", "--h", "0.25",
         "--scale", "0.9", "--out", str(twin)]
    )
    assert rc == 0
    metrics = _metrics(capsys.readouterr().out)
    assert "runtime_ms" in metrics
    assert twin.read_bytes() == vol_path.read_bytes()


def test_cli_gen_other_phantoms(workdir):
    assert cli.main(
        ["gen", "--phantom", "wavelet", "--n", "24", "--h", "0.25",
         "--scale", "0.6", "--out", str(workdir / "psi.svol")]
    ) == 0
    assert cli.main(
        ["gen", "--phantom", "mixture", "--n", "32", "--h", "0.3",
         "--out", str(workdir / "mix.svol")]
    ) == 0
    assert read_volume(workdir / "psi.svol").n == 24


def test_cli_radon_output_geometry(plane_path):
    s = read_sinogram(plane_path)
    assert isinstance(s, PlaneSinogram)
    assert s.geometry == PlaneGeometry(16, 16, 49, 4.0)


def test_cli_fbp_pipeline(workdir, plane_path, vol_path, capsys):
    out = workdir / "rec_fbp.svol"
    rc = cli.main(
        ["invert-fbp", "--in", str(plane_path), "--n", "32", "--h", "0.25",
         "--reference", str(vol_path), "--out", str(out)]
    )
    assert rc == 0
    metrics = _metrics(capsys.readouterr().out)
    assert metrics["error_l2_rel"] <= CLI_FBP_TOL
    assert read_volume(out).n == 32


def test_cli_reference_must_not_be_the_output(workdir, plane_path, vol_path):
    # The reconstruction would overwrite the reference before it is read
    # back, and the comparison would then report a zero error.
    ref = workdir / "ref_is_out.svol"
    ref.write_bytes(vol_path.read_bytes())
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["invert-fbp", "--in", str(plane_path), "--n", "32", "--h", "0.25",
             "--reference", str(ref), "--out", str(ref)]
        )
    assert exc.value.code == 2
    assert ref.read_bytes() == vol_path.read_bytes()


def test_cli_reference_with_shifted_origin_is_refused(workdir, plane_path, vol_path, capsys):
    v = read_volume(vol_path)
    shifted = workdir / "vol_shifted.svol"
    write_volume(shifted, Volume(v.data, v.spacing, v.origin + 0.9))
    rc = cli.main(
        ["invert-fbp", "--in", str(plane_path), "--n", "32", "--h", "0.25",
         "--reference", str(shifted), "--out", str(workdir / "rec_shifted.svol")]
    )
    assert rc == 1
    assert capsys.readouterr().err == "GeometryMismatch\n"


@pytest.mark.parametrize("n, h", [(48, "0.2"), (64, "0.15"), (32, "0.3")])
def test_cli_reference_grid_allows_header_rounding(workdir, n, h):
    # gen writes the spacing and origin at 9 significant digits; a
    # reconstruction on the same --n/--h, the demo's among them, still
    # matches the reference it wrote.
    ref = workdir / f"ref-{n}.svol"
    assert cli.main(
        ["gen", "--phantom", "gaussian", "--n", str(n), "--h", h, "--scale", "0.5",
         "--out", str(ref)]
    ) == 0
    assert cli._relative_error(Volume(read_volume(ref).data, float(h)), str(ref)) == 0.0


def test_cli_gen_drops_a_centred_origin_that_does_not_fit(workdir):
    # With its origin token this header is 86 bytes; the reader rebuilds the
    # centred origin from N and the written spacing.
    out = workdir / "long-h.svol"
    h = 0.123456789012
    assert cli.main(
        ["gen", "--phantom", "wavelet", "--n", "40", "--h", str(h), "--out", str(out)]
    ) == 0
    assert b"origin=" not in out.read_bytes()[:VOL_HEADER_BYTES]
    v = read_volume(out)
    assert np.allclose(v.origin, -20 * h, rtol=1e-8, atol=0.0)
    assert np.isclose(v.spacing, h, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("command", ["invert-fourier", "invert-fbp"])
def test_cli_allocation_failure_reports_bare_name(command, workdir, plane_path, capsys):
    # An n^3 grid at --n 100000 needs petabytes; numpy refuses it at once.
    out = workdir / f"huge-{command}.svol"
    rc = cli.main(
        [command, "--in", str(plane_path), "--n", "100000", "--h", "0.2", "--out", str(out)]
    )
    assert rc == 1
    assert capsys.readouterr().err == "MemoryError\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def zero_path(workdir):
    path = workdir / "zero.svol"
    write_volume(path, Volume(np.zeros((32, 32, 32)), 0.25))
    return path


def test_cli_zero_reference_reports_bare_name(workdir, plane_path, zero_path, capsys):
    # A relative error against a zero field is 0/0.
    rc = cli.main(
        ["invert-fbp", "--in", str(plane_path), "--n", "32", "--h", "0.25",
         "--reference", str(zero_path), "--out", str(workdir / "rec_zero_ref.svol")]
    )
    assert rc == 1
    assert capsys.readouterr().err == "ValueError\n"


def test_cli_verify_reports_a_zero_field_as_zero_input(workdir, zero_path):
    summary = workdir / "zero_report.json"
    rc = cli.main(
        ["verify", "--in", str(zero_path), "--n", "32", "--h", "0.25", "--ntheta", "12",
         "--nphi", "12", "--nt", "49", "--tmax", "4.0", "--nu", "32", "--umax", "4.0",
         "--check", "intertwining", "--summary-out", str(summary)]
    )
    assert rc == 0
    entries = json.loads(summary.read_text())["entries"]
    assert len(entries) == 2 * len(standard_intertwining_sweep())
    assert all(e["residual"] == 0.0 and e["context"] == "zero input" for e in entries)


def test_cli_wavelet_of_a_zero_field_writes_zeros(workdir, zero_path, capsys):
    sino = workdir / "zero_plane.sgm"
    assert cli.main(
        ["radon", "--in", str(zero_path), "--ntheta", "16", "--nphi", "16",
         "--nt", "49", "--tmax", "4.0", "--out", str(sino)]
    ) == 0
    out = workdir / "rec_wav_zero.svol"
    rc = cli.main(
        ["invert-wavelet", "--in", str(sino), "--wavelet-n", "28",
         "--wavelet-h", "0.2", "--wavelet-scale", "0.6",
         "--lattice-extent", "0.4", "--lattice-shifts", "2",
         "--scale-min", "0.9", "--scale-max", "1.8", "--nscales", "2",
         "--out", str(out)]
    )
    assert rc == 0
    assert "energy_ratio=nan" in capsys.readouterr().out.splitlines()
    assert not np.any(read_volume(out).data)


def test_cli_fourier_pipeline_line(workdir, line_path, vol_path, capsys):
    out = workdir / "rec_df.svol"
    rc = cli.main(
        ["invert-fourier", "--in", str(line_path), "--n", "32", "--h", "0.25",
         "--reference", str(vol_path), "--out", str(out)]
    )
    assert rc == 0
    metrics = _metrics(capsys.readouterr().out)
    assert metrics["error_l2_rel"] <= CLI_DF_TOL
    assert metrics["coverage"] >= 0.99


@pytest.mark.parametrize("data", ["plane_path", "line_path"])
def test_cli_fourier_takes_a_band_limit_past_the_grid(data, workdir, request, capsys):
    # Every voxel is in such a band, and its radius must not overflow.
    out = workdir / f"rec_df_far_{data}.svol"
    rc = cli.main(
        ["invert-fourier", "--in", str(request.getfixturevalue(data)), "--n", "8",
         "--h", "1.0", "--band-limit", "1e200", "--out", str(out)]
    )
    assert rc == 0, capsys.readouterr().err
    assert _metrics(capsys.readouterr().out)["coverage"] == 1.0
    assert read_volume(out).data.shape == (8, 8, 8)


def test_cli_filter_applies_default_power(workdir, plane_path):
    out = workdir / "filtered.sgm"
    assert cli.main(["filter", "--in", str(plane_path), "--out", str(out)]) == 0
    original = read_sinogram(plane_path)
    filtered = read_sinogram(out)
    assert isinstance(filtered, PlaneSinogram)
    assert filtered.geometry == original.geometry
    assert not np.array_equal(filtered.data, original.data)


def test_cli_wavelet_pipeline(workdir, plane_path, capsys):
    out = workdir / "rec_wav.svol"
    rc = cli.main(
        ["invert-wavelet", "--in", str(plane_path), "--wavelet-n", "28",
         "--wavelet-h", "0.2", "--wavelet-scale", "0.6",
         "--lattice-extent", "0.4", "--lattice-shifts", "2",
         "--scale-min", "0.9", "--scale-max", "1.8", "--nscales", "2",
         "--out", str(out)]
    )
    assert rc == 0
    metrics = _metrics(capsys.readouterr().out)
    for key in ("energy_ratio", "iterations", "coefficient_residual", "template_anisotropy"):
        assert key in metrics
    assert read_volume(out).n == 28


def test_cli_invert_fbp_rejects_line_data(workdir, line_path, capsys):
    rc = cli.main(
        ["invert-fbp", "--in", str(line_path), "--out", str(workdir / "no.svol")]
    )
    assert rc == 1
    assert "GeometryMismatch" in capsys.readouterr().err


def test_cli_missing_input_reports_bare_name(workdir, capsys):
    rc = cli.main(
        ["radon", "--in", str(workdir / "absent.svol"),
         "--out", str(workdir / "no.sgm")]
    )
    assert rc == 1
    assert capsys.readouterr().err.strip() == "FileNotFound"


def test_cli_radon_rejects_non_finite_volume(workdir, vol_path, capsys):
    # One NaN voxel in the payload: the reader must refuse the field rather
    # than project it to an all-zero sinogram.
    bad = workdir / "nan.svol"
    raw = bytearray(vol_path.read_bytes())
    raw[VOL_HEADER_BYTES : VOL_HEADER_BYTES + 8] = np.array([np.nan], dtype="<f8").tobytes()
    bad.write_bytes(bytes(raw))
    out = workdir / "nan.sgm"
    rc = cli.main(["radon", "--in", str(bad), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "ValueError\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, detector",
    [
        ("radon", ["--nt", "33", "--tmax", "4.8"]),
        ("xray", ["--nu", "32", "--nv", "32", "--umax", "4.8"]),
    ],
    ids=["radon", "xray"],
)
def test_cli_rejects_field_reaching_past_detector(command, detector, workdir, capsys):
    # A constant field fills its cube, whose corners lie 8.31 from the origin,
    # while the detector reaches 4.8: projecting it would silently drop up to
    # 17% of its mass per direction.
    cube = workdir / "cube.svol"
    write_volume(cube, Volume(np.ones((16, 16, 16)), 0.6))
    out = workdir / f"cube-{command}.sgm"
    rc = cli.main(
        [command, "--in", str(cube), "--ntheta", "8", "--nphi", "8", *detector, "--out", str(out)]
    )
    assert rc == 1
    assert capsys.readouterr().err == "GeometryMismatch\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["invert-fbp", "filter"])
def test_cli_rejects_non_finite_sinogram(command, workdir, plane_path, capsys):
    # One NaN sample in the payload: the reader must refuse the data rather
    # than reconstruct or filter it into a non-finite output with exit code 0.
    bad = workdir / f"nan-{command}.sgm"
    raw = bytearray(plane_path.read_bytes())
    raw[SGM_HEADER_BYTES : SGM_HEADER_BYTES + 8] = np.array([np.nan], dtype="<f8").tobytes()
    bad.write_bytes(bytes(raw))
    out = workdir / f"nan-{command}.out"
    rc = cli.main([command, "--in", str(bad), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "ValueError\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, suffix, header, header_bytes",
    [
        ("radon", "svol", "SIMRAD-VOL v1 h=0.5 origin=0,0,0 dtype=f64", VOL_HEADER_BYTES),
        ("radon", "svol", "SIMRAD-VOL v1 N=100000 h=0.5 origin=0,0,0 dtype=f64", VOL_HEADER_BYTES),
        ("radon", "svol", "SIMRAD-VOL v1 N=3 h=0.5 origin=0,0,0 dtype=f64", VOL_HEADER_BYTES),
        ("filter", "sgm", "SIMRAD-SGM v1 kind=plane ntheta=4 nphi=4 tmax=4", SGM_HEADER_BYTES),
        (
            "filter",
            "sgm",
            "SIMRAD-SGM v1 kind=line ntheta=4000 nphi=4000 nu=4000 nv=4000 umax=4.8",
            SGM_HEADER_BYTES,
        ),
    ],
    ids=[
        "volume-missing-N", "volume-huge-N", "volume-short-N", "sinogram-missing-nt",
        "sinogram-huge",
    ],
)
def test_cli_rejects_malformed_headers(command, suffix, header, header_bytes, workdir, capsys):
    # A missing field is a malformed file, and a declared payload that differs
    # from the file's is refused before anything is allocated: the huge cases
    # would ask for petabytes, and N=3 would reshape the first 27 of the 64
    # samples into a volume.
    bad = workdir / f"malformed.{suffix}"
    _write_raw(bad, header, header_bytes, b"\x00" * (4**3 * 8))
    out = workdir / "malformed.out"
    rc = cli.main([command, "--in", str(bad), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "ValueError\n"
    assert not out.exists()


def test_cli_usage_errors_exit_2(workdir, vol_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    for argv in (
        ["radon", "--in", str(vol_path), "--tmax", "nan", "--out", str(workdir / "x.sgm")],
        ["gen", "--phantom", "gaussian", "--h", "inf", "--out", str(workdir / "x.svol")],
        *(
            ["filter", "--in", str(vol_path), "--power", token, "--out", str(workdir / "x.sgm")]
            for token in ("-1", "nan", "inf")
        ),
        ["verify", "--check", "fiber", "--seed", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--phantom", "gaussian", "--n", "-3", "--out", "x.svol"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["radon", "--in", str(vol_path), "--out", str(vol_path)])
    assert exc.value.code == 2


_COARSE_FLAGS = [
    "--n", "32", "--h", "0.3", "--ntheta", "16", "--nphi", "16",
    "--nt", "65", "--tmax", "4.8", "--nu", "48", "--umax", "4.8",
]


def test_cli_verify_passing_subset_with_summary(workdir, capsys):
    summary = workdir / "report.json"
    rc = cli.main(
        ["verify", "--check", "fiber", *_COARSE_FLAGS, "--summary-out", str(summary)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "CHECK fiber_constancy" in out
    assert "pass=1" in out
    text = summary.read_text()
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["all_passed"] is True
    assert parsed["entries"][0]["name"] == "fiber_constancy"


def test_cli_verify_failure_sets_exit_code(capsys):
    # the slice tolerance is calibrated for the default fine grids, so the
    # coarse run fails it and must surface through the exit code
    rc = cli.main(["verify", "--check", "fourier_slice", *_COARSE_FLAGS])
    assert rc == 1
    captured = capsys.readouterr()
    assert "CheckFailed" in captured.err
    assert "pass=0" in captured.out


def test_thread_cap_env(monkeypatch):
    for var in cli.THREAD_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    cli.apply_thread_cap(["radon", "--threads", "3"])
    assert all(cli.os.environ[v] == "3" for v in cli.THREAD_ENV_VARS)
    cli.apply_thread_cap(["radon", "--threads=5"])
    assert all(cli.os.environ[v] == "5" for v in cli.THREAD_ENV_VARS)
    for var in cli.THREAD_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    cli.apply_thread_cap(["radon"])  # no flag: leave the environment alone
    cli.apply_thread_cap(["radon", "--threads", "0"])  # invalid: ignored
    assert all(v not in cli.os.environ for v in cli.THREAD_ENV_VARS)


def test_cli_import_does_not_load_numpy():
    # The thread cap only works if importing the command-line module leaves
    # numpy unimported until after the environment variables are set.  The
    # child runs from the directory that holds the imported package, so it
    # finds the same simrad from any checkout or installation.
    code = "import sys, simrad.cli; sys.exit(1 if 'numpy' in sys.modules else 0)"
    package_root = Path(simrad.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], cwd=package_root)
    assert proc.returncode == 0


def test_cli_check_names_are_the_verify_config_checks():
    # The CLI keeps its own copy so that importing it loads no numpy.
    assert cli._CHECK_NAMES == VerifyConfig().checks


def test_every_export_resolves():
    # The exports load on first access (PEP 562), so a stale entry in the
    # export table fails only when something reads it.
    for name in simrad.__all__:
        getattr(simrad, name)


def test_numpy_routes_do_not_load_scipy():
    # Only the wavelet route needs scipy; importing the library modules and
    # running the transforms, FBP, both direct-Fourier kinds, the quadrature
    # integral, the point-space action and the Fourier slice load numpy alone,
    # so every subcommand but invert-wavelet starts without it.
    code = "\n".join(
        [
            "import sys",
            "import numpy as np",
            "from simrad import filters, grid, invert, io, verify, xform",
            "from simrad.group import GroupElement, PlaneLabel",
            "v = grid.gaussian_phantom(16, 0.3, scale=0.55)",
            "plane = xform.PlaneGeometry(8, 8, 33, 3.0)",
            "line = xform.LineGeometry(8, 8, 16, 16, 2.4)",
            "ps = xform.radon_plane(v, plane)",
            "invert.invert_fbp_plane(ps, 16, 0.3)",
            "invert.invert_direct_fourier(ps, 16, 0.3)",
            "invert.invert_direct_fourier(xform.xray(v, line), 16, 0.3)",
            "xform.plane_integral(v, PlaneLabel(0.3, 0.4, 0.1))",
            "grid.apply_pi(GroupElement(np.zeros(3), np.eye(3), 1.1), v)",
            "xform.fourier_slice(xform._padded_spectrum(v, 2 * v.n), plane)",
            "print(' '.join(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
        ]
    )
    package_root = Path(simrad.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=package_root, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_wavelet_route_does_not_load_scipy_ndimage():
    # The lattice atoms read the wavelet's spectrum through the package's own
    # cubic kernel; scipy.sparse, for the frame coefficients, may still load.
    code = "\n".join(
        [
            "import sys, warnings",
            "import numpy as np",
            "from simrad import grid, invert, xform",
            "v = grid.gaussian_phantom(16, 0.3, scale=0.55)",
            "s = xform.radon_plane(v, xform.PlaneGeometry(8, 8, 33, 4.8))",
            "lattice = invert.GroupLattice.build(0.6, 2, 0.8, 1.6, 2, rotations=[np.eye(3)])",
            "warnings.simplefilter('ignore')",
            "rec, metrics = invert.invert_wavelet(s, grid.log_wavelet(16, 0.3), lattice)",
            "assert metrics.iterations > 0 and np.any(rec.data)",
            "print(' '.join(m for m in sys.modules if m.startswith('scipy.ndimage')))",
        ]
    )
    package_root = Path(simrad.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=package_root, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
