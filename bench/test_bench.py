"""Tests of the benchmark's own reference computations and span arithmetic.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

from __future__ import annotations

import numpy as np
import pytest

import reference as ref
import tracer

MIX = ref.Mixture(
    np.array([[0.4, -0.3, 0.2], [-0.5, 0.25, -0.35]]),
    np.array([0.6, 0.8]),
    np.array([1.0, -0.6]),
)


def _mixture_at(points: np.ndarray) -> np.ndarray:
    out = np.zeros(points.shape[:-1])
    for c, s, a in zip(MIX.centers, MIX.widths, MIX.amplitudes):
        out += a * np.exp(-np.pi * np.sum((points - c) ** 2, axis=-1) / s**2)
    return out


# Riemann sums of Gaussians on a fine uniform grid converge spectrally.
STEP = 0.04
AXIS = np.arange(-6.0, 6.0 + STEP / 2, STEP)


def test_frames_are_right_handed_orthonormal():
    e1, e2, n = ref.chart_frames(5, 7)
    frames = np.stack([e1, e2, n], axis=-1)
    gram = np.einsum("ijka,ijkb->ijab", frames, frames)
    assert np.allclose(gram, np.eye(3), atol=1e-14)
    assert np.allclose(np.cross(e1, e2), n, atol=1e-14)


def test_plane_integrals_match_quadrature():
    n_theta, n_phi, n_t, t_max = 3, 4, 9, 2.0
    closed = MIX.plane_integrals(n_theta, n_phi, n_t, t_max)
    e1, e2, normal = ref.chart_frames(n_theta, n_phi)
    a, b = np.meshgrid(AXIS, AXIS, indexing="ij")
    for i in range(n_theta):
        for j in range(n_phi):
            for k, t in enumerate(np.linspace(-t_max, t_max, n_t)):
                pts = t * normal[i, j] + a[..., None] * e1[i, j] + b[..., None] * e2[i, j]
                brute = STEP**2 * float(np.sum(_mixture_at(pts)))
                assert abs(brute - closed[i, j, k]) < 1e-10


def test_line_integrals_match_quadrature():
    n_theta, n_phi, n_u, u_max = 3, 3, 6, 1.5
    closed = MIX.line_integrals(n_theta, n_phi, n_u, n_u, u_max)
    e1, e2, normal = ref.chart_frames(n_theta, n_phi)
    us = ref.detector_axis(n_u, u_max)
    for i in range(n_theta):
        for j in range(n_phi):
            w = us[:, None, None, None] * e1[i, j] + us[None, :, None, None] * e2[i, j]
            pts = w + AXIS[None, None, :, None] * normal[i, j]
            brute = STEP * np.sum(_mixture_at(pts), axis=-1)
            assert np.max(np.abs(brute - closed[i, j])) < 1e-10


def test_detector_axis_is_centered_with_documented_pitch():
    us = ref.detector_axis(4, 2.0)
    assert np.allclose(us, [-1.5, -0.5, 0.5, 1.5])


def test_samples_match_pointwise_evaluation():
    n, h = 9, 0.35
    x = (np.arange(n) - n // 2) * h
    pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1)
    assert np.max(np.abs(MIX.samples(n, h) - _mixture_at(pts))) < 1e-15


def test_interior_error_uses_the_central_cube():
    ref_vol = np.ones((8, 8, 8))
    rec = ref_vol.copy()
    rec[0] = 5.0  # outside the central 6^3
    assert ref.interior_error(rec, ref_vol) == 0.0
    rec[4, 4, 4] = 2.0
    assert ref.interior_error(rec, ref_vol) == pytest.approx(1.0 / np.sqrt(6**3))


def test_svol_round_trip_is_bit_exact(tmp_path):
    data = np.random.default_rng(0).normal(size=(5, 5, 5))
    path = str(tmp_path / "v.svol")
    ref.write_svol(path, data, 0.25)
    back, spacing = ref.read_svol(path)
    assert spacing == 0.25 and back.tobytes() == data.tobytes()
    with open(path, "rb") as fh:
        raw = fh.read()
    assert len(raw) == 64 + 8 * 125
    # x varies fastest on disk
    assert np.frombuffer(raw, "<f8", count=2, offset=64).tolist() == [data[0, 0, 0], data[1, 0, 0]]


def test_sgm_reader_follows_the_documented_layout(tmp_path):
    data = np.arange(2 * 3 * 4 * 5, dtype=float).reshape(2, 3, 4, 5)
    header = "SIMRAD-SGM v1 kind=line ntheta=2 nphi=3 nu=4 nv=5 umax=1.5"
    path = tmp_path / "s.sgm"
    path.write_bytes(header.ljust(95).encode("ascii") + b"\n" + data.astype("<f8").tobytes())
    back, fields = ref.read_sgm(str(path))
    assert fields["kind"] == "line" and np.array_equal(back, data)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        ref.read_sgm(str(path))


def _span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end, "run": "r"}


def test_self_time_subtracts_direct_children():
    spans = [
        _span(1, None, "op.a", 0.0, 10.0),
        _span(2, 1, "invert.f", 1.0, 9.0),
        _span(3, 2, "xform.g", 2.0, 5.0),
        _span(4, 2, "xform.g", 5.0, 6.0),
        _span(5, 3, "grid.h", 2.5, 3.0),
    ]
    rows = tracer.summarize(spans)
    assert rows["invert.f"] == {"calls": 1, "s": 8.0, "self_s": 4.0}
    assert rows["xform.g"] == {"calls": 2, "s": 4.0, "self_s": 3.5}
    assert tracer.covered_seconds(spans) == 8.0


def test_instrument_records_calls_between_modules_and_restores():
    import simrad.cli  # noqa: F401
    import simrad.filters  # noqa: F401
    import simrad.grid as grid
    import simrad.invert  # noqa: F401
    import simrad.io  # noqa: F401
    import simrad.verify  # noqa: F401
    import simrad.xform  # noqa: F401

    original = grid.gaussian_phantom
    recorder = tracer.Recorder("test")
    restore = tracer.instrument(recorder)
    try:
        grid.gaussian_phantom(16, 0.5, scale=0.5)
    finally:
        restore()
    assert grid.gaussian_phantom is original
    names = [(s["name"], s["parent"]) for s in recorder.spans]
    assert names == [("grid.gaussian_phantom", None), ("grid.gaussian_mixture_phantom", 1)]
    assert all(s["end"] >= s["start"] for s in recorder.spans)


def test_memory_mode_reports_nested_peaks():
    import tracemalloc

    recorder = tracer.Recorder("test", memory=True)
    tracemalloc.start()
    try:
        recorder.begin("outer")
        recorder.begin("inner")
        block = np.ones(1 << 20)  # 8 MiB
        del block
        recorder.end()
        recorder.end()
    finally:
        tracemalloc.stop()
    assert 7.9 < recorder.peaks["inner"] < 9.0
    assert recorder.peaks["outer"] >= recorder.peaks["inner"]
