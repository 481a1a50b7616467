"""Forward projectors, chart-aware samplers, spectra, and backprojection.

Accuracy assertions use a Gaussian bump, whose plane and line transforms
have closed forms: integrating ``exp(-pi |x - c|^2)`` over the plane
``n . x = t`` gives ``exp(-pi (t - n . c)^2)``, and along a line with frame
``(e1, e2, n)`` through ``u e1 + v e2`` gives
``exp(-pi ((u - e1 . c)^2 + (v - e2 . c)^2))``.
"""

from __future__ import annotations

import functools
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import simrad
import simrad.xform as xform
from simrad.errors import GeometryMismatch
from simrad.grid import Spectrum3D, Volume, gaussian_mixture_phantom, gaussian_phantom
from simrad.group import LineLabel, PlaneLabel, rotation_from_angles, unit_normal
from simrad.xform import (
    CUTOFF_FRACTION,
    PROJECTOR_DROP,
    ROLLOFF_FRACTION,
    SPLAT_REFINE,
    LineGeometry,
    LineSinogram,
    PlaneGeometry,
    PlaneSinogram,
    _chart_stencil,
    _padded_spectra,
    _padded_spectrum,
    _reached_voxels,
    _stencil_nodes,
    backproject_plane,
    fourier_slice,
    line_integral,
    plane_integral,
    radon_plane,
    sample_chart,
    sinogram_inner,
    sinogram_norm,
    xray,
)

# Projector accuracy at the small test scale (N=32, h=0.3, 16x16 directions);
# measured 5.7e-4 (planes) and 1.2e-3 (lines), dominated by the band-edge
# aliasing of the h=0.3 grid.  The acceptance suite pins the tighter N=64
# budgets.
RADON_ORACLE_TOL = 2e-3
XRAY_ORACLE_TOL = 4e-3
# Direct trilinear quadrature of a unit-width Gaussian at h=0.3 carries an
# O(h^2 f'') bias ~1.6e-2; it is the *independent cross-check*, not the
# production path, and only its self-consistency is held to 1e-6 elsewhere.
DIRECT_QUADRATURE_TOL = 3e-2
# Sinogram-norm and detector-spectrum oracles inherit the direction-quadrature
# error of the 16x16 midpoint rule, measured ~1.6e-3; the spectra read 1.2e-3
# (planes) and 1.3e-3 (lines) at their direct-Fourier pads.
MEASURE_ORACLE_TOL = 5e-3
SPECTRUM_ORACLE_TOL = 5e-3
# Spectrum interpolation on a pad-2 grid leaves ~9e-3 of phase error for the
# shifted bump (the verify harness uses pad 4 for its 1e-2 budget).
SLICE_ORACLE_TOL = 2e-2
# backproject_plane is the transpose of radon_plane: measured 6.3e-16.  The
# bound predates the transpose; TRANSPOSE_TOL holds the pairing to rounding.
ADJOINT_TOL = 2e-3
# Chart gluing bookkeeping is pure index arithmetic.
GLUING_TOL = 1e-12
# radon_plane against the voxel-driven reference below: another discretization
# (a (z, s) table per azimuth row, then a splat along t), so the two agree
# only as h falls.  Max distance over the reference's peak at h = 0.6 / 0.3 /
# 0.15: 1.7e-2 / 5.5e-5 / 7.7e-5 (centered Gaussian), 3.5e-4 / 5.6e-5 /
# 5.5e-5 (edge-reaching bump).  Below h = 0.3 both sit on one floor: with
# n_phi = 6 the normals at phi = pi/4 run along the table's diagonal, and its
# comb's second harmonic folds into the band through the refined offset grid
# with weight sinc^4(0.94) ~ 1e-5.  The voxel splat has the same floor along
# the lattice's face diagonals: 7.5e-5 from the closed form at theta = pi/4,
# phi = pi/2 (h = 0.15, 6x7 directions), where radon_plane reads 7.4e-5.
PLANE_REFERENCE_TOL = 1.5e-4
PLANE_REFERENCE_HALVING_GAIN = 4.0
# xray against the same reference: a (z, s, v) table per azimuth row, carried
# to each polar angle by one matrix, so the two agree only as h falls.  Max
# distance over the reference's peak at h = 0.6 / 0.3 / 0.15: 8.0e-3 / 1.0e-4
# / 5.8e-5 (centered Gaussian), 2.6e-4 / 3.4e-5 / 3.5e-6 (edge-reaching
# bump).  Without the division by the table's s low-pass as each line sees
# it, the centered case reads 1.8e-4 at h = 0.3.
XRAY_REFERENCE_TOL = 1.5e-4
XRAY_REFERENCE_HALVING_GAIN = 4.0
# tracemalloc peak of one xray call at the benchmark's demo sizes (N=48,
# h=0.2, 24x24 directions, 48x48 detector); measured 23 MiB (13 MiB for the
# voxel-driven splat it replaced, 577 MiB for deconvolving the whole refined
# grid at once).
XRAY_PEAK_MIB = 150
# backproject_plane runs radon_plane's stages transposed, so the two pair to
# rounding.  For a random in-reach field and a random sinogram the pairing is
# small, 2.0e-2 (n=33) and 0.16 (n=5) against norm products of 130 and 22,
# and the two sides differ by 3.5e-14 and 2.4e-15 of it; a backprojection
# that interpolated each direction's profile on its own read 51 and 15.
TRANSPOSE_TOL = 1e-12
# tracemalloc peak of one plane backprojection at the demo sizes (N=48,
# h=0.2, 24x24 directions, 97 offsets); measured 7.6 MiB.
BACKPROJECT_PEAK_MIB = 16
# tracemalloc peak of one radon_plane call at the demo sizes (N=48, h=0.2,
# 24x24 directions, 97 offsets); measured 5.2 MiB, where filling every row's
# table at once took 42 MiB.
RADON_PLANE_PEAK_MIB = 10

CENTER = np.array([0.4, -0.3, 0.2])


@pytest.fixture(scope="module")
def volume() -> Volume:
    return gaussian_phantom(32, 0.3, center=CENTER)


@pytest.fixture(scope="module")
def plane_geometry() -> PlaneGeometry:
    return PlaneGeometry(16, 16, 65, 4.8)


@pytest.fixture(scope="module")
def line_geometry() -> LineGeometry:
    return LineGeometry(16, 16, 48, 48, 4.8)


@pytest.fixture(scope="module")
def plane_sinogram(volume, plane_geometry) -> PlaneSinogram:
    return radon_plane(volume, plane_geometry)


@pytest.fixture(scope="module")
def line_sinogram(volume, line_geometry) -> LineSinogram:
    return xray(volume, line_geometry)


def _plane_oracle(g: PlaneGeometry) -> np.ndarray:
    nc = g.normals @ CENTER
    return np.exp(-np.pi * (g.ts[None, None, :] - nc[:, :, None]) ** 2)


def _line_oracle(g: LineGeometry) -> np.ndarray:
    cu = np.einsum("ijk,k->ij", g.frames[:, :, :, 0], CENTER)
    cv = np.einsum("ijk,k->ij", g.frames[:, :, :, 1], CENTER)
    return np.exp(
        -np.pi
        * (
            (g.us[None, None, :, None] - cu[:, :, None, None]) ** 2
            + (g.vs[None, None, None, :] - cv[:, :, None, None]) ** 2
        )
    )


# --- geometries -------------------------------------------------------------


def test_geometry_defaults_match_acceptance_grids():
    pg = PlaneGeometry()
    assert (pg.n_theta, pg.n_phi, pg.n_t, pg.t_max) == (32, 32, 129, 6.0)
    lg = LineGeometry()
    assert (lg.n_theta, lg.n_phi, lg.n_u, lg.n_v, lg.u_max) == (32, 32, 64, 64, 4.8)


def test_direction_grid_is_midpoint_and_weights_cover_half_sphere(plane_geometry):
    g = plane_geometry
    assert np.all((g.thetas > 0.0) & (g.thetas < np.pi))
    assert np.all((g.phis > 0.0) & (g.phis < np.pi))
    assert g.thetas[0] == pytest.approx(0.5 * g.dtheta)
    # Midpoint rule on sin(phi) over the chart square: the discrete total is
    # exactly 2 pi * (dphi/2) / sin(dphi/2), slightly above the half-sphere
    # area 2 pi.
    exact_total = 2.0 * np.pi * (0.5 * g.dphi) / np.sin(0.5 * g.dphi)
    assert np.sum(g.direction_weights) == pytest.approx(exact_total, rel=1e-12)
    assert np.sum(g.direction_weights) == pytest.approx(2.0 * np.pi, rel=5e-3)
    assert np.max(np.abs(np.linalg.norm(g.normals, axis=-1) - 1.0)) <= 1e-14


def test_offset_grids_are_centered(plane_geometry, line_geometry):
    assert np.sum(plane_geometry.ts) == pytest.approx(0.0, abs=1e-12)
    assert np.sum(line_geometry.us) == pytest.approx(0.0, abs=1e-12)
    assert plane_geometry.ts[-1] == plane_geometry.t_max


@pytest.mark.parametrize("n", [32, 33, 48, 65])
def test_detector_origins_are_the_first_samples(n):
    pg = PlaneGeometry(4, 4, n, 4.8)
    assert pg.detector == ((n, pg.ts[0], pg.dt),)
    assert pg.detector[0][1].hex() == pg.ts[0].hex()
    lg = LineGeometry(4, 4, n, n + 1, 4.8)
    (n_u, u0, du), (n_v, v0, dv) = lg.detector
    assert (n_u, du, n_v, dv) == (lg.n_u, lg.du, lg.n_v, lg.dv)
    assert (u0.hex(), v0.hex()) == (lg.us[0].hex(), lg.vs[0].hex())


def test_detector_directions_are_the_projector_axes(plane_geometry, line_geometry):
    (normals,) = plane_geometry.detector_directions
    assert np.array_equal(normals, plane_geometry.normals)
    e1, e2 = line_geometry.detector_directions
    frames = line_geometry.frames.reshape(-1, 3, 3)
    for a, d in enumerate((e1, e2)):
        # the strided view of the frames, so BLAS sees the layout it always saw
        flat = d.reshape(-1, 3)
        assert np.shares_memory(flat, line_geometry.frames)
        assert flat.strides == frames[:, :, a].strides
        assert np.array_equal(flat, frames[:, :, a])


def _slice_query_frequencies() -> np.ndarray:
    rng = np.random.default_rng(5)
    extra = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.7], [0.0, 0.0, -0.4], [1e-3, 0.0, 2.0]]
    return np.concatenate([rng.standard_normal((500, 3)), extra])


@pytest.mark.parametrize("kind", ["plane", "line"])
def test_slice_query_reads_each_frequency_on_its_slice(kind, plane_geometry, line_geometry):
    W = _slice_query_frequencies()
    mag = np.linalg.norm(W, axis=-1)
    geometry = plane_geometry if kind == "plane" else line_geometry
    dirs, queries = geometry.slice_query(W, mag)
    assert np.max(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0)) <= 1e-12
    if kind == "plane":
        # the frequency's own ray, at offset frequency |W|
        assert np.array_equal(queries, mag[:, None])
        assert np.max(np.abs(dirs * mag[:, None] - W)) <= 1e-12 * np.max(mag)
    else:
        # a perpendicular direction, whose detector plane holds W
        assert np.array_equal(queries, W)
        assert np.all(np.abs(np.sum(dirs * W, axis=-1)) <= 1e-12 * mag)


def test_geometry_validation():
    with pytest.raises(GeometryMismatch):
        PlaneGeometry(1, 16, 65, 4.8)
    with pytest.raises(GeometryMismatch):
        PlaneGeometry(16, 16, 2, 4.8)
    with pytest.raises(GeometryMismatch):
        LineGeometry(16, 16, 48, 48, -1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(GeometryMismatch):
            PlaneGeometry(16, 16, 65, bad)
        with pytest.raises(GeometryMismatch):
            LineGeometry(16, 16, 48, 48, bad)


def test_sinogram_shape_validation(plane_geometry, line_geometry):
    with pytest.raises(GeometryMismatch):
        PlaneSinogram(np.zeros((2, 2, 2)), plane_geometry)
    with pytest.raises(GeometryMismatch):
        LineSinogram(np.zeros((2, 2, 2, 2)), line_geometry)
    g, lg = plane_geometry, line_geometry
    for bad in (np.nan, np.inf, -np.inf):
        data = np.zeros((g.n_theta, g.n_phi, g.n_t))
        data[3, 5, 7] = bad
        with pytest.raises(ValueError):
            PlaneSinogram(data, g)
        data = np.zeros((lg.n_theta, lg.n_phi, lg.n_u, lg.n_v))
        data[3, 5, 7, 2] = bad
        with pytest.raises(ValueError):
            LineSinogram(data, lg)


# --- forward projectors -----------------------------------------------------


def test_radon_plane_gaussian_oracle(plane_sinogram, plane_geometry):
    err = np.max(np.abs(plane_sinogram.data - _plane_oracle(plane_geometry)))
    assert err <= RADON_ORACLE_TOL


def test_xray_gaussian_oracle(line_sinogram, line_geometry):
    err = np.max(np.abs(line_sinogram.data - _line_oracle(line_geometry)))
    assert err <= XRAY_ORACLE_TOL


def test_projectors_are_linear(volume, plane_geometry):
    v2 = gaussian_phantom(32, 0.3, center=[-0.5, 0.2, 0.0], scale=0.8)
    combo = Volume(2.0 * volume.data - 0.5 * v2.data, 0.3)
    for project, g in ((radon_plane, plane_geometry), (xray, LineGeometry(8, 8, 32, 32, 4.8))):
        expected = 2.0 * project(volume, g).data - 0.5 * project(v2, g).data
        assert np.max(np.abs(project(combo, g).data - expected)) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projectors_refuse_a_field_made_non_finite_in_place(bad):
    # Volume checks its data only when it is built; a projector that read a
    # NaN or infinite peak would mask every voxel out and return zeros.
    v = gaussian_phantom(16, 0.6)
    v.data[8, 7, 9] = bad
    with pytest.raises(ValueError, match="volume data must be finite"):
        radon_plane(v, PlaneGeometry(4, 4, 33, 4.8))
    with pytest.raises(ValueError, match="volume data must be finite"):
        xray(v, LineGeometry(4, 4, 16, 16, 4.8))


def _reference_projection(v: Volume, axes) -> np.ndarray:
    """Projector as first written: splat every direction onto the whole refined
    grid with off-detector taps clipped into discard cells, divide by the
    kernel response with one FFT pass per detector axis, keep every
    ``SPLAT_REFINE``-th sample.  ``axes`` holds ``(directions, origin, step, n)``
    per detector axis, as ``geometry.detector`` and ``detector_directions``.
    """
    f = v.data.ravel()
    keep = np.abs(f) > PROJECTOR_DROP * np.max(np.abs(f))
    pts, f = v.coordinate_grid().reshape(-1, 3)[keep], f[keep]
    n_dir = axes[0][0].shape[0]
    lengths = [SPLAT_REFINE * (n - 1) + 1 for *_, n in axes]
    grid = np.zeros((n_dir, *(n_f + 4 for n_f in lengths)))
    per_axis = []
    for (dirs, origin, step, _), n_f in zip(axes, lengths):
        pos = (pts @ dirs.T - origin) / (step / SPLAT_REFINE)
        k0 = np.floor(pos).astype(np.int64)
        w = pos - k0
        taps = (
            (1.0 - 3.0 * w + 3.0 * w**2 - w**3) / 6.0,
            (4.0 - 6.0 * w**2 + 3.0 * w**3) / 6.0,
            (1.0 + 3.0 * w + 3.0 * w**2 - 3.0 * w**3) / 6.0,
            w**3 / 6.0,
        )
        per_axis.append(
            [(np.clip(k0 + off, -2, n_f + 1) + 2, tap) for off, tap in zip((-1, 0, 1, 2), taps)]
        )
    direction = np.broadcast_to(np.arange(n_dir)[None, :], per_axis[0][0][0].shape)
    for combo in itertools.product(*per_axis):
        weight = f[:, None] * np.prod([tap for _, tap in combo], axis=0)
        np.add.at(grid, (direction, *(idx for idx, _ in combo)), weight)
    out = grid[(slice(None),) + (slice(2, -2),) * len(axes)]
    out = out * v.spacing**3 / np.prod([step / SPLAT_REFINE for _, _, step, _ in axes])
    for axis, (_, _, step, _) in enumerate(axes, start=1):
        n_f = out.shape[axis]
        step_f = step / SPLAT_REFINE
        freq = np.fft.fftfreq(n_f, step_f)
        cutoff = CUTOFF_FRACTION * min(0.5 / v.spacing, 0.5 / step)
        knee = (1.0 - ROLLOFF_FRACTION) * cutoff
        ramp = np.clip((np.abs(freq) - knee) / (cutoff - knee), 0.0, 1.0)
        factor = 0.5 * (1.0 + np.cos(np.pi * ramp)) / np.sinc(freq * step_f) ** 4
        shape = [1] * out.ndim
        shape[axis] = n_f
        out = np.fft.ifft(np.fft.fft(out, axis=axis) * factor.reshape(shape), axis=axis).real
    return out[(slice(None),) + (slice(None, None, SPLAT_REFINE),) * len(axes)]


def _edge_reaching_field(e1: np.ndarray, halvings: int = 0) -> Volume:
    # A smooth bump of compact support, (1 - |x - c|^2 / R^2)^3 around c = e1
    # with R = 3.795, on an off-centre grid that puts one voxel at 4.79 * e1:
    # the active voxels reach 4.79 from the origin, just inside a reach of 4.8.
    # Each halving halves the spacing of the same cube from the same origin.
    far = 4.79 * e1
    origin = far - 0.6 * (np.round((far - e1) / 0.6) + 7)
    v = Volume(np.zeros((16 << halvings,) * 3), 0.6 / 2**halvings, origin)
    q = np.sum((v.coordinate_grid() - e1) ** 2, axis=-1) / 3.795**2
    v.data = np.where(q < 1.0, 1.0 - np.minimum(q, 1.0), 0.0) ** 3
    return v


@pytest.mark.parametrize("case", ["centered", "edge_reaching"])
def test_xray_converges_to_the_voxel_driven_reference(case):
    # the CENTER bump and a field that reaches the detector's edge, each at h =
    # 0.6 and 0.3 on one cube
    if case == "centered":
        lg = LineGeometry(6, 8, 48, 40, 4.8)
        fields = [gaussian_phantom(n, 9.6 / n, center=CENTER) for n in (16, 32)]
    else:
        # The last direction's first detector axis points at the field's
        # farthest voxel, 4.79 from the origin, and the table's corners reach
        # past u_max, where stage B's widened u axis has to hold their taps.
        lg = LineGeometry(6, 8, 32, 24, 4.8)
        e1 = lg.frames[-1, -1, :, 0]
        fields = [_edge_reaching_field(e1, halvings) for halvings in (0, 1)]
        for v in fields:
            pts, _ = _reached_voxels(v, lg)
            assert lg.u_max - lg.du < np.sqrt(np.max(np.sum(pts * pts, axis=1))) <= lg.u_max
    frames = lg.frames.reshape(-1, 3, 3)
    axes = [(frames[:, :, 0], lg.us[0], lg.du, lg.n_u), (frames[:, :, 1], lg.vs[0], lg.dv, lg.n_v)]
    dist = []
    for v in fields:
        ref = _reference_projection(v, axes).reshape(lg.shape)
        dist.append(np.max(np.abs(xray(v, lg).data - ref)) / np.max(np.abs(ref)))
    coarse, fine = dist
    assert fine <= XRAY_REFERENCE_TOL
    assert coarse >= XRAY_REFERENCE_HALVING_GAIN * fine


@pytest.mark.parametrize("case", ["centered", "edge_reaching"])
def test_radon_plane_converges_to_the_voxel_driven_reference(case):
    # the fields of the test above, each at h = 0.6 and 0.3 on one cube
    if case == "centered":
        g = PlaneGeometry(8, 6, 65, 4.8)
        fields = [gaussian_phantom(n, 9.6 / n, center=CENTER) for n in (16, 32)]
    else:
        g = PlaneGeometry(8, 6, 33, 4.8)
        e1 = LineGeometry(6, 8, 32, 24, 4.8).frames[-1, -1, :, 0]
        fields = [_edge_reaching_field(e1, halvings) for halvings in (0, 1)]
    axes = [(g.normals.reshape(-1, 3), -g.t_max, g.dt, g.n_t)]
    dist = []
    for v in fields:
        ref = _reference_projection(v, axes).reshape(g.shape)
        dist.append(np.max(np.abs(radon_plane(v, g).data - ref)) / np.max(np.abs(ref)))
    coarse, fine = dist
    assert fine <= PLANE_REFERENCE_TOL
    assert coarse >= PLANE_REFERENCE_HALVING_GAIN * fine


def test_xray_peak_memory_at_demo_sizes():
    v = gaussian_mixture_phantom(
        48, 0.2, [[0.6, -0.45, 0.3], [-0.75, 0.3, -0.6]], [0.7, 0.9], [1.0, 0.7]
    )
    g = LineGeometry(24, 24, 48, 48, 4.8)
    g.frames  # built once per geometry, not part of the call
    tracemalloc.start()
    try:
        xray(v, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= XRAY_PEAK_MIB * 2**20


def _digests_at_one_and_two_blas_threads(lines: list[str]) -> list[str]:
    # what the script of ``lines`` prints, run with one and with two BLAS threads
    package_root = Path(simrad.__file__).resolve().parents[1]
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", "\n".join(lines)],
            cwd=package_root,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    return digests


def test_xray_bytes_do_not_depend_on_the_blas_thread_count():
    # Most of xray is one matrix product per azimuth row; the continuous
    # integration, the benchmark and the recorded timings run it with one or
    # two BLAS threads and must see the same sinogram bytes.
    digests = _digests_at_one_and_two_blas_threads(
        [
            "import hashlib",
            "from simrad.grid import gaussian_mixture_phantom",
            "from simrad.xform import LineGeometry, xray",
            "v = gaussian_mixture_phantom(",
            "    48, 0.2, [[0.6, -0.45, 0.3], [-0.75, 0.3, -0.6]], [0.7, 0.9], [1.0, 0.7]",
            ")",
            "print(hashlib.sha256(xray(v, LineGeometry(24, 24, 48, 48, 4.8)).data).hexdigest())",
        ]
    )
    assert digests[0] == digests[1]


def test_radon_plane_peak_memory_at_demo_sizes():
    v = gaussian_mixture_phantom(
        48, 0.2, [[0.6, -0.45, 0.3], [-0.75, 0.3, -0.6]], [0.7, 0.9], [1.0, 0.7]
    )
    g = PlaneGeometry(24, 24, 97, 4.8)
    tracemalloc.start()
    try:
        radon_plane(v, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= RADON_PLANE_PEAK_MIB * 2**20


def test_reach_guards(volume):
    with pytest.raises(GeometryMismatch):
        radon_plane(volume, PlaneGeometry(16, 16, 33, 2.0))
    with pytest.raises(GeometryMismatch):
        xray(volume, LineGeometry(16, 16, 32, 32, 2.0))
    # A constant field reaches the cube's corners, 8.31 from the origin, while
    # the grid's half-extent equals the reach 4.8: projecting it would drop
    # 2.5-17% of its mass per direction.
    cube = Volume(np.ones((16, 16, 16)), 0.6)
    with pytest.raises(GeometryMismatch, match="nonzero out to radius 8.31"):
        radon_plane(cube, PlaneGeometry(8, 8, 33, 4.8))
    with pytest.raises(GeometryMismatch, match="nonzero out to radius 8.31"):
        xray(cube, LineGeometry(8, 8, 32, 32, 4.8))
    # A zero field is within any reach, even on a grid that lies past it,
    # where no voxel plane is near enough to hold a table row.
    far = Volume(np.zeros((4, 4, 4)), 1.0, origin=[10.0, 10.0, 10.0])
    assert not np.any(radon_plane(far, PlaneGeometry(4, 4, 9, 2.0)).data)
    assert not np.any(xray(far, LineGeometry(4, 4, 8, 8, 2.0)).data)


# --- independent quadratures ------------------------------------------------


@pytest.mark.parametrize(
    "theta, phi, t",
    [(0.7, 1.1, 0.5), (2.3, 0.4, -1.2), (0.0, np.pi / 2, 0.0)],
)
def test_plane_integral_oracle(volume, theta, phi, t):
    n = unit_normal(theta, phi)
    value = plane_integral(volume, PlaneLabel(theta, phi, t))
    assert value == pytest.approx(
        np.exp(-np.pi * (t - float(n @ CENTER)) ** 2), abs=DIRECT_QUADRATURE_TOL
    )


@pytest.mark.parametrize("theta, phi, p, q", [(0.7, 1.1, 0.5, -0.3), (2.3, 0.4, -1.2, 0.2)])
def test_line_integral_oracle(volume, theta, phi, p, q):
    frame = rotation_from_angles(theta, phi)
    value = line_integral(volume, LineLabel(theta, phi, p * frame[:, 0] + q * frame[:, 1]))
    du = p - float(frame[:, 0] @ CENTER)
    dv = q - float(frame[:, 1] @ CENTER)
    assert value == pytest.approx(
        np.exp(-np.pi * (du * du + dv * dv)), abs=DIRECT_QUADRATURE_TOL
    )


def test_plane_integral_is_fiber_constant(volume):
    # Equivalent labels (antipodal normal, negated offset) rebuild the same
    # planar point set, so agreement is rounding-level, not quadrature-level.
    for theta, phi, t in [(0.7, 1.1, 0.5), (0.0, 1.2, -0.8), (3.1, 0.02, 1.1)]:
        a = plane_integral(volume, PlaneLabel(theta, phi, t))
        b = plane_integral(volume, PlaneLabel(theta + np.pi, np.pi - phi, -t))
        assert abs(a - b) <= GLUING_TOL


# --- chart-aware samplers ---------------------------------------------------


def test_plane_sampler_reproduces_nodes_and_antipodes(plane_sinogram, plane_geometry):
    g = plane_geometry
    axes = [(-g.t_max, g.dt)]
    dirs = g.normals.reshape(-1, 3)
    data = plane_sinogram.data
    flat = data.reshape(-1, g.n_t)
    for k in (0, 37, 133, 255):
        vals = sample_chart(data, g, np.tile(dirs[k], (g.n_t, 1)), g.ts[:, None], axes)
        assert np.max(np.abs(vals - flat[k])) <= GLUING_TOL
        anti = sample_chart(data, g, np.tile(-dirs[k], (g.n_t, 1)), -g.ts[:, None], axes)
        assert np.max(np.abs(anti - flat[k])) <= GLUING_TOL


def test_line_sampler_reproduces_nodes_and_antipodes(line_sinogram, line_geometry):
    g = line_geometry
    axes = [(g.us[0], g.du), (g.vs[0], g.dv)]
    for i, j in ((0, 3), (7, 9), (15, 15)):
        frame = g.frames[i, j]
        offsets = (
            g.us[:, None, None] * frame[:, 0][None, None, :]
            + g.vs[None, :, None] * frame[:, 1][None, None, :]
        )
        dirs = np.broadcast_to(frame[:, 2], offsets.shape)
        vals = sample_chart(line_sinogram.data, g, dirs, offsets, axes)
        assert np.max(np.abs(vals - line_sinogram.data[i, j])) <= GLUING_TOL
        anti = sample_chart(line_sinogram.data, g, -dirs, offsets, axes)
        assert np.max(np.abs(anti - line_sinogram.data[i, j])) <= GLUING_TOL


def test_plane_sampler_interpolates_between_offsets(plane_sinogram, plane_geometry):
    g = plane_geometry
    d = g.normals[4, 7]
    mid = 0.5 * (g.ts[30] + g.ts[31])
    val = sample_chart(plane_sinogram.data, g, d[None, :], np.array([[mid]]), [(-g.t_max, g.dt)])
    expected = 0.5 * (plane_sinogram.data[4, 7, 30] + plane_sinogram.data[4, 7, 31])
    assert abs(float(val[0]) - expected) <= GLUING_TOL


# --- spectra and the projection-slice property ------------------------------


# --- the guarded chart samplers against the masked lookup they replaced -----


def _masked_linear_taps(pos, n):
    # Taps off the axis weigh zero, at a clipped index.
    k0 = np.floor(pos).astype(np.int64)
    w = pos - k0
    return [
        (np.clip(k, 0, n - 1), np.where((k >= 0) & (k < n), wk, 0.0))
        for k, wk in ((k0, 1.0 - w), (k0 + 1, w))
    ]


def _masked_interp_nodes(data, ii, jj, positions):
    # One multi-array fancy index per corner, first axis varying slowest,
    # each corner as (value * w_u) * w_v, summed from 0.
    axes = [_masked_linear_taps(pos, n) for pos, n in zip(positions, data.shape[2:])]
    acc = 0.0
    for corner in itertools.product(*axes):
        value = data[(ii, jj, *(k for k, _ in corner))]
        acc = acc + functools.reduce(np.multiply, (wk for _, wk in corner), value)
    return acc


def _masked_plane_profiles(profiles, n_theta, n_phi, directions, radial, origin, step):
    acc = 0.0
    for ii, jj, sign, w in _chart_stencil(directions, n_theta, n_phi):
        acc = acc + w * _masked_interp_nodes(profiles, ii, jj, [(sign * radial - origin) / step])
    return acc


def _masked_line_images(images, g, directions, vectors, u_origin, du, v_origin, dv):
    acc = 0.0
    for ii, jj, _, w in _chart_stencil(directions, g.n_theta, g.n_phi):
        e1 = g.frames[ii, jj, :, 0]
        e2 = g.frames[ii, jj, :, 1]
        pu = (np.sum(vectors * e1, axis=-1) - u_origin) / du
        pv = (np.sum(vectors * e2, axis=-1) - v_origin) / dv
        acc = acc + w * _masked_interp_nodes(images, ii, jj, [pu, pv])
    return acc


def test_interp_nodes_matches_parent_interpolators(plane_sinogram, line_sinogram, monkeypatch):
    # Complex data, and queries that run past both ends of the offset axis
    # and off every side of the detector, so the clamp and the zero guard are
    # exercised; the guarded gather must reproduce the masked one exactly.
    # Rows of queries (one row per direction, as the pi-hat actions pass
    # them) run in one chunk or, with a small chunk budget, in many.
    _check_samplers_against_masked(plane_sinogram, line_sinogram)
    monkeypatch.setattr(xform, "SPLAT_CHUNK_BYTES", 4096)
    _check_samplers_against_masked(plane_sinogram, line_sinogram)


def _check_samplers_against_masked(plane_sinogram, line_sinogram):
    rng = np.random.default_rng(11)
    dirs = rng.standard_normal((4000, 3))
    pg, lg = plane_sinogram.geometry, line_sinogram.geometry

    profiles = plane_sinogram.data + 1j * plane_sinogram.data[:, :, ::-1]
    args = (pg.n_theta, pg.n_phi)
    axes = [(-pg.t_max, pg.dt)]
    radial = rng.uniform(-1.5 * pg.t_max, 1.5 * pg.t_max, len(dirs))
    want = _masked_plane_profiles(profiles, *args, dirs, radial, -pg.t_max, pg.dt)
    got = sample_chart(profiles, pg, dirs, radial[:, None], axes)
    assert np.array_equal(got, want)
    assert np.max(np.abs(want[np.abs(radial) > pg.t_max + pg.dt])) == 0.0
    # a narrow query span: the sampler copies only the cells it can reach
    near = 0.2 * radial
    want = _masked_plane_profiles(profiles, *args, dirs, near, -pg.t_max, pg.dt)
    got = sample_chart(profiles, pg, dirs, near[:, None], axes)
    assert np.array_equal(got, want)
    row_dirs = dirs[:64, None, :]
    row_radial = rng.uniform(-1.5 * pg.t_max, 1.5 * pg.t_max, (64, pg.n_t))
    want = _masked_plane_profiles(profiles, *args, row_dirs, row_radial, -pg.t_max, pg.dt)
    got = sample_chart(profiles, pg, dirs[:64], row_radial[..., None], axes)
    assert np.array_equal(got, want)

    images = line_sinogram.data * (1.0 - 0.5j)
    origins = (lg.us[0], lg.du, lg.vs[0], lg.dv)
    axes = [(lg.us[0], lg.du), (lg.vs[0], lg.dv)]
    vectors = rng.uniform(-1.3 * lg.u_max, 1.3 * lg.u_max, (len(dirs), 3))
    want = _masked_line_images(images, lg, dirs, vectors, *origins)
    assert np.array_equal(sample_chart(images, lg, dirs, vectors, axes), want)
    vectors = rng.uniform(-1.3 * lg.u_max, 1.3 * lg.u_max, (8, 1, 24, 24, 3))
    row_dirs = dirs[:8, None, None, None, :]
    want = _masked_line_images(images, lg, row_dirs, vectors, *origins)
    assert np.array_equal(sample_chart(images, lg, dirs[:8], vectors, axes), want)


@pytest.mark.parametrize(
    "shape",
    [(96, 96), (128, 128), (132,), (388,), (516,)],
    ids=["uv96", "uv128", "t132", "t388", "t516"],
)
def test_batched_fft_equals_per_slice_fft_bitwise(shape):
    # Direct Fourier inversion transforms only the chart nodes its stencil
    # reads, in batches that differ from the whole chart's: each node's
    # spectrum must not depend on the batch it is transformed in.  The sizes
    # are the padded line detectors of the demo and acceptance sizes (48 and
    # 64 at pad 2) and the padded offset axes of 33, 97 and 129 offsets at pad 4.
    data = np.random.default_rng(5).standard_normal((7, *shape))
    fft = np.fft.fft2 if len(shape) == 2 else np.fft.fft  # over the trailing axes
    batch = fft(data)
    for k in range(len(data)):
        assert batch[k].tobytes() == fft(data[k]).tobytes()
    subset = [5, 0, 3]
    assert fft(data[subset]).tobytes() == batch[subset].tobytes()


def test_sampler_reads_a_node_subset_through_its_slot_table(line_sinogram):
    # Directions next to both poles and both azimuth edges of the chart, and
    # random ones: the data of the nodes their stencil reads, in any order,
    # gives the whole chart's bits, and data without one of them is refused.
    g = line_sinogram.geometry
    rng = np.random.default_rng(3)
    edges = [[0.02, 0.01, 1.0], [0.01, 0.03, -1.0], [1.0, 0.01, 0.3], [-1.0, 0.01, -0.2]]
    dirs = np.concatenate([edges, rng.standard_normal((40, 3))])
    vectors = rng.uniform(-g.u_max, g.u_max, (len(dirs), 3))
    axes = g.detector
    want = sample_chart(line_sinogram.data, g, dirs, vectors, axes)
    nodes = _stencil_nodes(g, dirs)
    assert len(nodes) < g.n_theta * g.n_phi
    nodes = rng.permutation(nodes)
    rows = line_sinogram.data.reshape(-1, g.n_u, g.n_v)[nodes]
    assert sample_chart(rows, g, dirs, vectors, axes, nodes).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="does not hold"):
        sample_chart(rows[1:], g, dirs, vectors, axes, nodes[1:])


def test_sampler_takes_one_row_of_queries_per_direction(plane_sinogram, line_sinogram):
    # Queries whose leading shape is not the directions' are refused, not
    # paired with the wrong directions; zero directions read nothing.
    pg, lg = plane_sinogram.geometry, line_sinogram.geometry
    dirs = np.random.default_rng(4).standard_normal((4, 2, 3))
    for directions, queries in ((dirs[:, 0], np.zeros((8, 1))), (dirs, np.zeros((8, 1, 1)))):
        with pytest.raises(ValueError, match="no row per direction"):
            sample_chart(plane_sinogram.data, pg, directions, queries, pg.detector)
    none = np.zeros((0, 3))
    assert sample_chart(plane_sinogram.data, pg, none, none[:, :1], pg.detector).shape == (0,)
    rows = np.zeros((0, 5, 7, 3))
    assert sample_chart(line_sinogram.data, lg, none, rows, lg.detector).shape == (0, 5, 7)


@pytest.mark.parametrize("pad", [1, 1.5, 2, 4])
def test_spectra_axes_start_at_the_padded_first_frequency(pad):
    pg = PlaneGeometry(4, 4, 33, 4.8)
    lg = LineGeometry(4, 4, 15, 16, 4.8)
    for s in (PlaneSinogram(np.zeros(pg.shape), pg), LineSinogram(np.zeros(lg.shape), lg)):
        spec, axes, origins = _padded_spectra(s, pad)
        detector = s.geometry.detector
        assert len(axes) == len(origins) == len(detector)
        for n_pad, (first, step), x0, (n, origin, pitch) in zip(
            spec.shape[2:], axes, origins, detector
        ):
            assert n_pad == int(round(pad * n))
            assert step == 1.0 / (n_pad * pitch)
            assert first == -(n_pad // 2) * step
            assert x0 == origin - (n_pad - n) // 2 * pitch


@pytest.mark.parametrize("kind", ["plane", "line"])
def test_padded_spectra_convention_oracle(kind, request):
    # Along a detector axis of unit vector d the unit Gaussian at CENTER has
    # spectrum exp(-pi nu^2) exp(-2 pi i nu d . CENTER), and the detector
    # spectrum is the product over its axes: (n . CENTER) for planes,
    # (e1 . CENTER, e2 . CENTER) for lines.
    s = request.getfixturevalue(f"{kind}_sinogram")
    g = s.geometry
    spec, _, _ = _padded_spectra(s, g.spectral_pad)
    oracle = 1.0
    for a, ((n, _, step), d) in enumerate(zip(g.detector, g.detector_directions)):
        n_pad = int(round(g.spectral_pad * n))
        nu = (np.arange(n_pad) - n_pad // 2) / (n_pad * step)
        nu = nu.reshape(n_pad, *(1,) * (len(g.detector) - 1 - a))
        c = (d @ CENTER).reshape(g.n_theta, g.n_phi, *(1,) * len(g.detector))
        oracle = oracle * np.exp(-np.pi * nu**2) * np.exp(-2j * np.pi * nu * c)
    assert spec.shape == oracle.shape
    assert np.max(np.abs(spec - oracle)) <= SPECTRUM_ORACLE_TOL


def test_fourier_slice_plane_oracle(volume, plane_geometry):
    g = plane_geometry
    dtau = 1.0 / (g.n_t * g.dt)
    taus = (np.arange(g.n_t) - g.n_t // 2) * dtau
    nc = g.normals @ CENTER
    oracle = np.exp(-np.pi * taus[None, None, :] ** 2) * np.exp(
        -2j * np.pi * taus[None, None, :] * nc[:, :, None]
    )
    sliced = fourier_slice(_padded_spectrum(volume, 2 * volume.n), g)
    assert np.max(np.abs(sliced - oracle)) <= SLICE_ORACLE_TOL


def test_fourier_slice_reads_nodes_exactly_and_zero_off_the_lattice():
    # One frequency cell per offset-spectrum step, so the rays leave a small
    # spectrum: tau = 0 reads its centre node exactly (Keys' taps there are
    # (0, 1, 0, 0)), and a point outside [0, n - 1] on any axis reads 0.
    rng = np.random.default_rng(7)
    n = 8
    data = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    g = PlaneGeometry(6, 6, 33, 4.8)
    dtau = 1.0 / (g.n_t * g.dt)
    sliced = fourier_slice(Spectrum3D(data, dtau, 1.0, np.zeros(3)), g)
    idx = g.slice_frequencies() / dtau + n // 2
    outside = np.any((idx < 0.0) | (idx > n - 1), axis=-1)
    assert outside.any() and not outside.all()
    assert np.all(sliced[outside] == 0.0) and np.all(sliced[~outside] != 0.0)
    assert np.all(sliced[:, :, g.n_t // 2] == data[n // 2, n // 2, n // 2])


def test_fourier_slice_matches_line_spectra(volume, line_sinogram, line_geometry):
    # Cross-path agreement in relative L2, the projection-slice property.
    measured, *_ = _padded_spectra(line_sinogram, 1)
    sliced = fourier_slice(_padded_spectrum(volume, 4 * volume.n), line_geometry)
    rel = np.linalg.norm((measured - sliced).ravel()) / np.linalg.norm(sliced.ravel())
    assert rel <= SLICE_ORACLE_TOL


# --- norms, pairings, backprojection ----------------------------------------


def test_sinogram_norm_oracle(plane_sinogram):
    # || R gauss ||^2 = (int sin dtheta dphi) * int exp(-2 pi t^2) dt
    #                 = 2 pi / sqrt(2), independent of the bump's center.
    assert sinogram_norm(plane_sinogram) ** 2 == pytest.approx(
        2.0 * np.pi / np.sqrt(2.0), rel=MEASURE_ORACLE_TOL
    )


def test_sinogram_inner_validates_geometry(plane_sinogram, line_sinogram):
    with pytest.raises(GeometryMismatch):
        sinogram_inner(plane_sinogram, line_sinogram)
    other = PlaneSinogram(np.zeros((16, 16, 33)), PlaneGeometry(16, 16, 33, 4.8))
    with pytest.raises(GeometryMismatch):
        sinogram_inner(plane_sinogram, other)


def test_backproject_plane_is_adjoint(volume, plane_sinogram, plane_geometry):
    g = plane_geometry
    smooth = np.exp(-0.5 * (g.ts[None, None, :] / 2.0) ** 2) * (
        1.0 + 0.3 * np.sin(g.thetas)[:, None, None] * np.sin(g.phis)[None, :, None]
    )
    s = PlaneSinogram(smooth, g)
    lhs = sinogram_inner(plane_sinogram, s)
    bp = backproject_plane(s, 32, 0.3)
    rhs = float(0.3**3 * np.sum(volume.data * bp.data))
    assert abs(lhs - rhs) / abs(lhs) <= ADJOINT_TOL


@pytest.mark.parametrize(
    "n, spacing, geometry",
    [(33, 0.3, PlaneGeometry(16, 16, 65, 4.8)), (5, 0.9, PlaneGeometry(3, 4, 9, 1.5))],
    ids=["33_voxels", "five_voxels"],
)
def test_backproject_plane_is_the_transpose_of_radon_plane(n, spacing, geometry):
    rng = np.random.default_rng(29)
    grid = Volume(np.zeros((n, n, n)), spacing)
    pts = grid.coordinate_grid()
    # the cube's corners overrun the offset axis: the projector refuses them
    assert np.abs(pts.reshape(-1, 3) @ geometry.normals.reshape(-1, 3).T).max() > geometry.t_max
    in_reach = np.linalg.norm(pts, axis=-1) <= geometry.t_max
    f = Volume(rng.standard_normal(in_reach.shape) * in_reach, spacing)
    y = PlaneSinogram(rng.standard_normal(geometry.shape), geometry)
    bp = backproject_plane(y, n, spacing).data
    lhs = sinogram_inner(radon_plane(f, geometry), y)
    rhs = float(spacing**3 * np.sum(f.data * bp))
    assert abs(lhs - rhs) <= TRANSPOSE_TOL * abs(lhs)
    # the five-voxel grid has z planes past t_max, and they read exactly 0
    past = np.abs(grid.axis_coords(2)) > geometry.t_max
    assert past.any() == (n == 5)
    assert not bp[:, :, past].any()


def test_backproject_plane_bytes_do_not_depend_on_the_blas_thread_count():
    # backproject_plane is two matrix products per azimuth row, as radon_plane
    # is; its input is built in closed form, the plane transform of a Gaussian
    # bump, because radon_plane's own bytes depend on the thread count.
    digests = _digests_at_one_and_two_blas_threads(
        [
            "import hashlib",
            "import numpy as np",
            "from simrad.xform import PlaneGeometry, PlaneSinogram, backproject_plane",
            "g = PlaneGeometry(24, 24, 97, 4.8)",
            "t = g.normals @ np.array([0.6, -0.45, 0.3])",
            "s = PlaneSinogram(np.exp(-np.pi * (g.ts - t[:, :, None]) ** 2), g)",
            "print(hashlib.sha256(backproject_plane(s, 48, 0.2).data).hexdigest())",
        ]
    )
    assert digests[0] == digests[1]


def test_backproject_plane_peak_memory_at_demo_sizes():
    g = PlaneGeometry(24, 24, 97, 4.8)
    s = radon_plane(gaussian_phantom(48, 0.2, CENTER), g)
    tracemalloc.start()
    try:
        backproject_plane(s, 48, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BACKPROJECT_PEAK_MIB * 2**20


def test_backproject_plane_refuses_an_empty_grid(plane_sinogram):
    with pytest.raises(GeometryMismatch, match="N > 0"):
        backproject_plane(plane_sinogram, 0, 0.3)


def test_backproject_plane_rejects_line_data(line_sinogram):
    with pytest.raises(GeometryMismatch, match="filtered backprojection needs plane data"):
        backproject_plane(line_sinogram, 16, 0.3)
