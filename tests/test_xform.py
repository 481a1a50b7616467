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
import tracemalloc

import numpy as np
import pytest

import simrad.xform as xform
from simrad.errors import GeometryMismatch
from simrad.grid import Volume, gaussian_mixture_phantom, gaussian_phantom
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
    _active_voxels,
    _chart_stencil,
    _padded_spectrum,
    _padded_t_spectra,
    _padded_uv_spectra,
    backproject_plane,
    fourier_slice,
    line_integral,
    plane_integral,
    radon_plane,
    sample_line_images,
    sample_plane_profiles,
    sinogram_inner,
    sinogram_norm,
    xray,
)

# Projector accuracy at the small test scale (N=32, h=0.3, 16x16 directions);
# measured 5.7e-4 (planes) and 1.1e-3 (lines), dominated by the band-edge
# aliasing of the h=0.3 grid.  The acceptance suite pins the tighter N=64
# budgets.
RADON_ORACLE_TOL = 2e-3
XRAY_ORACLE_TOL = 4e-3
# Direct trilinear quadrature of a unit-width Gaussian at h=0.3 carries an
# O(h^2 f'') bias ~1.6e-2; it is the *independent cross-check*, not the
# production path, and only its self-consistency is held to 1e-6 elsewhere.
DIRECT_QUADRATURE_TOL = 3e-2
# Sinogram-norm and t-spectrum oracles inherit the direction-quadrature error
# of the 16x16 midpoint rule, measured ~1.6e-3.
MEASURE_ORACLE_TOL = 5e-3
SPECTRUM_ORACLE_TOL = 5e-3
# Spectrum interpolation on a pad-2 grid leaves ~9e-3 of phase error for the
# shifted bump (the verify harness uses pad 4 for its 1e-2 budget).
SLICE_ORACLE_TOL = 2e-2
# Forward splat and interpolating backprojection are adjoint only up to their
# separate discretizations; measured 4.4e-4.
ADJOINT_TOL = 2e-3
# Chart gluing bookkeeping is pure index arithmetic.
GLUING_TOL = 1e-12
# The projectors against the full-grid FFT reference below: the same linear
# operator applied in another order, so only rounding differs (measured
# ~2e-15 relative).
SPLAT_REFERENCE_TOL = 1e-12
# tracemalloc peak of one xray call at the benchmark's demo sizes (N=48,
# h=0.2, 24x24 directions, 48x48 detector); measured 13 MiB, where deconvolving
# the whole refined grid at once took 577 MiB.
XRAY_PEAK_MIB = 150

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
    s_combo = radon_plane(combo, plane_geometry)
    expected = (
        2.0 * radon_plane(volume, plane_geometry).data
        - 0.5 * radon_plane(v2, plane_geometry).data
    )
    assert np.max(np.abs(s_combo.data - expected)) <= 1e-10


def _reference_projection(v: Volume, axes) -> np.ndarray:
    """Projector as first written: splat every direction onto the whole refined
    grid with off-detector taps clipped into discard cells, divide by the
    kernel response with one FFT pass per detector axis, keep every
    ``SPLAT_REFINE``-th sample.  ``axes`` as in ``xform._project``.
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


def _edge_reaching_field(e1: np.ndarray) -> Volume:
    # A smooth bump of compact support, (1 - |x - c|^2 / R^2)^3 around c = e1
    # with R = 3.795, on an off-centre grid that puts one voxel at 4.79 * e1:
    # the active voxels reach 4.79 from the origin, just inside a reach of 4.8.
    far = 4.79 * e1
    v = Volume(np.zeros((16, 16, 16)), 0.6, far - 0.6 * (np.round((far - e1) / 0.6) + 7))
    q = np.sum((v.coordinate_grid() - e1) ** 2, axis=-1) / 3.795**2
    v.data = np.where(q < 1.0, 1.0 - np.minimum(q, 1.0), 0.0) ** 3
    return v


@pytest.mark.parametrize("case", ["centered", "edge_reaching"])
def test_projectors_match_full_grid_fft_reference(case, volume):
    if case == "centered":
        v, pg, lg = volume, PlaneGeometry(8, 6, 65, 4.8), LineGeometry(6, 8, 48, 40, 4.8)
    else:
        pg, lg = PlaneGeometry(8, 6, 33, 4.8), LineGeometry(6, 8, 32, 24, 4.8)
        # The last direction's first detector axis points at the field's
        # farthest voxel, which lies at refined position n_f + 0.4 on it
        # (n_f = 94 samples): its highest cubic tap lands at n_f + 2, the
        # farthest cell the splat guard has to hold for an in-reach field.  In
        # the last direction a tap past the guard leaves the accumulator
        # instead of landing in a neighbouring direction's guard cells.
        e1 = lg.frames[-1, -1, :, 0]
        v = _edge_reaching_field(e1)
        pts, _ = _active_voxels(v)
        assert lg.u_max - lg.du < np.sqrt(np.max(np.sum(pts * pts, axis=1))) <= lg.u_max
        n_f = SPLAT_REFINE * (lg.n_u - 1) + 1
        top_cell = np.max(np.floor((pts @ e1 - lg.us[0]) / (lg.du / SPLAT_REFINE)))
        assert top_cell == n_f  # taps at n_f - 1 .. n_f + 2
    frames = lg.frames.reshape(-1, 3, 3)
    cases = [
        (radon_plane(v, pg).data, [(pg.normals.reshape(-1, 3), -pg.t_max, pg.dt, pg.n_t)]),
        (
            xray(v, lg).data,
            [(frames[:, :, 0], lg.us[0], lg.du, lg.n_u), (frames[:, :, 1], lg.vs[0], lg.dv, lg.n_v)],
        ),
    ]
    for data, axes in cases:
        ref = _reference_projection(v, axes).reshape(data.shape)
        assert np.max(np.abs(data - ref)) <= SPLAT_REFERENCE_TOL * np.max(np.abs(ref))


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
    axis = (-g.t_max, g.dt)
    dirs = g.normals.reshape(-1, 3)
    data = plane_sinogram.data
    flat = data.reshape(-1, g.n_t)
    for k in (0, 37, 133, 255):
        vals = sample_plane_profiles(data, np.tile(dirs[k], (g.n_t, 1)), g.ts, *axis)
        assert np.max(np.abs(vals - flat[k])) <= GLUING_TOL
        anti = sample_plane_profiles(data, np.tile(-dirs[k], (g.n_t, 1)), -g.ts, *axis)
        assert np.max(np.abs(anti - flat[k])) <= GLUING_TOL


def test_line_sampler_reproduces_nodes_and_antipodes(line_sinogram, line_geometry):
    g = line_geometry
    origins = (g.us[0], g.du, g.vs[0], g.dv)
    for i, j in ((0, 3), (7, 9), (15, 15)):
        frame = g.frames[i, j]
        offsets = (
            g.us[:, None, None] * frame[:, 0][None, None, :]
            + g.vs[None, :, None] * frame[:, 1][None, None, :]
        )
        dirs = np.broadcast_to(frame[:, 2], offsets.shape)
        vals = sample_line_images(line_sinogram.data, g, dirs, offsets, *origins)
        assert np.max(np.abs(vals - line_sinogram.data[i, j])) <= GLUING_TOL
        anti = sample_line_images(line_sinogram.data, g, -dirs, offsets, *origins)
        assert np.max(np.abs(anti - line_sinogram.data[i, j])) <= GLUING_TOL


def test_plane_sampler_interpolates_between_offsets(plane_sinogram, plane_geometry):
    g = plane_geometry
    d = g.normals[4, 7]
    mid = 0.5 * (g.ts[30] + g.ts[31])
    val = sample_plane_profiles(plane_sinogram.data, d[None, :], np.array([mid]), -g.t_max, g.dt)
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
    # One multi-array fancy index per corner, first axis varying fastest.
    axes = [_masked_linear_taps(pos, n) for pos, n in zip(positions, data.shape[2:])]
    acc = None
    for corner in itertools.product(*reversed(axes)):
        corner = corner[::-1]
        weight = functools.reduce(np.multiply, (wk for _, wk in corner))
        term = weight * data[(ii, jj, *(k for k, _ in corner))]
        acc = term if acc is None else acc + term
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
    # Broadcast queries (one direction per output row, as the pi-hat actions
    # pass them) run in one chunk or, with a small chunk budget, in many.
    _check_samplers_against_masked(plane_sinogram, line_sinogram)
    monkeypatch.setattr(xform, "SPLAT_CHUNK_BYTES", 4096)
    _check_samplers_against_masked(plane_sinogram, line_sinogram)


def _check_samplers_against_masked(plane_sinogram, line_sinogram):
    rng = np.random.default_rng(11)
    dirs = rng.standard_normal((4000, 3))
    pg, lg = plane_sinogram.geometry, line_sinogram.geometry

    profiles = plane_sinogram.data + 1j * plane_sinogram.data[:, :, ::-1]
    args = (pg.n_theta, pg.n_phi)
    radial = rng.uniform(-1.5 * pg.t_max, 1.5 * pg.t_max, len(dirs))
    want = _masked_plane_profiles(profiles, *args, dirs, radial, -pg.t_max, pg.dt)
    got = sample_plane_profiles(profiles, dirs, radial, -pg.t_max, pg.dt)
    assert np.array_equal(got, want)
    assert np.max(np.abs(want[np.abs(radial) > pg.t_max + pg.dt])) == 0.0
    # a narrow query span: the sampler copies only the cells it can reach
    near = 0.2 * radial
    want = _masked_plane_profiles(profiles, *args, dirs, near, -pg.t_max, pg.dt)
    got = sample_plane_profiles(profiles, dirs, near, -pg.t_max, pg.dt)
    assert np.array_equal(got, want)
    row_dirs = dirs[:64, None, :]
    row_radial = rng.uniform(-1.5 * pg.t_max, 1.5 * pg.t_max, (64, pg.n_t))
    want = _masked_plane_profiles(profiles, *args, row_dirs, row_radial, -pg.t_max, pg.dt)
    got = sample_plane_profiles(profiles, row_dirs, row_radial, -pg.t_max, pg.dt)
    assert np.array_equal(got, want)

    images = line_sinogram.data * (1.0 - 0.5j)
    origins = (lg.us[0], lg.du, lg.vs[0], lg.dv)
    vectors = rng.uniform(-1.3 * lg.u_max, 1.3 * lg.u_max, (len(dirs), 3))
    want = _masked_line_images(images, lg, dirs, vectors, *origins)
    assert np.array_equal(sample_line_images(images, lg, dirs, vectors, *origins), want)
    vectors = rng.uniform(-1.3 * lg.u_max, 1.3 * lg.u_max, (8, 1, 24, 24, 3))
    row_dirs = dirs[:8, None, None, None, :]
    want = _masked_line_images(images, lg, row_dirs, vectors, *origins)
    assert np.array_equal(sample_line_images(images, lg, row_dirs, vectors, *origins), want)


def test_t_spectra_convention_oracle(plane_sinogram, plane_geometry):
    g = plane_geometry
    dtau = 1.0 / (g.n_t * g.dt)
    taus = (np.arange(g.n_t) - g.n_t // 2) * dtau
    nc = g.normals @ CENTER
    oracle = np.exp(-np.pi * taus[None, None, :] ** 2) * np.exp(
        -2j * np.pi * taus[None, None, :] * nc[:, :, None]
    )
    spec, _, _ = _padded_t_spectra(plane_sinogram, 1)
    assert np.max(np.abs(spec - oracle)) <= SPECTRUM_ORACLE_TOL


def test_fourier_slice_plane_oracle(volume, plane_geometry):
    g = plane_geometry
    dtau = 1.0 / (g.n_t * g.dt)
    taus = (np.arange(g.n_t) - g.n_t // 2) * dtau
    nc = g.normals @ CENTER
    oracle = np.exp(-np.pi * taus[None, None, :] ** 2) * np.exp(
        -2j * np.pi * taus[None, None, :] * nc[:, :, None]
    )
    sliced = fourier_slice(_padded_spectrum(volume, 2), g)
    assert np.max(np.abs(sliced - oracle)) <= SLICE_ORACLE_TOL


def test_fourier_slice_matches_line_spectra(volume, line_sinogram, line_geometry):
    # Cross-path agreement in relative L2, the projection-slice property.
    measured, *_ = _padded_uv_spectra(line_sinogram, 1)
    sliced = fourier_slice(_padded_spectrum(volume, 4), line_geometry)
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


def _whole_block_backprojection(s: PlaneSinogram, n: int, spacing: float) -> np.ndarray:
    # The loop before the slab walk: each direction's np.interp reads its
    # column of the whole (N^3, n_phi) block.
    g = s.geometry
    pts = Volume(np.zeros((n, n, n)), spacing).coordinate_grid().reshape(-1, 3)
    acc = np.zeros(pts.shape[0])
    for i in range(g.n_theta):
        block = pts @ g.normals[i].T
        for j in range(g.n_phi):
            acc += g.direction_weights[i, j] * np.interp(
                block[:, j], g.ts, s.data[i, j], left=0.0, right=0.0
            )
    return acc.reshape(n, n, n)


@pytest.mark.parametrize(
    "n, spacing, geometry, slab_voxels",
    [
        (33, 0.3, PlaneGeometry(16, 16, 65, 4.8), None),  # default budget, ragged last slab
        (16, 0.3, PlaneGeometry(8, 6, 33, 3.0), 37),  # 111 slabs, the last one partial
        (5, 0.9, PlaneGeometry(3, 4, 9, 1.5), 0),  # a budget below one voxel
    ],
    ids=["odd_n", "many_slabs", "one_voxel_slabs"],
)
def test_backproject_plane_matches_whole_block_loop(n, spacing, geometry, slab_voxels, monkeypatch):
    if slab_voxels is not None:
        monkeypatch.setattr(xform, "BACKPROJECT_SLAB_BYTES", 8 * geometry.n_phi * slab_voxels + 3)
    voxels = max(1, xform.BACKPROJECT_SLAB_BYTES // (8 * geometry.n_phi))
    assert voxels == 1 or n**3 % voxels != 0
    # Random samples with nonzero end values, on an offset axis that the
    # cube's corners overrun: those voxels must read the zero left/right.
    s = PlaneSinogram(np.random.default_rng(n).standard_normal(geometry.shape), geometry)
    pts = Volume(np.zeros((n, n, n)), spacing).coordinate_grid().reshape(-1, 3)
    assert np.abs(pts @ geometry.normals.reshape(-1, 3).T).max() > geometry.t_max
    bp = backproject_plane(s, n, spacing)
    assert bp.data.tobytes() == _whole_block_backprojection(s, n, spacing).tobytes()


def test_backproject_plane_rejects_line_data(line_sinogram):
    with pytest.raises(GeometryMismatch, match="filtered backprojection needs plane data"):
        backproject_plane(line_sinogram, 16, 0.3)
