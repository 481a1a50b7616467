"""Forward projectors, chart-aware samplers, spectra, and backprojection.

Accuracy assertions use a Gaussian bump, whose plane and line transforms
have closed forms: integrating ``exp(-pi |x - c|^2)`` over the plane
``n . x = t`` gives ``exp(-pi (t - n . c)^2)``, and along a line with frame
``(e1, e2, n)`` through ``u e1 + v e2`` gives
``exp(-pi ((u - e1 . c)^2 + (v - e2 . c)^2))``.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

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
    _chart_stencil,
    _padded_t_spectra,
    _padded_uv_spectra,
    backproject_plane,
    fourier_slice_line,
    fourier_slice_plane,
    line_integral,
    plane_integral,
    radon_plane,
    sample_line_images,
    sample_line_sinogram,
    sample_plane_profiles,
    sample_plane_sinogram,
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


def _cube_filling_field() -> Volume:
    # A broad off-center bump that is still 1e-2 of its peak in the corner
    # nearest to it and carries no support radius, so the reach guard admits
    # it at u_max = t_max = half_extent = 4.8 while its corners lie up to 8.3
    # from the detector center: taps run off the ends of the detector axes.
    v = Volume(np.zeros((16, 16, 16)), 0.6)
    x = v.coordinate_grid()
    v.data = np.exp(-np.pi * np.sum((x - [1.5, -1.0, 0.5]) ** 2, axis=-1) / 5.0**2)
    return v


@pytest.mark.parametrize("case", ["centered", "cube_filling"])
def test_projectors_match_full_grid_fft_reference(case, volume):
    if case == "centered":
        v, pg, lg = volume, PlaneGeometry(8, 6, 65, 4.8), LineGeometry(6, 8, 48, 40, 4.8)
    else:
        v, pg, lg = _cube_filling_field(), PlaneGeometry(8, 6, 33, 4.8), LineGeometry(6, 8, 32, 24, 4.8)
        corner = v.coordinate_grid()[-1, 0, -1]
        assert v.support_radius is None and v.data[-1, 0, -1] > 1e-2
        assert np.linalg.norm(corner) > lg.u_max + 2.0 * lg.du
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
    dirs = g.normals.reshape(-1, 3)
    flat = plane_sinogram.data.reshape(-1, g.n_t)
    for k in (0, 37, 133, 255):
        vals = sample_plane_sinogram(plane_sinogram, np.tile(dirs[k], (g.n_t, 1)), g.ts)
        assert np.max(np.abs(vals - flat[k])) <= GLUING_TOL
        anti = sample_plane_sinogram(plane_sinogram, np.tile(-dirs[k], (g.n_t, 1)), -g.ts)
        assert np.max(np.abs(anti - flat[k])) <= GLUING_TOL


def test_line_sampler_reproduces_nodes_and_antipodes(line_sinogram, line_geometry):
    g = line_geometry
    for i, j in ((0, 3), (7, 9), (15, 15)):
        frame = g.frames[i, j]
        offsets = (
            g.us[:, None, None] * frame[:, 0][None, None, :]
            + g.vs[None, :, None] * frame[:, 1][None, None, :]
        )
        dirs = np.broadcast_to(frame[:, 2], offsets.shape)
        vals = sample_line_sinogram(line_sinogram, dirs, offsets)
        assert np.max(np.abs(vals - line_sinogram.data[i, j])) <= GLUING_TOL
        anti = sample_line_sinogram(line_sinogram, -dirs, offsets)
        assert np.max(np.abs(anti - line_sinogram.data[i, j])) <= GLUING_TOL


def test_plane_sampler_interpolates_between_offsets(plane_sinogram, plane_geometry):
    g = plane_geometry
    d = g.normals[4, 7]
    mid = 0.5 * (g.ts[30] + g.ts[31])
    val = sample_plane_sinogram(plane_sinogram, d[None, :], np.array([mid]))
    expected = 0.5 * (plane_sinogram.data[4, 7, 30] + plane_sinogram.data[4, 7, 31])
    assert abs(float(val[0]) - expected) <= GLUING_TOL


# --- spectra and the projection-slice property ------------------------------


# --- the gathered multilinear lookup against the two interpolators it replaced


def _parent_interp_profiles(profiles, ii, jj, pos):
    n = profiles.shape[-1]
    k0 = np.floor(pos).astype(np.int64)
    w = pos - k0
    k0c = np.clip(k0, 0, n - 1)
    k1c = np.clip(k0 + 1, 0, n - 1)
    v0 = np.where((k0 >= 0) & (k0 < n), profiles[ii, jj, k0c], 0.0)
    v1 = np.where((k0 + 1 >= 0) & (k0 + 1 < n), profiles[ii, jj, k1c], 0.0)
    return v0 * (1.0 - w) + v1 * w


def _parent_interp_detector(images, ii, jj, pu, pv):
    n_u, n_v = images.shape[-2], images.shape[-1]
    iu = np.floor(pu).astype(np.int64)
    iv = np.floor(pv).astype(np.int64)
    wu, wv = pu - iu, pv - iv
    acc = np.zeros(pu.shape, dtype=images.dtype)
    for su, sv, w in (
        (0, 0, (1 - wu) * (1 - wv)),
        (1, 0, wu * (1 - wv)),
        (0, 1, (1 - wu) * wv),
        (1, 1, wu * wv),
    ):
        ku, kv = iu + su, iv + sv
        ok = (ku >= 0) & (ku < n_u) & (kv >= 0) & (kv < n_v)
        vals = np.where(ok, images[ii, jj, np.clip(ku, 0, n_u - 1), np.clip(kv, 0, n_v - 1)], 0.0)
        acc = acc + w * vals
    return acc


def test_interp_nodes_matches_parent_interpolators(plane_sinogram, line_sinogram):
    # Complex data, and queries that run past both ends of the offset axis
    # and off every side of the detector, so the zero boundary is exercised.
    rng = np.random.default_rng(11)
    dirs = rng.standard_normal((4000, 3))
    pg, lg = plane_sinogram.geometry, line_sinogram.geometry

    profiles = plane_sinogram.data + 1j * plane_sinogram.data[:, :, ::-1]
    radial = rng.uniform(-1.5 * pg.t_max, 1.5 * pg.t_max, len(dirs))
    got = sample_plane_profiles(profiles, pg.n_theta, pg.n_phi, dirs, radial, -pg.t_max, pg.dt)
    want = 0.0
    for ii, jj, sign, w in _chart_stencil(dirs, pg.n_theta, pg.n_phi):
        pos = (sign * radial + pg.t_max) / pg.dt
        want = want + w * _parent_interp_profiles(profiles, ii, jj, pos)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.max(np.abs(want[np.abs(radial) > pg.t_max + pg.dt])) == 0.0

    images = line_sinogram.data * (1.0 - 0.5j)
    vectors = rng.uniform(-1.3 * lg.u_max, 1.3 * lg.u_max, (len(dirs), 3))
    got = sample_line_images(images, lg, dirs, vectors, lg.us[0], lg.du, lg.vs[0], lg.dv)
    want = 0.0
    for ii, jj, _, w in _chart_stencil(dirs, lg.n_theta, lg.n_phi):
        frame = lg.frames[ii, jj]
        pu = (np.sum(vectors * frame[..., 0], axis=-1) - lg.us[0]) / lg.du
        pv = (np.sum(vectors * frame[..., 1], axis=-1) - lg.vs[0]) / lg.dv
        want = want + w * _parent_interp_detector(images, ii, jj, pu, pv)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


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
    sliced = fourier_slice_plane(volume, g, pad_factor=2)
    assert np.max(np.abs(sliced - oracle)) <= SLICE_ORACLE_TOL


def test_fourier_slice_matches_line_spectra(volume, line_sinogram, line_geometry):
    # Cross-path agreement in relative L2, the projection-slice property.
    measured, *_ = _padded_uv_spectra(line_sinogram, 1)
    sliced = fourier_slice_line(volume, line_geometry, pad_factor=4)
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
