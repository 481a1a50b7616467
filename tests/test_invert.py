"""Reconstruction routes and the label-space group action they rely on."""

from __future__ import annotations

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammainc

import simrad.invert as invert
from simrad.errors import InsufficientCoverage, LatticeTooCoarse, NotAdmissible
from simrad.filters import MultiplierSpec, apply_multiplier
from simrad.grid import (
    Spectrum3D,
    Volume,
    apply_pi,
    gaussian_mixture_phantom,
    gaussian_phantom,
    idft3,
    l2_norm,
    log_wavelet,
)
from simrad.group import (
    CharacterSet,
    GroupElement,
    canonicalize_directions,
    compose,
    icosahedral_rotations,
    random_rotation,
)
from simrad.invert import (
    COVERAGE_TOL,
    FRAME_MAX_ITER,
    FRAME_RESIDUAL_TOL,
    LINE_CORRELATION_PAD,
    PLANE_CORRELATION_PAD,
    SPLAT_WEIGHT_FLOOR,
    GroupLattice,
    _LatticeFrame,
    _default_band_limit,
    _dual_frame_solve,
    _line_coefficients,
    _padded_spectra,
    _plane_coefficients,
    _splat_coverage,
    apply_pi_hat,
    apply_pi_hat_line,
    apply_pi_hat_plane,
    invert_direct_fourier,
    invert_fbp_plane,
    invert_wavelet,
)
from simrad.verify import VerifyConfig, run_all
from simrad.xform import (
    LineGeometry,
    PlaneGeometry,
    PlaneSinogram,
    radon_plane,
    sample_chart,
    sinogram_inner,
    sinogram_norm,
    xray,
)

# Acting with the identity samples every label at its own grid node, which the
# chart-aware samplers reproduce exactly.
IDENTITY_TOL = 1e-12
# Pure dilation against the closed-form dilated Gaussian profile; the residual
# is offset-axis interpolation of exp(-pi t^2), measured 9.5e-3 at dt = 0.15
# (planes) and 2.1e-2 on the half-cell-offset detector grid (lines).
DILATION_PLANE_TOL = 2e-2
DILATION_LINE_TOL = 4e-2
# Norm preservation under a mixed group element costs one resampling pass;
# measured deviations 7.6e-3 (plane) and 2.0e-2 (line) on 16x16 directions.
NORM_PRESERVE_PLANE_TOL = 2e-2
NORM_PRESERVE_LINE_TOL = 4e-2
# Acting twice versus acting with the composed element costs two resampling
# passes against one; measured 1.7e-2 (plane) and 4.2e-2 (line).
COMPOSITION_PLANE_TOL = 4e-2
COMPOSITION_LINE_TOL = 8e-2
# Forward transform of the moved volume against the character times the moved
# sinogram.  The trilinear volume mover dominates for the sharp test bump
# (measured 5.9e-2 plane, 6.6e-2 line); the verification harness runs the
# same identity on smoother fields at a tighter tolerance.
INTERTWINE_PLANE_TOL = 1.2e-1
INTERTWINE_LINE_TOL = 1.3e-1
# Filtered backprojection of a unit Gaussian, 32 directions per axis;
# measured 8.0e-3.
FBP_TOL = 3e-2
# Direct Fourier regridding on the same data; measured 5.0e-3 (plane) and
# 5.1e-3 (line).
DF_TOL = 2e-2
# Both default-band runs covered >= 0.9997 of in-band frequency voxels.
DF_COVERED_MIN = 0.995
# A band-limited run must reproduce the analytic spectral tail of the unit
# Gaussian; measured agreement 1.5e-4 (band 0.5) and 1.6e-3 (band 1.0).
BAND_TAIL_TOL = 1e-2
# Calderon constant of the Laplacian-of-Gaussian against its closed form
# 8 pi^3 scale^2; measured 2e-4 relative on the h = 0.3 grid.
CALDERON_REL_TOL = 1e-3
# Dual-frame synthesis on the coarse reference lattice; measured 0.146
# (plane) and 0.171 (line).
WAVELET_ERR_TOL = 3.5e-1
# The radial LoG solved on one rotation against the same solve on all 12:
# the atoms of different rotations differ by the cubic interpolation of the
# wavelet spectrum.  Measured 4.5e-4 relative on the reference lattice; the
# bound leaves a margin of about 4.
ONE_ROTATION_REL_TOL = 2e-3
# The synthesis amplitude is the sharp check that coefficient and measure
# normalizations agree between the FFT path and the label-space inner
# product; measured reconstruction/phantom norm ratios 0.98 and 0.92.
WAVELET_NORM_RATIO = (0.6, 1.4)
# Synthesis atoms against the closed-form dilates sqrt(a) * log_wavelet(a) at
# the interior lattice scales; measured 1.2e-3 at a = 1.45 and a = 2.64.
# Trilinear resampling of the wavelet (apply_pi) misses them by 17-18%.  The
# moved copies of an off-center Gaussian of width 1 measure 1.8e-4 to 2.0e-4.
ATOM_REL_TOL = 1e-2
# Synthesis is the adjoint of analysis up to float64 roundoff.
ADJOINT_REL_TOL = 1e-10
# FFT correlation path versus the direct inner product against the group-
# translated template; measured <= 9.6e-3 (plane) and <= 5.3e-2 (line, where
# the half-cell detector grid flattens the correlation peak).
COEF_MATCH_PLANE_TOL = 2e-2
COEF_MATCH_LINE_TOL = 8e-2
# Relative comparisons of small coefficients bottom out at this floor.
COEF_FLOOR = 0.1
# The coefficient paths against the per-node resampling they replace: the
# same interpolation weights, summed in another order (measured <= 5e-15).
COEF_REFERENCE_TOL = 1e-12
# tracemalloc peak of one plane coefficient call on the wavelet benchmark's
# finest lattice (ladder level 2); measured 57 MiB, 65 MiB for the per-node
# resampling it replaced.
PLANE_COEF_PEAK_MIB = 80
# tracemalloc peak of line direct Fourier inversion at the demo sizes (N=48,
# h=0.2, 24x24 directions, 48x48 detector); measured 23 MiB, 129 MiB when the
# spectra of every chart direction were built and windowed.
LINE_DF_PEAK_MIB = 40
# tracemalloc peak of the lattice atoms' build at the wavelet benchmark's
# finest lattice (ladder level 2) with one rotation; measured 22.2 MiB, as
# much as when every point of each scale's box was read.
LATTICE_FRAME_PEAK_MIB = 32

CENTER = np.array([0.4, -0.3, 0.2])
PLANE16 = PlaneGeometry(16, 16, 65, 4.8)
LINE16 = LineGeometry(16, 16, 48, 48, 4.8)
PLANE_FULL = PlaneGeometry(32, 32, 129, 6.0)
LINE_FULL = LineGeometry(32, 32, 64, 64, 4.8)

_rng = np.random.default_rng(20240817)
G_MIXED = GroupElement(np.array([0.3, -0.2, 0.1]), random_rotation(_rng), 1.2)
G_SECOND = GroupElement(np.array([-0.1, 0.25, 0.15]), random_rotation(_rng), 0.85)


@pytest.fixture(scope="module")
def volume() -> Volume:
    return gaussian_phantom(32, 0.3, center=CENTER)


@pytest.fixture(scope="module")
def psi() -> Volume:
    return log_wavelet(32, 0.3, 1.0)


@pytest.fixture(scope="module")
def plane_sino16(volume):
    return radon_plane(volume, PLANE16)


@pytest.fixture(scope="module")
def line_sino16(volume):
    return xray(volume, LINE16)


@pytest.fixture(scope="module")
def centered_plane16():
    return radon_plane(gaussian_phantom(32, 0.3), PLANE16)


@pytest.fixture(scope="module")
def centered_line16():
    return xray(gaussian_phantom(32, 0.3), LINE16)


@pytest.fixture(scope="module")
def plane_sino_full(volume):
    return radon_plane(volume, PLANE_FULL)


@pytest.fixture(scope="module")
def line_sino_full(volume):
    return xray(volume, LINE_FULL)


@pytest.fixture(scope="module")
def plane_template_full(psi):
    return apply_multiplier(radon_plane(psi, PLANE_FULL), MultiplierSpec(2.0))


@pytest.fixture(scope="module")
def reference_lattice() -> GroupLattice:
    return GroupLattice.build(0.9, 4, 0.8, 4.8, 4)


@pytest.fixture(scope="module")
def wavelet_plane(plane_sino_full, psi, reference_lattice):
    with warnings.catch_warnings():
        warnings.simplefilter("error", LatticeTooCoarse)
        return invert_wavelet(plane_sino_full, psi, reference_lattice)


def _rel_volume_error(rec: Volume, ref: Volume) -> float:
    return l2_norm(Volume(rec.data - ref.data, ref.spacing, ref.origin)) / l2_norm(ref)


# ---------------------------------------------------------------------------
# Label-space action
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["plane_sino16", "line_sino16"])
def test_pi_hat_identity_is_exact(name, request):
    s = request.getfixturevalue(name)
    out = apply_pi_hat(GroupElement.identity(), s)
    assert type(out) is type(s)
    assert np.max(np.abs(out.data - s.data)) <= IDENTITY_TOL


def test_pi_hat_dilation_closed_form_plane(centered_plane16):
    # For the centered unit Gaussian the sinogram is exp(-pi t^2) at every
    # direction, so the dilated image is exp(-pi (t/a)^2) / sqrt(a).
    a = 1.25
    out = apply_pi_hat_plane(GroupElement(np.zeros(3), np.eye(3), a), centered_plane16)
    oracle = np.exp(-np.pi * (PLANE16.ts / a) ** 2) / np.sqrt(a)
    assert np.max(np.abs(out.data - oracle[None, None, :])) <= DILATION_PLANE_TOL


def test_pi_hat_dilation_closed_form_line(centered_line16):
    # Line images of the centered unit Gaussian are exp(-pi |w|^2); the
    # dilated image is exp(-pi |w/a|^2) / a.
    a = 1.25
    out = apply_pi_hat_line(GroupElement(np.zeros(3), np.eye(3), a), centered_line16)
    oracle = (
        np.exp(-np.pi * ((LINE16.us[:, None] / a) ** 2 + (LINE16.vs[None, :] / a) ** 2))
        / a
    )
    assert np.max(np.abs(out.data - oracle[None, None])) <= DILATION_LINE_TOL


@pytest.mark.parametrize(
    "name, tol",
    [
        ("plane_sino16", NORM_PRESERVE_PLANE_TOL),
        ("line_sino16", NORM_PRESERVE_LINE_TOL),
    ],
)
def test_pi_hat_preserves_norm(name, tol, request):
    s = request.getfixturevalue(name)
    moved = apply_pi_hat(G_MIXED, s)
    assert abs(sinogram_norm(moved) / sinogram_norm(s) - 1.0) <= tol


@pytest.mark.parametrize(
    "name, tol",
    [
        ("plane_sino16", COMPOSITION_PLANE_TOL),
        ("line_sino16", COMPOSITION_LINE_TOL),
    ],
)
def test_pi_hat_is_a_homomorphism(name, tol, request):
    s = request.getfixturevalue(name)
    twice = apply_pi_hat(G_MIXED, apply_pi_hat(G_SECOND, s))
    once = apply_pi_hat(compose(G_MIXED, G_SECOND), s)
    rel = np.linalg.norm(twice.data - once.data) / np.linalg.norm(s.data)
    assert rel <= tol


@pytest.mark.parametrize(
    "geometry, forward, chars, tol",
    [
        (PLANE16, radon_plane, CharacterSet.plane(), INTERTWINE_PLANE_TOL),
        (LINE16, xray, CharacterSet.line(), INTERTWINE_LINE_TOL),
    ],
    ids=["plane", "line"],
)
def test_pi_hat_intertwines_with_volume_action(geometry, forward, chars, tol):
    bump = gaussian_phantom(32, 0.3, center=CENTER, scale=0.7)
    ref = forward(bump, geometry)
    lhs = forward(apply_pi(G_MIXED, bump), geometry)
    rhs = apply_pi_hat(G_MIXED, ref)
    diff = type(ref)(lhs.data - chars.chi(G_MIXED) * rhs.data, geometry)
    assert sinogram_norm(diff) / sinogram_norm(ref) <= tol


# ---------------------------------------------------------------------------
# Filtered backprojection and direct Fourier regridding
# ---------------------------------------------------------------------------


def test_fbp_reconstructs_gaussian(plane_sino_full, volume):
    rec = invert_fbp_plane(plane_sino_full, 32, 0.3)
    assert rec.data.shape == (32, 32, 32)
    assert rec.spacing == volume.spacing
    assert np.allclose(rec.origin, volume.origin)
    assert _rel_volume_error(rec, volume) <= FBP_TOL


def test_direct_fourier_plane(plane_sino_full, volume):
    rec, cov = invert_direct_fourier(plane_sino_full, 32, 0.3)
    assert _rel_volume_error(rec, volume) <= DF_TOL
    assert cov.covered_fraction >= DF_COVERED_MIN
    assert cov.n_samples == 32 * 32 * 129
    # default band: two frequency cells per unit of direction-grid spacing
    freq_spacing = 1.0 / (32 * 0.3)
    assert cov.band_limit == pytest.approx(2.0 * freq_spacing / (np.pi / 32))


def test_direct_fourier_line(line_sino_full, volume):
    rec, cov = invert_direct_fourier(line_sino_full, 32, 0.3)
    assert _rel_volume_error(rec, volume) <= DF_TOL
    assert cov.covered_fraction >= DF_COVERED_MIN
    assert cov.n_samples == 32 * 32 * 64 * 64


@pytest.mark.parametrize("band", [0.5, 1.0])
def test_direct_fourier_band_limit_truncates_spectrum(band, plane_sino_full, volume):
    # Cutting the unit Gaussian's spectrum at radius b removes relative energy
    # 1 - P(3/2, 2 pi b^2) (regularized lower incomplete gamma of the radial
    # power integral), so the reconstruction error must equal its square root.
    rec, cov = invert_direct_fourier(plane_sino_full, 32, 0.3, band_limit=band)
    assert cov.band_limit == band
    tail = np.sqrt(1.0 - gammainc(1.5, 2.0 * np.pi * band**2))
    assert _rel_volume_error(rec, volume) == pytest.approx(tail, abs=BAND_TAIL_TOL)


def test_direct_fourier_insufficient_coverage(volume):
    sparse = radon_plane(volume, PlaneGeometry(6, 6, 65, 4.8))
    with pytest.raises(InsufficientCoverage):
        invert_direct_fourier(sparse, 32, 0.3, band_limit=1.5)


@pytest.mark.parametrize("band", [-1.0, 0.0, np.nan, np.inf])
def test_direct_fourier_refuses_a_band_limit_that_is_not_positive_and_finite(band, monkeypatch):
    # Refused before any work: the coverage splat is never reached.
    def splat(*args):
        raise AssertionError("the coverage splat ran")

    monkeypatch.setattr(invert, "_splat_coverage", splat)
    g = PlaneGeometry(8, 8, 33, 4.8)
    with pytest.raises(ValueError, match="band_limit must be positive and finite"):
        invert_direct_fourier(PlaneSinogram(np.zeros(g.shape), g), 8, 0.3, band_limit=band)


@pytest.mark.parametrize(
    "n, spacing, message",
    [
        (0, 0.3, "n must be a positive integer"),
        (-8, 0.3, "n must be a positive integer"),
        (8.0, 0.3, "n must be a positive integer"),
        (8, 0.0, "spacing must be positive and finite"),
        (8, -0.3, "spacing must be positive and finite"),
        (8, np.inf, "spacing must be positive and finite"),
        (8, np.nan, "spacing must be positive and finite"),
    ],
)
def test_inversions_refuse_a_grid_that_is_not_positive(n, spacing, message, monkeypatch):
    # Refused before any work: neither the filter nor the coverage splat runs.
    def work(*args):
        raise AssertionError("an inversion started work")

    monkeypatch.setattr(invert, "apply_multiplier", work)
    monkeypatch.setattr(invert, "_splat_coverage", work)
    g = PlaneGeometry(8, 8, 33, 4.8)
    s = PlaneSinogram(np.zeros(g.shape), g)
    for route in (invert_fbp_plane, invert_direct_fourier):
        with pytest.raises(ValueError, match=message):
            route(s, n, spacing)


def test_direct_fourier_insufficient_coverage_near_the_tolerance():
    # Coverage well above one half but short of 1 - COVERAGE_TOL: only the
    # tolerance itself decides that the route refuses.
    g = PlaneGeometry(8, 8, 33, 6.0)
    n, spacing = 24, 0.3
    freq_spacing = 1.0 / (n * spacing)
    band = 1.3 * _default_band_limit(g.dtheta, g.dphi, freq_spacing)
    axis = (np.arange(n) - n // 2) * freq_spacing
    W = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    in_band = np.linalg.norm(W, axis=-1) <= band
    hit = _splat_coverage(g, freq_spacing, n, band).reshape(-1) > SPLAT_WEIGHT_FLOOR
    covered = np.count_nonzero(in_band & hit) / np.count_nonzero(in_band)
    assert 0.9 < covered < 1.0 - COVERAGE_TOL
    with pytest.raises(InsufficientCoverage):
        invert_direct_fourier(PlaneSinogram(np.zeros(g.shape), g), n, spacing, band_limit=band)


def _full_chart_direct_fourier(s, n, spacing, band_limit):
    # The direct Fourier route as it ran on the spectra of every chart node,
    # read through the sampler's default (whole-chart) node set.
    geom = s.geometry
    freq_spacing = 1.0 / (n * spacing)
    axis = (np.arange(n) - n // 2) * freq_spacing
    W = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    mag = np.linalg.norm(W, axis=-1)
    in_band = mag <= band_limit
    hit = _splat_coverage(geom, freq_spacing, n, band_limit).reshape(-1) > SPLAT_WEIGHT_FLOOR
    covered = float(np.count_nonzero(in_band & hit)) / float(np.count_nonzero(in_band))
    spec, axes, _ = _padded_spectra(s, geom.spectral_pad)
    assert spec.shape[:2] == (geom.n_theta, geom.n_phi)
    grid = np.zeros(n**3, dtype=complex)
    dirs, queries = geom.slice_query(W[in_band], mag[in_band])
    grid[in_band] = sample_chart(spec, geom, dirs, queries, axes)
    origin = -(n // 2) * spacing * np.ones(3)
    recon = idft3(Spectrum3D(grid.reshape(n, n, n), freq_spacing, spacing, origin))
    return recon, covered, W[in_band], dirs


def test_direct_fourier_matches_full_chart_gather(volume, monkeypatch):
    # The route transforms and windows only the chart nodes its stencil
    # reads; the volume and the covered fraction must be those of the gather
    # from every node's spectrum, bit for bit.  The line queries take both
    # branches of slice_query (ref = x near the z axis) and wrap across both
    # azimuth edges at the wider band; line queries lie at polar angles within
    # [64, 116] degrees, so the pole wraps are reached by the plane route,
    # which takes the same path.
    line = xray(volume, LineGeometry(9, 7, 32, 30, 4.8))
    plane = radon_plane(volume, PlaneGeometry(9, 7, 33, 4.8))
    n, spacing = 24, 0.4
    default = _default_band_limit(np.pi / 9, np.pi / 7, 1.0 / (n * spacing))
    held = []
    spectra = invert._padded_spectra

    def spy(s, pad, nodes=None):
        held.append(nodes.size)
        return spectra(s, pad, nodes)

    monkeypatch.setattr(invert, "_padded_spectra", spy)
    for s, band in ((line, None), (line, 1.6 * default), (plane, None)):
        geom = s.geometry
        rec, cov = invert_direct_fourier(s, n, spacing, band_limit=band)
        assert (band is None) == (cov.band_limit == default)
        want, covered, W, dirs = _full_chart_direct_fourier(s, n, spacing, cov.band_limit)
        assert rec.data.tobytes() == want.data.tobytes()
        assert float(cov.covered_fraction).hex() == covered.hex()
        theta, phi, _ = canonicalize_directions(dirs)
        ci, cj = theta / geom.dtheta - 0.5, phi / geom.dphi - 0.5
        if geom.kind == "line":
            assert np.any(np.abs(W[:, 2]) >= 0.9 * np.linalg.norm(W, axis=-1))
            assert np.any(ci < 0.0)
            assert band is None or np.any(ci > geom.n_theta - 1)
            assert 0 < held.pop() < geom.n_theta * geom.n_phi
        else:
            assert np.any((cj < 0.0) | (cj > geom.n_phi - 1))


def _masked_coverage(geometry, freq_spacing, n):
    # Per row, eight masked corners, each scattered by a full-grid bincount.
    wsum = np.zeros(n * n * n)
    for i in range(geometry.n_theta):
        pos = geometry.slice_frequencies(slice(i, i + 1)).reshape(-1, 3) / freq_spacing + n // 2
        base = np.floor(pos).astype(np.int64)
        frac = pos - base
        for corner in range(8):
            off = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
            idx = base + off
            w = np.prod(np.where(off == 1, frac, 1.0 - frac), axis=1)
            ok = np.all((idx >= 0) & (idx < n), axis=1)
            flat = (idx[ok, 0] * n + idx[ok, 1]) * n + idx[ok, 2]
            wsum += np.bincount(flat, weights=w[ok], minlength=n**3)
    return wsum.reshape(n, n, n)


@pytest.mark.parametrize(
    "geometry, n, spacing",
    [
        (LineGeometry(24, 24, 48, 48, 4.8), 48, 0.2),  # the demo line data
        (PlaneGeometry(24, 24, 97, 4.8), 48, 0.2),  # the demo plane data
        (LineGeometry(8, 8, 40, 40, 4.8), 16, 0.6),  # samples far off the grid
    ],
    ids=["demo_line", "demo_plane", "off_grid"],
)
def test_coverage_splat_matches_masked_bincount(geometry, n, spacing):
    # The guarded splat must give the masked one's weights bit for bit, so
    # the covered voxels, and with them the reconstructions, cannot move:
    # on the whole grid with no band limit, and inside the band with the
    # route's default one, where the points that cannot reach it are left out.
    freq_spacing = 1.0 / (n * spacing)
    pos = geometry.slice_frequencies().reshape(-1, 3) / freq_spacing + n // 2
    if n == 16:
        # off both ends of every axis, so the floor clamp and the guard act
        assert np.all(pos.min(axis=0) < -3.0) and np.all(pos.max(axis=0) > n + 3.0)
    want = _masked_coverage(geometry, freq_spacing, n)
    got = _splat_coverage(geometry, freq_spacing, n, np.inf)
    assert got.shape == (n, n, n)
    assert got.tobytes() == want.tobytes()
    band = _default_band_limit(geometry.dtheta, geometry.dphi, freq_spacing)
    axis = (np.arange(n) - n // 2) * freq_spacing
    in_band = np.sqrt(axis[:, None, None] ** 2 + axis[:, None] ** 2 + axis**2) <= band
    banded = _splat_coverage(geometry, freq_spacing, n, band)
    assert 0 < np.count_nonzero(in_band) < n**3
    assert banded[in_band].tobytes() == want[in_band].tobytes()
    assert not np.array_equal(banded, want)


# ---------------------------------------------------------------------------
# Similitude lattice
# ---------------------------------------------------------------------------


def test_lattice_build_validation():
    with pytest.raises(ValueError):
        GroupLattice.build(0.9, 1, 0.8, 4.8, 4)
    with pytest.raises(ValueError):
        GroupLattice.build(0.9, 4, 0.8, 4.8, 1)
    with pytest.raises(ValueError):
        GroupLattice.build(0.9, 4, 0.0, 4.8, 4)
    with pytest.raises(ValueError):
        GroupLattice.build(0.9, 4, 4.8, 0.8, 4)


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 3, 0.8, 2.0, 2),
        (-0.9, 3, 0.8, 2.0, 2),
        (np.inf, 3, 0.8, 2.0, 2),
        (np.nan, 3, 0.8, 2.0, 2),
        (0.9, 3, 0.8, np.inf, 2),
        (0.9, 3, np.nan, 2.0, 2),
        (0.9, 3, 0.8, 2.0, 2, []),
    ],
    ids=[
        "zero_extent",
        "negative_extent",
        "infinite_extent",
        "nan_extent",
        "infinite_scale_max",
        "nan_scale_min",
        "no_rotations",
    ],
)
def test_lattice_build_refuses_a_degenerate_lattice_before_the_solve(
    monkeypatch, plane_sino16, psi, args
):
    # Past the build, each of these lattices would reach the solve and end in
    # an all-zero volume with a nan energy ratio (zero extent, no rotations)
    # or in a non-finite volume; the build refuses them first.
    solves = []

    def spy(*solve_args):
        solves.append(solve_args)
        return _dual_frame_solve(*solve_args)

    monkeypatch.setattr(invert, "_dual_frame_solve", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError):
            invert_wavelet(plane_sino16, psi, GroupLattice.build(*args))
    assert solves == []


def test_lattice_nodes_and_weights(reference_lattice):
    lat = reference_lattice
    assert lat.n_nodes == 4**3 * 12 * 4
    assert len(lat.rotations) == 12
    assert np.allclose(lat.scales, 0.8 * 6.0 ** (np.arange(4) / 3.0))
    assert lat.shift_cell == pytest.approx(0.6)
    assert lat.log_scale_cell == pytest.approx(np.log(6.0) / 3.0)
    assert np.allclose(lat.shifts[0], [-0.9, -0.9, -0.9])
    expected = lat.scales**-3.0 * lat.log_scale_cell * lat.shift_cell**3 / 12.0
    assert np.allclose(lat.scale_weights(), expected, rtol=1e-12)


def test_lattice_custom_rotations():
    lat = GroupLattice.build(0.9, 2, 1.0, 2.0, 2, rotations=[np.eye(3)])
    assert lat.n_nodes == 8 * 1 * 2
    assert np.allclose(
        lat.scale_weights(), lat.scales**-3.0 * lat.log_scale_cell * lat.shift_cell**3
    )


# ---------------------------------------------------------------------------
# Wavelet frame synthesis
# ---------------------------------------------------------------------------


def test_wavelet_plane_synthesis(wavelet_plane, volume, psi):
    rec, metrics = wavelet_plane
    assert rec.spacing == psi.spacing
    assert rec.data.shape == psi.data.shape
    assert _rel_volume_error(rec, volume) <= WAVELET_ERR_TOL
    lo, hi = WAVELET_NORM_RATIO
    assert lo <= l2_norm(rec) / l2_norm(volume) <= hi
    assert metrics.n_nodes == 4**3 * 12 * 4
    assert metrics.calderon == pytest.approx(8.0 * np.pi**3, rel=CALDERON_REL_TOL)
    assert metrics.energy_ratio == pytest.approx(
        metrics.coefficient_energy / metrics.reconstruction_norm**2
    )


def test_wavelet_of_a_zero_field_is_zero_with_nan_energy_ratio(psi):
    zero = radon_plane(Volume(np.zeros((32, 32, 32)), 0.3), PLANE16)
    lattice = GroupLattice.build(0.9, 2, 0.8, 1.6, 2, rotations=[np.eye(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", LatticeTooCoarse)
        rec, metrics = invert_wavelet(zero, psi, lattice)
    assert not np.any(rec.data)
    assert (metrics.coefficient_energy, metrics.reconstruction_norm) == (0.0, 0.0)
    assert np.isnan(metrics.energy_ratio)


def _full_lattice_solve(s, psi, lattice):
    # invert_wavelet's steps for plane data on every node of the lattice
    geom = s.geometry
    template = apply_multiplier(radon_plane(psi, geom), MultiplierSpec(2.0 * geom.power))
    chi = lattice.scales**geom.characters.chi_exp
    pairings = _plane_coefficients(s, template, lattice) / chi[:, None, None]
    frame = _LatticeFrame(psi, lattice)
    data, _, _ = _dual_frame_solve(frame, pairings, lattice.scale_weights())
    return data


def test_wavelet_anisotropic_solve_keeps_every_rotation(plane_sino16):
    # A zero-mean pair of off-center bumps: admissible, and its views differ
    # from direction to direction, so no rotation may be dropped.
    center = np.array([0.3, -0.2, 0.1])
    wavelet = gaussian_mixture_phantom(16, 0.3, [center, -center], [0.45, 0.45], [1.0, -1.0])
    ico = icosahedral_rotations()
    lattice = GroupLattice.build(0.7, 3, 0.8, 2.0, 3, rotations=[ico[2], ico[5], ico[9]])
    rec, metrics = invert_wavelet(plane_sino16, wavelet, lattice)
    assert metrics.template_anisotropy > FRAME_RESIDUAL_TOL
    assert rec.data.tobytes() == _full_lattice_solve(plane_sino16, wavelet, lattice).tobytes()


def test_wavelet_radial_solve_runs_on_one_rotation(wavelet_plane, plane_sino_full, psi, reference_lattice):
    rec, metrics = wavelet_plane
    assert metrics.template_anisotropy <= FRAME_RESIDUAL_TOL
    first = replace(reference_lattice, rotations=reference_lattice.rotations[:1])
    assert rec.data.tobytes() == _full_lattice_solve(plane_sino_full, psi, first).tobytes()
    full = _full_lattice_solve(plane_sino_full, psi, reference_lattice)
    assert np.linalg.norm(rec.data - full) <= ONE_ROTATION_REL_TOL * np.linalg.norm(full)


def test_kind_steps_resolve_forward_at_call_time(monkeypatch, plane_sino16, psi):
    # The benchmark's tracer rebinds module attributes; the dispatcher must
    # hand the rebinding to the wavelet template and the verification checks.
    calls = []
    forwards = {"plane": radon_plane, "line": xray}

    def counting(v, geometry):
        calls.append(geometry.kind)
        return forwards[geometry.kind](v, geometry)

    monkeypatch.setattr(invert, "radon_plane", counting)
    monkeypatch.setattr(invert, "xray", counting)
    lattice = GroupLattice.build(0.9, 2, 0.8, 1.6, 2, rotations=[np.eye(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LatticeTooCoarse)
        invert_wavelet(plane_sino16, psi, lattice)
    assert calls == ["plane"]
    config = VerifyConfig(
        n=32, spacing=0.3, n_theta=8, n_phi=8, n_t=33, t_max=4.8, n_u=16, u_max=4.8,
        checks=("isometry",),
    )
    report = run_all(config)
    assert sorted(e.name for e in report.entries) == ["isometry_line", "isometry_plane"]
    assert calls == ["plane", "plane", "line"]


def test_wavelet_solve_stops_by_discrepancy(wavelet_plane):
    _, metrics = wavelet_plane
    assert 1 <= metrics.iterations <= FRAME_MAX_ITER
    assert metrics.coefficient_residual <= FRAME_RESIDUAL_TOL


def test_wavelet_synthesis_atoms_match_closed_form_dilates(psi):
    # pi(a, R) psi = sqrt(a) * log_wavelet(scale=a) for the radial LoG; an odd
    # shift count puts the zero shift at the center node.
    ico = icosahedral_rotations()
    lattice = GroupLattice.build(0.9, 3, 0.8, 4.8, 4, rotations=[ico[3], ico[7]])
    frame = _LatticeFrame(psi, lattice)
    for ia in (1, 2):
        a = float(lattice.scales[ia])
        closed = np.sqrt(a) * log_wavelet(32, 0.3, a).data
        for ir in range(2):
            unit = np.zeros((4, 2, 27))
            unit[ia, ir, 13] = 1.0
            atom = frame.synthesis(unit)
            rel = np.linalg.norm(atom - closed) / np.linalg.norm(closed)
            assert rel <= ATOM_REL_TOL


def test_wavelet_synthesis_atoms_of_an_off_center_wavelet_match_closed_form():
    # pi(0, R, a) of the Gaussian of width s at c is a^(-3/2) times the
    # Gaussian of width a s at a R c.  Its spectrum is complex, so an atom
    # read from the real part alone misses it by ~70%.
    c, width = np.array([0.6, -0.4, 0.2]), 1.0
    wavelet = gaussian_phantom(32, 0.3, center=c, scale=width)
    ico = icosahedral_rotations()
    lattice = GroupLattice.build(0.9, 3, 0.8, 4.8, 4, rotations=[ico[3], ico[7]])
    frame = _LatticeFrame(wavelet, lattice)
    x = wavelet.coordinate_grid()
    for ia in (1, 2):
        a = float(lattice.scales[ia])
        for ir, R in enumerate(lattice.rotations):
            d2 = np.sum((x - a * R @ c) ** 2, axis=-1)
            closed = a**-1.5 * np.exp(-np.pi * d2 / (a * width) ** 2)
            unit = np.zeros((4, 2, 27))
            unit[ia, ir, 13] = 1.0
            atom = frame.synthesis(unit)
            rel = np.linalg.norm(atom - closed) / np.linalg.norm(closed)
            assert rel <= ATOM_REL_TOL


def test_wavelet_frame_analysis_and_synthesis_are_adjoint():
    # An off-center wavelet has a complex spectrum, so both of its parts
    # enter the atoms.
    wavelet = gaussian_phantom(16, 0.3, center=(0.3, -0.2, 0.1), scale=0.45)
    ico = icosahedral_rotations()
    lattice = GroupLattice.build(0.7, 3, 0.8, 2.0, 3, rotations=[ico[2], ico[5]])
    frame = _LatticeFrame(wavelet, lattice)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((16, 16, 16))
    c = rng.standard_normal((3, 2, 27))
    lhs = float(np.sum(frame.analysis(x) * c))
    rhs = wavelet.spacing**3 * float(np.sum(x * frame.synthesis(c)))
    assert abs(lhs - rhs) <= ADJOINT_REL_TOL * abs(lhs)


def test_wavelet_line_synthesis(psi, volume, reference_lattice):
    geometry = LineGeometry(16, 16, 32, 32, 4.8)
    s = xray(volume, geometry)
    with warnings.catch_warnings():
        warnings.simplefilter("error", LatticeTooCoarse)
        rec, metrics = invert_wavelet(s, psi, reference_lattice)
    assert _rel_volume_error(rec, volume) <= WAVELET_ERR_TOL
    lo, hi = WAVELET_NORM_RATIO
    assert lo <= l2_norm(rec) / l2_norm(volume) <= hi
    assert metrics.n_nodes == 4**3 * 12 * 4
    # the radial wavelet's detector images agree between directions
    assert metrics.template_anisotropy <= FRAME_RESIDUAL_TOL


def test_wavelet_coarse_lattice_warns(plane_sino_full, psi):
    lattice = GroupLattice.build(0.9, 2, 0.8, 1.2, 2)
    with pytest.warns(LatticeTooCoarse):
        invert_wavelet(plane_sino_full, psi, lattice)


def test_wavelet_rejects_inadmissible_template(plane_sino_full, reference_lattice):
    with pytest.raises(NotAdmissible):
        invert_wavelet(plane_sino_full, gaussian_phantom(16, 0.3, scale=0.5), reference_lattice)


# ---------------------------------------------------------------------------
# FFT coefficient path against the direct inner product
# ---------------------------------------------------------------------------


def test_plane_coefficients_match_direct_pairing(plane_sino_full, plane_template_full):
    ico = icosahedral_rotations()
    lattice = GroupLattice.build(0.9, 4, 0.8, 4.8, 4, rotations=[ico[3], ico[7]])
    template = plane_template_full
    coefs = _plane_coefficients(plane_sino_full, template, lattice)
    for ia, ir, ib in [(0, 0, 0), (1, 0, 17), (2, 1, 40)]:
        g = GroupElement(lattice.shifts[ib], lattice.rotations[ir], float(lattice.scales[ia]))
        direct = sinogram_inner(plane_sino_full, apply_pi_hat(g, template))
        tol = COEF_MATCH_PLANE_TOL * max(abs(direct), COEF_FLOOR)
        assert abs(coefs[ia, ir, ib] - direct) <= tol


def test_line_coefficients_match_direct_pairing(line_sino16, psi):
    ico = icosahedral_rotations()
    lattice = GroupLattice.build(0.9, 3, 1.0, 2.0, 2, rotations=[np.eye(3), ico[7]])
    template = apply_multiplier(xray(psi, LINE16), MultiplierSpec(1.0))
    coefs = _line_coefficients(line_sino16, template, lattice)
    # shift index 13 is the center of the 3x3x3 block: the identity node,
    # where the coefficient must be the plain inner product
    direct = sinogram_inner(line_sino16, template)
    assert coefs[0, 0, 13] == pytest.approx(direct, rel=COEF_MATCH_LINE_TOL)
    for ia, ir, ib in [(1, 0, 20), (1, 1, 4), (0, 1, 22)]:
        g = GroupElement(lattice.shifts[ib], lattice.rotations[ir], float(lattice.scales[ia]))
        direct = sinogram_inner(line_sino16, apply_pi_hat(g, template))
        tol = COEF_MATCH_LINE_TOL * max(abs(direct), COEF_FLOOR)
        assert abs(coefs[ia, ir, ib] - direct) <= tol


# ---------------------------------------------------------------------------
# Coefficient paths against the per-node resampling they replaced
# ---------------------------------------------------------------------------


def _reference_chart_corners(theta, phi, n_theta, n_phi):
    ci = theta / (np.pi / n_theta) - 0.5
    cj = phi / (np.pi / n_phi) - 0.5
    i0 = np.floor(ci).astype(np.int64)
    j0 = np.floor(cj).astype(np.int64)
    wi = ci - i0
    wj = cj - j0
    for di, dj, w in (
        (0, 0, (1 - wi) * (1 - wj)),
        (1, 0, wi * (1 - wj)),
        (0, 1, (1 - wi) * wj),
        (1, 1, wi * wj),
    ):
        ii = i0 + di
        jj = j0 + dj
        sign = np.ones_like(wi)
        wrap_theta = (ii < 0) | (ii >= n_theta)
        jj = np.where(wrap_theta, n_phi - 1 - jj, jj)
        sign = np.where(wrap_theta, -sign, sign)
        ii = np.mod(ii, n_theta)
        wrap_phi = (jj < 0) | (jj >= n_phi)
        sign = np.where(wrap_phi, -sign, sign)
        jj = np.mod(jj, n_phi)
        yield ii, jj, sign, w


def _reference_plane_profiles(profiles, directions, radial, radial_origin, radial_step):
    """Chart-aware radial sampling, one zero-padded linear lookup per corner."""
    n_theta, n_phi, n = profiles.shape
    theta, phi, sign = canonicalize_directions(directions)
    rq = sign * radial
    acc = np.zeros(np.broadcast(theta, rq).shape, dtype=profiles.dtype)
    for ii, jj, corner_sign, w in _reference_chart_corners(theta, phi, n_theta, n_phi):
        pos = (corner_sign * rq - radial_origin) / radial_step
        k0 = np.floor(pos).astype(np.int64)
        frac = pos - k0
        v0 = np.where((k0 >= 0) & (k0 < n), profiles[ii, jj, np.clip(k0, 0, n - 1)], 0.0)
        v1 = np.where((k0 + 1 >= 0) & (k0 + 1 < n), profiles[ii, jj, np.clip(k0 + 1, 0, n - 1)], 0.0)
        acc = acc + w * (v0 * (1.0 - frac) + v1 * frac)
    return acc


def _direction_grids(shape, ndim):
    ii = np.arange(shape[0]).reshape((shape[0],) + (1,) * (ndim - 1))
    jj = np.arange(shape[1]).reshape((1, shape[1]) + (1,) * (ndim - 2))
    return ii, jj


def _reference_periodic_profiles(profiles, pos):
    n = profiles.shape[-1]
    k0 = np.floor(pos).astype(np.int64)
    w = pos - k0
    ii, jj = _direction_grids(profiles.shape, pos.ndim)
    return profiles[ii, jj, np.mod(k0, n)] * (1.0 - w) + profiles[ii, jj, np.mod(k0 + 1, n)] * w


def _reference_periodic_images(images, pu, pv):
    n_u, n_v = images.shape[-2], images.shape[-1]
    iu = np.floor(pu).astype(np.int64)
    iv = np.floor(pv).astype(np.int64)
    wu, wv = pu - iu, pv - iv
    ii, jj = _direction_grids(images.shape, pu.ndim)
    acc = np.zeros(pu.shape, dtype=images.dtype)
    for su, sv, w in (
        (0, 0, (1 - wu) * (1 - wv)),
        (1, 0, wu * (1 - wv)),
        (0, 1, (1 - wu) * wv),
        (1, 1, wu * wv),
    ):
        acc = acc + w * images[ii, jj, np.mod(iu + su, n_u), np.mod(iv + sv, n_v)]
    return acc


def _reference_plane_coefficients(s, template, lattice):
    """Per (rotation, scale) node: resample the dilated template spectrum, one
    inverse FFT per direction, periodic linear lookup at ``n . b``."""
    geom = s.geometry
    shat, [(_, dtau)], [t0] = _padded_spectra(s, PLANE_CORRELATION_PAD)
    psihat, _, _ = _padded_spectra(template, PLANE_CORRELATION_PAD)
    n_pad = shat.shape[-1]
    taus = (np.arange(n_pad) - n_pad // 2) * dtau
    phase0 = np.exp(2j * np.pi * taus * t0)
    shifts = lattice.shifts
    proj = (geom.normals.reshape(-1, 3) @ shifts.T).reshape(geom.n_theta, geom.n_phi, -1)
    pos = (proj - t0) / geom.dt
    out = np.empty((len(lattice.scales), len(lattice.rotations), len(shifts)))
    for ir, R in enumerate(lattice.rotations):
        dirs = (geom.normals @ R)[:, :, None, :]
        for ia, a in enumerate(lattice.scales):
            temp_spec = _reference_plane_profiles(
                psihat, dirs, a * taus[None, None, :], taus[0], dtau
            )
            prod = shat * np.conj(temp_spec) * phase0
            corr = np.fft.ifft(np.fft.ifftshift(prod, axes=-1), axis=-1) / geom.dt
            vals = _reference_periodic_profiles(corr.real, pos)
            out[ia, ir] = np.sqrt(a) * np.tensordot(
                geom.direction_weights, vals, axes=([0, 1], [0, 1])
            )
    return out


def _reference_line_coefficients(s, template, lattice):
    geom = s.geometry
    shat, [(_, dnu), (_, dnv)], [u0, v0] = _padded_spectra(s, LINE_CORRELATION_PAD)
    psihat, _, _ = _padded_spectra(template, LINE_CORRELATION_PAD)
    nu_pad, nv_pad = shat.shape[-2], shat.shape[-1]
    nu_u = (np.arange(nu_pad) - nu_pad // 2) * dnu
    nu_v = (np.arange(nv_pad) - nv_pad // 2) * dnv
    phase0 = np.exp(2j * np.pi * nu_u * u0)[:, None] * np.exp(2j * np.pi * nu_v * v0)
    m_dir = geom.direction_weights / np.pi
    e1 = geom.frames[:, :, :, 0]
    e2 = geom.frames[:, :, :, 1]
    shifts = lattice.shifts
    pu = (e1.reshape(-1, 3) @ shifts.T).reshape(geom.n_theta, geom.n_phi, -1)
    pv = (e2.reshape(-1, 3) @ shifts.T).reshape(geom.n_theta, geom.n_phi, -1)
    pos_u = (pu - u0) / geom.du
    pos_v = (pv - v0) / geom.dv
    out = np.empty((len(lattice.scales), len(lattice.rotations), len(shifts)))
    for ir, R in enumerate(lattice.rotations):
        dirs = geom.normals @ R
        e1r = e1 @ R
        e2r = e2 @ R
        for ia, a in enumerate(lattice.scales):
            vecs = a * (
                e1r[:, :, None, None, :] * nu_u[None, None, :, None, None]
                + e2r[:, :, None, None, :] * nu_v[None, None, None, :, None]
            )
            temp_spec = sample_chart(psihat, geom, dirs, vecs, [(nu_u[0], dnu), (nu_v[0], dnv)])
            prod = shat * np.conj(temp_spec) * phase0
            corr = np.fft.ifft2(np.fft.ifftshift(prod, axes=(-2, -1)), axes=(-2, -1)) / (
                geom.du * geom.dv
            )
            vals = _reference_periodic_images(corr.real, pos_u, pos_v)
            out[ia, ir] = a * np.tensordot(m_dir, vals, axes=([0, 1], [0, 1]))
    return out


def test_coefficients_match_per_node_reference(volume):
    # An off-center, anisotropic wavelet gives every direction its own profile,
    # so a wrong chart row, sign or wrap shows; the non-square direction grids
    # and detector keep the axes apart.  Scales above 1 dilate the template
    # spectrum past the end of its axis, and the outer shifts (|b| up to 10.4)
    # reach past the padded offset axes, whose correlations wrap.
    wavelet = gaussian_phantom(16, 0.3, center=(0.3, -0.2, 0.1), scale=0.45)
    ico = icosahedral_rotations()
    lattice = GroupLattice.build(6.0, 4, 0.8, 2.4, 3, rotations=[ico[2], ico[5], ico[9]])
    for forward, geometry, coefficients, reference in (
        (radon_plane, PlaneGeometry(16, 12, 65, 4.8), _plane_coefficients, _reference_plane_coefficients),
        (xray, LineGeometry(12, 16, 24, 20, 4.8), _line_coefficients, _reference_line_coefficients),
    ):
        s, template = forward(volume, geometry), forward(wavelet, geometry)
        ref = reference(s, template, lattice)
        got = coefficients(s, template, lattice)
        assert np.max(np.abs(got - ref)) <= COEF_REFERENCE_TOL * np.max(np.abs(ref))


def test_plane_coefficients_peak_memory(plane_sino_full, plane_template_full):
    # the wavelet benchmark's finest ladder level: 96 (rotation, scale) nodes
    # of 512 shifts against 32x32 directions
    lattice = GroupLattice.build(2.1, 8, 0.8, 6.4, 8)
    tracemalloc.start()
    try:
        _plane_coefficients(plane_sino_full, plane_template_full, lattice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PLANE_COEF_PEAK_MIB * 2**20


def test_line_direct_fourier_peak_memory():
    # the demo sizes: spectra and window hold only the stencil's nodes
    n, spacing = 48, 0.2
    s = xray(gaussian_phantom(n, spacing), LineGeometry(24, 24, 48, 48, 4.8))
    tracemalloc.start()
    try:
        invert_direct_fourier(s, n, spacing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= LINE_DF_PEAK_MIB * 2**20


def test_lattice_frame_peak_memory(psi):
    # ladder level 2's eight scales, each read only inside the wavelet's
    # spectrum cube
    lattice = GroupLattice.build(2.1, 8, 0.8, 6.4, 8, rotations=[np.eye(3)])
    tracemalloc.start()
    try:
        _LatticeFrame(psi, lattice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= LATTICE_FRAME_PEAK_MIB * 2**20
