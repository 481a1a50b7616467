"""Volumes, centered spectra, phantoms, and the point-space group action."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import simrad.grid as grid
from simrad.errors import GeometryMismatch, SupportOverflow
from simrad.grid import (
    Volume,
    _cubic_corners,
    _gather,
    _guard_window,
    _linear_corners,
    _masked_gather,
    apply_pi,
    dft3,
    gaussian_mixture_phantom,
    gaussian_phantom,
    idft3,
    inner,
    l2_norm,
    log_wavelet,
    resample,
)
from simrad.group import GroupElement, compose, random_rotation

# FFT roundtrips and Parseval sums are exact up to accumulated rounding.
EXACT_TOL = 1e-12
# Sampled-Gaussian transform vs the continuum formula: the only error is
# frequency aliasing at the band edge, exp(-pi * (1/(2h))^2) ~ 1.6e-4 for
# h = 0.3; 5e-4 covers the corner accumulation.
GAUSS_SPECTRUM_TOL = 5e-4
# Same aliasing fold for the Laplacian-of-Gaussian, amplified by its |w|^2
# prefactor; measured 3.8e-3 of the spectral peak at h = 0.3, scale 1.
LOG_SPECTRUM_TOL = 1e-2
# Trilinear resampling loses O((h / width)^2) in norm; measured 1.7e-2 for a
# unit-width Gaussian at h = 0.15 under a generic rotate-scale-shift.
RESAMPLE_NORM_TOL = 3e-2
# One resampling versus two compounds the same error once more.
RESAMPLE_COMPOSE_TOL = 5e-2
# The cubic read contracted one axis at a time against the sum of its 64
# product-weighted corners: the same terms, rounded in another order
# (measured 8.2e-16 of the data's peak; 3.4e-16 to 8.2e-16 over six seeds).
CUBIC_CONTRACTION_TOL = 1e-15


def _freq_radius2(spectrum) -> np.ndarray:
    ax = spectrum.freq_axis()
    return ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2


# --- Volume basics ----------------------------------------------------------


def test_volume_validation():
    with pytest.raises(GeometryMismatch):
        Volume(np.zeros((4, 4, 5)), 0.1)
    with pytest.raises(GeometryMismatch):
        Volume(np.zeros((4, 4)), 0.1)
    with pytest.raises(GeometryMismatch, match="N > 0"):
        Volume(np.zeros((0, 0, 0)), 0.1)
    with pytest.raises(ValueError):
        Volume(np.zeros((4, 4, 4)), -0.1)
    nan_voxel = np.zeros((4, 4, 4))
    nan_voxel[2, 2, 2] = np.nan
    for bad in (
        lambda: Volume(nan_voxel, 0.1),
        lambda: Volume(np.full((4, 4, 4), np.inf), 0.1),
        lambda: Volume(np.zeros((4, 4, 4)), np.nan),
        lambda: Volume(np.zeros((4, 4, 4)), np.inf),
        lambda: Volume(np.zeros((4, 4, 4)), 0.1, origin=[0.0, np.nan, 0.0]),
    ):
        with pytest.raises(ValueError):
            bad()


def test_volume_centering_puts_middle_index_at_origin():
    v = Volume(np.zeros((8, 8, 8)), 0.25)
    assert v.axis_coords(0)[4] == 0.0
    assert v.half_extent == 1.0
    grid = v.coordinate_grid()
    assert grid.shape == (8, 8, 8, 3)
    assert np.all(grid[4, 4, 4] == 0.0)


def test_norm_and_inner_consistency():
    rng = np.random.default_rng(0)
    v1 = Volume(rng.standard_normal((6, 6, 6)), 0.2)
    v2 = Volume(rng.standard_normal((6, 6, 6)), 0.2)
    assert l2_norm(v1) == pytest.approx(np.sqrt(inner(v1, v1)), rel=EXACT_TOL)
    lhs = inner(Volume(v1.data + v2.data, 0.2), Volume(v1.data + v2.data, 0.2))
    rhs = inner(v1, v1) + 2.0 * inner(v1, v2) + inner(v2, v2)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    with pytest.raises(GeometryMismatch):
        inner(v1, Volume(v2.data, 0.3))


# --- spectra ----------------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 9, 16]))
@settings(max_examples=20, deadline=None)
def test_dft3_roundtrip(seed, n):
    rng = np.random.default_rng(seed)
    v = Volume(rng.standard_normal((n, n, n)), 0.3)
    back = idft3(dft3(v))
    assert np.max(np.abs(back.data - v.data)) <= EXACT_TOL
    assert back.spacing == v.spacing
    assert np.all(back.origin == v.origin)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_parseval(seed):
    rng = np.random.default_rng(seed)
    v = Volume(rng.standard_normal((12, 12, 12)), 0.17)
    s = dft3(v)
    spectral = float(np.sum(np.abs(s.data) ** 2) * s.freq_spacing**3)
    assert spectral == pytest.approx(l2_norm(v) ** 2, rel=1e-10)


def test_gaussian_is_own_transform():
    s = dft3(gaussian_phantom(32, 0.3))
    oracle = np.exp(-np.pi * _freq_radius2(s))
    assert np.max(np.abs(s.data - oracle)) <= GAUSS_SPECTRUM_TOL
    # The DC sample is the integral of the field: exact by Poisson summation.
    n = s.n
    assert abs(s.data[n // 2, n // 2, n // 2] - 1.0) <= EXACT_TOL


def test_shifted_gaussian_transform_carries_phase():
    c = np.array([0.6, -0.3, 0.45])
    s = dft3(gaussian_phantom(32, 0.3, center=c))
    ax = s.freq_axis()
    phase = np.exp(
        -2j
        * np.pi
        * (
            ax[:, None, None] * c[0]
            + ax[None, :, None] * c[1]
            + ax[None, None, :] * c[2]
        )
    )
    oracle = np.exp(-np.pi * _freq_radius2(s)) * phase
    assert np.max(np.abs(s.data - oracle)) <= GAUSS_SPECTRUM_TOL


@pytest.mark.parametrize("scale", [1.0, 1.4])
def test_log_wavelet_spectrum_oracle(scale):
    s = dft3(log_wavelet(32, 0.3, scale))
    w2 = _freq_radius2(s)
    oracle = 4.0 * np.pi**2 * w2 * scale**3 * np.exp(-np.pi * scale**2 * w2)
    err = np.max(np.abs(s.data - oracle)) / np.max(oracle)
    assert err <= LOG_SPECTRUM_TOL
    # Mean-free: DC must vanish identically (it is a pure Laplacian).
    n = s.n
    assert abs(s.data[n // 2, n // 2, n // 2]) <= 1e-10


# --- phantoms ---------------------------------------------------------------


def test_gaussian_phantom_values_and_support():
    v = gaussian_phantom(24, 0.3, center=[0.3, 0.0, -0.3], scale=0.8, amplitude=2.0)
    grid = v.coordinate_grid()
    d2 = np.sum((grid - [0.3, 0.0, -0.3]) ** 2, axis=-1)
    assert np.max(np.abs(v.data - 2.0 * np.exp(-np.pi * d2 / 0.64))) <= EXACT_TOL


def test_phantom_overflow_guard():
    # Half-extent 2.4 cannot hold a unit-width bump (needs 3.5).
    with pytest.raises(SupportOverflow):
        gaussian_phantom(16, 0.3)
    with pytest.raises(SupportOverflow):
        gaussian_mixture_phantom(32, 0.3, [[0.0, 0.0, 3.0]], [1.0], [1.0])
    with pytest.raises(ValueError):
        gaussian_mixture_phantom(32, 0.3, [[0.0, 0.0, 0.0]], [1.0, 2.0], [1.0])


# --- resampling and the point-space action ----------------------------------


def test_resample_hits_voxel_centers_exactly():
    rng = np.random.default_rng(1)
    v = Volume(rng.standard_normal((10, 10, 10)), 0.4)
    pts = v.coordinate_grid()[2:5, 3:6, 4:7].reshape(-1, 3)
    vals = resample(v, pts)
    assert np.max(np.abs(vals - v.data[2:5, 3:6, 4:7].ravel())) <= EXACT_TOL


def test_resample_zero_outside():
    # Zero from the outermost voxel centers on, with no fade past them.
    v = Volume(np.ones((8, 8, 8)), 0.5)
    far = np.array([[10.0, 0.0, 0.0], [0.0, -7.0, 3.0]])
    assert np.all(resample(v, far) == 0.0)
    lo, hi = v.origin[0], v.origin[0] + 7 * 0.5
    edges = np.array(
        [[lo, 0.0, 0.0], [hi, 0.0, 0.0], [lo - 1e-9, 0.0, 0.0],
         [0.0, hi + 1e-9, 0.0], [0.0, 0.0, hi + 0.25]]
    )
    assert resample(v, edges).tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        resample(v, np.array([[0.0, np.nan, 0.0]]))


@pytest.mark.parametrize("n", [2, 9, 16])
def test_trilinear_matches_map_coordinates_bitwise(n, monkeypatch):
    # resample reproduces scipy's order-1 constant-mode interpolation bit
    # for bit, on real data and on both parts of a complex spectrum, at
    # random points, knots, 0 and n - 1 and just outside them on each axis,
    # across several chunks.
    from scipy import ndimage

    monkeypatch.setattr(grid, "SPLAT_CHUNK_BYTES", 8 * 1024)
    rng = np.random.default_rng(n)
    idx = rng.uniform(-1.5, n + 0.5, (6000, 3))
    idx[:1000] = np.round(idx[:1000])
    edges = (0.0, n - 1.0, np.nextafter(0.0, -1.0), np.nextafter(n - 1.0, n), -1.0, n)
    for axis in range(3):
        for j, value in enumerate(edges):
            idx[1000 + 800 * axis + 100 * j : 1100 + 800 * axis + 100 * j, axis] = value
    spec = dft3(Volume(rng.standard_normal((n, n, n)), 0.3)).data
    for data in (rng.standard_normal((n, n, n)), spec.real, spec.imag):
        ref = ndimage.map_coordinates(data, idx.T, order=1, mode="constant", cval=0.0)
        assert resample(Volume(data, 1.0, np.zeros(3)), idx).tobytes() == ref.tobytes()


def test_cubic_gather_interpolates_and_reproduces_quadratics():
    # Keys' kernel (a = -1/2) reads every node exactly, and a polynomial of
    # degree 2 exactly wherever all four taps per axis lie on the data.
    n = 9
    rng = np.random.default_rng(5)
    cells = np.arange(n, dtype=float)

    def quadratic(x, y, z):
        return 1.0 + 0.5 * x - 0.3 * y * z + 0.2 * x * x - z * z / 16.0 + 0.7 * x * y

    data = quadratic(*np.meshgrid(cells, cells, cells, indexing="ij"))
    window = _guard_window(data[None], [(-1, n + 2)] * 3)
    nodes = rng.integers(0, n, (3, 500)).astype(float)
    got = _gather(window, 0, list(nodes), _cubic_corners)
    assert got.tolist() == data[tuple(nodes.astype(int))].tolist()
    inner_points = rng.uniform(1.0, n - 2.0, (3, 2000))
    got = _gather(window, 0, list(inner_points), _cubic_corners)
    ref = quadratic(*inner_points)
    assert np.max(np.abs(got - ref)) <= EXACT_TOL * np.max(np.abs(data))


def _edge_points(n, rng, count=6000):
    # Random points, knots, 0 and n - 1, the floats just outside them and far
    # outside, on each axis in turn.
    idx = rng.uniform(-1.5, n + 0.5, (count, 3))
    idx[:1000] = np.round(idx[:1000])
    edges = (0.0, n - 1.0, np.nextafter(0.0, -1.0), np.nextafter(n - 1.0, n), -40.0, n + 40.0)
    for axis in range(3):
        for j, value in enumerate(edges):
            idx[1000 + 800 * axis + 100 * j : 1100 + 800 * axis + 100 * j, axis] = value
    return idx.T


@pytest.mark.parametrize("corners", [_linear_corners, _cubic_corners], ids=["linear", "cubic"])
def test_masked_gather_matches_the_full_read_zeroed_outside_bitwise(corners, monkeypatch):
    # Reading only the inside points changes no bit against reading every
    # point and zeroing the outside ones, across chunk edges, for real and
    # complex data.  The floor clamps keep that full read in bounds at the
    # far-outside points.
    monkeypatch.setattr(grid, "SPLAT_CHUNK_BYTES", 8 * 1024)
    n = 9
    rng = np.random.default_rng(11)
    idx = _edge_points(n, rng)
    inside = np.all((idx >= 0.0) & (idx <= n - 1), axis=0)
    assert 0 < np.count_nonzero(inside) < idx.shape[1]
    real = rng.standard_normal((n, n, n))
    for data in (real, real + 1j * rng.standard_normal((n, n, n))):
        window = _guard_window(data[None], [(-1, n + 2)] * 3)
        want = np.where(inside, _gather(window, 0, list(idx), corners), 0.0)
        assert _masked_gather(window, n, idx, corners).tobytes() == want.tobytes()


def test_masked_gather_skips_points_outside_without_reading(monkeypatch):
    # No inside point: zeros, and the gather loop never runs.  A freed buffer
    # of the output's size is left for the allocator, so an output that is
    # not zero-filled would show its values.
    calls = []
    monkeypatch.setattr(grid, "_gather", lambda *args: calls.append(args))
    n = 8
    window = _guard_window(np.ones((1, n, n, n)), [(0, n + 1)] * 3)
    idx = np.array([[-0.5, 4.0, 3.0], [2.0, np.nextafter(7.0, 8.0), 1.0], [9.0, 9.0, 9.0]] * 20).T
    junk = np.full(idx.shape[1], 7.0)
    del junk
    out = _masked_gather(window, n, idx)
    assert out.tolist() == [0.0] * idx.shape[1]
    assert calls == []


def test_cubic_contraction_matches_the_64_corner_product_sum():
    # The axis-by-axis contraction of Keys' taps against the sum over 64
    # corners of the product of their taps, the read it replaced.
    n = 10
    rng = np.random.default_rng(4)
    data = rng.standard_normal((n, n, n))
    padded = np.pad(data, (1, 2))  # the window's zero cells
    idx = rng.uniform(0.0, n - 1.0, (3, 3000))
    idx[:, :30] = n - 1.0
    cell = np.minimum(np.floor(idx), n - 1).astype(int)
    t = idx - cell
    taps = [
        (((1.0 - 0.5 * u) * u - 0.5) * u, (1.5 * u - 2.5) * u * u + 1.0,
         ((2.0 - 1.5 * u) * u + 0.5) * u, 0.5 * (u - 1.0) * u * u)
        for u in t
    ]
    want = 0.0
    for i, j, k in itertools.product(range(4), repeat=3):
        value = padded[cell[0] + i, cell[1] + j, cell[2] + k]
        want = want + value * (taps[0][i] * taps[1][j] * taps[2][k])
    window = _guard_window(data[None], [(-1, n + 2)] * 3)
    got = _gather(window, 0, list(idx), _cubic_corners)
    assert np.max(np.abs(got - want)) <= CUBIC_CONTRACTION_TOL * np.max(np.abs(data))


def test_apply_pi_identity_is_exact():
    f = gaussian_phantom(32, 0.3, scale=0.9)
    out = apply_pi(GroupElement.identity(), f)
    assert np.max(np.abs(out.data - f.data)) <= EXACT_TOL


def test_apply_pi_integer_voxel_shift_is_exact():
    f = gaussian_phantom(64, 0.15, center=[0.3, -0.2, 0.1])
    g = GroupElement(np.array([2, -1, 3]) * 0.15, np.eye(3), 1.0)
    out = apply_pi(g, f)
    rolled = np.roll(f.data, (2, -1, 3), axis=(0, 1, 2))
    interior = (slice(5, -5),) * 3
    assert np.max(np.abs(out.data - rolled)[interior]) <= EXACT_TOL


def test_apply_pi_unitarity():
    rng = np.random.default_rng(0)
    f = gaussian_phantom(64, 0.15, center=[0.3, -0.2, 0.1])
    g = GroupElement(np.array([0.4, -0.3, 0.2]), random_rotation(rng), 1.2)
    assert abs(l2_norm(apply_pi(g, f)) / l2_norm(f) - 1.0) <= RESAMPLE_NORM_TOL


def test_apply_pi_composition():
    rng = np.random.default_rng(0)
    f = gaussian_phantom(64, 0.15, center=[0.3, -0.2, 0.1])
    g1 = GroupElement(np.array([0.4, -0.3, 0.2]), random_rotation(rng), 1.2)
    g2 = GroupElement(np.array([-0.2, 0.1, 0.3]), random_rotation(rng), 0.9)
    lhs = apply_pi(compose(g1, g2), f)
    rhs = apply_pi(g1, apply_pi(g2, f))
    rel = l2_norm(Volume(lhs.data - rhs.data, f.spacing)) / l2_norm(f)
    assert rel <= RESAMPLE_COMPOSE_TOL


def test_apply_pi_scales_amplitude_unitarily():
    # Pure dilation of a centered Gaussian has the closed form
    # a^(-3/2) exp(-pi |x|^2 / a^2); trilinear sampling of the unit-width
    # source at h = 0.2 leaves ~3e-2 of it behind.
    f = gaussian_phantom(48, 0.2, scale=1.0)
    g = GroupElement(np.zeros(3), np.eye(3), 1.2)
    out = apply_pi(g, f)
    oracle = gaussian_phantom(48, 0.2, scale=1.2).data * 1.2**-1.5
    rel = l2_norm(Volume(out.data - oracle, 0.2)) / l2_norm(Volume(oracle, 0.2))
    assert rel <= RESAMPLE_COMPOSE_TOL

