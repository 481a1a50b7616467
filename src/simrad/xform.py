"""Plane-integral and line-integral transforms of sampled volumes.

Plane transform: ``Rf(theta, phi, t) = integral of f over {x : n . x = t}``.
Line transform: ``Xf(theta, phi, u, v) = integral of f along the line through
``u e1 + v e2`` with direction ``n``, where ``(e1, e2, n)`` is the frame
``rotation_from_angles(theta, phi)``.

Direction grids are midpoint grids on the chart square ``[0, pi)^2`` (azimuth
times polar angle), which together with the antipodal identification covers
every unoriented direction exactly once.  The label-space measure is
``sin(phi) dtheta dphi dt`` for planes; for lines it is ``sin(phi) dtheta dphi
du dv / pi``, where the ``1 / pi`` is the constant that makes the fiber
measure over the half-sphere of directions match the ambient frequency-domain
measure (each frequency is hit by a full circle of line directions).

The forward projectors are voxel-driven: every voxel deposits its value with
cubic B-spline weights on a detector grid refined ``SPLAT_REFINE`` times,
which computes the exact transform of the grid field convolved with a kernel
of response ``sinc^4``; a Fourier-domain division by that response (with a
smooth low-pass guard below the voxel Nyquist rate) removes the blur.  For
smooth, grid-resolved fields this is accurate to well below the quadrature
bias of sample-the-plane schemes, because the only remaining errors are
spectral truncation and aliasing, both controlled by the sampling margins.

The division is a circulant operator on each refined detector axis, and only
every ``SPLAT_REFINE``-th output sample is kept, so each axis's deconvolution
is one small real matrix: the kept rows of ``ifft(lowpass / sinc^4 * fft)``,
of shape (n, SPLAT_REFINE * (n - 1) + 1).  Directions are projected in chunks
sized by ``SPLAT_CHUNK_BYTES``; each chunk is splatted and at once multiplied
by the matrices (``blk @ D_t.T`` for planes, ``D_u @ blk @ D_v.T`` for
lines), so the refined grid never exists for more than one chunk.  Taps that
fall off the detector land in guard cells that the matrices ignore.

``sample_plane_sinogram`` and ``sample_line_sinogram`` evaluate a sinogram at
arbitrary (direction, offset) queries by reducing the direction to the chart
and interpolating bilinearly across the gluing: interpolation cells that stick
out of the chart square wrap to the matching rows/columns on the far side,
flipping the signed plane offset whenever the represented normal flips sign.
All spectral and backprojection code funnels through these samplers or the
stencil they share (``_chart_stencil``, which the wavelet coefficients read
directly), so the antipodal bookkeeping lives in exactly one place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
from scipy import ndimage

from .errors import GeometryMismatch
from .grid import Spectrum3D, Volume, dft3
from .group import (
    LineLabel,
    PlaneLabel,
    canonicalize_direction,
    canonicalize_directions,
    rotation_from_angles,
    unit_normal,
)

# Fraction of the limiting Nyquist rate kept by the projector's deconvolution
# low-pass; the margin absorbs splat aliasing from the voxel comb.
CUTOFF_FRACTION = 0.9
# The low-pass rolls off smoothly (raised cosine) over this fraction of the
# cutoff to avoid ringing for fields with slow spectral decay.
ROLLOFF_FRACTION = 0.15
# Scratch budget of the projectors' direction chunks: a chunk holds as many
# directions as fit one float64 per active voxel and per accumulator cell
# within this many bytes (at least one); about twenty arrays of the per-voxel
# size are live while a line chunk is splatted.  Small chunks run faster
# because those arrays stay in cache: at N=48 (17k active voxels) chunks of
# one direction beat chunks of four by ~15% and chunks of sixteen by ~2x.
SPLAT_CHUNK_BYTES = 256 << 10
# Internal refinement of projector detector grids.  Splatted samples taken at
# the output rate alias voxel-lattice harmonics (at radii |m| / voxel, where
# the projected comb carries O(1) energy for directions nearly aligned with a
# rational lattice direction m) back into the kept band.  Refinement by 3
# pushes every fold-back either beyond the cutoff or onto near-zeros of the
# cubic-spline kernel response sinc^4, leaving worst-case alignment artifacts
# ~1e-5 for unit-bandwidth fields; a triangular kernel (sinc^2) at the output
# rate would leave ~1e-2.
SPLAT_REFINE = 3
# Cells past each end of a refined detector axis that collect the cubic taps
# falling off it (offsets -1..2 around a floor cell clamped to [-3, n + 1]).
SPLAT_GUARD = 4
# Voxels with |f| below this fraction of the field's maximum are skipped by
# the projectors; the dropped mass is below double rounding noise.
PROJECTOR_DROP = 1e-16


@dataclass(frozen=True)
class PlaneGeometry:
    """Midpoint direction grid plus a uniform symmetric offset grid."""

    n_theta: int = 32
    n_phi: int = 32
    n_t: int = 129
    t_max: float = 6.0

    def __post_init__(self) -> None:
        if self.n_theta < 2 or self.n_phi < 2:
            raise GeometryMismatch("need at least 2 samples per direction axis")
        if self.n_t < 3:
            raise GeometryMismatch("need at least 3 offset samples")
        if not (np.isfinite(self.t_max) and self.t_max > 0.0):
            raise GeometryMismatch("t_max must be positive and finite")

    @property
    def dtheta(self) -> float:
        return np.pi / self.n_theta

    @property
    def dphi(self) -> float:
        return np.pi / self.n_phi

    @property
    def dt(self) -> float:
        return 2.0 * self.t_max / (self.n_t - 1)

    @cached_property
    def thetas(self) -> np.ndarray:
        return (np.arange(self.n_theta) + 0.5) * self.dtheta

    @cached_property
    def phis(self) -> np.ndarray:
        return (np.arange(self.n_phi) + 0.5) * self.dphi

    @cached_property
    def ts(self) -> np.ndarray:
        return np.linspace(-self.t_max, self.t_max, self.n_t)

    @cached_property
    def normals(self) -> np.ndarray:
        """Unit normals, shape (n_theta, n_phi, 3)."""
        return unit_normal(self.thetas[:, None], self.phis[None, :])

    @cached_property
    def direction_weights(self) -> np.ndarray:
        """Quadrature weights ``sin(phi) dtheta dphi``, shape (n_theta, n_phi)."""
        return np.broadcast_to(
            np.sin(self.phis)[None, :] * self.dtheta * self.dphi,
            (self.n_theta, self.n_phi),
        ).copy()


@dataclass(frozen=True)
class LineGeometry:
    """Midpoint direction grid plus a centered square detector grid."""

    n_theta: int = 32
    n_phi: int = 32
    n_u: int = 64
    n_v: int = 64
    u_max: float = 4.8

    def __post_init__(self) -> None:
        if self.n_theta < 2 or self.n_phi < 2:
            raise GeometryMismatch("need at least 2 samples per direction axis")
        if self.n_u < 2 or self.n_v < 2:
            raise GeometryMismatch("need at least 2 detector samples per axis")
        if not (np.isfinite(self.u_max) and self.u_max > 0.0):
            raise GeometryMismatch("u_max must be positive and finite")

    @property
    def dtheta(self) -> float:
        return np.pi / self.n_theta

    @property
    def dphi(self) -> float:
        return np.pi / self.n_phi

    @property
    def du(self) -> float:
        return 2.0 * self.u_max / self.n_u

    @property
    def dv(self) -> float:
        return 2.0 * self.u_max / self.n_v

    @cached_property
    def thetas(self) -> np.ndarray:
        return (np.arange(self.n_theta) + 0.5) * self.dtheta

    @cached_property
    def phis(self) -> np.ndarray:
        return (np.arange(self.n_phi) + 0.5) * self.dphi

    @cached_property
    def us(self) -> np.ndarray:
        return (np.arange(self.n_u) - (self.n_u - 1) / 2.0) * self.du

    @cached_property
    def vs(self) -> np.ndarray:
        return (np.arange(self.n_v) - (self.n_v - 1) / 2.0) * self.dv

    @cached_property
    def normals(self) -> np.ndarray:
        return unit_normal(self.thetas[:, None], self.phis[None, :])

    @cached_property
    def frames(self) -> np.ndarray:
        """Reference frames, shape (n_theta, n_phi, 3, 3); column 2 is the direction."""
        out = np.empty((self.n_theta, self.n_phi, 3, 3))
        for i, th in enumerate(self.thetas):
            for j, ph in enumerate(self.phis):
                out[i, j] = rotation_from_angles(th, ph)
        return out

    @cached_property
    def direction_weights(self) -> np.ndarray:
        return np.broadcast_to(
            np.sin(self.phis)[None, :] * self.dtheta * self.dphi,
            (self.n_theta, self.n_phi),
        ).copy()


@dataclass
class PlaneSinogram:
    """Plane-transform samples, shape (n_theta, n_phi, n_t)."""

    data: np.ndarray
    geometry: PlaneGeometry

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        g = self.geometry
        if self.data.shape != (g.n_theta, g.n_phi, g.n_t):
            raise GeometryMismatch(
                f"sinogram shape {self.data.shape} does not match geometry "
                f"({g.n_theta}, {g.n_phi}, {g.n_t})"
            )
        if not np.isfinite(self.data).all():
            raise ValueError("sinogram data must be finite")


@dataclass
class LineSinogram:
    """Line-transform samples, shape (n_theta, n_phi, n_u, n_v)."""

    data: np.ndarray
    geometry: LineGeometry

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        g = self.geometry
        if self.data.shape != (g.n_theta, g.n_phi, g.n_u, g.n_v):
            raise GeometryMismatch(
                f"sinogram shape {self.data.shape} does not match geometry "
                f"({g.n_theta}, {g.n_phi}, {g.n_u}, {g.n_v})"
            )
        if not np.isfinite(self.data).all():
            raise ValueError("sinogram data must be finite")


def _required_radius(v: Volume) -> float:
    return v.support_radius if v.support_radius is not None else v.half_extent


def _check_reach(v: Volume, reach: float, what: str) -> None:
    r = _required_radius(v)
    if reach < r - 1e-9:
        raise GeometryMismatch(
            f"{what} extends to {reach:g} but the field may be nonzero out to "
            f"radius {r:g}; integrals would be truncated"
        )


def _lowpass(freq_abs: np.ndarray, cutoff: float) -> np.ndarray:
    """Raised-cosine low-pass: 1 below the rolloff knee, 0 above the cutoff."""
    knee = (1.0 - ROLLOFF_FRACTION) * cutoff
    ramp = np.clip((freq_abs - knee) / (cutoff - knee), 0.0, 1.0)
    return 0.5 * (1.0 + np.cos(np.pi * ramp))


def _deconvolution_matrix(n_out: int, step: float, cutoff: float) -> np.ndarray:
    """Deconvolve one refined detector axis and keep every ``SPLAT_REFINE``-th sample.

    On the ``n_f = SPLAT_REFINE * (n_out - 1) + 1`` refined samples of spacing
    ``step`` the deconvolution is the circulant ``ifft(lowpass / sinc^4 *
    fft)``; the result holds its rows ``[::SPLAT_REFINE]``, padded with
    ``SPLAT_GUARD`` zero columns on each side, which drop the taps that fell
    off the detector.
    """
    n_f = SPLAT_REFINE * (n_out - 1) + 1
    freq = np.fft.fftfreq(n_f, step)
    kernel = np.fft.ifft(_lowpass(np.abs(freq), cutoff) / np.sinc(freq * step) ** 4).real
    rows = SPLAT_REFINE * np.arange(n_out)
    out = np.zeros((n_out, n_f + 2 * SPLAT_GUARD))
    out[:, SPLAT_GUARD : SPLAT_GUARD + n_f] = kernel[
        (rows[:, None] - np.arange(n_f)[None, :]) % n_f
    ]
    return out


def _cubic_taps(w: np.ndarray):
    """Cubic B-spline deposit weights for fractional positions ``w`` in [0, 1).

    Taps cover offsets -1..2 around the floor cell; the continuous kernel they
    realize has Fourier response ``sinc^4``.
    """
    w2 = w * w
    t3 = w2 * w / 6.0
    t0 = 0.5 * (w2 - w) + (1.0 / 6.0 - t3)  # (1 - w)^3 / 6
    t1 = (2.0 / 3.0 - w2) + 3.0 * t3  # (4 - 6 w^2 + 3 w^3) / 6
    yield -1, t0
    yield 0, t1
    yield 1, 1.0 - t0 - t1 - t3  # the four taps sum to 1
    yield 2, t3


def _active_voxels(v: Volume) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates and values of voxels that contribute above rounding noise."""
    f = v.data.ravel()
    peak = np.max(np.abs(f))
    if peak == 0.0:
        return np.zeros((0, 3)), f[:0]
    mask = np.abs(f) > PROJECTOR_DROP * peak
    return v.coordinate_grid().reshape(-1, 3)[mask], f[mask]


def _splat(f: np.ndarray, positions: list[np.ndarray], lengths: list[int]) -> np.ndarray:
    """Deposit ``f`` with cubic B-spline taps on per-direction detector grids.

    ``positions[a]`` has shape (n_points, n_directions) and holds each point's
    position along detector axis ``a`` in cells of a grid of ``lengths[a]``
    samples.  Returns shape (n_directions, *(n + 2 * SPLAT_GUARD for n in
    lengths)): the grid with ``SPLAT_GUARD`` cells on each side that collect
    the taps falling off it.  The flat index of each point's lowest tap is
    computed once, and every tap combination is a constant offset from it.
    """
    m = positions[0].shape[1]
    shape = [n + 2 * SPLAT_GUARD for n in lengths]
    strides = [int(np.prod(shape[a + 1 :])) for a in range(len(shape))]
    size = m * int(np.prod(shape))
    k = np.arange(m)[None, :] * (size // m)
    taps = []
    for pos, n, stride in zip(positions, lengths, strides):
        cell = np.floor(pos)
        taps.append([((off + 1) * stride, tap) for off, tap in _cubic_taps(pos - cell)])
        # A point whose floor cell lies outside [-3, n + 1] deposits only off
        # the grid; moving it to that range keeps its taps off the grid and
        # inside the guard.
        k = k + (np.clip(cell, -3, n + 1).astype(np.int64) + SPLAT_GUARD - 1) * stride
    # The value rides on the last axis's taps, so each combination costs one
    # product in 2-D and none in 1-D.
    taps[-1] = [(off, f[:, None] * tap) for off, tap in taps[-1]]
    k = k.ravel()
    acc = np.zeros(size)
    for combo in itertools.product(*taps):
        off = sum(o for o, _ in combo)
        weight = reduce(np.multiply, (tap for _, tap in combo))
        np.add.at(acc[off:], k, weight.ravel())
    return acc.reshape(m, *shape)


def _project(
    v: Volume, axes: list[tuple[np.ndarray, float, float, int]]
) -> np.ndarray:
    """Splat-and-deconvolve projection shared by the plane and line transforms.

    Each detector axis is ``(directions, origin, step, n)``: ``directions``
    holds one unit vector per direction, shape (n_dir, 3), and the detector
    samples along that axis sit at ``origin + k * step`` for ``k < n``.
    Returns shape (n_dir, n_0[, n_1]).
    """
    pts, f = _active_voxels(v)
    lengths = [SPLAT_REFINE * (n - 1) + 1 for *_, n in axes]
    mats = [
        _deconvolution_matrix(
            n, step / SPLAT_REFINE, CUTOFF_FRACTION * min(0.5 / v.spacing, 0.5 / step)
        )
        for _, _, step, n in axes
    ]
    mats[0] *= v.spacing**3 / np.prod([step / SPLAT_REFINE for _, _, step, _ in axes])

    n_dir = axes[0][0].shape[0]
    out = np.empty((n_dir, *(n for *_, n in axes)))
    cells = int(np.prod([n + 2 * SPLAT_GUARD for n in lengths]))
    chunk = max(1, SPLAT_CHUNK_BYTES // (8 * (len(f) + cells)))
    for c0 in range(0, n_dir, chunk):
        positions = [
            (pts @ dirs[c0 : c0 + chunk].T - origin) / (step / SPLAT_REFINE)
            for dirs, origin, step, _ in axes
        ]
        block = _splat(f, positions, lengths) @ mats[-1].T
        if len(mats) == 2:
            block = mats[0] @ block
        out[c0 : c0 + chunk] = block
    return out


def radon_plane(v: Volume, geometry: PlaneGeometry) -> PlaneSinogram:
    """Plane-integral transform of a volume.

    Raises :class:`GeometryMismatch` when the offset range cannot cover the
    field's support.
    """
    g = geometry
    _check_reach(v, g.t_max, "offset grid")
    out = _project(v, [(g.normals.reshape(-1, 3), -g.t_max, g.dt, g.n_t)])
    return PlaneSinogram(out.reshape(g.n_theta, g.n_phi, g.n_t), g)


def xray(v: Volume, geometry: LineGeometry) -> LineSinogram:
    """Line-integral (X-ray) transform of a volume."""
    g = geometry
    _check_reach(v, g.u_max, "detector grid")
    frames = g.frames.reshape(-1, 3, 3)
    out = _project(
        v,
        [
            (frames[:, :, 0], g.us[0], g.du, g.n_u),
            (frames[:, :, 1], g.vs[0], g.dv, g.n_v),
        ],
    )
    return LineSinogram(out.reshape(g.n_theta, g.n_phi, g.n_u, g.n_v), g)


def plane_integral(v: Volume, label: PlaneLabel, step: float | None = None) -> float:
    """Integral of a volume over one labelled plane by direct 2-D quadrature.

    The in-plane frame is rebuilt from the chart representative of the label's
    normal, so equivalent labels (antipodal normal, negated offset) integrate
    the identical point set up to float rounding.
    """
    n_raw = unit_normal(label.theta, label.phi)
    theta, phi, sign = canonicalize_direction(n_raw)
    frame = rotation_from_angles(theta, phi)
    t = sign * label.t
    return _planar_quadrature(v, t * frame[:, 2], frame[:, 0], frame[:, 1], step)


def line_integral(v: Volume, label: LineLabel, step: float | None = None) -> float:
    """Integral of a volume along one labelled line by direct 1-D quadrature."""
    n_raw = unit_normal(label.theta, label.phi)
    theta, phi, _ = canonicalize_direction(n_raw)
    direction = unit_normal(theta, phi)
    if step is None:
        step = 0.5 * v.spacing
    half = v.half_extent * np.sqrt(3.0)
    m = int(np.ceil(2.0 * half / step))
    s = (np.arange(m) + 0.5) * step - half
    pts = label.offset[None, :] + s[:, None] * direction[None, :]
    from .grid import resample

    return float(np.sum(resample(v, pts)) * step)


def _planar_quadrature(
    v: Volume, base: np.ndarray, e1: np.ndarray, e2: np.ndarray, step: float | None
) -> float:
    if step is None:
        step = 0.5 * v.spacing
    half = v.half_extent * np.sqrt(3.0)
    m = int(np.ceil(2.0 * half / step))
    s = (np.arange(m) + 0.5) * step - half
    pts = base[None, None, :] + s[:, None, None] * e1[None, None, :] + s[None, :, None] * e2[None, None, :]
    from .grid import resample

    return float(np.sum(resample(v, pts)) * step * step)


# ---------------------------------------------------------------------------
# Chart-aware samplers
# ---------------------------------------------------------------------------


def _chart_stencil(directions: np.ndarray, n_theta: int, n_phi: int) -> list[tuple]:
    """Bilinear stencil of (..., 3) direction queries on the glued chart grid.

    Returns four corners as ``(row, col, sign, weight)`` arrays of the
    queries' shape.  Cells that stick out of the chart square wrap according
    to the antipodal gluing: crossing an azimuth edge reflects the polar row
    and flips the represented normal; crossing a polar edge (through a pole)
    keeps the column but flips the normal.  ``sign`` is +1 where the stored
    normal equals the queried direction and -1 where it is the antipode.
    """
    theta, phi, query_sign = canonicalize_directions(directions)
    ci = theta / (np.pi / n_theta) - 0.5
    cj = phi / (np.pi / n_phi) - 0.5
    i0 = np.floor(ci).astype(np.int64)
    j0 = np.floor(cj).astype(np.int64)
    wi = ci - i0
    wj = cj - j0
    corners = []
    for di, dj, w in (
        (0, 0, (1 - wi) * (1 - wj)),
        (1, 0, wi * (1 - wj)),
        (0, 1, (1 - wi) * wj),
        (1, 1, wi * wj),
    ):
        ii = i0 + di
        jj = j0 + dj
        sign = query_sign
        wrap_theta = (ii < 0) | (ii >= n_theta)
        jj = np.where(wrap_theta, n_phi - 1 - jj, jj)
        sign = np.where(wrap_theta, -sign, sign)
        ii = np.mod(ii, n_theta)
        wrap_phi = (jj < 0) | (jj >= n_phi)
        sign = np.where(wrap_phi, -sign, sign)
        jj = np.mod(jj, n_phi)
        corners.append((ii, jj, sign, w))
    return corners


def _interp_profiles(
    profiles: np.ndarray, ii: np.ndarray, jj: np.ndarray, pos: np.ndarray
) -> np.ndarray:
    """Linear interpolation along the last axis of gathered profiles, zero outside."""
    n = profiles.shape[-1]
    k0 = np.floor(pos).astype(np.int64)
    w = pos - k0
    k0c = np.clip(k0, 0, n - 1)
    k1c = np.clip(k0 + 1, 0, n - 1)
    v0 = np.where((k0 >= 0) & (k0 < n), profiles[ii, jj, k0c], 0.0)
    v1 = np.where((k0 + 1 >= 0) & (k0 + 1 < n), profiles[ii, jj, k1c], 0.0)
    return v0 * (1.0 - w) + v1 * w


def sample_plane_profiles(
    profiles: np.ndarray,
    n_theta: int,
    n_phi: int,
    directions: np.ndarray,
    radial: np.ndarray,
    radial_origin: float,
    radial_step: float,
) -> np.ndarray:
    """Sample direction-indexed radial profiles at arbitrary signed queries.

    ``profiles`` has shape (n_theta, n_phi, M) over the chart's midpoint
    direction grid with a uniform signed radial axis (offset or frequency).
    Queries are (direction, signed radial value) pairs; directions are reduced
    to the chart and the radial value flips sign together with the normal.
    """
    acc = 0.0
    for ii, jj, sign, w in _chart_stencil(directions, n_theta, n_phi):
        pos = (sign * radial - radial_origin) / radial_step
        acc = acc + w * _interp_profiles(profiles, ii, jj, pos)
    return acc


def sample_plane_sinogram(
    s: PlaneSinogram, directions: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Evaluate a plane sinogram at (direction, signed offset) queries."""
    g = s.geometry
    return sample_plane_profiles(
        s.data, g.n_theta, g.n_phi, directions, np.asarray(offsets, dtype=float),
        -g.t_max, g.dt,
    )


def _interp_detector(
    images: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    pu: np.ndarray,
    pv: np.ndarray,
) -> np.ndarray:
    """Bilinear interpolation in gathered detector images, zero outside."""
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


def sample_line_images(
    images: np.ndarray,
    geometry: LineGeometry,
    directions: np.ndarray,
    vectors: np.ndarray,
    u_origin: float,
    du: float,
    v_origin: float,
    dv: float,
) -> np.ndarray:
    """Sample direction-indexed detector images at arbitrary queries.

    ``vectors`` are 3-vectors perpendicular (or projected) to each queried
    direction; at every stencil corner they are re-expressed in that node's
    own detector frame before the in-image bilinear lookup.  Line labels are
    insensitive to the normal's sign, so no sign flips apply.
    """
    g = geometry
    vectors = np.asarray(vectors, dtype=float)
    acc = 0.0
    frames = g.frames
    for ii, jj, _sign, w in _chart_stencil(directions, g.n_theta, g.n_phi):
        e1 = frames[ii, jj, :, 0]
        e2 = frames[ii, jj, :, 1]
        pu = (np.sum(vectors * e1, axis=-1) - u_origin) / du
        pv = (np.sum(vectors * e2, axis=-1) - v_origin) / dv
        acc = acc + w * _interp_detector(images, ii, jj, pu, pv)
    return acc


def sample_line_sinogram(
    s: LineSinogram, directions: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Evaluate a line sinogram at (direction, perpendicular offset) queries."""
    g = s.geometry
    return sample_line_images(
        s.data, g, directions, offsets, g.us[0], g.du, g.vs[0], g.dv
    )


# ---------------------------------------------------------------------------
# Backprojection and Fourier-domain views
# ---------------------------------------------------------------------------


def backproject_plane(s: PlaneSinogram, n: int, spacing: float) -> Volume:
    """Adjoint-style sum over directions: ``integral of F(n, n . x) dn`` (half-sphere)."""
    g = s.geometry
    grid = Volume(np.zeros((n, n, n)), spacing)
    pts = grid.coordinate_grid().reshape(-1, 3)
    acc = np.zeros(pts.shape[0])
    weights = g.direction_weights
    for i in range(g.n_theta):
        block = pts @ g.normals[i].T  # (npts, n_phi)
        for j in range(g.n_phi):
            acc += weights[i, j] * np.interp(block[:, j], g.ts, s.data[i, j], left=0.0, right=0.0)
    return Volume(acc.reshape(n, n, n), spacing)


def backproject_line(s: LineSinogram, n: int, spacing: float) -> Volume:
    """Sum over directions of the sinogram at each point's perpendicular offset."""
    g = s.geometry
    out = Volume(np.zeros((n, n, n)), spacing)
    pts = out.coordinate_grid().reshape(-1, 3)
    acc = np.zeros(pts.shape[0])
    weights = g.direction_weights
    u0, v0 = g.us[0], g.vs[0]
    for i in range(g.n_theta):
        for j in range(g.n_phi):
            fr = g.frames[i, j]
            pu = (pts @ fr[:, 0] - u0) / g.du
            pv = (pts @ fr[:, 1] - v0) / g.dv
            acc += weights[i, j] * _bilinear_image(s.data[i, j], pu, pv)
    out.data = acc.reshape(n, n, n)
    return out


def _bilinear_image(image: np.ndarray, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    n_u, n_v = image.shape
    iu = np.floor(pu).astype(np.int64)
    iv = np.floor(pv).astype(np.int64)
    wu, wv = pu - iu, pv - iv
    acc = np.zeros(pu.shape)
    for su, sv, w in (
        (0, 0, (1 - wu) * (1 - wv)),
        (1, 0, wu * (1 - wv)),
        (0, 1, (1 - wu) * wv),
        (1, 1, wu * wv),
    ):
        ku, kv = iu + su, iv + sv
        ok = (ku >= 0) & (ku < n_u) & (kv >= 0) & (kv < n_v)
        acc += w * np.where(ok, image[np.clip(ku, 0, n_u - 1), np.clip(kv, 0, n_v - 1)], 0.0)
    return acc


def sinogram_t_spectra(s: PlaneSinogram) -> np.ndarray:
    """Per-direction offset spectra on the centered frequency axis.

    Returns shape (n_theta, n_phi, n_t) complex with frequency ``(k - n_t //
    2) / (n_t * dt)`` at index k, using the same ``exp(-2 pi i tau t)``
    convention as :func:`simrad.grid.dft3`.
    """
    g = s.geometry
    n = g.n_t
    spec = np.fft.fftshift(np.fft.fft(s.data, axis=-1), axes=-1)
    k = np.arange(n) - n // 2
    dtau = 1.0 / (n * g.dt)
    phase = np.exp(-2j * np.pi * dtau * k * g.ts[0])
    return spec * g.dt * phase


def line_uv_spectra(s: LineSinogram) -> np.ndarray:
    """Per-direction detector spectra on centered frequency axes (complex)."""
    g = s.geometry
    spec = np.fft.fftshift(np.fft.fft2(s.data, axes=(-2, -1)), axes=(-2, -1))
    ku = np.arange(g.n_u) - g.n_u // 2
    kv = np.arange(g.n_v) - g.n_v // 2
    dnu_u = 1.0 / (g.n_u * g.du)
    dnu_v = 1.0 / (g.n_v * g.dv)
    phase_u = np.exp(-2j * np.pi * dnu_u * ku * g.us[0])
    phase_v = np.exp(-2j * np.pi * dnu_v * kv * g.vs[0])
    return spec * (g.du * g.dv) * phase_u[:, None] * phase_v[None, :]


def _padded_spectrum(v: Volume, pad_factor: int) -> Spectrum3D:
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")
    if pad_factor == 1:
        return dft3(v)
    n = v.n
    n_pad = pad_factor * n
    lo = (n_pad - n) // 2
    data = np.zeros((n_pad, n_pad, n_pad))
    data[lo : lo + n, lo : lo + n, lo : lo + n] = v.data
    origin = v.origin - lo * v.spacing
    return dft3(Volume(data, v.spacing, origin))


def _sample_spectrum3(spec: Spectrum3D, freqs: np.ndarray) -> np.ndarray:
    """Trilinear samples of a centered 3-D spectrum at (..., 3) frequency points."""
    idx = (freqs.reshape(-1, 3) / spec.freq_spacing) + spec.n // 2
    re = ndimage.map_coordinates(spec.data.real, idx.T, order=1, mode="constant", cval=0.0)
    im = ndimage.map_coordinates(spec.data.imag, idx.T, order=1, mode="constant", cval=0.0)
    return (re + 1j * im).reshape(freqs.shape[:-1])


def fourier_slice_plane(
    v: Volume, geometry: PlaneGeometry, pad_factor: int = 2
) -> np.ndarray:
    """Volume spectrum sampled along each direction's frequency ray.

    Returns shape (n_theta, n_phi, n_t) complex on the centered radial
    frequency axis matching :func:`sinogram_t_spectra`; equality of the two
    (up to interpolation error) is the projection-slice property.
    """
    g = geometry
    spec = _padded_spectrum(v, pad_factor)
    dtau = 1.0 / (g.n_t * g.dt)
    taus = (np.arange(g.n_t) - g.n_t // 2) * dtau
    freqs = g.normals[:, :, None, :] * taus[None, None, :, None]
    return _sample_spectrum3(spec, freqs)


def fourier_slice_line(
    v: Volume, geometry: LineGeometry, pad_factor: int = 2
) -> np.ndarray:
    """Volume spectrum sampled on each direction's perpendicular frequency plane.

    Returns shape (n_theta, n_phi, n_u, n_v) complex on centered detector
    frequency axes matching :func:`line_uv_spectra`.
    """
    g = geometry
    spec = _padded_spectrum(v, pad_factor)
    nu_u = (np.arange(g.n_u) - g.n_u // 2) / (g.n_u * g.du)
    nu_v = (np.arange(g.n_v) - g.n_v // 2) / (g.n_v * g.dv)
    e1 = g.frames[:, :, :, 0]
    e2 = g.frames[:, :, :, 1]
    freqs = (
        e1[:, :, None, None, :] * nu_u[None, None, :, None, None]
        + e2[:, :, None, None, :] * nu_v[None, None, None, :, None]
    )
    return _sample_spectrum3(spec, freqs)


# ---------------------------------------------------------------------------
# Sinogram norms and pairings
# ---------------------------------------------------------------------------


def _plane_cell_measure(g: PlaneGeometry) -> np.ndarray:
    return (np.sin(g.phis)[None, :, None] * g.dtheta * g.dphi * g.dt)


def _line_cell_measure(g: LineGeometry) -> np.ndarray:
    return (
        np.sin(g.phis)[None, :, None, None]
        * g.dtheta
        * g.dphi
        * g.du
        * g.dv
        / np.pi
    )


def sinogram_norm(s: PlaneSinogram | LineSinogram) -> float:
    """L2 norm under the label-space measure (with the line-space ``1/pi``)."""
    if isinstance(s, PlaneSinogram):
        w = _plane_cell_measure(s.geometry)
    else:
        w = _line_cell_measure(s.geometry)
    return float(np.sqrt(np.sum(w * s.data * s.data)))


def sinogram_inner(s1, s2) -> float:
    """L2 inner product of two sinograms on identical geometries."""
    if type(s1) is not type(s2) or s1.geometry != s2.geometry:
        raise GeometryMismatch("sinograms live on different sampling geometries")
    if isinstance(s1, PlaneSinogram):
        w = _plane_cell_measure(s1.geometry)
    else:
        w = _line_cell_measure(s1.geometry)
    return float(np.sum(w * s1.data * s2.data))
