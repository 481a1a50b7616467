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

The two transforms are two instances of one construction, and everything
that differs by kind, short of the math itself, is a fact of the geometry:
both geometries share one direction chart (:class:`DirectionChart`) and
their sinograms one validated container (:class:`Sinogram`).  Where the math
does differ (the projector front ends and the Fourier-slice pairs),
``kind_routes`` is the one place that selects by kind.

``sample_plane_profiles`` and ``sample_line_images`` evaluate
direction-indexed profiles or detector images (sinograms or their spectra)
at arbitrary (direction, offset) queries by reducing the direction to the
chart and interpolating bilinearly across the gluing: interpolation cells
that stick out of the chart square wrap to the matching rows/columns on the
far side, flipping the signed plane offset whenever the represented normal
flips sign.  ``sample_plane_sinogram`` and ``sample_line_sinogram`` are
their front ends for sinograms.  The samplers and the wavelet coefficients
read the chart through one stencil (``_chart_stencil``), and the samplers
read the detector through one multilinear lookup (``_interp_nodes``), so the
antipodal bookkeeping lives in exactly one place.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property, reduce

import numpy as np
from scipy import ndimage

from .errors import GeometryMismatch
from .grid import Spectrum3D, Volume, dft3, resample
from .group import (
    CharacterSet,
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
class DirectionChart:
    """Midpoint direction grid on the chart square, shared by both geometries.

    Each geometry adds its detector and the facts of its kind that generic
    code reads instead of testing which kind it holds: ``kind``,
    ``sinogram_type``, unitarization ``power``, scale ``characters``,
    ``detector`` axes, ``reach``, label-space ``cell_measure`` and the
    projection-slice points ``slice_frequencies``.
    """

    n_theta: int = 32
    n_phi: int = 32

    def __post_init__(self) -> None:
        if self.n_theta < 2 or self.n_phi < 2:
            raise GeometryMismatch("need at least 2 samples per direction axis")

    @classmethod
    def from_keys(cls, values: Mapping) -> DirectionChart:
        """The geometry whose fields ``values`` holds under their short keys.

        A field's short key is its name without underscores (``n_theta`` as
        ``ntheta``), as in ``.sgm`` headers and the CLI's geometry flags; each
        value is converted to the type of the field's default.
        """
        return cls(
            **{f.name: type(f.default)(values[f.name.replace("_", "")]) for f in fields(cls)}
        )

    @property
    def dtheta(self) -> float:
        return np.pi / self.n_theta

    @property
    def dphi(self) -> float:
        return np.pi / self.n_phi

    @property
    def shape(self) -> tuple[int, ...]:
        """Sinogram shape: the direction grid, then the detector axes."""
        return (self.n_theta, self.n_phi, *(n for n, _ in self.detector))

    @cached_property
    def thetas(self) -> np.ndarray:
        return (np.arange(self.n_theta) + 0.5) * self.dtheta

    @cached_property
    def phis(self) -> np.ndarray:
        return (np.arange(self.n_phi) + 0.5) * self.dphi

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


@dataclass
class Sinogram:
    """Transform samples of shape ``geometry.shape``, all finite."""

    data: np.ndarray
    geometry: DirectionChart

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.geometry.shape:
            raise GeometryMismatch(
                f"sinogram shape {self.data.shape} does not match geometry "
                f"{self.geometry.shape}"
            )
        if not np.isfinite(self.data).all():
            raise ValueError("sinogram data must be finite")


class PlaneSinogram(Sinogram):
    """Plane-transform samples, shape (n_theta, n_phi, n_t)."""


class LineSinogram(Sinogram):
    """Line-transform samples, shape (n_theta, n_phi, n_u, n_v)."""


@dataclass(frozen=True)
class PlaneGeometry(DirectionChart):
    """Midpoint direction grid plus a uniform symmetric offset grid."""

    n_t: int = 129
    t_max: float = 6.0

    kind = "plane"
    sinogram_type = PlaneSinogram
    power = 1.0  # |tau| along the offset axis unitarizes the plane transform
    characters = CharacterSet.plane()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_t < 3:
            raise GeometryMismatch("need at least 3 offset samples")
        if not (np.isfinite(self.t_max) and self.t_max > 0.0):
            raise GeometryMismatch("t_max must be positive and finite")

    @property
    def dt(self) -> float:
        return 2.0 * self.t_max / (self.n_t - 1)

    @property
    def detector(self) -> tuple[tuple[int, float], ...]:
        return ((self.n_t, self.dt),)

    @property
    def reach(self) -> float:
        return self.t_max

    @cached_property
    def ts(self) -> np.ndarray:
        return np.linspace(-self.t_max, self.t_max, self.n_t)

    @cached_property
    def cell_measure(self) -> np.ndarray:
        return self.direction_weights[:, :, None] * self.dt

    def slice_frequencies(self, rows: slice = slice(None)) -> np.ndarray:
        """Frequencies of the centered offset spectra of azimuth ``rows``, (..., n_t, 3)."""
        dtau = 1.0 / (self.n_t * self.dt)
        taus = (np.arange(self.n_t) - self.n_t // 2) * dtau
        return self.normals[rows][:, :, None, :] * taus[None, None, :, None]


@dataclass(frozen=True)
class LineGeometry(DirectionChart):
    """Midpoint direction grid plus a centered square detector grid."""

    n_u: int = 64
    n_v: int = 64
    u_max: float = 4.8

    kind = "line"
    sinogram_type = LineSinogram
    power = 0.5  # |nu|^(1/2) across the detector unitarizes the line transform
    characters = CharacterSet.line()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_u < 2 or self.n_v < 2:
            raise GeometryMismatch("need at least 2 detector samples per axis")
        if not (np.isfinite(self.u_max) and self.u_max > 0.0):
            raise GeometryMismatch("u_max must be positive and finite")

    @property
    def du(self) -> float:
        return 2.0 * self.u_max / self.n_u

    @property
    def dv(self) -> float:
        return 2.0 * self.u_max / self.n_v

    @property
    def detector(self) -> tuple[tuple[int, float], ...]:
        return ((self.n_u, self.du), (self.n_v, self.dv))

    @property
    def reach(self) -> float:
        return self.u_max

    @cached_property
    def us(self) -> np.ndarray:
        return (np.arange(self.n_u) - (self.n_u - 1) / 2.0) * self.du

    @cached_property
    def vs(self) -> np.ndarray:
        return (np.arange(self.n_v) - (self.n_v - 1) / 2.0) * self.dv

    @cached_property
    def frames(self) -> np.ndarray:
        """Reference frames, shape (n_theta, n_phi, 3, 3); column 2 is the direction."""
        out = np.empty((self.n_theta, self.n_phi, 3, 3))
        for i, th in enumerate(self.thetas):
            for j, ph in enumerate(self.phis):
                out[i, j] = rotation_from_angles(th, ph)
        return out

    @cached_property
    def cell_measure(self) -> np.ndarray:
        return self.direction_weights[:, :, None, None] * self.du * self.dv / np.pi

    def slice_frequencies(self, rows: slice = slice(None)) -> np.ndarray:
        """Frequencies of the centered detector spectra of azimuth ``rows``, (..., n_u, n_v, 3)."""
        nu_u = (np.arange(self.n_u) - self.n_u // 2) / (self.n_u * self.du)
        nu_v = (np.arange(self.n_v) - self.n_v // 2) / (self.n_v * self.dv)
        e1 = self.frames[rows, :, :, 0]
        e2 = self.frames[rows, :, :, 1]
        return (
            e1[:, :, None, None, :] * nu_u[None, None, :, None, None]
            + e2[:, :, None, None, :] * nu_v[None, None, None, :, None]
        )


# Geometry classes by the kind name that sinogram files store.
GEOMETRY_KINDS = {g.kind: g for g in (PlaneGeometry, LineGeometry)}


def _check_reach(v: Volume, geometry: DirectionChart) -> None:
    r = v.support_radius if v.support_radius is not None else v.half_extent
    if geometry.reach < r - 1e-9:
        raise GeometryMismatch(
            f"the {geometry.kind} detector extends to {geometry.reach:g} but the "
            f"field may be nonzero out to radius {r:g}; integrals would be truncated"
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
    v: Volume, geometry: DirectionChart, axes: list[tuple[np.ndarray, float, float, int]]
) -> Sinogram:
    """Splat-and-deconvolve projection shared by the plane and line transforms.

    Each detector axis is ``(directions, origin, step, n)``: ``directions``
    holds one unit vector per direction of the chart in C order, shape
    (n_dir, 3), and the detector samples along that axis sit at ``origin + k
    * step`` for ``k < n``.  Raises :class:`GeometryMismatch` when the
    geometry's reach cannot cover the field's support.
    """
    _check_reach(v, geometry)
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
    return geometry.sinogram_type(out.reshape(geometry.shape), geometry)


def radon_plane(v: Volume, geometry: PlaneGeometry) -> PlaneSinogram:
    """Plane-integral transform of a volume.

    Raises :class:`GeometryMismatch` when the offset range cannot cover the
    field's support.
    """
    g = geometry
    return _project(v, g, [(g.normals.reshape(-1, 3), -g.t_max, g.dt, g.n_t)])


def xray(v: Volume, geometry: LineGeometry) -> LineSinogram:
    """Line-integral (X-ray) transform of a volume."""
    g = geometry
    frames = g.frames.reshape(-1, 3, 3)
    return _project(
        v,
        g,
        [
            (frames[:, :, 0], g.us[0], g.du, g.n_u),
            (frames[:, :, 1], g.vs[0], g.dv, g.n_v),
        ],
    )


def _quadrature_nodes(v: Volume, step: float | None) -> tuple[np.ndarray, float]:
    """Midpoint nodes of spacing ``step`` (default half a voxel) spanning the volume's diagonal."""
    if step is None:
        step = 0.5 * v.spacing
    half = v.half_extent * np.sqrt(3.0)
    m = int(np.ceil(2.0 * half / step))
    return (np.arange(m) + 0.5) * step - half, step


def plane_integral(v: Volume, label: PlaneLabel, step: float | None = None) -> float:
    """Integral of a volume over one labelled plane by direct 2-D quadrature.

    The in-plane frame is rebuilt from the chart representative of the label's
    normal, so equivalent labels (antipodal normal, negated offset) integrate
    the identical point set up to float rounding.
    """
    theta, phi, sign = canonicalize_direction(unit_normal(label.theta, label.phi))
    e1, e2, normal = rotation_from_angles(theta, phi).T
    s, step = _quadrature_nodes(v, step)
    pts = sign * label.t * normal + s[:, None, None] * e1 + s[None, :, None] * e2
    return float(np.sum(resample(v, pts)) * step * step)


def line_integral(v: Volume, label: LineLabel, step: float | None = None) -> float:
    """Integral of a volume along one labelled line by direct 1-D quadrature."""
    theta, phi, _ = canonicalize_direction(unit_normal(label.theta, label.phi))
    s, step = _quadrature_nodes(v, step)
    pts = label.offset[None, :] + s[:, None] * unit_normal(theta, phi)[None, :]
    return float(np.sum(resample(v, pts)) * step)


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


def _linear_taps(pos: np.ndarray, n: int, periodic: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """The two linear-interpolation taps ``(index, weight)`` at fractional indices ``pos``.

    On an axis of ``n`` samples, indices wrap when ``periodic``; otherwise
    taps off the axis weigh zero (at a clipped index).
    """
    k0 = np.floor(pos).astype(np.int64)
    w = pos - k0
    taps = []
    for k, wk in ((k0, 1.0 - w), (k0 + 1, w)):
        if periodic:
            k = np.mod(k, n)
        else:
            wk = np.where((k >= 0) & (k < n), wk, 0.0)
            k = np.clip(k, 0, n - 1)
        taps.append((k, wk))
    return taps


def _interp_nodes(
    data: np.ndarray, ii: np.ndarray, jj: np.ndarray, positions: list[np.ndarray]
) -> np.ndarray:
    """Multilinear interpolation, zero outside, in the trailing axes of ``data[ii, jj]``.

    ``positions`` holds the fractional indices along each trailing axis; the
    corners are summed with the first axis varying fastest.
    """
    axes = [_linear_taps(pos, n, False) for pos, n in zip(positions, data.shape[2:])]
    acc = None
    for corner in itertools.product(*reversed(axes)):
        corner = corner[::-1]
        weight = reduce(np.multiply, (wk for _, wk in corner))
        term = weight * data[(ii, jj, *(k for k, _ in corner))]
        acc = term if acc is None else acc + term
    return acc


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
        acc = acc + w * _interp_nodes(profiles, ii, jj, [pos])
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
        acc = acc + w * _interp_nodes(images, ii, jj, [pu, pv])
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


def _padded_t_spectra(s: PlaneSinogram, pad: float) -> tuple[np.ndarray, float, float]:
    """Per-direction offset spectra on a pad-times finer frequency axis.

    The offsets are zero-padded to ``n_pad = round(pad * n_t)`` samples, and
    index ``k`` holds frequency ``(k - n_pad // 2) / (n_pad * dt)`` in the
    ``exp(-2 pi i tau t)`` convention of :func:`simrad.grid.dft3`.  Returns
    (spectra, frequency step, offset of the padded grid's first node).
    """
    g = s.geometry
    n_pad = int(round(pad * g.n_t))
    data = np.zeros((g.n_theta, g.n_phi, n_pad))
    lo = (n_pad - g.n_t) // 2
    data[:, :, lo : lo + g.n_t] = s.data
    t0 = g.ts[0] - lo * g.dt
    dtau = 1.0 / (n_pad * g.dt)
    k = np.arange(n_pad) - n_pad // 2
    spec = np.fft.fftshift(np.fft.fft(data, axis=-1), axes=-1)
    return spec * g.dt * np.exp(-2j * np.pi * dtau * k * t0), dtau, t0


def _padded_uv_spectra(
    s: LineSinogram, pad: float
) -> tuple[np.ndarray, float, float, float, float]:
    """Per-direction detector spectra on pad-times finer frequency axes.

    The 2-D analog of :func:`_padded_t_spectra`.  Returns (spectra, both
    frequency steps, both padded-grid origins).
    """
    g = s.geometry
    nu_pad = int(round(pad * g.n_u))
    nv_pad = int(round(pad * g.n_v))
    lou = (nu_pad - g.n_u) // 2
    lov = (nv_pad - g.n_v) // 2
    dnu = 1.0 / (nu_pad * g.du)
    dnv = 1.0 / (nv_pad * g.dv)
    ku = np.arange(nu_pad) - nu_pad // 2
    kv = np.arange(nv_pad) - nv_pad // 2
    u0 = g.us[0] - lou * g.du
    v0 = g.vs[0] - lov * g.dv
    phase = (
        np.exp(-2j * np.pi * dnu * ku * u0)[:, None]
        * np.exp(-2j * np.pi * dnv * kv * v0)
        * (g.du * g.dv)
    )
    spec = np.zeros((g.n_theta, g.n_phi, nu_pad, nv_pad), dtype=complex)
    buf = np.zeros((g.n_phi, nu_pad, nv_pad))
    for i in range(g.n_theta):
        buf[:] = 0.0
        buf[:, lou : lou + g.n_u, lov : lov + g.n_v] = s.data[i]
        spec[i] = np.fft.fftshift(np.fft.fft2(buf, axes=(-2, -1)), axes=(-2, -1)) * phase
    return spec, dnu, dnv, u0, v0


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
    frequency axis of ``_padded_t_spectra`` at pad 1; equality of the two
    (up to interpolation error) is the projection-slice property.
    """
    return _sample_spectrum3(_padded_spectrum(v, pad_factor), geometry.slice_frequencies())


def fourier_slice_line(
    v: Volume, geometry: LineGeometry, pad_factor: int = 2
) -> np.ndarray:
    """Volume spectrum sampled on each direction's perpendicular frequency plane.

    Returns shape (n_theta, n_phi, n_u, n_v) complex on the centered detector
    frequency axes of ``_padded_uv_spectra`` at pad 1.
    """
    return _sample_spectrum3(_padded_spectrum(v, pad_factor), geometry.slice_frequencies())


def kind_routes(geometry: DirectionChart) -> tuple:
    """(forward transform, volume-side Fourier slice, sinogram-side spectra) of a kind.

    The one place this module selects between planes and lines.  The names
    resolve at each call, so a rebinding of this module's functions (as the
    benchmark's tracer does) reaches the callers too.
    """
    if geometry.kind == "plane":
        return radon_plane, fourier_slice_plane, _padded_t_spectra
    return xray, fourier_slice_line, _padded_uv_spectra


# ---------------------------------------------------------------------------
# Sinogram norms and pairings
# ---------------------------------------------------------------------------


def sinogram_norm(s: Sinogram) -> float:
    """L2 norm under the label-space measure (with the line-space ``1/pi``)."""
    return float(np.sqrt(np.sum(s.geometry.cell_measure * s.data * s.data)))


def sinogram_inner(s1: Sinogram, s2: Sinogram) -> float:
    """L2 inner product of two sinograms on identical geometries."""
    if type(s1) is not type(s2) or s1.geometry != s2.geometry:
        raise GeometryMismatch("sinograms live on different sampling geometries")
    return float(np.sum(s1.geometry.cell_measure * s1.data * s2.data))
