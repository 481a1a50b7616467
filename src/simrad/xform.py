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
lines), so the refined grid never exists for more than one chunk.  A
projection refuses a field whose nonzero voxels reach farther from the
coordinate origin than the detector does, so every cubic tap lands on the
detector or in the guard cells just past its ends, which the matrices ignore.

The two transforms are two instances of one construction, and everything
that differs by kind, short of the math itself, is a fact of the geometry:
both geometries share one direction chart (:class:`DirectionChart`) and
their sinograms one validated container (:class:`Sinogram`).  Where the math
does differ (the projector front ends and the padded sinogram spectra), this
module holds both versions, and :func:`simrad.invert.kind_steps` is the one
place that selects between them; the volume-side Fourier slice
(:func:`fourier_slice`) reads the kind from the geometry's
``slice_frequencies`` alone.

``sample_plane_profiles`` and ``sample_line_images`` evaluate
direction-indexed profiles or detector images (sinograms or their spectra)
at arbitrary (direction, offset) queries by reducing the direction to the
chart and interpolating bilinearly across the gluing: interpolation cells
that stick out of the chart square wrap to the matching rows/columns on the
far side, flipping the signed plane offset whenever the represented normal
flips sign.  The samplers and the wavelet coefficients read the chart
through one stencil (``_chart_stencil``), and the samplers read the detector
through one multilinear lookup (``_interp_nodes``), so the antipodal
bookkeeping lives in exactly one place.  The lookup uses the
splat's idiom in reverse: it gathers from a copy of the data with
``GATHER_GUARD`` zero cells past each end of every detector or offset axis
(``_gather_window``; only the cells the queries can reach are copied), clamps
each floor cell into the copy, computes one flat index per query and reads
every tap at a constant offset from it.  The queries are taken in chunks
sized by ``SPLAT_CHUNK_BYTES`` (``_query_chunks``), whole output directions or
stencil rows at a time, so the per-query arrays stay in cache.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property, reduce

import numpy as np

from .errors import GeometryMismatch
from .grid import Spectrum3D, Volume, _trilinear, dft3, resample
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
# Slab of the plane backprojection's (N^3, n_phi) offset block that every
# direction of an azimuth row interpolates before the walk moves on
# (``backproject_plane``).  It sits well inside a 2-4 MiB L2 while keeping the
# per-call cost of np.interp small: on a 2-core Xeon (4 MiB L2 per core),
# 256 KiB / 1 MiB / 2 MiB slabs took 1.44 / 1.08 / 1.12 s at N=48 (24x24
# directions, 97 offsets) and 6.2 / 4.9 / 5.0 s at N=64 (32x32, 129), against
# 1.66 s and 10.4 s for one pass over the whole block per direction.
BACKPROJECT_SLAB_BYTES = 1 << 20
# Internal refinement of projector detector grids.  Splatted samples taken at
# the output rate alias voxel-lattice harmonics (at radii |m| / voxel, where
# the projected comb carries O(1) energy for directions nearly aligned with a
# rational lattice direction m) back into the kept band.  Refinement by 3
# pushes every fold-back either beyond the cutoff or onto near-zeros of the
# cubic-spline kernel response sinc^4, leaving worst-case alignment artifacts
# ~1e-5 for unit-bandwidth fields; a triangular kernel (sinc^2) at the output
# rate would leave ~1e-2.
SPLAT_REFINE = 3
# Cells past each end of a refined detector axis of n_f samples that collect
# the cubic taps falling off it.  A voxel within the geometry's reach sits at
# refined position [0, n_f - 1] on a plane offset axis and [-1.5, n_f + 0.5]
# on a line detector axis (its samples are cell centres), so its taps, at
# offsets -1..2 around the floor cell, land in [-3, n_f + 2].
SPLAT_GUARD = 4
# Zero cells past each end of a detector or offset axis in the chart
# samplers' copy of the data.  A query's floor cell is clamped to
# [-GATHER_GUARD, n], so both of its linear taps land on the axis or in them.
GATHER_GUARD = 2
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
    the taps falling off it, which the caller keeps within the guard.  The
    flat index of each point's lowest tap is computed once, and every tap
    combination is a constant offset from it.
    """
    m = positions[0].shape[1]
    shape = [n + 2 * SPLAT_GUARD for n in lengths]
    strides = [int(np.prod(shape[a + 1 :])) for a in range(len(shape))]
    size = m * int(np.prod(shape))
    k = np.arange(m)[None, :] * (size // m)
    taps = []
    for pos, stride in zip(positions, strides):
        cell = np.floor(pos)
        taps.append([((off + 1) * stride, tap) for off, tap in _cubic_taps(pos - cell)])
        k = k + (cell.astype(np.int64) + SPLAT_GUARD - 1) * stride
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
    * step`` for ``k < n``.  Raises :class:`GeometryMismatch` when an active
    voxel lies farther from the coordinate origin than the geometry's reach.
    """
    pts, f = _active_voxels(v)
    radius = float(np.sqrt(np.max(np.sum(pts * pts, axis=1), initial=0.0)))
    if geometry.reach < radius - 1e-9:
        raise GeometryMismatch(
            f"the {geometry.kind} detector extends to {geometry.reach:g} but the "
            f"field is nonzero out to radius {radius:g}; integrals would be truncated"
        )
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

    Raises :class:`GeometryMismatch` when a nonzero voxel lies farther than
    ``t_max`` from the coordinate origin.
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


def _quadrature_nodes(v: Volume) -> tuple[np.ndarray, float]:
    """Midpoint nodes half a voxel apart spanning the volume's diagonal, and their spacing."""
    step = 0.5 * v.spacing
    half = v.half_extent * np.sqrt(3.0)
    m = int(np.ceil(2.0 * half / step))
    return (np.arange(m) + 0.5) * step - half, step


def plane_integral(v: Volume, label: PlaneLabel) -> float:
    """Integral of a volume over one labelled plane by direct 2-D quadrature.

    The in-plane frame is rebuilt from the chart representative of the label's
    normal, so equivalent labels (antipodal normal, negated offset) integrate
    the identical point set up to float rounding.
    """
    theta, phi, sign = canonicalize_direction(unit_normal(label.theta, label.phi))
    e1, e2, normal = rotation_from_angles(theta, phi).T
    s, step = _quadrature_nodes(v)
    pts = sign * label.t * normal + s[:, None, None] * e1 + s[None, :, None] * e2
    return float(np.sum(resample(v, pts)) * step * step)


def line_integral(v: Volume, label: LineLabel) -> float:
    """Integral of a volume along one labelled line by direct 1-D quadrature."""
    theta, phi, _ = canonicalize_direction(unit_normal(label.theta, label.phi))
    s, step = _quadrature_nodes(v)
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


def _query_chunks(shape: tuple[int, ...]):
    """Index tuples that split a C-ordered query array of ``shape`` into chunks.

    A chunk holds as many queries as fit one float64 each in
    ``SPLAT_CHUNK_BYTES`` (at least one), as whole trailing sub-arrays cut
    along one axis, so the chart samplers' per-query arrays stay in cache.
    """
    limit = SPLAT_CHUNK_BYTES // 8
    axis, inner = len(shape), 1
    while axis > 0 and inner * shape[axis - 1] <= limit:
        axis -= 1
        inner *= shape[axis]
    if axis == 0:
        yield ()
        return
    step = max(1, limit // inner)
    for lead in np.ndindex(*shape[: axis - 1]):
        for start in range(0, shape[axis - 1], step):
            yield (*lead, slice(start, start + step))


def _chunk(a: np.ndarray, index: tuple, ndim: int, trailing: int = 0) -> np.ndarray:
    """The part of ``a`` that chunk ``index`` of an ``ndim``-axis query array covers.

    The leading axes of ``a`` (all but ``trailing``) broadcast against the
    query shape; an axis of length 1 is kept whole.
    """
    a = a.reshape((1,) * (ndim + trailing - a.ndim) + a.shape)
    return a[
        tuple(
            i if a.shape[ax] > 1 else (0 if isinstance(i, int) else slice(None))
            for ax, i in enumerate(index)
        )
    ]


def _gather_window(data: np.ndarray, reach: float, axes: list[tuple[float, float]]) -> tuple:
    """Zero-guarded copy of the cells of ``data``'s trailing axes that queries can read.

    Trailing axis ``a`` has ``n`` samples at ``origin + k * step`` for
    ``axes[a] = (origin, step)``, and no query lies farther than ``reach``
    from 0 along it.  The copy covers the cells ``[lo, hi)`` of the
    zero-extended axis, one cell wider than the queried span on each side and
    within ``[-GATHER_GUARD, n + GATHER_GUARD)``, so with the whole axis in
    reach it is the axis plus ``GATHER_GUARD`` zero cells at each end.
    Returns the copy and the ``lo`` of each axis.
    """
    lows, lengths, src, dst = [], [], [], []
    for (origin, step), n in zip(axes, data.shape[2:]):
        lo = int(np.clip(np.floor((-reach - origin) / step) - 1, -GATHER_GUARD, n))
        hi = int(np.clip(np.floor((reach - origin) / step) + 3, lo + 2, n + GATHER_GUARD))
        a = max(lo, 0)
        b = max(min(hi, n), a)
        lows.append(lo)
        lengths.append(hi - lo)
        src.append(slice(a, b))
        dst.append(slice(a - lo, b - lo))
    window = np.zeros(data.shape[:2] + tuple(lengths), dtype=data.dtype)
    window[(slice(None), slice(None), *dst)] = data[(slice(None), slice(None), *src)]
    return window, lows


def _interp_nodes(
    window: tuple, ii: np.ndarray, jj: np.ndarray, positions: list[np.ndarray]
) -> np.ndarray:
    """Multilinear interpolation, zero outside, on the trailing axes of windowed ``data[ii, jj]``.

    ``window`` is ``_gather_window``'s copy of ``data``, and ``positions``
    holds the fractional indices along each trailing axis of ``data``.  Each
    floor cell is clamped into the copy, which the span bounds make exact, and
    one flat index per query addresses its lowest corner; the other corners
    are constant offsets from it, summed with the first axis varying fastest.
    """
    copy, lows = window
    strides = [int(np.prod(copy.shape[a + 1 :])) for a in range(copy.ndim)]
    k = (ii * copy.shape[1] + jj) * strides[1]
    axes = []
    for pos, lo, m, stride in zip(positions, lows, copy.shape[2:], strides[2:]):
        cell = np.floor(pos)
        w = pos - cell
        k = k + (np.clip(cell, lo, lo + m - 2) - lo).astype(np.int64) * stride
        axes.append([(0, 1.0 - w), (stride, w)])
    flat = copy.reshape(-1)
    acc = None
    for corner in itertools.product(*reversed(axes)):
        corner = corner[::-1]
        weight = reduce(np.multiply, (wk for _, wk in corner))
        term = weight * flat[sum(off for off, _ in corner) :].take(k)
        acc = term if acc is None else acc + term
    return acc


def sample_plane_profiles(
    profiles: np.ndarray,
    directions: np.ndarray,
    radial: np.ndarray,
    radial_origin: float,
    radial_step: float,
) -> np.ndarray:
    """Sample direction-indexed radial profiles at arbitrary signed queries.

    ``profiles`` has shape (n_theta, n_phi, M) over the chart's midpoint
    direction grid, whose size it gives, with a uniform signed radial axis
    (offset or frequency).
    Queries are (direction, signed radial value) pairs; directions are reduced
    to the chart and the radial value flips sign together with the normal.
    """
    directions = np.asarray(directions, dtype=float)
    radial = np.asarray(radial, dtype=float)
    shape = np.broadcast_shapes(directions.shape[:-1], radial.shape)
    reach = float(np.max(np.abs(radial), initial=0.0))
    window = _gather_window(profiles, reach, [(radial_origin, radial_step)])
    out = np.empty(shape, dtype=np.result_type(profiles, float))
    for index in _query_chunks(shape):
        rad = _chunk(radial, index, len(shape))
        acc = 0.0
        for ii, jj, sign, w in _chart_stencil(
            _chunk(directions, index, len(shape), 1), *profiles.shape[:2]
        ):
            pos = (sign * rad - radial_origin) / radial_step
            acc = acc + w * _interp_nodes(window, ii, jj, [pos])
        out[index] = acc
    return out


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
    directions = np.asarray(directions, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    shape = np.broadcast_shapes(directions.shape[:-1], vectors.shape[:-1])
    # a unit frame axis carries no vector farther than its length
    reach = float(np.sqrt(np.max(np.einsum("...i,...i->...", vectors, vectors), initial=0.0)))
    window = _gather_window(images, reach, [(u_origin, du), (v_origin, dv)])
    out = np.empty(shape, dtype=np.result_type(images, float))
    for index in _query_chunks(shape):
        vec = np.moveaxis(_chunk(vectors, index, len(shape), 1), -1, 0).copy()
        acc = 0.0
        for ii, jj, _sign, w in _chart_stencil(
            _chunk(directions, index, len(shape), 1), g.n_theta, g.n_phi
        ):
            # dot products with the node's frame axes, summed in axis order
            e1, e2 = np.moveaxis(g.frames[ii, jj, :, :2], (-2, -1), (1, 0))
            pu = (vec[0] * e1[0] + vec[1] * e1[1] + vec[2] * e1[2] - u_origin) / du
            pv = (vec[0] * e2[0] + vec[1] * e2[1] + vec[2] * e2[2] - v_origin) / dv
            acc = acc + w * _interp_nodes(window, ii, jj, [pu, pv])
        out[index] = acc
    return out


# ---------------------------------------------------------------------------
# Backprojection and Fourier-domain views
# ---------------------------------------------------------------------------


def backproject_plane(s: PlaneSinogram, n: int, spacing: float) -> Volume:
    """Adjoint-style sum over directions: ``integral of F(n, n . x) dn`` (half-sphere).

    Each azimuth row's plane offsets come from one BLAS product over all
    voxels, ``pts @ normals[i].T`` of shape (N^3, n_phi): a product over a
    slab of voxels, or of the transposed operands, is not guaranteed to round
    the same way.  The block is then walked in contiguous slabs of voxels of
    ``BACKPROJECT_SLAB_BYTES`` (at least one voxel), and every direction of
    the row is interpolated on one slab before the next, so the strided
    column reads stay in cache instead of sweeping the whole block once per
    direction.  Each voxel still adds its terms in the same direction order,
    so the sum is bitwise that of one ``np.interp`` per direction over all
    voxels.  Raises :class:`GeometryMismatch` for line data.
    """
    g = s.geometry
    if g.kind != "plane":
        raise GeometryMismatch(
            "filtered backprojection needs plane data; use invert-fourier for lines"
        )
    grid = Volume(np.zeros((n, n, n)), spacing)
    pts = grid.coordinate_grid().reshape(-1, 3)
    acc = np.zeros(pts.shape[0])
    weights = g.direction_weights
    slab = max(1, BACKPROJECT_SLAB_BYTES // (8 * g.n_phi))
    for i in range(g.n_theta):
        block = pts @ g.normals[i].T  # (npts, n_phi)
        for lo in range(0, len(acc), slab):
            rows, out = block[lo : lo + slab], acc[lo : lo + slab]
            for j in range(g.n_phi):
                out += weights[i, j] * np.interp(
                    rows[:, j], g.ts, s.data[i, j], left=0.0, right=0.0
                )
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
    re = _trilinear(spec.data.real, idx)
    im = _trilinear(spec.data.imag, idx)
    return (re + 1j * im).reshape(freqs.shape[:-1])


def fourier_slice(spectrum: Spectrum3D, geometry: DirectionChart) -> np.ndarray:
    """A volume's spectrum sampled at the geometry's projection-slice points.

    ``spectrum`` is the volume's spectrum, usually zero-padded
    (``_padded_spectrum``).  Returns shape ``geometry.shape`` complex: the
    frequency ray of each plane direction or the perpendicular frequency
    plane of each line direction, on the centered axes of the sinogram
    spectra at pad 1; equality of the two (up to interpolation error) is the
    projection-slice property.
    """
    return _sample_spectrum3(spectrum, geometry.slice_frequencies())


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
