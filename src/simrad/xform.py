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

The forward projectors splat: each point deposits its value with cubic
B-spline weights on an axis refined ``SPLAT_REFINE`` times, which computes the
exact projection of the sampled field convolved with a kernel of response
``sinc^4``; a Fourier-domain division by that response (with a smooth
low-pass guard below the voxel Nyquist rate) removes the blur.  For smooth,
grid-resolved fields this is accurate to well below the quadrature bias of
sample-the-plane schemes, because the only remaining errors are spectral
truncation and aliasing, both controlled by the sampling margins.

The division is a circulant operator on each refined axis, and only every
``SPLAT_REFINE``-th output sample is kept, so each axis's deconvolution is
one small real matrix: the kept rows of ``ifft(lowpass / sinc^4 * fft)``, of
shape (n, SPLAT_REFINE * (n - 1) + 1).  Both projectors factor through the
azimuth rows, the classical reduction of the 3-D Radon and X-ray transforms
to 2-D ones (Marr, Chen and Lauterbur, 1981; Natterer and Wuebbeling, 2001).
With ``s = x cos(theta_i) + y sin(theta_i)``, row i's normals meet a voxel at
``sin(phi) s + cos(phi) z``, and its lines lie in the planes of constant ``v =
-x sin(theta_i) + y cos(theta_i)``, where the line at polar angle phi meets it
at ``u = cos(phi) s - sin(phi) z``.  So per row the voxels are splatted once
into a table on the voxel z planes and an s grid of step h (and, for lines,
the detector's v axis), and the table is carried to each of the row's
directions, whose positions on it do not depend on the row: ``radon_plane``
splats it along t with taps computed once per call, and ``xray`` multiplies
it by one matrix, built once per call, that holds per polar angle the table
points' cubic taps folded into the u deconvolution.  That makes n_theta
N_act deposits, not n_theta * n_phi * N_act, plus per-direction work on the
table.  A projection refuses a field whose nonzero voxels reach farther from
the coordinate origin than the detector does, so every cubic tap lands on an
axis or in the guard cells just past its ends, which the matrices ignore.

The two transforms are two instances of one construction, and everything
that differs by kind, short of the math itself, is a fact of the geometry:
both geometries share one direction chart (:class:`DirectionChart`) and
their sinograms one validated container (:class:`Sinogram`).  The geometry
owns its detector, ``(n, first sample, step)`` per axis, and the axes' unit
vectors at every chart direction (``detector_directions``: the normals for
planes, the frame axes e1 and e2 for lines).  It owns the projection-slice
map too: ``slice_frequencies`` places the detector spectra in 3-D, and
``slice_query`` names the direction and query that read a 3-D frequency.
The padded detector spectra of both kinds are one step too
(``_padded_spectra``): each is a slice of the volume's 3-D spectrum, taken
over the detector axes with :func:`simrad.grid.dft3`'s centered-DFT formula.

``sample_chart`` evaluates direction-indexed profiles or detector images
(sinograms or their spectra) at rows of queries, one row per direction, by
reducing the direction to the chart and interpolating bilinearly across the
gluing: cells that stick out of the chart square wrap to the matching
rows/columns on the far side, where the represented normal may flip; the
gluing is a fact of the geometry (``glued``).  The queries are vectors (a
plane's signed offset, a line's 3-vector) placed on a stencil node's detector
by their dot products with the node's axes, a fact of the kind
(``node_axes``): the normal's sign for planes, so the offset flips with the
normal, and the node's frame axes e1, e2 for lines.  The sampler and the
wavelet coefficients read the chart through one stencil (``_chart_stencil``),
so the antipodal bookkeeping lives in exactly one place, and the sampler reads
the detector through the package's one gather loop (:mod:`simrad.grid`'s
``_gather``) on linear taps, as the trilinear resampling does.  It reads a copy
of the cells the queries can reach, with zero cells past each end of every
axis (``_guard_window``), clamps each floor cell into the copy, computes one
flat index per query and reads every tap at a constant offset from it.  Whole
directions are read in chunks sized by ``SPLAT_CHUNK_BYTES``, so the per-query
arrays stay in cache.  The data need not hold the whole chart: it holds the
nodes named by their flat indices, and a slot table maps each node the stencil
reaches to its row.  Direct Fourier inversion reads line spectra only at the
nodes around the directions ``slice_query`` returns (``_stencil_nodes``: for
lines, those near the equator or the y-z plane), so it builds the padded
spectra, and the sampler's window holds them, for those nodes only.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property, reduce

import numpy as np

from .errors import GeometryMismatch
from .grid import (
    GATHER_GUARD,
    SPLAT_CHUNK_BYTES,
    Spectrum3D,
    Volume,
    _centered_dft,
    _cubic_corners,
    _gather,
    _guard_window,
    _masked_gather,
    dft3,
    resample,
)
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
# Steps of the plane backprojection's per-row s axis per voxel spacing
# (``backproject_plane``).  Against one np.interp per direction at every
# voxel (n=33, 16x16 directions, 65 offsets) its cubic table read differs by
# 1.9e-2 / 8.6e-3 / 2.9e-3 at 2 / 4 / 8 steps.  At 4 the N=64 FBP interior
# errors fall slightly (Gaussian 9.45e-3 -> 9.38e-3, mixture 1.664e-2 ->
# 1.647e-2) in a tenth of the one-stage sum's time.
BACKPROJECT_REFINE = 4
# Internal refinement of projector detector grids.  Splatted samples taken at
# the output rate alias voxel-lattice harmonics (at radii |m| / voxel, where
# the projected comb carries O(1) energy for directions nearly aligned with a
# rational lattice direction m) back into the kept band.  Refinement by 3
# pushes every fold-back either beyond the cutoff or onto near-zeros of the
# cubic-spline kernel response sinc^4, leaving worst-case alignment artifacts
# ~1e-5 for unit-bandwidth fields; a triangular kernel (sinc^2) at the output
# rate would leave ~1e-2.
SPLAT_REFINE = 3
# Cells past each end of a refined axis of n_f samples that collect the cubic
# taps falling off it.  A voxel within the geometry's reach sits at refined
# position [-1.5, n_f + 0.5] on a line detector's v axis (its samples are cell
# centres), so its taps, at offsets -1..2 around the floor cell, land in
# [-3, n_f + 2].  The tables' s axes hold every voxel in [0, n_f - 1]; the
# plane offset axis and the line u axis add cells for the table's reach past
# the detector.
SPLAT_GUARD = 4
# Voxels with |f| below this fraction of the field's maximum are skipped by
# the projectors; the dropped mass is below double rounding noise.
PROJECTOR_DROP = 1e-16


@dataclass(frozen=True)
class DirectionChart:
    """Midpoint direction grid on the chart square, shared by both geometries.

    Each geometry adds its detector and the facts of its kind that generic
    code reads instead of testing which kind it holds: ``kind``,
    ``sinogram_type``, unitarization ``power``, the direct-Fourier
    ``spectral_pad``, scale ``characters``, the ``detector`` axes as ``(n,
    first sample, step)`` triples, their unit vectors at every chart
    direction ``detector_directions`` (each (n_theta, n_phi, 3)), ``reach``,
    label-space ``cell_measure``, the projection-slice points
    ``slice_frequencies`` and their inverse ``slice_query``, and the
    sampler's per-node detector axes ``node_axes``.  ``glued`` (a class
    attribute, so ``from_keys`` never reads it) is False on a grid that
    stores each chart row's antipodes after the chart, azimuth over [0, 2 pi).
    """

    glued = True

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
        return (self.n_theta, self.n_phi, *(n for n, _, _ in self.detector))

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
    # Zero-padding factor of the offset spectra that direct Fourier inversion
    # reads.  Off-center content makes the spectra oscillate (about 0.7 rad
    # per unpadded frequency cell for a unit-offset feature), and linear
    # interpolation between samples that far apart in phase biases magnitudes
    # by several percent; padding refines the frequency step until the
    # residual is dominated by the direction grid instead.
    spectral_pad = 4.0
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
    def detector(self) -> tuple[tuple[int, float, float], ...]:
        return ((self.n_t, -self.t_max, self.dt),)

    @property
    def detector_directions(self) -> tuple[np.ndarray, ...]:
        return (self.normals,)

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

    def slice_query(self, W: np.ndarray, mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Directions and queries that read frequencies ``W`` (norms ``mag``): its ray, ``|W|``."""
        nz = mag > 0.0
        dirs = np.where(nz[:, None], W, [0.0, 0.0, 1.0])
        return dirs / np.where(nz, mag, 1.0)[:, None], mag[:, None]

    def node_axes(self, ii: np.ndarray, jj: np.ndarray, sign: np.ndarray) -> list:
        """Offset axis of chart nodes ``(ii, jj)``: the sign by which a signed offset flips."""
        return [[sign]]


@dataclass(frozen=True)
class LineGeometry(DirectionChart):
    """Midpoint direction grid plus a centered square detector grid."""

    n_u: int = 64
    n_v: int = 64
    u_max: float = 4.8

    kind = "line"
    sinogram_type = LineSinogram
    power = 0.5  # |nu|^(1/2) across the detector unitarizes the line transform
    # Smaller than the plane factor only because the padded 2-D spectra grow
    # quadratically in memory.
    spectral_pad = 2.0
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
    def detector(self) -> tuple[tuple[int, float, float], ...]:
        # us[0] and vs[0] bit for bit, without building the axes that shape does not need
        return (
            (self.n_u, -(self.n_u - 1) / 2.0 * self.du, self.du),
            (self.n_v, -(self.n_v - 1) / 2.0 * self.dv, self.dv),
        )

    @property
    def detector_directions(self) -> tuple[np.ndarray, ...]:
        return (self.frames[:, :, :, 0], self.frames[:, :, :, 1])

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
        e1, e2 = (d[rows] for d in self.detector_directions)
        return _detector_points(e1, e2, nu_u, nu_v)

    def slice_query(self, W: np.ndarray, mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Directions and queries that read frequencies ``W`` (norms ``mag``): ``W`` itself.

        The direction is perpendicular to ``W``: its cross product with
        whichever of z or x it is least aligned with.
        """
        ref = np.where(
            np.abs(W[:, 2:3]) < 0.9 * np.maximum(mag[:, None], 1e-300),
            [[0.0, 0.0, 1.0]],
            [[1.0, 0.0, 0.0]],
        )
        q = np.cross(ref, W)
        qn = np.linalg.norm(q, axis=-1)
        ok = qn > 0.0
        q = np.where(ok[:, None], q, [0.0, 1.0, 0.0])
        return q / np.where(ok, qn, 1.0)[:, None], W

    def node_axes(self, ii: np.ndarray, jj: np.ndarray, sign: np.ndarray) -> np.ndarray:
        """Detector axes e1, e2 of chart nodes ``(ii, jj)``, (2, 3, ...); lines ignore ``sign``."""
        return np.moveaxis(self.frames[ii, jj, :, :2], (-2, -1), (1, 0))


# Geometry classes by the kind name that sinogram files store.
GEOMETRY_KINDS = {g.kind: g for g in (PlaneGeometry, LineGeometry)}


def _detector_points(e1, e2, us, vs) -> np.ndarray:
    """``u e1 + v e2`` for each ``(u, v)`` in ``us x vs`` on (..., 3) axes: (..., n_u, n_v, 3)."""
    return e1[..., None, None, :] * us[:, None, None] + e2[..., None, None, :] * vs[:, None]


def _lowpass(freq_abs: np.ndarray, cutoff: float) -> np.ndarray:
    """Raised-cosine low-pass: 1 below the rolloff knee, 0 above the cutoff."""
    knee = (1.0 - ROLLOFF_FRACTION) * cutoff
    ramp = np.clip((freq_abs - knee) / (cutoff - knee), 0.0, 1.0)
    return 0.5 * (1.0 + np.cos(np.pi * ramp))


def _deconvolution_matrix(
    n_out: int, step: float, cutoff: float, applied: tuple[float, float] | None = None
) -> np.ndarray:
    """Deconvolve one refined detector axis and keep every ``SPLAT_REFINE``-th sample.

    On the ``n_f = SPLAT_REFINE * (n_out - 1) + 1`` refined samples of spacing
    ``step`` the deconvolution is the circulant ``ifft(lowpass / sinc^4 *
    fft)``; the result holds its rows ``[::SPLAT_REFINE]``, padded with
    ``SPLAT_GUARD`` zero columns on each side, which drop the taps that fell
    off the detector.  ``applied = (c, cut)`` names a low-pass
    ``_lowpass(c |freq|, cut)`` that the data already carries; the matrix
    divides it out wherever its own low-pass is nonzero, so the band is cut
    once.  The quotient stays in [0, 1] when ``c <= 1`` and ``cut >= cutoff``.
    """
    n_f = SPLAT_REFINE * (n_out - 1) + 1
    freq = np.fft.fftfreq(n_f, step)
    gain = _lowpass(np.abs(freq), cutoff)
    if applied is not None:
        c, cut = applied
        seen = _lowpass(c * np.abs(freq), cut)
        gain = np.divide(gain, seen, out=np.zeros(n_f), where=gain > 0.0)
    kernel = np.fft.ifft(gain / np.sinc(freq * step) ** 4).real
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


def _reached_voxels(v: Volume, geometry: DirectionChart) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates and values of the voxels that contribute above rounding noise.

    Raises ``ValueError`` when the data is not finite (``Volume`` checks it
    only at construction) and :class:`GeometryMismatch` when a contributing
    voxel lies past the geometry's ``reach``.
    """
    f = v.data.ravel()
    peak = np.max(np.abs(f))
    if not np.isfinite(peak):
        raise ValueError("volume data must be finite")
    mask = np.abs(f) > PROJECTOR_DROP * peak
    pts, f = v.coordinate_grid().reshape(-1, 3)[mask], f[mask]
    radius = float(np.sqrt(np.max(np.sum(pts * pts, axis=1), initial=0.0)))
    if geometry.reach < radius - 1e-9:
        raise GeometryMismatch(
            f"the {geometry.kind} detector extends to {geometry.reach:g} but the "
            f"field is nonzero out to radius {radius:g}; integrals would be truncated"
        )
    return pts, f


def _row_tables(
    v: Volume, pts: np.ndarray, reach: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axes of the row-factored projectors' per-row (z, s) tables.

    Returns the voxel z planes within ``reach``, the s grid at the voxel
    spacing that covers the grid's xy corners clipped to ``reach``, and the
    index of each point's plane.  Both axes come from the grid and the
    geometry, never from the data, so the projectors stay linear.
    """
    h = v.spacing
    z = v.axis_coords(2)
    z = z[np.abs(z) <= reach + 1e-9]  # the planes that can hold an active voxel
    corners = np.hypot(*np.meshgrid(v.axis_coords(0)[[0, -1]], v.axis_coords(1)[[0, -1]]))
    half = int(np.ceil(min(corners.max(), reach) / h))
    plane = np.rint((pts[:, 2] - z[:1]) / h).astype(np.int64)
    return z, np.arange(-half, half + 1) * h, plane


def radon_plane(v: Volume, geometry: PlaneGeometry) -> PlaneSinogram:
    """Plane-integral transform of a volume, one azimuth row at a time.

    Row i's normals meet a voxel at ``n . x = sin(phi) s + cos(phi) z``, with
    ``s = x cos(theta_i) + y sin(theta_i)``.  Stage A splats the active voxels
    along s into the row's table ``T_i(z, s)`` (at the voxel z planes, s at
    step ``h``) and deconvolves it; stage B splats the table along each
    normal's t and deconvolves the offset axis.  The table points' t do not
    depend on the row, so their cells and taps are computed once.  The table
    spans the grid's extents within ``t_max``, not the data's, so the
    transform is linear; stage B's offset axis is widened by the table's
    reach past ``t_max``, and zero columns of its matrix drop those taps.
    Raises :class:`GeometryMismatch` when a nonzero voxel lies farther than
    ``t_max`` from the coordinate origin.
    """
    g = geometry
    h = v.spacing
    pts, f = _reached_voxels(v, g)
    z, s_grid, plane = _row_tables(v, pts, g.t_max)

    step_s = h / SPLAT_REFINE
    mat_s = _deconvolution_matrix(s_grid.size, step_s, CUTOFF_FRACTION * 0.5 / h)
    mat_s *= h * h / step_s
    width_s = mat_s.shape[1]
    # lowest tap of each voxel on its z plane's row of the refined s table
    k_z = plane * width_s + SPLAT_GUARD - 1

    step_t = g.dt / SPLAT_REFINE
    reach = np.hypot(s_grid[-1], np.abs(z).max(initial=0.0))  # of the table's t positions
    widen = max(0, int(np.ceil((reach - g.t_max) / step_t)))
    mat_t = _deconvolution_matrix(g.n_t, step_t, CUTOFF_FRACTION * min(0.5 / h, 0.5 / g.dt))
    mat_t = np.pad(mat_t, ((0, 0), (widen, widen))) * (h * h / step_t)
    width_t = mat_t.shape[1]
    t = np.sin(g.phis)[:, None, None] * s_grid + np.cos(g.phis)[:, None, None] * z[:, None]
    t_pos = (t + g.t_max) / step_t + widen
    t_cell = np.floor(t_pos)
    # lowest tap of each (direction, table point) on its direction's refined t axis
    k_t = np.arange(g.n_phi)[:, None, None] * width_t + t_cell.astype(np.int64) + SPLAT_GUARD - 1
    k_t = k_t.ravel()
    taps_t = [(off + 1, tap) for off, tap in _cubic_taps(t_pos - t_cell)]

    out = np.empty(g.shape)
    for i, theta in enumerate(g.thetas):
        pos = (pts[:, 0] * np.cos(theta) + pts[:, 1] * np.sin(theta) - s_grid[0]) / step_s
        cell = np.floor(pos)
        k = k_z + cell.astype(np.int64)
        table = sum(
            np.bincount(k + off + 1, f * tap, minlength=z.size * width_s)
            for off, tap in _cubic_taps(pos - cell)
        )
        table = table.reshape(z.size, width_s) @ mat_s.T
        acc = sum(
            np.bincount(k_t + off, (table * tap).ravel(), minlength=g.n_phi * width_t)
            for off, tap in taps_t
        )
        out[i] = acc.reshape(g.n_phi, width_t) @ mat_t.T
    return PlaneSinogram(out, g)


def xray(v: Volume, geometry: LineGeometry) -> LineSinogram:
    """Line-integral (X-ray) transform of a volume, one azimuth row at a time.

    Row i's lines lie in the planes ``v = -x sin(theta_i) + y cos(theta_i)``,
    and within each the line of polar angle phi meets a voxel at ``u =
    cos(phi) s - sin(phi) z``, with ``s = x cos(theta_i) + y sin(theta_i)``:
    a 2-D Radon transform per plane.  Stage A splats the active voxels along
    s and v into the row's table ``T_i(z, s, v)`` (at the voxel z planes, s
    at step ``h``, v on the detector), one slab of z planes at a time through
    one buffer.  Stage B carries the table to every polar angle: a table
    point's u does not depend on the row, so its cubic taps, folded into the
    u deconvolution, make one matrix ``Q_j`` per angle, built once per call.
    ``Q_j`` also divides out the table's s low-pass as the line sees it,
    ``_lowpass(|cos(phi_j)| tau)``, so the band is cut once.  Since ``u(pi -
    phi, z, s) = u(phi, z, -s)``, ``Q`` holds the first half of the angles,
    and each row is one product ``Q @ [T_i, T_i reversed along s]``.  The
    table spans the grid's extents within ``u_max``, not the data's, so the
    transform is linear; stage B's u axis is widened by the table's reach
    past ``u_max``.  Raises :class:`GeometryMismatch` when an active voxel
    lies farther from the coordinate origin than ``u_max``.
    """
    g = geometry
    h = v.spacing
    pts, f = _reached_voxels(v, g)
    z, s_grid, plane = _row_tables(v, pts, g.u_max)
    # planes without an active voxel give zero table rows, so they are left out
    first, stop = (plane.min(), plane.max() + 1) if plane.size else (0, 0)
    z, plane = z[first:stop], plane - first
    (n_u, u0, du), (n_v, v0, dv) = g.detector
    out = np.empty(g.shape)  # before the large buffers, which then free into its gaps

    # stage A: the refined (s, v) table of a slab of z planes, deconvolved on both axes
    ds_f, dv_f = h / SPLAT_REFINE, dv / SPLAT_REFINE
    mat_s = _deconvolution_matrix(s_grid.size, ds_f, CUTOFF_FRACTION * 0.5 / h)
    mat_s *= h * h / (ds_f * dv_f)
    mat_v = _deconvolution_matrix(n_v, dv_f, CUTOFF_FRACTION * min(0.5 / h, 0.5 / dv))
    width_s, width_v = mat_s.shape[1], mat_v.shape[1]
    size = width_s * width_v
    slab = max(1, SPLAT_CHUNK_BYTES // (8 * size))
    order = np.argsort(plane, kind="stable")
    pts, f, plane = pts[order], f[order], plane[order]
    edges = np.searchsorted(plane, np.arange(0, z.size + slab, slab))

    # stage B: Q_j transposed, (table point, angle, u), for the first half of the angles
    n_half = (g.n_phi + 1) // 2
    du_f = du / SPLAT_REFINE
    reach = np.hypot(s_grid[-1], np.abs(z).max(initial=0.0))  # of the table's u positions
    widen = max(0, int(np.ceil((reach - g.u_max) / du_f)))
    q = np.empty((z.size * s_grid.size, n_half, n_u))
    for j, phi in enumerate(g.phis[:n_half]):
        mat_u = _deconvolution_matrix(
            n_u,
            du_f,
            CUTOFF_FRACTION * min(0.5 / h, 0.5 / du),
            (abs(np.cos(phi)), CUTOFF_FRACTION * 0.5 / h),
        )
        mat_u = np.pad(mat_u.T, ((widen, widen), (0, 0))) * (h * h / du_f)
        pos = (np.cos(phi) * s_grid - np.sin(phi) * z[:, None] - u0).ravel() / du_f + widen
        cell = np.floor(pos)
        k = cell.astype(np.int64) + SPLAT_GUARD - 1
        q[:, j] = sum(mat_u[k + off + 1] * tap[:, None] for off, tap in _cubic_taps(pos - cell))
    q = q.reshape(-1, n_half * n_u)

    buf = np.empty(min(slab, z.size) * size)
    table = np.zeros((z.size, s_grid.size, 2, n_v))
    prod = np.empty((n_half * n_u, 2 * n_v))
    mirrored = out[:, ::-1][:, : g.n_phi // 2]
    for i, theta in enumerate(g.thetas):
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        pos_s = (pts[:, 0] * cos_t + pts[:, 1] * sin_t - s_grid[0]) / ds_f
        pos_v = (pts[:, 1] * cos_t - pts[:, 0] * sin_t - v0) / dv_f
        cell_s, cell_v = np.floor(pos_s), np.floor(pos_v)
        k = (cell_s.astype(np.int64) + SPLAT_GUARD - 1) * width_v + cell_v.astype(np.int64)
        k += (plane % slab) * size + SPLAT_GUARD - 1
        taps_s = [((off + 1) * width_v, tap) for off, tap in _cubic_taps(pos_s - cell_s)]
        taps_v = [(off + 1, f * tap) for off, tap in _cubic_taps(pos_v - cell_v)]
        for p0, lo, hi in zip(range(0, z.size, slab), edges[:-1], edges[1:]):
            if lo == hi:  # the same in every row, so its rows stay zero
                continue
            n_p = min(slab, z.size - p0)
            buf[: n_p * size] = 0.0
            for (off_s, tap_s), (off_v, tap_v) in itertools.product(taps_s, taps_v):
                np.add.at(buf, k[lo:hi] + (off_s + off_v), tap_s[lo:hi] * tap_v[lo:hi])
            part = buf[: n_p * size].reshape(n_p * width_s, width_v) @ mat_v.T
            table[p0 : p0 + n_p, :, 0] = np.matmul(mat_s, part.reshape(n_p, width_s, n_v))
        table[:, :, 1] = table[:, ::-1, 0]
        np.matmul(q.T, table.reshape(q.shape[0], 2 * n_v), out=prod)
        prod4 = prod.reshape(n_half, n_u, 2, n_v)
        out[i, :n_half] = prod4[:, :, 0]
        mirrored[i] = prod4[: g.n_phi // 2, :, 1]
    return LineSinogram(out, g)


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
# Chart-aware sampler
# ---------------------------------------------------------------------------


def _chart_stencil(directions: np.ndarray, n_theta: int, n_phi: int, glued=True) -> list[tuple]:
    """Bilinear stencil of (..., 3) direction queries on the chart grid.

    Returns four corners as ``(row, col, sign, weight)`` arrays of the
    queries' shape.  Cells that stick out of the chart square wrap according
    to the antipodal gluing: crossing an azimuth edge reflects the polar row
    and flips the represented normal; crossing a polar edge (through a pole)
    keeps the column but flips the normal.  ``sign`` is +1 where the stored
    normal equals the queried direction and -1 where it is the antipode.  An
    unglued grid's corners of sign -1 move to the antipodal node ``(i + n, n_phi
    - 1 - j)`` with sign +1, for ``n = n_theta // 2`` rows in the chart.
    """
    n_theta = n_theta if glued else n_theta // 2
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
        if not glued:
            flip = sign < 0
            ii = np.where(flip, ii + n_theta, ii)
            jj = np.where(flip, n_phi - 1 - jj, jj)
            sign = np.abs(sign)
        corners.append((ii, jj, sign, w))
    return corners


def _every_node(g: DirectionChart) -> np.ndarray:
    """Flat index ``ii * n_phi + jj`` of every chart node, as an (n_theta, n_phi) array."""
    return np.arange(g.n_theta * g.n_phi).reshape(g.n_theta, g.n_phi)


def _stencil_nodes(g: DirectionChart, directions: np.ndarray) -> np.ndarray:
    """Flat indices, ascending, of the chart nodes that the stencil of ``directions`` reads."""
    read = np.zeros(g.n_theta * g.n_phi, dtype=bool)
    for ii, jj, _, _ in _chart_stencil(directions, g.n_theta, g.n_phi, g.glued):
        read[ii * g.n_phi + jj] = True
    return np.flatnonzero(read)


def sample_chart(
    data: np.ndarray,
    geometry: DirectionChart,
    directions: np.ndarray,
    queries: np.ndarray,
    axes: list[tuple],
    nodes: np.ndarray | None = None,
) -> np.ndarray:
    """Sample direction-indexed data at rows of query vectors, one row per direction.

    ``data`` holds samples at nodes of the geometry's midpoint direction grid
    along its leading axes, of the shape of ``nodes``, the nodes' flat
    indices ``ii * n_phi + jj``: by default the whole (n_theta, n_phi) chart,
    or any set that holds ``_stencil_nodes(geometry, directions)``; a slot
    table maps each node to its row.  Trailing axis ``a`` holds
    samples at ``origin + k * step`` for ``axes[a]`` ending in ``(origin,
    step)``: a geometry's ``detector`` (plane offsets or a line detector) or
    the frequency axes of its padded spectra.  ``directions`` is (*L, 3) and
    ``queries`` (*L, *inner, d), one row of queries per direction: the signed
    radial value (d = 1) for planes, a 3-vector for lines; the samples have
    shape ``queries.shape[:-1]``.  Directions are reduced to the chart, and
    at every stencil node the query's position on axis ``a`` is its dot
    product with the node's axis ``geometry.node_axes(ii, jj, sign)[a]``.
    Chunks hold whole directions, as many as fit one float64 per query in
    ``SPLAT_CHUNK_BYTES``; a direction with more than ``SPLAT_CHUNK_BYTES //
    8`` queries is a chunk alone.  Raises ``ValueError`` if the leading shapes
    differ or a query reads a node that ``nodes`` does not hold.
    """
    directions = np.asarray(directions, dtype=float)
    queries = np.asarray(queries, dtype=float)
    lead, shape = directions.shape[:-1], queries.shape[:-1]
    if shape[: len(lead)] != lead:
        raise ValueError(f"queries {queries.shape} hold no row per direction {directions.shape}")
    n_dir, per_dir = int(np.prod(lead)), int(np.prod(shape[len(lead) :]))
    directions = directions.reshape(n_dir, 1, 3)
    queries = queries.reshape(n_dir, per_dir, queries.shape[-1])
    nodes = _every_node(geometry) if nodes is None else nodes
    data = data.reshape(nodes.size, *data.shape[nodes.ndim :])
    slots = np.full(geometry.n_theta * geometry.n_phi, -1)
    slots[nodes.ravel()] = np.arange(nodes.size)
    # a unit node axis carries no query farther than its length
    reach = float(np.sqrt(np.max(np.einsum("...i,...i->...", queries, queries), initial=0.0)))
    # the cells a query within reach can read, and one more on each side
    spans = [
        (np.floor((-reach - x0) / dx) - 1, np.floor((reach - x0) / dx) + 3) for *_, x0, dx in axes
    ]
    window = _guard_window(data, spans)
    out = np.empty((n_dir, per_dir), dtype=np.result_type(data, float))
    chunk = max(1, SPLAT_CHUNK_BYTES // (8 * max(per_dir, 1)))
    for start in range(0, n_dir, chunk):
        part = slice(start, start + chunk)
        q = np.ascontiguousarray(np.moveaxis(queries[part], -1, 0))
        acc = 0.0
        stencil = _chart_stencil(directions[part], geometry.n_theta, geometry.n_phi, geometry.glued)
        for ii, jj, sign, w in stencil:
            rows = slots[ii * geometry.n_phi + jj]
            if np.any(rows < 0):
                raise ValueError("a query reads a chart node that the data does not hold")
            # dot products with the node's axes, summed in component order
            positions = [
                (reduce(np.add, (qc * ac for qc, ac in zip(q, axis))) - origin) / step
                for axis, (*_, origin, step) in zip(geometry.node_axes(ii, jj, sign), axes)
            ]
            acc = acc + w * _gather(window, rows, positions)
        out[part] = acc
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# Backprojection and Fourier-domain views
# ---------------------------------------------------------------------------


def backproject_plane(s: PlaneSinogram, n: int, spacing: float) -> Volume:
    """Adjoint-style sum over directions: ``integral of F(n, n . x) dn`` (half-sphere).

    Row i's normals meet a voxel at ``n . x = sin(phi) s_i + cos(phi) z``, with
    ``s_i = x cos(theta_i) + y sin(theta_i)``, so the row's sum is a table
    ``G_i(z, s)``.  Stage 1 fills it at the voxel z and on an s grid of step
    ``spacing / BACKPROJECT_REFINE`` that reaches ``sqrt(2) max|x|`` plus the
    Keys guard cells, by one ``np.interp`` per direction (zero off the offset
    axis); stage 2 reads it at every voxel's ``s_i`` through ``grid._gather``
    on ``_cubic_corners``, which never clamps there.  Raises
    :class:`GeometryMismatch` for line data or an empty grid.
    """
    g = s.geometry
    if g.kind != "plane":
        raise GeometryMismatch(
            "filtered backprojection needs plane data; use invert-fourier for lines"
        )
    x = Volume(np.zeros((n, n, n)), spacing).axis_coords(0)  # every axis's coordinates
    ds = spacing / BACKPROJECT_REFINE
    half = int(np.ceil(np.sqrt(2.0) * np.abs(x).max() / ds)) + GATHER_GUARD
    s_grid = np.arange(-half, half + 1) * ds
    table = np.zeros((g.n_theta, n, s_grid.size))
    for i, j in itertools.product(range(g.n_theta), range(g.n_phi)):
        t = np.cos(g.phis[j]) * x[:, None] + np.sin(g.phis[j]) * s_grid
        table[i] += g.direction_weights[i, j] * np.interp(
            t, g.ts, s.data[i, j], left=0.0, right=0.0
        )
    window = _guard_window(table.reshape(-1, s_grid.size), [(0, s_grid.size)])
    acc = np.zeros((n, n, n))
    for i, theta in enumerate(g.thetas):
        s_i = x[:, None, None] * np.cos(theta) + x[None, :, None] * np.sin(theta)
        acc += _gather(window, i * n + np.arange(n), [(s_i - s_grid[0]) / ds], _cubic_corners)
    return Volume(acc, spacing)


def _padded_axes(g: DirectionChart, pad: float) -> list[tuple]:
    """Per detector axis, zero-padded to ``round(pad * n)`` samples from index ``lead`` on:
    ``(n_pad, lead, (first frequency, step), first padded sample)``."""
    out = []
    for n, origin, step in g.detector:
        n_pad = int(round(pad * n))
        lead = (n_pad - n) // 2
        df = 1.0 / (n_pad * step)
        out.append((n_pad, lead, (-(n_pad // 2) * df, df), origin - lead * step))
    return out


def _padded_spectra(s: Sinogram, pad: float, nodes: np.ndarray | None = None) -> tuple:
    """Detector spectra of chart ``nodes`` on pad-times finer frequency axes.

    ``nodes`` holds flat chart indices ``ii * n_phi + jj``, by default every
    node as an (n_theta, n_phi) array, and the spectra take its shape
    followed by the padded detector axes.  Frequency index ``k`` of an axis
    holds ``(k - n_pad // 2) / (n_pad * step)`` in the convention of
    :func:`simrad.grid.dft3`.  The nodes are transformed ``n_phi`` at a time,
    one azimuth row's worth, so the padded real images never exist for more
    than one chunk.  Returns the spectra and, per detector axis, ``(first
    frequency, step)`` and the first padded sample.
    """
    g = s.geometry
    nodes = _every_node(g) if nodes is None else nodes
    shape, leads, axes, origins = zip(*_padded_axes(g, pad))
    window = tuple(slice(lead, lead + n) for lead, (n, *_) in zip(leads, g.detector))
    steps = [(df, x0) for (_, df), x0 in zip(axes, origins)]
    cell = np.prod([step for *_, step in g.detector])
    images = s.data.reshape(-1, *g.shape[2:])
    flat = nodes.ravel()
    spec = np.empty((flat.size, *shape), dtype=complex)
    for c0 in range(0, flat.size, g.n_phi):
        chunk = flat[c0 : c0 + g.n_phi]
        buf = np.zeros((chunk.size, *shape))
        buf[(slice(None), *window)] = images[chunk]
        spec[c0 : c0 + chunk.size] = _centered_dft(buf, steps, cell)
    return spec.reshape(*nodes.shape, *shape), axes, origins


def _padded_spectrum(v: Volume, n_pad: int) -> Spectrum3D:
    """Spectrum of ``v`` zero-padded to ``n_pad`` voxels per axis."""
    n = v.n
    lo = (n_pad - n) // 2
    data = np.zeros((n_pad, n_pad, n_pad))
    data[lo : lo + n, lo : lo + n, lo : lo + n] = v.data
    origin = v.origin - lo * v.spacing
    return dft3(Volume(data, v.spacing, origin))


def fourier_slice(spectrum: Spectrum3D, geometry: DirectionChart) -> np.ndarray:
    """A volume's spectrum sampled at the geometry's projection-slice points.

    ``spectrum`` is the volume's spectrum, usually zero-padded
    (``_padded_spectrum``).  Returns shape ``geometry.shape`` complex: the
    frequency ray of each plane direction or the perpendicular frequency
    plane of each line direction, on the centered axes of the sinogram
    spectra at pad 1; equality of the two (up to interpolation error) is the
    projection-slice property.  The spectrum is read by Keys cubic convolution
    one azimuth row at a time, from one copy with a zero cell past its low ends
    and two past its high ends; a point outside the lattice on any axis reads 0.
    """
    n = spectrum.n
    window = _guard_window(spectrum.data[None], [(-1, n + 2)] * 3)
    out = np.empty(geometry.shape, dtype=complex)
    for i in range(geometry.n_theta):
        idx = geometry.slice_frequencies(slice(i, i + 1)).reshape(-1, 3).T / spectrum.freq_spacing
        out[i] = _masked_gather(window, n, idx + n // 2, _cubic_corners).reshape(out.shape[1:])
    return out


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
