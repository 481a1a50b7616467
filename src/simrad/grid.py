"""Cubic voxel grids, centered 3-D spectra, and synthetic test fields.

A :class:`Volume` samples a function of R^3 on an ``N^3`` grid with coordinates
``x_i = origin + i * spacing`` along each axis; the default origin centers the
grid so that index ``N // 2`` sits at 0.  Fourier transforms use the unitary
``exp(-2 pi i w . x)`` convention, so a standard Gaussian ``exp(-pi |x|^2)`` is
its own transform.  :class:`Spectrum3D` stores the transform on the centered
frequency lattice ``w_k = (k - N // 2) / (N * spacing)``.

The scale-translation-rotation representation ``apply_pi`` acts on volumes by

    (pi(g) f)(x) = a^(-3/2) f(a^-1 R^-1 (x - b)),

which is unitary for the L2 norm; it is realized by trilinear resampling with
zero extension outside the grid.

The package's interpolation kernels live here: linear and Keys cubic taps at
constant offsets from one flat index per point (``_linear_corners``,
``_cubic_corners``), read by one loop (``_gather``) from a zero-guarded copy
(``_guard_window``).  The resampling, the chart sampler and the direct-Fourier
coverage splat use the linear taps; the Fourier-slice reference, the plane
backprojection's table read and the wavelet route's lattice atoms use the cubic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import GeometryMismatch, SupportOverflow
from .group import GroupElement, act_point, inverse

# A Gaussian bump is treated as numerically supported within 3.5 standard
# "pi-widths": exp(-pi * 3.5^2) ~ 2e-17 is below every tolerance used here for
# unit-amplitude data, while leaving room to shift bumps off-center on the
# default grids.
SUPPORT_DECAY_RADII = 3.5
# Scratch budget of chunked loops: a chunk holds as many chart-sampler
# directions as fit one float64 per query, or as many z planes of the line
# projector's refined (s, v) table as fit one float64 per cell (at least one
# of either), or a quarter as many gathered points.  The slab size sets the
# line projector's memory more than its time: at the demo sizes (N=48, h=0.2,
# 24x24 directions, 48x48 detector; one plane per slab) its tracemalloc peak
# reads 22.9 / 25.2 / 30.6 MiB for slabs of 256 KiB / 2 MiB / every plane,
# and its time 0.22-0.23 / 0.18-0.22 / 0.17-0.21 s; at N=64 the peak reads
# 70.8 / 72.6 / 88.9 MiB and the time 0.94-1.00 / 0.94-0.98 / 1.02-1.10 s
# (best of 3, one BLAS thread, 2-core machine).
SPLAT_CHUNK_BYTES = 256 << 10
# Zero cells past each end of every axis of a guarded copy (``_guard_window``)
# or scatter grid: a linear floor cell is clamped to [-GATHER_GUARD, n], so
# both taps land on the axis or in them, and a Keys tap reaches two cells past.
GATHER_GUARD = 2


@dataclass
class Volume:
    """Scalar field on a cubic grid.

    The projectors' reach guard reads the data itself: how far from the
    coordinate origin the voxels above rounding noise lie.
    """

    data: np.ndarray
    spacing: float
    origin: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3 or len(set(self.data.shape)) != 1 or self.data.size == 0:
            raise GeometryMismatch(f"volume data must be N^3, N > 0, got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValueError("volume data must be finite")
        self.spacing = float(self.spacing)
        if not (np.isfinite(self.spacing) and self.spacing > 0.0):
            raise ValueError("spacing must be positive and finite")
        if self.origin is None:
            self.origin = np.full(3, -(self.n // 2) * self.spacing)
        else:
            self.origin = np.asarray(self.origin, dtype=float).reshape(3)
            if not np.isfinite(self.origin).all():
                raise ValueError("origin must be finite")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def half_extent(self) -> float:
        """Half the physical edge length of the grid cube."""
        return 0.5 * self.n * self.spacing

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing * np.arange(self.n)

    def coordinate_grid(self) -> np.ndarray:
        """All voxel coordinates as an (N, N, N, 3) array (index order x, y, z)."""
        x, y, z = (self.axis_coords(i) for i in range(3))
        return np.stack(np.meshgrid(x, y, z, indexing="ij"), axis=-1)

    def same_grid(self, other: "Volume") -> bool:
        return (
            self.n == other.n
            and abs(self.spacing - other.spacing) < 1e-12
            and bool(np.all(np.abs(self.origin - other.origin) < 1e-12))
        )


def l2_norm(v: Volume) -> float:
    """Grid approximation ``sqrt(h^3 sum f^2)`` of the L2 norm."""
    return float(np.sqrt(v.spacing**3 * np.sum(v.data * v.data)))


def inner(v1: Volume, v2: Volume) -> float:
    """Grid approximation of the L2 inner product; grids must match."""
    if not v1.same_grid(v2):
        raise GeometryMismatch("volumes live on different grids")
    return float(v1.spacing**3 * np.sum(v1.data * v2.data))


@dataclass
class Spectrum3D:
    """Centered 3-D spectrum: index ``k`` holds frequency ``(k - N // 2) * freq_spacing``."""

    data: np.ndarray
    freq_spacing: float
    spatial_spacing: float
    spatial_origin: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 3 or len(set(self.data.shape)) != 1:
            raise GeometryMismatch(f"spectrum data must be N^3, got shape {self.data.shape}")
        self.freq_spacing = float(self.freq_spacing)
        self.spatial_spacing = float(self.spatial_spacing)
        self.spatial_origin = np.asarray(self.spatial_origin, dtype=float).reshape(3)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def freq_axis(self) -> np.ndarray:
        n = self.n
        return (np.arange(n) - n // 2) * self.freq_spacing


def _origin_phase(n: int, freq_spacing: float, x0: float, sign: float = -1.0) -> np.ndarray:
    """``exp(sign 2 pi i w_k x0)`` on the centered axis ``w_k = (k - n // 2) * freq_spacing``."""
    return np.exp(sign * 2j * np.pi * freq_spacing * (np.arange(n) - n // 2) * x0)


def _centered_dft(data: np.ndarray, axes: list[tuple[float, float]], cell: float) -> np.ndarray:
    """``fftshift(fftn(data)) * cell`` over the ``len(axes)`` trailing axes, then times
    each one's origin phase in axis order; ``axes[a]`` is (frequency step, first sample)."""
    trailing = tuple(range(-len(axes), 0))
    spec = np.fft.fftshift(np.fft.fftn(data, axes=trailing), axes=trailing) * cell
    for a, (df, x0) in zip(trailing, axes):
        n = data.shape[a]
        spec = spec * _origin_phase(n, df, x0).reshape(n, *(1,) * (-a - 1))
    return spec


def dft3(v: Volume) -> Spectrum3D:
    """Unitary-convention Fourier transform ``h^3 sum f(x) exp(-2 pi i w . x)``.

    Its centered-DFT formula (``_centered_dft``) also gives the padded sinogram spectra.
    """
    dfreq = 1.0 / (v.n * v.spacing)
    spec = _centered_dft(v.data, [(dfreq, x0) for x0 in v.origin], v.spacing**3)
    return Spectrum3D(spec, dfreq, v.spacing, v.origin)


def idft3(s: Spectrum3D) -> Volume:
    """Inverse of :func:`dft3`; returns the real part of the reconstruction."""
    n = s.n
    px, py, pz = (_origin_phase(n, s.freq_spacing, x0, +1.0) for x0 in s.spatial_origin)
    spec = s.data * px[:, None, None] * py[None, :, None] * pz[None, None, :]
    spec /= s.spatial_spacing**3
    data = np.fft.ifftn(np.fft.ifftshift(spec))
    return Volume(data.real, s.spatial_spacing, s.spatial_origin.copy())


def gaussian_phantom(
    n: int,
    spacing: float,
    center: np.ndarray = (0.0, 0.0, 0.0),
    scale: float = 1.0,
    amplitude: float = 1.0,
) -> Volume:
    """Gaussian bump ``amplitude * exp(-pi |x - center|^2 / scale^2)``.

    Raises :class:`SupportOverflow` when the bump does not decay to numerical
    zero before reaching the grid boundary.
    """
    return gaussian_mixture_phantom(n, spacing, [center], [scale], [amplitude])


def gaussian_mixture_phantom(
    n: int,
    spacing: float,
    centers,
    scales,
    amplitudes,
) -> Volume:
    """Sum of Gaussian bumps.

    Raises :class:`SupportOverflow` when any bump does not decay to numerical
    zero before reaching the grid boundary.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    scales = np.asarray(scales, dtype=float).reshape(-1)
    amplitudes = np.asarray(amplitudes, dtype=float).reshape(-1)
    if not (len(centers) == len(scales) == len(amplitudes)):
        raise ValueError("centers, scales, amplitudes must have equal length")

    out = Volume(np.zeros((n, n, n)), spacing)
    lo = out.origin
    hi = out.origin + (n - 1) * spacing
    for c, s in zip(centers, scales):
        margin = min(float(np.min(c - lo)), float(np.min(hi - c)))
        if margin < SUPPORT_DECAY_RADII * s:
            raise SupportOverflow(
                f"bump at {c} with scale {s} reaches within {margin:.3g} of the "
                f"grid boundary (needs {SUPPORT_DECAY_RADII * s:.3g})"
            )
    grid = out.coordinate_grid()
    for c, s, amp in zip(centers, scales, amplitudes):
        d2 = np.sum((grid - c) ** 2, axis=-1)
        out.data += amp * np.exp(-np.pi * d2 / s**2)
    return out


def log_wavelet(n: int, spacing: float, scale: float = 1.0) -> Volume:
    """Laplacian-of-Gaussian field ``-laplace exp(-pi |x|^2 / scale^2)``.

    Mean-free and radial, with transform ``4 pi^2 |w|^2 scale^3
    exp(-pi scale^2 |w|^2)``; the standard zero-mean wavelet used by the
    synthesis-based inversion.
    """
    out = Volume(np.zeros((n, n, n)), spacing)
    g = np.pi / scale**2
    r2 = np.sum(out.coordinate_grid() ** 2, axis=-1)
    out.data = (6.0 * g - 4.0 * g * g * r2) * np.exp(-g * r2)
    return out


def _guard_window(data: np.ndarray, spans) -> tuple:
    """Copy of cells ``[lo, hi)`` of the trailing axes of ``data`` (one row per leading index).

    ``spans`` holds one ``(lo, hi)`` per trailing axis, clipped into
    ``[-GATHER_GUARD, n + GATHER_GUARD)`` and to at least two cells; cells
    off the data read 0.  Returns the copy and the ``lo`` of each axis.
    """
    lows, lengths, src, dst = [], [], [], []
    for (lo, hi), n in zip(spans, data.shape[1:]):
        lo = int(np.clip(lo, -GATHER_GUARD, n))
        hi = int(np.clip(hi, lo + 2, n + GATHER_GUARD))
        a = max(lo, 0)
        b = min(hi, n)
        lows.append(lo)
        lengths.append(hi - lo)
        src.append(slice(a, b))
        dst.append(slice(a - lo, b - lo))
    window = np.zeros(data.shape[:1] + tuple(lengths), dtype=data.dtype)
    window[(slice(None), *dst)] = data[(slice(None), *src)]
    return window, lows


def _linear_corners(shape: tuple, lows, positions: list[np.ndarray]) -> tuple:
    """Linear taps of points at fractional ``positions`` on the trailing axes of an array.

    The array has ``shape`` and holds cells ``lo, lo + 1, ...`` of trailing
    axis ``a`` for ``lo = lows[a]``.  Each floor cell is clamped to ``[lo, lo
    + m - 2]`` on an axis of ``m`` cells, so both taps lie in the array.
    Returns one flat index per point, of its lowest corner, and per corner
    its constant offset and per-axis weights, the first axis varying slowest.
    """
    k, axes = 0, []
    for a, (pos, lo) in enumerate(zip(positions, lows), len(shape) - len(positions)):
        m, stride = shape[a], int(np.prod(shape[a + 1 :]))
        cell = np.floor(pos)
        w = pos - cell
        k = k + (np.clip(cell, lo, lo + m - 2) - lo).astype(np.int64) * stride
        axes.append([(0, 1.0 - w), (stride, w)])
    return k, [(sum(o for o, _ in c), [w for _, w in c]) for c in itertools.product(*axes)]


def _cubic_corners(shape: tuple, lows, positions: list[np.ndarray]) -> tuple:
    """Keys cubic-convolution taps (a = -1/2) in the layout of ``_linear_corners``.

    Four taps per axis sit at offsets -1..2 from the floor cell, which is clamped
    to [lo + 1, lo + m - 3]; a corner's one weight, its taps' product, is made on read.
    """
    k, axes = 0, []
    for a, (pos, lo) in enumerate(zip(positions, lows), len(shape) - len(positions)):
        m, stride = shape[a], int(np.prod(shape[a + 1 :]))
        cell = np.floor(pos)
        t = pos - cell
        k = k + (np.clip(cell, lo + 1, lo + m - 3) - 1 - lo).astype(np.int64) * stride
        taps = (((1.0 - 0.5 * t) * t - 0.5) * t, (1.5 * t - 2.5) * t * t + 1.0)
        taps += (((2.0 - 1.5 * t) * t + 0.5) * t, 0.5 * (t - 1.0) * t * t)
        axes.append([(j * stride, tap) for j, tap in enumerate(taps)])
    corners = itertools.product(*axes)
    return k, ((sum(o for o, _ in c), [reduce(np.multiply, [w for _, w in c])]) for c in corners)


def _gather(window: tuple, rows, positions: list[np.ndarray], corners=_linear_corners):
    """Samples of rows ``rows`` of a ``_guard_window`` copy through ``corners``.

    ``positions`` holds fractional indices along each trailing axis of the
    copied data, and ``corners`` is ``_linear_corners`` or ``_cubic_corners``.
    The corners are summed from 0, each as ``((value * w0) * w1) * ...``: for
    three linear axes the bits of scipy's ``map_coordinates``.
    """
    copy, lows = window
    k, corners = corners(copy.shape, lows, positions)
    k = k + rows * int(np.prod(copy.shape[1:]))
    flat = copy.reshape(-1)
    acc = 0.0
    for off, weights in corners:
        acc = acc + reduce(np.multiply, weights, flat[off:].take(k))
    return acc


def _masked_gather(window: tuple, n: int, idx: np.ndarray, corners=_linear_corners) -> np.ndarray:
    """Samples of a one-row ``_guard_window`` copy of an n^3 array at (3, m) fractional
    indices, exactly 0 outside [0, n - 1] on any axis, through ``corners``, in chunks
    of ``SPLAT_CHUNK_BYTES // 32`` points: a cubic chunk stays in cache over 64 corners."""
    out = np.empty(idx.shape[1], dtype=window[0].dtype)
    for start in range(0, len(out), SPLAT_CHUNK_BYTES // 32):
        block = idx[:, start : start + SPLAT_CHUNK_BYTES // 32]
        inside = np.all((block >= 0.0) & (block <= n - 1), axis=0)
        gathered = _gather(window, 0, list(block), corners)
        out[start : start + block.shape[1]] = np.where(inside, gathered, 0.0)
    return out


def resample(v: Volume, points: np.ndarray) -> np.ndarray:
    """Trilinear samples of a volume at (..., 3) finite physical points.

    A point reads exactly 0 once it lies outside the outermost voxel centers
    on any axis, with no fade over the half voxel beyond them: the bits of
    ``map_coordinates(order=1, mode="constant")`` at ``(points - origin) / spacing``.
    """
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        raise ValueError("resample points must be finite")
    idx = (pts.reshape(-1, 3) - v.origin) / v.spacing
    window = _guard_window(v.data[None], [(0, v.n + 1)] * 3)
    return _masked_gather(window, v.n, idx.T).reshape(pts.shape[:-1])


def apply_pi(g: GroupElement, v: Volume) -> Volume:
    """Unitary point-space action ``a^(-3/2) f(a^-1 R^-1 (x - b))`` by resampling."""
    query = act_point(inverse(g), v.coordinate_grid())
    return Volume(g.a**-1.5 * resample(v, query), v.spacing, v.origin.copy())
