"""Inversion routes: filtered backprojection, Fourier regridding, wavelet frames.

Three independent paths recover a volume from its plane or line sinogram:

* ``invert_fbp_plane``: apply the squared unitarization filter per direction,
  then backproject over the half-sphere chart.  In the continuum this
  reproduces the volume with constant exactly 1: the chart's half-sphere of
  directions times the full signed offset axis tiles frequency space once.

* ``invert_direct_fourier``: the per-direction offset spectra are samples of
  the volume's 3-D spectrum (projection-slice); read them back at each
  in-band Cartesian frequency through the chart sampler and invert.
  Coverage of the requested band is a hard precondition, not a warning; it
  is measured at the geometry's own projection-slice points
  (``slice_frequencies``).

* ``invert_wavelet``: dual-frame synthesis over a discrete similitude
  lattice.  The analysis template is the filtered forward transform of the
  wavelet (doubled unitarization power), and each coefficient divided by the
  scale character is the volume pairing with one lattice atom.  Coefficients
  against all translates of one (rotation, scale) node are a per-direction
  correlation, so they are evaluated with one FFT per direction grid instead
  of one sinogram resampling per lattice node.  The template spectrum is
  dilated once per scale, and one fixed sparse matrix reads every shift off
  the correlations, so per (rotation, scale) node only a four-corner chart
  gather, a product and the inverse FFTs remain.  The lattice is not a tight
  frame, so the volume is recovered as the least-squares fit to its
  coefficients, by conjugate gradients on FFT convolutions with the atoms.
  When the template's views agree between directions the wavelet is
  rotation-invariant, every rotation gives the same atoms and coefficients,
  and the lattice is cut to its first rotation.

The label-space representation ``apply_pi_hat`` lives here too; it is the
conjugated action the transforms intertwine with, and the slow-but-direct
route to the same wavelet coefficients (used to cross-check the FFT path).

The routes read what differs by kind (unitarization power, scale
characters, detector axes, projection-slice points and their inverse, the
direct-Fourier padding) from the sinogram's geometry, and take the padded
sinogram spectra of either kind from one step, ``_padded_spectra``.  The
three steps whose math differs (the forward transform, the pi-hat action
and the frame coefficients) are selected in one place for the whole
package, :func:`kind_steps`.  It lives here because this is the one module
that can import every kind-specific step; the command line and the
verification checks take their forward transforms from it too.

Only the wavelet route needs scipy, for the sparse matrices of its frame
coefficients (``_interp_matrix`` and ``_plane_coefficients`` import
``scipy.sparse`` where they use it), so importing this module and running
the other routes loads numpy alone.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import reduce
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InsufficientCoverage, LatticeTooCoarse
from .filters import MultiplierSpec, admissibility_constant, apply_multiplier
from .grid import (
    GATHER_GUARD,
    Spectrum3D,
    Volume,
    _cubic_corners,
    _guard_window,
    _linear_corners,
    _masked_gather,
    idft3,
    l2_norm,
)
from .group import GroupElement, icosahedral_rotations
from .xform import (
    DirectionChart,
    LineSinogram,
    PlaneSinogram,
    Sinogram,
    _chart_stencil,
    _detector_points,
    _padded_spectra,
    _padded_spectrum,
    _stencil_nodes,
    backproject_plane,
    radon_plane,
    sample_chart,
    xray,
)

if TYPE_CHECKING:
    from scipy import sparse

# Fraction of in-band frequency voxels that may go unhit before direct
# Fourier inversion refuses to proceed.
COVERAGE_TOL = 0.01

# A trilinear splat weight below this is treated as an unhit voxel.
SPLAT_WEIGHT_FLOOR = 1e-12

# Zero-padding for the wavelet-coefficient correlations.  The FFT correlation
# is circular; without padding, templates translated near the lattice edge
# wrap around the offset axis and pick up spurious overlap with the data.
# Padding extends the period past the combined supports.
PLANE_CORRELATION_PAD = 2.0
LINE_CORRELATION_PAD = 1.5

# Energy-vs-reconstruction mismatch beyond this factor triggers the
# coarse-lattice warning in the wavelet synthesis.
LATTICE_ENERGY_SLACK = 0.5

# Zero-padding factor of the grid the lattice atoms live on.  Atoms are
# periodic there; at twice the volume edge the widest atoms of the
# acceptance ladder (scale 6.4, unit LoG wavelet) have decayed below 1e-4 of
# their peak where their periodic copies reach the volume.
SYNTHESIS_PAD = 2

# Discrepancy-principle stop for the dual-frame solve: the relative
# Haar-weighted misfit between the lattice coefficients of the iterate and
# the measured ones.  It is the accuracy of the measured plane coefficients
# (measured 9.5e-3 Haar-weighted against the volume pairings, <= 9.6e-3 node
# by node against the direct sinogram pairings); iterating below it fits
# coefficient error.  The cap bounds the solve where the misfit stalls
# above the stop: past ~20 iterations the reconstruction error of the
# acceptance ladder grows again.
FRAME_RESIDUAL_TOL = 1e-2
FRAME_MAX_ITER = 20

# Relative size below which the imaginary part of a wavelet spectrum is
# float64 roundoff (the LoG wavelets measure ~1e-14).
SPECTRUM_ROUNDOFF = 1e-12


# ---------------------------------------------------------------------------
# Label-space representation
# ---------------------------------------------------------------------------


def apply_pi_hat_plane(g: GroupElement, s: PlaneSinogram) -> PlaneSinogram:
    """Unitary action of a group element on a plane sinogram.

    Output at label ``(n, t)`` is ``a ** -1/2`` times the input at the
    transformed label ``(R^-1 n, (t - n . b) / a)``; grid values are pulled
    back through the chart-aware sampler.
    """
    geom = s.geometry
    dirs = geom.normals @ g.R  # rows: R^-1 n
    offs = (geom.ts[None, None, :] - (geom.normals @ g.b)[:, :, None]) / g.a
    vals = sample_chart(s.data, geom, dirs, offs[..., None], geom.detector)
    return PlaneSinogram(vals / np.sqrt(g.a), geom)


def apply_pi_hat_line(g: GroupElement, s: LineSinogram) -> LineSinogram:
    """Unitary action of a group element on a line sinogram.

    Output at label ``(n, w)`` is ``a ** -1`` times the input at direction
    ``R^-1 n`` and offset ``R^-1 (w - b) / a``; the sampler projects the
    offset vector onto each stored node's own detector frame, so no explicit
    perpendicular projection is needed here.
    """
    geom = s.geometry
    dirs = geom.normals @ g.R
    w = _detector_points(*geom.detector_directions, geom.us[:, None], geom.vs)
    moved = ((w - g.b) @ g.R) / g.a
    vals = sample_chart(s.data, geom, dirs, moved, geom.detector)
    return LineSinogram(vals / g.a, geom)


def apply_pi_hat(g: GroupElement, s: Sinogram) -> Sinogram:
    """Unitary action of a group element on a sinogram of either kind."""
    return kind_steps(s.geometry).pi_hat(g, s)


# ---------------------------------------------------------------------------
# Filtered backprojection
# ---------------------------------------------------------------------------


def _check_grid(n: int, spacing: float) -> None:
    """``ValueError`` unless ``n`` is a positive integer and ``spacing`` positive and finite."""
    if not (isinstance(n, (int, np.integer)) and n > 0):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (np.isfinite(spacing) and spacing > 0.0):
        raise ValueError(f"spacing must be positive and finite, got {spacing!r}")


def invert_fbp_plane(s: PlaneSinogram, n: int, spacing: float) -> Volume:
    """Reconstruct by backprojecting the doubly unitarized sinogram.

    The filter is the squared-power multiplier (symbol ``tau ** 2``); the
    half-sphere direction integral of the filtered data then equals the
    inverse Fourier integral of the volume, with constant exactly 1.  A grid
    that ``_check_grid`` refuses raises ``ValueError`` before any work.
    """
    _check_grid(n, spacing)
    filtered = apply_multiplier(s, MultiplierSpec(2.0))
    return backproject_plane(filtered, n, spacing)


# ---------------------------------------------------------------------------
# Direct Fourier regridding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierCoverage:
    """Diagnostics from direct Fourier regridding."""

    band_limit: float
    covered_fraction: float
    n_samples: int


def _default_band_limit(dtheta: float, dphi: float, freq_spacing: float) -> float:
    # Adjacent frequency rays separate by about |w| * max(dtheta, dphi); the
    # trilinear splat bridges gaps up to ~2 frequency cells.
    return 2.0 * freq_spacing / max(dtheta, dphi)


def _splat_coverage(geom: DirectionChart, freq_spacing: float, n: int, band: float) -> np.ndarray:
    """Trilinear splat weight of the projection-slice points on the n^3 frequency grid.

    The points are the geometry's ``slice_frequencies`` within ``r = band + 2 *
    freq_spacing`` of 0, one azimuth row at a time; no point farther out has a
    corner in the band, and ``r`` is capped at ``sqrt(3) * (n // 2 + 1)`` cells,
    past which no point has a corner on the grid.  The geometry builds only the
    points whose detector frequency, and so whose norm, lies within ``r``
    (widened for rounding), and a norm test keeps those within ``r``.  They are
    scattered into the sub-cube their corners reach of a grid with
    ``GATHER_GUARD`` zero cells past each end of every axis, through
    ``grid._linear_corners`` (each floor cell clamped into it), each corner
    weighted ``(w0 * w1) * w2`` by one ``bincount`` per row, so every cell gets
    a whole-grid splat's additions in the same order.  Returns the (n, n, n)
    interior.
    """
    reach = min(band + 2.0 * freq_spacing, np.sqrt(3.0) * (n // 2 + 1) * freq_spacing)
    wide = reach * (1.0 + 1e-9)  # a point's norm is its detector frequency's up to rounding
    cells = wide / freq_spacing
    lo = max(-GATHER_GUARD, int(np.floor(n // 2 - cells)))
    hi = min(n + GATHER_GUARD, int(np.floor(n // 2 + cells)) + 2)
    shape = (hi - lo,) * 3
    size = int(np.prod(shape))
    wsum = np.zeros(size)
    for i in range(geom.n_theta):
        w = geom.slice_frequencies(slice(i, i + 1), wide).reshape(-1, 3)
        pos = np.compress(np.einsum("ij,ij->i", w, w) <= reach**2, w.T, axis=1) / freq_spacing
        k, corners = _linear_corners(shape, (lo,) * 3, list(pos + n // 2))
        for off, weights, _ in corners:
            wsum[off:] += np.bincount(k, weights=reduce(np.multiply, weights), minlength=size - off)
    out = np.zeros((n, n, n))
    core = slice(max(lo, 0), min(hi, n))
    out[core, core, core] = wsum.reshape(shape)[(slice(core.start - lo, core.stop - lo),) * 3]
    return out


def invert_direct_fourier(
    s: Sinogram,
    n: int,
    spacing: float,
    band_limit: float | None = None,
) -> tuple[Volume, FourierCoverage]:
    """Reconstruct by reading per-direction spectra back onto a Cartesian grid.

    A scatter pass (``_splat_coverage``: a trilinear splat into a zero-guarded
    grid, on the corners of the package's one linear kernel) records which
    frequency voxels actually receive samples, and more than
    ``COVERAGE_TOL`` unhit voxels inside the band raises
    :class:`InsufficientCoverage`.  Values are then gathered through the
    chart sampler from spectra zero-padded by the geometry's
    ``spectral_pad``, at the in-band frequencies only, each where the
    geometry's ``slice_query`` reads it; the others stay zero, so the
    reconstruction is band-limited.  The chart nodes that the sampler's
    stencil reaches from those directions are found first, and the spectra
    and the sampler's window hold those nodes only: for lines the nodes next
    to the equator and the y-z plane (60 of 576 directions at 24x24), for
    planes most of the chart.  A grid that ``_check_grid`` refuses, or a
    ``band_limit`` that is not positive and finite, raises ``ValueError``
    before any of this.
    """
    _check_grid(n, spacing)
    freq_spacing = 1.0 / (n * spacing)
    geom = s.geometry
    if band_limit is None:
        band_limit = _default_band_limit(geom.dtheta, geom.dphi, freq_spacing)
    if not (np.isfinite(band_limit) and band_limit > 0.0):
        raise ValueError(f"band_limit must be positive and finite, got {band_limit}")
    axis = (np.arange(n) - n // 2) * freq_spacing
    W = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    mag = np.linalg.norm(W, axis=-1)
    in_band = mag <= band_limit
    # the samples sit where the projection-slice property puts them
    hit = _splat_coverage(geom, freq_spacing, n, band_limit).reshape(-1) > SPLAT_WEIGHT_FLOOR
    covered = float(np.count_nonzero(in_band & hit)) / float(np.count_nonzero(in_band))
    if 1.0 - covered > COVERAGE_TOL:
        raise InsufficientCoverage(
            f"only {covered:.4f} of frequency voxels inside band {band_limit:.3f} "
            f"received samples (need >= {1.0 - COVERAGE_TOL:.2f}); "
            "increase the direction grid or lower the band limit"
        )
    # only the in-band frequencies are read; the rest of the grid stays zero
    grid = np.zeros(n * n * n, dtype=complex)
    dirs, queries = geom.slice_query(W[in_band], mag[in_band])
    nodes = _stencil_nodes(geom, dirs)
    spec, axes, _ = _padded_spectra(s, geom.spectral_pad, nodes)
    grid[in_band] = sample_chart(spec, geom, dirs, queries, axes, nodes)
    grid = grid.reshape(n, n, n)
    origin = -(n // 2) * spacing * np.ones(3)
    recon = idft3(Spectrum3D(grid, freq_spacing, spacing, origin))
    return recon, FourierCoverage(band_limit, covered, s.data.size)


# ---------------------------------------------------------------------------
# Similitude lattice and wavelet synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupLattice:
    """Product discretization of the similitude group with left-Haar weights.

    Nodes are (shift, rotation, scale) triples; the shifts form the cube
    ``shift_axis ** 3``.  The weight of every node at scale ``a`` is ``a**-4 *
    shift_cell**3 * (1 / n_rotations) * a * log_scale_cell``, the
    left-invariant cell mass with the rotation factor carrying total mass 1.
    """

    shift_axis: np.ndarray  # (n_shift,), shared by the three axes
    rotations: np.ndarray  # (n_rotations, 3, 3)
    scales: np.ndarray  # (n_scales,)
    shift_cell: float
    log_scale_cell: float

    @classmethod
    def build(
        cls,
        shift_extent: float,
        n_shift: int,
        scale_min: float,
        scale_max: float,
        n_scale: int,
        rotations: list[np.ndarray] | None = None,
    ) -> "GroupLattice":
        if n_shift < 2 or n_scale < 2:
            raise ValueError("need at least 2 nodes per lattice axis")
        if not (np.isfinite(shift_extent) and shift_extent > 0.0):
            raise ValueError(f"shift_extent must be positive and finite, got {shift_extent!r}")
        if not 0.0 < scale_min < scale_max < np.inf:
            raise ValueError("need 0 < scale_min < scale_max < inf")
        if rotations is not None and len(rotations) == 0:
            raise ValueError("need at least one rotation")
        axis = np.linspace(-shift_extent, shift_extent, n_shift)
        if rotations is None:
            rotations = icosahedral_rotations()
        return cls(
            shift_axis=axis,
            rotations=np.asarray(rotations, dtype=float),
            scales=np.geomspace(scale_min, scale_max, n_scale),
            shift_cell=axis[1] - axis[0],
            log_scale_cell=np.log(scale_max / scale_min) / (n_scale - 1),
        )

    @property
    def shifts(self) -> np.ndarray:
        """All shift vectors, shape (n_shift**3, 3), last axis varying fastest."""
        axis = self.shift_axis
        return np.stack(
            np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1
        ).reshape(-1, 3)

    @property
    def n_nodes(self) -> int:
        return len(self.scales) * len(self.rotations) * len(self.shift_axis) ** 3

    def scale_weights(self) -> np.ndarray:
        """Left-Haar cell mass shared by all nodes at each scale."""
        return (
            self.scales**-3.0
            * self.log_scale_cell
            * self.shift_cell**3
            / len(self.rotations)
        )


@dataclass(frozen=True)
class WaveletMetrics:
    """Diagnostics from the frame synthesis.

    ``coefficient_energy`` is the normalized lattice sum of squared weighted
    coefficients; at convergence it equals the squared norm of the imaged
    volume, and its ratio to ``reconstruction_norm ** 2`` is the internal
    coarseness indicator.  ``iterations`` and ``coefficient_residual`` record
    where the dual-frame solve stopped.  ``template_anisotropy`` is how far
    the analysis template's views differ between directions, relative to its
    peak; at most ``FRAME_RESIDUAL_TOL``, the solve ran on one rotation.
    ``n_nodes`` counts the lattice as passed.
    """

    coefficient_energy: float
    reconstruction_norm: float
    calderon: float
    n_nodes: int
    iterations: int
    coefficient_residual: float
    template_anisotropy: float

    @property
    def energy_ratio(self) -> float:
        """``coefficient_energy / reconstruction_norm ** 2``; nan for a zero reconstruction."""
        if self.reconstruction_norm == 0.0:
            return float("nan")
        return self.coefficient_energy / self.reconstruction_norm**2


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


def _interp_matrix(
    positions: list[np.ndarray],
    shape: tuple[int, ...],
    periodic: bool,
    block_weights: np.ndarray | float = 1.0,
) -> sparse.csr_matrix:
    """Multilinear interpolation on ``n_blocks`` stacked grids of ``shape``.

    ``positions[k]`` (n_out, n_blocks) is where, in index units of grid axis
    ``k``, output ``r`` reads block ``j``; output ``r`` sums the readings
    times ``block_weights[j]``.  Indices wrap when ``periodic``, otherwise
    off-grid corners weigh zero.  Assembled in CSR order with int32 indices,
    so the transient index arrays stay small.
    """
    from scipy import sparse

    n_out, n_blocks = positions[0].shape
    size = int(np.prod(shape))
    strides = [int(np.prod(shape[k + 1 :])) for k in range(len(shape))]
    corners = [(np.arange(n_blocks, dtype=np.int32) * size, block_weights)]
    for pos, n, stride in zip(positions, shape, strides):
        taps = [((k * stride).astype(np.int32), wk) for k, wk in _linear_taps(pos, n, periodic)]
        corners = [(col + k, val * wk) for col, val in corners for k, wk in taps]
    cols = np.stack([col for col, _ in corners], axis=-1)
    vals = np.stack([val for _, val in corners], axis=-1)
    indptr = np.arange(n_out + 1, dtype=np.int32) * (n_blocks * len(corners))
    return sparse.csr_matrix(
        (vals.ravel(), cols.ravel(), indptr), shape=(n_out, n_blocks * size)
    )


def _plane_coefficients(
    s: PlaneSinogram, template: PlaneSinogram, lattice: GroupLattice
) -> np.ndarray:
    """Frame coefficients against all lattice nodes, shape (n_a, n_R, n_b).

    For fixed rotation and scale the coefficient is a correlation along the
    offset axis, so all shifts are read off one inverse FFT per direction:
    the per-direction product of the data spectrum with the conjugated,
    dilated template spectrum, evaluated at offset ``n . b``.  Work that does
    not depend on both rotation and scale is done once: the dilation reads
    the same points of every profile (one sparse matrix per scale and chart
    sign), the chart stencil of the rotated normals depends on the rotation
    alone (one sparse gather per rotation), and sampling at ``n . b`` with
    the direction quadrature is one fixed sparse matrix.
    """
    from scipy import sparse

    geom = s.geometry
    n_dir = geom.n_theta * geom.n_phi
    shat, [(tau0, dtau)], [t0] = _padded_spectra(s, PLANE_CORRELATION_PAD)
    psihat, *_ = _padded_spectra(template, PLANE_CORRELATION_PAD)
    n_pad = shat.shape[-1]
    # frequencies in FFT order, so no correlation needs a shift of its own
    taus = np.fft.ifftshift((np.arange(n_pad) - n_pad // 2) * dtau)
    shat = np.fft.ifftshift(shat, axes=-1) * np.exp(2j * np.pi * taus * t0)
    shat = shat.reshape(n_dir, n_pad)
    psihat_conj = np.conj(psihat.reshape(n_dir, n_pad)).T  # dilated from the left
    proj = lattice.shifts @ geom.normals.reshape(-1, 3).T  # (n_b, n_dir)
    sample = _interp_matrix(
        [(proj - t0) / geom.dt], (n_pad,), True, geom.direction_weights.ravel() / geom.dt
    )
    # per rotation, (n_dir, 2 n_dir): each rotated normal's four chart corners,
    # reading row k (sign -1, the stored normal is the antipode) or n_dir + k
    stencils = []
    for R in lattice.rotations:
        corners = _chart_stencil(geom.normals @ R, geom.n_theta, geom.n_phi)
        cols = np.stack(
            [(sign > 0) * n_dir + ii * geom.n_phi + jj for ii, jj, sign, _ in corners], axis=-1
        )
        vals = np.stack([w for *_, w in corners], axis=-1)
        stencils.append(
            sparse.csr_matrix(
                (vals.ravel(), cols.ravel(), 4 * np.arange(n_dir + 1)), shape=(n_dir, 2 * n_dir)
            )
        )
    out = np.empty((len(lattice.scales), len(lattice.rotations), len(proj)))
    for ia, a in enumerate(lattice.scales):
        pos = (np.concatenate([-(a * taus), a * taus]) - tau0) / dtau  # signs -1, +1
        dilated = _interp_matrix([pos[:, None]], (n_pad,), False) @ psihat_conj
        # as (2 n_dir, 2 n_pad) reals: the stencils' real weights act on the
        # real and imaginary parts alike
        dilated = dilated.reshape(2, n_pad, n_dir).transpose(0, 2, 1)
        dilated = np.ascontiguousarray(dilated).reshape(2 * n_dir, n_pad).view(float)
        for ir, stencil in enumerate(stencils):
            corr = np.fft.ifft(shat * (stencil @ dilated).view(complex), axis=-1)
            out[ia, ir] = np.sqrt(a) * (sample @ corr.real.ravel())
    return out


def _line_coefficients(
    s: LineSinogram, template: LineSinogram, lattice: GroupLattice
) -> np.ndarray:
    """Frame coefficients for line data; 2-D analog of the plane path.

    The dilated template is resampled per node, because each stencil corner
    reads it in its own detector frame; the shift sampling is one matrix.
    """
    geom = s.geometry
    shat, axes, origins = _padded_spectra(s, LINE_CORRELATION_PAD)
    psihat, *_ = _padded_spectra(template, LINE_CORRELATION_PAD)
    nu_u, nu_v = ((np.arange(n) - n // 2) * step for n, (_, step) in zip(shat.shape[-2:], axes))
    u0, v0 = origins
    phase0 = np.exp(2j * np.pi * nu_u * u0)[:, None] * np.exp(2j * np.pi * nu_v * v0)
    e1, e2 = geom.detector_directions
    shifts = lattice.shifts
    # The line-space inner product carries a 1/pi direction factor (see
    # sinogram_inner); the coefficients must use the same measure or the
    # synthesis comes out a factor of pi too large.
    sample = _interp_matrix(
        [
            (shifts @ e.reshape(-1, 3).T - x0) / step
            for e, x0, (_, _, step) in zip(geom.detector_directions, origins, geom.detector)
        ],
        shat.shape[-2:],
        True,
        geom.direction_weights.ravel() / np.pi,
    )
    out = np.empty((len(lattice.scales), len(lattice.rotations), len(shifts)))
    for ir, R in enumerate(lattice.rotations):
        dirs = geom.normals @ R
        e1r = e1 @ R
        e2r = e2 @ R
        for ia, a in enumerate(lattice.scales):
            vecs = a * _detector_points(e1r, e2r, nu_u[:, None], nu_v)
            temp_spec = sample_chart(psihat, geom, dirs, vecs, axes)
            prod = shat * np.conj(temp_spec) * phase0
            corr = (
                np.fft.ifft2(np.fft.ifftshift(prod, axes=(-2, -1)), axes=(-2, -1))
                / (geom.du * geom.dv)
            )
            out[ia, ir] = a * (sample @ corr.real.ravel())
    return out


class _LatticeFrame:
    """The lattice atoms ``pi(b, R, a) psi`` as Fourier multipliers.

    The atom at rotation ``R`` and scale ``a`` has spectrum ``a**1.5 *
    psi_hat(a R^T w)``: the wavelet's zero-padded spectrum read by Keys cubic
    convolution (:mod:`simrad.grid`'s ``_cubic_corners``), exactly zero where
    ``a R^T w`` leaves the frequency cube of the wavelet's grid, and read only
    inside it (54-58% of a ladder level's box points, 11-32% at scales >= 1.45).  Atoms live
    on a grid ``SYNTHESIS_PAD`` times wider than the wavelet's, so their
    periodic copies stay clear of the volume, and shifts enter as a
    separable DFT over the lattice's shift axis.  Spectra are kept in
    ``rfftn`` layout, centered along the first two axes, so the support of
    each scale is a centered box.

    ``analysis`` pairs a volume on the wavelet's grid with every atom;
    ``synthesis`` sums coefficient-weighted atoms on that grid.  Each is the
    exact adjoint of the other for the volume inner product ``h^3 sum`` and
    the plain sum over nodes.
    """

    def __init__(self, psi: Volume, lattice: GroupLattice) -> None:
        n, h = psi.n, psi.spacing
        m = SYNTHESIS_PAD * n
        self.n, self.m, self.spacing = n, m, h
        self.lo = (m - n) // 2
        origin = psi.origin - self.lo * h
        freq = (np.arange(m) - m // 2) / (m * h)
        freq_z = np.arange(m // 2 + 1) / (m * h)
        # e^{-2 pi i w (b - origin)} per axis; rows are frequencies
        self.phases = [
            np.exp(-2j * np.pi * f[:, None] * (lattice.shift_axis[None, :] - o))
            for f, o in zip((freq, freq, freq_z), origin)
        ]
        # rfftn keeps the kz > 0 half of each conjugate pair
        self.half_weight = np.where(freq_z == 0.0, 1.0, 2.0)

        # odd, so the spectrum grid is symmetric about 0 and the interpolated
        # atoms keep the conjugate symmetry of a real function's spectrum
        k = 2 * n + 1
        spec = _padded_spectrum(psi, k)
        # a wavelet that is even about the origin has a real spectrum; its
        # imaginary part is then roundoff, and the atoms are stored real
        data = spec.data
        if np.max(np.abs(data.imag)) <= SPECTRUM_ROUNDOFF * np.max(np.abs(data.real)):
            data = data.real
        window = _guard_window(data[None], [(-1, k + 2)] * 3)
        corner = np.sqrt(3.0) * (k // 2) * spec.freq_spacing
        center = m // 2
        self.boxes: list[tuple[slice, slice]] = []
        self.atoms: list[np.ndarray] = []  # per scale: (n_rotations, box)
        for a in lattice.scales:
            # the box spans every frequency that a rotation can carry into
            # the wavelet's spectrum cube; the Nyquist planes of the padded
            # grid stay out, so every frequency has its conjugate partner
            r = min(int(np.ceil(corner / a * m * h)), center - 1)
            sxy, sz = slice(center - r, center + r + 1), slice(0, r + 1)
            w = np.stack(
                np.meshgrid(freq[sxy], freq[sxy], freq_z[sz], indexing="ij"), axis=-1
            )
            atoms = np.empty((len(lattice.rotations),) + w.shape[:-1], dtype=data.dtype)
            for ir, R in enumerate(lattice.rotations):
                idx = (a * w @ R) / spec.freq_spacing + k // 2
                read = _masked_gather(window, k, idx.reshape(-1, 3).T, _cubic_corners)
                atoms[ir] = a**1.5 * read.reshape(w.shape[:-1])
            self.boxes.append((sxy, sz))
            self.atoms.append(atoms)

    def _crop(self, data: np.ndarray) -> np.ndarray:
        core = slice(self.lo, self.lo + self.n)
        return data[core, core, core]

    def synthesis(self, coefs: np.ndarray) -> np.ndarray:
        """``sum_g coefs[g] * atom_g`` on the wavelet's grid; coefs (n_a, n_R, n_b)."""
        ex, ey, ez = self.phases
        ns = ex.shape[1]
        total = np.zeros((self.m, self.m, self.m // 2 + 1), dtype=complex)
        for (sxy, sz), atoms, c in zip(self.boxes, self.atoms, coefs):
            t = c.reshape(-1, ns, ns, ns) @ ez[sz].T  # (R, i, j, kz)
            t = ey[sxy] @ t  # (R, i, ky, kz)
            t = ex[sxy] @ t.reshape(len(t), ns, -1)  # (R, kx, ky * kz)
            total[sxy, sxy, sz] += np.sum(atoms * t.reshape(atoms.shape), axis=0)
        spec = np.fft.ifftshift(total, axes=(0, 1))
        full = np.fft.irfftn(spec, s=(self.m,) * 3, axes=(0, 1, 2))
        return self._crop(full) / self.spacing**3

    def analysis(self, data: np.ndarray) -> np.ndarray:
        """Pairings ``h^3 sum data * atom_g`` for every node, shape (n_a, n_R, n_b)."""
        padded = np.zeros((self.m,) * 3)
        self._crop(padded)[...] = data
        spec = np.fft.fftshift(np.fft.rfftn(padded), axes=(0, 1)) * self.half_weight
        ex, ey, ez = (np.conj(p) for p in self.phases)
        out = []
        for (sxy, sz), atoms in zip(self.boxes, self.atoms):
            t = np.conj(atoms) * spec[sxy, sxy, sz]  # (R, kx, ky, kz)
            box = t.shape[1:]
            t = ex[sxy].T @ t.reshape(len(t), box[0], -1)  # (R, i, ky * kz)
            t = ey[sxy].T @ t.reshape(len(t), -1, *box[1:])  # (R, i, j, kz)
            t = t @ ez[sz]  # (R, i, j, k)
            out.append(t.real.reshape(len(atoms), -1))
        return np.stack(out) / self.m**3


def _dual_frame_solve(
    frame: _LatticeFrame, coefs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, int, float]:
    """CGLS for the volume whose lattice coefficients best match ``coefs``.

    Minimizes ``sum_g weights[g] * (<x, atom_g> - coefs[g]) ** 2`` from
    ``x = 0`` and stops by the discrepancy principle: once the relative
    weighted residual is at most ``FRAME_RESIDUAL_TOL``, or after
    ``FRAME_MAX_ITER`` iterations.  Returns (volume data, iterations,
    relative residual).
    """
    sqrt_w = np.sqrt(weights)[:, None, None]
    target = sqrt_w * coefs
    target_norm = float(np.linalg.norm(target))
    x = np.zeros((frame.n,) * 3)
    if target_norm == 0.0:
        return x, 0, 0.0
    cell = frame.spacing**3  # volume inner product weight
    r = target.copy()
    s = frame.synthesis(sqrt_w * r)
    p = s
    gamma = cell * float(np.sum(s * s))
    residual = 1.0
    for it in range(1, FRAME_MAX_ITER + 1):
        q = sqrt_w * frame.analysis(p)
        alpha = gamma / float(np.sum(q * q))
        x += alpha * p
        r -= alpha * q
        residual = float(np.linalg.norm(r)) / target_norm
        if residual <= FRAME_RESIDUAL_TOL:
            break
        s = frame.synthesis(sqrt_w * r)
        gamma_next = cell * float(np.sum(s * s))
        p = s + (gamma_next / gamma) * p
        gamma = gamma_next
    return x, it, residual


def invert_wavelet(
    s: Sinogram, psi: Volume, lattice: GroupLattice
) -> tuple[Volume, WaveletMetrics]:
    """Reconstruct on the wavelet's grid by dual-frame synthesis over the lattice.

    Coefficients pair the data with the group-translated analysis template
    (the forward transform of ``psi`` with doubled unitarization power); each
    divided by the scale character is the volume pairing ``<f, pi(g) psi>``.
    A finite lattice is not a tight frame, so the truncated sum of weighted
    atoms normalized by the Calderon constant over 4 pi misses the volume;
    instead the reconstruction is the volume whose own lattice coefficients
    best match the measured ones in the Haar-weighted least-squares sense
    (the dual-frame reconstruction).  CGLS solves for it and stops by the
    discrepancy principle: once the relative weighted coefficient residual
    is at most ``FRAME_RESIDUAL_TOL``, the accuracy of the measured
    coefficients, or after ``FRAME_MAX_ITER`` iterations.

    A wavelet invariant under rotations has ``pi(b, R, a) psi = pi(b, I, a)
    psi``: every rotation of a (shift, scale) node gives the same atom and
    the same coefficient, so the weighted least-squares problem over the
    lattice is the same problem over its first rotation alone, which
    ``scale_weights`` then gives the full rotation mass.  Invariance is
    measured on the analysis template: a view (one direction's profile or
    detector image) of a rotation-invariant wavelet is the same at every
    direction, so the measure is the largest deviation of any view from the
    mean view, relative to the template's peak.  When it is at most
    ``FRAME_RESIDUAL_TOL`` the differences between rotations are below the
    misfit the solve accepts anyway, and the solve runs on the first
    rotation; otherwise on the whole lattice.

    The metrics report the coefficient energy (weighted squared coefficients
    over the Calderon constant / 4 pi) and the measured anisotropy;
    :class:`LatticeTooCoarse` is emitted when the energy and the
    reconstruction norm disagree badly.
    """
    calderon = admissibility_constant(psi)
    norm_const = calderon / (4.0 * np.pi)
    geom = s.geometry
    steps = kind_steps(geom)
    template = apply_multiplier(steps.forward(psi, geom), MultiplierSpec(2.0 * geom.power))
    views = template.data.reshape(geom.n_theta * geom.n_phi, -1)
    anisotropy = float(
        np.max(np.abs(views - views.mean(axis=0))) / np.max(np.abs(template.data))
    )
    solved = lattice
    if anisotropy <= FRAME_RESIDUAL_TOL:
        solved = replace(lattice, rotations=lattice.rotations[:1])
    coefs = steps.coefficients(s, template, solved)
    chi = solved.scales**geom.characters.chi_exp
    w_scale = solved.scale_weights()
    pairings = coefs / chi[:, None, None]
    energy = float(np.sum(w_scale[:, None, None] * pairings**2) / norm_const)
    frame = _LatticeFrame(psi, solved)
    data, iterations, residual = _dual_frame_solve(frame, pairings, w_scale)
    recon = Volume(data, psi.spacing, psi.origin.copy())
    metrics = WaveletMetrics(
        coefficient_energy=energy,
        reconstruction_norm=l2_norm(recon),
        calderon=calderon,
        n_nodes=lattice.n_nodes,
        iterations=iterations,
        coefficient_residual=residual,
        template_anisotropy=anisotropy,
    )
    if abs(metrics.energy_ratio - 1.0) > LATTICE_ENERGY_SLACK:
        warnings.warn(
            f"lattice energy ratio {metrics.energy_ratio:.3f} is far from 1; "
            "the similitude lattice undersamples the data",
            LatticeTooCoarse,
        )
    return recon, metrics


class KindSteps(NamedTuple):
    """The steps whose math differs between plane and line data; the spectra are one step."""

    forward: Callable  # volume -> sinogram
    pi_hat: Callable  # label-space group action
    coefficients: Callable  # wavelet frame coefficients


def kind_steps(geometry: DirectionChart) -> KindSteps:
    """The plane or line steps for data on ``geometry``.

    The one place in the package that selects between planes and lines.  The
    names resolve at each call, so a rebinding of this module's attributes
    (as the benchmark's tracer does) reaches every caller.
    """
    if geometry.kind == "plane":
        return KindSteps(radon_plane, apply_pi_hat_plane, _plane_coefficients)
    return KindSteps(xray, apply_pi_hat_line, _line_coefficients)
