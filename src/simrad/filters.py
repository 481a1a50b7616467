"""Radial Fourier multipliers on sinograms and wavelet admissibility.

The unitarization filter acts per direction as the Fourier multiplier
``|frequency| ** power`` along the offset axis (planes) or across the detector
plane (lines).  Power 1 makes the plane transform an isometry up to a constant
onto the chart-measure label space; power 1/2 does the same for lines; doubled
powers appear in filtered backprojection and in the analysis templates of the
wavelet synthesis.  The zero-frequency component is always annihilated -- the
multiplier vanishes at 0 for every positive power, and keeping a spurious DC
term would break the isometry.

Conjugating the multiplier by the label-space representation rescales it by
``a ** power`` (the filter picks up one factor of the scale character per
power of frequency); ``check_semi_invariance`` measures that relation on a
concrete sinogram.

``admissibility_constant`` evaluates the Calderon integral
``int |psi_hat(w)|^2 |w|^-3 dw`` of a candidate wavelet; finiteness (enforced
as a mean-free condition at the grid level) is what makes the scale-space
synthesis invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAdmissible
from .grid import Volume, dft3
from .group import GroupElement
from .xform import Sinogram, sinogram_norm

# A wavelet's spectrum must vanish at DC to this fraction of its peak for the
# scale integral to be treated as convergent on the grid.
ADMISSIBILITY_DC_TOL = 1e-6


@dataclass(frozen=True)
class MultiplierSpec:
    """Radial multiplier ``|frequency| ** power`` with an optional taper.

    ``window`` may be ``None`` (sharp, default) or ``"raised-cosine"``, which
    multiplies by ``0.5 * (1 + cos(pi * f / f_nyquist))`` to suppress the
    amplified band edge for noisy data.
    """

    power: float
    window: str | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.power) and self.power >= 0.0):
            raise ValueError("power must be nonnegative and finite")
        if self.window not in (None, "raised-cosine"):
            raise ValueError(f"unknown window {self.window!r}")

    def symbol(self, freq_abs: np.ndarray, nyquist: float) -> np.ndarray:
        out = np.where(freq_abs > 0.0, freq_abs, 1.0) ** self.power
        out = np.where(freq_abs > 0.0, out, 0.0)
        if self.window == "raised-cosine":
            out = out * 0.5 * (1.0 + np.cos(np.pi * np.minimum(freq_abs / nyquist, 1.0)))
        return out


def apply_multiplier(s: Sinogram, spec: MultiplierSpec) -> Sinogram:
    """Apply the radial multiplier along each direction's detector axes.

    The symbol's argument is the frequency magnitude over the detector axes,
    and its Nyquist rate that of the coarsest axis.  Real input yields real
    output (the symbol is even), within float rounding.
    """
    g = s.geometry
    axes = tuple(range(-len(g.detector), 0))
    freqs = np.meshgrid(
        *(np.fft.fftfreq(n, step) for n, step in g.detector), indexing="ij", sparse=True
    )
    mag = np.sqrt(sum(f * f for f in freqs))
    sym = spec.symbol(mag, min(0.5 / step for _, step in g.detector))
    out = np.fft.ifftn(np.fft.fftn(s.data, axes=axes) * sym, axes=axes).real
    return type(s)(out, g)


def check_semi_invariance(s: Sinogram, g: GroupElement, spec: MultiplierSpec) -> float:
    """Relative residual of the multiplier's scale-covariance under conjugation.

    Compares ``pihat(g) J pihat(g^-1)`` applied to ``s`` against
    ``a ** power * J`` applied to ``s``, in the label-space norm relative to
    ``|| J s ||``.  Exact in the continuum; on grids the residual reflects the
    resampling quality of the two conjugating actions.
    """
    from .invert import apply_pi_hat  # local import to avoid a module cycle

    from .group import inverse

    filtered = apply_multiplier(s, spec)
    conjugated = apply_pi_hat(g, apply_multiplier(apply_pi_hat(inverse(g), s), spec))
    scaled = g.a**spec.power
    diff = type(s)(conjugated.data - scaled * filtered.data, s.geometry)
    denom = scaled * sinogram_norm(filtered)
    if denom == 0.0:
        return 0.0
    return sinogram_norm(diff) / denom


def admissibility_constant(psi: Volume) -> float:
    """Calderon integral ``int |psi_hat|^2 |w|^-3 dw`` of a candidate wavelet.

    Raises :class:`NotAdmissible` when the spectrum does not vanish at zero
    frequency (relative to its peak), which would make the integral diverge.
    The zero-frequency cell itself is omitted from the quadrature; for any
    admissible wavelet its contribution is O(freq_spacing^4).
    """
    spec = dft3(psi)
    mag2 = np.abs(spec.data) ** 2
    peak = float(np.max(mag2))
    if peak == 0.0:
        raise NotAdmissible("wavelet is identically zero")
    n = spec.n
    dc = mag2[n // 2, n // 2, n // 2]
    if dc > (ADMISSIBILITY_DC_TOL**2) * peak:
        raise NotAdmissible(
            f"wavelet spectrum at zero frequency is {np.sqrt(dc / peak):.3e} of its "
            f"peak (limit {ADMISSIBILITY_DC_TOL:.0e}); the scale integral diverges"
        )
    ax = spec.freq_axis()
    r2 = ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2
    r2[n // 2, n // 2, n // 2] = 1.0  # excluded cell; value irrelevant
    integrand = mag2 / r2**1.5
    integrand[n // 2, n // 2, n // 2] = 0.0
    return float(np.sum(integrand) * spec.freq_spacing**3)
