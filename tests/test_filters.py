"""Radial multipliers, their scale covariance, and wavelet admissibility."""

from __future__ import annotations

import numpy as np
import pytest

from simrad.errors import NotAdmissible
from simrad.filters import MultiplierSpec, admissibility_constant, apply_multiplier
from simrad.grid import gaussian_phantom, log_wavelet
from simrad.group import GroupElement, inverse, random_rotation
from simrad.invert import apply_pi_hat
from simrad.xform import (
    LineGeometry,
    LineSinogram,
    PlaneGeometry,
    PlaneSinogram,
    Sinogram,
    radon_plane,
    sinogram_norm,
    xray,
)

# Multiplication on exact DFT modes is rounding-exact.
EXACT_TOL = 1e-12
# Calderon integral of the Laplacian-of-Gaussian against its closed form
# 8 pi^3 scale^2; the Riemann sum over the centered frequency grid was
# measured at 2e-4 relative (h = 0.3 grids).
ADMISSIBILITY_ORACLE_TOL = 1e-3
# Conjugating the multiplier through the label-space action costs two
# resampling passes; measured 2.6e-2 (planes, 32x32 directions) and up to
# 1.1e-1 (lines, 16x16 directions with a 48^2 detector).
SEMI_INVARIANCE_PLANE_TOL = 6e-2
SEMI_INVARIANCE_LINE_TOL = 1.5e-1


def test_spec_validation():
    with pytest.raises(ValueError):
        MultiplierSpec(-1.0)
    with pytest.raises(ValueError):
        MultiplierSpec(float("nan"))
    with pytest.raises(ValueError):
        MultiplierSpec(1.0, window="hann")
    MultiplierSpec(0.5, window="raised-cosine")  # accepted


def test_symbol_values():
    spec = MultiplierSpec(0.5)
    freq = np.array([0.0, 0.25, 1.0, 4.0])
    out = spec.symbol(freq, nyquist=4.0)
    assert out[0] == 0.0  # DC always annihilated
    assert np.max(np.abs(out[1:] - freq[1:] ** 0.5)) <= EXACT_TOL
    windowed = MultiplierSpec(0.5, window="raised-cosine").symbol(freq, nyquist=4.0)
    assert windowed[3] == pytest.approx(0.0, abs=EXACT_TOL)  # zero at Nyquist
    assert windowed[1] == pytest.approx(out[1] * 0.5 * (1 + np.cos(np.pi / 16)))


def _mode_plane(geometry: PlaneGeometry, k: int) -> tuple[PlaneSinogram, float]:
    # Periodic DFT mode along the offset axis: exactly representable, so the
    # multiplier acts as the scalar |f_k| ** power.
    f_k = k / (geometry.n_t * geometry.dt)
    data = np.broadcast_to(
        np.cos(2.0 * np.pi * f_k * geometry.ts),
        (geometry.n_theta, geometry.n_phi, geometry.n_t),
    ).copy()
    return PlaneSinogram(data, geometry), f_k


def test_plane_multiplier_on_pure_mode():
    g = PlaneGeometry(4, 4, 64, 4.8)  # even n_t makes cos(k) an exact DFT mode
    s, f_k = _mode_plane(g, 5)
    for power in (0.5, 1.0, 2.0):
        filtered = apply_multiplier(s, MultiplierSpec(power))
        assert np.max(np.abs(filtered.data - f_k**power * s.data)) <= EXACT_TOL


def test_plane_multiplier_annihilates_constants():
    g = PlaneGeometry(4, 4, 65, 4.8)
    s = PlaneSinogram(np.ones((4, 4, 65)), g)
    out = apply_multiplier(s, MultiplierSpec(1.0))
    assert np.max(np.abs(out.data)) <= EXACT_TOL


def test_line_multiplier_on_pure_mode():
    g = LineGeometry(4, 4, 32, 32, 4.8)
    f_k = 3 / (g.n_u * g.du)
    data = np.broadcast_to(
        np.cos(2.0 * np.pi * f_k * g.us)[:, None], (4, 4, 32, 32)
    ).copy()
    s = LineSinogram(data, g)
    filtered = apply_multiplier(s, MultiplierSpec(0.5))
    assert np.max(np.abs(filtered.data - np.sqrt(f_k) * s.data)) <= EXACT_TOL


def test_multiplier_output_is_real():
    rng = np.random.default_rng(0)
    g = PlaneGeometry(4, 4, 65, 4.8)
    s = PlaneSinogram(rng.standard_normal((4, 4, 65)), g)
    out = apply_multiplier(s, MultiplierSpec(1.0, window="raised-cosine"))
    assert out.data.dtype == np.float64


# --- admissibility ----------------------------------------------------------


@pytest.mark.parametrize("scale, n", [(1.0, 32), (1.4, 40)])
def test_admissibility_constant_oracle(scale, n):
    # Closed form for the Laplacian-of-Gaussian: 8 pi^3 scale^2.
    value = admissibility_constant(log_wavelet(n, 0.3, scale))
    assert value == pytest.approx(8.0 * np.pi**3 * scale**2, rel=ADMISSIBILITY_ORACLE_TOL)


def test_admissibility_rejects_nonzero_mean():
    with pytest.raises(NotAdmissible):
        admissibility_constant(gaussian_phantom(32, 0.3))


def test_admissibility_rejects_zero_field():
    from simrad.grid import Volume

    with pytest.raises(NotAdmissible):
        admissibility_constant(Volume(np.zeros((8, 8, 8)), 0.3))


# --- scale covariance under conjugation -------------------------------------


@pytest.fixture(scope="module")
def bump():
    return gaussian_phantom(40, 0.24, center=[0.4, -0.3, 0.2])


def semi_invariance(s: Sinogram, g: GroupElement, spec: MultiplierSpec) -> float:
    """Relative residual of the multiplier's scale covariance under conjugation.

    Compares ``pihat(g) J pihat(g^-1)`` applied to ``s`` against
    ``a ** power * J`` applied to ``s``, in the label-space norm relative to
    ``|| J s ||``.  Exact in the continuum; on grids the residual reflects the
    resampling quality of the two conjugating actions.
    """
    filtered = apply_multiplier(s, spec)
    conjugated = apply_pi_hat(g, apply_multiplier(apply_pi_hat(inverse(g), s), spec))
    scaled = g.a**spec.power
    diff = type(s)(conjugated.data - scaled * filtered.data, s.geometry)
    denom = scaled * sinogram_norm(filtered)
    if denom == 0.0:
        return 0.0
    return sinogram_norm(diff) / denom


def test_semi_invariance_plane(bump):
    s = radon_plane(bump, PlaneGeometry(32, 32, 129, 6.0))
    rng = np.random.default_rng(3)
    mixed = GroupElement(np.array([0.3, -0.2, 0.1]), random_rotation(rng), 0.9)
    for g in (GroupElement(np.zeros(3), np.eye(3), 1.25), mixed):
        assert semi_invariance(s, g, MultiplierSpec(1.0)) <= SEMI_INVARIANCE_PLANE_TOL


def test_semi_invariance_line(bump):
    s = xray(bump, LineGeometry(16, 16, 48, 48, 4.8))
    rng = np.random.default_rng(3)
    mixed = GroupElement(np.array([0.3, -0.2, 0.1]), random_rotation(rng), 0.9)
    for g in (GroupElement(np.zeros(3), np.eye(3), 1.25), mixed):
        assert semi_invariance(s, g, MultiplierSpec(0.5)) <= SEMI_INVARIANCE_LINE_TOL


def test_unitarization_power_matches_norm(bump):
    # Power-1 filtering of plane data reproduces the volume norm (the
    # isometry that motivates the default powers); 16x16 directions leave
    # only the direction-quadrature bias.
    from simrad.grid import l2_norm

    s = radon_plane(bump, PlaneGeometry(16, 16, 65, 4.8))
    filtered = apply_multiplier(s, MultiplierSpec(1.0))
    assert sinogram_norm(filtered) == pytest.approx(l2_norm(bump), rel=1e-2)
