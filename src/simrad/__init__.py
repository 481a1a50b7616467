"""Similitude-group Radon / X-ray transform toolkit for sampled fields on R^3."""

from __future__ import annotations

import importlib

from .errors import (
    GeometryMismatch,
    InsufficientCoverage,
    LatticeTooCoarse,
    NotAdmissible,
    SimradError,
    SupportOverflow,
    ZeroVector,
)

__version__ = "0.1.0"

# Public symbols are re-exported lazily (PEP 562) so that importing the
# package -- in particular the command line module -- does not pull in numpy
# before the thread-cap environment variables are in place.
_EXPORTS = {
    "group": (
        "CharacterSet",
        "GroupElement",
        "LineLabel",
        "PlaneLabel",
        "act_line",
        "act_plane",
        "act_point",
        "canonicalize_direction",
        "canonicalize_directions",
        "compose",
        "haar_weight",
        "icosahedral_directions",
        "icosahedral_rotations",
        "inverse",
        "random_rotation",
        "rotation_from_angles",
        "section_line",
        "section_plane",
        "unit_normal",
    ),
    "grid": (
        "Spectrum3D",
        "Volume",
        "apply_pi",
        "dft3",
        "gaussian_mixture_phantom",
        "gaussian_phantom",
        "idft3",
        "inner",
        "l2_norm",
        "log_wavelet",
        "resample",
    ),
    "xform": (
        "LineGeometry",
        "LineSinogram",
        "PlaneGeometry",
        "PlaneSinogram",
        "backproject_plane",
        "fourier_slice",
        "line_integral",
        "plane_integral",
        "radon_plane",
        "sinogram_inner",
        "sinogram_norm",
        "xray",
    ),
    "filters": (
        "MultiplierSpec",
        "admissibility_constant",
        "apply_multiplier",
    ),
    "invert": (
        "FourierCoverage",
        "GroupLattice",
        "WaveletMetrics",
        "apply_pi_hat",
        "apply_pi_hat_line",
        "apply_pi_hat_plane",
        "invert_direct_fourier",
        "invert_fbp_plane",
        "invert_wavelet",
    ),
    "verify": (
        "ReportEntry",
        "ResidualReport",
        "VerifyConfig",
        "run_all",
        "standard_intertwining_sweep",
    ),
    "io": (
        "read_sinogram",
        "read_volume",
        "write_sinogram",
        "write_volume",
    ),
}
_SYMBOL_HOME = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(
    {
        "GeometryMismatch",
        "InsufficientCoverage",
        "LatticeTooCoarse",
        "NotAdmissible",
        "SimradError",
        "SupportOverflow",
        "ZeroVector",
        *_SYMBOL_HOME,
    }
)


def __getattr__(name: str):
    home = _SYMBOL_HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SYMBOL_HOME))
