"""Print one ``name sha256`` line per library output, to compare two checkouts bit for bit.

Usage, from the root of a simrad checkout:

    PYTHONPATH=src python3 scripts/output_hashes.py > hashes.txt

Run it in two checkouts on the same machine and ``diff`` the outputs: a
change that keeps every line kept every output's bytes.  The sizes are those
of ``scripts/reconstruction_demo.sh`` (the mixture phantom at N=48, h=0.2;
24x24 directions, 97 offsets or a 48x48 detector), except the wavelet
syntheses and ``run_all``.  The plane-data synthesis is level 0 of the
criterion-7 ladder at the ``wavelet`` benchmark workload's sizes, the
line-data synthesis and a second line ``invert_direct_fourier`` run at the
sizes of the unit test ``test_wavelet_line_synthesis``, and ``run_all`` and
the action on the doubled sphere of its evenness check at the ``verify``
benchmark workload's sizes.  ``run_all.sweep`` is the report of the
intertwining sweep with the controls at those sizes, two of whose line
entries fail there; the Fourier-slice lines read the mixture's
spectrum zero-padded as ``run_all`` pads it.  The hashes depend on the
machine's BLAS and FFT, so compare only runs from one machine, library build
and BLAS thread count.  Two runs of one
checkout on one machine must print the same lines: CI runs it twice and
``diff``s the outputs, a determinism check that holds whatever the BLAS.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace

import numpy as np

from simrad.grid import Volume, apply_pi, gaussian_phantom, log_wavelet
from simrad.group import LineLabel, PlaneLabel, compose, rotation_from_angles
from simrad.invert import (
    GroupLattice,
    apply_pi_hat,
    invert_direct_fourier,
    invert_fbp_plane,
    invert_wavelet,
)
from simrad.verify import (
    ABLATION_DILATION,
    EVENNESS_ELEMENT,
    SLICE_PAD_FACTOR,
    VerifyConfig,
    mixture_phantom,
    run_all,
    smooth_doubled_field,
    standard_intertwining_sweep,
)
from simrad.xform import (
    LineGeometry,
    PlaneGeometry,
    _padded_spectrum,
    fourier_slice,
    line_integral,
    plane_integral,
    radon_plane,
    xray,
)

N, H = 48, 0.2
PLANE = PlaneGeometry(24, 24, 97, 4.8)
LINE = LineGeometry(24, 24, 48, 48, 4.8)


def digest(*parts) -> str:
    """SHA-256 over arrays (shape, dtype and bytes), volumes and strings, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Volume):
            part = np.concatenate([part.data.ravel(), [part.spacing], part.origin])
        if isinstance(part, str):
            h.update(part.encode())
        else:
            a = np.ascontiguousarray(part)
            h.update(f"{a.shape}{a.dtype}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def main() -> int:
    volume = mixture_phantom(VerifyConfig(n=N, spacing=H))
    plane, line = radon_plane(volume, PLANE), xray(volume, LINE)
    lines = [("radon_plane", digest(plane.data)), ("xray", digest(line.data))]
    lines.append(("invert_fbp_plane", digest(invert_fbp_plane(plane, N, H))))
    for kind, s in (("plane", plane), ("line", line)):
        rec, coverage = invert_direct_fourier(s, N, H)
        lines.append((f"invert_direct_fourier.{kind}", digest(rec)))
        fraction = np.float64(coverage.covered_fraction)
        lines.append((f"invert_direct_fourier.{kind}.covered_fraction", digest(fraction)))
    # a rotation by 30 degrees about z, then the sweep's diagonal shift
    sweep = standard_intertwining_sweep()
    moved = compose(sweep[-1], sweep[3])
    for kind, s in (("plane", plane), ("line", line)):
        for label, g in (("dilation", ABLATION_DILATION), ("rotation_shift", moved)):
            lines.append((f"apply_pi_hat.{kind}.{label}", digest(apply_pi_hat(g, s).data)))
    # the trilinear resampling's consumers, the volume action and the direct
    # quadratures, and the slice check's cubic spectrum read
    for label, g in (("dilation", ABLATION_DILATION), ("rotation_shift", moved)):
        lines.append((f"apply_pi.{label}", digest(apply_pi(g, volume))))
    spectrum = _padded_spectrum(volume, SLICE_PAD_FACTOR * N)
    for geometry in (PLANE, LINE):
        lines.append((f"fourier_slice.{geometry.kind}", digest(fourier_slice(spectrum, geometry))))
    del spectrum
    planes = [PlaneLabel(0.3, 1.1, 0.4), PlaneLabel(2.0, 0.5, -0.9), PlaneLabel(1.2, 2.6, 0.0)]
    integrals = [plane_integral(volume, label) for label in planes]
    for theta, phi, u, v in ((0.7, 1.2, 0.5, -0.3), (2.5, 0.4, 0.0, 0.8), (1.6, 2.9, -0.6, 0.2)):
        e1, e2, _ = rotation_from_angles(theta, phi).T
        integrals.append(line_integral(volume, LineLabel(theta, phi, u * e1 + v * e2)))
    lines.append(("plane_integral.line_integral", digest(np.array(integrals))))

    # level 0 of the criterion-7 ladder
    rec, _ = invert_wavelet(
        radon_plane(gaussian_phantom(32, 0.3, scale=1.25), PlaneGeometry(32, 32, 129, 6.0)),
        log_wavelet(32, 0.3, 1.0),
        GroupLattice.build(0.9, 4, 0.8, 4.8, 4),
    )
    lines.append(("invert_wavelet.plane", digest(rec)))

    wavelet_volume = gaussian_phantom(32, 0.3, center=(0.4, -0.3, 0.2))
    line16 = xray(wavelet_volume, LineGeometry(16, 16, 32, 32, 4.8))
    rec, _ = invert_wavelet(
        line16, log_wavelet(32, 0.3, 1.0), GroupLattice.build(0.9, 4, 0.8, 4.8, 4)
    )
    lines.append(("invert_wavelet.line", digest(rec)))
    # a second node set for the line route's stencil
    rec, coverage = invert_direct_fourier(line16, 32, 0.3)
    lines.append(("invert_direct_fourier.line16", digest(rec)))
    fraction = np.float64(coverage.covered_fraction)
    lines.append(("invert_direct_fourier.line16.covered_fraction", digest(fraction)))

    config = VerifyConfig(
        n=N, spacing=H, n_theta=16, n_phi=16, n_t=97, t_max=4.8, n_u=48, u_max=4.8,
        checks=("fourier_slice", "isometry", "fiber", "evenness", "controls"),
    )
    # the chart sampler on an unglued geometry, which only the evenness check reads
    doubled = smooth_doubled_field(config.plane_geometry(), config.seed)
    pushed = apply_pi_hat(EVENNESS_ELEMENT, doubled)
    lines.append(("apply_pi_hat.plane.doubled", digest(pushed.data)))
    lines.append(("run_all.verify", digest(run_all(config).to_json())))
    # the intertwining sweep and the ablation control that reads its residuals
    sweep_report = run_all(replace(config, checks=("intertwining", "controls")))
    lines.append(("run_all.sweep", digest(sweep_report.to_json())))
    for name, value in lines:
        print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
