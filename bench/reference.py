"""Computations the benchmark checks simrad against, made without simrad.

A Gaussian mixture ``sum_k a_k exp(-pi |x - c_k|^2 / s_k^2)`` has closed-form
samples, plane integrals and line integrals:

- over the plane ``{x : n . x = t}``: ``a_k s_k^2 exp(-pi (t - n . c_k)^2 / s_k^2)``;
- along the line through ``u e1 + v e2`` with direction ``n``:
  ``a_k s_k exp(-pi ((u - e1 . c_k)^2 + (v - e2 . c_k)^2) / s_k^2)``.

The direction chart, offset grid and detector grid are written out here from
the conventions the package documents: midpoint angles on ``[0, pi)^2``, the
frame ``Rz(theta) @ Ry(phi)`` with columns ``(e1, e2, n)``, offsets
``linspace(-t_max, t_max, n_t)`` and detector cells centered on zero with pitch
``2 u_max / n_u``.  The file readers follow the README's format description,
not ``simrad.io``.  Only numpy is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VOL_HEADER_BYTES = 64
SGM_HEADER_BYTES = 96


@dataclass(frozen=True)
class Mixture:
    """Gaussian bumps: centers (k, 3), widths (k,), amplitudes (k,)."""

    centers: np.ndarray
    widths: np.ndarray
    amplitudes: np.ndarray

    def samples(self, n: int, spacing: float) -> np.ndarray:
        """Values on the grid ``(i - n // 2) * spacing`` per axis, index order x, y, z."""
        x = (np.arange(n) - n // 2) * spacing
        out = np.zeros((n, n, n))
        for c, s, a in zip(self.centers, self.widths, self.amplitudes):
            gx, gy, gz = (np.exp(-np.pi * (x - c[i]) ** 2 / s**2) for i in range(3))
            out += a * gx[:, None, None] * gy[None, :, None] * gz[None, None, :]
        return out

    def plane_integrals(self, n_theta: int, n_phi: int, n_t: int, t_max: float) -> np.ndarray:
        """Closed-form plane sinogram, shape (n_theta, n_phi, n_t)."""
        _, _, normal = chart_frames(n_theta, n_phi)
        ts = np.linspace(-t_max, t_max, n_t)
        out = np.zeros((n_theta, n_phi, n_t))
        for c, s, a in zip(self.centers, self.widths, self.amplitudes):
            d = ts[None, None, :] - (normal @ c)[:, :, None]
            out += a * s**2 * np.exp(-np.pi * d**2 / s**2)
        return out

    def line_integrals(
        self, n_theta: int, n_phi: int, n_u: int, n_v: int, u_max: float
    ) -> np.ndarray:
        """Closed-form line sinogram, shape (n_theta, n_phi, n_u, n_v)."""
        e1, e2, _ = chart_frames(n_theta, n_phi)
        us = detector_axis(n_u, u_max)
        vs = detector_axis(n_v, u_max)
        out = np.zeros((n_theta, n_phi, n_u, n_v))
        for c, s, a in zip(self.centers, self.widths, self.amplitudes):
            gu = np.exp(-np.pi * (us[None, None, :] - (e1 @ c)[:, :, None]) ** 2 / s**2)
            gv = np.exp(-np.pi * (vs[None, None, :] - (e2 @ c)[:, :, None]) ** 2 / s**2)
            out += a * s * gu[:, :, :, None] * gv[:, :, None, :]
        return out


def chart_frames(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame columns ``e1, e2, n`` of ``Rz(theta) @ Ry(phi)``, each (n_theta, n_phi, 3)."""
    th = ((np.arange(n_theta) + 0.5) * np.pi / n_theta)[:, None]
    ph = ((np.arange(n_phi) + 0.5) * np.pi / n_phi)[None, :]
    ct, st, cp, sp = np.cos(th), np.sin(th), np.cos(ph), np.sin(ph)
    zero = np.zeros_like(ct * cp)
    e1 = np.stack(np.broadcast_arrays(ct * cp, st * cp, -sp), axis=-1)
    e2 = np.stack(np.broadcast_arrays(-st + zero, ct + zero, zero), axis=-1)
    normal = np.stack(np.broadcast_arrays(ct * sp, st * sp, cp), axis=-1)
    return e1, e2, normal


def detector_axis(n: int, u_max: float) -> np.ndarray:
    return (np.arange(n) - (n - 1) / 2.0) * (2.0 * u_max / n)


def interior_error(rec: np.ndarray, ref: np.ndarray, fraction: float = 0.75) -> float:
    """Relative L2 error on the central ``fraction`` of the grid per axis."""
    trim = round(ref.shape[0] * (1.0 - fraction) / 2.0)
    core = (slice(trim, -trim),) * 3
    return float(np.linalg.norm(rec[core] - ref[core]) / np.linalg.norm(ref[core]))


def relative_error(rec: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(rec - ref) / np.linalg.norm(ref))


# --- files, from the README's format description ---------------------------


def _header(raw: bytes, magic: str) -> dict[str, str]:
    tokens = raw.decode("ascii").split()
    if tokens[:2] != [magic, "v1"]:
        raise ValueError(f"not a {magic} v1 header: {raw[:24]!r}")
    return dict(token.split("=", 1) for token in tokens[2:])


def read_svol(path: str) -> tuple[np.ndarray, float]:
    """Samples in index order (x, y, z) and the spacing of a ``.svol`` file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fields = _header(raw[:VOL_HEADER_BYTES], "SIMRAD-VOL")
    if fields["dtype"] != "f64":
        raise ValueError(f"unexpected dtype {fields['dtype']!r}")
    n = int(fields["N"])
    data = np.frombuffer(raw, dtype="<f8", offset=VOL_HEADER_BYTES)
    if data.size != n**3:
        raise ValueError(f"expected {n**3} samples, found {data.size}")
    # x varies fastest on disk, so the C-order block is indexed (z, y, x).
    return data.reshape(n, n, n).transpose(2, 1, 0), float(fields["h"])


def read_sgm(path: str) -> tuple[np.ndarray, dict[str, str]]:
    """Samples of a ``.sgm`` file in index order (theta, phi, detector axes)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fields = _header(raw[:SGM_HEADER_BYTES], "SIMRAD-SGM")
    shape = [int(fields["ntheta"]), int(fields["nphi"])]
    if fields["kind"] == "plane":
        shape.append(int(fields["nt"]))
    elif fields["kind"] == "line":
        shape += [int(fields["nu"]), int(fields["nv"])]
    else:
        raise ValueError(f"unknown kind {fields['kind']!r}")
    data = np.frombuffer(raw, dtype="<f8", offset=SGM_HEADER_BYTES)
    if data.size != int(np.prod(shape)):
        raise ValueError(f"expected {int(np.prod(shape))} samples, found {data.size}")
    return data.reshape(shape), fields


def write_svol(path: str, data: np.ndarray, spacing: float) -> None:
    """Write a centered-grid ``.svol`` file (used for the non-finite input)."""
    n = data.shape[0]
    o = -(n // 2) * spacing
    text = f"SIMRAD-VOL v1 N={n} h={spacing:.9g} origin={o:.9g},{o:.9g},{o:.9g} dtype=f64"
    with open(path, "wb") as fh:
        fh.write(text.ljust(VOL_HEADER_BYTES - 1).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(data.transpose(2, 1, 0), dtype="<f8").tobytes())
