"""Similitude group of R^3 and its actions on points, planes, and lines.

A group element is a triple ``(b, R, a)`` of translation, rotation, and
positive scale acting on points by ``x -> b + a * R x``.  Composition follows
from acting with the left factor after the right one, so

    (b1, R1, a1) * (b2, R2, a2) = (b1 + a1 * R1 b2, R1 R2, a1 * a2).

Unoriented planes are labelled by ``(theta, phi, t)`` where ``(theta, phi)``
selects a unit normal

    n = (sin(phi) cos(theta), sin(phi) sin(theta), cos(phi))

and ``t`` is the signed offset of the plane ``{x : n . x = t}``.  Because a
plane does not remember the sign of its normal, labels are restricted to one
representative normal per antipodal pair: the chart keeps directions with
``n_y > 0``, plus the half equator ``n_y = 0, n_x > 0``, plus the single north
pole ``+e3`` labelled ``(0, 0)``.  ``canonicalize_direction`` maps any nonzero
vector to the chart and reports the sign that was absorbed; offsets flip with
that sign.

Unoriented lines are labelled by a chart direction plus the perpendicular foot
point of the line (the offset vector with ``n . offset = 0``).  The group acts
on lines geometrically: map two points of the line, renormalize.

Rotations about ``e3`` by ``theta`` then about ``e2`` by ``phi`` give the
reference frame ``rotation_from_angles``; its third column is the unit normal,
and the first two columns frame the plane through the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch, ZeroVector

# Orthonormality drift tolerated in stored rotations; compose() re-projects to
# the nearest rotation once accumulated float error exceeds this.
ORTHONORMALITY_TOL = 1e-12
# Vectors shorter than this cannot be normalized into a direction.
ZERO_DIRECTION_TOL = 1e-10
# |n_z| this close to 1 collapses to the pole label (0, 0).
POLE_COLLAPSE_TOL = 1e-12
# Directions this close to the y = 0 meridian are snapped onto it before the
# hemisphere test so that sign and azimuth are decided together (see
# canonicalize_directions); moving a unit vector by 1e-12 is far below every
# quadrature tolerance in the package.
MERIDIAN_TOL = 1e-12
# Maximum violation of n . offset = 0 accepted in a line label.
LINE_PERP_TOL = 1e-10


def _as_unit_rows(u: np.ndarray) -> np.ndarray:
    """Normalize an (..., 3) array of vectors, raising ZeroVector on degenerate rows."""
    u = np.asarray(u, dtype=float)
    norms = np.sqrt(np.sum(u * u, axis=-1))
    if np.any(norms < ZERO_DIRECTION_TOL):
        raise ZeroVector("direction vector has near-zero length")
    return u / norms[..., None]


@dataclass(frozen=True)
class GroupElement:
    """Similitude ``(b, R, a)``: translate by b, rotate by R, scale by a > 0."""

    b: np.ndarray
    R: np.ndarray
    a: float

    def __post_init__(self) -> None:
        b = np.asarray(self.b, dtype=float).reshape(3)
        R = np.asarray(self.R, dtype=float).reshape(3, 3)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "a", float(self.a))
        if not (np.isfinite(b).all() and np.isfinite(R).all() and np.isfinite(self.a)):
            raise ValueError("group element must be finite")
        if self.a <= 0.0:
            raise ValueError(f"scale must be positive, got {self.a}")
        defect = np.max(np.abs(R.T @ R - np.eye(3)))
        if defect > 1e-9:
            raise ValueError(f"rotation is not orthonormal (defect {defect:.2e})")
        if np.linalg.det(R) < 0.0:
            raise ValueError("rotation has negative determinant")

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(np.zeros(3), np.eye(3), 1.0)


@dataclass(frozen=True)
class PlaneLabel:
    """Chart label ``(theta, phi, t)`` of an unoriented plane ``n . x = t``."""

    theta: float
    phi: float
    t: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "t", float(self.t))


@dataclass(frozen=True)
class LineLabel:
    """Chart direction ``(theta, phi)`` plus perpendicular foot point of a line."""

    theta: float
    phi: float
    offset: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", float(self.phi))
        offset = np.asarray(self.offset, dtype=float).reshape(3)
        object.__setattr__(self, "offset", offset)
        n = unit_normal(self.theta, self.phi)
        if abs(float(n @ offset)) > LINE_PERP_TOL * max(1.0, float(np.linalg.norm(offset))):
            raise GeometryMismatch("line offset is not perpendicular to the direction")


@dataclass(frozen=True)
class CharacterSet:
    """Tabulated scale-character exponents for one transform geometry.

    Each character is the power ``a ** exponent`` of the scale part of a group
    element: ``alpha_exp`` for the point-space Jacobian, ``beta_exp`` for the
    fiber (label-space) Jacobian, ``gamma_exp`` for the offset dilation, and
    ``chi_exp`` for the factor appearing in the intertwining relation between
    the transform and the two quasi-regular representations, which
    :meth:`chi` evaluates.
    """

    alpha_exp: float
    beta_exp: float
    gamma_exp: float
    chi_exp: float

    @staticmethod
    def plane() -> "CharacterSet":
        return CharacterSet(alpha_exp=3.0, beta_exp=1.0, gamma_exp=2.0, chi_exp=1.0)

    @staticmethod
    def line() -> "CharacterSet":
        return CharacterSet(alpha_exp=3.0, beta_exp=3.0, gamma_exp=1.0, chi_exp=0.5)

    def chi(self, g: GroupElement) -> float:
        return g.a**self.chi_exp


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group product ``g1 * g2`` with re-orthonormalization of the rotation drift."""
    R = g1.R @ g2.R
    defect = np.max(np.abs(R.T @ R - np.eye(3)))
    if defect > ORTHONORMALITY_TOL:
        # Project back to the nearest rotation (polar factor via SVD).
        u, _, vt = np.linalg.svd(R)
        R = u @ vt
    return GroupElement(g1.b + g1.a * (g1.R @ g2.b), R, g1.a * g2.a)


def inverse(g: GroupElement) -> GroupElement:
    """Group inverse ``(-a^-1 R^-1 b, R^-1, a^-1)``."""
    Rinv = g.R.T
    return GroupElement(-(Rinv @ g.b) / g.a, Rinv, 1.0 / g.a)


def act_point(g: GroupElement, x: np.ndarray) -> np.ndarray:
    """Apply ``x -> b + a R x`` to an (..., 3) array of points."""
    x = np.asarray(x, dtype=float)
    return g.b + g.a * (x @ g.R.T)


def haar_weight(g: GroupElement) -> float:
    """Density ``a^-4`` of the left-invariant measure ``a^-4 db dR da``.

    The rotation factor is normalized to total mass 1, so the weight depends
    only on the scale part.
    """
    return g.a**-4.0


def unit_normal(theta: float, phi: float) -> np.ndarray:
    """Unit vector with azimuth ``theta`` and polar angle ``phi`` (broadcasting)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    sp = np.sin(phi)
    return np.stack(
        np.broadcast_arrays(sp * np.cos(theta), sp * np.sin(theta), np.cos(phi)),
        axis=-1,
    )


def rotation_from_angles(theta: float, phi: float) -> np.ndarray:
    """Frame ``Rz(theta) @ Ry(phi)``; column 2 equals ``unit_normal(theta, phi)``."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    rz = np.array([[ct, -st, 0.0], [st, ct, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    return rz @ ry


def canonicalize_directions(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized chart reduction of (..., 3) direction vectors.

    Returns ``(theta, phi, sign)`` with ``sign * u / |u|`` in the chart: either
    the pole label ``(0, 0)`` or azimuth in ``[0, pi)`` and polar in ``(0, pi)``.
    """
    n = _as_unit_rows(u)
    x, y, z = n[..., 0], n[..., 1], n[..., 2]

    at_pole = np.abs(z) >= 1.0 - POLE_COLLAPSE_TOL
    # Hemisphere sign: positive y wins; within MERIDIAN_TOL of the y = 0 seam
    # positive x wins (a bare y > 0 test lets azimuths one rounding step from
    # pi survive, and arctan2 then rounds them to exactly pi, silently
    # mirroring the label); at the poles the sign of z itself.
    on_meridian = (np.abs(y) <= MERIDIAN_TOL) & ~at_pole
    sign = np.where(y > 0.0, 1.0, -1.0)
    sign = np.where(on_meridian, np.where(x >= 0.0, 1.0, -1.0), sign)
    sign = np.where(at_pole, np.where(z > 0.0, 1.0, -1.0), sign)

    cx, cy, cz = sign * x, sign * y, sign * z
    theta = np.where(at_pole | on_meridian, 0.0, np.arctan2(cy, cx))
    # Guard against -0.0 azimuth.
    theta = np.where(theta <= 0.0, 0.0, theta)
    phi = np.where(at_pole, 0.0, np.arccos(np.clip(cz, -1.0, 1.0)))
    return theta, phi, sign


def canonicalize_direction(u: np.ndarray) -> tuple[float, float, float]:
    """Scalar form of :func:`canonicalize_directions` for a single 3-vector."""
    theta, phi, sign = canonicalize_directions(np.asarray(u, dtype=float).reshape(3))
    return float(theta), float(phi), float(sign)


def act_plane(g: GroupElement, label: PlaneLabel) -> PlaneLabel:
    """Image of a plane under ``x -> b + a R x``, reduced back to the chart.

    The mapped plane has normal ``R n`` and offset ``a t + (R n) . b``; the
    chart reduction flips the offset sign together with the normal.
    """
    n = unit_normal(label.theta, label.phi)
    rn = g.R @ n
    theta, phi, sign = canonicalize_direction(rn)
    return PlaneLabel(theta, phi, sign * (g.a * label.t + float(rn @ g.b)))


def act_line(g: GroupElement, label: LineLabel) -> LineLabel:
    """Image of a line under ``x -> b + a R x``, reduced back to the chart.

    The foot point of the mapped line is the image of the old foot point
    projected onto the plane perpendicular to the new direction.
    """
    n = unit_normal(label.theta, label.phi)
    rn = g.R @ n
    theta, phi, _ = canonicalize_direction(rn)
    moved = act_point(g, label.offset)
    new_n = unit_normal(theta, phi)
    return LineLabel(theta, phi, moved - float(new_n @ moved) * new_n)


def section_plane(label: PlaneLabel) -> GroupElement:
    """A group element mapping the reference plane ``z = 0`` onto the labelled plane."""
    n = unit_normal(label.theta, label.phi)
    return GroupElement(label.t * n, rotation_from_angles(label.theta, label.phi), 1.0)


def section_line(label: LineLabel) -> GroupElement:
    """A group element mapping the reference line (the z-axis) onto the labelled line."""
    return GroupElement(label.offset, rotation_from_angles(label.theta, label.phi), 1.0)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform rotation matrix from a uniform unit quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def icosahedral_directions() -> np.ndarray:
    """The 12 icosahedron vertex directions, a well-spread covering of the sphere."""
    g = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            verts.append((0.0, s1, s2 * g))
            verts.append((s1, s2 * g, 0.0))
            verts.append((s2 * g, 0.0, s1))
    v = np.array(verts)
    return v / np.linalg.norm(v[0])


def icosahedral_rotations() -> list[np.ndarray]:
    """Frames whose third axis runs through each icosahedron vertex direction."""
    frames = []
    for d in icosahedral_directions():
        theta, phi, sign = canonicalize_directions(d[None, :])
        frames.append(rotation_from_angles(float(theta[0]), float(phi[0])))
        if sign[0] < 0:
            # Restore the original (antipodal) vertex as the frame's third axis.
            frames[-1] = frames[-1] @ np.diag([1.0, -1.0, -1.0])
    return frames
