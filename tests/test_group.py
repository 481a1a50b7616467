"""Group axioms, chart reduction, actions, and Haar invariance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simrad.errors import GeometryMismatch, ZeroVector
from simrad.group import (
    POLE_COLLAPSE_TOL,
    CharacterSet,
    GroupElement,
    LineLabel,
    PlaneLabel,
    act_line,
    act_plane,
    act_point,
    canonicalize_direction,
    canonicalize_directions,
    compose,
    haar_weight,
    icosahedral_directions,
    icosahedral_rotations,
    inverse,
    random_rotation,
    rotation_from_angles,
    section_line,
    section_plane,
    unit_normal,
)

# Float arithmetic on 3x3 products stays within a few ulps of machine epsilon
# even after the polar re-orthonormalization in compose(); 1e-12 leaves three
# orders of headroom over that and still sits below every physical tolerance.
AXIOM_TOL = 1e-12
# Label comparisons go through trig and chart reduction, which can lose a few
# more digits near the polar axis.
LABEL_TOL = 1e-9
# Collapsing |n_z| >= 1 - POLE_COLLAPSE_TOL onto the pole label moves a unit
# vector by at most sqrt(2 * POLE_COLLAPSE_TOL) in chord length; chart
# roundtrips can therefore be off by that much near the polar axis.
POLE_SNAP = float(np.sqrt(2.0 * POLE_COLLAPSE_TOL))
# Monte-Carlo invariance of the a^-4 measure: 4e5 importance samples leave
# ~2e-3 relative noise, so 2e-2 is a comfortable 10-sigma acceptance band.
HAAR_MC_TOL = 2e-2
# The right-translation control must deviate by at least the modular factor
# gap |a0^3 - 1| ~ 1.2 for a0 = 1.3; 0.2 declares the control decisively failed.
HAAR_CONTROL_FLOOR = 0.2


def _element(seed: int, a: float, b: tuple[float, float, float]) -> GroupElement:
    rng = np.random.default_rng(seed)
    return GroupElement(np.array(b), random_rotation(rng), a)


elements = st.builds(
    _element,
    st.integers(0, 2**32 - 1),
    st.floats(0.5, 2.0),
    st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
)

vectors = st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)).map(np.array)


def _element_distance(g1: GroupElement, g2: GroupElement) -> float:
    return max(
        float(np.max(np.abs(g1.b - g2.b))),
        float(np.max(np.abs(g1.R - g2.R))),
        abs(g1.a - g2.a),
    )


@given(g=elements)
@settings(max_examples=50, deadline=None)
def test_identity_is_neutral(g):
    e = GroupElement.identity()
    assert _element_distance(compose(g, e), g) <= AXIOM_TOL
    assert _element_distance(compose(e, g), g) <= AXIOM_TOL


@given(g1=elements, g2=elements, g3=elements)
@settings(max_examples=50, deadline=None)
def test_associativity(g1, g2, g3):
    left = compose(compose(g1, g2), g3)
    right = compose(g1, compose(g2, g3))
    assert _element_distance(left, right) <= AXIOM_TOL


@given(g=elements)
@settings(max_examples=50, deadline=None)
def test_inverse(g):
    e = GroupElement.identity()
    assert _element_distance(compose(g, inverse(g)), e) <= AXIOM_TOL
    assert _element_distance(compose(inverse(g), g), e) <= AXIOM_TOL
    assert _element_distance(inverse(inverse(g)), g) <= AXIOM_TOL


@given(g1=elements, g2=elements, x=vectors)
@settings(max_examples=50, deadline=None)
def test_point_action_is_homomorphism(g1, g2, x):
    via_product = act_point(compose(g1, g2), x)
    sequential = act_point(g1, act_point(g2, x))
    assert np.max(np.abs(via_product - sequential)) <= AXIOM_TOL


@given(g1=elements, g2=elements)
@settings(max_examples=50, deadline=None)
def test_characters_are_homomorphisms(g1, g2):
    g12 = compose(g1, g2)
    for chars in (CharacterSet.plane(), CharacterSet.line()):
        assert chars.chi(g12) == pytest.approx(chars.chi(g1) * chars.chi(g2), rel=AXIOM_TOL)


def test_character_exponent_table():
    plane = CharacterSet.plane()
    assert (plane.alpha_exp, plane.beta_exp, plane.gamma_exp, plane.chi_exp) == (
        3.0,
        1.0,
        2.0,
        1.0,
    )
    line = CharacterSet.line()
    assert (line.alpha_exp, line.beta_exp, line.gamma_exp, line.chi_exp) == (
        3.0,
        3.0,
        1.0,
        0.5,
    )


def test_haar_weight_is_scale_only():
    rng = np.random.default_rng(3)
    g = GroupElement(np.array([5.0, -2.0, 1.0]), random_rotation(rng), 2.0)
    assert haar_weight(g) == pytest.approx(2.0**-4, rel=1e-15)
    assert haar_weight(GroupElement.identity()) == 1.0


# --- chart reduction --------------------------------------------------------


@pytest.mark.parametrize(
    "u, expect",
    [
        ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
        ((0.0, 0.0, -2.0), (0.0, 0.0, -1.0)),
        ((0.0, 1.0, 0.0), (np.pi / 2, np.pi / 2, 1.0)),
        ((0.0, -1.0, 0.0), (np.pi / 2, np.pi / 2, -1.0)),
        ((1.0, 0.0, 0.0), (0.0, np.pi / 2, 1.0)),
        ((-1.0, 0.0, 0.0), (0.0, np.pi / 2, -1.0)),
    ],
)
def test_canonicalize_examples(u, expect):
    theta, phi, sign = canonicalize_direction(np.array(u))
    assert theta == pytest.approx(expect[0], abs=1e-15)
    assert phi == pytest.approx(expect[1], abs=1e-15)
    assert sign == expect[2]


@pytest.mark.parametrize("tiny", [0.0, 1e-17, -1e-17, 1e-13, -1e-13])
@pytest.mark.parametrize("x_sign", [1.0, -1.0])
def test_canonicalize_meridian_seam(tiny, x_sign):
    # Rounding can place an antipodal image a fraction of an ulp off the
    # y = 0 seam; the label must still reconstruct +-u, never its mirror.
    u = np.array([0.8 * x_sign, tiny, 0.6])
    theta, phi, sign = canonicalize_direction(u)
    rebuilt = sign * unit_normal(theta, phi)
    assert np.max(np.abs(rebuilt - u / np.linalg.norm(u))) <= 1e-12
    assert theta == 0.0


@given(u=vectors.filter(lambda v: np.linalg.norm(v) > 1e-6))
@settings(max_examples=200, deadline=None)
def test_canonicalize_roundtrip_and_chart_membership(u):
    theta, phi, sign = canonicalize_direction(u)
    n = sign * unit_normal(theta, phi)
    assert np.max(np.abs(n - u / np.linalg.norm(u))) <= POLE_SNAP + LABEL_TOL
    assert 0.0 <= theta < np.pi
    assert 0.0 <= phi <= np.pi
    chart = unit_normal(theta, phi)
    at_pole = phi == 0.0
    assert at_pole or chart[1] > 0.0 or (abs(chart[1]) <= 1e-12 and chart[0] >= 0.0)


def test_canonicalize_vectorized_matches_scalar():
    rng = np.random.default_rng(11)
    u = rng.standard_normal((40, 3))
    theta, phi, sign = canonicalize_directions(u)
    for i in range(len(u)):
        ts, ps, ss = canonicalize_direction(u[i])
        assert (ts, ps, ss) == (theta[i], phi[i], sign[i])


def test_canonicalize_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        canonicalize_direction(np.zeros(3))


# --- label actions ----------------------------------------------------------


def _same_plane(l1: PlaneLabel, l2: PlaneLabel) -> bool:
    n1, n2 = unit_normal(l1.theta, l1.phi), unit_normal(l2.theta, l2.phi)
    s = 1.0 if float(n1 @ n2) >= 0.0 else -1.0
    return (
        np.max(np.abs(n1 - s * n2)) <= LABEL_TOL and abs(l1.t - s * l2.t) <= LABEL_TOL
    )


def _same_line(l1: LineLabel, l2: LineLabel) -> bool:
    n1, n2 = unit_normal(l1.theta, l1.phi), unit_normal(l2.theta, l2.phi)
    return (
        abs(abs(float(n1 @ n2)) - 1.0) <= LABEL_TOL
        and np.max(np.abs(l1.offset - l2.offset)) <= LABEL_TOL
    )


plane_labels = st.builds(
    PlaneLabel,
    st.floats(0.0, np.pi - 1e-3),
    st.floats(1e-3, np.pi - 1e-3),
    st.floats(-2.0, 2.0),
)


def _line_label(theta: float, phi: float, p: float, q: float) -> LineLabel:
    frame = rotation_from_angles(theta, phi)
    return LineLabel(theta, phi, p * frame[:, 0] + q * frame[:, 1])


line_labels = st.builds(
    _line_label,
    st.floats(0.0, np.pi - 1e-3),
    st.floats(1e-3, np.pi - 1e-3),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)


@given(g1=elements, g2=elements, label=plane_labels)
@settings(max_examples=50, deadline=None)
def test_plane_action_is_homomorphism(g1, g2, label):
    assert _same_plane(
        act_plane(compose(g1, g2), label), act_plane(g1, act_plane(g2, label))
    )


@given(g=elements, label=plane_labels)
@settings(max_examples=50, deadline=None)
def test_plane_action_moves_points_of_the_plane(g, label):
    # A point on the plane must land on the image plane.
    n = unit_normal(label.theta, label.phi)
    frame = rotation_from_angles(label.theta, label.phi)
    for coeffs in ((0.0, 0.0), (1.3, -0.4)):
        x = label.t * n + coeffs[0] * frame[:, 0] + coeffs[1] * frame[:, 1]
        moved = act_plane(g, label)
        m = unit_normal(moved.theta, moved.phi)
        y = act_point(g, x)
        assert abs(float(m @ y) - moved.t) <= LABEL_TOL * max(1.0, abs(moved.t))


@given(g1=elements, g2=elements, label=line_labels)
@settings(max_examples=50, deadline=None)
def test_line_action_is_homomorphism(g1, g2, label):
    assert _same_line(
        act_line(compose(g1, g2), label), act_line(g1, act_line(g2, label))
    )


@given(g=elements, label=line_labels)
@settings(max_examples=50, deadline=None)
def test_line_action_moves_points_of_the_line(g, label):
    n = unit_normal(label.theta, label.phi)
    moved = act_line(g, label)
    m = unit_normal(moved.theta, moved.phi)
    for lam in (0.0, 1.7):
        y = act_point(g, label.offset + lam * n)
        # Distance from y to the moved line (projection residual).
        d = y - moved.offset
        residual = d - float(m @ d) * m
        assert np.max(np.abs(residual)) <= LABEL_TOL * max(1.0, float(np.linalg.norm(y)))


def test_line_label_requires_perpendicular_offset():
    with pytest.raises(GeometryMismatch):
        LineLabel(0.0, np.pi / 2, np.array([1.0, 0.0, 0.0]))  # parallel, not perp


@given(label=plane_labels)
@settings(max_examples=50, deadline=None)
def test_section_plane_reaches_label(label):
    g = section_plane(label)
    reference = PlaneLabel(0.0, 0.0, 0.0)  # the plane z = 0
    assert _same_plane(act_plane(g, reference), label)
    assert g.a == 1.0


@given(label=line_labels)
@settings(max_examples=50, deadline=None)
def test_section_line_reaches_label(label):
    g = section_line(label)
    reference = LineLabel(0.0, 0.0, np.zeros(3))  # the z-axis
    assert _same_line(act_line(g, reference), label)
    assert g.a == 1.0


# --- frames and rotation helpers -------------------------------------------


@given(theta=st.floats(0.0, np.pi), phi=st.floats(0.0, np.pi))
@settings(max_examples=100, deadline=None)
def test_frame_third_column_is_normal(theta, phi):
    frame = rotation_from_angles(theta, phi)
    assert np.max(np.abs(frame.T @ frame - np.eye(3))) <= AXIOM_TOL
    assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(frame[:, 2] - unit_normal(theta, phi))) <= AXIOM_TOL


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_rotation_is_rotation(seed):
    R = random_rotation(np.random.default_rng(seed))
    assert np.max(np.abs(R.T @ R - np.eye(3))) <= AXIOM_TOL
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_icosahedral_directions_are_well_spread():
    d = icosahedral_directions()
    assert d.shape == (12, 3)
    assert np.max(np.abs(np.linalg.norm(d, axis=1) - 1.0)) <= AXIOM_TOL
    dots = d @ d.T
    off = dots[~np.eye(12, dtype=bool)]
    # Icosahedron vertices meet at arccos(+-1/sqrt(5)) or are antipodal.
    assert np.all(
        (np.abs(np.abs(off) - 1.0 / np.sqrt(5.0)) <= 1e-12)
        | (np.abs(off + 1.0) <= 1e-12)
    )


def test_icosahedral_rotations_align_with_vertices():
    dirs = icosahedral_directions()
    for d, R in zip(dirs, icosahedral_rotations()):
        assert np.max(np.abs(R.T @ R - np.eye(3))) <= AXIOM_TOL
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(R[:, 2] - d)) <= 1e-12


# --- Haar measure -----------------------------------------------------------


def _haar_samples(n: int, seed: int):
    """Importance samples of the left measure restricted to a window.

    Scales are drawn log-uniformly on [1/4, 4] and shifts uniformly on
    [-6, 6]^3; the importance weight a^-3 makes the weighted empirical
    measure proportional to a^-4 da db dR on the window.  Rotations are
    sampled exactly Haar-uniformly via unit quaternions.
    """
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(np.log(0.25), np.log(4.0), n))
    b = rng.uniform(-6.0, 6.0, (n, 3))
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    R = np.empty((n, 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return a, b, R, a**-3.0


def _haar_test_function(a: np.ndarray, b: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Smooth bump supported on a in [1/2, 2], |b_i| < 2, times a rotation term.

    The support sits well inside the sampling window even after translating
    by the fixed test element, so no truncated mass biases the comparison.
    """
    ua = np.log(a) / np.log(2.0)
    fa = np.clip(1.0 - ua * ua, 0.0, None) ** 3
    ub = b / 2.0
    fb = np.prod(np.clip(1.0 - ub * ub, 0.0, None) ** 3, axis=1)
    fr = 1.0 + 0.5 * R[:, 0, 2]
    return fa * fb * fr


def test_haar_monte_carlo_left_invariance():
    a, b, R, w = _haar_samples(400_000, seed=20240817)
    g0 = GroupElement(
        np.array([0.7, -0.4, 0.5]), random_rotation(np.random.default_rng(5)), 1.3
    )
    base = float(np.sum(w * _haar_test_function(a, b, R)))
    # Left translation: (b0, R0, a0) * (b, R, a) componentwise.
    a_l = g0.a * a
    b_l = g0.b + g0.a * (b @ g0.R.T)
    R_l = np.einsum("ij,njk->nik", g0.R, R)
    shifted = float(np.sum(w * _haar_test_function(a_l, b_l, R_l)))
    assert abs(shifted / base - 1.0) <= HAAR_MC_TOL

    # Negative control: the same weights are NOT right-invariant; the modular
    # factor a0^3 = 2.197 must show up.
    a_r = a * g0.a
    b_r = b + (a[:, None] * (R @ g0.b))
    R_r = np.einsum("nij,jk->nik", R, g0.R)
    right = float(np.sum(w * _haar_test_function(a_r, b_r, R_r)))
    assert abs(right / base - 1.0) >= HAAR_CONTROL_FLOOR


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(np.zeros(3), np.eye(3), -1.0)
    with pytest.raises(ValueError):
        GroupElement(np.zeros(3), 2.0 * np.eye(3), 1.0)
    with pytest.raises(ValueError):
        GroupElement(np.zeros(3), np.diag([1.0, 1.0, -1.0]), 1.0)
    # non-finite entries pass the sign, orthonormality and determinant tests
    for b, R, a in (
        (np.zeros(3), np.eye(3), np.nan),
        (np.zeros(3), np.eye(3), np.inf),
        (np.zeros(3), np.diag([1.0, 1.0, np.nan]), 1.0),
        ([0.0, np.nan, 0.0], np.eye(3), 1.0),
        ([np.inf, 0.0, 0.0], np.eye(3), 1.0),
    ):
        with pytest.raises(ValueError, match="finite"):
            GroupElement(b, R, a)
