"""Acceptance gate: every shipped guarantee, each at its stated bound.

Each test prints one ``ACCEPT <name> ...`` line per guaranteed bound (run
with ``pytest tests/test_acceptance.py -v -s`` to see them all) and then
asserts the bound.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from simrad.grid import Volume, gaussian_phantom, l2_norm, log_wavelet
from simrad.group import (
    CharacterSet,
    GroupElement,
    LineLabel,
    PlaneLabel,
    act_line,
    act_plane,
    act_point,
    compose,
    haar_weight,
    inverse,
    random_rotation,
    rotation_from_angles,
    section_line,
    section_plane,
    unit_normal,
)
from simrad.invert import (
    GroupLattice,
    invert_direct_fourier,
    invert_fbp_plane,
    invert_wavelet,
)
from simrad.verify import (
    ABLATION_FLOOR,
    AGREEMENT_TOL,
    INTERTWINING_TOL,
    ISOMETRY_TOL,
    PARITY_TOL,
    SLICE_TOL,
    VerifyConfig,
    mixture_phantom,
    run_all,
)
from simrad.xform import LineGeometry, PlaneGeometry, radon_plane, xray

from test_group import _haar_samples, _haar_test_function

# Full-scale grids: these are the sizes at which the quality bounds below are
# guaranteed; the unit suites cover the same properties on smaller grids.
N_FULL = 64
H_FULL = 0.15
PLANE_FULL = PlaneGeometry(32, 32, 129, 6.0)
LINE_FULL = LineGeometry(32, 32, 64, 64, 4.8)

# Detector-domain accuracy of the forward transforms on the unit Gaussian,
# measured over detector coordinates of magnitude at most ORACLE_RANGE.
ORACLE_MAX_ABS = 1e-3
ORACLE_RANGE = 3.0
FORWARD_BUDGET_S = 60.0

# Reconstruction quality on the central INTERIOR_FRACTION of the grid (per
# axis), for the unit Gaussian and for the harder two-bump mixture.
INTERIOR_FRACTION = 0.75
RECON_TOL_GAUSSIAN = 5e-2
RECON_TOL_MIXTURE = 7e-2
RECON_BUDGET_S = 300.0

# Wavelet synthesis: reconstruction bound at the coarsest ladder level, and
# the window plus refinement trend required of the energy-identity ratio.
WAVELET_ERR_LIMIT = 1.5e-1
ENERGY_WINDOW = (0.5, 1.5)

# Group algebra: exact identities up to floating-point roundoff, and the
# Monte-Carlo invariance of the left measure.
ALGEBRA_TOL = 1e-10
HAAR_MC_TOL = 2e-2

TIMINGS: dict[str, float] = {}


def _line(name: str, value: float, bound: float, ok: bool, kind: str = "max") -> None:
    word = "limit" if kind == "max" else "floor"
    print(f"ACCEPT {name:<34} value={value:.6g} {word}={bound:.6g} pass={int(ok)}")


def _entry(report, name: str):
    matches = [e for e in report.entries if e.name == name]
    assert len(matches) == 1, f"expected exactly one entry named {name}"
    return matches[0]


@pytest.fixture(scope="module")
def unit_gaussian() -> Volume:
    return gaussian_phantom(N_FULL, H_FULL)


@pytest.fixture(scope="module")
def plane_oracle_sino(unit_gaussian):
    start = time.perf_counter()
    s = radon_plane(unit_gaussian, PLANE_FULL)
    TIMINGS["radon_full"] = time.perf_counter() - start
    return s


@pytest.fixture(scope="module")
def line_oracle_sino(unit_gaussian):
    start = time.perf_counter()
    s = xray(unit_gaussian, LINE_FULL)
    TIMINGS["xray_full"] = time.perf_counter() - start
    return s


@pytest.fixture(scope="module")
def full_report():
    return run_all(VerifyConfig())


def test_criterion_1_plane_gaussian_oracle(plane_oracle_sino):
    ts = PLANE_FULL.ts
    mask = np.abs(ts) <= ORACLE_RANGE
    oracle = np.exp(-np.pi * ts[mask] ** 2)
    err = float(np.max(np.abs(plane_oracle_sino.data[:, :, mask] - oracle)))
    runtime = TIMINGS["radon_full"]
    _line("c1_plane_gaussian_max_abs_err", err, ORACLE_MAX_ABS, err <= ORACLE_MAX_ABS)
    _line("c1_forward_runtime_s", runtime, FORWARD_BUDGET_S, runtime <= FORWARD_BUDGET_S)
    assert err <= ORACLE_MAX_ABS
    assert runtime <= FORWARD_BUDGET_S


def test_criterion_2_line_gaussian_oracle(line_oracle_sino):
    geom = LINE_FULL
    w2 = geom.us[:, None] ** 2 + geom.vs[None, :] ** 2
    mask = w2 <= ORACLE_RANGE**2
    oracle = np.exp(-np.pi * w2[mask])
    err = float(np.max(np.abs(line_oracle_sino.data[:, :, mask] - oracle)))
    runtime = TIMINGS["xray_full"]
    _line("c2_line_gaussian_max_abs_err", err, ORACLE_MAX_ABS, err <= ORACLE_MAX_ABS)
    _line("c2_forward_runtime_s", runtime, FORWARD_BUDGET_S, runtime <= FORWARD_BUDGET_S)
    assert err <= ORACLE_MAX_ABS
    assert runtime <= FORWARD_BUDGET_S


def test_criterion_3_fourier_slice(full_report):
    for kind in ("plane", "line"):
        e = _entry(full_report, f"fourier_slice_{kind}")
        _line(f"c3_fourier_slice_{kind}", e.residual, SLICE_TOL, e.passed)
    for kind in ("plane", "line"):
        e = _entry(full_report, f"fourier_slice_{kind}")
        assert e.tolerance == SLICE_TOL == 1e-2
        assert e.passed


def test_criterion_4_unitarization_isometry(full_report):
    for kind in ("plane", "line"):
        e = _entry(full_report, f"isometry_{kind}")
        _line(f"c4_isometry_{kind}", e.residual, ISOMETRY_TOL, e.passed)
    for kind in ("plane", "line"):
        e = _entry(full_report, f"isometry_{kind}")
        assert e.tolerance == ISOMETRY_TOL == 2e-2
        assert e.passed


def test_criterion_5_intertwining_sweep_and_ablation(full_report):
    sweep = [e for e in full_report.entries if e.name.startswith("intertwining_")]
    assert len(sweep) == 24  # 12 group elements x 2 geometries
    worst = max(e.residual for e in sweep)
    all_ok = all(e.passed for e in sweep)
    _line("c5_intertwining_worst_of_24", worst, INTERTWINING_TOL, all_ok)
    control = _entry(full_report, "control_character_ablation")
    # the entry stores floor minus the measured residual, negative iff passing
    ablated = ABLATION_FLOOR - control.residual
    _line("c5_ablation_residual", ablated, ABLATION_FLOOR, control.passed, kind="min")
    assert INTERTWINING_TOL == 5e-2
    assert all_ok
    assert control.passed


def _interior_error(rec: Volume, ref: Volume) -> float:
    trim = round(ref.n * (1.0 - INTERIOR_FRACTION) / 2.0)
    core = (slice(trim, -trim),) * 3
    diff = rec.data[core] - ref.data[core]
    return float(np.linalg.norm(diff) / np.linalg.norm(ref.data[core]))


def test_criterion_6_reconstruction_interior_error(
    unit_gaussian, plane_oracle_sino, line_oracle_sino
):
    start = time.perf_counter()
    mix = mixture_phantom(VerifyConfig())
    cases = []
    for name, vol, plane_sino, line_sino in (
        ("gaussian", unit_gaussian, plane_oracle_sino, line_oracle_sino),
        ("mixture", mix, radon_plane(mix, PLANE_FULL), xray(mix, LINE_FULL)),
    ):
        tol = RECON_TOL_GAUSSIAN if name == "gaussian" else RECON_TOL_MIXTURE
        recs = (
            ("fbp_plane", invert_fbp_plane(plane_sino, N_FULL, H_FULL)),
            ("fourier_plane", invert_direct_fourier(plane_sino, N_FULL, H_FULL)[0]),
            ("fourier_line", invert_direct_fourier(line_sino, N_FULL, H_FULL)[0]),
        )
        for path, rec in recs:
            cases.append((f"c6_{path}_{name}", _interior_error(rec, vol), tol))
    runtime = time.perf_counter() - start
    for name, err, tol in cases:
        _line(name, err, tol, err <= tol)
    _line("c6_runtime_s", runtime, RECON_BUDGET_S, runtime <= RECON_BUDGET_S)
    for name, err, tol in cases:
        assert err <= tol, name
    assert runtime <= RECON_BUDGET_S


# Wavelet refinement ladder: each level widens the shift window, tightens the
# shift spacing, and extends the scale span, so the lattice sums at level k+1
# dominate those at level k.  scripts/wavelet_refinement.py prints the study.
LADDER = (
    (0.9, 4, 0.8, 4.8, 4),
    (1.5, 6, 0.8, 5.6, 6),
    (2.1, 8, 0.8, 6.4, 8),
)


@pytest.fixture(scope="module")
def wavelet_ladder():
    vol = gaussian_phantom(32, 0.3, scale=1.25)
    sino = radon_plane(vol, PlaneGeometry(32, 32, 129, 6.0))
    psi = log_wavelet(32, 0.3, 1.0)
    results = []
    for extent, n_shift, a_lo, a_hi, n_scale in LADDER:
        lattice = GroupLattice.build(extent, n_shift, a_lo, a_hi, n_scale)
        rec, metrics = invert_wavelet(sino, psi, lattice)
        err = float(np.linalg.norm(rec.data - vol.data) / np.linalg.norm(vol.data))
        # The energy identity equates the coefficient energy with the squared
        # norm of the imaged volume; that is the ratio the refinement trend is
        # stated for.  (metrics.energy_ratio instead divides by the truncated
        # synthesis output and only drives the coarseness warning.)
        results.append((err, metrics.coefficient_energy / l2_norm(vol) ** 2))
    return results


def test_criterion_7_wavelet_accuracy(wavelet_ladder):
    # No ladder lattice is a tight frame, so the truncated, Calderon-normalized
    # sum of atoms stays near 25% at every level.  invert_wavelet instead
    # solves for the volume whose lattice coefficients match the measured
    # ones (the dual frame); the refinement study shows 12.5% -> 8.0% -> 6.8%.
    # What remains is the part of the volume outside the span of the lattice
    # atoms, plus the early stop at the accuracy of the measured coefficients.
    err = wavelet_ladder[0][0]
    _line("c7_wavelet_coarse_rel_l2", err, WAVELET_ERR_LIMIT, err <= WAVELET_ERR_LIMIT)
    assert err <= WAVELET_ERR_LIMIT


def test_criterion_7_energy_ratio_window_and_trend(wavelet_ladder):
    ratios = [ratio for _, ratio in wavelet_ladder]
    gaps = [abs(ratio - 1.0) for ratio in ratios]
    lo, hi = ENERGY_WINDOW
    for level, ratio in enumerate(ratios):
        _line(f"c7_energy_ratio_level{level}", ratio, hi, lo <= ratio <= hi)
    monotone = gaps[0] > gaps[1] > gaps[2]
    _line("c7_energy_gap_final_vs_initial", gaps[2], gaps[0], monotone)
    assert all(lo <= ratio <= hi for ratio in ratios)
    assert monotone


def test_criterion_8_fiber_constancy_and_evenness(full_report):
    fiber = _entry(full_report, "fiber_constancy")
    _line("c8_fiber_constancy", fiber.residual, AGREEMENT_TOL, fiber.passed)
    parity_names = (
        "evenness_even_preserved",
        "evenness_odd_preserved",
        "evenness_parity_orthogonal",
    )
    entries = [_entry(full_report, name) for name in parity_names]
    worst = max(e.residual for e in entries)
    all_ok = all(e.passed for e in entries)
    _line("c8_evenness_worst_of_3", worst, PARITY_TOL, all_ok)
    assert fiber.tolerance == AGREEMENT_TOL == 1e-6
    assert fiber.passed
    assert all(e.tolerance == PARITY_TOL == 1e-6 for e in entries)
    assert all_ok


def _random_element(rng: np.random.Generator) -> GroupElement:
    return GroupElement(
        rng.uniform(-2.0, 2.0, 3),
        random_rotation(rng),
        float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))),
    )


def _element_gap(g: GroupElement, h: GroupElement) -> float:
    return max(
        float(np.max(np.abs(g.b - h.b))),
        float(np.max(np.abs(g.R - h.R))),
        abs(g.a - h.a),
    )


def _plane_gap(l1: PlaneLabel, l2: PlaneLabel) -> float:
    n1, n2 = unit_normal(l1.theta, l1.phi), unit_normal(l2.theta, l2.phi)
    s = 1.0 if float(n1 @ n2) >= 0.0 else -1.0
    return max(float(np.max(np.abs(n1 - s * n2))), abs(l1.t - s * l2.t))


def _line_gap(l1: LineLabel, l2: LineLabel) -> float:
    n1, n2 = unit_normal(l1.theta, l1.phi), unit_normal(l2.theta, l2.phi)
    return max(
        abs(abs(float(n1 @ n2)) - 1.0), float(np.max(np.abs(l1.offset - l2.offset)))
    )


def test_criterion_9_group_algebra_and_haar():
    rng = np.random.default_rng(20240823)
    eye = GroupElement.identity()
    plane_root = PlaneLabel(0.0, 0.0, 0.0)
    line_root = LineLabel(0.0, 0.0, np.zeros(3))
    worst = 0.0
    for _ in range(40):
        g1, g2, g3 = (_random_element(rng) for _ in range(3))
        worst = max(
            worst,
            _element_gap(compose(compose(g1, g2), g3), compose(g1, compose(g2, g3))),
            _element_gap(compose(g1, eye), g1),
            _element_gap(compose(eye, g1), g1),
            _element_gap(compose(g1, inverse(g1)), eye),
        )
        g12 = compose(g1, g2)
        for chars in (CharacterSet.plane(), CharacterSet.line()):
            worst = max(worst, abs(chars.chi(g12) / (chars.chi(g1) * chars.chi(g2)) - 1.0))
        worst = max(
            worst, abs(haar_weight(g12) / (haar_weight(g1) * haar_weight(g2)) - 1.0)
        )
        x = rng.uniform(-2.0, 2.0, 3)
        worst = max(
            worst,
            float(np.max(np.abs(act_point(g12, x) - act_point(g1, act_point(g2, x))))),
        )
        theta, phi = rng.uniform(0.2, np.pi - 0.2, 2)
        plane = PlaneLabel(theta, phi, rng.uniform(-1.5, 1.5))
        worst = max(
            worst, _plane_gap(act_plane(g12, plane), act_plane(g1, act_plane(g2, plane)))
        )
        frame = rotation_from_angles(theta, phi)
        offset = rng.uniform(-1.5, 1.5) * frame[:, 0] + rng.uniform(-1.5, 1.5) * frame[:, 1]
        line = LineLabel(theta, phi, offset)
        worst = max(
            worst, _line_gap(act_line(g12, line), act_line(g1, act_line(g2, line)))
        )
        worst = max(worst, _plane_gap(act_plane(section_plane(plane), plane_root), plane))
        worst = max(worst, _line_gap(act_line(section_line(line), line_root), line))
    _line("c9_algebra_worst_residual", worst, ALGEBRA_TOL, worst <= ALGEBRA_TOL)

    a, b, R, w = _haar_samples(400_000, seed=20240817)
    g0 = GroupElement(
        np.array([0.7, -0.4, 0.5]), random_rotation(np.random.default_rng(5)), 1.3
    )
    base = float(np.sum(w * _haar_test_function(a, b, R)))
    shifted = float(
        np.sum(
            w
            * _haar_test_function(
                g0.a * a, g0.b + g0.a * (b @ g0.R.T), np.einsum("ij,njk->nik", g0.R, R)
            )
        )
    )
    drift = abs(shifted / base - 1.0)
    _line("c9_haar_left_invariance", drift, HAAR_MC_TOL, drift <= HAAR_MC_TOL)
    assert worst <= ALGEBRA_TOL
    assert drift <= HAAR_MC_TOL
