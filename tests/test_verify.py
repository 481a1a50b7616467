"""Report plumbing, doubled-sphere parity checks, and the check harness."""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import simrad.invert as invert
import simrad.verify as verify
from simrad.grid import Volume, apply_pi, gaussian_mixture_phantom, gaussian_phantom
from simrad.group import GroupElement, PlaneLabel, unit_normal
from simrad.invert import apply_pi_hat
from simrad.verify import (
    ABLATION_DILATION,
    ABLATION_FLOOR,
    EVENNESS_ELEMENT,
    INTERTWINING_TOL,
    ISOMETRY_TOL,
    PARITY_TOL,
    SLICE_PAD_FACTOR,
    SLICE_TOL,
    ReportEntry,
    ResidualReport,
    VerifyConfig,
    _axis_rotation,
    _flip_plane_label,
    antipodal_image,
    check_evenness_subspace,
    check_fiber_constancy,
    check_fourier_slice,
    check_intertwining,
    check_isometry,
    compact_phantom,
    describe_element,
    make_entry,
    mixture_phantom,
    parity_split,
    run_all,
    smooth_doubled_field,
    standard_intertwining_sweep,
)
from simrad.xform import (
    LineGeometry,
    PlaneGeometry,
    PlaneSinogram,
    _padded_spectra,
    _padded_spectrum,
    fourier_slice,
    radon_plane,
    sinogram_norm,
    xray,
)

# Permutation-level identities (roll / flip / exact-node sampling) hold to
# rounding; measured at or below 4e-15.
EXACT_TOL = 1e-12
# The production tolerances for the slice and covariance checks are
# calibrated for the default n=64, h=0.15 grids.  On the coarse unit-test
# grid (n=32, h=0.3) the projector and trilinear-mover discretization errors
# grow past them (measured slice 1.2e-2/2.1e-2, covariance 7.8e-2/9.0e-2),
# so these bounds only pin the checks structurally; the acceptance suite
# asserts the production tolerances at full scale.
COARSE_SLICE_TOL = 3e-2
COARSE_INTERTWINE_TOL = 1.5e-1

COARSE = VerifyConfig(
    n=32,
    spacing=0.3,
    n_theta=16,
    n_phi=16,
    n_t=65,
    t_max=4.8,
    n_u=48,
    u_max=4.8,
)
# The sizes of the ``verify`` benchmark workload (the demo grid, 16x16 directions).
VERIFY_SIZES = VerifyConfig(
    n=48, spacing=0.2, n_theta=16, n_phi=16, n_t=97, t_max=4.8, n_u=48, u_max=4.8
)
# A check that can fail reads at least this much on a wrong input.
CONTROL_FLOOR = 0.1
# Relative L2 error of either side of the Fourier-slice check against the
# mixture's closed-form spectrum at VERIFY_SIZES.  Measured: the padded volume
# spectrum read at the slice points 2.9e-4 (plane) and 3.3e-4 (line), 3.1e-3
# and 3.2e-3 at pad 1, 0.18 and 0.21 with the -1 and 0 Keys taps swapped; the
# sinogram spectra 2.3e-4 and 4.0e-4.
EXACT_SPECTRUM_TOL = 1e-3
# tracemalloc peak of the padded spectrum and both Fourier-slice checks at
# VERIFY_SIZES; measured 50 MiB, 270 MiB for the trilinear read at pad 4.
SLICE_CHECK_PEAK_MIB = 80
# The mixture phantom's centers, scales and amplitudes.
MIXTURE = ([[0.6, -0.45, 0.3], [-0.75, 0.3, -0.6]], [0.7, 0.9], [1.0, 0.7])


@pytest.fixture(scope="module")
def coarse_report() -> ResidualReport:
    config = VerifyConfig(
        n=32,
        spacing=0.3,
        n_theta=16,
        n_phi=16,
        n_t=65,
        t_max=4.8,
        n_u=48,
        u_max=4.8,
        checks=("isometry", "fiber", "evenness", "controls"),
    )
    return run_all(config)


@pytest.fixture(scope="module")
def verify_sizes_slices() -> tuple:
    """The mixture at VERIFY_SIZES and its plane and line sinograms."""
    mix = mixture_phantom(VERIFY_SIZES)
    return mix, (
        radon_plane(mix, VERIFY_SIZES.plane_geometry()),
        xray(mix, VERIFY_SIZES.line_geometry()),
    )


def exact_mixture_spectrum(freqs: np.ndarray) -> np.ndarray:
    """``sum amp s^3 exp(-pi s^2 |w|^2) exp(-2 pi i w . c)`` at (..., 3) frequencies."""
    w2 = np.sum(freqs * freqs, axis=-1)
    return sum(
        amp * s**3 * np.exp(-np.pi * s**2 * w2) * np.exp(-2j * np.pi * (freqs @ np.asarray(c)))
        for c, s, amp in zip(*MIXTURE)
    )


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def test_make_entry_pass_logic():
    assert make_entry("ok", 0.5, 1.0).passed
    assert not make_entry("high", 1.5, 1.0).passed
    assert not make_entry("inf", np.inf, np.inf).passed
    assert not make_entry("nan", np.nan, 1.0).passed
    # negative residuals against tolerance 0 encode "measured above a floor"
    assert make_entry("floor", -0.03, 0.0).passed


def test_report_lines_are_sorted_and_formatted():
    report = ResidualReport()
    report.add(make_entry("zeta", 0.25, 1.0))
    report.add(make_entry("alpha", np.inf, 0.0))
    assert report.lines() == [
        "CHECK alpha residual=inf tol=0 pass=0",
        "CHECK zeta residual=0.25 tol=1 pass=1",
    ]
    assert not report.all_passed


def test_report_json_is_strict():
    report = ResidualReport()
    report.add(make_entry("finite", 0.25, 1.0, context="c"))
    report.add(make_entry("errored", np.inf, 0.0))
    parsed = json.loads(report.to_json())
    assert parsed["all_passed"] is False
    by_name = {e["name"]: e for e in parsed["entries"]}
    assert by_name["finite"]["residual"] == 0.25
    assert by_name["finite"]["pass"] is True
    # strict JSON has no Infinity token: non-finite residuals are strings
    assert by_name["errored"]["residual"] == "inf"
    assert "Infinity" not in report.to_json()


def test_report_entry_is_frozen():
    entry = make_entry("x", 0.1, 1.0)
    with pytest.raises(AttributeError):
        entry.residual = 0.0  # type: ignore[misc]


def test_verify_config_geometries_mirror_fields():
    config = VerifyConfig()
    assert config.plane_geometry() == PlaneGeometry(32, 32, 129, 6.0)
    assert config.line_geometry() == LineGeometry(32, 32, 64, 64, 4.8)
    assert COARSE.plane_geometry() == PlaneGeometry(16, 16, 65, 4.8)
    assert COARSE.line_geometry() == LineGeometry(16, 16, 48, 48, 4.8)


def test_axis_rotation():
    assert np.allclose(
        _axis_rotation(2, np.pi / 2) @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0]
    )
    assert np.allclose(
        _axis_rotation(0, np.pi / 2) @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0]
    )
    with pytest.raises(ValueError):
        _axis_rotation(1, 0.5)


# ---------------------------------------------------------------------------
# Element sweep
# ---------------------------------------------------------------------------


def test_sweep_has_twelve_pinned_elements():
    sweep = standard_intertwining_sweep()
    assert len(sweep) == 12
    dilations = [g for g in sweep if g.a != 1.0]
    rotations = [g for g in sweep if g.a == 1.0 and not np.allclose(g.R, np.eye(3))]
    translations = [g for g in sweep if g.a == 1.0 and np.allclose(g.R, np.eye(3))]
    assert sorted(g.a for g in dilations) == [0.8, 1.25]
    assert all(np.linalg.norm(g.b) == 0.0 for g in dilations + rotations)
    angles = sorted(
        round(np.rad2deg(np.arccos((np.trace(g.R) - 1.0) / 2.0))) for g in rotations
    )
    assert angles == [15, 15, 30, 30, 45, 45]
    assert len(translations) == 4
    for g in translations:
        assert abs(np.linalg.norm(g.b) - 1.2) <= 6e-3


def test_describe_element():
    assert describe_element(GroupElement(np.zeros(3), np.eye(3), 1.25)) == (
        "a=1.25 rot=0deg |b|=0"
    )


# ---------------------------------------------------------------------------
# Individual checks at the coarse configuration
# ---------------------------------------------------------------------------


def test_fourier_slice_check_structural():
    mix = mixture_phantom(COARSE)
    spectrum = _padded_spectrum(mix, SLICE_PAD_FACTOR * mix.n)
    for sinogram, kind in (
        (radon_plane(mix, COARSE.plane_geometry()), "plane"),
        (xray(mix, COARSE.line_geometry()), "line"),
    ):
        entry = check_fourier_slice(sinogram, spectrum)
        assert entry.name == f"fourier_slice_{kind}"
        assert entry.tolerance == SLICE_TOL
        assert entry.residual <= COARSE_SLICE_TOL
        assert entry.passed == (entry.residual <= SLICE_TOL)


def test_slice_pad_factor_keeps_the_slice_check_well_inside_its_tolerance():
    # At the verify workload's sizes the residuals read 3.7e-4 (plane) and
    # 5.1e-4 (line) at pad 2, and about 3.1e-3 at pad 1.
    report = run_all(replace(VERIFY_SIZES, checks=("fourier_slice",)))
    assert [e.name for e in report.entries] == ["fourier_slice_plane", "fourier_slice_line"]
    assert all(e.residual <= SLICE_TOL / 2 for e in report.entries)


def test_slice_reference_matches_the_exact_mixture_spectrum(verify_sizes_slices):
    # The volume side of the check, the padded spectrum read at the slice
    # points, against the mixture's closed-form spectrum.
    mix, sinograms = verify_sizes_slices
    assert np.array_equal(mix.data, gaussian_mixture_phantom(mix.n, mix.spacing, *MIXTURE).data)
    spectrum = _padded_spectrum(mix, SLICE_PAD_FACTOR * mix.n)
    for s in sinograms:
        exact = exact_mixture_spectrum(s.geometry.slice_frequencies())
        sliced = fourier_slice(spectrum, s.geometry)
        assert np.linalg.norm(sliced - exact) <= EXACT_SPECTRUM_TOL * np.linalg.norm(exact)


def test_sinogram_spectra_match_the_exact_mixture_spectrum(verify_sizes_slices):
    # The sinogram side of the check against the same closed form.
    _, sinograms = verify_sizes_slices
    for s in sinograms:
        exact = exact_mixture_spectrum(s.geometry.slice_frequencies())
        measured, *_ = _padded_spectra(s, 1)
        assert np.linalg.norm(measured - exact) <= EXACT_SPECTRUM_TOL * np.linalg.norm(exact)


def test_slice_check_peak_memory_at_verify_sizes(verify_sizes_slices):
    mix, sinograms = verify_sizes_slices
    tracemalloc.start()
    try:
        spectrum = _padded_spectrum(mix, SLICE_PAD_FACTOR * mix.n)
        entries = [check_fourier_slice(s, spectrum) for s in sinograms]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(e.passed for e in entries)
    assert peak <= SLICE_CHECK_PEAK_MIB * 2**20


def test_isometry_check_passes_at_coarse_scale(coarse_report):
    by_name = {e.name: e for e in coarse_report.entries}
    for kind in ("plane", "line"):
        entry = by_name[f"isometry_{kind}"]
        assert entry.tolerance == ISOMETRY_TOL
        assert entry.passed
        assert entry.context.startswith("ratio=")


def test_fiber_constancy_check():
    entry = check_fiber_constancy(mixture_phantom(COARSE))
    assert entry.name == "fiber_constancy"
    assert entry.residual <= EXACT_TOL
    assert entry.passed


def test_flip_plane_label_names_the_antipodal_label():
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta, phi, t = rng.uniform(0.0, np.pi), rng.uniform(0.0, np.pi), rng.uniform(-2.0, 2.0)
        flipped = _flip_plane_label(PlaneLabel(theta, phi, t))
        n = unit_normal(theta, phi)
        assert np.max(np.abs(unit_normal(flipped.theta, flipped.phi) + n)) <= EXACT_TOL
        assert flipped.t == -t


@pytest.mark.parametrize("n, spacing", [(32, 0.3), (48, 0.2), (64, 0.15)])
def test_fiber_check_fails_on_a_relabel_that_keeps_the_offset(monkeypatch, n, spacing):
    # The normal flips but the offset does not: the plane n.x = -t, a different one.
    monkeypatch.setattr(
        verify,
        "_flip_plane_label",
        lambda label: PlaneLabel(label.theta + np.pi, np.pi - label.phi, label.t),
    )
    entry = check_fiber_constancy(mixture_phantom(VerifyConfig(n=n, spacing=spacing)))
    assert entry.residual >= CONTROL_FLOOR
    assert not entry.passed


def test_intertwining_and_ablation_checks():
    compact = compact_phantom(COARSE)
    dilation = GroupElement(np.zeros(3), np.eye(3), 1.25)
    plane_geom = COARSE.plane_geometry()
    line_geom = COARSE.line_geometry()
    moved = apply_pi(dilation, compact)
    pairs = {
        "plane": (radon_plane(compact, plane_geom), radon_plane(moved, plane_geom)),
        "line": (xray(compact, line_geom), xray(moved, line_geom)),
    }
    for kind, (reference, moved_sino) in pairs.items():
        entry = check_intertwining(dilation, reference, moved_sino)
        assert entry.name == f"intertwining_{kind}"
        assert entry.tolerance == INTERTWINING_TOL
        assert entry.residual <= COARSE_INTERTWINE_TOL
    # With the character ablated, the plane residual must clear the floor
    # (chi = a separates from 1 by 25%); the line character sqrt(a) moves only
    # 12% at a = 1.25, below the floor, which is why the harness pools the two.
    ablated_plane = check_intertwining(dilation, *pairs["plane"], ablate_character=True)
    assert ablated_plane.name == "control_character_ablation_plane"
    assert ablated_plane.residual == pytest.approx(
        ABLATION_FLOOR - 0.2078, abs=5e-3
    )
    assert ablated_plane.passed
    ablated_line = check_intertwining(dilation, *pairs["line"], ablate_character=True)
    assert ablated_line.name == "control_character_ablation_line"
    assert not ablated_line.passed


def test_intertwining_reports_a_zero_reference_as_zero_input():
    # A zero field cannot show the character: the identity holds trivially,
    # and the ablation control, which needs the character to show, fails.
    geometry = COARSE.plane_geometry()
    zero = radon_plane(Volume(np.zeros((32, 32, 32)), 0.3), geometry)
    entry = check_intertwining(standard_intertwining_sweep()[3], zero, zero)
    assert (entry.residual, entry.context, entry.passed) == (0.0, "zero input", True)
    ablated = check_intertwining(ABLATION_DILATION, zero, zero, ablate_character=True)
    assert ablated.residual == ABLATION_FLOOR
    assert not ablated.passed
    report = run_all(
        replace(COARSE, checks=("controls",)), volume=Volume(np.zeros((32, 32, 32)), 0.3)
    )
    entries = {e.name: e for e in report.entries}
    assert sorted(entries) == [
        "control_admissibility_rejects_gaussian",
        "control_character_ablation",
    ]
    assert entries["control_character_ablation"].residual == ABLATION_FLOOR
    assert not entries["control_character_ablation"].passed


# ---------------------------------------------------------------------------
# Doubled-sphere parity machinery
# ---------------------------------------------------------------------------


def test_antipodal_image_is_an_involution():
    F = smooth_doubled_field(COARSE.plane_geometry(), seed=3).data
    assert np.array_equal(antipodal_image(antipodal_image(F)), F)


def test_antipodal_image_maps_negated_arguments():
    geometry = COARSE.plane_geometry()
    dirs = smooth_doubled_field(geometry).geometry.normals
    u = np.array([0.3, -1.1, 0.7])
    F = (dirs @ u)[:, :, None] * np.exp(-((geometry.ts[None, None, :] - 0.3) ** 2))
    expected = (-dirs @ u)[:, :, None] * np.exp(
        -((-geometry.ts[None, None, :] - 0.3) ** 2)
    )
    assert np.max(np.abs(antipodal_image(F) - expected)) <= EXACT_TOL


def test_parity_split_reconstructs_and_commutes():
    F = smooth_doubled_field(COARSE.plane_geometry(), seed=5).data
    even, odd = parity_split(F)
    assert np.max(np.abs(even + odd - F)) <= EXACT_TOL
    assert np.array_equal(antipodal_image(even), even)
    assert np.array_equal(antipodal_image(odd), -odd)


def test_doubled_action_identity_is_exact():
    F = smooth_doubled_field(COARSE.plane_geometry(), seed=0)
    out = apply_pi_hat(GroupElement.identity(), F)
    assert np.max(np.abs(out.data - F.data)) <= EXACT_TOL


@pytest.mark.parametrize("rows", [5, 19, -7])
def test_doubled_action_rotating_by_whole_rows_is_a_roll(rows):
    # azimuth rows are pi / n_theta apart on the doubled sphere too, and the
    # roll carries rows across the 2 pi seam
    geometry = COARSE.plane_geometry()
    F = smooth_doubled_field(geometry, seed=1)
    g = GroupElement(np.zeros(3), _axis_rotation(2, rows * geometry.dtheta), 1.0)
    out = apply_pi_hat(g, F)
    assert np.max(np.abs(out.data - np.roll(F.data, rows, axis=0))) <= EXACT_TOL


def test_doubled_action_half_turn_about_x_reverses_both_angles():
    # (theta, phi) -> (-theta, pi - phi): the chart's rows read the antipodal
    # rows, where the polar row is mirrored, and the other way round
    F = smooth_doubled_field(COARSE.plane_geometry(), seed=2)
    out = apply_pi_hat(GroupElement(np.zeros(3), _axis_rotation(0, np.pi), 1.0), F)
    assert np.max(np.abs(out.data - F.data[::-1, ::-1, :])) <= EXACT_TOL


def test_evenness_subspace_check():
    F = smooth_doubled_field(COARSE.plane_geometry(), seed=0)
    entries = check_evenness_subspace(F, EVENNESS_ELEMENT)
    assert [e.name for e in entries] == [
        "evenness_even_preserved",
        "evenness_odd_preserved",
        "evenness_parity_orthogonal",
    ]
    assert all(e.passed for e in entries)


def test_evenness_element_of_run_all_moves_the_field():
    # An element that leaves the field in place would pass the check vacuously.
    config = replace(VERIFY_SIZES, checks=("evenness",))
    report = run_all(config)
    assert {e.context for e in report.entries} == {describe_element(EVENNESS_ELEMENT)}
    F = smooth_doubled_field(config.plane_geometry(), config.seed)
    moved = apply_pi_hat(EVENNESS_ELEMENT, F)
    change = PlaneSinogram(moved.data - F.data, F.geometry)
    assert sinogram_norm(change) / sinogram_norm(F) >= CONTROL_FLOOR


def test_evenness_check_fails_without_the_offset_reversal(monkeypatch):
    F = smooth_doubled_field(VERIFY_SIZES.plane_geometry(), seed=0)
    even, *_ = check_evenness_subspace(F, EVENNESS_ELEMENT)
    assert even.residual <= PARITY_TOL
    # F(-n, t) instead of F(-n, -t): the shift moves t by n.b, so this map
    # does not commute with the action
    monkeypatch.setattr(
        verify, "antipodal_image", lambda F: np.roll(F, F.shape[0] // 2, axis=0)[:, ::-1, :]
    )
    even, *_ = check_evenness_subspace(F, EVENNESS_ELEMENT)
    assert even.residual >= CONTROL_FLOOR
    assert not even.passed


def test_smooth_doubled_field_is_seed_deterministic():
    geometry = COARSE.plane_geometry()
    assert np.array_equal(
        smooth_doubled_field(geometry, 11).data, smooth_doubled_field(geometry, 11).data
    )
    assert not np.array_equal(
        smooth_doubled_field(geometry, 11).data, smooth_doubled_field(geometry, 12).data
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_run_all_subset_passes_and_names_entries(coarse_report):
    names = sorted(e.name for e in coarse_report.entries)
    assert names == [
        "control_admissibility_rejects_gaussian",
        "control_character_ablation",
        "evenness_even_preserved",
        "evenness_odd_preserved",
        "evenness_parity_orthogonal",
        "fiber_constancy",
        "isometry_line",
        "isometry_plane",
    ]
    assert coarse_report.all_passed


def test_run_all_is_deterministic():
    config = VerifyConfig(
        n=32, spacing=0.3, n_theta=16, n_phi=16, n_t=65, t_max=4.8,
        n_u=48, u_max=4.8, checks=("fiber", "evenness"),
    )
    assert run_all(config).lines() == run_all(config).lines()


def test_run_all_volume_override_surfaces_reach_errors():
    # A field whose decay support exceeds the offset range cannot be projected;
    # with an explicit volume the harness must convert those reach guards into
    # failed *_error entries instead of aborting.
    config = VerifyConfig(
        n=32, spacing=0.3, n_theta=16, n_phi=16, n_t=65, t_max=4.0,
        n_u=40, u_max=4.0, checks=("isometry",),
    )
    report = run_all(config, volume=gaussian_phantom(32, 0.3, scale=1.2))
    assert not report.all_passed
    names = sorted(e.name for e in report.entries)
    assert names == [
        "forward_error", "forward_error", "isometry_error", "isometry_error",
    ]
    assert all(np.isinf(e.residual) and not e.passed for e in report.entries)


def test_run_all_reports_phantom_and_reference_failures():
    # At n=40 the built-in mixture does not fit the h=0.15 grid
    # (SupportOverflow), and an oversized override cannot be projected for
    # the intertwining reference (GeometryMismatch); both must come back as
    # failed entries, not as exceptions.
    report = run_all(VerifyConfig(n=40, checks=("fiber",)))
    assert [e.name for e in report.entries] == ["fiber_constancy_error"]
    assert "SupportOverflow" in report.entries[0].context
    config = VerifyConfig(
        n=32, spacing=0.3, n_theta=16, n_phi=16, n_t=65, t_max=4.0,
        n_u=40, u_max=4.0, checks=("intertwining",),
    )
    report = run_all(config, volume=gaussian_phantom(32, 0.3, scale=1.2))
    names = [e.name for e in report.entries]
    assert len(names) == 2 * len(standard_intertwining_sweep())
    assert all(name.startswith("intertwining_") and name.endswith("_error") for name in names)
    assert all("GeometryMismatch" in e.context for e in report.entries)
    assert all(np.isinf(e.residual) and not e.passed for e in report.entries)


def test_run_all_volume_override_feeds_checks():
    config = VerifyConfig(
        n=32, spacing=0.3, n_theta=16, n_phi=16, n_t=65, t_max=4.8,
        n_u=48, u_max=4.8, checks=("fiber",),
    )
    report = run_all(config, volume=gaussian_phantom(32, 0.3, center=[0.5, 0.2, -0.4]))
    assert [e.name for e in report.entries] == ["fiber_constancy"]
    assert report.all_passed


def test_run_all_projects_the_shared_dilation_once(monkeypatch):
    # The ablation control's a = 1.25 dilation is also in the sweep, so with
    # both checks run_all moves the compact phantom by it once and projects
    # the image once per geometry, and the residuals are those of unshared
    # checks.
    dilation = verify.ABLATION_DILATION
    assert any(g is dilation for g in standard_intertwining_sweep())
    monkeypatch.setattr(verify, "standard_intertwining_sweep", lambda: [dilation])
    moved = []
    apply_pi = verify.apply_pi
    monkeypatch.setattr(verify, "apply_pi", lambda g, v: moved.append(g.a) or apply_pi(g, v))
    config = replace(
        COARSE, n_theta=8, n_phi=8, n_t=33, n_u=24, checks=("intertwining", "controls")
    )
    by_name = {e.name: e for e in run_all(config).entries}
    assert moved == [1.25]
    v = compact_phantom(config)
    kinds = ((config.plane_geometry(), radon_plane), (config.line_geometry(), xray))
    pairs = [(forward(v, geom), forward(apply_pi(dilation, v), geom)) for geom, forward in kinds]
    for reference, moved_sino in pairs:
        entry = check_intertwining(dilation, reference, moved_sino, label="00")
        assert by_name[entry.name].residual == entry.residual
    ablated = min(
        check_intertwining(dilation, *pair, ablate_character=True).residual for pair in pairs
    )
    assert by_name["control_character_ablation"].residual == ablated


def test_checks_are_pure_functions_of_their_inputs(monkeypatch):
    # Handed the projections and the padded spectrum, no check projects,
    # moves or pads anything itself, and each returns run_all's entry.
    config = replace(COARSE, checks=("fourier_slice", "isometry", "fiber", "controls"))
    by_name = {e.name: e for e in run_all(config).entries}
    mix, compact = mixture_phantom(config), compact_phantom(config)
    dilation = verify.ABLATION_DILATION
    spectrum = _padded_spectrum(mix, SLICE_PAD_FACTOR * mix.n)
    kinds = ((config.plane_geometry(), radon_plane), (config.line_geometry(), xray))
    moved = apply_pi(dilation, compact)
    inputs = {
        geom.kind: (forward(mix, geom), forward(compact, geom), forward(moved, geom))
        for geom, forward in kinds
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a check computed its own input")

    for name in ("radon_plane", "xray"):
        monkeypatch.setattr(invert, name, refuse)
    monkeypatch.setattr(verify, "_padded_spectrum", refuse)
    monkeypatch.setattr(verify, "apply_pi", refuse)
    ablated = []
    for kind, (mix_sino, reference, moved) in inputs.items():
        assert check_fourier_slice(mix_sino, spectrum) == by_name[f"fourier_slice_{kind}"]
        assert check_isometry(mix_sino, mix) == by_name[f"isometry_{kind}"]
        ablated.append(check_intertwining(dilation, reference, moved, ablate_character=True))
    assert min(e.residual for e in ablated) == by_name["control_character_ablation"].residual
    assert check_fiber_constancy(mix) == by_name["fiber_constancy"]


def test_run_all_computes_each_projection_and_spectrum_once(monkeypatch):
    # Every check but the sweep: per geometry the mixture, the compact
    # phantom and its dilation are each projected once, and one padded
    # spectrum serves both Fourier-slice checks.
    config = replace(
        COARSE, n_theta=8, n_phi=8, n_t=33, n_u=24,
        checks=("fourier_slice", "isometry", "fiber", "evenness", "controls"),
    )
    phantoms = {"mixture": mixture_phantom(config), "compact": compact_phantom(config)}
    projected = []

    def counted(forward):
        def wrapper(v, geom):
            name = next((k for k, p in phantoms.items() if np.array_equal(p.data, v.data)), "moved")
            projected.append((geom.kind, name))
            return forward(v, geom)

        return wrapper

    for name in ("radon_plane", "xray"):
        monkeypatch.setattr(invert, name, counted(getattr(invert, name)))
    padded = []
    pad = verify._padded_spectrum
    monkeypatch.setattr(
        verify, "_padded_spectrum", lambda v, n_pad: padded.append(n_pad) or pad(v, n_pad)
    )
    report = run_all(config)
    assert not any(e.name.endswith("_error") for e in report.entries)
    assert sorted(projected) == sorted(
        (kind, name) for kind in ("plane", "line") for name in ("mixture", "compact", "moved")
    )
    assert padded == [SLICE_PAD_FACTOR * config.n]
