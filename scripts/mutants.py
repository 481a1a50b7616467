"""Apply one-line mutants to a copy of the package and check that the tests kill each.

Usage, from the root of a simrad checkout:

    python scripts/mutants.py            # every mutant in the table
    python scripts/mutants.py NAME ...   # the named mutants only

Each row of ``MUTANTS`` names a file, an exact text that occurs in it once,
the text that replaces it, and the tests that must fail on the result.  The
script copies ``src``, ``tests`` and ``pyproject.toml`` into a temporary
directory, runs the union of the selected tests there once unmutated (they
must pass, or a failure would count as a kill), and then, per mutant,
rewrites the file, runs its tests and restores the file.  A mutant is killed
when pytest reports failing tests (exit code 1) and survives when they pass;
any other outcome, like an old text that is not found exactly once or tests
that do not collect, is an error of the table.  Prints one line per mutant
and exits 1 if any survived, 2 on a table error.  Standard library only;
the whole table takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "flip_plane_label_identity",
        "src/simrad/verify.py",
        "return PlaneLabel(label.theta + np.pi, np.pi - label.phi, -label.t)",
        "return label",
        ("tests/test_verify.py::test_flip_plane_label_names_the_antipodal_label",),
    ),
    Mutant(
        "evenness_identity_element",
        "src/simrad/verify.py",
        "check_evenness_subspace(F, EVENNESS_ELEMENT))",
        "check_evenness_subspace(F, GroupElement(np.zeros(3), np.eye(3), 1.0)))",
        ("tests/test_verify.py::test_evenness_element_of_run_all_moves_the_field",),
    ),
    Mutant(
        "coverage_tol_0.5",
        "src/simrad/invert.py",
        "COVERAGE_TOL = 0.01",
        "COVERAGE_TOL = 0.5",
        ("tests/test_invert.py::test_direct_fourier_insufficient_coverage_near_the_tolerance",),
    ),
    Mutant(
        "slice_pad_factor_1",
        "src/simrad/verify.py",
        "SLICE_PAD_FACTOR = 2",
        "SLICE_PAD_FACTOR = 1",
        ("tests/test_verify.py::test_slice_reference_matches_the_exact_mixture_spectrum",),
    ),
    Mutant(
        "keys_tap_swapped",
        "src/simrad/grid.py",
        "taps = (((1.0 - 0.5 * t) * t - 0.5) * t, (1.5 * t - 2.5) * t * t + 1.0)",
        "taps = ((1.5 * t - 2.5) * t * t + 1.0, ((1.0 - 0.5 * t) * t - 0.5) * t)",
        ("tests/test_verify.py::test_slice_reference_matches_the_exact_mixture_spectrum",),
    ),
    Mutant(
        "cubic_clamp_one_cell_high",
        "src/simrad/grid.py",
        "np.clip(cell, lo + 1, lo + m - 3)",
        "np.clip(cell, lo + 1, lo + m - 2)",
        (
            "tests/test_grid.py::"
            "test_masked_gather_matches_the_full_read_zeroed_outside_bitwise[cubic]",
        ),
    ),
    Mutant(
        "projector_drop_1e-3",
        "src/simrad/xform.py",
        "PROJECTOR_DROP = 1e-16",
        "PROJECTOR_DROP = 1e-3",
        ("tests/test_verify.py::test_run_all_volume_override_surfaces_reach_errors",),
    ),
    Mutant(
        "cutoff_fraction_1.0",
        "src/simrad/xform.py",
        "CUTOFF_FRACTION = 0.9",
        "CUTOFF_FRACTION = 1.0",
        ("tests/test_invert.py::test_wavelet_line_synthesis",),
    ),
    Mutant(
        "one_rotation_solve_always",
        "src/simrad/invert.py",
        "    if anisotropy <= FRAME_RESIDUAL_TOL:\n",
        "    if True:\n",
        ("tests/test_invert.py::test_wavelet_anisotropic_solve_keeps_every_rotation",),
    ),
    Mutant(
        "lattice_energy_slack_5",
        "src/simrad/invert.py",
        "LATTICE_ENERGY_SLACK = 0.5",
        "LATTICE_ENERGY_SLACK = 5",
        ("tests/test_invert.py::test_wavelet_coarse_lattice_warns",),
    ),
    Mutant(
        "plane_node_axes_sign_dropped",
        "src/simrad/xform.py",
        "return [[sign]]",
        "return [[1.0]]",
        ("tests/test_xform.py::test_plane_sampler_reproduces_nodes_and_antipodes",),
    ),
    Mutant(
        "line_node_axes_swapped",
        "src/simrad/xform.py",
        "self.frames[ii, jj, :, :2]",
        "self.frames[ii, jj, :, 1::-1]",
        ("tests/test_xform.py::test_line_sampler_reproduces_nodes_and_antipodes",),
    ),
    Mutant(
        "line_u_origin_half_cell",
        "src/simrad/xform.py",
        "(self.n_u, -(self.n_u - 1) / 2.0 * self.du, self.du),",
        "(self.n_u, -self.n_u / 2.0 * self.du, self.du),",
        ("tests/test_xform.py::test_detector_origins_are_the_first_samples",),
    ),
    Mutant(
        "line_slice_query_own_direction",
        "src/simrad/xform.py",
        "return q / np.where(ok, qn, 1.0)[:, None], W",
        "return W / np.maximum(mag, 1e-300)[:, None], W",
        ("tests/test_xform.py::test_slice_query_reads_each_frequency_on_its_slice",),
    ),
    Mutant(
        "cli_memory_error_handler_removed",
        "src/simrad/cli.py",
        "    except MemoryError:  # numpy raises a private subclass\n"
        '        print("MemoryError", file=sys.stderr)\n'
        "        return 1\n",
        "",
        ("tests/test_io_cli.py::test_cli_allocation_failure_reports_bare_name",),
    ),
    Mutant(
        "stale_export",
        "src/simrad/__init__.py",
        '        "write_volume",\n',
        '        "write_volume",\n        "write_volumes",\n',
        ("tests/test_io_cli.py::test_every_export_resolves",),
    ),
    Mutant(
        "kind_steps_forward_bound_at_definition",
        "src/simrad/invert.py",
        "def kind_steps(geometry: DirectionChart) -> KindSteps:",
        "def kind_steps(geometry: DirectionChart, radon_plane=radon_plane, xray=xray) -> KindSteps:",
        ("tests/test_invert.py::test_kind_steps_resolve_forward_at_call_time",),
    ),
    Mutant(
        "padded_spectra_v_phase_dropped",
        "src/simrad/xform.py",
        "steps = [(df, x0) for (_, df), x0 in zip(axes, origins)]",
        "steps = [(axes[0][1], origins[0])] + [(df, 0.0) for _, df in axes[1:]]",
        ("tests/test_xform.py::test_padded_spectra_convention_oracle[line]",),
    ),
    Mutant(
        "padded_spectra_lead_off_by_one",
        "src/simrad/xform.py",
        "slice(lead, lead + n) for",
        "slice(lead + 1, lead + 1 + n) for",
        ("tests/test_xform.py::test_padded_spectra_convention_oracle[line]",),
    ),
    Mutant(
        "write_sinogram_guard_removed",
        "src/simrad/io.py",
        "if type(g) is not GEOMETRY_KINDS[g.kind]:",
        "if False:",
        ("tests/test_io_cli.py::test_write_sinogram_refuses_a_geometry_its_header_cannot_name",),
    ),
    Mutant(
        "resample_outside_mask_dropped",
        "src/simrad/grid.py",
        "inside = np.flatnonzero(np.all((idx >= 0.0) & (idx <= n - 1), axis=0))",
        "inside = np.arange(idx.shape[1])",
        ("tests/test_grid.py::test_resample_zero_outside",),
    ),
    Mutant(
        "masked_gather_last_cell_outside",
        "src/simrad/grid.py",
        "(idx <= n - 1)",
        "(idx < n - 1)",
        (
            "tests/test_grid.py::"
            "test_masked_gather_matches_the_full_read_zeroed_outside_bitwise[cubic]",
        ),
    ),
    Mutant(
        "cubic_contraction_y_taps_on_z_offsets",
        "src/simrad/grid.py",
        "axes[::-1], None)",
        "[axes[2], [(o, w) for (o, _), (_, w) in zip(axes[2], axes[1])], axes[0]], None)",
        ("tests/test_grid.py::test_cubic_contraction_matches_the_64_corner_product_sum",),
    ),
    Mutant(
        "masked_gather_output_not_zeroed",
        "src/simrad/grid.py",
        "out = np.zeros(idx.shape[1], dtype=window[0].dtype)",
        "out = np.empty(idx.shape[1], dtype=window[0].dtype)",
        ("tests/test_grid.py::test_masked_gather_skips_points_outside_without_reading",),
    ),
    Mutant(
        "linear_floor_clamp_one_cell_high",
        "src/simrad/grid.py",
        "np.clip(cell, lo, lo + m - 2)",
        "np.clip(cell, lo, lo + m - 1)",
        (
            "tests/test_xform.py::test_interp_nodes_matches_parent_interpolators",
            "tests/test_invert.py::test_coverage_splat_matches_masked_bincount",
        ),
    ),
    Mutant(
        "group_element_finiteness_guard_dropped",
        "src/simrad/group.py",
        "if not (np.isfinite(b).all() and np.isfinite(R).all() and np.isfinite(self.a)):",
        "if False:",
        ("tests/test_group.py::test_group_element_validation",),
    ),
    Mutant(
        "sample_chart_shape_guard_dropped",
        "src/simrad/xform.py",
        "if shape[: len(lead)] != lead:",
        "if False:",
        ("tests/test_xform.py::test_sampler_takes_one_row_of_queries_per_direction",),
    ),
    Mutant(
        "backproject_s_origin_one_cell",
        "src/simrad/xform.py",
        "cy * np.sin(theta) - s_grid[0]) / step_s",
        "cy * np.sin(theta) - s_grid[1]) / step_s",
        ("tests/test_xform.py::test_backproject_plane_is_the_transpose_of_radon_plane[33_voxels]",),
    ),
    Mutant(
        "backproject_s_cos_sin_swapped",
        "src/simrad/xform.py",
        "cx * np.cos(theta) + cy * np.sin(theta)",
        "cx * np.sin(theta) + cy * np.cos(theta)",
        ("tests/test_xform.py::test_backproject_plane_is_the_transpose_of_radon_plane[33_voxels]",),
    ),
    Mutant(
        "backproject_t_gather_one_cell",
        "src/simrad/xform.py",
        "prof[k_t + off]",
        "prof[k_t + off + 1]",
        ("tests/test_xform.py::test_backproject_plane_is_the_transpose_of_radon_plane[33_voxels]",),
    ),
    Mutant(
        "radon_plane_s_origin_one_cell",
        "src/simrad/xform.py",
        "pts[:, 1] * np.sin(theta) - s_grid[0]) / step_s",
        "pts[:, 1] * np.sin(theta) - s_grid[1]) / step_s",
        (
            "tests/test_xform.py::"
            "test_radon_plane_converges_to_the_voxel_driven_reference[centered]",
        ),
    ),
    Mutant(
        "radon_plane_t_sin_cos_swapped",
        "src/simrad/xform.py",
        "np.sin(g.phis)[:, None, None] * s_grid + np.cos(g.phis)[:, None, None] * z[:, None]",
        "np.cos(g.phis)[:, None, None] * s_grid + np.sin(g.phis)[:, None, None] * z[:, None]",
        (
            "tests/test_xform.py::"
            "test_radon_plane_converges_to_the_voxel_driven_reference[centered]",
        ),
    ),
    Mutant(
        "radon_plane_t_widening_dropped",
        "src/simrad/xform.py",
        "widen = max(0, int(np.ceil((reach - g.t_max) / step_t)))",
        "widen = 0",
        (
            "tests/test_xform.py::"
            "test_radon_plane_converges_to_the_voxel_driven_reference[edge_reaching]",
        ),
    ),
    Mutant(
        "xray_v_origin_one_cell",
        "src/simrad/xform.py",
        "- v0) / dv_f",
        "- v0 - dv) / dv_f",
        ("tests/test_xform.py::test_xray_converges_to_the_voxel_driven_reference[centered]",),
    ),
    Mutant(
        "xray_u_cos_sin_swapped",
        "src/simrad/xform.py",
        "np.cos(phi) * s_grid - np.sin(phi) * z[:, None]",
        "np.sin(phi) * s_grid - np.cos(phi) * z[:, None]",
        ("tests/test_xform.py::test_xray_converges_to_the_voxel_driven_reference[centered]",),
    ),
    Mutant(
        "xray_mirror_reads_unreversed_table",
        "src/simrad/xform.py",
        "table[:, :, 1] = table[:, ::-1, 0]",
        "table[:, :, 1] = table[:, :, 0]",
        ("tests/test_xform.py::test_xray_converges_to_the_voxel_driven_reference[centered]",),
    ),
    Mutant(
        "xray_u_widening_dropped",
        "src/simrad/xform.py",
        "widen = max(0, int(np.ceil((reach - g.u_max) / du_f)))",
        "widen = 0",
        (
            "tests/test_xform.py::"
            "test_xray_converges_to_the_voxel_driven_reference[edge_reaching]",
        ),
    ),
    Mutant(
        "projector_finiteness_guard_dropped",
        "src/simrad/xform.py",
        "if not np.isfinite(peak):",
        "if False:",
        (
            "tests/test_xform.py::"
            "test_projectors_refuse_a_field_made_non_finite_in_place[nan]",
        ),
    ),
    Mutant(
        "grid_size_check_admits_zero",
        "src/simrad/invert.py",
        "and n > 0):",
        "and n >= 0):",
        ("tests/test_invert.py::test_inversions_refuse_a_grid_that_is_not_positive",),
    ),
    Mutant(
        "direct_fourier_band_limit_guard_dropped",
        "src/simrad/invert.py",
        "if not (np.isfinite(band_limit) and band_limit > 0.0):",
        "if False:",
        (
            "tests/test_invert.py::"
            "test_direct_fourier_refuses_a_band_limit_that_is_not_positive_and_finite",
        ),
    ),
    Mutant(
        "lattice_atom_center_one_cell_high",
        "src/simrad/invert.py",
        "idx = (a * w @ R) / spec.freq_spacing + k // 2",
        "idx = (a * w @ R) / spec.freq_spacing + k // 2 + 1",
        ("tests/test_invert.py::test_wavelet_synthesis_atoms_match_closed_form_dilates",),
    ),
    Mutant(
        "lattice_atoms_always_real",
        "src/simrad/invert.py",
        "if np.max(np.abs(data.imag)) <= SPECTRUM_ROUNDOFF * np.max(np.abs(data.real)):",
        "if True:",
        (
            "tests/test_invert.py::"
            "test_wavelet_synthesis_atoms_of_an_off_center_wavelet_match_closed_form",
        ),
    ),
    Mutant(
        "lattice_shift_extent_guard_dropped",
        "src/simrad/invert.py",
        "if not (np.isfinite(shift_extent) and shift_extent > 0.0):",
        "if False:",
        (
            "tests/test_invert.py::"
            "test_lattice_build_refuses_a_degenerate_lattice_before_the_solve[zero_extent]",
        ),
    ),
    Mutant(
        "lattice_scale_max_may_be_infinite",
        "src/simrad/invert.py",
        "if not 0.0 < scale_min < scale_max < np.inf:",
        "if not 0.0 < scale_min < scale_max:",
        (
            "tests/test_invert.py::"
            "test_lattice_build_refuses_a_degenerate_lattice_before_the_solve[infinite_scale_max]",
        ),
    ),
    Mutant(
        "lattice_empty_rotations_admitted",
        "src/simrad/invert.py",
        "if rotations is not None and len(rotations) == 0:",
        "if False:",
        (
            "tests/test_invert.py::"
            "test_lattice_build_refuses_a_degenerate_lattice_before_the_solve[no_rotations]",
        ),
    ),
)


def _run(root: Path, args: list[str], **kwargs) -> subprocess.CompletedProcess:
    # no bytecode cache: a mutant of the same size and mtime second would be reused
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=root, env=env, **kwargs)


def _pytest(root: Path, tests) -> int:
    args = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return _run(root, args, stdout=subprocess.DEVNULL).returncode


def main(argv: list[str]) -> int:
    repo = Path(__file__).resolve().parent.parent
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="simrad-mutants-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(repo / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(repo / "pyproject.toml", root / "pyproject.toml")
        for m in chosen:
            count = (root / m.path).read_text().count(m.old)
            if count != 1:
                print(f"ERROR {m.name}: old text found {count} times in {m.path}")
                return 2
        probe = ["-c", "import simrad; print(simrad.__file__)"]
        if not _run(root, probe, capture_output=True, text=True).stdout.startswith(str(root)):
            print("ERROR the tests would not import the package from the copy")
            return 2
        selection = list(dict.fromkeys(t for m in chosen for t in m.tests))
        if _pytest(root, selection) != 0:
            print("ERROR the selected tests fail on the unmutated copy")
            return 2
        survived = errors = 0
        for m in chosen:
            path = root / m.path
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            start = time.monotonic()
            try:
                code = _pytest(root, m.tests)
            finally:
                path.write_text(original)
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            survived += code == 0
            errors += code not in (0, 1)
            print(f"{verdict:<10} {m.name} ({time.monotonic() - start:.1f} s)", flush=True)
    print(f"{len(chosen)} mutants: {survived} survived, {errors} errors")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
