"""The four benchmark workloads: inputs, operations and output checks.

A workload builds its inputs from the seed in ``__init__`` (this is set-up
time), computes its reference values in ``prepare`` (timed by nothing), and
runs one round of operations per call of ``round``.  Every round runs the
same operations.  An operation is one call into simrad, or one CLI
subcommand, together with the check of its output; ``bench.call`` times the
program call and nothing else.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time

import numpy as np

import reference as ref
import simrad.filters  # noqa: F401  (imported so the tracer can reach it)
import simrad.grid as grid
import simrad.invert as invert
import simrad.io as sio
import simrad.verify as verify
import simrad.xform as xform

# Acceptance bounds the checks use (tests/test_acceptance.py, criteria 1, 2,
# 6 and 7).
ORACLE_MAX_ABS = 1e-3
RECON_TOL_MIXTURE = 7e-2
WAVELET_ERR_LIMIT = 0.15
ENERGY_WINDOW = (0.5, 1.5)

# The two-bump mixture of ``verify.mixture_phantom``; the seed scales both
# amplitudes by one factor, which leaves every relative error unchanged.
MIX_CENTERS = np.array([[0.6, -0.45, 0.3], [-0.75, 0.3, -0.6]])
MIX_WIDTHS = np.array([0.7, 0.9])
MIX_AMPLITUDES = np.array([1.0, 0.7])

# Wavelet refinement ladder of criterion 7: (shift extent, shifts per axis,
# smallest scale, largest scale, scale count).
LADDER = (
    (0.9, 4, 0.8, 4.8, 4),
    (1.5, 6, 0.8, 5.6, 6),
    (2.1, 8, 0.8, 6.4, 8),
)

# Sizes of scripts/reconstruction_demo.sh.
DEMO = {"n": 48, "h": 0.2, "ntheta": 24, "nphi": 24, "nt": 97, "tmax": 4.8, "nu": 48, "umax": 4.8}


class OperationFailed(Exception):
    """The program did not complete an operation the way its contract says."""


def seeded_scale(seed: int) -> float:
    return float(np.random.default_rng(seed).uniform(0.8, 1.25))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class Recon:
    """Mixture phantom at the demo sizes through every reconstruction route."""

    N, H = DEMO["n"], DEMO["h"]
    PLANE = (DEMO["ntheta"], DEMO["nphi"], DEMO["nt"], DEMO["tmax"])
    LINE = (DEMO["ntheta"], DEMO["nphi"], DEMO["nu"], DEMO["nu"], DEMO["umax"])
    min_rounds = 1
    memory_pass = True

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.mixture = ref.Mixture(MIX_CENTERS, MIX_WIDTHS, seeded_scale(seed) * MIX_AMPLITUDES)
        self.volume = grid.gaussian_mixture_phantom(
            self.N, self.H, self.mixture.centers, self.mixture.widths, self.mixture.amplitudes
        )
        self.plane_geom = xform.PlaneGeometry(*self.PLANE)
        self.line_geom = xform.LineGeometry(*self.LINE)
        self.recon_err = 0.0

    def prepare(self) -> None:
        self.samples = self.mixture.samples(self.N, self.H)
        self.plane_ref = self.mixture.plane_integrals(*self.PLANE)
        self.line_ref = self.mixture.line_integrals(*self.LINE)

    def _forward(self, layer, fn, geom, expected):
        def op(call):
            out = call(layer, fn, self.volume, geom)
            self.outputs[layer] = out
            return float(np.max(np.abs(out.data - expected))) <= ORACLE_MAX_ABS

        return op

    def _inverse(self, layer, fn, source):
        def op(call):
            out = call(layer, fn, self.outputs[source], self.N, self.H)
            rec = out[0] if isinstance(out, tuple) else out
            self.outputs[layer] = rec
            err = ref.interior_error(rec.data, self.samples)
            self.recon_err = max(self.recon_err, err)
            return err <= RECON_TOL_MIXTURE

        return op

    def _roundtrip(self, source):
        def op(call):
            obj = self.outputs[source]
            volume = isinstance(obj, grid.Volume)
            path = os.path.join(self.workdir, source + (".svol" if volume else ".sgm"))
            call("io.write", sio.write_volume if volume else sio.write_sinogram, path, obj)
            back = call("io.read", sio.read_volume if volume else sio.read_sinogram, path)
            outside = (ref.read_svol if volume else ref.read_sgm)(path)[0]
            same = _same_bits(back.data, obj.data) and _same_bits(outside, obj.data)
            if volume:
                # The header holds spacing and origin to 9 significant digits.
                grid_kept = np.allclose([back.spacing, *back.origin], [obj.spacing, *obj.origin], rtol=1e-8, atol=0.0)
                return same and grid_kept
            return same and back.geometry == obj.geometry

        return op

    def round(self, bench) -> None:
        self.outputs = {}
        bench.op("radon_plane", self._forward("xform.radon_plane", xform.radon_plane, self.plane_geom, self.plane_ref))
        bench.op("xray", self._forward("xform.xray", xform.xray, self.line_geom, self.line_ref))
        bench.op("invert_fbp_plane", self._inverse("invert.invert_fbp_plane", invert.invert_fbp_plane, "xform.radon_plane"))
        bench.op("direct_fourier_plane", self._inverse("invert.invert_direct_fourier.plane", invert.invert_direct_fourier, "xform.radon_plane"))
        bench.op("direct_fourier_line", self._inverse("invert.invert_direct_fourier.line", invert.invert_direct_fourier, "xform.xray"))
        for source in list(self.outputs):
            bench.op("io_roundtrip." + source, self._roundtrip(source))


class Wavelet:
    """Dual-frame wavelet synthesis along the criterion-7 refinement ladder."""

    N, H, WIDTH = 32, 0.3, 1.25
    min_rounds = 1
    memory_pass = True

    def __init__(self, seed: int, workdir: str) -> None:
        amplitude = seeded_scale(seed)
        self.mixture = ref.Mixture(np.zeros((1, 3)), np.array([self.WIDTH]), np.array([amplitude]))
        self.volume = grid.gaussian_phantom(self.N, self.H, scale=self.WIDTH, amplitude=amplitude)
        self.geom = xform.PlaneGeometry(32, 32, 129, 6.0)
        self.psi = grid.log_wavelet(self.N, self.H, 1.0)
        self.lattices = [invert.GroupLattice.build(*level) for level in LADDER]
        self.recon_err = 0.0

    def prepare(self) -> None:
        self.samples = self.mixture.samples(self.N, self.H)
        self.energy = self.H**3 * float(np.sum(self.samples**2))
        self.plane_ref = self.mixture.plane_integrals(32, 32, 129, 6.0)

    def round(self, bench) -> None:
        state = {}

        def forward(call):
            state["sino"] = call("xform.radon_plane", xform.radon_plane, self.volume, self.geom)
            return float(np.max(np.abs(state["sino"].data - self.plane_ref))) <= ORACLE_MAX_ABS

        bench.op("radon_plane", forward)
        levels = []
        for k, lattice in enumerate(self.lattices):
            name = f"invert.invert_wavelet.l{k}"

            def synthesize(call, name=name, lattice=lattice):
                rec, metrics = call(name, invert.invert_wavelet, state["sino"], self.psi, lattice)
                err = ref.relative_error(rec.data, self.samples)
                ratio = metrics.coefficient_energy / self.energy
                levels.append((err, ratio))
                bench.values[name + ".iterations"] = metrics.iterations
                bench.values[name + ".err"] = err
                self.recon_err = max(self.recon_err, err)
                ok = ENERGY_WINDOW[0] <= ratio <= ENERGY_WINDOW[1]
                if len(levels) == 1:
                    ok = ok and err <= WAVELET_ERR_LIMIT
                else:
                    # Refinement: the error falls and the energy ratio moves toward 1.
                    (e0, r0), (e1, r1) = levels[-2:]
                    ok = ok and e1 < e0 and abs(r1 - 1.0) < abs(r0 - 1.0)
                return ok

            bench.op(f"invert_wavelet.l{k}", synthesize)


class Verify:
    """``run_all`` without the intertwining sweep, on the demo grid with 16x16 directions."""

    CHECKS = ("fourier_slice", "isometry", "fiber", "evenness", "controls")
    EXPECTED = {
        "fourier_slice_plane",
        "fourier_slice_line",
        "isometry_plane",
        "isometry_line",
        "fiber_constancy",
        "evenness_even_preserved",
        "evenness_odd_preserved",
        "evenness_parity_orthogonal",
        "control_character_ablation",
        "control_admissibility_rejects_gaussian",
    }
    min_rounds = 1
    memory_pass = True

    def __init__(self, seed: int, workdir: str) -> None:
        d = DEMO
        self.config = verify.VerifyConfig(
            n=d["n"], spacing=d["h"], n_theta=16, n_phi=16, n_t=d["nt"],
            t_max=d["tmax"], n_u=d["nu"], u_max=d["umax"], seed=seed, checks=self.CHECKS,
        )
        self.recon_err = 0.0

    def prepare(self) -> None:
        pass

    def round(self, bench) -> None:
        def run_all(call):
            report = call("verify.run_all", verify.run_all, self.config)
            names = [e.name for e in report.entries]
            # No reconstruction runs here; the Fourier-slice residuals are the
            # relative L2 errors of the identity that reconstruction rests on.
            self.recon_err = max(
                [self.recon_err] + [e.residual for e in report.entries if e.name.startswith("fourier_slice")]
            )
            return sorted(names) == sorted(self.EXPECTED) and all(e.passed for e in report.entries)

        bench.op("run_all", run_all)


class Cli:
    """The demo-script subcommands, each in its own process, plus a non-finite input."""

    min_rounds = 2  # so every subcommand reruns and its output bytes can be compared
    memory_pass = False
    BARE_ERROR = re.compile(r"[A-Za-z]+\n?")

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.mixture = ref.Mixture(MIX_CENTERS, MIX_WIDTHS, MIX_AMPLITUDES)
        d = DEMO
        p = {k: os.path.join(workdir, k) for k in (
            "phantom.svol", "plane.sgm", "line.sgm", "rec_fbp.svol", "rec_df_plane.svol",
            "rec_df_line.svol", "report.json", "nan.svol", "nan.sgm")}
        grid_flags = ["--n", str(d["n"]), "--h", str(d["h"])]
        dirs = ["--ntheta", str(d["ntheta"]), "--nphi", str(d["nphi"])]
        plane = dirs + ["--nt", str(d["nt"]), "--tmax", str(d["tmax"])]
        line = dirs + ["--nu", str(d["nu"]), "--nv", str(d["nu"]), "--umax", str(d["umax"])]
        ref_flag = ["--reference", p["phantom.svol"]]
        # (metric name, argv, output file, output check)
        self.commands = [
            ("gen", ["gen", "--phantom", "mixture", *grid_flags, "--out", p["phantom.svol"]], p["phantom.svol"], self._check_phantom),
            ("radon", ["radon", "--in", p["phantom.svol"], *plane, "--out", p["plane.sgm"]], p["plane.sgm"], self._check_plane),
            ("xray", ["xray", "--in", p["phantom.svol"], *line, "--out", p["line.sgm"]], p["line.sgm"], self._check_line),
            ("invert-fbp", ["invert-fbp", "--in", p["plane.sgm"], *grid_flags, *ref_flag, "--out", p["rec_fbp.svol"]], p["rec_fbp.svol"], self._check_recon),
            ("invert-fourier.plane", ["invert-fourier", "--in", p["plane.sgm"], *grid_flags, *ref_flag, "--out", p["rec_df_plane.svol"]], p["rec_df_plane.svol"], self._check_recon),
            ("invert-fourier.line", ["invert-fourier", "--in", p["line.sgm"], *grid_flags, *ref_flag, "--out", p["rec_df_line.svol"]], p["rec_df_line.svol"], self._check_recon),
            ("verify", ["verify", "--check", "fiber", "--check", "evenness", *grid_flags, *plane, "--seed", str(seed), "--summary-out", p["report.json"]], p["report.json"], self._check_report),
        ]
        self.nan_argv = ["radon", "--in", p["nan.svol"], *plane, "--out", p["nan.sgm"]]
        # The demo phantom with one non-finite voxel; independent of the seed.
        nan_field = self.mixture.samples(d["n"], d["h"])
        nan_field[d["n"] // 2, d["n"] // 2, d["n"] // 2] = np.nan
        ref.write_svol(p["nan.svol"], nan_field, d["h"])
        self.digests: dict[str, str] = {}
        self.recon_err = 0.0
        self.child = CliChild(dict(os.environ))

    def prepare(self) -> None:
        d = DEMO
        self.samples = self.mixture.samples(d["n"], d["h"])
        self.plane_ref = self.mixture.plane_integrals(d["ntheta"], d["nphi"], d["nt"], d["tmax"])
        self.line_ref = self.mixture.line_integrals(d["ntheta"], d["nphi"], d["nu"], d["nu"], d["umax"])

    def _check_phantom(self, path: str) -> bool:
        data, _ = ref.read_svol(path)
        return float(np.max(np.abs(data - self.samples))) <= 1e-12

    def _check_plane(self, path: str) -> bool:
        data, _ = ref.read_sgm(path)
        return float(np.max(np.abs(data - self.plane_ref))) <= ORACLE_MAX_ABS

    def _check_line(self, path: str) -> bool:
        data, _ = ref.read_sgm(path)
        return float(np.max(np.abs(data - self.line_ref))) <= ORACLE_MAX_ABS

    def _check_recon(self, path: str) -> bool:
        data, _ = ref.read_svol(path)
        err = ref.interior_error(data, self.samples)
        self.recon_err = max(self.recon_err, err)
        return err <= RECON_TOL_MIXTURE

    @staticmethod
    def _check_report(path: str) -> bool:
        with open(path, encoding="ascii") as fh:
            report = json.load(fh)
        names = {e["name"] for e in report["entries"]}
        expected = {"fiber_constancy", "evenness_even_preserved", "evenness_odd_preserved", "evenness_parity_orthogonal"}
        return names == expected and all(
            e["pass"] and isinstance(e["residual"], float) and e["residual"] <= e["tolerance"]
            for e in report["entries"]
        )

    def round(self, bench) -> None:
        for name, argv, out_path, check in self.commands:

            def op(call, name=name, argv=argv, out_path=out_path, check=check):
                proc = call("cli." + name, self.child.run, argv)
                if proc.returncode != 0:
                    raise OperationFailed(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
                runtime = re.findall(r"^runtime_ms=(\S+)$", proc.stdout, flags=re.M)
                bench.values["cli." + name + ".runtime_ms"] += float(runtime[-1])
                with open(out_path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                same = self.digests.setdefault(name, digest) == digest
                return check(out_path) and same

            bench.op("cli." + name, op)

        def nan_op(call):
            proc = call("cli.radon.nan", self.child.run, self.nan_argv)
            if proc.returncode != 1 or not self.BARE_ERROR.fullmatch(proc.stderr):
                raise OperationFailed(
                    f"radon on a non-finite volume exited {proc.returncode} "
                    f"with stderr {proc.stderr.strip()!r}; expected 1 and a bare error name"
                )
            return True

        bench.op("cli.radon.nan", nan_op)


class CliChild:
    """Runs one CLI subcommand in a child process, traced or not."""

    def __init__(self, env: dict, recorder=None, spans_path: str | None = None) -> None:
        self.env = env
        self.recorder = recorder
        self.spans_path = spans_path

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        if self.recorder is None:
            cmd = [sys.executable, "-m", "simrad.cli", *argv]
        else:
            script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")
            cmd = [sys.executable, script, self.spans_path, *argv]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        if self.recorder is not None:
            with open(self.spans_path, encoding="ascii") as fh:
                self.recorder.adopt(json.load(fh), parent=self.recorder.current())
        return proc


def import_seconds(env: dict, repeats: int = 3) -> float:
    """Median wall time of a child process that only imports simrad's numerical modules."""
    code = "import simrad.grid, simrad.xform, simrad.filters, simrad.invert, simrad.verify, simrad.io"
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        times.append(time.monotonic() - start)
    return sorted(times)[len(times) // 2]


WORKLOADS = {"recon": Recon, "wavelet": Wavelet, "verify": Verify, "cli": Cli}
