"""Command-line front end: every pipeline stage as one subcommand.

``gen`` writes phantoms, ``radon``/``xray`` run the forward transforms,
``filter`` applies Fourier multipliers, the ``invert-*`` commands
reconstruct, and ``verify`` runs the residual-check harness.  Geometry
defaults match the acceptance suite (N=64, h=0.15, 32x32 directions,
129 offsets, t_max=6), so the documented runs need no extra flags.

Every command finishes by printing a metrics block of ``key=value`` lines
to standard output.  Exit codes: 0 on success, 2 on argument errors (with
usage text), 1 on runtime errors with the bare error name on standard
error.  Reruns with identical flags produce byte-identical output files;
nothing is seeded from the clock or the environment.

The numerical modules are imported inside the command handlers, not at the
top of this file, so that ``--threads`` can cap the BLAS/FFT worker pools
through the environment before numpy first loads.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .errors import GeometryMismatch, SimradError

# Pool-size variables honored by the common BLAS/FFT backends; they are
# read once, at numpy import time, which is why the handlers import lazily.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_CHECK_NAMES = (
    "fourier_slice",
    "isometry",
    "intertwining",
    "fiber",
    "evenness",
    "controls",
)


def apply_thread_cap(argv: list[str]) -> None:
    """Export ``--threads k`` to the worker-pool environment variables.

    Must run before numpy is first imported; the value is validated again
    by argparse, so malformed tokens are simply skipped here.
    """
    count = None
    for i, token in enumerate(argv):
        if token == "--threads" and i + 1 < len(argv):
            count = argv[i + 1]
        elif token.startswith("--threads="):
            count = token.partition("=")[2]
    if count is not None and count.isdigit() and int(count) > 0:
        for var in THREAD_ENV_VARS:
            os.environ[var] = count


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a nonnegative finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _print_metrics(**metrics: float | int | None) -> None:
    for key, value in metrics.items():
        if value is None:
            continue
        if isinstance(value, float):
            print(f"{key}={value:.6g}")
        else:
            print(f"{key}={value}")


def _relative_error(v, reference_path: str) -> float:
    from .grid import Volume, l2_norm
    from .io import read_volume

    ref = read_volume(reference_path)
    if ref.data.shape != v.data.shape or abs(ref.spacing - v.spacing) > 1e-12:
        raise GeometryMismatch(
            "reference volume grid does not match the reconstruction grid"
        )
    return l2_norm(Volume(v.data - ref.data, v.spacing)) / l2_norm(ref)


# --- command handlers -------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    from .grid import gaussian_phantom, log_wavelet
    from .io import write_volume
    from .verify import VerifyConfig, mixture_phantom

    start = time.perf_counter()
    if args.phantom == "gaussian":
        v = gaussian_phantom(args.n, args.h, scale=args.scale)
    elif args.phantom == "mixture":
        # The two-Gaussian field used throughout the acceptance runs;
        # --scale is ignored because the component widths are part of it.
        v = mixture_phantom(VerifyConfig(n=args.n, spacing=args.h))
    else:
        v = log_wavelet(args.n, args.h, args.scale)
    write_volume(args.out, v)
    _print_metrics(runtime_ms=1e3 * (time.perf_counter() - start))
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    from .invert import kind_steps
    from .io import read_volume, write_sinogram
    from .xform import GEOMETRY_KINDS

    v = read_volume(args.infile)
    # the geometry flags are the geometry's short keys
    geometry = GEOMETRY_KINDS[args.kind].from_keys(vars(args))
    forward = kind_steps(geometry).forward
    start = time.perf_counter()
    s = forward(v, geometry)
    write_sinogram(args.out, s)
    _print_metrics(runtime_ms=1e3 * (time.perf_counter() - start))
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    from .filters import MultiplierSpec, apply_multiplier
    from .io import read_sinogram, write_sinogram

    s = read_sinogram(args.infile)
    power = s.geometry.power if args.power is None else args.power
    window = None if args.window == "none" else args.window
    start = time.perf_counter()
    filtered = apply_multiplier(s, MultiplierSpec(power, window=window))
    write_sinogram(args.out, filtered)
    _print_metrics(runtime_ms=1e3 * (time.perf_counter() - start))
    return 0


def _cmd_invert_fbp(args: argparse.Namespace) -> int:
    from .invert import invert_fbp_plane
    from .io import read_sinogram, write_volume

    s = read_sinogram(args.infile)
    start = time.perf_counter()
    v = invert_fbp_plane(s, args.n, args.h)
    runtime_ms = 1e3 * (time.perf_counter() - start)
    write_volume(args.out, v)
    error = _relative_error(v, args.reference) if args.reference else None
    _print_metrics(error_l2_rel=error, runtime_ms=runtime_ms)
    return 0


def _cmd_invert_fourier(args: argparse.Namespace) -> int:
    from .invert import invert_direct_fourier
    from .io import read_sinogram, write_volume

    s = read_sinogram(args.infile)
    start = time.perf_counter()
    v, coverage = invert_direct_fourier(s, args.n, args.h, band_limit=args.band_limit)
    runtime_ms = 1e3 * (time.perf_counter() - start)
    write_volume(args.out, v)
    error = _relative_error(v, args.reference) if args.reference else None
    _print_metrics(
        error_l2_rel=error,
        coverage=coverage.covered_fraction,
        runtime_ms=runtime_ms,
    )
    return 0


def _cmd_invert_wavelet(args: argparse.Namespace) -> int:
    from .grid import log_wavelet
    from .invert import GroupLattice, invert_wavelet
    from .io import read_sinogram, write_volume

    s = read_sinogram(args.infile)
    psi = log_wavelet(args.wavelet_n, args.wavelet_h, args.wavelet_scale)
    lattice = GroupLattice.build(
        args.lattice_extent,
        args.lattice_shifts,
        args.scale_min,
        args.scale_max,
        args.nscales,
    )
    start = time.perf_counter()
    v, metrics = invert_wavelet(s, psi, lattice)
    runtime_ms = 1e3 * (time.perf_counter() - start)
    write_volume(args.out, v)
    error = _relative_error(v, args.reference) if args.reference else None
    _print_metrics(
        error_l2_rel=error,
        energy_ratio=metrics.energy_ratio,
        iterations=metrics.iterations,
        coefficient_residual=metrics.coefficient_residual,
        template_anisotropy=metrics.template_anisotropy,
        runtime_ms=runtime_ms,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .io import read_volume
    from .verify import VerifyConfig, run_all

    volume = read_volume(args.infile) if args.infile else None
    checks = tuple(args.check) if args.check else _CHECK_NAMES
    config = VerifyConfig(
        n=args.n,
        spacing=args.h,
        n_theta=args.ntheta,
        n_phi=args.nphi,
        n_t=args.nt,
        t_max=args.tmax,
        n_u=args.nu,
        u_max=args.umax,
        seed=args.seed,
        checks=checks,
    )
    start = time.perf_counter()
    report = run_all(config, volume=volume)
    for line in report.lines():
        print(line)
    if args.summary_out:
        with open(args.summary_out, "w", encoding="ascii") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    _print_metrics(runtime_ms=1e3 * (time.perf_counter() - start))
    if not report.all_passed:
        print("CheckFailed", file=sys.stderr)
        return 1
    return 0


# --- parser -----------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=None,
        help="cap the worker-pool size (default: hardware parallelism)",
    )


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=_positive_int, default=64, help="voxels per axis")
    parser.add_argument("--h", type=_positive_float, default=0.15, help="voxel spacing")


def _add_plane_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ntheta", type=_positive_int, default=32, help="azimuth count")
    parser.add_argument("--nphi", type=_positive_int, default=32, help="polar count")
    parser.add_argument("--nt", type=_positive_int, default=129, help="offset count")
    parser.add_argument("--tmax", type=_positive_float, default=6.0, help="offset range")


def _add_line_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ntheta", type=_positive_int, default=32, help="azimuth count")
    parser.add_argument("--nphi", type=_positive_int, default=32, help="polar count")
    parser.add_argument("--nu", type=_positive_int, default=64, help="detector columns")
    parser.add_argument("--nv", type=_positive_int, default=64, help="detector rows")
    parser.add_argument(
        "--umax", type=_positive_float, default=4.8, help="detector half-extent"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simrad",
        description="Similitude-group Radon / X-ray transforms on sampled fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a phantom volume")
    p.add_argument(
        "--phantom",
        choices=("gaussian", "mixture", "wavelet"),
        required=True,
        help="field to generate",
    )
    _add_grid_flags(p)
    p.add_argument(
        "--scale",
        type=_positive_float,
        default=1.0,
        help="width of the gaussian / wavelet phantom",
    )
    p.add_argument("--out", required=True, help="output .svol path")
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("radon", help="plane-integral transform of a volume")
    p.add_argument("--in", dest="infile", required=True, help="input .svol path")
    _add_plane_flags(p)
    p.add_argument("--out", required=True, help="output .sgm path")
    _add_common(p)
    p.set_defaults(func=_cmd_project, kind="plane")

    p = sub.add_parser("xray", help="line-integral transform of a volume")
    p.add_argument("--in", dest="infile", required=True, help="input .svol path")
    _add_line_flags(p)
    p.add_argument("--out", required=True, help="output .sgm path")
    _add_common(p)
    p.set_defaults(func=_cmd_project, kind="line")

    p = sub.add_parser("filter", help="apply a Fourier multiplier to a sinogram")
    p.add_argument("--in", dest="infile", required=True, help="input .sgm path")
    p.add_argument(
        "--power",
        type=_nonnegative_float,
        default=None,
        help="multiplier exponent (default: the unitarization power for the kind)",
    )
    p.add_argument(
        "--window",
        choices=("none", "raised-cosine"),
        default="none",
        help="high-frequency taper",
    )
    p.add_argument("--out", required=True, help="output .sgm path")
    _add_common(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("invert-fbp", help="filtered backprojection (plane data)")
    p.add_argument("--in", dest="infile", required=True, help="input .sgm path")
    _add_grid_flags(p)
    p.add_argument("--out", required=True, help="output .svol path")
    p.add_argument("--reference", default=None, help="volume to compare against")
    _add_common(p)
    p.set_defaults(func=_cmd_invert_fbp)

    p = sub.add_parser("invert-fourier", help="direct Fourier regridding")
    p.add_argument("--in", dest="infile", required=True, help="input .sgm path")
    _add_grid_flags(p)
    p.add_argument(
        "--band-limit",
        dest="band_limit",
        type=_positive_float,
        default=None,
        help="reconstruction band limit (default: geometry-derived)",
    )
    p.add_argument("--out", required=True, help="output .svol path")
    p.add_argument("--reference", default=None, help="volume to compare against")
    _add_common(p)
    p.set_defaults(func=_cmd_invert_fourier)

    p = sub.add_parser("invert-wavelet", help="frame synthesis over a group lattice")
    p.add_argument("--in", dest="infile", required=True, help="input .sgm path")
    p.add_argument(
        "--wavelet-n", type=_positive_int, default=32, help="wavelet grid size"
    )
    p.add_argument(
        "--wavelet-h", type=_positive_float, default=0.3, help="wavelet grid spacing"
    )
    p.add_argument(
        "--wavelet-scale", type=_positive_float, default=1.0, help="wavelet width"
    )
    p.add_argument(
        "--lattice-extent",
        type=_positive_float,
        default=0.9,
        help="shift half-range per axis",
    )
    p.add_argument(
        "--lattice-shifts", type=_positive_int, default=4, help="shifts per axis"
    )
    p.add_argument(
        "--scale-min", type=_positive_float, default=0.8, help="smallest lattice scale"
    )
    p.add_argument(
        "--scale-max", type=_positive_float, default=4.8, help="largest lattice scale"
    )
    p.add_argument(
        "--nscales", type=_positive_int, default=4, help="geometric scale count"
    )
    p.add_argument("--out", required=True, help="output .svol path")
    p.add_argument("--reference", default=None, help="volume to compare against")
    _add_common(p)
    p.set_defaults(func=_cmd_invert_wavelet)

    p = sub.add_parser("verify", help="run the residual-check harness")
    p.add_argument(
        "--check",
        action="append",
        choices=_CHECK_NAMES,
        default=None,
        help="check group to run (repeatable; default: all)",
    )
    p.add_argument(
        "--in",
        dest="infile",
        default=None,
        help="volume to check (default: built-in phantoms)",
    )
    _add_grid_flags(p)
    _add_plane_flags(p)
    p.add_argument("--nu", type=_positive_int, default=64, help="detector columns")
    p.add_argument(
        "--umax", type=_positive_float, default=4.8, help="detector half-extent"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled fields")
    p.add_argument(
        "--summary-out", default=None, help="write the report as JSON to this path"
    )
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    apply_thread_cap(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    infile = getattr(args, "infile", None)
    out = getattr(args, "out", None)
    if infile is not None and out is not None:
        if os.path.abspath(infile) == os.path.abspath(out):
            parser.error("--in and --out must name different files")
    try:
        return args.func(args)
    except FileNotFoundError:
        print("FileNotFound", file=sys.stderr)
        return 1
    except (SimradError, ValueError, OSError) as exc:
        print(type(exc).__name__, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
