"""Named residual checks tying the operator identities to runnable numbers.

Every check reduces one identity to a single number (`ReportEntry.residual`)
whose pass flag is literally ``residual <= tolerance``.  `run_all` assembles a
deterministic report from a config: analytic phantoms, a fixed group-element
sweep, and two negative controls (character ablation, non-admissible wavelet)
that are required to break their nominal identity.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAdmissible, SimradError
from .filters import MultiplierSpec, admissibility_constant, apply_multiplier
from .grid import (
    Spectrum3D,
    Volume,
    apply_pi,
    gaussian_mixture_phantom,
    gaussian_phantom,
    l2_norm,
)
from .group import GroupElement, PlaneLabel, unit_normal
from .invert import apply_pi_hat, kind_steps
from .xform import (
    DirectionChart,
    LineGeometry,
    PlaneGeometry,
    Sinogram,
    _padded_spectrum,
    fourier_slice,
    plane_integral,
    sinogram_norm,
)

# Cross-path slice residual tolerance; the two evaluation routes share no code
# beyond the FFT, so agreement here pins the projector and the 3-D transform
# to each other.
SLICE_TOL = 1e-2

# Spectrum zero-padding for the volume-side slice evaluation.  The default
# factor 2 leaves ~1.5e-2 phase-interpolation error on shifted phantoms, right
# at the tolerance; factor 4 brings it well under for ~1 s extra FFT cost.
SLICE_PAD_FACTOR = 4

# |norm ratio - 1| bound for the unitarized transform at the N=64 grids.
ISOMETRY_TOL = 2e-2

# Relative residual bound for the covariance identity over moderate elements
# (a in [0.8, 1.25], rotations <= 45 degrees, shifts <= 25% of the extent).
INTERTWINING_TOL = 5e-2

# The character-ablated covariance residual must exceed this floor, otherwise
# the check could not distinguish the correct scale factor from none.
ABLATION_FLOOR = 0.2
# The pure dilation of the character-ablation control, which is also an
# element of the intertwining sweep.
ABLATION_DILATION = GroupElement(np.zeros(3), np.eye(3), 1.25)

# Two independent quadratures of the same geometric plane agree to rounding;
# anything above this signals a chart/orientation bug, not quadrature error.
AGREEMENT_TOL = 1e-6

# Parity preservation on the doubled sphere is exact by symmetry of the
# resampling stencils, so this bound is loose by design.
PARITY_TOL = 1e-6


@dataclass(frozen=True)
class ReportEntry:
    """One named residual with its tolerance and derived pass flag."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    context: str = ""


def make_entry(name: str, residual: float, tolerance: float, context: str = "") -> ReportEntry:
    residual = float(residual)
    passed = bool(np.isfinite(residual) and residual <= tolerance)
    return ReportEntry(name, residual, float(tolerance), passed, context)


@dataclass
class ResidualReport:
    """Ordered collection of entries with text and JSON renderings."""

    entries: list[ReportEntry] = field(default_factory=list)

    def add(self, entry: ReportEntry) -> None:
        self.entries.append(entry)

    def extend(self, entries: list[ReportEntry]) -> None:
        self.entries.extend(entries)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def lines(self) -> list[str]:
        return [
            f"CHECK {e.name} residual={e.residual:.6g} tol={e.tolerance:.6g} "
            f"pass={int(e.passed)}"
            for e in sorted(self.entries, key=lambda e: e.name)
        ]

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "entries": [
                {
                    "name": e.name,
                    # Strict JSON has no Infinity/NaN token, so non-finite
                    # residuals (errored checks) serialize as strings.
                    "residual": e.residual if np.isfinite(e.residual) else repr(e.residual),
                    "tolerance": e.tolerance,
                    "pass": e.passed,
                    "context": e.context,
                }
                for e in sorted(self.entries, key=lambda e: e.name)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def _axis_rotation(axis: int, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about coordinate axis 0 (x) or 2 (z)."""
    c, s = np.cos(angle), np.sin(angle)
    if axis == 0:
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis == 2:
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError("axis must be 0 (x) or 2 (z)")


def standard_intertwining_sweep() -> list[GroupElement]:
    """The pinned 12-element sweep: 2 dilations, 6 rotations, 4 translations.

    Dilations stay within [0.8, 1.25], rotations within 45 degrees about two
    axes, and translations at 1.2 = 25% of the default half-extent 4.8.
    """
    eye = np.eye(3)
    elems = [GroupElement(np.zeros(3), eye, 0.8), ABLATION_DILATION]
    for axis in (2, 0):
        for deg in (15.0, 30.0, 45.0):
            elems.append(GroupElement(np.zeros(3), _axis_rotation(axis, np.deg2rad(deg)), 1.0))
    for b in (
        (1.2, 0.0, 0.0),
        (0.0, 1.2, 0.0),
        (0.0, 0.0, 1.2),
        (0.69, -0.69, 0.69),
    ):
        elems.append(GroupElement(np.array(b), eye, 1.0))
    return elems


def describe_element(g: GroupElement) -> str:
    angle = np.rad2deg(np.arccos(np.clip((np.trace(g.R) - 1.0) / 2.0, -1.0, 1.0)))
    return f"a={g.a:g} rot={angle:.0f}deg |b|={np.linalg.norm(g.b):.3g}"


def check_fourier_slice(
    geometry: DirectionChart,
    v: Volume,
    pad_factor: int = SLICE_PAD_FACTOR,
    sinogram: Sinogram | None = None,
    spectrum: Spectrum3D | None = None,
) -> ReportEntry:
    """Compare the sinogram-side and volume-side spectrum evaluations.

    ``sinogram`` may carry a precomputed forward transform of ``v`` on the
    same geometry to avoid repeating the projector between checks, and
    ``spectrum`` the spectrum of ``v`` zero-padded by ``pad_factor``, which
    the plane and line checks share.
    """
    kind = geometry.kind
    steps = kind_steps(geometry)
    sino_side, *_ = steps.spectra(sinogram or steps.forward(v, geometry), 1)
    if spectrum is None:
        spectrum = _padded_spectrum(v, pad_factor)
    vol_side = fourier_slice(spectrum, geometry)
    ref = np.linalg.norm(vol_side)
    if ref == 0.0:
        return make_entry(f"fourier_slice_{kind}", 0.0, SLICE_TOL, "zero input")
    residual = np.linalg.norm(sino_side - vol_side) / ref
    return make_entry(f"fourier_slice_{kind}", residual, SLICE_TOL, f"pad_factor={pad_factor}")


def check_intertwining(
    geometry: DirectionChart,
    g: GroupElement,
    v: Volume,
    ablate_character: bool = False,
    label: str = "",
    reference: Sinogram | None = None,
    moved: Sinogram | None = None,
) -> ReportEntry:
    """Residual of forward(pi(g) v) against chi(g) * pi_hat(g) forward(v).

    With ``ablate_character`` the scale factor is replaced by 1; for pure
    dilations that must push the residual above `ABLATION_FLOOR`, encoded as
    residual = floor - measured against tolerance 0.  ``reference`` may carry
    a precomputed forward transform of ``v`` to share across a sweep, and
    ``moved`` one of ``pi(g) v``.
    """
    kind = geometry.kind
    forward = kind_steps(geometry).forward
    ref = reference or forward(v, geometry)
    moved = moved or forward(apply_pi(g, v), geometry)
    factor = 1.0 if ablate_character else geometry.characters.chi(g)
    pushed = apply_pi_hat(g, ref)
    diff = type(ref)(moved.data - factor * pushed.data, geometry)
    residual = sinogram_norm(diff) / sinogram_norm(ref)
    context = describe_element(g) + (f" {label}" if label else "")
    if ablate_character:
        return make_entry(
            f"control_character_ablation_{kind}",
            ABLATION_FLOOR - residual,
            0.0,
            context + f" ablated residual={residual:.4g}, must be >= {ABLATION_FLOOR}",
        )
    name = f"intertwining_{kind}" + (f"_{label}" if label else "")
    return make_entry(name, residual, INTERTWINING_TOL, context)


def check_isometry(
    geometry: DirectionChart,
    v: Volume,
    sinogram: Sinogram | None = None,
) -> ReportEntry:
    """|norm(J forward(v)) / norm(v) - 1| with the geometry's own exponent."""
    kind = geometry.kind
    sino = sinogram or kind_steps(geometry).forward(v, geometry)
    nv = l2_norm(v)
    if nv == 0.0:
        return make_entry(f"isometry_{kind}", 0.0, ISOMETRY_TOL, "zero input: 0/0 reported as pass")
    ratio = sinogram_norm(apply_multiplier(sino, MultiplierSpec(geometry.power))) / nv
    return make_entry(f"isometry_{kind}", abs(ratio - 1.0), ISOMETRY_TOL, f"ratio={ratio:.6f}")


def _flip_plane_label(label: PlaneLabel) -> PlaneLabel:
    """The same geometric plane labelled through the antipodal normal."""
    return PlaneLabel(label.theta + np.pi, np.pi - label.phi, -label.t)


def check_fiber_constancy(v: Volume, labels: list[PlaneLabel] | None = None) -> ReportEntry:
    """Fresh plane quadratures at a label and its sign-flipped duplicate."""
    if labels is None:
        rng = np.random.default_rng(7)
        labels = [
            PlaneLabel(0.0, 0.5 * np.pi, 0.8),     # x = 0.8
            PlaneLabel(0.5 * np.pi, 0.5 * np.pi, -0.6),
            PlaneLabel(0.0, 1e-3, 1.1),            # near-pole chart edge
        ]
        for _ in range(5):
            labels.append(
                PlaneLabel(
                    rng.uniform(0.0, np.pi),
                    rng.uniform(0.1, np.pi - 0.1),
                    rng.uniform(-2.0, 2.0),
                )
            )
    worst = 0.0
    for label in labels:
        direct = plane_integral(v, label)
        flipped = plane_integral(v, _flip_plane_label(label))
        worst = max(worst, abs(direct - flipped))
    return make_entry("fiber_constancy", worst, AGREEMENT_TOL, f"{len(labels)} labels")


# --- doubled-sphere parity checks ------------------------------------------
#
# The chart samplers glue antipodal labels; these checks instead keep the full
# sphere (azimuth in [0, 2pi)) so that evenness is a property to preserve, not
# a representation invariant baked into storage.


def doubled_sphere_directions(geometry: PlaneGeometry) -> np.ndarray:
    """Unit normals on the doubled azimuth grid, shape (2 n_theta, n_phi, 3)."""
    thetas = (np.arange(2 * geometry.n_theta) + 0.5) * geometry.dtheta
    return unit_normal(thetas[:, None], geometry.phis[None, :])


def antipodal_image(F: np.ndarray) -> np.ndarray:
    """The involution F(-n, -t) on a doubled-sphere array (2 n_theta, n_phi, n_t)."""
    n_theta = F.shape[0] // 2
    return np.roll(F, n_theta, axis=0)[:, ::-1, ::-1]


def parity_split(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    image = antipodal_image(F)
    return 0.5 * (F + image), 0.5 * (F - image)


def apply_pi_hat_doubled(g: GroupElement, F: np.ndarray, geometry: PlaneGeometry) -> np.ndarray:
    """The plane representation on full-sphere samples, no antipodal gluing.

    Output point (n, t) reads F at (R^-1 n, (t - n.b) / a) scaled by a^-1/2;
    azimuth is periodic over 2 pi, pole crossings flip azimuth by pi, and
    offsets outside the stored range read as zero.
    """
    geom = geometry
    two_nt = 2 * geom.n_theta
    dirs = doubled_sphere_directions(geom)
    rotated = dirs @ g.R  # row-convention R^-1 n
    theta_q = np.mod(np.arctan2(rotated[..., 1], rotated[..., 0]), 2.0 * np.pi)
    phi_q = np.arccos(np.clip(rotated[..., 2], -1.0, 1.0))
    off_q = (geom.ts[None, None, :] - (dirs @ g.b)[:, :, None]) / g.a

    pt = theta_q / geom.dtheta - 0.5
    i0 = np.floor(pt).astype(int)
    wt = pt - i0
    pp = phi_q / geom.dphi - 0.5
    j0 = np.floor(pp).astype(int)
    wp = pp - j0
    po = (off_q + geom.t_max) / geom.dt
    k0 = np.floor(po).astype(int)
    wo = po - k0

    out = np.zeros((two_nt, geom.n_phi, geom.n_t))
    for di in (0, 1):
        ii = np.mod(i0 + di, two_nt)
        wi = (1.0 - wt) if di == 0 else wt
        for dj in (0, 1):
            jj = j0 + dj
            # Pole reflection: phi -> -phi lands on +phi with azimuth + pi.
            lo = jj < 0
            hi = jj > geom.n_phi - 1
            jj_fix = np.where(lo, -1 - jj, np.where(hi, 2 * geom.n_phi - 1 - jj, jj))
            ii_fix = np.where(lo | hi, np.mod(ii + geom.n_theta, two_nt), ii)
            wj = (1.0 - wp) if dj == 0 else wp
            plane_vals = F[ii_fix, jj_fix, :]  # (2 n_theta, n_phi, n_t) gather
            for dk in (0, 1):
                kk = k0 + dk
                valid = (kk >= 0) & (kk < geom.n_t)
                kk_safe = np.clip(kk, 0, geom.n_t - 1)
                wk = (1.0 - wo) if dk == 0 else wo
                vals = np.take_along_axis(plane_vals, kk_safe, axis=2)
                out += np.where(valid, vals * wk, 0.0) * (wi * wj)[:, :, None]
    return out / np.sqrt(g.a)


def check_evenness_subspace(
    F: np.ndarray, geometry: PlaneGeometry, g: GroupElement
) -> list[ReportEntry]:
    """Parity preservation and parity orthogonality under the doubled action."""
    even, odd = parity_split(F)
    out_even = apply_pi_hat_doubled(g, even, geometry)
    out_odd = apply_pi_hat_doubled(g, odd, geometry)
    context = describe_element(g)

    def parity_residual(out: np.ndarray, sign: float) -> float:
        peak = np.max(np.abs(out))
        if peak == 0.0:
            return 0.0
        return float(np.max(np.abs(out - sign * antipodal_image(out))) / peak)

    w = np.concatenate([geometry.cell_measure] * 2)  # the doubled grid holds the chart twice
    ne = np.sqrt(np.sum(w * out_even**2))
    no = np.sqrt(np.sum(w * out_odd**2))
    cross = 0.0 if ne == 0.0 or no == 0.0 else abs(np.sum(w * out_even * out_odd)) / (ne * no)
    return [
        make_entry("evenness_even_preserved", parity_residual(out_even, 1.0), PARITY_TOL, context),
        make_entry("evenness_odd_preserved", parity_residual(out_odd, -1.0), PARITY_TOL, context),
        make_entry("evenness_parity_orthogonal", cross, PARITY_TOL, context),
    ]


def smooth_doubled_field(geometry: PlaneGeometry, seed: int = 0) -> np.ndarray:
    """Deterministic smooth test field on the doubled sphere, mixed parity.

    Built from low-degree polynomials in the direction vector (smooth on the
    sphere by construction) times Gaussian bumps in the offset.
    """
    rng = np.random.default_rng(seed)
    dirs = doubled_sphere_directions(geometry)
    ts = geometry.ts
    out = np.zeros((dirs.shape[0], dirs.shape[1], ts.size))
    for _ in range(4):
        u1 = rng.standard_normal(3)
        u2 = rng.standard_normal(3)
        c0, c1, c2 = rng.standard_normal(3)
        center = rng.uniform(-1.5, 1.5)
        width = rng.uniform(0.8, 1.6)
        angular = c0 + c1 * (dirs @ u1) + c2 * (dirs @ u1) * (dirs @ u2)
        out += angular[:, :, None] * np.exp(-((ts[None, None, :] - center) / width) ** 2)
    return out


# --- aggregation ------------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    """Deterministic inputs for `run_all`; every check derives from these."""

    n: int = 64
    spacing: float = 0.15
    n_theta: int = 32
    n_phi: int = 32
    n_t: int = 129
    t_max: float = 6.0
    n_u: int = 64
    u_max: float = 4.8
    seed: int = 0
    checks: tuple[str, ...] = (
        "fourier_slice",
        "isometry",
        "intertwining",
        "fiber",
        "evenness",
        "controls",
    )
    ablate_character: bool = False

    def plane_geometry(self) -> PlaneGeometry:
        return PlaneGeometry(self.n_theta, self.n_phi, self.n_t, self.t_max)

    def line_geometry(self) -> LineGeometry:
        return LineGeometry(self.n_theta, self.n_phi, self.n_u, self.n_u, self.u_max)


def mixture_phantom(config: VerifyConfig) -> Volume:
    """Two off-center Gaussians exercising shifts and unequal widths."""
    # Widths keep the nonzero voxels inside the line-transform detector range:
    # they reach 4.07 from the origin, against u_max = 4.8.
    return gaussian_mixture_phantom(
        config.n,
        config.spacing,
        [[0.6, -0.45, 0.3], [-0.75, 0.3, -0.6]],
        [0.7, 0.9],
        [1.0, 0.7],
    )


def compact_phantom(config: VerifyConfig) -> Volume:
    """Small-support mixture leaving room for the full element sweep.

    Its nonzero voxels reach 2.99 from the origin on the default grid (N=64,
    h=0.15); their images under the sweep reach 3.84 for the dilation a = 1.25
    and at most 3.97 for the translations |b| = 1.2, inside the grid and both
    default reaches (4.8 for lines, 6.0 for planes).  The widths also sit
    above the mixture used for the forward checks: narrower bumps push the
    detector resampling error of the line representation toward the 5e-2
    budget.
    """
    return gaussian_mixture_phantom(
        config.n,
        config.spacing,
        [[0.45, -0.3, 0.15], [-0.3, 0.3, -0.45]],
        [0.6, 0.7],
        [1.0, 0.8],
    )


def run_all(
    config: VerifyConfig | None = None, volume: Volume | None = None
) -> ResidualReport:
    """Execute the configured checks; per-check errors become failed entries.

    With ``volume`` the built-in phantoms are replaced by the given field
    everywhere a check consumes one; reach violations for expanding group
    elements then surface as failed ``*_error`` entries rather than aborts.
    A phantom that does not fit the configured grid, or a reference
    transform that cannot be taken, fails the checks that need it the same
    way.
    """
    config = config or VerifyConfig()
    report = ResidualReport()
    plane_geom = config.plane_geometry()
    line_geom = config.line_geometry()

    def guarded(name: str, fn) -> None:
        try:
            result = fn()
        except SimradError as exc:
            report.add(
                make_entry(name + "_error", np.inf, 0.0, f"{type(exc).__name__}: {exc}")
            )
            return
        if isinstance(result, list):
            report.extend(result)
        else:
            report.add(result)

    # Built on first use inside the guarded calls and shared between checks.
    @functools.cache
    def phantom(build) -> Volume:
        return volume if volume is not None else build(config)

    @functools.cache
    def forward(build, geom):
        return kind_steps(geom).forward(phantom(build), geom)

    needs_mix = {"fourier_slice", "isometry"} & set(config.checks)
    if needs_mix:
        mix_sinos = {}
        for geom in (plane_geom, line_geom):
            try:
                mix_sinos[geom] = forward(mixture_phantom, geom)
            except SimradError as exc:
                report.add(
                    make_entry("forward_error", np.inf, 0.0, f"{type(exc).__name__}: {exc}")
                )

        # One padded spectrum serves both Fourier-slice checks; it is
        # released before the isometry checks.
        @functools.cache
        def mixture_spectrum() -> Spectrum3D:
            return _padded_spectrum(phantom(mixture_phantom), SLICE_PAD_FACTOR)

        def slice_check(geom):
            return check_fourier_slice(
                geom, phantom(mixture_phantom), sinogram=mix_sinos.get(geom),
                spectrum=mixture_spectrum(),
            )

        def isometry(geom):
            return check_isometry(geom, phantom(mixture_phantom), sinogram=mix_sinos.get(geom))

        for name, check in (("fourier_slice", slice_check), ("isometry", isometry)):
            if name in config.checks:
                for geom in (plane_geom, line_geom):
                    guarded(name, lambda geom=geom, check=check: check(geom))
            mixture_spectrum.cache_clear()
    # The intertwining sweep and the ablation control share the projection
    # of the dilated compact phantom.
    @functools.cache
    def dilated(geom):
        return kind_steps(geom).forward(apply_pi(ABLATION_DILATION, phantom(compact_phantom)), geom)

    if "intertwining" in config.checks:
        for geom in (plane_geom, line_geom):
            for idx, g in enumerate(standard_intertwining_sweep()):
                guarded(
                    f"intertwining_{idx:02d}",
                    lambda g=g, geom=geom: check_intertwining(
                        geom,
                        g,
                        phantom(compact_phantom),
                        ablate_character=config.ablate_character,
                        label=f"{idx:02d}",
                        reference=forward(compact_phantom, geom),
                        moved=dilated(geom) if g is ABLATION_DILATION else None,
                    ),
                )
    if "fiber" in config.checks:
        guarded("fiber_constancy", lambda: check_fiber_constancy(phantom(mixture_phantom)))
    if "evenness" in config.checks:
        F = smooth_doubled_field(plane_geom, config.seed)
        g = GroupElement(
            np.array([0.3, -0.15, 0.2]),
            _axis_rotation(2, np.deg2rad(30.0)) @ _axis_rotation(0, np.deg2rad(20.0)),
            0.9,
        )
        guarded("evenness", lambda: check_evenness_subspace(F, plane_geom, g))
    if "controls" in config.checks and not config.ablate_character:
        def ablation_control() -> ReportEntry:
            # Pooled over geometries: the plane character a separates from 1
            # by 25% at a = 1.25, the line character sqrt(a) only by 12%, so
            # the pooled maximum carries the control.
            results = [
                check_intertwining(
                    geom,
                    ABLATION_DILATION,
                    phantom(compact_phantom),
                    ablate_character=True,
                    reference=forward(compact_phantom, geom),
                    moved=dilated(geom),
                )
                for geom in (plane_geom, line_geom)
            ]
            best = min(results, key=lambda e: e.residual)
            return make_entry("control_character_ablation", best.residual, 0.0, best.context)

        guarded("control_character_ablation", ablation_control)

        def admissibility_control() -> ReportEntry:
            bump = gaussian_phantom(config.n // 2, 2.0 * config.spacing)
            try:
                admissibility_constant(bump)
            except NotAdmissible:
                return make_entry(
                    "control_admissibility_rejects_gaussian",
                    0.0,
                    0.5,
                    "NotAdmissible raised for nonzero-mean bump, as required",
                )
            return make_entry(
                "control_admissibility_rejects_gaussian",
                1.0,
                0.5,
                "nonzero-mean bump was accepted: admissibility test is broken",
            )

        guarded("control_admissibility_rejects_gaussian", admissibility_control)
    return report
