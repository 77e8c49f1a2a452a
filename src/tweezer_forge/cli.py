"""Command-line pipelines over the library: geometry generation, hologram
synthesis, rendering, loading/assembly simulation and physics curves.

Exit codes: 0 success, 1 quality target missed, 2 invalid input, 3 runtime
infeasibility.  Errors are emitted to stderr as one-line JSON
``{"error": code, "detail": text}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import assembler, formats, geometry, hologram, physics, simulator


class CliError(Exception):
    def __init__(self, detail: str, code: int = 2):
        super().__init__(detail)
        self.code = code


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats, plain text otherwise."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# experiment config document
# ---------------------------------------------------------------------------

# each section holds the fields of one model; the loss section names the
# crosstalk model by its switch and calibration power ratio
_SECTIONS = {
    "timing": simulator.TimingModel,
    "camera": simulator.CameraModel,
    "safety": simulator.SafetyParams,
    "planner": assembler.PlannerPolicy,
}
_LOSS_KEYS = ({f.name for f in dataclasses.fields(physics.LossModel)} - {"crosstalk"}
              | {"crosstalk_enabled", "mt_power_ratio"})
_CONFIG_KEYS = {"layout_file", "epsilon_z_um", "p_load", "seed", "trigger_timeout_s",
                "loss", *_SECTIONS}


def _checked(doc, allowed, where: str) -> dict:
    """``doc`` as a dict, if it is a JSON object with no key outside ``allowed``."""
    if not isinstance(doc, dict):
        raise CliError(f"{where} must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise CliError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    return dict(doc)


def load_experiment_config(path, seed_override=None) -> simulator.ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    doc = _checked(doc, _CONFIG_KEYS, "config")
    sections = {
        name: _checked(doc.get(name, {}), [f.name for f in dataclasses.fields(model)],
                       f"config.{name}")
        for name, model in _SECTIONS.items()
    }
    loss_doc = _checked(doc.get("loss", {}), _LOSS_KEYS, "config.loss")
    if not isinstance(doc.get("layout_file"), str):
        raise CliError('config requires a "layout_file" string')
    layout_path = Path(doc["layout_file"])
    if not layout_path.is_absolute():
        layout_path = Path(path).parent / layout_path
    try:
        layout = geometry.load_layout(layout_path)
    except geometry.LayoutError as exc:
        raise CliError(f"invalid layout: {exc}") from exc

    try:
        crosstalk_enabled = loss_doc.pop("crosstalk_enabled", True)
        power_ratio = loss_doc.pop("mt_power_ratio", 3.0)
        crosstalk = physics.default_mt_params(power_ratio) if crosstalk_enabled else None
        return simulator.make_config(
            layout,
            epsilon_z=doc.get("epsilon_z_um", 1.0),
            p_load=doc.get("p_load", 0.5),
            loss=physics.LossModel(crosstalk=crosstalk, **loss_doc),
            trigger_timeout_s=doc.get("trigger_timeout_s", 10.0),
            seed=seed_override if seed_override is not None else doc.get("seed", 0),
            **{name: model(**sections[name]) for name, model in _SECTIONS.items()},
        )
    except (TypeError, ValueError, geometry.DecompositionError) as exc:
        # a value of the wrong type fails in its model's checks
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_geometry(args) -> int:
    if args.import_file:
        layout = geometry.load_layout(args.import_file)
    elif args.preset:
        params = {}
        if args.n:
            params["n"] = tuple(args.n) if len(args.n) > 1 else args.n[0]
        if args.spacing is not None:
            params["spacing"] = tuple(args.spacing) if len(args.spacing) > 1 else args.spacing[0]
        for name in ("sites", "rings", "radius", "dz", "scale", "bond", "cell", "twist_deg"):
            value = getattr(args, name)
            if value is not None:
                params[name] = value
        layout = geometry.generate_preset(
            args.preset, reservoir=args.reservoir, epsilon_z=args.epsilon_z, **params
        )
    else:
        raise CliError("either --preset or --import is required")

    info: dict = {"name": layout.name, "traps": len(layout), "targets": layout.n_targets}
    if args.rotate_fix:
        decomp = geometry.decompose_planes(layout, args.epsilon_z)
        if geometry.validate_mt_safety(layout, decomp, args.z_safe, args.r_safe).passed:
            info["rotation_axis"] = None
            info["rotation_deg"] = 0.0
        else:
            fix = geometry.suggest_rotation(
                layout, args.z_safe, args.r_safe, decomposition=decomp
            )
            if fix is None:
                raise CliError("no rotation within 45 degrees fixes the MT conflicts", code=3)
            layout = geometry.rotate_layout(layout, fix.axis, fix.angle_deg)
            info["rotation_axis"] = fix.axis
            info["rotation_deg"] = fix.angle_deg
    geometry.save_layout(layout, args.output)
    print(json.dumps(info, sort_keys=True))
    return 0


def _cmd_hologram(args) -> int:
    layout = geometry.load_layout(args.layout)
    slm = hologram.SlmConfig(
        nx=args.pixels, ny=args.pixels, pixel_pitch_um=args.pitch,
        focal_length_mm=args.focal, input_beam_waist_mm=args.waist,
    )
    wgs = hologram.WgsConfig(max_iters=args.iters, target_rms=args.target_rms, seed=args.seed)
    mask, report = hologram.compute_phase_mask(layout, slm, wgs)
    if args.mask:
        hologram.export_phase_pgm(mask, args.mask)
    if args.report:
        _write_json(args.report, report.to_dict())
    if args.volume:
        try:
            spans = []
            for part in args.volume.split(","):
                lo, hi, n = part.split(":")
                spans.append((float(lo), float(hi), int(n)))
            (x0, x1, nx), (y0, y1, ny), (z0, z1, nz) = spans
        except ValueError as exc:
            raise CliError(f"--volume expects x0:x1:nx,y0:y1:ny,z0:z1:nz ({exc})") from exc
        vol = hologram.sample_intensity_volume(
            mask, slm, hologram.Box(x0, x1, y0, y1, z0, z1), (nx, ny, nz)
        )
        formats.write_volume(args.volume_out, vol)
    print(json.dumps({
        "rms": report.rms_deviation,
        "iterations": report.iterations_used,
        "converged": report.converged,
    }, sort_keys=True))
    return 0 if report.converged else 1


def _cmd_render_mip(args) -> int:
    if args.volume:
        vol = formats.read_volume(args.volume)
        data = vol.data.max(axis=0)
        peak = data.max()
        scaled = np.floor(data / peak * 65535.0 + 0.5) if peak > 0 else data
        formats.write_pgm16(args.output, scaled)
    elif args.stack:
        images = []
        for p in args.stack:
            data, _ = formats.read_pgm(p)
            images.append(hologram.Image2D(data.astype(float)))
        mip = hologram.max_intensity_projection(images)
        formats.write_pgm16(args.output, mip.pixels)
    else:
        raise CliError("either --volume or stack images are required")
    return 0


def _cmd_simulate_loading(args) -> int:
    layout = geometry.load_layout(args.layout)
    rng = simulator.shot_rng(args.seed, 0)
    occ = simulator.simulate_initial_load(layout, args.p_load, rng)
    _write_json(args.output, {
        "layout": layout.name,
        "p_load": args.p_load,
        "seed": args.seed,
        "occupied": [bool(v) for v in occ],
    })
    print(json.dumps({"loaded": int(occ.sum()), "traps": len(layout)}))
    return 0


def _cmd_plan_assembly(args) -> int:
    layout = geometry.load_layout(args.layout)
    occ_doc = json.loads(Path(args.occupancy).read_text())
    if not isinstance(occ_doc, dict) or "occupied" not in occ_doc:
        raise CliError('occupancy document must be a JSON object with an "occupied" list')
    occ = assembler.as_occupancy(occ_doc["occupied"], len(layout.traps))
    decomp = geometry.decompose_planes(layout, args.epsilon_z)
    try:
        plan = assembler.plan_assembly(occ, layout, decomp)
    except assembler.PlanInfeasibleError as exc:
        raise CliError(str(exc), code=3) from exc
    _write_json(args.output, assembler.plan_to_dict(plan))
    print(json.dumps({
        "planes": len(plan.plans),
        "moves": plan.total_moves,
        "path_um": plan.total_path_um,
    }, sort_keys=True))
    return 0


def _cmd_run_experiment(args) -> int:
    config = load_experiment_config(args.config, seed_override=args.seed)
    results = list(simulator.iter_shots(config, args.shots))
    stats = simulator.summarize(config, results)
    rows = [
        [r.shot_index, r.triggered, r.n_loaded, r.n_targets_filled,
         r.fill_fraction, r.duration_ms, r.total_moves]
        for r in results
    ]
    _write_csv(args.output,
               ["shot", "triggered", "n_loaded", "n_targets_filled",
                "fill_fraction", "duration_ms", "moves"], rows)
    summary = {
        "mean_fill": stats.mean_fill,
        "std_fill": stats.std_fill,
        "defect_free_prob": stats.defect_free_prob,
        "rep_rate_hz": stats.rep_rate_hz,
    }
    if args.summary:
        _write_json(args.summary, summary)
    print(json.dumps(summary, sort_keys=True))
    if stats.planner_failures > 0.5 * stats.shots:
        raise CliError(
            f"planner infeasible in {stats.planner_failures}/{stats.shots} shots", code=3
        )
    return 0


def _cmd_recapture_curve(args) -> int:
    try:
        lo, hi, step = (float(v) for v in args.dz.split(":"))
    except ValueError as exc:
        raise CliError(f"--dz expects start:stop:step ({exc})") from exc
    if step <= 0 or hi < lo:
        raise CliError("--dz range must be increasing with positive step")
    try:
        mt = physics.default_mt_params(args.power_ratio)
    except physics.CalibrationError as exc:
        raise CliError(f"calibration failed: {exc}", code=3) from exc
    scale = 1.0 if args.power == "full" else physics.reduced_power_ratio(mt)
    dz = np.arange(lo, hi + step / 2.0, step)
    loss = physics.mt_pass_loss(dz, 0.0, mt, power_scale=scale)
    rows = [[float(z), float(1.0 - l)] for z, l in zip(dz, loss)]
    _write_csv(args.output, ["dz_um", "recapture_probability"], rows)
    print(json.dumps({"points": len(rows), "power": args.power}))
    return 0


def _cmd_detect(args) -> int:
    layout = geometry.load_layout(args.layout)
    decomp = geometry.decompose_planes(layout, args.epsilon_z)
    camera = simulator.CameraModel(
        pixel_scale_um=args.pixel_scale, psf_sigma0_um=args.psf_sigma,
        defocus_rayleigh_um=args.defocus_rayleigh,
        peak_counts=args.peak, background_counts=args.background,
    )
    stack = []
    for p in args.images:
        data, _ = formats.read_pgm(p)
        stack.append(hologram.Image2D(data.astype(float)))
    occ = simulator.detect_occupancy(stack, layout, decomp, camera)
    _write_json(args.output, {"layout": layout.name, "occupied": [bool(v) for v in occ]})
    print(json.dumps({"detected": int(occ.sum()), "traps": len(layout)}))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweezer-forge",
        description="Holographic tweezer-array synthesis and assembly simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-geometry", help="generate or import a trap layout")
    g.add_argument("--preset", choices=geometry.PRESET_NAMES)
    g.add_argument("--import", dest="import_file", metavar="FILE")
    g.add_argument("--n", type=int, nargs="+", help="site/cell counts per axis")
    g.add_argument("--spacing", type=float, nargs="+", help="lattice spacings in um")
    g.add_argument("--sites", type=int)
    g.add_argument("--rings", type=int)
    g.add_argument("--radius", type=float)
    g.add_argument("--dz", type=float)
    g.add_argument("--scale", type=float)
    g.add_argument("--bond", type=float)
    g.add_argument("--cell", type=float)
    g.add_argument("--twist-deg", type=float)
    g.add_argument("--reservoir", action="store_true",
                   help="add peripheral reservoir sites (2x targets per plane)")
    g.add_argument("--rotate-fix", action="store_true",
                   help="apply the smallest rotation passing MT safety")
    g.add_argument("--epsilon-z", type=float, default=1.0)
    g.add_argument("--z-safe", type=float, default=17.0)
    g.add_argument("--r-safe", type=float, default=3.0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen_geometry)

    h = sub.add_parser("hologram", help="compute an SLM phase mask")
    h.add_argument("layout")
    h.add_argument("--mask", help="output phase mask PGM")
    h.add_argument("--report", help="output uniformity report JSON")
    h.add_argument("--volume", help="sample |E|^2: x0:x1:nx,y0:y1:ny,z0:z1:nz")
    h.add_argument("--volume-out", default="volume.f32")
    h.add_argument("--pixels", type=int, default=512)
    h.add_argument("--pitch", type=float, default=20.0)
    h.add_argument("--focal", type=float, default=10.0)
    h.add_argument("--waist", type=float, default=2.46)
    h.add_argument("--iters", type=int, default=100)
    h.add_argument("--target-rms", type=float, default=0.05)
    h.add_argument("--seed", type=int, default=0)
    h.set_defaults(func=_cmd_hologram)

    r = sub.add_parser("render-mip", help="maximum-intensity projection")
    r.add_argument("--volume", help="f32 volume file (with JSON sidecar)")
    r.add_argument("stack", nargs="*", help="PGM stack images")
    r.add_argument("-o", "--output", required=True)
    r.set_defaults(func=_cmd_render_mip)

    s = sub.add_parser("simulate-loading", help="draw one stochastic loading")
    s.add_argument("--layout", required=True)
    s.add_argument("--p-load", type=float, default=0.5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=_cmd_simulate_loading)

    p = sub.add_parser("plan-assembly", help="plan moves for an occupancy")
    p.add_argument("--layout", required=True)
    p.add_argument("--occupancy", required=True)
    p.add_argument("--epsilon-z", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_plan_assembly)

    e = sub.add_parser("run-experiment", help="Monte Carlo assembly runs")
    e.add_argument("config")
    e.add_argument("--shots", type=int, default=100)
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("-o", "--output", default="stats.csv")
    e.add_argument("--summary", help="summary JSON path")
    e.set_defaults(func=_cmd_run_experiment)

    c = sub.add_parser("recapture-curve", help="MT recapture vs axial distance")
    c.add_argument("--dz", default="0:30:0.5", help="start:stop:step in um")
    c.add_argument("--power", choices=("full", "reduced"), default="full")
    c.add_argument("--power-ratio", type=float, default=3.0)
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=_cmd_recapture_curve)

    d = sub.add_parser("detect", help="decode occupancy from stack images")
    d.add_argument("--layout", required=True)
    d.add_argument("--epsilon-z", type=float, default=1.0)
    d.add_argument("--pixel-scale", type=float, default=1.0)
    d.add_argument("--psf-sigma", type=float, default=1.0)
    d.add_argument("--defocus-rayleigh", type=float, default=5.0)
    d.add_argument("--peak", type=float, default=200.0)
    d.add_argument("--background", type=float, default=10.0)
    d.add_argument("images", nargs="+", help="one PGM per plane, ascending z")
    d.add_argument("-o", "--output", required=True)
    d.set_defaults(func=_cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}), file=sys.stderr)
        return exc.code
    except (geometry.LayoutError, geometry.DecompositionError, ValueError) as exc:
        print(json.dumps({"error": 2, "detail": str(exc)}), file=sys.stderr)
        return 2
    except assembler.PlanInfeasibleError as exc:
        print(json.dumps({"error": 3, "detail": str(exc)}), file=sys.stderr)
        return 3
    except OSError as exc:
        print(json.dumps({"error": 2, "detail": str(exc)}), file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
