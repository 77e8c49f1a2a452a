"""Run one workload in this fresh process and print what it measured as JSON.

    python3 bench/worker.py --workload NAME --seed N --part K --seconds S [--trace-file F]

``bench/run.py`` starts this script; it is not meant to be run by hand.  The
set-up time runs from just before ``import tweezer_forge`` to the end of the
warm-up operation.  The timed phase then repeats whole rounds of the
workload's operations until ``--seconds`` have passed, checks every output
outside the timed spans, and prints one JSON object on the last line: the
raw timing samples, the operations attempted and failed, and the check
errors.  Round ``r`` of part ``K`` draws its inputs from
``numpy.random.default_rng([N, K, r, 0])``.
"""

from __future__ import annotations

# numpy and the package are imported inside functions: the set-up timer
# starts before ``import tweezer_forge``, which loads numpy and scipy
import argparse
import dataclasses
import functools
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("bilayer72", "four_plane", "control", "hologram")

SHOTS_PER_ROUND = {"bilayer72": 50, "four_plane": 200}
PLAN_DRAWS_PER_ROUND = 50
CYCLES_PER_ROUND = 25

# hologram inputs: the two criterion-01 layouts, and the volume x, y in
# [-12, 12] um, z in [-20, 20] um around the cube at 64 x 64 x 48 voxels,
# sampled in four 10 um slabs of 12 voxels so that a run times about 80
# volume calls rather than 20
WGS_TARGET_RMS = 0.05
CUBE_SLABS = tuple((-12.0, 12.0, -12.0, 12.0, z, z + 10.0) for z in (-20.0, -10.0, 0.0, 10.0))
SLAB_RESOLUTION = (64, 64, 12)
SLAB_CHECK_VOXELS = 3


class Recorder:
    """Operations attempted and failed, check errors, and timing samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def outcome(self, errors, what: str) -> None:
        """Count one operation with the check errors of its output."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.check_failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors[:3])

    def crashed(self, exc: Exception, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: raised {type(exc).__name__}: {exc}")


def draw_triggered(rng, p_load, plane_members, plane_targets):
    """Bernoulli(p_load) occupancy, redrawn until every plane holds at least
    as many atoms as it has targets (the shot trigger)."""
    n = sum(len(m) for m in plane_members)
    while True:
        occ = rng.random(n) < p_load
        if all(occ[m].sum() >= t for m, t in zip(plane_members, plane_targets)):
            return occ


class PlaneFacts:
    """What the plan checker needs to know about a config's planes."""

    def __init__(self, config):
        import numpy as np

        layout = config.layout
        self.positions = layout.positions()
        self.is_target = [t.is_target for t in layout.traps]
        self.members = [np.array(pl.indices) for pl in config.decomposition.planes]
        self.targets = [sum(self.is_target[i] for i in m) for m in self.members]
        self.z = [pl.z_center for pl in config.decomposition.planes]
        self.sorted_planes = [p for p, t in enumerate(self.targets) if t > 0]


# ---------------------------------------------------------------------------
# workloads: setup(seed) builds the inputs and runs the warm-up operation,
# run_round(state, key, r, rec) runs round r of the part key = (seed, part)
# ---------------------------------------------------------------------------

def _rng(*key):
    import numpy as np

    return np.random.default_rng(list(key))


def _plan_and_check(state, occ, rec, what):
    asm, checks, facts, cfg = state["asm"], state["checks"], state["facts"], state["config"]
    for p in facts.sorted_planes:
        t0 = time.perf_counter()
        try:
            plan = asm.plan_plane(occ, cfg.layout, cfg.decomposition, p, cfg.planner)
        except asm.PlanInfeasibleError as exc:
            rec.crashed(exc, f"{what} plane {p}")
            continue
        rec.add("step_s", time.perf_counter() - t0)
        rec.outcome(checks.check_plan(
            plan, occ, facts.positions, facts.is_target, facts.members[p], p,
            facts.z[p], cfg.planner.collision_radius_um), f"{what} plane {p}")


def setup_mc(workload, seed):
    from tweezer_forge import assembler as asm
    from tweezer_forge import configs
    from tweezer_forge import simulator as sim

    make = configs.bilayer72_config if workload == "bilayer72" else configs.four_plane_config
    config = make(seed=seed)
    sim.run_experiment(config, 1)  # warm-up: MT safety check and plane tables
    import checks

    return {"asm": asm, "sim": sim, "checks": checks, "config": config,
            "facts": PlaneFacts(config), "stats": []}


def round_mc(state, workload, key, r, rec):
    sim, cfg, facts = state["sim"], state["config"], state["facts"]
    rng = _rng(*key, r, 0)
    shot_config = dataclasses.replace(cfg, seed=int(rng.integers(2**31)))
    n = SHOTS_PER_ROUND[workload]
    t0 = time.perf_counter()
    stats = sim.run_experiment(shot_config, n)
    rec.add("shots_wall_s", time.perf_counter() - t0)
    rec.add("shots", n)
    state["stats"].append(stats)
    # a four_plane shot times out untriggered about twice in a million (see
    # CHANGES.md), so there only planner failures count
    rec.outcome(state["checks"].check_shots(stats, all_triggered=workload == "bilayer72"),
                f"run_experiment round {r}")
    for _ in range(PLAN_DRAWS_PER_ROUND):
        occ = draw_triggered(rng, cfg.p_load, facts.members, facts.targets)
        _plan_and_check(state, occ, rec, f"plan round {r}")


def setup_control(seed):
    from tweezer_forge import assembler as asm
    from tweezer_forge import configs
    from tweezer_forge import simulator as sim

    config = configs.four_plane_config(seed=seed)
    camera = dataclasses.replace(config.camera, noise="poisson")
    import checks

    state = {"asm": asm, "sim": sim, "checks": checks, "config": config,
             "camera": camera, "facts": PlaneFacts(config)}
    warm = Recorder()
    _cycle(state, _rng(seed, 0, 0, 1), warm, "warm-up")  # warm-up cycle
    return state


def _cycle(state, rng, rec, what):
    sim, asm, cfg, facts = state["sim"], state["asm"], state["config"], state["facts"]
    occ = draw_triggered(rng, cfg.p_load, facts.members, facts.targets)
    t0 = time.perf_counter()
    plans = []
    try:
        stack = sim.synthesize_fluorescence_stack(occ, cfg.layout, state["camera"], facts.z, rng=rng)
        seen = sim.detect_occupancy(stack, cfg.layout, cfg.decomposition, state["camera"])
        for p in facts.sorted_planes:
            plans.append(asm.plan_plane(seen, cfg.layout, cfg.decomposition, p, cfg.planner))
    except asm.PlanInfeasibleError as exc:
        rec.crashed(exc, what)
        return
    rec.add("step_s", time.perf_counter() - t0)
    errors = state["checks"].check_detection(seen, occ)
    for p, plan in zip(facts.sorted_planes, plans):
        errors += state["checks"].check_plan(
            plan, seen, facts.positions, facts.is_target, facts.members[p], p,
            facts.z[p], cfg.planner.collision_radius_um)
    rec.outcome(errors, what)


def round_control(state, key, r, rec):
    rng = _rng(*key, r, 0)
    for k in range(CYCLES_PER_ROUND):
        _cycle(state, rng, rec, f"cycle {r}.{k}")


def setup_hologram(seed):
    import numpy as np

    from tweezer_forge import geometry as geo
    from tweezer_forge import hologram as holo

    pts = np.array([(i * 5.0, j * 5.0, 0.0) for j in range(10) for i in range(10)])
    pts -= pts.mean(axis=0)
    grid = geo.TrapLayout(tuple(geo.TrapSite(geo.Vec3(*map(float, p))) for p in pts))
    cube = geo.generate_preset("cubic", n=(3, 3, 3), spacing=(10.0, 10.0, 17.0))
    slm = holo.SlmConfig()
    holo.compute_phase_mask(cube, slm, holo.WgsConfig(seed=seed, max_iters=1))  # warm-up
    import checks

    return {"holo": holo, "checks": checks, "slm": slm, "grid": grid, "cube": cube,
            "slabs": [holo.Box(*slab) for slab in CUBE_SLABS]}


def round_hologram(state, key, r, rec):
    import numpy as np

    holo, checks, slm = state["holo"], state["checks"], state["slm"]
    rng = _rng(*key, r, 0)
    wgs = holo.WgsConfig(seed=int(rng.integers(2**31)), target_rms=WGS_TARGET_RMS)
    solved = []
    wall = 0.0
    for name in ("grid", "cube"):
        t0 = time.perf_counter()
        mask, report = holo.compute_phase_mask(state[name], slm, wgs)
        wall += time.perf_counter() - t0
        solved.append((name, mask, report))
        rec.add("wgs_iterations", report.iterations_used)
    rec.add("solve_wall_s", wall)
    cube_mask = solved[1][1]
    slabs = []
    for region in state["slabs"]:
        t0 = time.perf_counter()
        slabs.append(holo.sample_intensity_volume(cube_mask, slm, region, SLAB_RESOLUTION))
        rec.add("step_s", time.perf_counter() - t0)
    for name, mask, report in solved:
        rec.outcome(checks.check_mask(mask, report, state[name].positions(), slm,
                                      WGS_TARGET_RMS), f"{name} mask round {r}")
    nx, ny, nz = SLAB_RESOLUTION
    for k, (region, volume) in enumerate(zip(state["slabs"], slabs)):
        sample = np.stack([rng.integers(0, nz, SLAB_CHECK_VOXELS),
                           rng.integers(0, ny, SLAB_CHECK_VOXELS),
                           rng.integers(0, nx, SLAB_CHECK_VOXELS)], axis=1)
        rec.outcome(checks.check_volume(volume, cube_mask.phases, slm, region,
                                        SLAB_RESOLUTION, sample), f"volume slab {k} round {r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-file", help="trace the layers and write the spans here")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)

    t_setup = time.perf_counter()
    import tweezer_forge  # noqa: F401  (timed: the import is part of set-up)

    tracer = None
    if args.trace_file:
        import spans

        tracer = spans.Tracer()
        tracer.install(taggers={"assembler.plan_plane": spans.plan_tag})
    w = args.workload
    key = (args.seed, args.part)
    if w in SHOTS_PER_ROUND:
        state = setup_mc(w, args.seed)
        run_round = functools.partial(round_mc, state, w, key)
    elif w == "control":
        state = setup_control(args.seed)
        run_round = functools.partial(round_control, state, key)
    else:
        state = setup_hologram(args.seed)
        run_round = functools.partial(round_hologram, state, key)
    setup_s = time.perf_counter() - t_setup

    rec = Recorder()
    t0 = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - t0 < args.seconds:
        span = tracer.open("bench.round") if tracer else None
        run_round(r, rec)
        if tracer:
            tracer.close(span)
        r += 1

    out = {
        "setup_s": setup_s, "rounds": r,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": rec.attempted, "failed": rec.failed, "check_failed": rec.check_failed,
        "errors": rec.errors[:20], "samples": rec.samples,
    }
    if w in SHOTS_PER_ROUND:
        out["stats"] = [dataclasses.asdict(s) for s in state["stats"]]
        out["oracle_fill"] = state["checks"].crosstalk_free_fill(state["config"])
    if tracer:
        tracer.uninstall()
        out["layers"] = spans.layer_metrics(tracer, rec.samples.get("wgs_iterations", []))
        out["absent"] = tracer.absent
        tracer.write(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
