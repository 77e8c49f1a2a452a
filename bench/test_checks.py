"""Tests of the benchmark's own checks and tracer.

Each checker must pass a real output of the program and reject a corrupted
one: a dropped move, a flipped pixel phase, one trap misread.  Run with

    python3 bench/test_checks.py
    PYTHONPATH=src python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from tweezer_forge import assembler as asm  # noqa: E402
from tweezer_forge import configs  # noqa: E402
from tweezer_forge import geometry as geo  # noqa: E402
from tweezer_forge import hologram as holo  # noqa: E402
from tweezer_forge import physics as phy  # noqa: E402
from tweezer_forge import simulator as sim  # noqa: E402
from worker import PlaneFacts, draw_triggered  # noqa: E402


def _bilayer_plan():
    cfg = configs.bilayer72_config()
    facts = PlaneFacts(cfg)
    occ = draw_triggered(np.random.default_rng(7), cfg.p_load, facts.members, facts.targets)
    plan = asm.plan_plane(occ, cfg.layout, cfg.decomposition, 0, cfg.planner)
    return cfg, facts, occ, plan


def _check(cfg, facts, occ, plan):
    return checks.check_plan(plan, occ, facts.positions, facts.is_target, facts.members[0],
                             0, facts.z[0], cfg.planner.collision_radius_um)


def test_plan_check_passes_a_real_plan_and_rejects_a_dropped_move():
    cfg, facts, occ, plan = _bilayer_plan()
    assert len(plan.moves) > 2
    assert _check(cfg, facts, occ, plan) == []
    for k in (0, len(plan.moves) // 2, len(plan.moves) - 1):
        dropped = dataclasses.replace(plan, moves=plan.moves[:k] + plan.moves[k + 1:])
        assert _check(cfg, facts, occ, dropped), f"dropping move {k} went unnoticed"


def test_plan_check_rejects_a_path_off_the_plane_and_a_wrong_end():
    cfg, facts, occ, plan = _bilayer_plan()
    move = next(m for m in plan.moves if m.kind == "transfer")
    k = plan.moves.index(move)
    lifted = tuple(geo.Vec3(p.x, p.y, p.z + 0.5) for p in move.path)
    off_plane = dataclasses.replace(
        plan, moves=plan.moves[:k] + (dataclasses.replace(move, path=lifted),) + plan.moves[k + 1:])
    assert any("z" in e for e in _check(cfg, facts, occ, off_plane))
    short = move.path[:-1] + (geo.Vec3(move.path[-1].x + 1.0, move.path[-1].y, move.path[-1].z),)
    wrong_end = dataclasses.replace(
        plan, moves=plan.moves[:k] + (dataclasses.replace(move, path=short),) + plan.moves[k + 1:])
    assert any("destination" in e for e in _check(cfg, facts, occ, wrong_end))


def test_detection_check_rejects_one_misread_trap():
    cfg = configs.four_plane_config()
    facts = PlaneFacts(cfg)
    occ = draw_triggered(np.random.default_rng(3), cfg.p_load, facts.members, facts.targets)
    camera = dataclasses.replace(cfg.camera, noise="poisson")
    stack = sim.synthesize_fluorescence_stack(occ, cfg.layout, camera, facts.z,
                                              rng=np.random.default_rng(4))
    seen = sim.detect_occupancy(stack, cfg.layout, cfg.decomposition, camera)
    assert checks.check_detection(seen, occ) == []
    misread = seen.copy()
    misread[5] = not misread[5]
    assert checks.check_detection(misread, occ) == ["trap 5 misread"]


def test_mask_and_volume_checks_reject_a_flipped_pixel_phase():
    slm = holo.SlmConfig()
    cube = geo.generate_preset("cubic", n=(3, 3, 3), spacing=(10.0, 10.0, 17.0))
    mask, report = holo.compute_phase_mask(cube, slm, holo.WgsConfig(seed=1))
    positions = cube.positions()
    assert checks.check_mask(mask, report, positions, slm, 0.05) == []
    flipped = mask.phases.copy()
    flipped[slm.ny // 2, slm.nx // 2] = (flipped[slm.ny // 2, slm.nx // 2] + math.pi) % (2 * math.pi)
    assert checks.check_mask(holo.PhaseMask(flipped), report, positions, slm, 0.05)

    region, resolution = holo.Box(-12.0, 12.0, -12.0, 12.0, -20.0, 20.0), (16, 16, 12)
    volume = holo.sample_intensity_volume(mask, slm, region, resolution)
    sample = [(0, 0, 0), (6, 8, 8), (11, 15, 3)]
    assert checks.check_volume(volume, mask.phases, slm, region, resolution, sample) == []
    assert checks.check_volume(volume, flipped, slm, region, resolution, sample)


def test_closed_form_fill_matches_the_programs_oracle():
    for make in (configs.bilayer72_config, configs.four_plane_config):
        cfg = make(loss=phy.LossModel(crosstalk=None))
        ours, theirs = checks.crosstalk_free_fill(cfg), sim.analytic_fill_estimate(cfg)
        assert abs(ours - theirs) <= 1e-12 * theirs, (ours, theirs)


def test_statistics_checks_reject_failures_and_a_high_fill():
    good = sim.Statistics(shots=100, triggered=100, planner_failures=0, mean_fill=0.96,
                          std_fill=0.02, per_plane_fill=(0.96,), defect_free_prob=0.1,
                          mean_cycle_ms=800.0)
    assert checks.check_shots(good) == []
    assert checks.check_shots(dataclasses.replace(good, planner_failures=1))
    assert checks.check_shots(dataclasses.replace(good, triggered=99))
    assert checks.check_pooled([good, good], 0.96, (0.95, 0.03), (0.5, 2.0)) == []
    # 0.965 sits 3.5 standard errors (0.02 / sqrt(200)) above 0.96
    high = dataclasses.replace(good, mean_fill=0.965)
    assert checks.check_pooled([high, high], 0.96)
    assert checks.check_pooled([good], 0.96, fill_band=(0.90, 0.03))
    assert checks.check_pooled([good], 0.96, rate_band_hz=(1.5, 2.0))


def _double(x):
    return 2 * x


def test_tracer_reports_a_missing_function_as_absent():
    module = sys.modules[__name__]
    tracer = spans.Tracer()
    tracer.install(spans=(("demo.double", __name__, "_double"),
                          ("demo.gone", __name__, "no_such_function"),
                          ("demo.gone_module", "no_such_module", "f"),
                          ("demo.gone_attr", __name__, "no_such_object.f")))
    try:
        root = tracer.open("root")
        assert module._double(3) == 6
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert module._double is _double
    assert tracer.absent == ["demo.gone", "demo.gone_module", "demo.gone_attr"]
    assert tracer.spans_named("demo.double").size == 1
    assert tracer.spans_named("demo.gone").size == 0
    assert tracer.self_s("root") <= tracer.durations_s("root").sum()
    layers = spans.layer_metrics(tracer, [])
    assert layers["assembler.plan_plane.calls"] == (0, "count")
    assert layers["simulator.summarize.busy_s"] == (0.0, "s")


def test_every_layer_span_names_an_existing_function():
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == []


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
