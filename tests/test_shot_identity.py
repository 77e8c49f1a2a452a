"""Shot identity: the Monte Carlo engine reproduces a frozen corpus of shots.

``data/shot_identity.json`` holds, for each canonical config at two seeds
with the default loss model (crosstalk on), the SHA-256 of every shot's
``final_occupancy`` and the ``Statistics`` fields of the run.  A change to
any random draw, its order or a loss probability changes a digest, so
engine refactors that must not change behaviour are checked bit for bit.

Re-record only after a deliberate change of shot behaviour:

    PYTHONPATH=src python tests/test_shot_identity.py --record
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_valid_occupancy
from tweezer_forge import assembler as asm
from tweezer_forge import configs
from tweezer_forge import simulator as sim
from tweezer_forge import physics as phy
from tweezer_forge.physics import mt_pass_loss

FIXTURE = Path(__file__).parent / "data" / "shot_identity.json"
CONFIGS = {
    "bilayer72": configs.bilayer72_config,
    "four_plane": configs.four_plane_config,
    "one_plane": configs.one_plane_config,
}
SHOTS = {"bilayer72": 300, "four_plane": 600, "one_plane": 400}
SEEDS = (1, 61)


def occupancy_digest(occ: np.ndarray) -> str:
    return hashlib.sha256(occ.tobytes()).hexdigest()


def run(name: str, seed: int) -> dict:
    """Per-shot digests and the statistics of ``run_experiment``, which
    summarises exactly these shots."""
    cfg = CONFIGS[name](seed=seed)
    results = list(sim.iter_shots(cfg, SHOTS[name]))
    stats = dataclasses.asdict(sim.summarize(cfg, results))
    stats["per_plane_fill"] = list(stats["per_plane_fill"])
    return {
        "digests": [occupancy_digest(r.final_occupancy) for r in results],
        "statistics": stats,
    }


def record() -> dict:
    return {name: {str(seed): run(name, seed) for seed in SEEDS} for name in CONFIGS}


@pytest.fixture(scope="module")
def corpus():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(CONFIGS))
def test_shots_match_recorded_digests(corpus, name, seed):
    want = corpus[name][str(seed)]
    got = run(name, seed)
    assert len(want["digests"]) == SHOTS[name]
    mismatches = [k for k, (a, b) in enumerate(zip(got["digests"], want["digests"])) if a != b]
    assert not mismatches, f"{len(mismatches)} shots differ, first {mismatches[:5]}"
    assert got["statistics"] == want["statistics"]


def reference_crosstalk_losses(ctx, occ, plane, move, loss, rng):
    """Per-move crosstalk: every atom outside the sorted plane present now is
    tested against the move's pick and drop points."""
    others = np.nonzero(occ & (ctx.plane_of != plane))[0]
    if others.size == 0:
        return
    ends = np.asarray([move.path[0].as_array()[:2], move.path[-1].as_array()[:2]])
    diff = ctx.xy[others][:, None, :] - ends[None, :, :]
    dr = np.sqrt(np.einsum("oek,oek->oe", diff, diff)).min(axis=1)
    dz = np.abs(ctx.z[others] - ctx.mt_z[plane])
    p_loss = mt_pass_loss(dz, dr, loss.crosstalk)
    lost = rng.random(others.size) < p_loss
    occ[others[lost]] = False


def reference_run_plane(ctx, occ, plane, plan, loss, rng):
    for move in plan.moves:
        if loss.crosstalk_enabled:
            reference_crosstalk_losses(ctx, occ, plane, move, loss, rng)
        present = occ[move.from_index]
        if move.kind == "transfer":
            u = rng.random()
            if present:
                occ[move.from_index] = False
                if u < loss.move_fidelity_eta:
                    occ[move.to_index] = True
        else:
            occ[move.from_index] = False


@pytest.mark.parametrize("beam", ["default", "wide"])
@pytest.mark.parametrize("name", ["bilayer72", "four_plane"])
def test_plane_execution_matches_per_move_reference(name, beam):
    """``_run_plane`` draws exactly what the per-move loop draws, in order.

    The default beam loses almost no bilayer72 atom to crosstalk; the wide
    one (3 um waist) loses a few per cent at the 2.83 um inter-layer offset,
    so atoms leave the other-plane set in mid-plane on both configs."""
    loss = None
    if beam == "wide":
        loss = phy.LossModel(crosstalk=phy.calibrate_crosstalk(phy.MtParams(waist_um=3.0)))
    cfg = CONFIGS[name](loss=loss)
    ctx = sim._SimContext(cfg)
    rng = np.random.default_rng(20171207)
    crosstalk_lost = 0
    for k in range(40):
        occ = random_valid_occupancy(cfg.layout, cfg.decomposition, rng)
        fast, slow = occ.copy(), occ.copy()
        rng_fast, rng_slow = sim.shot_rng(k, 0), sim.shot_rng(k, 0)
        for plane in ctx.sorted_planes:
            plan = asm.plan_plane(occ, cfg.layout, cfg.decomposition, plane, cfg.planner)
            others_before = slow & (ctx.plane_of != plane)
            sim._run_plane(ctx, fast, plane, plan, cfg.loss, rng_fast)
            reference_run_plane(ctx, slow, plane, plan, cfg.loss, rng_slow)
            crosstalk_lost += int((others_before & ~slow).sum())
            np.testing.assert_array_equal(fast, slow)
            assert rng_fast.bit_generator.state == rng_slow.bit_generator.state
    if beam == "wide":
        assert crosstalk_lost > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=0) + "\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
