"""Plan identity: the planner reproduces a frozen corpus of plane plans.

``data/plan_identity.json`` holds, for each canonical config, trigger-satisfying
occupancies (hex bitmasks of ``np.packbits``) and the SHA-256 of each sorted
plane's ``plan_plane`` result in canonical ``plan_to_dict`` JSON.  Any change
to a move, a waypoint or a move's order changes a digest, so planner
refactors that must not change behaviour are checked bit for bit.

Beside each full digest the fixture holds a skeleton digest: the same plan
without interior waypoints, i.e. each move's kind, traps, exit and first and
last path point, in order.  A routing change that keeps every move changes
full digests only; its re-recording must leave every skeleton digest as it
was.

Re-record only after a deliberate change of planning behaviour:

    PYTHONPATH=src python tests/test_plan_identity.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tweezer_forge import assembler as asm
from tweezer_forge import configs

FIXTURE = Path(__file__).parent / "data" / "plan_identity.json"
CONFIGS = {
    "bilayer72": configs.bilayer72_config,
    "four_plane": configs.four_plane_config,
    "one_plane": configs.one_plane_config,
}
SHOTS_PER_CONFIG = 300
RECORD_SEED = 20_171_207


def sorted_planes(cfg):
    return [
        p for p, plane in enumerate(cfg.decomposition.planes)
        if any(cfg.layout.traps[i].is_target for i in plane.indices)
    ]


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def plan_digest(plan: asm.MovePlan) -> str:
    return _sha256(asm.plan_to_dict(asm.AssemblyPlan((plan,))))


def skeleton_digest(plan: asm.MovePlan) -> str:
    """Digest of the plan with each move's path cut to its end points."""
    doc = asm.plan_to_dict(asm.AssemblyPlan((plan,)))
    for move in doc["planes"][0]["moves"]:
        move["path_um"] = [move["path_um"][0], move["path_um"][-1]]
    return _sha256(doc)


def encode_occupancy(occ: np.ndarray) -> str:
    return np.packbits(occ).tobytes().hex()


def decode_occupancy(text: str, n: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(text), dtype=np.uint8))
    return bits[:n].astype(bool)


def triggered_occupancies(cfg, count, seed):
    """``count`` Bernoulli(p_load) draws that hold enough atoms in every
    sorted plane (the simulator's trigger condition)."""
    rng = np.random.default_rng(seed)
    n = len(cfg.layout.traps)
    need = [
        (list(plane.indices), sum(cfg.layout.traps[i].is_target for i in plane.indices))
        for plane in cfg.decomposition.planes
    ]
    out = []
    while len(out) < count:
        occ = rng.random(n) < cfg.p_load
        if all(occ[idx].sum() >= k for idx, k in need):
            out.append(occ)
    return out


def record() -> dict:
    doc = {}
    for k, (name, make) in enumerate(CONFIGS.items()):
        cfg = make()
        planes = sorted_planes(cfg)
        shots, skeletons = [], []
        for occ in triggered_occupancies(cfg, SHOTS_PER_CONFIG, (RECORD_SEED, k)):
            plans = [asm.plan_plane(occ, cfg.layout, cfg.decomposition, p, cfg.planner)
                     for p in planes]
            shots.append([encode_occupancy(occ)] + [plan_digest(q) for q in plans])
            skeletons.append([skeleton_digest(q) for q in plans])
        doc[name] = {"planes": planes, "shots": shots, "skeletons": skeletons}
    return doc


@pytest.fixture(scope="module")
def corpus():
    return json.loads(FIXTURE.read_text())


def corpus_plans(corpus, name):
    """Per recorded shot: its occupancy and the plan of each sorted plane."""
    cfg = CONFIGS[name]()
    n = len(cfg.layout.traps)
    for hex_occ, *_ in corpus[name]["shots"]:
        occ = decode_occupancy(hex_occ, n)
        yield occ, [asm.plan_plane(occ, cfg.layout, cfg.decomposition, p, cfg.planner)
                    for p in corpus[name]["planes"]]


@pytest.mark.parametrize("name", list(CONFIGS))
def test_plans_match_recorded_digests(corpus, name):
    cfg = CONFIGS[name]()
    entry = corpus[name]
    planes = sorted_planes(cfg)
    assert entry["planes"] == planes
    assert len(entry["shots"]) == SHOTS_PER_CONFIG
    n = len(cfg.layout.traps)
    targets = np.array([t.is_target for t in cfg.layout.traps])
    plane_of = cfg.decomposition.plane_of(n)
    mismatches = []
    for shot, ((occ, plans), (_, *digests)) in enumerate(
            zip(corpus_plans(corpus, name), entry["shots"])):
        for p, plan, want in zip(planes, plans, digests):
            if plan_digest(plan) != want:
                mismatches.append((shot, p))
            out = asm.apply_plan_lossless(occ, plan)
            assert out[targets & (plane_of == p)].all(), (shot, p)
    assert not mismatches, f"{len(mismatches)} plans differ, first {mismatches[:5]}"


@pytest.mark.parametrize("name", list(CONFIGS))
def test_plan_skeletons_match_recorded_digests(corpus, name):
    """Every move keeps its kind, traps, exit, end points and order."""
    entry = corpus[name]
    assert len(entry["skeletons"]) == SHOTS_PER_CONFIG
    mismatches = [
        (shot, p)
        for shot, ((_, plans), digests) in enumerate(
            zip(corpus_plans(corpus, name), entry["skeletons"]))
        for p, plan, want in zip(entry["planes"], plans, digests)
        if skeleton_digest(plan) != want
    ]
    assert not mismatches, f"{len(mismatches)} plan skeletons differ, first {mismatches[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=0) + "\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
