"""Replay the plan-identity corpus and count how each move was routed.

    PYTHONPATH=src python3 tools/route_counts.py [CONFIG ...] [--shots K]

For each canonical config (all three by default) every recorded occupancy
of ``tests/data/plan_identity.json`` (or its first K) is planned plane by
plane, and the tool prints one JSON object per config: the moves, how many
took the straight leg, a single-waypoint detour, a corridor route or the
least-bad pass (a failed search, so the straight leg is taken anyway), and
the total path length in um.  The four route counts sum to the moves.

The counts come from wrapping ``_Scheduler._route`` alone.  Each move is
classed by the path it returns and by the scheduler's occupancy before the
call: two points with an occupied trap near the straight leg are a
least-bad pass, two points otherwise the straight leg, three points whose
middle one is not a point of the plane table a detour, and anything else a
corridor route.  So the tool reads any version of the planner that
``PYTHONPATH`` selects: run it on two checkouts to compare their routing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from tweezer_forge import assembler as asm

# the corpus, its configs and its occupancy encoding are defined beside the
# test that checks it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_plan_identity import CONFIGS, FIXTURE, decode_occupancy  # noqa: E402

KINDS = ("straight", "detour", "corridor", "least_bad")


@contextlib.contextmanager
def counting(counts: dict):
    """Count each routed move's kind into ``counts`` while inside."""
    route = asm._Scheduler._route

    def counted_route(self, move):
        blocked = any(self.occ[c] for c in move.near_hard)
        path = route(self, move)
        if len(path) == 2:
            kind = "least_bad" if blocked else "straight"
        elif len(path) == 3 and not any(path[1] is p for p in self.table.points):
            kind = "detour"
        else:
            kind = "corridor"
        counts[kind] += 1
        return path

    asm._Scheduler._route = counted_route
    try:
        yield
    finally:
        asm._Scheduler._route = route


def route_counts(name: str, corpus: dict, shots: int | None = None) -> dict:
    """Route counts and total path of config ``name`` over its corpus
    occupancies (the first ``shots`` of them, or all)."""
    cfg = CONFIGS[name]()
    entry = corpus[name]
    n = len(cfg.layout.traps)
    counts = dict.fromkeys(KINDS, 0)
    moves, path_um = 0, 0.0
    with counting(counts):
        for hex_occ, *_ in entry["shots"][:shots]:
            occ = decode_occupancy(hex_occ, n)
            for p in entry["planes"]:
                plan = asm.plan_plane(occ, cfg.layout, cfg.decomposition, p, cfg.planner)
                moves += len(plan.moves)
                path_um += sum(m.path_length_um() for m in plan.moves)
    return {"config": name, "moves": moves, **counts, "total_path_um": round(path_um, 3)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", metavar="CONFIG",
                        help=f"any of {', '.join(CONFIGS)} (default: all)")
    parser.add_argument("--shots", type=int, default=None,
                        help="replay only the first K occupancies of each config")
    args = parser.parse_args()
    unknown = sorted(set(args.configs) - set(CONFIGS))
    if unknown:
        parser.error(f"unknown config {', '.join(unknown)}")
    corpus = json.loads(FIXTURE.read_text())
    for name in args.configs or CONFIGS:
        print(json.dumps(route_counts(name, corpus, args.shots)))


if __name__ == "__main__":
    main()
