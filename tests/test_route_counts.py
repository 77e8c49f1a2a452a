"""``tools/route_counts.py`` counts every move of the corpus exactly once."""

import importlib.util
import json
from pathlib import Path

import pytest

from tweezer_forge import assembler as asm

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "route_counts.py"


@pytest.fixture(scope="module")
def route_counts():
    spec = importlib.util.spec_from_file_location("route_counts", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["bilayer72", "four_plane", "one_plane"])
def test_counts_sum_to_moves(route_counts, name):
    route = asm._Scheduler._route
    corpus = json.loads(route_counts.FIXTURE.read_text())
    counts = route_counts.route_counts(name, corpus, shots=30)
    assert counts["moves"] > 0 and counts["total_path_um"] > 0
    assert sum(counts[k] for k in route_counts.KINDS) == counts["moves"]
    assert counts["straight"] > 0 and counts["detour"] > 0
    # the wrapper is gone again
    assert asm._Scheduler._route is route
