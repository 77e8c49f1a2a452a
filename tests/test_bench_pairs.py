"""``tools/bench_pairs.py`` gives each end-to-end metric a verdict."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(parent, change):
    return [{"pair": i, "side": side, "metrics": {"m": value}}
            for i, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]


@pytest.mark.parametrize("better, parent, change, want", [
    # parent quartiles 97.5 to 102.5: spread 5 against a bound of 10
    ("higher", [95, 100, 100, 105], [96, 99, 101, 104], "ok"),
    ("higher", [95, 100, 100, 105], [85, 88, 89, 92], "worse"),
    ("lower", [95, 100, 100, 105], [108, 111, 112, 115], "worse"),
    ("lower", [95, 100, 100, 105], [85, 88, 89, 92], "ok"),
    # quartiles 85 to 115: spread 30 against a bound of 10
    ("higher", [70, 90, 110, 130], [80, 100, 100, 120], "unresolved"),
    ("higher", [70, 90, 110, 130], [60, 62, 64, 66], "unresolved"),
    # every change run beats every parent run, so the spread settles nothing
    ("higher", [70, 90, 110, 130], [131, 140, 150, 160], "ok"),
    ("lower", [70, 90, 110, 130], [60, 62, 64, 66], "ok"),
])
def test_summarize_verdicts(bench_pairs, better, parent, change, want):
    summary = bench_pairs.summarize(runs_of(parent, change),
                                    {"m": {"name": "m", "better": better, "bound": 0.1}})
    assert summary["m"]["verdict"] == want
    assert summary["m"]["parent"]["median"] == np.median(parent)
