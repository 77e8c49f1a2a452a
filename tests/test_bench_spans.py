"""Every layer the benchmark traces must exist in the package.

``bench/spans.py`` wraps each ``LAYER_SPANS`` entry where its caller looks it
up; an entry that no longer resolves is only listed as absent and its
per-layer metrics read 0.  This test makes a renamed or deleted layer
function fail here instead.  ``bench/`` is imported, never changed.
"""

import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    # compiled in memory, so no bytecode cache is written under bench/
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "name, module_name, attr_path", spans.LAYER_SPANS,
    ids=[f"{name}@{module}" for name, module, _ in spans.LAYER_SPANS],
)
def test_layer_span_resolves(name, module_name, attr_path):
    assert spans._resolve(module_name, attr_path) is not None, (
        f"{name}: {module_name}.{attr_path} is not a callable of the package"
    )
