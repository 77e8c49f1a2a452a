"""In-memory spans around the public functions of each layer.

A span is (name, start ns, end ns, parent span).  The tracer wraps a
function where its caller looks it up: a module attribute such as
``tweezer_forge.kernels.trap_fields``, or the name a module imported with
``from .physics import mt_pass_loss``.  The benchmark opens a root span around
each of its own operations, so every layer span hangs off the operation that
caused it.  Spans are kept in lists while the run lasts and written out once
at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

# (span name, module where the caller looks the function up, attribute)
LAYER_SPANS = (
    ("assembler.plan_plane", "tweezer_forge.simulator", "assembler.plan_plane"),
    ("assembler.assignment_min_cost", "tweezer_forge.assembler", "assignment_min_cost"),
    ("kernels.segment_point_distances", "tweezer_forge.assembler", "kernels.segment_point_distances"),
    ("physics.mt_pass_loss", "tweezer_forge.simulator", "mt_pass_loss"),
    ("simulator.run_shot", "tweezer_forge.simulator", "run_shot"),
    ("simulator.summarize", "tweezer_forge.simulator", "summarize"),
    ("simulator.synthesize_fluorescence_stack", "tweezer_forge.simulator",
     "synthesize_fluorescence_stack"),
    ("simulator.detect_occupancy", "tweezer_forge.simulator", "detect_occupancy"),
    ("kernels.render_spots", "tweezer_forge.simulator", "kernels.render_spots"),
    ("geometry.decompose_planes", "tweezer_forge.simulator", "decompose_planes"),
    ("geometry.decompose_planes", "tweezer_forge.geometry", "decompose_planes"),
    ("geometry.validate_mt_safety", "tweezer_forge.simulator", "validate_mt_safety"),
    ("hologram.compute_phase_mask", "tweezer_forge.hologram", "compute_phase_mask"),
    ("hologram.sample_intensity_volume", "tweezer_forge.hologram", "sample_intensity_volume"),
    ("kernels.trap_fields", "tweezer_forge.hologram", "kernels.trap_fields"),
    ("kernels.back_field", "tweezer_forge.hologram", "kernels.back_field"),
    ("kernels.intensity_slices", "tweezer_forge.hologram", "kernels.intensity_slices"),
)


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name) of ``module.attr.path``, or None when
    any link of the path is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *links, last = attr_path.split(".")
    for link in links:
        owner = getattr(owner, link, None)
        if owner is None:
            return None
    if not callable(getattr(owner, last, None)):
        return None
    return owner, last


class Tracer:
    """Collects spans; ``install`` wraps the layer functions in place."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.tags: dict[int, object] = {}  # span -> value recorded by a tagger
        self._stack: list[int] = []
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def open(self, name: str) -> int:
        span = len(self.span_name)
        self.span_name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(-1)
        self._stack.append(span)
        self.start.append(time.perf_counter_ns())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, tagger=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if tagger is not None:
                tracer.tags[span] = tagger(args, kwargs, result)
            return result
        return traced

    def install(self, spans=LAYER_SPANS, taggers=None) -> None:
        """Wrap every (name, module, attribute) that exists; a missing one is
        listed in ``absent`` and its metrics read as no calls."""
        taggers = taggers or {}
        for name, module_name, attr_path in spans:
            found = _resolve(module_name, attr_path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, taggers.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading ------------------------------------------------------------

    def spans_named(self, name: str) -> np.ndarray:
        nid = self._name_id.get(name)
        if nid is None:
            return np.zeros(0, dtype=np.intp)
        return np.nonzero(np.asarray(self.span_name) == nid)[0]

    def durations_s(self, name: str) -> np.ndarray:
        idx = self.spans_named(name)
        return (np.asarray(self.end)[idx] - np.asarray(self.start)[idx]) * 1e-9

    def self_s(self, name: str) -> float:
        """Total duration of the spans named ``name`` less the time their
        direct children cover (children of one span never overlap: the
        program runs on one thread)."""
        idx = self.spans_named(name)
        if idx.size == 0:
            return 0.0
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        mine = np.zeros(len(parent), dtype=bool)
        mine[idx] = True
        child = (parent >= 0) & mine[np.maximum(parent, 0)]
        return float((dur[idx].sum() - dur[child].sum()) * 1e-9)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_ns", "end_ns", "parent"],
                "names": self.names,
                "absent": self.absent,
                "spans": [list(s) for s in zip(self.span_name, self.start, self.end, self.parent)],
            }, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def plan_tag(args, kwargs, plan):
    """(plane index, moves, 3-waypoint moves, moves of 4+ waypoints) of a
    plan_plane call."""
    plane = args[3] if len(args) > 3 else kwargs["plane_index"]
    lengths = [len(m.path) for m in plan.moves]
    return (plane, len(lengths), sum(1 for n in lengths if n == 3),
            sum(1 for n in lengths if n >= 4))


def layer_metrics(tracer: Tracer, wgs_iterations) -> dict:
    """Every per-layer metric as {name: (value, unit)}; a span that never
    ran (absent, or not exercised by the workload) reads 0."""
    out = {}

    def pct_ms(name, q):
        d = tracer.durations_s(name)
        return float(np.percentile(d, q) * 1e3) if d.size else 0.0

    def put(metric, value, unit):
        out[metric] = (value, unit)

    for name in ("assembler.plan_plane", "kernels.segment_point_distances",
                 "physics.mt_pass_loss", "kernels.trap_fields", "kernels.back_field"):
        put(f"{name}.calls", int(tracer.spans_named(name).size), "count")
    for name in ("assembler.plan_plane", "assembler.assignment_min_cost",
                 "kernels.segment_point_distances", "physics.mt_pass_loss",
                 "simulator.summarize", "kernels.render_spots",
                 "geometry.decompose_planes", "geometry.validate_mt_safety"):
        put(f"{name}.busy_s", float(tracer.durations_s(name).sum()), "s")
    for name in ("assembler.plan_plane", "simulator.run_shot",
                 "simulator.synthesize_fluorescence_stack", "simulator.detect_occupancy",
                 "kernels.trap_fields", "kernels.back_field", "kernels.intensity_slices"):
        put(f"{name}.ms_p50", pct_ms(name, 50), "ms")
    for name in ("assembler.plan_plane", "simulator.detect_occupancy"):
        put(f"{name}.ms_p99", pct_ms(name, 99), "ms")

    plans = tracer.spans_named("assembler.plan_plane")
    tags = [tracer.tags[s] for s in plans if s in tracer.tags]
    cold, seen = 0.0, set()
    for span in plans:
        tag = tracer.tags.get(span)
        if tag is not None and tag[0] not in seen:
            seen.add(tag[0])
            cold += (tracer.end[span] - tracer.start[span]) * 1e-6
    put("assembler.plan_plane.cold_ms", cold, "ms")
    put("assembler.schedule.self_s", tracer.self_s("assembler.plan_plane"), "s")
    put("assembler.moves_per_plan",
        float(np.mean([t[1] for t in tags])) if tags else 0.0, "count")
    put("assembler.detour_moves", sum(t[2] for t in tags), "count")
    put("assembler.corridor_moves", sum(t[3] for t in tags), "count")
    put("simulator.run_shot.self_s", tracer.self_s("simulator.run_shot"), "s")
    put("hologram.wgs_iterations",
        float(np.mean(wgs_iterations)) if len(wgs_iterations) else 0.0, "count")
    return out
