"""Span recorder for the traced run.

The recorder wraps the program's public functions from outside: each one is
replaced under every module-level name a caller looks it up by (for
example ``partitioner.adjacency`` as well as ``model.adjacency``), and every
name is put back by :meth:`Recorder.restore`. A span holds its name, start,
end, parent span and pass id; spans stay in memory until the run writes
them out once at the end.

Everything runs in one thread, so child spans never overlap and a span's
self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# (module, function): the span is named "<module>.<function>".
TRACED = (
    ("ingest", "parse_dependency_xml"),
    ("ingest", "parse_infra_yaml"),
    ("ingest", "parse_traces"),
    ("ingest", "group_flows"),
    ("graphbuild", "build_graph"),
    ("model", "graph_to_doc"),
    ("model", "graph_from_doc"),
    ("model", "validate_graph"),
    ("model", "adjacency"),
    ("partitioner", "partition_graph"),
    ("partitioner", "coarsen"),
    ("partitioner", "initial_partition"),
    ("partitioner", "refine"),
    ("partitioner", "objective"),
    ("infra", "duplication_cost"),
    ("infra", "build_infra_report"),
    ("metrics", "evaluate"),
    ("metrics", "compute_f1"),
    ("metrics", "compute_ngm"),
    ("metrics", "compute_ifn"),
    ("metrics", "edge_cut"),
)

# What a span keeps of its call for the counts. Each note is O(1) to take;
# anything costlier is worked out from the notes after the pass.
NOTES = {
    "ingest.parse_dependency_xml": lambda args, result: len(result),
    "ingest.parse_infra_yaml": lambda args, result: len(result.bindings),
    "ingest.parse_traces": lambda args, result: len(result.records) + result.skipped,
    "graphbuild.build_graph": lambda args, result: len(result.class_edges),
    "partitioner.coarsen": lambda args, result: (
        len(result), len(result[-1].graph.classes) if result else len(args[0].classes)
    ),
    "partitioner.refine": lambda args, result: (args[1].assignment, result.assignment),
    "partitioner.objective": lambda args, result: result,
}

# Per-layer metric -> the end-to-end metric it should move and on which
# workload, or for a count what it counts. Per-pass sums over all monoliths.
LAYER_METRICS = {
    "ingest.parse_traces_s": "ingest_s on traced-infra",
    "ingest.parse_infra_yaml_s": "ingest_s on traced-infra",
    "ingest.group_flows_s": "ingest_s on traced-infra",
    "ingest.parse_dependency_xml_s": "ingest_s on traced-infra",
    "ingest.trace_lines": "trace lines parse_traces read",
    "ingest.bindings": "manifest bindings parsed",
    "ingest.dependency_records": "dependency records parsed",
    "graphbuild.build_graph_s": "ingest_s on traced-infra",
    "graphbuild.class_edges": "class edges built",
    "model.graph_to_doc_s": "ingest_s",
    "model.graph_from_doc_s": "partition_s and evaluate_s on traced-infra",
    "model.validate_graph_s": "partition_s and evaluate_s on traced-infra",
    "model.adjacency_s": "partition_s on planted-cut",
    "model.adjacency_calls": "partition_s on planted-cut",
    "model.graph_json_bytes": "size of graph.json, which every command reloads",
    "partitioner.partition_graph_s": "partition_s on planted-cut and traced-infra",
    "partitioner.coarsen_s": "partition_s on planted-cut and traced-infra",
    "partitioner.initial_partition_s": "partition_s on planted-cut and traced-infra",
    "partitioner.refine_s": "partition_s on planted-cut, partition_s and objective on traced-infra",
    "partitioner.objective_s": "partition_s on planted-cut and traced-infra",
    "partitioner.partition_graph.self_s": "partition_s on planted-cut and traced-infra",
    "partitioner.levels": "coarsening levels built, all restarts",
    "partitioner.coarsest_vertices": "vertices on the coarsest levels, all restarts",
    "partitioner.refine_calls": "refine calls",
    "partitioner.refine_moved_vertices": "vertices whose part refine changed",
    "partitioner.refine_changed_ratio": "ratio of refine calls that changed the assignment",
    "partitioner.restarts_at_best": "ratio of restarts that reached the winning objective",
    "infra.duplication_cost_s": "partition_s on traced-infra",
    "infra.build_infra_report_s": "partition_s and evaluate_s on traced-infra",
    "infra.duplicated_resources": "resources whose clients span partitions",
    "metrics.evaluate_s": "evaluate_s on traced-infra and planted-cut",
    "metrics.compute_f1_s": "evaluate_s on traced-infra and planted-cut",
    "metrics.compute_ngm_s": "evaluate_s on traced-infra and planted-cut",
    "metrics.compute_ifn_s": "evaluate_s on traced-infra and planted-cut",
    "metrics.edge_cut_s": "evaluate_s on traced-infra and planted-cut",
    "metrics.f1_pairs": "class pairs compute_f1 compares",
    "cli.ingest.self_s": "ingest_s on real-apps",
    "cli.partition.self_s": "partition_s on real-apps",
    "cli.evaluate.self_s": "evaluate_s on real-apps",
    "trace_overhead_s": "traced pipeline_s minus untraced pipeline_s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 at the top
    pass_id: int
    note: object = None


class Recorder:
    """Collects spans from wrapped functions and from :meth:`call`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, note=None, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if note is not None:
            span.note = note(args, result)
        return result

    def _wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, note=note, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every traced function under every name it is bound to
        in the loaded ``monopart`` modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "monopart" or n.startswith("monopart."))]
        for module_name, func_name in TRACED:
            original = getattr(importlib.import_module(f"monopart.{module_name}"), func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer times and span counts of one pass (artifact counts and
        the tracing overhead are added by the caller)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.pass_id == pass_id]
        total: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        notes: dict[str, list] = defaultdict(list)
        for i, s in spans:
            total[s.name] += s.end - s.start
            child_time[s.parent] += s.end - s.start
            if s.note is not None:
                notes[s.name].append(s.note)
        self_time: dict[str, float] = defaultdict(float)
        for i, s in spans:
            self_time[s.name] += (s.end - s.start) - child_time[i]

        out = {f"{module}.{func}_s": total[f"{module}.{func}"] for module, func in TRACED}
        out["partitioner.partition_graph.self_s"] = self_time["partitioner.partition_graph"]
        for command in ("ingest", "partition", "evaluate"):
            out[f"cli.{command}.self_s"] = self_time[f"cli.{command}"]
        out["ingest.trace_lines"] = sum(notes["ingest.parse_traces"])
        out["ingest.bindings"] = sum(notes["ingest.parse_infra_yaml"])
        out["ingest.dependency_records"] = sum(notes["ingest.parse_dependency_xml"])
        out["graphbuild.class_edges"] = sum(notes["graphbuild.build_graph"])
        out["model.adjacency_calls"] = sum(1 for _, s in spans if s.name == "model.adjacency")
        out["partitioner.levels"] = sum(levels for levels, _ in notes["partitioner.coarsen"])
        out["partitioner.coarsest_vertices"] = sum(n for _, n in notes["partitioner.coarsen"])

        moved = [sum(a != b for a, b in zip(before, after))
                 for before, after in notes["partitioner.refine"]]
        out["partitioner.refine_calls"] = len(moved)
        out["partitioner.refine_moved_vertices"] = sum(moved)
        out["partitioner.refine_changed"] = sum(1 for m in moved if m)

        # Objectives computed directly under partition_graph are the restarts.
        restarts: dict[int, list] = defaultdict(list)
        for i, s in spans:
            if s.name == "partitioner.objective" and s.parent >= 0 \
                    and self.spans[s.parent].name == "partitioner.partition_graph":
                restarts[s.parent].append(s.note)
        out["partitioner.restarts"] = sum(len(objs) for objs in restarts.values())
        out["partitioner.restarts_best"] = sum(
            sum(1 for o in objs if o == min(objs)) for objs in restarts.values()
        )
        # Ratios keep their bases above, so the report can print both.
        out["partitioner.refine_changed_ratio"] = (
            out["partitioner.refine_changed"] / out["partitioner.refine_calls"]
            if out["partitioner.refine_calls"] else 0.0
        )
        out["partitioner.restarts_at_best"] = (
            out["partitioner.restarts_best"] / out["partitioner.restarts"]
            if out["partitioner.restarts"] else 0.0
        )
        return out

    def write(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        doc = [
            {"name": s.name, "start": s.start - origin, "end": s.end - origin,
             "parent": s.parent, "pass": s.pass_id}
            for s in self.spans
        ]
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
