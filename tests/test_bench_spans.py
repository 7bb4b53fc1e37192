"""The benchmark's span recorder still fits the program.

``bench/spans.py`` wraps every ``(module, function)`` in its ``TRACED``
table by name, and its ``NOTES`` read the arguments and results of some of
those calls. Renaming a traced function, or changing the shape of a call a
note reads, breaks a traced benchmark run (``bench/run.py --trace 1``). Both
tables are read from the source with ``ast`` rather than imported, so these
tests leave ``bench/`` untouched.
"""

import ast
import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURES_DIR, graph_from_edges

from monopart import graphbuild, ingest, partitioner
from monopart.graphbuild import build_graph
from monopart.ingest import parse_dependency_xml, parse_infra_yaml
from monopart.model import PriceTable

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def spans_table(name: str) -> ast.expr:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"no {name} table in {SPANS}")


TRACED = list(ast.literal_eval(spans_table("TRACED")))
NOTES = eval(compile(ast.Expression(spans_table("NOTES")), str(SPANS), "eval"), {})


@pytest.mark.parametrize("module,function", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_exists(module, function):
    target = getattr(importlib.import_module(f"monopart.{module}"), function, None)
    assert callable(target), f"bench/spans.py traces monopart.{module}.{function}, which is gone"


def jpetstore():
    src = FIXTURES_DIR / "jpetstore"
    return build_graph(
        parse_dependency_xml((src / "deps.xml").read_text()),
        parse_infra_yaml((src / "manifest.yaml").read_text()),
    )


def trace_calls(monkeypatch) -> list[tuple[str, str | None, tuple, object]]:
    """Wrap every traced function under every name the loaded monopart
    modules bind it to, as the recorder does; return the list the wrappers
    fill with (name, innermost traced caller, args, result)."""
    calls: list[tuple[str, str | None, tuple, object]] = []
    stack: list[str] = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            calls.append((name, parent, args, result))
            return result

        return wrapper

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "monopart" or n.startswith("monopart."))]
    for module_name, func_name in TRACED:
        original = getattr(importlib.import_module(f"monopart.{module_name}"), func_name)
        wrapper = wrap(f"{module_name}.{func_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


@pytest.mark.parametrize(
    "graph,k",
    [(jpetstore(), 3), (graph_from_edges(6, {(0, 1): 1, (2, 3): 2, (4, 5): 1}), 2)],
    ids=["jpetstore", "too-small-to-coarsen"],
)
def test_notes_read_partition_graph_calls(monkeypatch, graph, k):
    calls = trace_calls(monkeypatch)
    cfg = partitioner.ObjectiveConfig(k=k, seed=42, restarts=3)
    partitioner.partition_graph(graph, PriceTable.default(), cfg)

    # every note must apply to its real call
    noted = [(name, args, NOTES[name](args, result))
             for name, _parent, args, result in calls if name in NOTES]
    coarsened = [note for name, _args, note in noted if name == "partitioner.coarsen"]
    assert len(coarsened) == cfg.restarts
    for levels, coarsest in coarsened:
        assert isinstance(levels, int) and 0 < coarsest <= len(graph.classes)
    refined = [(args[0], note) for name, args, note in noted if name == "partitioner.refine"]
    assert refined
    for level, (before, after) in refined:
        assert len(before) == len(after) == len(level.classes)
    restart_objectives = [
        result for name, parent, _args, result in calls
        if name == "partitioner.objective" and parent == "partitioner.partition_graph"
    ]
    assert len(restart_objectives) == cfg.restarts
    assert all(isinstance(o, Fraction) for o in restart_objectives)
    assert sum(1 for name, *_ in calls if name == "partitioner.objective") == cfg.restarts
    assert sum(1 for name, *_ in calls if name == "model.adjacency") == 1


def test_notes_read_ingest_calls(monkeypatch):
    """The ingest notes apply to the calls that ``monopart ingest`` makes on
    jpetstore with a tagged trace log."""
    calls = trace_calls(monkeypatch)
    src = FIXTURES_DIR / "jpetstore"
    deps = ingest.parse_dependency_xml((src / "deps.xml").read_text())
    manifest = ingest.parse_infra_yaml((src / "manifest.yaml").read_text())
    rules = ingest.load_flow_rules((FIXTURES_DIR.parent / "config" / "flow-rules.example.yaml").read_text())
    log = "[a] app.m0.C000\n[a] app.m0.C001\nnot a class line\n[b] app.m0.C002\napp.m0.C003\n"
    parsed = ingest.parse_traces(log, rules)
    g = graphbuild.build_graph(deps, manifest, ingest.group_flows(parsed.records))

    noted = [(name, NOTES[name](args, result)) for name, _parent, args, result in calls
             if name in NOTES]
    assert noted == [
        ("ingest.parse_dependency_xml", len(deps)),
        ("ingest.parse_infra_yaml", len(manifest.bindings)),
        ("ingest.parse_traces", 5),
        ("graphbuild.build_graph", len(g.class_edges)),
    ]
    assert len(manifest.bindings) > 0 and len(g.flows) == 3
