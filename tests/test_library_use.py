"""The README's "Library use" block runs as written on a committed fixture,
the package root exports exactly the names it imports, and a graph a
library caller builds is checked when it is made."""

import re
from pathlib import Path

import pytest

import monopart
from conftest import FIXTURES_DIR
from monopart.graphbuild import build_graph
from monopart.ingest import InfraManifest
from monopart.metrics import GroundTruth
from monopart.model import (
    ApplicationGraph,
    ClassEdges,
    ClassNode,
    DependencyRecord,
    Dependencies,
    FunctionalFlow,
    InputError,
    Relation,
    ResourceEdge,
    ResourceKind,
    ResourceNode,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_block_runs_on_jpetstore(monkeypatch):
    monkeypatch.chdir(FIXTURES_DIR / "jpetstore")
    scope: dict = {}
    exec(compile(_library_block(), str(README), "exec"), scope)
    partition, report, infra = scope["partition"], scope["report"], scope["infra"]
    assert partition.k == 3
    assert len(partition.assignment) == len(scope["graph"].classes) > 0
    assert list(report.cluster_sizes) == partition.sizes()
    assert 0 < report.ngm <= 1
    assert infra.total_cost == report.infra_cost
    factors = scope["factors"]
    assert len(factors) == partition.k
    assert sum(factors[1:], factors[0]) == infra.total == report.infra_total


def test_package_root_exports_the_readme_names():
    imported = re.search(r"from monopart import \((.*?)\)", _library_block(), re.S).group(1)
    assert sorted(monopart.__all__) == sorted(n.strip() for n in imported.split(",") if n.strip())
    assert all(hasattr(monopart, name) for name in monopart.__all__)


TWO_CLASSES = (ClassNode(0, "A"), ClassNode(1, "B"))
CALL_A_B = Dependencies((0,), (1,), (Relation.CALL,))


@pytest.mark.parametrize(
    "parts,problem",
    [
        (
            {"class_edges": ClassEdges((0,), (2,), (1,))},
            "class edge (0, 2) references a missing class id",
        ),
        (
            {
                "resources": (ResourceNode(0, "db", ResourceKind.DATABASE),),
                "resource_edges": (ResourceEdge(1, 0),),
            },
            "resource edge references missing resource id 1",
        ),
        (
            {"classes": (ClassNode(0, "A"), ClassNode(1, "B", weight=0))},
            "class 'B' has weight 0 < 1",
        ),
        (
            {"dependencies": Dependencies((0,), (2,), (Relation.CALL,))},
            "dependency 0 references missing class id 2",
        ),
        ({"classes": (ClassNode(0, "A"), ClassNode(1.0, "B"))}, "class at index 1 has non-integer id 1.0"),
        ({"classes": (ClassNode(False, "A"), ClassNode(1, "B"))}, "class at index 0 has non-integer id False"),
        (
            {"resources": (ResourceNode(0.0, "db", ResourceKind.DATABASE),)},
            "resource at index 0 has non-integer id 0.0",
        ),
        ({"class_edges": ClassEdges((0,), (1.0,), (1,))}, "class edge (0, 1.0) has a non-integer endpoint"),
        ({"class_edges": ClassEdges(("0",), (1,), (1,))}, "class edge ('0', 1) has a non-integer endpoint"),
        (
            {"class_edges": ClassEdges((False,), (True,), (1,))},
            "class edge (False, True) has a non-integer endpoint",
        ),
        (
            {
                "resources": (ResourceNode(0, "db", ResourceKind.DATABASE),),
                "resource_edges": (ResourceEdge(0, 1.0),),
            },
            "resource edge (0, 1.0) has a non-integer id",
        ),
        (
            {
                "resources": (ResourceNode(0, "db", ResourceKind.DATABASE),),
                "resource_edges": (ResourceEdge(True, 1),),
            },
            "resource edge (True, 1) has a non-integer id",
        ),
        (
            {"flows": (FunctionalFlow("F0", (0, 1.0, "B")),)},
            "flow 'F0' has non-integer class id 1.0; flow 'F0' has non-integer class id 'B'",
        ),
        ({"class_edges": ClassEdges((0,), (1,), (1.5,))}, "class edge (0, 1) has non-integer weight 1.5"),
        ({"class_edges": ClassEdges((0,), (1,), ("1",))}, "class edge (0, 1) has non-integer weight '1'"),
        ({"class_edges": ClassEdges((0,), (1,), (True,))}, "class edge (0, 1) has non-integer weight True"),
        ({"classes": (ClassNode(0, "A"), ClassNode(1, 5))}, "class 1 has non-string name 5"),
        (
            {"classes": (ClassNode(0, ["A"]), ClassNode(1, "B")), "dependencies": CALL_A_B},
            "class 0 has non-string name ['A']",
        ),
        (
            {"resources": (ResourceNode(0, 7, ResourceKind.DATABASE),)},
            "resource 0 has non-string name 7",
        ),
        ({"flows": (FunctionalFlow(["x"], (0, 1)),)}, "flow at index 0 has non-string id ['x']"),
        ({"flows": (FunctionalFlow(5, (0, 1)),)}, "flow at index 0 has non-string id 5"),
        ({"flows": (FunctionalFlow("f", ([0],)),)}, "flow 'f' has non-integer class id [0]"),
        (
            {"dependencies": Dependencies((["A"], 1.0), (True, "0"), (Relation.CALL,) * 2)},
            "dependency 0 has non-integer class id ['A']; dependency 0 has non-integer class id True; "
            "dependency 1 has non-integer class id 1.0; dependency 1 has non-integer class id '0'",
        ),
        (
            {"dependencies": Dependencies((0,), (1,), ("call",))},
            "dependency 0 has relation 'call', not a Relation",
        ),
        (
            {"resources": (ResourceNode(0, "db", "database"),)},
            "resource 0 has kind 'database', not a ResourceKind",
        ),
        ({"flows": (FunctionalFlow("f", 5),)}, "flow 'f' members must be a tuple, got int"),
        ({"flows": (FunctionalFlow("f", [0, 1]),)}, "flow 'f' members must be a tuple, got list"),
        ({"classes": None}, "classes must be a tuple, got NoneType"),
        ({"classes": list(TWO_CLASSES)}, "classes must be a tuple, got list"),
        (
            {"resources": [ResourceNode(0, "db", ResourceKind.DATABASE)], "dependencies": []},
            "resources must be a tuple, got list; dependencies must be a Dependencies, got list",
        ),
        ({"class_edges": None}, "class_edges must be a ClassEdges, got NoneType"),
        ({"flows": (5,)}, "flows must hold FunctionalFlow values, got int at index 0"),
        ({"classes": (ClassNode(0, "A"), 5)}, "classes must hold ClassNode values, got int at index 1"),
        (
            {"dependencies": (DependencyRecord("A", "B"),), "resource_edges": (ResourceEdge(0, 0), (0, 1))},
            "dependencies must be a Dependencies, got tuple",
        ),
        ({"resource_edges": (ResourceEdge(0, 0), (0, 1))}, "resource_edges must hold ResourceEdge values, got tuple at index 1"),
        (
            {"resources": (ClassNode(0, "A"),)},
            "resources must hold ResourceNode values, got ClassNode at index 0",
        ),
    ],
    ids=[
        "edge_past_last_class", "binding_to_missing_resource", "class_weight_zero", "unknown_dependency",
        "class_id_float", "class_id_bool", "resource_id_float", "edge_float", "edge_str", "edge_bools",
        "binding_class_float", "binding_resource_bool", "flow_members", "edge_weight_float",
        "edge_weight_str", "edge_weight_bool", "class_name_int", "class_name_list", "resource_name_int",
        "flow_id_list", "flow_id_int", "flow_member_list", "dependency_name_list", "relation_str",
        "resource_kind_str", "flow_members_int", "flow_members_list", "classes_none", "classes_list",
        "resources_and_dependencies_lists", "class_edges_none", "flow_int", "class_int",
        "binding_and_dependency_tuples", "binding_tuple", "resource_class_node",
    ],
)
def test_library_graph_is_checked_when_made(parts, problem):
    # unchecked, the first two failed inside partition_graph with an
    # IndexError, and the next two partitioned without a word; a float
    # endpoint or binding id failed there with a TypeError, and a float
    # class id or flow member went through; a list flow id, flow member or
    # dependency name failed with a TypeError while the graph was checked,
    # and an int flow id, a str relation or a str kind made a graph that
    # graph_to_doc or the partitioner could not use; an int for flow members
    # or None for the classes failed with a TypeError, and a list was taken;
    # an int flow or class, or a tuple dependency, failed with an AttributeError;
    # dependency records by name, in place of the id columns, are refused whole
    with pytest.raises(ValueError) as info:
        ApplicationGraph(**{"classes": TWO_CLASSES, **parts})
    assert str(info.value) == problem


@pytest.mark.parametrize(
    "columns,problem",
    [
        (([0], (1,), (1,)), "class edge column u must be a tuple, got list"),
        (((0,), None, [1]), "class edge column v must be a tuple, got NoneType; "
                            "class edge column weight must be a tuple, got list"),
    ],
    ids=["u_list", "v_none_weight_list"],
)
def test_class_edge_columns_are_tuples(columns, problem):
    # unchecked, a list was taken and None failed on len() with a TypeError
    with pytest.raises(ValueError) as info:
        ClassEdges(*columns)
    assert str(info.value) == problem


@pytest.mark.parametrize(
    "columns,problem",
    [
        (([0], (1,), (Relation.CALL,)), "dependency column source must be a tuple, got list"),
        (((0,), "B", None), "dependency column target must be a tuple, got str; "
                            "dependency column relation must be a tuple, got NoneType"),
        (((0, 1), (1,), (Relation.CALL,)), "dependency columns must have one length"),
    ],
    ids=["source_list", "target_str_relation_none", "unequal_lengths"],
)
def test_dependency_columns_are_equally_long_tuples(columns, problem):
    with pytest.raises(ValueError) as info:
        Dependencies(*columns)
    assert str(info.value) == problem


@pytest.mark.parametrize("scale", [1.5, True, "2"])
def test_class_edge_scale_is_an_int(scale):
    # every rational weight is Fraction(weight, scale), which refuses a
    # float scale deep inside partition_graph, and True would pass as 1
    with pytest.raises(ValueError, match="scale"):
        ClassEdges((0,), (1,), (1,), scale=scale)


@pytest.mark.parametrize(
    "make,problem",
    [
        (
            lambda: build_graph(
                [DependencyRecord("A", "B")],
                InfraManifest(resources=(("db", ResourceKind.DATABASE),), bindings=(("A", "nope"),)),
            ),
            "binding for class 'A' references undeclared resource 'nope'",
        ),
        (
            lambda: InfraManifest(resources=(("db", ResourceKind.DATABASE),), bindings=(("A", "db"),) * 2),
            "duplicate binding of class 'A' to resource 'db'",
        ),
        (
            lambda: InfraManifest(resources=(("db", "database"),)),
            "unknown resource kind 'database'",
        ),
        (
            lambda: InfraManifest(resources=(("db", ResourceKind.DATABASE),), bindings=(("A", ["db"]),)),
            "manifest resource must be a string, got ['db']",
        ),
        (
            lambda: InfraManifest(resources=(("db", ResourceKind.DATABASE),), bindings=((5, "db"),)),
            "manifest class must be a string, got 5",
        ),
        (
            lambda: InfraManifest(resources=((5, ResourceKind.DATABASE),)),
            "manifest name must be a string, got 5",
        ),
        (lambda: InfraManifest(resources=None), "manifest resources must be a tuple, got NoneType"),
        (
            lambda: InfraManifest(resources=(("db", ResourceKind.DATABASE),), bindings=[("A", "db")]),
            "manifest bindings must be a tuple, got list",
        ),
        (lambda: InfraManifest(bindings=(("A",),)), "manifest bindings entry ('A',) is not a pair"),
        (
            lambda: InfraManifest(resources=(("db", ResourceKind.DATABASE, "x"),)),
            "manifest resources entry ('db', <ResourceKind.DATABASE: 'database'>, 'x') is not a pair",
        ),
        (lambda: InfraManifest(resources=("db",)), "manifest resources entry 'db' is not a pair"),
        (lambda: GroundTruth({1: "a"}), "ground truth class must be a string, got 1"),
        (lambda: GroundTruth({"A": ["a"]}), "ground truth label must be a string, got ['a']"),
        (lambda: GroundTruth([("A", "a")]), "ground truth must be a non-empty mapping"),
    ],
    ids=[
        "undeclared_binding", "binding_twice", "kind_str", "binding_resource_list", "binding_class_int",
        "resource_name_int", "resources_none", "bindings_list", "binding_single", "resource_triple",
        "resource_str", "truth_class_int", "truth_label_list", "truth_list",
    ],
)
def test_library_inputs_are_checked_when_made(make, problem):
    # unchecked, build_graph failed on the undeclared resource with a
    # KeyError, a list of pairs as ground truth failed with an
    # AttributeError, a list resource name or None resources with a
    # TypeError, an entry that is not a pair with a ValueError, and the rest
    # were accepted
    with pytest.raises(InputError) as info:
        make()
    assert str(info.value) == problem
