"""Graph assembly and edge-weight composition."""

import logging
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_weights
from oracles import check_dot

from monopart.graphbuild import WeightConfig, build_graph, to_dot
from monopart.ingest import (
    DependencyRecord,
    FlowRecord,
    InfraManifest,
    Relation,
    parse_infra_yaml,
)
from monopart.model import InputError, ResourceKind, validate_graph


def dep(u: str, v: str, relation: Relation = Relation.CALL) -> DependencyRecord:
    return DependencyRecord(u, v, relation)


# Each term of an edge weight shows in its own decimal place: bases in the
# units, 10 per shared resource and 100 per common flow.
VISIBLE = WeightConfig(shared_resource_increment=Fraction(10), beta_flow=Fraction(100))


def db1(*classes: str) -> InfraManifest:
    """A manifest with one database, bound to ``classes``."""
    return InfraManifest(
        resources=(("db1", ResourceKind.DATABASE),), bindings=tuple((c, "db1") for c in classes)
    )


class TestWeightComposition:
    def test_single_call_edge(self):
        assert edge_weights(build_graph([dep("A", "B")], cfg=VISIBLE)) == {(0, 1): 1}

    def test_shared_resource_increments_weight(self):
        manifest = db1("A", "B")
        assert edge_weights(build_graph([dep("A", "B")], manifest)) == {(0, 1): 2}
        g = build_graph([dep("A", "B")], manifest, cfg=VISIBLE)
        assert edge_weights(g) == {(0, 1): 11}  # 1 call + 1 shared resource

    def test_bidirectional_deps_and_flow(self):
        deps = [dep("A", "B"), dep("B", "A", Relation.REFERENCE)]
        flows = [FlowRecord("F0", ("A", "B"))]
        assert edge_weights(build_graph(deps, InfraManifest(), flows)) == {(0, 1): 3}
        g = build_graph(deps, InfraManifest(), flows, VISIBLE)
        assert edge_weights(g) == {(0, 1): 102}  # 1 call + 1 reference + 1 flow co-occurrence

    def test_one_of_each_term(self):
        manifest = db1("A", "B")
        flows = [FlowRecord("F0", ("A", "B"))]
        assert edge_weights(build_graph([dep("A", "B")], manifest, flows, VISIBLE)) == {(0, 1): 111}

    def test_inheritance_base_weight(self):
        g = build_graph([dep("A", "B", Relation.INHERITANCE)])
        assert edge_weights(g) == {(0, 1): 3}

    def test_duplicate_records_sum(self):
        g = build_graph([dep("A", "B"), dep("A", "B")], cfg=VISIBLE)
        assert edge_weights(g) == {(0, 1): 2}

    def test_custom_config(self):
        cfg = WeightConfig(base_call=Fraction(2), beta_flow=Fraction(1, 2))
        g = build_graph(
            [dep("A", "B")], InfraManifest(), [FlowRecord("F0", ("A", "B"))], cfg
        )
        assert edge_weights(g) == {(0, 1): Fraction(5, 2)}
        assert (g.class_edges.weight, g.class_edges.scale) == ((5,), 2)

    def test_negative_config_rejected(self):
        with pytest.raises(InputError):
            WeightConfig(base_call=Fraction(-1))

    def test_shared_resource_only_pair_gets_edge(self):
        manifest = db1("B", "C")
        g = build_graph([dep("A", "B"), dep("A", "C")], manifest, cfg=VISIBLE)
        ids = g.id_by_name()
        pair = tuple(sorted((ids["B"], ids["C"])))
        assert edge_weights(g)[pair] == 10  # no dependency, 1 shared resource

    def test_flow_only_pair_gets_edge(self):
        g = build_graph(
            [dep("A", "B")], InfraManifest(), [FlowRecord("F0", ("A", "C"))], VISIBLE
        )
        ids = g.id_by_name()
        pair = tuple(sorted((ids["A"], ids["C"])))
        assert edge_weights(g)[pair] == 100  # no dependency, 1 common flow


class TestBuildGraph:
    def test_empty_dependency_list(self):
        with pytest.raises(InputError, match="empty graph"):
            build_graph([])

    def test_id_assignment_first_seen_order(self):
        g = build_graph([dep("B", "A"), dep("A", "C")])
        assert g.names() == ["B", "A", "C"]

    def test_manifest_only_class_becomes_isolated_node(self, caplog):
        manifest = parse_infra_yaml(
            """
            resources:
              - {name: db1, kind: database}
            bindings:
              - {class: Z, resource: db1}
            """
        )
        with caplog.at_level(logging.WARNING):
            g = build_graph([dep("A", "B")], manifest)
        assert "Z" in g.names()
        assert any("Z" in r.message for r in caplog.records)

    def test_flow_only_class_becomes_isolated_node(self, caplog):
        with caplog.at_level(logging.WARNING):
            g = build_graph([dep("A", "B")], InfraManifest(), [FlowRecord("F0", ("Q",))])
        assert "Q" in g.names()

    def test_class_count_is_distinct_names(self):
        g = build_graph([dep("A", "B"), dep("B", "C"), dep("A", "C")])
        assert len(g.classes) == 3

    def test_determinism(self):
        deps = [dep("A", "B"), dep("C", "A"), dep("B", "C", Relation.REFERENCE)]
        manifest = parse_infra_yaml(
            "resources:\n  - {name: db1, kind: database}\nbindings:\n  - {class: C, resource: db1}\n"
        )
        flows = [FlowRecord("F0", ("A", "C"))]
        assert build_graph(deps, manifest, flows) == build_graph(deps, manifest, flows)

    def test_built_graphs_validate(self):
        manifest = parse_infra_yaml(
            """
            resources:
              - {name: db1, kind: database}
              - {name: s3a, kind: s3}
            bindings:
              - {class: A, resource: db1}
              - {class: B, resource: db1}
              - {class: B, resource: s3a}
            """
        )
        flows = [FlowRecord("F0", ("A", "B", "C")), FlowRecord("F1", ("C", "A"))]
        g = build_graph([dep("A", "B"), dep("B", "C")], manifest, flows)
        assert validate_graph(g) == []


names_st = st.sampled_from(["A", "B", "C", "D", "E", "F"])


@settings(max_examples=50)
@given(
    deps=st.lists(
        st.tuples(names_st, names_st, st.sampled_from(list(Relation))).filter(
            lambda t: t[0] != t[1]
        ),
        min_size=1,
        max_size=12,
    ),
    bindings=st.lists(st.tuples(names_st, st.sampled_from(["db1", "s3a"])), max_size=6),
    flow_sets=st.lists(
        st.lists(names_st, min_size=1, max_size=4, unique=True), max_size=3
    ),
)
def test_random_inputs_build_valid_graphs(deps, bindings, flow_sets):
    manifest = InfraManifest(
        resources=(
            ("db1", ResourceKind.DATABASE),
            ("s3a", ResourceKind.FILE_STORAGE),
        ),
        bindings=tuple(set(bindings)),
    )
    flows = [FlowRecord(f"F{i}", tuple(m)) for i, m in enumerate(flow_sets)]
    cfg = WeightConfig(
        base_call=Fraction(1, 3),
        base_reference=Fraction(1, 2),
        shared_resource_increment=Fraction(10),
        beta_flow=Fraction(100, 7),
    )
    g = build_graph([DependencyRecord(u, v, r) for u, v, r in deps], manifest, flows, cfg)
    assert validate_graph(g) == []
    # every weight composed term by term from the inputs
    ids = g.id_by_name()
    expected: dict[tuple[int, int], Fraction] = {}

    def add(a: str, b: str, amount: Fraction) -> None:
        pair = tuple(sorted((ids[a], ids[b])))
        expected[pair] = expected.get(pair, Fraction(0)) + amount

    for u, v, r in deps:
        add(u, v, cfg.base_weight(r))
    for res in ("db1", "s3a"):
        clients = sorted({c for c, bound in set(bindings) if bound == res})
        for i, a in enumerate(clients):
            for b in clients[i + 1 :]:
                add(a, b, cfg.shared_resource_increment)
    for members in flow_sets:
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                add(a, b, cfg.beta_flow)
    assert edge_weights(g) == expected


class TestToDot:
    def graph(self):
        manifest = parse_infra_yaml(
            "resources:\n  - {name: db1, kind: database}\nbindings:\n  - {class: A, resource: db1}\n"
        )
        return build_graph([dep("A", "B")], manifest)

    def test_statement_counts(self):
        g = build_graph([dep("A", "B")])
        text = to_dot(g)
        assert text.count("shape=ellipse") == 2
        assert text.count(" -- ") == 1

    def test_resources_are_boxes(self):
        assert "shape=box" in to_dot(self.graph())

    def test_partition_coloring(self):
        g = self.graph()
        text = to_dot(g, (0, 1))
        assert text.count("fillcolor=") == 2

    def test_no_coloring_without_assignment(self):
        assert "fillcolor" not in to_dot(self.graph())

    def test_labels_escaped(self):
        g = build_graph([dep('A"x', "B")])
        text = to_dot(g)
        assert '\\"' in text
        check_dot(text)

    def test_parses_under_grammar_checker(self):
        check_dot(to_dot(self.graph(), (0, 0)))

    def test_edge_labels_are_exact_weights(self):
        g = build_graph([dep("A", "B", Relation.INHERITANCE)])
        assert 'label="3"' in to_dot(g)
