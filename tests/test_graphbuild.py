"""Graph assembly and edge-weight composition."""

import logging
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestWeightComposition:
    def test_single_call_edge(self):
        g = build_graph([dep("A", "B")])
        (e,) = g.class_edges
        assert (e.weight, e.relation_base, e.shared_resource_count, e.flow_cooccurrence) == (
            Fraction(1),
            Fraction(1),
            0,
            0,
        )

    def test_shared_resource_increments_weight(self):
        manifest = parse_infra_yaml(
            """
            resources:
              - {name: db1, kind: database}
            bindings:
              - {class: A, resource: db1}
              - {class: B, resource: db1}
            """
        )
        g = build_graph([dep("A", "B")], manifest)
        (e,) = g.class_edges
        assert e.weight == 2
        assert e.shared_resource_count == 1

    def test_bidirectional_deps_and_flow(self):
        flows = [FlowRecord("F0", ("A", "B"))]
        g = build_graph(
            [dep("A", "B"), dep("B", "A", Relation.REFERENCE)], InfraManifest(), flows
        )
        (e,) = g.class_edges
        assert e.weight == 3  # 1 call + 1 reference + 1 flow co-occurrence
        assert e.relation_base == 2
        assert e.flow_cooccurrence == 1

    def test_inheritance_base_weight(self):
        g = build_graph([dep("A", "B", Relation.INHERITANCE)])
        assert g.class_edges[0].weight == 3

    def test_duplicate_records_sum(self):
        g = build_graph([dep("A", "B"), dep("A", "B")])
        assert g.class_edges[0].relation_base == 2

    def test_custom_config(self):
        cfg = WeightConfig(base_call=Fraction(2), beta_flow=Fraction(1, 2))
        g = build_graph(
            [dep("A", "B")], InfraManifest(), [FlowRecord("F0", ("A", "B"))], cfg
        )
        assert g.class_edges[0].weight == Fraction(5, 2)
        assert g.beta == Fraction(1, 2)

    def test_negative_config_rejected(self):
        with pytest.raises(InputError):
            WeightConfig(base_call=Fraction(-1))

    def test_shared_resource_only_pair_gets_edge(self):
        manifest = parse_infra_yaml(
            """
            resources:
              - {name: db1, kind: database}
            bindings:
              - {class: B, resource: db1}
              - {class: C, resource: db1}
            """
        )
        g = build_graph([dep("A", "B"), dep("A", "C")], manifest)
        ids = g.id_by_name()
        pair = tuple(sorted((ids["B"], ids["C"])))
        edge = next(e for e in g.class_edges if (e.u, e.v) == pair)
        assert edge.relation_base == 0
        assert edge.weight == 1

    def test_flow_only_pair_gets_edge(self):
        g = build_graph(
            [dep("A", "B")], InfraManifest(), [FlowRecord("F0", ("A", "C"))]
        )
        ids = g.id_by_name()
        pair = tuple(sorted((ids["A"], ids["C"])))
        edge = next(e for e in g.class_edges if (e.u, e.v) == pair)
        assert edge.flow_cooccurrence == 1
        assert edge.relation_base == 0


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
    g = build_graph([DependencyRecord(u, v, r) for u, v, r in deps], manifest, flows)
    assert validate_graph(g) == []
    # recomposition spot check
    for e in g.class_edges:
        assert e.weight == e.relation_base + e.shared_resource_count + e.flow_cooccurrence


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
