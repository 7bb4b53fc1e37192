"""Domain types, validation, and interchange round-trips."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import class_edge_problems_reference, report_from_json

from monopart.model import (
    ApplicationGraph,
    ClassEdge,
    ClassNode,
    EvaluationReport,
    FunctionalFlow,
    InfrastructureFactor,
    InputError,
    PartitionSet,
    PriceTable,
    ResourceEdge,
    ResourceKind,
    ResourceNode,
    as_fraction,
    factor_to_doc,
    fraction_str,
    graph_from_doc,
    graph_to_doc,
    partition_from_doc,
    partition_to_doc,
    report_to_doc,
    validate_graph,
    validate_partition,
)


class TestFractions:
    def test_decimal_string_is_exact(self):
        assert as_fraction("0.1") == Fraction(1, 10)

    def test_float_goes_through_repr(self):
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_ratio_string(self):
        assert as_fraction("1/3") == Fraction(1, 3)

    def test_bool_rejected(self):
        with pytest.raises(InputError):
            as_fraction(True)

    def test_terminating_decimal_rendering(self):
        assert fraction_str(Fraction(1, 2)) == "0.5"
        assert fraction_str(Fraction(7, 20)) == "0.35"
        assert fraction_str(Fraction(3)) == "3"

    def test_non_terminating_falls_back_to_ratio(self):
        assert fraction_str(Fraction(1, 3)) == "1/3"
        assert fraction_str(Fraction(-5, 14)) == "-5/14"

    @given(st.fractions())
    def test_round_trip_is_identity(self, x):
        assert as_fraction(fraction_str(x)) == x


def two_class_graph() -> ApplicationGraph:
    return ApplicationGraph(
        classes=(ClassNode(0, "A"), ClassNode(1, "B")),
        class_edges=(ClassEdge(0, 1, Fraction(1), relation_base=Fraction(1)),),
    )


def bound_graph() -> ApplicationGraph:
    return ApplicationGraph(
        classes=(ClassNode(0, "A"), ClassNode(1, "B")),
        resources=(ResourceNode(0, "db1", ResourceKind.DATABASE),),
        resource_edges=(ResourceEdge(0, 0), ResourceEdge(0, 1)),
        class_edges=(
            ClassEdge(0, 1, Fraction(2), relation_base=Fraction(1), shared_resource_count=1),
        ),
    )


class TestValidateGraph:
    def test_well_formed(self):
        assert validate_graph(bound_graph()) == []

    @pytest.mark.parametrize("u,v", [(1, 0), (1, 1)])
    def test_endpoints_must_be_ordered(self, u, v):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            class_edges=(ClassEdge(u, v, Fraction(1), relation_base=Fraction(1)),),
        )
        assert validate_graph(g) == [f"class edge ({u}, {v}) must satisfy u < v"]

    def test_non_dense_ids(self):
        g = ApplicationGraph(classes=(ClassNode(0, "A"), ClassNode(2, "B")))
        assert any("id" in p for p in validate_graph(g))

    def test_duplicate_names(self):
        g = ApplicationGraph(classes=(ClassNode(0, "A"), ClassNode(1, "A")))
        assert any("A" in p for p in validate_graph(g))

    def test_edge_reference_out_of_range(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"),),
            class_edges=(ClassEdge(0, 5, Fraction(1), relation_base=Fraction(1)),),
        )
        assert validate_graph(g)

    def test_parallel_edges(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            class_edges=(
                ClassEdge(0, 1, Fraction(1), relation_base=Fraction(1)),
                ClassEdge(0, 1, Fraction(2), relation_base=Fraction(2)),
            ),
        )
        assert any("parallel" in p for p in validate_graph(g))

    def test_weight_recomposition_mismatch(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            class_edges=(ClassEdge(0, 1, Fraction(5), relation_base=Fraction(1)),),
        )
        assert any("recomposed" in p for p in validate_graph(g))

    def test_duplicate_binding(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"),),
            resources=(ResourceNode(0, "db1", ResourceKind.DATABASE),),
            resource_edges=(ResourceEdge(0, 0), ResourceEdge(0, 0)),
        )
        assert any("resource edge" in p for p in validate_graph(g))

    def test_empty_flow(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"),),
            flows=(FunctionalFlow("F0", ()),),
        )
        assert any("flow" in p for p in validate_graph(g))

    def test_negative_component_reported_once(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            class_edges=(
                ClassEdge(0, 1, Fraction(-1), relation_base=Fraction(-1), shared_resource_count=-1),
            ),
        )
        assert validate_graph(g) == [
            "class edge (0, 1) has a negative component",
            "class edge (0, 1) weight -1 != recomposed -2",
        ]

    def test_blank_resource_name(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"),),
            resources=(ResourceNode(0, "", ResourceKind.DATABASE),),
        )
        assert validate_graph(g) == ["resource 0 has an empty name"]

    @pytest.mark.parametrize(
        "ids,problem",
        [(("F0", ""), "flow at index 1 has an empty id"), (("F0", "F0"), "duplicate flow id 'F0'")],
        ids=["blank", "repeated"],
    )
    def test_flow_ids_not_blank_and_unique(self, ids, problem):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"),),
            flows=tuple(FunctionalFlow(flow_id, (0,)) for flow_id in ids),
        )
        assert validate_graph(g) == [problem]

    def test_violation_names_offender(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            class_edges=(ClassEdge(0, 1, Fraction(-1), relation_base=Fraction(-1)),),
        )
        problems = validate_graph(g)
        assert problems and any("(0, 1)" in p for p in problems)


@st.composite
def recomposition_graphs(draw) -> ApplicationGraph:
    """Graphs with fractional beta, increment and bases whose class edges may
    carry perturbed weights, negative components, repeated pairs or ids past
    the last class."""
    rationals = st.fractions(min_value=-2, max_value=5, max_denominator=12)
    n = draw(st.integers(2, 6))
    beta, increment = draw(rationals), draw(rationals)
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(u + 1, n))
        base = draw(rationals)
        shared, flow = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
        weight = base + increment * shared + beta * flow
        if draw(st.booleans()):
            weight += draw(rationals)
        edges.append(ClassEdge(u, v, weight, base, shared, flow))
        if draw(st.integers(0, 4)) == 0:
            edges.append(edges[-1])
    return ApplicationGraph(
        classes=tuple(ClassNode(i, f"N{i}") for i in range(n)),
        class_edges=tuple(edges),
        beta=beta,
        resource_increment=increment,
    )


class TestRecompositionOracle:
    @settings(max_examples=300)
    @given(recomposition_graphs())
    def test_problems_match_fraction_recomposition(self, g):
        assert validate_graph(g) == class_edge_problems_reference(g)


class TestValidatePartition:
    def test_valid(self):
        assert validate_partition(two_class_graph(), PartitionSet(2, (0, 1))) == []

    def test_wrong_length(self):
        assert validate_partition(two_class_graph(), PartitionSet(2, (0,)))

    def test_out_of_range(self):
        assert validate_partition(two_class_graph(), PartitionSet(2, (0, 5)))

    def test_empty_partition_reported(self):
        problems = validate_partition(two_class_graph(), PartitionSet(2, (0, 0)))
        assert any("empty" in p for p in problems)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
    def test_sizes_count_each_partition_in_index_order(self, raw):
        remap = {lbl: i for i, lbl in enumerate(sorted(set(raw)))}
        p = PartitionSet(len(remap), tuple(remap[a] for a in raw))
        sizes = p.sizes()
        assert sum(sizes) == len(raw)
        assert sizes == [sum(1 for a in p.assignment if a == i) for i in range(p.k)]


class TestInfrastructureFactor:
    def test_add_is_componentwise(self):
        a = InfrastructureFactor(1, 2, 0, 1)
        b = InfrastructureFactor(0, 1, 3, 0)
        assert a + b == InfrastructureFactor(1, 3, 3, 1)

    def test_doc_round_trip(self):
        f = InfrastructureFactor(3, 1, 4, 1)
        assert InfrastructureFactor(**json.loads(json.dumps(factor_to_doc(f)))) == f


class TestPriceTable:
    def test_unit_cost_by_kind(self):
        prices = PriceTable.default()
        assert prices.unit_cost(ResourceKind.DATABASE) == 2
        assert prices.unit_cost(ResourceKind.CACHE) == Fraction(1, 2)


names = st.lists(
    st.text(alphabet="abcdefgh.", min_size=1, max_size=8),
    min_size=1,
    max_size=8,
    unique=True,
)


@st.composite
def small_graphs(draw) -> ApplicationGraph:
    class_names = draw(names)
    n = len(class_names)
    classes = tuple(ClassNode(i, name) for i, name in enumerate(class_names))
    kinds = list(ResourceKind)
    n_res = draw(st.integers(min_value=0, max_value=3))
    resources = tuple(
        ResourceNode(r, f"res{r}", kinds[r % len(kinds)]) for r in range(n_res)
    )
    bindings = set()
    if n_res:
        for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
            rid = draw(st.integers(min_value=0, max_value=n_res - 1))
            cid = draw(st.integers(min_value=0, max_value=n - 1))
            bindings.add((rid, cid))
    resource_edges = tuple(ResourceEdge(r, c) for r, c in sorted(bindings))
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda t: t[0] < t[1]),
            max_size=min(10, n * (n - 1) // 2),
        )
    )
    class_edges = []
    for u, v in sorted(pairs):
        base = draw(st.integers(min_value=0, max_value=4))
        shared = draw(st.integers(min_value=0, max_value=2))
        flow = draw(st.integers(min_value=0, max_value=2))
        class_edges.append(
            ClassEdge(
                u,
                v,
                Fraction(base + shared + flow),
                relation_base=Fraction(base),
                shared_resource_count=shared,
                flow_cooccurrence=flow,
            )
        )
    flows = tuple(
        FunctionalFlow(f"F{i}", tuple(sorted(draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
        ))))
        for i in range(draw(st.integers(min_value=0, max_value=2)))
    )
    return ApplicationGraph(
        classes=classes,
        resources=resources,
        flows=flows,
        resource_edges=resource_edges,
        class_edges=tuple(class_edges),
    )


class TestInterchange:
    @given(small_graphs())
    def test_graph_doc_round_trip(self, g):
        assert graph_from_doc(graph_to_doc(g)) == g

    def test_graph_doc_has_schema_version(self):
        assert graph_to_doc(two_class_graph())["schema_version"] == 1

    def test_unsupported_schema_version(self):
        doc = graph_to_doc(two_class_graph())
        doc["schema_version"] = 99
        with pytest.raises(InputError):
            graph_from_doc(doc)

    def test_partition_doc_round_trip(self):
        g = two_class_graph()
        p = PartitionSet(2, (1, 0))
        doc = partition_to_doc(p, g, objective=Fraction(1, 2), seed=7)
        assert doc["assignment"] == {"A": 1, "B": 0}
        assert doc["objective"] == "0.5"
        assert partition_from_doc(doc, g) == p

    def test_partition_doc_rejects_unknown_class(self):
        g = two_class_graph()
        doc = {"schema_version": 1, "k": 1, "assignment": {"A": 0, "Z": 0}}
        with pytest.raises(InputError):
            partition_from_doc(doc, g)

    def test_partition_doc_rejects_missing_class(self):
        g = two_class_graph()
        doc = {"schema_version": 1, "k": 1, "assignment": {"A": 0}}
        with pytest.raises(InputError):
            partition_from_doc(doc, g)

    def test_report_round_trip(self):
        r = EvaluationReport(
            ngm=Fraction(5, 14),
            ifn_total=3,
            ifn_mean=Fraction(3, 2),
            edge_cut=Fraction(4),
            infra_total=InfrastructureFactor(2, 0, 1, 1),
            infra_cost=Fraction(9, 2),
            cluster_sizes=(3, 3),
            f1=None,
        )
        assert report_from_json(json.dumps(report_to_doc(r))) == r

    @pytest.mark.parametrize("f1,f1_text", [(None, None), (Fraction(2, 3), "2/3")])
    def test_report_doc_fields(self, f1, f1_text):
        r = EvaluationReport(
            ngm=Fraction(5, 14),
            ifn_total=3,
            ifn_mean=Fraction(3, 2),
            edge_cut=Fraction(9, 4),
            infra_total=InfrastructureFactor(2, 0, 1, 1),
            infra_cost=Fraction(9, 2),
            cluster_sizes=(3, 2),
            f1=f1,
        )
        assert report_to_doc(r) == {
            "schema_version": 1,
            "f1": f1_text,
            "ngm": "5/14",
            "ifn_total": 3,
            "ifn_mean": "1.5",
            "edge_cut": "2.25",
            "infra_total": {"n_ec": 2, "n_s3": 0, "n_db": 1, "n_ca": 1},
            "infra_cost": "4.5",
            "cluster_sizes": [3, 2],
        }

    @pytest.mark.parametrize("value", [3.9, "2", True])
    def test_partition_doc_rejects_non_integer_k(self, value):
        g = two_class_graph()
        doc = {"schema_version": 1, "k": value, "assignment": {"A": 0, "B": 0}}
        with pytest.raises(InputError, match="must be an integer"):
            partition_from_doc(doc, g)
