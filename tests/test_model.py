"""Domain types, validation, and interchange round-trips."""

import copy
import json
import time
from dataclasses import astuple, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import calls

from oracles import (
    class_edge_row_problems,
    class_edge_rows_reference,
    graph_reader_error_reference,
    report_from_json,
)

from monopart.cli import GRAPH_FILE, PARTITION_FILE, main
from monopart.metrics import evaluate
from monopart.model import (
    ApplicationGraph,
    ClassEdges,
    ClassNode,
    Dependencies,
    EvaluationReport,
    FunctionalFlow,
    InfrastructureFactor,
    InputError,
    PartitionSet,
    PriceTable,
    Relation,
    ResourceEdge,
    ResourceKind,
    ResourceNode,
    as_fraction,
    check_partition,
    factor_to_doc,
    fraction_str,
    graph_from_doc,
    graph_to_doc,
    json_text,
    partition_from_doc,
    partition_to_doc,
    report_to_doc,
    validate_graph,
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
        class_edges=ClassEdges.from_rows([(0, 1, Fraction(1))]),
    )


def bound_graph() -> ApplicationGraph:
    return ApplicationGraph(
        classes=(ClassNode(0, "A"), ClassNode(1, "B")),
        resources=(ResourceNode(0, "db1", ResourceKind.DATABASE),),
        resource_edges=(ResourceEdge(0, 0), ResourceEdge(0, 1)),
        class_edges=ClassEdges.from_rows([(0, 1, Fraction(2))]),
    )


def construction_error(**parts) -> str:
    """The message of the ValueError that ``ApplicationGraph(**parts)`` raises."""
    with pytest.raises(ValueError) as info:
        ApplicationGraph(**parts)
    return str(info.value)


class TestValidateGraph:
    """An ApplicationGraph checks itself when it is made: every problem
    validate_graph finds is in the ValueError's message."""

    def test_well_formed(self):
        assert validate_graph(bound_graph()) == []

    def test_dependency_naming_an_unknown_class(self):
        with pytest.raises(ValueError) as info:
            replace(bound_graph(), dependencies=calls((0, 2), (2, 1), (1, 0), (-1, 1)))
        assert str(info.value) == (
            "dependency 0 references missing class id 2; dependency 1 references missing class id 2; "
            "dependency 3 references missing class id -1"
        )

    @pytest.mark.parametrize("u,v", [(1, 0), (1, 1)])
    def test_endpoints_must_be_ordered(self, u, v):
        assert construction_error(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            class_edges=ClassEdges.from_rows([(u, v, Fraction(1))]),
        ) == f"class edge ({u}, {v}) must satisfy u < v"

    def test_non_dense_ids(self):
        message = construction_error(classes=(ClassNode(0, "A"), ClassNode(2, "B")))
        assert message == "class ids not dense: index 1 holds id 2"

    def test_duplicate_names(self):
        message = construction_error(classes=(ClassNode(0, "A"), ClassNode(1, "A")))
        assert message == "duplicate class name 'A'"

    def test_edge_reference_out_of_range(self):
        assert construction_error(
            classes=(ClassNode(0, "A"),),
            class_edges=ClassEdges.from_rows([(0, 5, Fraction(1))]),
        ) == "class edge (0, 5) references a missing class id"

    def test_parallel_edges(self):
        assert construction_error(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            class_edges=ClassEdges.from_rows([(0, 1, Fraction(1)), (0, 1, Fraction(2))]),
        ) == "parallel class edge on pair (0, 1)"

    def test_duplicate_binding(self):
        assert construction_error(
            classes=(ClassNode(0, "A"),),
            resources=(ResourceNode(0, "db1", ResourceKind.DATABASE),),
            resource_edges=(ResourceEdge(0, 0), ResourceEdge(0, 0)),
        ) == "duplicate resource edge (0, 0)"

    def test_empty_flow(self):
        assert construction_error(
            classes=(ClassNode(0, "A"),),
            flows=(FunctionalFlow("F0", ()),),
        ) == "flow 'F0' has no members"

    def test_negative_weight_reported(self):
        assert construction_error(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            class_edges=ClassEdges.from_rows([(0, 1, Fraction(-1, 2))]),
        ) == "class edge (0, 1) has negative weight -1/2"

    def test_blank_resource_name(self):
        assert construction_error(
            classes=(ClassNode(0, "A"),),
            resources=(ResourceNode(0, "", ResourceKind.DATABASE),),
        ) == "resource 0 has an empty name"

    @pytest.mark.parametrize(
        "ids,problem",
        [(("F0", ""), "flow at index 1 has an empty id"), (("F0", "F0"), "duplicate flow id 'F0'")],
        ids=["blank", "repeated"],
    )
    def test_flow_ids_not_blank_and_unique(self, ids, problem):
        assert construction_error(
            classes=(ClassNode(0, "A"),),
            flows=tuple(FunctionalFlow(flow_id, (0,)) for flow_id in ids),
        ) == problem

    def test_violation_names_offender(self):
        message = construction_error(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            class_edges=ClassEdges.from_rows([(0, 1, Fraction(-1))]),
        )
        assert "(0, 1)" in message

    @pytest.mark.parametrize("weight", [Fraction(3, 2), 1.5, True, "1"], ids=repr)
    def test_class_weight_must_be_an_integer(self, weight):
        assert construction_error(
            classes=(ClassNode(0, "A", weight), ClassNode(1, "B", 0)),
        ) == f"class 'A' has non-integer weight {weight!r}; class 'B' has weight 0 < 1"


@st.composite
def class_edge_rows(draw) -> tuple[int, list[tuple[int, int, Fraction]]]:
    """A class count and class-edge rows that may carry fractional or
    negative weights, repeated pairs, reversed endpoints or ids past the
    last class."""
    rationals = st.fractions(min_value=-2, max_value=5, max_denominator=12)
    n = draw(st.integers(2, 6))
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(u + 1, n))
        if draw(st.integers(0, 4)) == 0:
            u, v = v, u
        edges.append((u, v, draw(rationals)))
        if draw(st.integers(0, 4)) == 0:
            edges.append(edges[-1])
    return n, edges


class TestClassEdgeOracle:
    @settings(max_examples=300)
    @given(class_edge_rows())
    def test_problems_match_reference(self, case):
        n, rows = case
        parts = dict(
            classes=tuple(ClassNode(i, f"N{i}") for i in range(n)),
            class_edges=ClassEdges.from_rows(rows),
        )
        expected = "; ".join(class_edge_row_problems(n, rows))
        if expected:
            assert construction_error(**parts) == expected
        else:
            assert ApplicationGraph(**parts).class_edges == parts["class_edges"]


class TestValidatePartition:
    """A PartitionSet checks itself when it is made; check_partition adds
    only the rule that needs the graph."""

    def test_valid(self):
        assert check_partition(two_class_graph(), PartitionSet(2, (0, 1))) is None

    def test_wrong_length(self):
        with pytest.raises(InputError) as info:
            check_partition(two_class_graph(), PartitionSet(1, (0,)))
        assert str(info.value) == "invalid partition: assignment covers 1 classes, graph has 2"

    def test_out_of_range(self):
        with pytest.raises(ValueError) as info:
            PartitionSet(2, (0, 5))
        assert str(info.value) == (
            "invalid partition: class 1 assigned to out-of-range partition 5; partition 1 is empty"
        )

    def test_empty_partition_reported(self):
        with pytest.raises(ValueError) as info:
            PartitionSet(2, (0, 0))
        assert str(info.value) == "invalid partition: partition 1 is empty"

    def test_k_below_one(self):
        with pytest.raises(ValueError) as info:
            PartitionSet(0, ())
        assert str(info.value) == "invalid partition: partition count k=0 must be >= 1"

    @pytest.mark.parametrize(
        "assignment,problem",
        [
            ((0.0, 1.0), "class 0 has non-integer partition 0.0; class 1 has non-integer partition 1.0"),
            ((0, True), "class 1 has non-integer partition True"),
            ((0, "1", 3), "class 1 has non-integer partition '1'; "
                          "class 2 assigned to out-of-range partition 3; partition 1 is empty"),
            (({}, 0), "class 0 has non-integer partition {}; partition 1 is empty"),
            (([0], 1), "class 0 has non-integer partition [0]; partition 0 is empty"),
            ([0, 1], "assignment must be a tuple, got list"),
            (None, "assignment must be a tuple, got NoneType"),
        ],
        ids=["floats", "bool", "str_and_out_of_range", "dict", "list", "assignment_list", "assignment_none"],
    )
    def test_indices_must_be_integers(self, assignment, problem):
        with pytest.raises(ValueError) as info:
            PartitionSet(2, assignment)
        assert str(info.value) == f"invalid partition: {problem}"

    @pytest.mark.parametrize("k", [True, 2.0, "2"], ids=repr)
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError) as info:
            PartitionSet(k, (0, 0))
        assert str(info.value) == f"invalid partition: partition count k={k!r} must be an integer"

    @pytest.mark.parametrize(
        "k, assignment, problem",
        [
            (0, {"A": 0, "B": 0}, "partition count k=0 must be >= 1"),
            (2, {"A": 0, "B": 5}, "class 1 assigned to out-of-range partition 5; partition 1 is empty"),
            (2, {"A": -1, "B": 0}, "class 0 assigned to out-of-range partition -1; partition 1 is empty"),
            (2, {"A": 1, "B": 1}, "partition 0 is empty"),
            (3, {"A": 0, "B": 1}, "k=3 exceeds class count 2"),
        ],
        ids=["k_below_one", "out_of_range", "negative", "empty", "k_above_class_count"],
    )
    def test_partition_doc_problem_is_input_error(self, k, assignment, problem):
        doc = {"schema_version": 1, "k": k, "assignment": assignment}
        with pytest.raises(InputError) as info:
            partition_from_doc(doc, two_class_graph())
        assert str(info.value) == f"invalid partition: {problem}"

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

    def test_negative_price_rejected(self):
        with pytest.raises(InputError, match="price for database must be >= 0, got -1"):
            PriceTable(database=Fraction(-1))

    def test_prices_coerced_to_fractions(self):
        prices = PriceTable(compute=2, cache=0.1, file_storage="1/3")
        assert (prices.compute, prices.cache, prices.file_storage) == (
            Fraction(2), Fraction(1, 10), Fraction(1, 3),
        )
        assert all(type(x) is Fraction for x in astuple(prices))


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
    weights = st.fractions(min_value=0, max_value=6, max_denominator=12)
    class_edges = ClassEdges.from_rows((u, v, draw(weights)) for u, v in sorted(pairs))
    flows = tuple(
        FunctionalFlow(f"F{i}", tuple(sorted(draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
        ))))
        for i in range(draw(st.integers(min_value=0, max_value=2)))
    )
    class_id = st.integers(min_value=0, max_value=n - 1)
    dependencies = draw(st.lists(st.tuples(class_id, class_id, st.sampled_from(Relation)), max_size=6))
    return ApplicationGraph(
        classes=classes,
        resources=resources,
        flows=flows,
        resource_edges=resource_edges,
        class_edges=class_edges,
        dependencies=Dependencies(*map(tuple, zip(*dependencies))) if dependencies else Dependencies(),
    )


class TestInterchange:
    @given(small_graphs())
    @example(replace(
        two_class_graph(),
        dependencies=Dependencies((0, 1, 0), (1, 0, 1), (Relation.CALL, Relation.INHERITANCE, Relation.CALL)),
    ))
    def test_graph_doc_round_trip(self, g):
        assert graph_from_doc(json.loads(json_text(graph_to_doc(g)))) == g

    def test_class_edge_doc_holds_endpoints_and_weight_only(self):
        doc = graph_to_doc(two_class_graph())
        assert doc["class_edges"] == {"u": [0], "v": [1], "weight": ["1"]}
        assert "beta" not in doc and "resource_increment" not in doc

    def test_dependencies_are_written_as_id_columns(self):
        deps = Dependencies((1, 0), (0, 1), (Relation.REFERENCE, Relation.CALL))
        doc = graph_to_doc(replace(two_class_graph(), dependencies=deps))
        assert doc["dependencies"] == {"from": [1, 0], "to": [0, 1], "relation": ["reference", "call"]}

    def test_document_without_dependencies_loads_none(self):
        g = replace(two_class_graph(), dependencies=calls((0, 1)))
        doc = graph_to_doc(g)
        split = PartitionSet(2, (0, 1))
        assert evaluate(graph_from_doc(doc), split).ifn_total == 1
        del doc["dependencies"]
        loaded = graph_from_doc(doc)
        assert loaded.dependencies == Dependencies()
        assert evaluate(loaded, split).ifn_total == 0

    @pytest.mark.parametrize(
        "edit,problem",
        [
            (lambda d: d.update(dependencies={"from": [0], "to": [2], "relation": ["call"]}),
             "dependency 0 references missing class id 2"),
            (lambda d: d["classes"].append({"id": 2, "name": "A"}), "duplicate class name 'A'"),
            (lambda d: d["flows"].append({"id": "a", "members": [1, 0, 1, 0, 1]}),
             "flow 'a' repeats class id 1; flow 'a' repeats class id 0"),
            (lambda d: d["flows"].append({"id": "a", "members": [0, 1] * 100_000}),
             "flow 'a' repeats class id 0; flow 'a' repeats class id 1"),
        ],
        ids=["unknown dependency class", "duplicate class name", "repeated flow member",
             "200000 repeated flow members"],
    )
    def test_reader_rejects_an_invalid_graph(self, edit, problem):
        """Each problem is reported, and within 5 s: a check that rescans a
        flow per member takes about a minute on 200,000 members."""
        doc = graph_to_doc(two_class_graph())
        edit(doc)
        start = time.perf_counter()
        with pytest.raises(InputError) as exc:
            graph_from_doc(doc)
        assert time.perf_counter() - start < 5
        assert str(exc.value) == problem

    def test_graph_doc_has_schema_version(self):
        assert graph_to_doc(two_class_graph())["schema_version"] == 2
        assert partition_to_doc(
            PartitionSet(1, (0, 0)), two_class_graph(), objective=Fraction(0), seed=0
        )["schema_version"] == 1

    def test_unsupported_schema_version(self):
        doc = graph_to_doc(two_class_graph())
        doc["schema_version"] = 99
        with pytest.raises(InputError):
            graph_from_doc(doc)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
    @pytest.mark.parametrize("document", [GRAPH_FILE, PARTITION_FILE])
    def test_schema_version_equal_to_1_but_not_an_int(self, document, version, tmp_path, capsys):
        """True == 1.0 == 1 in Python; only the integer 1 is accepted, and
        the command that reads the document exits 2 naming it."""
        g = two_class_graph()
        docs = {
            GRAPH_FILE: graph_to_doc(g),
            PARTITION_FILE: partition_to_doc(PartitionSet(2, (1, 0)), g, objective=Fraction(1), seed=0),
        }
        docs[document]["schema_version"] = version
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        assert main(["evaluate", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / document}: {document.split('.')[0]} document: "
            f"unsupported schema_version {version!r}\n"
        )

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


# Values an edge field may be mutated to: wrong types, strings the rational
# parser rejects or reads as negative, and numbers the reader accepts.
_ENDPOINTS = st.sampled_from([True, False, 1.0, 0.5, "0", None, [0], -1, 99, 10**30])
_WEIGHTS = st.sampled_from(
    [[1], {"w": 1}, "nan", "-1/2", "1/0", "1e5000", "x", " 3 ", 0.5, 2, -1, True, None, float("nan")]
)
_NOT_LISTS = st.sampled_from([{"u": [0]}, "u", 5, None, (0,)])
# what the class_edges section may be replaced by: not an object of columns,
# the list of edge objects of schema 1 among them
_NOT_COLUMNS = st.sampled_from([[{"u": 0, "v": 1, "weight": "1"}], [], "edges", 3, None])
_COLUMNS = ("u", "v", "weight")


@st.composite
def mutated_graph_docs(draw) -> dict:
    """A valid graph document whose ``class_edges`` columns then take one
    to three mutations: a bad endpoint or weight, a missing column, a
    column that is not a list, a column one entry longer or shorter, a
    reversed, out-of-range or repeated pair, or a section that is not an
    object of columns."""
    doc = graph_to_doc(draw(small_graphs()))
    n = len(doc["classes"])
    edges = doc["class_edges"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["endpoint", "weight", "missing", "column", "length", "reverse", "range", "parallel",
             "container"]
        ))
        if kind == "container":
            doc["class_edges"] = draw(_NOT_COLUMNS)
            return doc
        if kind == "missing":
            edges.pop(draw(st.sampled_from(_COLUMNS)), None)
            continue
        if kind == "column":
            edges[draw(st.sampled_from(_COLUMNS))] = draw(_NOT_LISTS)
            continue
        columns = [edges.get(key) for key in _COLUMNS]
        if not all(type(column) is list for column in columns):
            continue
        if kind == "length":
            column = draw(st.sampled_from(columns))
            if column and draw(st.booleans()):
                column.pop()
            else:
                column.append(column[-1] if column else 0)
            continue
        length = min(map(len, columns))
        if not length:
            continue
        i = draw(st.integers(0, length - 1))
        u, v, weight = columns
        if kind == "endpoint":
            draw(st.sampled_from([u, v]))[i] = draw(_ENDPOINTS)
        elif kind == "weight":
            weight[i] = draw(_WEIGHTS)
        elif kind == "reverse":
            u[i], v[i] = v[i], u[i]
        elif kind == "range":
            v[i] = n + draw(st.integers(0, 3))
        else:
            j = draw(st.integers(0, length))
            for column in columns:
                column.insert(j, copy.deepcopy(column[i]))
    return doc


class TestReaderMatchesPerEdgeReference:
    """``graph_from_doc`` reads class edges as whole columns; on any edit of
    a valid document's edges it raises exactly what checking the columns'
    shape, reading them edge by edge and then checking each edge raises,
    and reads the same edges when that accepts them."""

    @settings(max_examples=400)
    @given(mutated_graph_docs())
    @example({  # several bad weight strings: the first in document order is named
        "classes": [{"id": i, "name": f"N{i}"} for i in range(4)],
        "class_edges": {"u": [0, 0, 1, 1, 2], "v": [1, 2, 2, 3, 3], "weight": ["1", "x", "1/0", "nan", "1e5000"]},
    })
    @example({  # a missing weight is named before a bad one and before any endpoint
        "classes": [{"id": i, "name": f"N{i}"} for i in range(3)],
        "class_edges": {"u": [1.0, 0, 0.0], "v": [1, 2.0, 1], "weight": ["1", "x"]},
    })
    @example({  # the graph names every float endpoint, on one line
        "classes": [{"id": i, "name": f"N{i}"} for i in range(3)],
        "class_edges": {"u": [1.0, 0, 1], "v": [1, 2.0, 2], "weight": ["1", "1/2", 2]},
    })
    def test_same_error_or_same_edges(self, doc):
        expected = graph_reader_error_reference(doc)
        if expected is None:
            rows = class_edge_rows_reference(doc)
            assert graph_from_doc(doc).class_edges == ClassEdges.from_rows(rows)
        else:
            with pytest.raises(InputError) as info:
                graph_from_doc(doc)
            assert str(info.value) == expected


# Pieces that could confuse a writer splicing the encoder's output: raw
# newlines, tabs and the control characters it marks with, quotes,
# backslashes, the seams between two records, two fields and a list's end,
# a key with its separator, non-ASCII.
_JSON_STRINGS = st.lists(
    st.sampled_from([
        "\n", "\t", "\0", "\1", "\2", '"', "\\", "},\n  {", "},\n    {", "],", "]}", ":\t[",
        '"members"', '"members": [', "é", "\u2028", "\U0001f4a1",
    ])
    | st.text(max_size=3),
    max_size=4,
).map("".join)
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | _JSON_STRINGS
# Records: objects whose values are scalars or lists (or tuples) of scalars.
_JSON_FIELDS = _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3) | st.tuples(_JSON_SCALARS)
_JSON_RECORDS = st.lists(
    st.dictionaries(_JSON_STRINGS | st.just("members"), _JSON_FIELDS, min_size=1), min_size=1
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | _JSON_RECORDS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_JSON_STRINGS, children, max_size=4),
    max_leaves=30,
)


class TestJsonText:
    @given(_JSON_DOCS)
    @example([{"a": "},\n    {", "b": 1}, {"c": None}])
    @example({"flows": [{"id": "F0", "members": [0, 1]}], "edges": [{"u": 0}, {}], "mixed": [{"a": 1}, 2]})
    @example([{"id": "],\n", "members": ["\"members\": [", "],"]}, {"members": [], "id": [1]}])
    @example({"members": ["]}"], "k": 1})
    def test_equals_json_dumps_indent_2(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2)
