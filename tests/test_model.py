"""Domain types, validation, and interchange round-trips."""

import copy
import json
import time
from dataclasses import astuple, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    class_edge_problems_reference,
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
    DependencyRecord,
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


class TestValidateGraph:
    def test_well_formed(self):
        assert validate_graph(bound_graph()) == []

    def test_dependency_naming_an_unknown_class(self):
        deps = (DependencyRecord("A", "Z"), DependencyRecord("Z", "B"), DependencyRecord("B", "Y"))
        assert validate_graph(replace(bound_graph(), dependencies=deps)) == [
            "dependency names unknown class 'Z'",
            "dependency names unknown class 'Y'",
        ]

    @pytest.mark.parametrize("u,v", [(1, 0), (1, 1)])
    def test_endpoints_must_be_ordered(self, u, v):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            class_edges=ClassEdges.from_rows([(u, v, Fraction(1))]),
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
            class_edges=ClassEdges.from_rows([(0, 5, Fraction(1))]),
        )
        assert validate_graph(g)

    def test_parallel_edges(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            class_edges=ClassEdges.from_rows([(0, 1, Fraction(1)), (0, 1, Fraction(2))]),
        )
        assert any("parallel" in p for p in validate_graph(g))

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

    def test_negative_weight_reported(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            class_edges=ClassEdges.from_rows([(0, 1, Fraction(-1, 2))]),
        )
        assert validate_graph(g) == ["class edge (0, 1) has negative weight -1/2"]

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
            class_edges=ClassEdges.from_rows([(0, 1, Fraction(-1))]),
        )
        problems = validate_graph(g)
        assert problems and any("(0, 1)" in p for p in problems)


@st.composite
def class_edge_graphs(draw) -> ApplicationGraph:
    """Graphs whose class edges may carry fractional or negative weights,
    repeated pairs, reversed endpoints or ids past the last class."""
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
    return ApplicationGraph(
        classes=tuple(ClassNode(i, f"N{i}") for i in range(n)),
        class_edges=ClassEdges.from_rows(edges),
    )


class TestClassEdgeOracle:
    @settings(max_examples=300)
    @given(class_edge_graphs())
    def test_problems_match_reference(self, g):
        assert validate_graph(g) == class_edge_problems_reference(g)


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
    class_name = st.sampled_from(class_names)
    dependencies = draw(st.lists(
        st.builds(DependencyRecord, class_name, class_name, st.sampled_from(Relation)), max_size=6
    ))
    return ApplicationGraph(
        classes=classes,
        resources=resources,
        flows=flows,
        resource_edges=resource_edges,
        class_edges=class_edges,
        dependencies=tuple(dependencies),
    )


class TestInterchange:
    @given(small_graphs())
    def test_graph_doc_round_trip(self, g):
        assert graph_from_doc(graph_to_doc(g)) == g

    @given(small_graphs(), st.fractions(min_value=0, max_value=3, max_denominator=6))
    def test_older_document_with_weight_components_loads_the_same(self, g, beta):
        doc = graph_to_doc(g)
        old = {**doc, "beta": fraction_str(beta), "resource_increment": "1"}
        old["class_edges"] = [
            {**e, "relation_base": e["weight"], "shared_resource_count": 0, "flow_cooccurrence": 0}
            for e in doc["class_edges"]
        ]
        assert graph_from_doc(old) == graph_from_doc(doc) == g

    def test_class_edge_doc_holds_endpoints_and_weight_only(self):
        doc = graph_to_doc(two_class_graph())
        assert doc["class_edges"] == [{"u": 0, "v": 1, "weight": "1"}]
        assert "beta" not in doc and "resource_increment" not in doc

    def test_document_without_dependencies_loads_none(self):
        g = replace(two_class_graph(), dependencies=(DependencyRecord("A", "B"),))
        doc = graph_to_doc(g)
        split = PartitionSet(2, (0, 1))
        assert evaluate(graph_from_doc(doc), split).ifn_total == 1
        del doc["dependencies"]
        loaded = graph_from_doc(doc)
        assert loaded.dependencies == ()
        assert evaluate(loaded, split).ifn_total == 0

    @pytest.mark.parametrize(
        "edit,problem",
        [
            (lambda d: d["dependencies"].append({"from": "A", "to": "Z", "relation": "call"}),
             "dependency names unknown class 'Z'"),
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
        assert graph_to_doc(two_class_graph())["schema_version"] == 1

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
_NOT_OBJECTS = st.sampled_from([[0, 1, "1"], "edge", 3, None])
_NOT_LISTS = st.sampled_from([{"u": 0, "v": 1, "weight": "1"}, "u", 5, None])


@st.composite
def mutated_graph_docs(draw) -> dict:
    """A valid graph document whose ``class_edges`` then takes one to three
    mutations: a bad endpoint or weight, a missing key, an entry that is not
    an object, a reversed, out-of-range or repeated pair, or a list that is
    not a list."""
    doc = graph_to_doc(draw(small_graphs()))
    n = len(doc["classes"])
    edges = doc["class_edges"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["endpoint", "weight", "missing", "entry", "reverse", "range", "parallel", "container"]
        ))
        if not isinstance(edges, list) or not edges or kind == "container":
            edges = doc["class_edges"] = draw(_NOT_LISTS) if kind == "container" else [
                {"u": 0, "v": 1, "weight": "1"}
            ]
            continue
        i = draw(st.integers(0, len(edges) - 1))
        edge = edges[i]
        if not isinstance(edge, dict):
            continue
        if kind == "endpoint":
            edge[draw(st.sampled_from("uv"))] = draw(_ENDPOINTS)
        elif kind == "weight":
            edge["weight"] = draw(_WEIGHTS)
        elif kind == "missing":
            edge.pop(draw(st.sampled_from(["u", "v", "weight"])), None)
        elif kind == "entry":
            edges[i] = draw(_NOT_OBJECTS)
        elif kind == "reverse":
            edge["u"], edge["v"] = edge.get("v"), edge.get("u")
        elif kind == "range":
            edge["v"] = n + draw(st.integers(0, 3))
        else:
            edges.insert(draw(st.integers(0, len(edges))), copy.deepcopy(edge))
    return doc


class TestReaderMatchesPerEdgeReference:
    """``graph_from_doc`` reads class edges column by column; on any edit of
    a valid document's edges it raises exactly what the per-edge reader
    raises, and reads the same edges when that reader accepts them."""

    @settings(max_examples=400)
    @given(mutated_graph_docs())
    @example({  # several bad weight strings: the first in document order is named
        "classes": [{"id": i, "name": f"N{i}"} for i in range(4)],
        "class_edges": [
            {"u": 0, "v": 1, "weight": "1"},
            {"u": 0, "v": 2, "weight": "x"},
            {"u": 1, "v": 2, "weight": "1/0"},
            {"u": 1, "v": 3, "weight": "nan"},
            {"u": 2, "v": 3, "weight": "1e5000"},
        ],
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
