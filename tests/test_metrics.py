"""Quality metrics: pairwise F1, modularity, interface counts, cluster sizes,
edge cut."""

import json
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import graph_from_edges, random_edge_set

from oracles import (
    modularity_matrix_form,
    pairwise_f1_enumerated,
    pairwise_f1_reference,
    report_from_json,
)

from monopart.metrics import (
    GroundTruth,
    compute_f1,
    compute_ifn,
    compute_ngm,
    edge_cut,
    evaluate,
    format_table,
    load_ground_truth,
)
from monopart.model import DependencyRecord, InputError, PartitionSet, PriceTable, report_to_doc


class TestLoadGroundTruth:
    def test_yaml_flat_map(self):
        truth = load_ground_truth("A: web\nB: web\nC: data\n")
        assert truth.assignment == {"A": "web", "B": "web", "C": "data"}

    def test_json(self):
        truth = load_ground_truth('{"A": "web", "B": "data"}')
        assert truth.assignment == {"A": "web", "B": "data"}

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            load_ground_truth("")


@st.composite
def f1_cases(draw) -> tuple[PartitionSet, dict[str, str], list[str]]:
    """A prediction over C0..Cn-1 and a truth over some of those classes plus
    classes the graph lacks; either side may be one cluster, all singletons
    or random."""

    def labels(count: int) -> list[int]:
        shape = draw(st.sampled_from(("one cluster", "singletons", "random")))
        if shape == "one cluster":
            return [0] * count
        if shape == "singletons":
            return list(range(count))
        return draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))

    n = draw(st.integers(1, 12))
    names = [f"C{i}" for i in range(n)]
    raw = labels(n)
    order = sorted(set(raw))
    p = PartitionSet(len(order), tuple(order.index(x) for x in raw))
    kept = [name for name in names if draw(st.booleans())]
    truth_names = kept + [f"ghost{i}" for i in range(draw(st.integers(0, 3)))]
    truth = {name: f"g{label}" for name, label in zip(truth_names, labels(len(truth_names)))}
    return p, truth, names


class TestPairwiseF1:
    @settings(max_examples=300)
    @given(f1_cases())
    def test_contingency_count_equals_pair_enumeration(self, case):
        p, truth, names = case
        assume(truth)
        if truth.keys().isdisjoint(names):
            with pytest.raises(InputError):
                compute_f1(p, GroundTruth(truth), names)
            return
        assert compute_f1(p, GroundTruth(truth), names) == pairwise_f1_enumerated(
            p.assignment, truth, names
        )

    def test_perfect_match(self):
        p = PartitionSet(2, (0, 0, 1, 1))
        truth = GroundTruth({"A": "x", "B": "x", "C": "y", "D": "y"})
        assert compute_f1(p, truth, ["A", "B", "C", "D"]) == 1

    def test_half(self):
        # truth {A,B},{C}; prediction lumps all three together:
        # tp=1 (AB), fp=2 (AC, BC), fn=0 -> P=1/3, R=1 -> F1=1/2
        p = PartitionSet(1, (0, 0, 0))
        truth = GroundTruth({"A": "x", "B": "x", "C": "y"})
        assert compute_f1(p, truth, ["A", "B", "C"]) == Fraction(1, 2)

    def test_zero_when_no_pair_agrees(self):
        p = PartitionSet(4, (0, 1, 2, 3))
        truth = GroundTruth({"A": "x", "B": "x", "C": "x", "D": "x"})
        assert compute_f1(p, truth, ["A", "B", "C", "D"]) == 0

    def test_label_names_do_not_matter(self):
        p = PartitionSet(2, (1, 1, 0, 0))
        truth = GroundTruth({"A": "blue", "B": "blue", "C": "red", "D": "red"})
        assert compute_f1(p, truth, ["A", "B", "C", "D"]) == 1

    def test_classes_missing_from_truth_are_ignored(self):
        p = PartitionSet(2, (0, 0, 1, 1))
        truth = GroundTruth({"A": "x", "B": "x"})
        assert compute_f1(p, truth, ["A", "B", "C", "D"]) == 1

    def test_disjoint_names_rejected(self):
        p = PartitionSet(1, (0, 0))
        truth = GroundTruth({"X": "x", "Y": "x"})
        with pytest.raises(InputError):
            compute_f1(p, truth, ["A", "B"])

    @given(
        st.integers(2, 9).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
            )
        )
    )
    def test_agrees_with_pair_set_oracle(self, labels):
        pred_raw, truth_raw = labels
        n = len(pred_raw)
        # compress prediction labels to 0..k-1
        order = sorted(set(pred_raw))
        pred = [order.index(x) for x in pred_raw]
        p = PartitionSet(len(order), tuple(pred))
        names = [f"C{i}" for i in range(n)]
        truth = GroundTruth({names[i]: f"g{truth_raw[i]}" for i in range(n)})
        oracle = pairwise_f1_reference(
            {names[i]: pred[i] for i in range(n)}, truth.assignment
        )
        assert compute_f1(p, truth, names) == oracle


class TestModularity:
    def test_single_partition_zero(self):
        g = graph_from_edges(4, {(0, 1): 1, (2, 3): 1})
        assert compute_ngm(g, PartitionSet(1, (0, 0, 0, 0))) == 0

    def test_two_triangles_bridge_exact(self):
        edges = {(0, 1): 1, (0, 2): 1, (1, 2): 1, (3, 4): 1, (3, 5): 1, (4, 5): 1, (2, 3): 1}
        g = graph_from_edges(6, edges)
        q = compute_ngm(g, PartitionSet(2, (0, 0, 0, 1, 1, 1)))
        assert q == Fraction(5, 14)

    @pytest.mark.parametrize("edges", [{}, {(0, 1): 0, (1, 2): 0}], ids=["edgeless", "zero-weight"])
    def test_graph_without_edge_weight_scores_zero(self, edges):
        g = graph_from_edges(3, edges)
        p = PartitionSet(2, (0, 0, 1))
        assert compute_ngm(g, p) == 0
        assert evaluate(g, p).ngm == 0

    def test_matches_matrix_oracle_exactly(self):
        rng = random.Random(41)
        for trial in range(200):
            n = rng.randint(2, 14)
            edges = random_edge_set(rng, n, connected=False)
            if not edges:
                continue
            g = graph_from_edges(n, edges)
            k = rng.randint(1, n)
            assignment = tuple(rng.randrange(k) for _ in range(n))
            k_used = len(set(assignment))
            remap = {lbl: i for i, lbl in enumerate(sorted(set(assignment)))}
            p = PartitionSet(k_used, tuple(remap[a] for a in assignment))
            unit = graph_from_edges(n, dict.fromkeys(edges, 1))
            for weighted, graph in ((True, g), (False, unit)):
                mine = compute_ngm(graph, p)
                oracle = modularity_matrix_form(n, edges, p.assignment, weighted=weighted)
                assert mine == oracle, (trial, weighted)

    def test_matches_networkx(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(3, 12)
            edges = random_edge_set(rng, n)
            g = graph_from_edges(n, edges)
            k = rng.randint(1, 3)
            assignment = tuple(rng.randrange(k) for _ in range(n))
            remap = {lbl: i for i, lbl in enumerate(sorted(set(assignment)))}
            p = PartitionSet(len(remap), tuple(remap[a] for a in assignment))
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            for (u, v), w in edges.items():
                nxg.add_edge(u, v, weight=w)
            communities = [{v for v in range(n) if p.assignment[v] == c} for c in range(p.k)]
            ref = nx.algorithms.community.modularity(nxg, communities, weight="weight")
            assert abs(float(compute_ngm(g, p)) - ref) < 1e-9

    def test_range_bound(self):
        rng = random.Random(47)
        for _ in range(100):
            n = rng.randint(2, 10)
            edges = random_edge_set(rng, n)
            g = graph_from_edges(n, edges)
            k = rng.randint(1, n)
            assignment = tuple(rng.randrange(k) for _ in range(n))
            remap = {lbl: i for i, lbl in enumerate(sorted(set(assignment)))}
            p = PartitionSet(len(remap), tuple(remap[a] for a in assignment))
            q = compute_ngm(g, p)
            assert Fraction(-1, 2) <= q <= 1


class TestInterfaceNumber:
    def test_single_partition_no_interfaces(self):
        deps = [DependencyRecord("A", "B"), DependencyRecord("B", "C")]
        p = PartitionSet(1, (0, 0, 0))
        total, mean, per = compute_ifn(deps, p, ["A", "B", "C"])
        assert total == 0 and mean == 0 and per == [0]

    def test_cross_partition_target_is_interface(self):
        deps = [DependencyRecord("A", "B")]
        p = PartitionSet(2, (0, 1))
        total, mean, per = compute_ifn(deps, p, ["A", "B"])
        assert total == 1
        assert per == [0, 1]
        assert mean == Fraction(1, 2)

    def test_interface_counted_once_per_class(self):
        deps = [DependencyRecord("A", "B"), DependencyRecord("C", "B")]
        p = PartitionSet(2, (0, 1, 0))
        total, _mean, per = compute_ifn(deps, p, ["A", "B", "C"])
        assert total == 1
        assert per == [0, 1]

    def test_distinct_targets_counted_separately(self):
        deps = [
            DependencyRecord("A", "B"),
            DependencyRecord("A", "C"),
        ]
        p = PartitionSet(2, (0, 1, 1))
        total, mean, per = compute_ifn(deps, p, ["A", "B", "C"])
        assert total == 2
        assert per == [0, 2]
        assert mean == 1

    def test_unknown_name_rejected(self):
        deps = [DependencyRecord("A", "Z")]
        p = PartitionSet(1, (0, 0))
        with pytest.raises(InputError, match="unknown class"):
            compute_ifn(deps, p, ["A", "B"])


class TestClusterStats:
    """Partition sizes as :func:`evaluate` reports them."""

    def test_single(self):
        report = evaluate(graph_from_edges(5, {}), PartitionSet(1, (0,) * 5))
        assert report.cluster_sizes == (5,)

    def test_even_split(self):
        report = evaluate(graph_from_edges(6, {}), PartitionSet(3, (0, 0, 1, 1, 2, 2)))
        assert report.cluster_sizes == (2, 2, 2)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
    def test_sizes_sum_to_class_count(self, raw):
        remap = {lbl: i for i, lbl in enumerate(sorted(set(raw)))}
        p = PartitionSet(len(remap), tuple(remap[a] for a in raw))
        sizes = evaluate(graph_from_edges(len(raw), {}), p).cluster_sizes
        assert sum(sizes) == len(raw)
        assert sizes == tuple(p.assignment.count(i) for i in range(p.k))


class TestEdgeCut:
    def test_counts_weighted_crossing(self):
        g = graph_from_edges(4, {(0, 1): 3, (1, 2): 5, (2, 3): 7})
        assert edge_cut(g, PartitionSet(2, (0, 0, 1, 1))) == 5

    def test_zero_within_one_partition(self):
        g = graph_from_edges(3, {(0, 1): 2, (1, 2): 2})
        assert edge_cut(g, PartitionSet(1, (0, 0, 0))) == 0


class TestEvaluate:
    def test_single_partition_identities(self):
        deps = (DependencyRecord("N0", "N1"), DependencyRecord("N1", "N2"))
        g = graph_from_edges(3, {(0, 1): 1, (1, 2): 1}, deps)
        p = PartitionSet(1, (0, 0, 0))
        report = evaluate(g, p)
        assert report.ngm == 0
        assert report.ifn_total == 0
        assert report.edge_cut == 0
        assert report.f1 is None
        assert report.cluster_sizes == (3,)

    def test_f1_present_with_truth(self):
        deps = (DependencyRecord("N0", "N1"),)
        g = graph_from_edges(2, {(0, 1): 1}, deps)
        p = PartitionSet(1, (0, 0))
        truth = GroundTruth({"N0": "x", "N1": "x"})
        report = evaluate(g, p, truth=truth)
        assert report.f1 == 1

    def test_round_trip(self):
        deps = (DependencyRecord("N0", "N1"),)
        g = graph_from_edges(2, {(0, 1): 1}, deps)
        p = PartitionSet(2, (0, 1))
        report = evaluate(g, p, prices=PriceTable.default())
        assert report_from_json(json.dumps(report_to_doc(report))) == report

    def test_edgeless_graph_reports_zero_ngm(self):
        g = graph_from_edges(2, {})
        report = evaluate(g, PartitionSet(2, (0, 1)))
        assert report.ngm == 0


class TestFormatTable:
    def test_dash_for_missing_f1(self):
        deps = (DependencyRecord("N0", "N1"),)
        g = graph_from_edges(2, {(0, 1): 1}, deps)
        p = PartitionSet(2, (0, 1))
        report = evaluate(g, p)
        text = format_table("demo", report)
        lines = text.splitlines()
        assert "F1" in lines[0]
        assert " - " in lines[1] or lines[1].endswith("-") or "- " in lines[1]

    def test_columns_align(self):
        deps = (DependencyRecord("N0", "N1"),)
        g = graph_from_edges(2, {(0, 1): 1}, deps)
        p = PartitionSet(2, (0, 1))
        truth = GroundTruth({"N0": "x", "N1": "y"})
        r1 = evaluate(g, p, truth=truth)
        for name in ("short", "a-much-longer-name"):
            header, row = format_table(name, r1).splitlines()
            k_at = header.index("k")
            assert row[k_at] != " "
            assert row[k_at - 1] == " "
