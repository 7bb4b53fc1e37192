"""Infrastructure factor prediction, pricing, and the report."""

import random
from dataclasses import astuple
from fractions import Fraction

import pytest

from conftest import graph_from_edges, random_edge_set

from monopart.infra import (
    build_infra_report,
    duplication_cost,
    infra_cost,
    infra_report_to_doc,
    load_price_table,
    monolith_baseline,
)
from monopart.model import (
    ApplicationGraph,
    ClassNode,
    InfrastructureFactor,
    InputError,
    PartitionSet,
    PriceTable,
    ResourceEdge,
    ResourceKind,
    ResourceNode,
    fraction_str,
)

PRICES = PriceTable.default()


def eight_class_graph() -> ApplicationGraph:
    """Chain of eight classes with four resources spread over them."""
    classes = tuple(ClassNode(i, f"C{i}") for i in range(8))
    resources = (
        ResourceNode(0, "db1", ResourceKind.DATABASE),
        ResourceNode(1, "s3a", ResourceKind.FILE_STORAGE),
        ResourceNode(2, "s3b", ResourceKind.FILE_STORAGE),
        ResourceNode(3, "cacheA", ResourceKind.CACHE),
    )
    resource_edges = (
        ResourceEdge(0, 0),
        ResourceEdge(0, 1),
        ResourceEdge(0, 4),
        ResourceEdge(1, 1),
        ResourceEdge(1, 2),
        ResourceEdge(2, 2),
        ResourceEdge(2, 5),
        ResourceEdge(3, 6),
    )
    class_edges = graph_from_edges(8, {(i, i + 1): 1 for i in range(7)}).class_edges
    return ApplicationGraph(
        classes=classes,
        resources=resources,
        resource_edges=resource_edges,
        class_edges=class_edges,
    )


THREE_WAY = PartitionSet(3, (0, 0, 0, 1, 1, 1, 2, 2))


def factors(
    g: ApplicationGraph, p: PartitionSet, **flags: bool
) -> list[InfrastructureFactor]:
    """Per-partition factors as the report (``infra_report.json``) holds them."""
    report = build_infra_report(g, p, PRICES, **flags)
    assert [idx for idx, _f, _names in report.per_partition] == list(range(p.k))
    return [f for _idx, f, _names in report.per_partition]


class TestPredictFactor:
    """Per-partition factors, read from the report."""

    def test_mixed_bindings(self):
        g = eight_class_graph()
        assert factors(g, THREE_WAY)[0] == InfrastructureFactor(n_ec=1, n_s3=2, n_db=1, n_ca=0)

    def test_unbound_partition_gets_compute_floor(self):
        g = eight_class_graph()
        p = PartitionSet(2, (0, 0, 0, 0, 0, 0, 0, 1))
        assert factors(g, p)[1] == InfrastructureFactor(1, 0, 0, 0)

    def test_floor_can_be_disabled(self):
        g = eight_class_graph()
        p = PartitionSet(2, (0, 0, 0, 0, 0, 0, 0, 1))
        assert factors(g, p, compute_floor=False)[1] == InfrastructureFactor(0, 0, 0, 0)

    def test_split_database_counted_on_both_sides(self):
        g = eight_class_graph()
        p = PartitionSet(2, (0, 0, 1, 1, 1, 1, 1, 1))  # db1 clients 0,1 vs 4
        total = InfrastructureFactor(0, 0, 0, 0)
        for f in factors(g, p):
            assert f.n_db >= 1
            total = total + f
        assert total.n_db == 2


class TestMonolithBaseline:
    def test_counts_bound_resources_once(self):
        g = eight_class_graph()
        assert monolith_baseline(g) == InfrastructureFactor(1, 2, 1, 1)

    def test_no_resources(self):
        g = graph_from_edges(4, {(0, 1): 1})
        assert monolith_baseline(g) == InfrastructureFactor(1, 0, 0, 0)

    def test_matches_single_partition_prediction(self):
        g = eight_class_graph()
        whole = PartitionSet(1, (0,) * 8)
        assert factors(g, whole) == [monolith_baseline(g)]

    def test_unbound_resource_not_counted(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"),),
            resources=(ResourceNode(0, "db1", ResourceKind.DATABASE),),
        )
        assert monolith_baseline(g) == InfrastructureFactor(1, 0, 0, 0)


class TestInfraCost:
    def test_zero_factor(self):
        assert infra_cost(InfrastructureFactor(0, 0, 0, 0), PRICES) == 0

    def test_default_prices(self):
        f = InfrastructureFactor(n_ec=1, n_s3=2, n_db=1, n_ca=0)
        assert infra_cost(f, PRICES) == 1 + 2 * Fraction(1, 4) + 2
        assert infra_cost(f, PRICES) == Fraction(7, 2)

    def test_linearity(self):
        rng = random.Random(3)
        for _ in range(50):
            a = InfrastructureFactor(*(rng.randint(0, 5) for _ in range(4)))
            b = InfrastructureFactor(*(rng.randint(0, 5) for _ in range(4)))
            assert infra_cost(a + b, PRICES) == infra_cost(a, PRICES) + infra_cost(b, PRICES)


class TestDuplicationCost:
    def test_hand_case(self):
        g = eight_class_graph()
        # db1 splits 2 ways under THREE_WAY, s3b splits 2 ways; s3a and cacheA stay whole
        expected = PRICES.unit_cost(ResourceKind.DATABASE) + PRICES.unit_cost(
            ResourceKind.FILE_STORAGE
        )
        assert duplication_cost(g, THREE_WAY, PRICES) == expected

    def test_zero_when_unsplit(self):
        g = eight_class_graph()
        assert duplication_cost(g, PartitionSet(1, (0,) * 8), PRICES) == 0

    def test_total_minus_baseline_decomposition(self):
        # On compute-free bindings the report's extra cost over the baseline
        # is exactly dup cost plus (k-1) extra compute floors.
        g = eight_class_graph()
        rng = random.Random(9)
        for _ in range(100):
            k = rng.randint(1, 4)
            assignment = [rng.randrange(k) for _ in range(8)]
            for part in range(k):
                assignment[part % 8] = part
            p = PartitionSet(k, tuple(assignment))
            report = build_infra_report(g, p, PRICES)
            delta = report.total_cost - report.baseline_cost
            expected = duplication_cost(g, p, PRICES) + (k - 1) * PRICES.unit_cost(
                ResourceKind.COMPUTE
            )
            assert delta == expected


class TestReport:
    def test_single_partition_identity(self):
        g = eight_class_graph()
        report = build_infra_report(g, PartitionSet(1, (0,) * 8), PRICES)
        assert report.total == report.monolith_baseline
        assert report.total_cost == report.baseline_cost

    def test_split_database_delta(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            resources=(ResourceNode(0, "db1", ResourceKind.DATABASE),),
            resource_edges=(ResourceEdge(0, 0), ResourceEdge(0, 1)),
        )
        report = build_infra_report(g, PartitionSet(2, (0, 1)), PRICES)
        dup = report.total_cost - report.baseline_cost
        extra_compute = PRICES.unit_cost(ResourceKind.COMPUTE)
        assert dup == PRICES.unit_cost(ResourceKind.DATABASE) + extra_compute

    def test_total_dominates_baseline(self):
        rng = random.Random(21)
        for trial in range(200):
            n = rng.randint(2, 12)
            g = graph_from_edges(n, random_edge_set(rng, n, connected=False))
            resources = tuple(
                ResourceNode(i, f"r{i}", kind)
                for i, kind in enumerate(
                    rng.choices(list(ResourceKind), k=rng.randint(0, 3))
                )
            )
            redges = tuple(
                ResourceEdge(r.id, c)
                for r in resources
                for c in range(n)
                if rng.random() < 0.4
            )
            g = ApplicationGraph(
                classes=g.classes,
                resources=resources,
                resource_edges=redges,
                class_edges=g.class_edges,
            )
            k = rng.randint(1, n)
            assignment = [rng.randrange(k) for _ in range(n)]
            for part in range(k):
                assignment[part % n] = part
            report = build_infra_report(g, PartitionSet(k, tuple(assignment)), PRICES)
            assert all(
                t >= b for t, b in zip(astuple(report.total), astuple(report.monolith_baseline))
            )
            assert report.total_cost >= report.baseline_cost

    def test_rosters_sorted_by_name(self):
        g = eight_class_graph()
        report = build_infra_report(g, THREE_WAY, PRICES)
        for _idx, _factor, names in report.per_partition:
            assert list(names) == sorted(names)

    def test_shared_database_counted_once(self):
        g = eight_class_graph()
        report = build_infra_report(g, THREE_WAY, PRICES, shared_database=True)
        assert report.total.n_db == 1
        # the lowest-index partition touching db1 keeps it
        assert report.per_partition[0][1].n_db == 1
        assert report.per_partition[1][1].n_db == 0

    def test_doc_fields(self):
        report = build_infra_report(eight_class_graph(), THREE_WAY, PRICES)
        doc = infra_report_to_doc(report)
        assert doc["schema_version"] == 1
        assert doc["per_partition"] == [
            {
                "partition": 0,
                "factor": {"n_ec": 1, "n_s3": 2, "n_db": 1, "n_ca": 0},
                "resources": ["db1", "s3a", "s3b"],
            },
            {
                "partition": 1,
                "factor": {"n_ec": 1, "n_s3": 1, "n_db": 1, "n_ca": 0},
                "resources": ["db1", "s3b"],
            },
            {
                "partition": 2,
                "factor": {"n_ec": 1, "n_s3": 0, "n_db": 0, "n_ca": 1},
                "resources": ["cacheA"],
            },
        ]
        assert doc["total"] == {"n_ec": 3, "n_s3": 3, "n_db": 2, "n_ca": 1}
        assert doc["monolith_baseline"] == {"n_ec": 1, "n_s3": 2, "n_db": 1, "n_ca": 1}
        assert doc["total_cost"] == fraction_str(report.total_cost)
        assert doc["baseline_cost"] == fraction_str(report.baseline_cost)
        assert report.total_cost == infra_cost(report.total, PRICES)


class TestLoadPriceTable:
    def test_empty_gives_defaults(self):
        assert load_price_table("") == PriceTable.default()

    def test_partial_override(self):
        table = load_price_table("database: 10\ncache: 0.125\n")
        assert table.database == 10
        assert table.cache == Fraction(1, 8)
        assert table.compute == PriceTable.default().compute

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="gpu"):
            load_price_table("gpu: 4\n")

    def test_negative_price_rejected(self):
        with pytest.raises(InputError):
            load_price_table("database: -1\n")

    def test_first_bad_key_in_sorted_order_is_named(self):
        with pytest.raises(InputError, match="price for cache must be >= 0"):
            load_price_table("database: -3\ncompute: -1\ncache: -2\n")


class TestLowerBoundInvariant:
    def test_per_kind_sum_never_below_baseline(self):
        g = eight_class_graph()
        rng = random.Random(33)
        base = monolith_baseline(g)
        for _ in range(100):
            k = rng.randint(1, 6)
            assignment = [rng.randrange(k) for _ in range(8)]
            for part in range(k):
                assignment[part % 8] = part
            p = PartitionSet(k, tuple(assignment))
            per_kind = [sum(counts) for counts in zip(*map(astuple, factors(g, p)))]
            assert all(t >= b for t, b in zip(per_kind, astuple(base)))
