"""Multilevel partitioner: objective, coarsening, growing, refinement."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR, clique_pair_xml, edge_weights, graph_from_edges, random_edge_set

from oracles import (
    duplication_cost_reference,
    edge_cut_reference,
    initial_partition_reference,
    modularity_matrix_form,
    rebalance_reference,
    refine_reference,
)

from monopart.graphbuild import build_graph
from monopart.infra import build_infra_report, duplication_cost
from monopart.ingest import parse_dependency_xml, parse_infra_yaml
from monopart.metrics import compute_ngm, edge_cut, evaluate
from monopart.model import (
    ApplicationGraph,
    ClassNode,
    InputError,
    PartitionSet,
    PriceTable,
    ResourceEdge,
    ResourceKind,
    ResourceNode,
)
from monopart import partitioner
from monopart.partitioner import (
    Gains,
    Level,
    ObjectiveConfig,
    coarsen,
    initial_partition,
    objective,
    partition_graph,
    refine,
    scale,
    sweep_k,
)

PRICES = PriceTable.default()


def level_of(g):
    """The finest integer level of ``g`` (prices and alpha do not enter it)."""
    return scale(g, PRICES, ObjectiveConfig(k=1))[0]


def refine_graph(g, p, cfg, prices=PRICES):
    level, gains = scale(g, prices, cfg)
    return refine(level, p, cfg, gains)


class TestObjectiveConfig:
    def test_alpha_out_of_range(self):
        with pytest.raises(InputError):
            ObjectiveConfig(k=2, alpha=Fraction(3, 2))

    def test_negative_epsilon(self):
        with pytest.raises(InputError):
            ObjectiveConfig(k=2, epsilon=Fraction(-1, 10))

    def test_k_must_be_positive(self):
        with pytest.raises(InputError):
            ObjectiveConfig(k=0)

    def test_restarts_must_be_positive(self):
        with pytest.raises(InputError):
            ObjectiveConfig(k=1, restarts=0)

    def test_seed_is_u64(self):
        with pytest.raises(InputError):
            ObjectiveConfig(k=1, seed=-1)
        with pytest.raises(InputError):
            ObjectiveConfig(k=1, seed=2**64)

    def test_string_fractions_accepted(self):
        cfg = ObjectiveConfig(k=2, alpha="0.3", epsilon="0.25")
        assert cfg.alpha == Fraction(3, 10)


JPETSTORE = build_graph(
    parse_dependency_xml((FIXTURES_DIR / "jpetstore" / "deps.xml").read_bytes()),
    parse_infra_yaml((FIXTURES_DIR / "jpetstore" / "manifest.yaml").read_bytes()),
)
SCORERS = {
    "duplication_cost": lambda g, p: duplication_cost(g, p, PRICES),
    "edge_cut": edge_cut,
    "compute_ngm": compute_ngm,
    "build_infra_report": lambda g, p: build_infra_report(g, p, PRICES),
    "evaluate": evaluate,
    "objective": lambda g, p: objective(g, p, PRICES, ObjectiveConfig(k=p.k)),
}


@pytest.mark.parametrize("length", [2, 40])
@pytest.mark.parametrize("scorer", sorted(SCORERS))
def test_scorer_rejects_a_partition_of_another_graph(scorer, length):
    assert len(JPETSTORE.classes) == 24
    p = PartitionSet(2, tuple(i % 2 for i in range(length)))
    with pytest.raises(InputError, match=f"assignment covers {length} classes, graph has 24"):
        SCORERS[scorer](JPETSTORE, p)


class TestObjective:
    def test_single_partition_is_zero(self):
        g = graph_from_edges(3, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
        cfg = ObjectiveConfig(k=1, alpha=1)
        assert objective(g, PartitionSet(1, (0, 0, 0)), PRICES, cfg) == 0

    def test_pure_cut_on_triangle(self):
        g = graph_from_edges(3, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
        cfg = ObjectiveConfig(k=2, alpha=1)
        assert objective(g, PartitionSet(2, (0, 1, 1)), PRICES, cfg) == 2

    def test_pure_dup_on_split_database(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            resources=(ResourceNode(0, "db1", ResourceKind.DATABASE),),
            resource_edges=(ResourceEdge(0, 0), ResourceEdge(0, 1)),
        )
        cfg = ObjectiveConfig(k=2, alpha=0)
        assert objective(g, PartitionSet(2, (0, 1)), PRICES, cfg) == 2

    def test_invalid_partition_rejected(self):
        g = graph_from_edges(3, {(0, 1): 1})
        cfg = ObjectiveConfig(k=2, alpha=1)
        with pytest.raises(InputError, match="assignment covers 2 classes, graph has 3"):
            objective(g, PartitionSet(2, (0, 1)), PRICES, cfg)

    def test_blend_is_convex_combination(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B")),
            resources=(ResourceNode(0, "db1", ResourceKind.DATABASE),),
            resource_edges=(ResourceEdge(0, 0), ResourceEdge(0, 1)),
            class_edges=graph_from_edges(2, {(0, 1): 3}).class_edges,
        )
        p = PartitionSet(2, (0, 1))
        cfg = ObjectiveConfig(k=2, alpha=Fraction(1, 4))
        # cut 3, dup 2
        assert objective(g, p, PRICES, cfg) == Fraction(1, 4) * 3 + Fraction(3, 4) * 2


class TestScale:
    def test_weights_prices_and_alpha_over_common_denominators(self):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B"), ClassNode(2, "C", weight=2)),
            resources=(
                ResourceNode(0, "c1", ResourceKind.CACHE),
                ResourceNode(1, "s1", ResourceKind.FILE_STORAGE),
            ),
            resource_edges=(ResourceEdge(0, 2), ResourceEdge(1, 0), ResourceEdge(0, 0)),
            class_edges=graph_from_edges(3, {(0, 1): Fraction(1, 2), (1, 2): Fraction(2, 3)}).class_edges,
        )
        prices = PriceTable(cache=Fraction(3, 10), file_storage=Fraction(1, 6))
        level, gains = scale(g, prices, ObjectiveConfig(k=2, alpha=Fraction(1, 3)))
        # L = 6, U = 30, alpha = 1/3
        assert level.weights == [1, 1, 2]
        assert level.adj == [[(1, 3)], [(0, 3), (2, 4)], [(1, 4)]]
        assert level.res_of == [(0, 1), (), (0,)]
        assert gains.cut == 1 * 30
        assert gains.dup == [2 * 6 * 9, 2 * 6 * 5]

    def test_negative_edge_weight_rejected(self):
        g = graph_from_edges(3, {(0, 1): 1, (1, 2): Fraction(-1, 2)})
        with pytest.raises(InputError, match=r"class edge \(1, 2\) has negative weight -1/2"):
            scale(g, PRICES, ObjectiveConfig(k=2))

    def test_gain_is_objective_drop_times_common_denominator(self):
        # one move of B from partition 1 to 0: cut falls by 1/2 - 2/3, and
        # the cache c1 loses its copy in partition 1
        g = ApplicationGraph(
            classes=(ClassNode(0, "A"), ClassNode(1, "B"), ClassNode(2, "C")),
            resources=(ResourceNode(0, "c1", ResourceKind.CACHE),),
            resource_edges=(ResourceEdge(0, 0), ResourceEdge(0, 1)),
            class_edges=graph_from_edges(3, {(0, 1): Fraction(1, 2), (1, 2): Fraction(2, 3)}).class_edges,
        )
        prices = PriceTable(cache=Fraction(3, 10))
        cfg = ObjectiveConfig(k=2, alpha=Fraction(1, 3), epsilon=Fraction(1))
        level, gains = scale(g, prices, cfg)
        before, after = PartitionSet(2, (0, 1, 1)), PartitionSet(2, (0, 0, 1))
        drop = objective(g, before, prices, cfg) - objective(g, after, prices, cfg)
        cut_gain = 3 - 4  # scaled weight into partition 0 minus into partition 1
        assert gains.cut * cut_gain + gains.dup[0] == drop * 3 * 6 * 10
        assert drop > 0
        assert refine(level, before, cfg, gains) == after


class TestCoarsen:
    def test_heavy_edges_contract_first(self):
        g = graph_from_edges(4, {(0, 1): 5, (1, 2): 1, (2, 3): 5})
        levels = coarsen(level_of(g), max_levels=1, min_size=2, seed=0)
        assert len(levels) == 1
        proj = levels[0].projection
        assert proj[0] == proj[1] and proj[2] == proj[3] and proj[0] != proj[2]

    def test_edgeless_graph_never_contracts(self):
        g = graph_from_edges(5, {})
        assert coarsen(level_of(g), max_levels=3, min_size=2, seed=1) == []

    def test_vertex_weight_conservation(self):
        rng = random.Random(5)
        g = graph_from_edges(30, random_edge_set(rng, 30))
        for level in coarsen(level_of(g), max_levels=10, min_size=4, seed=9):
            assert sum(level.graph.weights) == 30

    def test_projection_total_and_surjective(self):
        rng = random.Random(6)
        g = graph_from_edges(20, random_edge_set(rng, 20))
        fine_count = 20
        for level in coarsen(level_of(g), max_levels=10, min_size=4, seed=2):
            coarse_count = len(level.graph.classes)
            assert len(level.projection) == fine_count
            assert set(level.projection) == set(range(coarse_count))
            fine_count = coarse_count

    def test_coarse_edge_weight_matches_crossing_fine_weight(self):
        rng = random.Random(7)
        edges = {pair: w / 6 for pair, w in random_edge_set(rng, 12).items()}
        g = graph_from_edges(12, edges)
        levels = coarsen(level_of(g), max_levels=1, min_size=2, seed=3)
        if not levels:
            pytest.skip("matching made no progress")
        proj = levels[0].projection
        coarse = levels[0].graph
        crossing = {}
        for (u, v), w in edges.items():
            if proj[u] != proj[v]:
                pair = frozenset((proj[u], proj[v]))
                crossing[pair] = crossing.get(pair, 0) + w
        lcm = math.lcm(*(w.denominator for w in edges.values()))
        scaled = {
            frozenset((cu, cv)): Fraction(w, lcm)
            for cu, row in enumerate(coarse.adj)
            for cv, w in row
        }
        assert scaled == crossing

    def test_stops_at_min_size(self):
        rng = random.Random(8)
        g = graph_from_edges(40, random_edge_set(rng, 40))
        levels = coarsen(level_of(g), max_levels=20, min_size=10, seed=4)
        assert len(levels[-1].graph.classes) <= max(
            10, len(levels[-2].graph.classes) if len(levels) > 1 else 40
        )
        # every level strictly shrinks
        sizes = [40] + [len(lv.graph.classes) for lv in levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


class TestInitialPartition:
    def test_k_equals_vertex_count(self):
        g = graph_from_edges(4, {(0, 1): 1})
        p = initial_partition(level_of(g), ObjectiveConfig(k=4, seed=0))
        assert sorted(p.assignment) == [0, 1, 2, 3]

    def test_k_one(self):
        g = graph_from_edges(4, {(0, 1): 1})
        p = initial_partition(level_of(g), ObjectiveConfig(k=1, seed=0))
        assert p.assignment == (0, 0, 0, 0)

    def test_k_exceeding_vertices(self):
        g = graph_from_edges(2, {(0, 1): 1})
        with pytest.raises(InputError):
            initial_partition(level_of(g), ObjectiveConfig(k=3, seed=0))

    def test_balance_on_unit_weights(self):
        rng = random.Random(11)
        for trial in range(20):
            n = rng.randint(4, 16)
            g = graph_from_edges(n, random_edge_set(rng, n))
            k = rng.randint(1, n)
            cfg = ObjectiveConfig(k=k, epsilon=Fraction(1, 10), seed=trial)
            p = initial_partition(level_of(g), cfg)
            cap = (1 + cfg.epsilon) * (-(-n // k))
            assert len(p.assignment) == len(g.classes)
            assert max(p.sizes()) <= cap

    def test_two_clique_restart_statistic_pinned(self):
        """Greedy growing recovers the planted bisection only when the two
        start vertices land in different cliques; measured rate at base
        seed 0 is 6 of 8 (best-of-restarts recovery is checked on
        partition_graph below)."""
        g = build_graph(parse_dependency_xml(clique_pair_xml(4)))
        hits = 0
        for i in range(8):
            cfg = ObjectiveConfig(k=2, alpha=1, epsilon=Fraction(1, 10), seed=i)
            p = initial_partition(level_of(g), cfg)
            hits += edge_cut(g, p) == 1
        assert hits == 6


class TestRefine:
    def test_optimal_partition_unchanged(self):
        g = graph_from_edges(4, {(0, 1): 3, (2, 3): 3, (1, 2): 1})
        p = PartitionSet(2, (0, 0, 1, 1))
        cfg = ObjectiveConfig(k=2, alpha=1, seed=0)
        assert refine_graph(g, p, cfg) == p

    def test_pure_infra_move_joins_database_clients(self):
        # A alone holds the db1 binding in partition 1; every other client
        # sits in partition 0 and A has no edges at all
        g = ApplicationGraph(
            classes=(
                ClassNode(0, "A"),
                ClassNode(1, "B"),
                ClassNode(2, "C"),
                ClassNode(3, "D"),
            ),
            resources=(ResourceNode(0, "db1", ResourceKind.DATABASE),),
            resource_edges=(ResourceEdge(0, 0), ResourceEdge(0, 1), ResourceEdge(0, 2)),
        )
        p = PartitionSet(2, (1, 0, 0, 1))
        cfg = ObjectiveConfig(k=2, alpha=0, epsilon=Fraction(1), seed=0)
        before = objective(g, p, PRICES, cfg)
        after_p = refine_graph(g, p, cfg)
        after = objective(g, after_p, PRICES, cfg)
        assert after_p.assignment[0] == 0
        assert before - after == PRICES.unit_cost(ResourceKind.DATABASE)

    def test_zero_weight_cross_edge_keeps_a_vertex_a_candidate(self):
        # v=1's only edge weighs 0 and crosses to partition 1, so v is on
        # the boundary although no weight leaves it. x=0 shares resource 0
        # with v; it moves first and the resource starts to span, so v
        # follows in the same pass and partition 1 is full (cap 4) before
        # z=2 is visited. Had v been left out until the resource spanned,
        # z would have moved in this pass and v been stranded alone.
        level = Level(
            weights=[1] * 5,
            adj=[[(3, 5), (4, 5)], [(3, 0)], [(3, 1)], [(0, 5), (1, 0), (2, 1)], [(0, 5)]],
            res_of=[(0,), (0,), (), (), ()],
        )
        gains = Gains(cut=1, dup=[3])
        cfg = ObjectiveConfig(k=2, epsilon=Fraction(1, 3))
        p = PartitionSet(2, (0, 0, 0, 1, 1))
        assert refine(level, p, cfg, gains) == PartitionSet(2, (1, 1, 0, 1, 1))
        assert refine_reference(level, p, cfg, gains) == PartitionSet(2, (1, 1, 0, 1, 1))

    @pytest.mark.parametrize(
        "adj,res_of,dup",
        [
            # one edge of weight 1 into partition 1: gain 1 = 1 * (1 - 0)
            ([[(2, 1)], [], [(0, 1)]], [(), (), ()], []),
            # weight 1 inside, 4 into partition 1, and the last copy of
            # resource 0 in partition 0: gain 4 - 1 + 2 = 1 * (5 - 2) + 2
            ([[(1, 1), (2, 4)], [(0, 1)], [(0, 4)]], [(0,), (), (0,)], [2]),
        ],
        ids=["cut_only", "cut_and_dup"],
    )
    def test_move_whose_gain_meets_the_skip_bound_is_taken(self, adj, res_of, dup):
        level = Level(weights=[1] * 3, adj=adj, res_of=res_of)
        cfg = ObjectiveConfig(k=2, epsilon=Fraction(1))
        p = PartitionSet(2, (0, 0, 1))
        assert refine(level, p, cfg, Gains(cut=1, dup=dup)) == PartitionSet(2, (1, 0, 1))

    def test_monotone_on_random_instances(self):
        rng = random.Random(13)
        for trial in range(200):
            n = rng.randint(3, 12)
            g = graph_from_edges(n, random_edge_set(rng, n, connected=False))
            k = rng.randint(1, min(4, n))
            assignment = [rng.randrange(k) for _ in range(n)]
            for part in range(k):  # force no empty partition
                assignment[part % n] = part
            p = PartitionSet(k, tuple(assignment))
            cfg = ObjectiveConfig(k=k, alpha=Fraction(1, 2), epsilon=Fraction(1, 2), seed=trial)
            before = objective(g, p, PRICES, cfg)
            after = objective(g, refine_graph(g, p, cfg), PRICES, cfg)
            assert after <= before


class TestPartitionGraph:
    def test_one_move_state_per_growth_and_per_refine(self, monkeypatch):
        """Each restart builds one move state to grow its partition, and
        each refine call one more, which its balance repair and its passes
        share. pbw at k=3 and epsilon 0 (the pbw-eps0 golden case) has
        levels over the cap, so repair runs."""
        g = build_graph(
            parse_dependency_xml((FIXTURES_DIR / "pbw" / "deps.xml").read_bytes()),
            parse_infra_yaml((FIXTURES_DIR / "pbw" / "manifest.yaml").read_bytes()),
        )
        builds = refines = 0

        class CountingMoves(partitioner._Moves):
            def __init__(self, *args):
                nonlocal builds
                builds += 1
                super().__init__(*args)

        def counting_refine(*args):
            nonlocal refines
            refines += 1
            return refine(*args)

        monkeypatch.setattr(partitioner, "_Moves", CountingMoves)
        monkeypatch.setattr(partitioner, "refine", counting_refine)
        cfg = ObjectiveConfig(k=3, epsilon=Fraction(0))
        partition_graph(g, PRICES, cfg)
        assert refines > cfg.restarts
        assert builds == cfg.restarts + refines

    def test_k1_objective_zero(self):
        g = graph_from_edges(5, {(0, 1): 1, (1, 2): 2, (3, 4): 1})
        cfg = ObjectiveConfig(k=1, seed=0)
        p = partition_graph(g, PRICES, cfg)
        assert p.sizes() == [5]
        assert objective(g, p, PRICES, cfg) == 0

    def test_recovers_two_ten_cliques(self):
        g = build_graph(parse_dependency_xml(clique_pair_xml(10)))
        cfg = ObjectiveConfig(k=2, alpha=1, seed=7)
        p = partition_graph(g, PRICES, cfg)
        assert edge_cut(g, p) == 1
        assert sorted(p.sizes()) == [10, 10]

    def test_best_of_restarts_beats_bad_starts(self):
        g = build_graph(parse_dependency_xml(clique_pair_xml(4)))
        for base in (0, 100, 2024):
            cfg = ObjectiveConfig(k=2, alpha=1, epsilon=Fraction(1, 10), seed=base)
            assert edge_cut(g, partition_graph(g, PRICES, cfg)) == 1

    def test_k_exceeding_classes(self):
        g = graph_from_edges(3, {(0, 1): 1})
        with pytest.raises(InputError):
            partition_graph(g, PRICES, ObjectiveConfig(k=4, seed=0))

    def test_validity_fuzz(self):
        rng = random.Random(17)
        for trial in range(500):
            n = rng.randint(2, 20)
            g = graph_from_edges(n, random_edge_set(rng, n, connected=False))
            k = rng.randint(1, n)
            cfg = ObjectiveConfig(k=k, epsilon=Fraction(1, 10), seed=trial, restarts=1)
            p = partition_graph(g, PRICES, cfg)
            assert len(p.assignment) == len(g.classes)
            cap = (1 + cfg.epsilon) * (-(-n // k))
            assert max(p.sizes()) <= cap

    def test_invalid_result_is_an_internal_error(self, monkeypatch):
        g = graph_from_edges(4, {(0, 1): 1, (2, 3): 1})
        monkeypatch.setattr(partitioner, "_single_run", lambda *a: PartitionSet(2, (0, 0, 0, 0)))
        with pytest.raises(ValueError, match="partition 1 is empty"):
            partition_graph(g, PRICES, ObjectiveConfig(k=2, seed=0))

    def test_cap_exceeded_on_unit_weights_is_an_internal_error(self, monkeypatch):
        g = graph_from_edges(4, {(0, 1): 1, (2, 3): 1})
        monkeypatch.setattr(partitioner, "_single_run", lambda *a: PartitionSet(2, (0, 0, 0, 1)))
        with pytest.raises(RuntimeError, match="largest load 3 > cap 2"):
            partition_graph(g, PRICES, ObjectiveConfig(k=2, epsilon=0, seed=0))

    def test_cap_missed_on_lumpy_weights_is_logged(self, caplog):
        g = ApplicationGraph(
            classes=(ClassNode(0, "A", weight=5), ClassNode(1, "B"), ClassNode(2, "C")),
            class_edges=graph_from_edges(3, {(0, 1): 1, (1, 2): 1}).class_edges,
        )
        p = partition_graph(g, PRICES, ObjectiveConfig(k=2, epsilon=0, seed=0, restarts=1))
        assert len(p.assignment) == len(g.classes)
        assert "largest partition load 5 exceeds the balance cap 4" in caplog.text

    def test_determinism(self):
        rng = random.Random(19)
        g = graph_from_edges(18, random_edge_set(rng, 18))
        cfg = ObjectiveConfig(k=3, seed=23)
        assert partition_graph(g, PRICES, cfg) == partition_graph(g, PRICES, cfg)

    def test_alpha_one_objective_is_pure_cut(self):
        g = build_graph(parse_dependency_xml(clique_pair_xml(5)))
        cfg = ObjectiveConfig(k=2, alpha=1, seed=5)
        p = partition_graph(g, PRICES, cfg)
        assert objective(g, p, PRICES, cfg) == edge_cut(g, p)

    def test_alpha_zero_consolidates_resource_clients(self):
        # all clients of each resource can fit inside one partition
        xml = clique_pair_xml(5)
        manifest = parse_infra_yaml(
            """
            resources:
              - {name: db1, kind: database}
              - {name: s3a, kind: s3}
            bindings:
              - {class: C0, resource: db1}
              - {class: C1, resource: db1}
              - {class: C5, resource: s3a}
              - {class: C6, resource: s3a}
            """
        )
        g = build_graph(parse_dependency_xml(xml), manifest)
        cfg = ObjectiveConfig(k=2, alpha=0, epsilon=Fraction(1, 2), seed=1)
        p = partition_graph(g, PRICES, cfg)
        assert duplication_cost(g, p, PRICES) == 0

    def test_infra_term_changes_decomposition(self):
        # db clients straddle a weak boundary: alpha picks the outcome
        xml = clique_pair_xml(5, bridges=[(3, 8)])
        manifest = parse_infra_yaml(
            """
            resources:
              - {name: db1, kind: database}
            bindings:
              - {class: C4, resource: db1}
              - {class: C5, resource: db1}
              - {class: C6, resource: db1}
            """
        )
        g = build_graph(parse_dependency_xml(xml), manifest)
        results = {}
        for alpha in (0, 1):
            cfg = ObjectiveConfig(k=2, alpha=alpha, epsilon=Fraction(1, 4), seed=3)
            p = partition_graph(g, PRICES, cfg)
            results[alpha] = build_infra_report(g, p, PRICES).total.n_db
        assert results[0] == 1
        assert results[1] == 2


@st.composite
def problems(draw):
    """A random graph with fractional edge weights and resource bindings,
    fractional prices, and a config with k <= n."""
    n = draw(st.integers(min_value=2, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    weight = st.fractions(min_value=0, max_value=5, max_denominator=12)
    edges = draw(st.dictionaries(st.sampled_from(pairs), weight, max_size=3 * n))
    kinds = draw(st.lists(st.sampled_from(list(ResourceKind)), max_size=4))
    bindings = draw(st.sets(
        st.tuples(st.integers(0, max(len(kinds) - 1, 0)), st.integers(0, n - 1)),
        max_size=3 * n,
    )) if kinds else set()
    g = ApplicationGraph(
        classes=tuple(ClassNode(i, f"N{i}") for i in range(n)),
        resources=tuple(ResourceNode(i, f"r{i}", kind) for i, kind in enumerate(kinds)),
        resource_edges=tuple(ResourceEdge(r, c) for r, c in sorted(bindings)),
        class_edges=graph_from_edges(n, edges).class_edges,
    )
    price = st.fractions(min_value=0, max_value=3, max_denominator=10)
    prices = PriceTable(
        compute=draw(price), database=draw(price), cache=draw(price), file_storage=draw(price)
    )
    cfg = ObjectiveConfig(
        k=draw(st.integers(min_value=1, max_value=n)),
        alpha=draw(st.fractions(min_value=0, max_value=1, max_denominator=9)),
        epsilon=draw(st.fractions(min_value=0, max_value=1, max_denominator=9)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        restarts=draw(st.integers(min_value=1, max_value=3)),
    )
    return g, prices, cfg


@st.composite
def refine_cases(draw):
    """A random integer ``Level`` with its ``Gains``, a config and a
    starting partition. The draws reach every corner of refine's gain
    bound: edges of weight 0, vertex weights above 1, epsilon 0, alpha 0, 1
    or a fraction, ``dup`` entries of 0 and vertices without resources."""
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.dictionaries(st.sampled_from(pairs), st.integers(0, 6), min_size=1, max_size=3 * n)
    )
    adj = [[] for _ in range(n)]
    for (u, v), w in sorted(edges.items()):
        adj[u].append((v, w))
        adj[v].append((u, w))
    for row in adj:
        row.sort()
    resources = draw(st.integers(min_value=0, max_value=4))
    bound = st.sets(st.integers(0, resources - 1), max_size=resources) if resources else st.just(set())
    res_of = [tuple(sorted(draw(bound))) for _ in range(n)]
    level = Level(
        weights=draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=n, max_size=n)),
        adj=adj,
        res_of=res_of,
    )
    # gains as scale builds them: alpha = a/d, L and U the edge and price scales
    alpha = draw(st.sampled_from(
        [Fraction(1, 2), Fraction(0), Fraction(1), Fraction(2, 7), Fraction(8, 9)]
    ))
    a, d = alpha.numerator, alpha.denominator
    lcm_edges, lcm_prices = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    units = draw(st.lists(st.integers(0, 5), min_size=resources, max_size=resources))
    gains = Gains(cut=a * lcm_prices, dup=[(d - a) * lcm_edges * u for u in units])
    k = draw(st.integers(min_value=1, max_value=n))
    epsilon = draw(st.sampled_from([Fraction(1, 2), Fraction(0), Fraction(1, 5), Fraction(2)]))
    cfg = ObjectiveConfig(k=k, alpha=alpha, epsilon=epsilon)
    assignment = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    for part, v in enumerate(draw(st.permutations(range(n)))[:k]):
        assignment[v] = part
    return level, gains, cfg, PartitionSet(k, tuple(assignment))


def random_partition(rnd, n, k):
    """A random assignment of n classes to k partitions, none of them empty."""
    assignment = [rnd.randrange(k) for _ in range(n)]
    for part, cid in enumerate(rnd.sample(range(n), k)):
        assignment[cid] = part
    return PartitionSet(k, tuple(assignment))


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(problems())
    def test_partition_valid_within_cap_and_deterministic(self, problem):
        g, prices, cfg = problem
        p = partition_graph(g, prices, cfg)
        assert len(p.assignment) == len(g.classes)
        n = len(g.classes)
        assert max(p.sizes()) <= (1 + cfg.epsilon) * (-(-n // cfg.k))
        assert partition_graph(g, prices, cfg) == p

    @settings(max_examples=150, deadline=None)
    @given(problems(), st.randoms(use_true_random=False))
    def test_refine_never_raises_objective(self, problem, rnd):
        """refine repairs the balance first, which on unit class weights
        always ends within the cap; from the repaired partition on the
        objective never rises."""
        g, prices, cfg = problem
        p = random_partition(rnd, len(g.classes), cfg.k)
        after = refine_graph(g, p, cfg, prices)
        assert len(after.assignment) == len(g.classes)
        level = level_of(g)
        assert max(after.sizes()) <= partitioner._balance_cap(level.weights, cfg)
        repaired = rebalance_reference(level, list(p.assignment), cfg)
        assert objective(g, after, prices, cfg) <= objective(g, repaired, prices, cfg)

    @settings(max_examples=300, deadline=None)
    @given(refine_cases())
    def test_refine_equals_rescanning_reference(self, case):
        level, gains, cfg, p = case
        repaired = rebalance_reference(level, list(p.assignment), cfg)
        assert refine(level, p, cfg, gains) == refine_reference(level, repaired, cfg, gains)

    @settings(max_examples=300, deadline=None)
    @given(refine_cases(), st.integers(0, 2**32))
    def test_initial_partition_equals_reference(self, case, seed):
        level, _gains, cfg, _p = case
        cfg = replace(cfg, seed=seed)
        assert initial_partition(level, cfg) == initial_partition_reference(level, cfg)

    @settings(max_examples=300, deadline=None)
    @given(refine_cases(), st.booleans())
    def test_rebalance_equals_reference(self, case, unit_weights):
        """refine's balance repair matches the rescanning reference, and on
        unit weights it always ends within the cap, as its docstring says.
        With zero gains the skip bound rejects every move, so only the
        repair runs."""
        level, gains, cfg, p = case
        if unit_weights:
            level = replace(level, weights=[1] * len(level.weights))
        after = refine(level, p, cfg, Gains(cut=0, dup=[0] * len(gains.dup)))
        assert after == rebalance_reference(level, list(p.assignment), cfg)
        if all(w == 1 for w in level.weights):
            assert max(after.sizes()) <= partitioner._balance_cap(level.weights, cfg)

    @settings(max_examples=300, deadline=None)
    @given(refine_cases(), st.integers(0, 2**32), st.randoms(use_true_random=False))
    def test_results_do_not_depend_on_row_or_resource_order(self, case, seed, rnd):
        """Every tie goes to the lowest id, so shuffling each adjacency row
        and resource tuple changes no hierarchy and no partition."""
        level, gains, cfg, p = case
        shuffled = Level(
            weights=level.weights,
            adj=[rnd.sample(row, len(row)) for row in level.adj],
            res_of=[tuple(rnd.sample(res, len(res))) for res in level.res_of],
        )

        def hierarchy(lv):
            return [
                (c.projection, c.graph.weights, [dict(row) for row in c.graph.adj],
                 [set(res) for res in c.graph.res_of])
                for c in coarsen(lv, max_levels=20, min_size=2, seed=seed)
            ]

        assert hierarchy(shuffled) == hierarchy(level)
        cfg = replace(cfg, seed=seed)
        assert initial_partition(shuffled, cfg) == initial_partition(level, cfg)
        assert refine(shuffled, p, cfg, gains) == refine(level, p, cfg, gains)

    @settings(max_examples=300, deadline=None)
    @given(problems(), st.randoms(use_true_random=False))
    def test_objective_terms_equal_fraction_oracles(self, problem, rnd):
        g, prices, cfg = problem
        p = random_partition(rnd, len(g.classes), cfg.k)
        cut = edge_cut_reference(g, p.assignment)
        dup = duplication_cost_reference(g, p.assignment, prices)
        assert edge_cut(g, p) == cut
        assert duplication_cost(g, p, prices) == dup
        assert objective(g, p, prices, cfg) == cfg.alpha * cut + (1 - cfg.alpha) * dup
        edges = edge_weights(g)
        if any(edges.values()):
            assert compute_ngm(g, p) == modularity_matrix_form(len(g.classes), edges, p.assignment)
        else:
            assert compute_ngm(g, p) == 0


class TestSweep:
    def three_cliques(self) -> ApplicationGraph:
        edges = {}
        for base in (0, 4, 8):
            for a in range(base, base + 4):
                for b in range(a + 1, base + 4):
                    edges[(a, b)] = 1
        edges[(3, 4)] = 1
        edges[(7, 8)] = 1
        return graph_from_edges(12, edges)

    def test_picks_max_modularity_k(self):
        g = self.three_cliques()
        cfg = ObjectiveConfig(k=2, alpha=1, seed=0)
        k, p = sweep_k(g, PRICES, cfg, 2, 6)
        assert k == 3
        assert compute_ngm(g, p) >= compute_ngm(
            g, partition_graph(g, PRICES, ObjectiveConfig(k=4, alpha=1, seed=0))
        )

    def test_range_clamped_to_class_count(self):
        g = graph_from_edges(3, {(0, 1): 1, (1, 2): 1})
        k, _p = sweep_k(g, PRICES, ObjectiveConfig(k=1, seed=0), 2, 9)
        assert k in (2, 3)

    def test_invalid_range(self):
        g = graph_from_edges(3, {(0, 1): 1})
        with pytest.raises(InputError):
            sweep_k(g, PRICES, ObjectiveConfig(k=1, seed=0), 3, 2)
