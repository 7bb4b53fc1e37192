"""Acceptance gate: one check per shipping criterion, one line per result.

Each test prints ``criterion N: PASS/FAIL - <what it guards>`` on the real
stdout so the gate is readable straight from the pytest run. Thresholds and
seeds are pinned here; loosening them is a release decision, not a test fix.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

from conftest import FIXTURES_DIR, calls, clique_pair_xml, graph_from_edges, random_edge_set

from oracles import brute_force_min_cut_k2, modularity_matrix_form

from monopart.graphbuild import build_graph
from monopart.infra import build_infra_report, monolith_baseline
from monopart.ingest import parse_dependency_xml, parse_infra_yaml
from monopart.metrics import GroundTruth, compute_f1, compute_ifn, compute_ngm, edge_cut, load_ground_truth
from monopart.model import (
    ApplicationGraph,
    ClassNode,
    InfrastructureFactor,
    PartitionSet,
    PriceTable,
    ResourceEdge,
    ResourceKind,
    ResourceNode,
)
from monopart.partitioner import ObjectiveConfig, objective, partition_graph

PRICES = PriceTable.default()


@contextmanager
def criterion(num: int, desc: str, capsys: pytest.CaptureFixture):
    """Print the gate verdict on the real terminal, past pytest capture."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num}: FAIL - {desc}", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {num}: PASS - {desc}", flush=True)


def test_criterion_1_modularity_oracle(capsys):
    with criterion(1, "modularity matches two independent oracles on 100 random graphs in under 5s", capsys):
        start = time.perf_counter()
        rng = random.Random(101)
        for case in range(100):
            n = rng.randint(2, 30)
            edges = random_edge_set(rng, n)
            g = graph_from_edges(n, edges)
            k = rng.randint(1, n)
            raw = [rng.randrange(k) for _ in range(n)]
            remap = {lbl: i for i, lbl in enumerate(sorted(set(raw)))}
            p = PartitionSet(len(remap), tuple(remap[a] for a in raw))
            # unweighted modularity is the modularity of the unit-weight copy
            unit = graph_from_edges(n, dict.fromkeys(edges, 1))
            for weighted, graph in ((True, g), (False, unit)):
                mine = compute_ngm(graph, p)
                assert mine == modularity_matrix_form(n, edges, p.assignment, weighted=weighted)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            for (u, v), w in edges.items():
                nxg.add_edge(u, v, weight=float(w))
            communities = [{v for v in range(n) if p.assignment[v] == c} for c in range(p.k)]
            ref = nx.algorithms.community.modularity(nxg, communities, weight="weight")
            assert abs(float(compute_ngm(g, p)) - ref) < 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_2_two_triangles_bridge(capsys):
    with criterion(2, "two triangles joined by one bridge score exactly 5/14", capsys):
        edges = {
            (0, 1): 1, (0, 2): 1, (1, 2): 1,
            (3, 4): 1, (3, 5): 1, (4, 5): 1,
            (2, 3): 1,
        }
        g = graph_from_edges(6, edges)
        q = compute_ngm(g, PartitionSet(2, (0, 0, 0, 1, 1, 1)))
        assert q == Fraction(5, 14)
        assert isinstance(q, Fraction)


def test_criterion_3_near_optimal_bisection(capsys):
    with criterion(3, "k=2 cut within 1.5x of brute-force optimum on 100 graphs, >=80 exactly optimal, under 30s", capsys):
        start = time.perf_counter()
        rng = random.Random(7)
        optimal = 0
        worst = Fraction(0)
        for case in range(100):
            n = rng.randint(4, 10)
            edges = random_edge_set(rng, n)
            g = graph_from_edges(n, edges)
            cfg = ObjectiveConfig(
                k=2, alpha=1, epsilon=Fraction(1, 2), seed=case * 17, restarts=8
            )
            cut = edge_cut(g, partition_graph(g, PRICES, cfg))
            opt = brute_force_min_cut_k2(n, edges, Fraction(1, 2))
            assert opt > 0  # connected graphs
            ratio = Fraction(cut) / opt
            worst = max(worst, ratio)
            optimal += cut == opt
            assert ratio <= Fraction(3, 2), (case, cut, opt)
        assert optimal >= 80, optimal
        assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize(
    "name,k",
    [("daytrader", 6), ("jpetstore", 3), ("springblog", 5), ("pbw", 4)],
    ids=["daytrader", "jpetstore", "springblog", "pbw"],
)
def test_criterion_4_planted_fixture_recovery(name: str, k: int, capsys):
    with criterion(4, f"planted fixture {name}: F1 >= 0.6 and NGM >= 0.3 at k={k}", capsys):
        start = time.perf_counter()
        deps = parse_dependency_xml((FIXTURES_DIR / name / "deps.xml").read_text())
        manifest = parse_infra_yaml((FIXTURES_DIR / name / "manifest.yaml").read_text())
        truth = load_ground_truth((FIXTURES_DIR / name / "truth.yaml").read_text())
        g = build_graph(deps, manifest)
        cfg = ObjectiveConfig(k=k, alpha=Fraction(1, 2), seed=42, restarts=8)
        p = partition_graph(g, PRICES, cfg)
        f1 = compute_f1(p, truth, g.names())
        ngm = compute_ngm(g, p)
        assert f1 >= Fraction(3, 5), float(f1)
        assert ngm >= Fraction(3, 10), float(ngm)
        assert time.perf_counter() - start < 60.0


def eight_class_graph() -> ApplicationGraph:
    classes = tuple(ClassNode(i, f"C{i}") for i in range(8))
    resources = (
        ResourceNode(0, "db1", ResourceKind.DATABASE),
        ResourceNode(1, "s3a", ResourceKind.FILE_STORAGE),
        ResourceNode(2, "s3b", ResourceKind.FILE_STORAGE),
        ResourceNode(3, "cacheA", ResourceKind.CACHE),
    )
    resource_edges = (
        ResourceEdge(0, 0), ResourceEdge(0, 1), ResourceEdge(0, 4),
        ResourceEdge(1, 1), ResourceEdge(1, 2),
        ResourceEdge(2, 2), ResourceEdge(2, 5),
        ResourceEdge(3, 6),
    )
    class_edges = graph_from_edges(8, {(i, i + 1): 1 for i in range(7)}).class_edges
    return ApplicationGraph(
        classes=classes,
        resources=resources,
        resource_edges=resource_edges,
        class_edges=class_edges,
    )


def test_criterion_5_factor_prediction(capsys):
    with criterion(5, "per-partition infrastructure factors match hand-computed values and bound the monolith", capsys):
        g = eight_class_graph()
        p = PartitionSet(3, (0, 0, 0, 1, 1, 1, 2, 2))
        expected = [
            InfrastructureFactor(n_ec=1, n_s3=2, n_db=1, n_ca=0),
            InfrastructureFactor(n_ec=1, n_s3=1, n_db=1, n_ca=0),
            InfrastructureFactor(n_ec=1, n_s3=0, n_db=0, n_ca=1),
        ]
        report = build_infra_report(g, p, PRICES)
        factors = [(idx, f) for idx, f, _names in report.per_partition]
        assert factors == list(enumerate(expected)), factors
        total = InfrastructureFactor(0, 0, 0, 0)
        for _idx, f in factors:
            total = total + f
        assert total == report.total == InfrastructureFactor(n_ec=3, n_s3=3, n_db=2, n_ca=1)
        base = monolith_baseline(g)
        assert all(t >= b for t, b in zip(astuple(total), astuple(base)))  # total dominates base
        # equality holds exactly in the kinds no resource of which is split
        assert total.n_ca == base.n_ca  # cacheA stays inside partition 2
        assert total.n_db > base.n_db  # db1 spans partitions 0 and 1
        assert total.n_s3 > base.n_s3  # s3b spans partitions 0 and 1


def test_criterion_6_alpha_steers_database_duplication(capsys):
    with criterion(6, "alpha=0 consolidates the shared database (1 copy) while alpha=1 splits it (2 copies)", capsys):
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
        copies = {}
        for alpha in (0, 1):
            cfg = ObjectiveConfig(k=2, alpha=alpha, epsilon=Fraction(1, 4), seed=3)
            p = partition_graph(g, PRICES, cfg)
            copies[alpha] = build_infra_report(g, p, PRICES).total.n_db
        assert copies[0] == 1, copies
        assert copies[1] == 2, copies


def test_criterion_7_single_partition_identities(capsys):
    with criterion(7, "k=1 yields zero objective, zero cut, zero NGM, zero IFN, and the monolith baseline on 50 graphs", capsys):
        rng = random.Random(55)
        for trial in range(50):
            n = rng.randint(2, 15)
            edges = random_edge_set(rng, n)
            g = graph_from_edges(n, edges)
            cfg = ObjectiveConfig(k=1, seed=trial)
            p = partition_graph(g, PRICES, cfg)
            assert p.sizes() == [n]
            assert objective(g, p, PRICES, cfg) == 0
            assert edge_cut(g, p) == 0
            assert compute_ngm(g, p) == 0
            total, mean, _per = compute_ifn(calls(*edges), p)
            assert total == 0 and mean == 0
            report = build_infra_report(g, p, PRICES)
            assert report.total == report.monolith_baseline
            assert report.total_cost == report.baseline_cost


def test_criterion_8_pipeline_determinism(tmp_path: Path, capsys):
    with criterion(8, "running the full pipeline twice produces byte-identical artifacts", capsys):
        src = FIXTURES_DIR / "jpetstore"
        artifacts = {}
        for run in ("first", "second"):
            out = tmp_path / run
            cmds = [
                ["ingest", "--deps", str(src / "deps.xml"), "--manifest", str(src / "manifest.yaml")],
                ["partition", "--k", "3", "--seed", "42"],
                ["evaluate", "--truth", str(src / "truth.yaml"), "--name", "jpetstore"],
                ["dot", "--partition", str(out / "partition.json")],
            ]
            for cmd in cmds:
                proc = subprocess.run(
                    [sys.executable, "-m", "monopart", *cmd, "--out", str(out)],
                    capture_output=True,
                    text=True,
                )
                assert proc.returncode == 0, (cmd, proc.stderr)
            artifacts[run] = {
                f.name: f.read_bytes() for f in sorted(out.iterdir())
            }
        assert set(artifacts["first"]) == {
            "graph.json", "partition.json", "infra_report.json", "evaluation.json", "graph.dot",
        }
        assert artifacts["first"] == artifacts["second"]


def test_criterion_9_pairwise_f1_anchors(capsys):
    with criterion(9, "pairwise F1 hits 1.0 on a perfect match, exactly 1/2 on a known merge, 0 on all-singletons", capsys):
        names = ["A", "B", "C", "D"]
        perfect = PartitionSet(2, (0, 0, 1, 1))
        truth = GroundTruth({"A": "x", "B": "x", "C": "y", "D": "y"})
        assert compute_f1(perfect, truth, names) == 1

        merge = PartitionSet(1, (0, 0, 0))
        merge_truth = GroundTruth({"A": "x", "B": "x", "C": "y"})
        assert compute_f1(merge, merge_truth, ["A", "B", "C"]) == Fraction(1, 2)

        singletons = PartitionSet(4, (0, 1, 2, 3))
        lumped = GroundTruth({n: "all" for n in names})
        assert compute_f1(singletons, lumped, names) == 0
