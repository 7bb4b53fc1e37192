"""Multilevel k-way partitioning of the class graph.

The objective blends weighted edge-cut with predicted infrastructure
duplication cost: alpha * cut + (1 - alpha) * dup_cost. The scheme is the
standard multilevel one: heavy-edge-matching coarsening, greedy graph
growing on the coarsest level, then balance-constrained boundary
refinement while projecting back. Several seeded restarts run and the
lowest objective wins (ties go to the lowest seed).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .infra import duplication_cost
from .metrics import compute_ngm, edge_cut
from .model import (
    ApplicationGraph,
    ClassEdge,
    ClassNode,
    InputError,
    PartitionSet,
    PriceTable,
    ResourceEdge,
    adjacency,
    as_fraction,
    bindings_by_class,
    check_partition,
)

log = logging.getLogger(__name__)

_MAX_LEVELS = 20
_MAX_REFINE_PASSES = 10


@dataclass(frozen=True)
class ObjectiveConfig:
    """Knobs for one partitioning run.

    ``alpha`` weighs edge-cut against infrastructure duplication (1 is pure
    cut); ``epsilon`` is the balance slack; restarts use seeds
    ``seed .. seed + restarts - 1``.
    """

    k: int
    alpha: Fraction = Fraction(1, 2)
    epsilon: Fraction = Fraction(1, 10)
    seed: int = 0
    restarts: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        if not 0 <= self.alpha <= 1:
            raise InputError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.epsilon < 0:
            raise InputError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")
        if not 0 <= self.seed < 2**64:
            raise InputError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.seed + self.restarts > 2**64:
            raise InputError(
                f"seed {self.seed} with {self.restarts} restarts leaves the 64-bit seed "
                "range: seed + restarts must be <= 2**64 (lower --seed or --restarts)"
            )


@dataclass(frozen=True)
class CoarseLevel:
    """One coarsening step: the contracted graph plus the projection from
    the finer level's class ids onto the coarse ids."""

    graph: ApplicationGraph
    projection: tuple[int, ...]


def _balance_cap(g: ApplicationGraph, cfg: ObjectiveConfig) -> Fraction:
    total = sum(c.weight for c in g.classes)
    return (1 + cfg.epsilon) * (-(-total // cfg.k))


def objective(
    g: ApplicationGraph,
    p: PartitionSet,
    prices: PriceTable,
    cfg: ObjectiveConfig,
) -> Fraction:
    """alpha * edge_cut + (1 - alpha) * duplication_cost; ``edge_cut``
    rejects an invalid partition."""
    return cfg.alpha * edge_cut(g, p) + (1 - cfg.alpha) * duplication_cost(g, p, prices)


# ---------------------------------------------------------------------------
# coarsening
# ---------------------------------------------------------------------------

def _contract(g: ApplicationGraph, proj: list[int], coarse_count: int) -> ApplicationGraph:
    groups: list[list[int]] = [[] for _ in range(coarse_count)]
    for fine, coarse in enumerate(proj):
        groups[coarse].append(fine)
    classes = tuple(
        ClassNode(
            id=cid,
            name=g.classes[min(members)].name,
            weight=sum(g.classes[v].weight for v in members),
        )
        for cid, members in enumerate(groups)
    )

    merged: dict[tuple[int, int], list] = {}
    for e in g.class_edges:
        cu, cv = proj[e.u], proj[e.v]
        if cu == cv:
            continue
        pair = (cu, cv) if cu < cv else (cv, cu)
        acc = merged.get(pair)
        if acc is None:
            merged[pair] = [e.weight, e.relation_base, e.shared_resource_count, e.flow_cooccurrence]
        else:
            acc[0] += e.weight
            acc[1] += e.relation_base
            acc[2] += e.shared_resource_count
            acc[3] += e.flow_cooccurrence
    class_edges = tuple(
        ClassEdge(u=u, v=v, weight=w, relation_base=b, shared_resource_count=s, flow_cooccurrence=f)
        for (u, v), (w, b, s, f) in sorted(merged.items())
    )

    resource_edges = tuple(
        ResourceEdge(resource=rid, cls=cid)
        for rid, cid in sorted({(re_.resource, proj[re_.cls]) for re_ in g.resource_edges})
    )

    return ApplicationGraph(
        classes=classes,
        resources=g.resources,
        flows=(),
        resource_edges=resource_edges,
        class_edges=class_edges,
        beta=g.beta,
        resource_increment=g.resource_increment,
    )


def coarsen(
    g: ApplicationGraph, max_levels: int, min_size: int, seed: int
) -> list[CoarseLevel]:
    """Successive heavy-edge-matching contractions.

    Vertices are visited in a seeded random order; each unmatched vertex
    pairs with its heaviest unmatched neighbor (ties to the lowest id).
    Stops at ``max_levels``, at ``min_size`` vertices, or when no pair
    matches.
    """
    if not g.classes:
        raise InputError("cannot coarsen an empty graph")
    levels: list[CoarseLevel] = []
    current = g
    rng = random.Random(seed)
    while len(levels) < max_levels and len(current.classes) > min_size:
        n = len(current.classes)
        adj = adjacency(current)
        order = list(range(n))
        rng.shuffle(order)
        match = [-1] * n
        matched_any = False
        for v in order:
            if match[v] != -1:
                continue
            best = -1
            best_w: Fraction | None = None
            for u, w in adj[v]:
                if u != v and match[u] == -1 and (best_w is None or w > best_w):
                    best, best_w = u, w
            if best != -1:
                match[v] = best
                match[best] = v
                matched_any = True
        if not matched_any:
            break
        proj = [-1] * n
        next_id = 0
        for v in range(n):
            if proj[v] != -1:
                continue
            proj[v] = next_id
            partner = match[v]
            if partner != -1:
                proj[partner] = next_id
            next_id += 1
        coarse = _contract(current, proj, next_id)
        levels.append(CoarseLevel(graph=coarse, projection=tuple(proj)))
        current = coarse
    return levels


# ---------------------------------------------------------------------------
# initial partition and balance repair
# ---------------------------------------------------------------------------

def initial_partition(coarse: ApplicationGraph, cfg: ObjectiveConfig) -> PartitionSet:
    """Greedy graph growing from k seeded start vertices.

    Regions grow by repeatedly taking the (vertex, region) pair with the
    highest connection weight among cap-respecting regions (ties to the
    lowest vertex id, then lowest region); vertices with no positive
    connection go to the lightest region. Growth is cut-driven; the
    infrastructure term enters during refinement.
    """
    n = len(coarse.classes)
    k = cfg.k
    if k > n:
        raise InputError(f"k={k} exceeds vertex count {n}")
    rng = random.Random(cfg.seed)
    weights = [c.weight for c in coarse.classes]
    cap = _balance_cap(coarse, cfg)
    adj = adjacency(coarse)

    assign = [-1] * n
    load = [0] * k
    for region, v in enumerate(rng.sample(range(n), k)):
        assign[v] = region
        load[region] = weights[v]

    # conn[v][r]: total edge weight from unassigned v into region r
    conn = [[Fraction(0)] * k for _ in range(n)]
    for v in range(n):
        if assign[v] != -1:
            for u, w in adj[v]:
                if assign[u] == -1:
                    conn[u][assign[v]] += w

    for _ in range(n - k):
        best_v = best_r = -1
        best_w = Fraction(0)
        for v in range(n):
            if assign[v] != -1:
                continue
            row = conn[v]
            for r in range(k):
                if row[r] > best_w and load[r] + weights[v] <= cap:
                    best_v, best_r, best_w = v, r, row[r]
        if best_v == -1:
            best_v = next(v for v in range(n) if assign[v] == -1)
            feasible = [r for r in range(k) if load[r] + weights[best_v] <= cap]
            candidates = feasible if feasible else list(range(k))
            best_r = min(candidates, key=lambda r: (load[r], r))
        assign[best_v] = best_r
        load[best_r] += weights[best_v]
        for u, w in adj[best_v]:
            if assign[u] == -1:
                conn[u][best_r] += w
    return PartitionSet(k=k, assignment=tuple(assign))


def _rebalance(
    g: ApplicationGraph, assign: list[int], cfg: ObjectiveConfig
) -> list[int]:
    """Move vertices out of over-cap partitions, cheapest cut damage first.

    Always succeeds on unit vertex weights; on lumpy coarse levels it is
    best-effort (finer levels repair the rest).
    """
    n = len(g.classes)
    k = cfg.k
    weights = [c.weight for c in g.classes]
    cap = _balance_cap(g, cfg)
    adj = adjacency(g)
    load = [0] * k
    size = [0] * k
    for v, r in enumerate(assign):
        load[r] += weights[v]
        size[r] += 1

    while True:
        src = min(range(k), key=lambda r: (-load[r], r))
        if load[src] <= cap or size[src] < 2:
            break
        best: tuple[Fraction, int, int] | None = None  # (cut increase, vertex, target)
        for v in range(n):
            if assign[v] != src:
                continue
            conn = [Fraction(0)] * k
            for u, w in adj[v]:
                conn[assign[u]] += w
            for dst in range(k):
                if dst == src or load[dst] + weights[v] > cap:
                    continue
                key = (conn[src] - conn[dst], v, dst)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, v, dst = best
        assign[v] = dst
        load[src] -= weights[v]
        load[dst] += weights[v]
        size[src] -= 1
        size[dst] += 1
    return assign


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def refine(
    g: ApplicationGraph,
    p: PartitionSet,
    cfg: ObjectiveConfig,
    prices: PriceTable,
) -> PartitionSet:
    """Boundary refinement sweeps under the blended objective.

    Each pass visits candidate vertices in ascending id order and applies
    the vertex's best positive-gain move among balance-respecting targets;
    candidates are boundary vertices plus clients of partition-spanning
    resources. Duplication gains use exact incremental copy counts. Stops
    when a pass applies nothing, or after 10 passes; the objective never
    increases.
    """
    check_partition(g, p)
    n = len(g.classes)
    k = p.k
    if k == 1:
        return p
    assign = list(p.assignment)
    weights = [c.weight for c in g.classes]
    cap = _balance_cap(g, cfg)
    adj = adjacency(g)
    res_of = bindings_by_class(g)
    unit = [prices.unit_cost(r.kind) for r in g.resources]
    alpha = cfg.alpha
    beta = 1 - alpha

    # res_count[rid]: partition -> number of bound client classes in it
    res_count: list[dict[int, int]] = [dict() for _ in g.resources]
    for v in range(n):
        for rid in res_of[v]:
            counts = res_count[rid]
            counts[assign[v]] = counts.get(assign[v], 0) + 1

    load = [0] * k
    size = [0] * k
    for v, r in enumerate(assign):
        load[r] += weights[v]
        size[r] += 1

    for _ in range(_MAX_REFINE_PASSES):
        candidates = []
        for v in range(n):
            if any(assign[u] != assign[v] for u, _w in adj[v]):
                candidates.append(v)
            elif any(len(res_count[rid]) > 1 for rid in res_of[v]):
                candidates.append(v)
        moved = False
        for v in candidates:
            src = assign[v]
            if size[src] < 2:
                continue
            conn = [Fraction(0)] * k
            for u, w in adj[v]:
                conn[assign[u]] += w
            targets = {assign[u] for u, _w in adj[v]}
            for rid in res_of[v]:
                targets.update(res_count[rid])
            targets.discard(src)
            best_gain = Fraction(0)
            best_dst = -1
            for dst in sorted(targets):
                if load[dst] + weights[v] > cap:
                    continue
                gain = alpha * (conn[dst] - conn[src])
                if beta and res_of[v]:
                    dup_delta = Fraction(0)
                    for rid in res_of[v]:
                        counts = res_count[rid]
                        if counts.get(src, 0) == 1:
                            dup_delta += unit[rid]
                        if counts.get(dst, 0) == 0:
                            dup_delta -= unit[rid]
                    gain += beta * dup_delta
                if gain > best_gain:
                    best_gain, best_dst = gain, dst
            if best_dst == -1:
                continue
            dst = best_dst
            assign[v] = dst
            load[src] -= weights[v]
            load[dst] += weights[v]
            size[src] -= 1
            size[dst] += 1
            for rid in res_of[v]:
                counts = res_count[rid]
                counts[src] -= 1
                if counts[src] == 0:
                    del counts[src]
                counts[dst] = counts.get(dst, 0) + 1
            moved = True
        if not moved:
            break
    return PartitionSet(k=k, assignment=tuple(assign))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _single_run(
    g: ApplicationGraph, prices: PriceTable, cfg: ObjectiveConfig
) -> PartitionSet:
    min_size = max(8, 4 * cfg.k)
    levels = coarsen(g, max_levels=_MAX_LEVELS, min_size=min_size, seed=cfg.seed)
    graphs = [g] + [level.graph for level in levels]

    coarsest = graphs[-1]
    p = initial_partition(coarsest, cfg)
    assign = _rebalance(coarsest, list(p.assignment), cfg)
    p = refine(coarsest, PartitionSet(cfg.k, tuple(assign)), cfg, prices)

    for li in range(len(levels) - 1, -1, -1):
        fine = graphs[li]
        proj = levels[li].projection
        fine_assign = [p.assignment[proj[v]] for v in range(len(fine.classes))]
        fine_assign = _rebalance(fine, fine_assign, cfg)
        p = refine(fine, PartitionSet(cfg.k, tuple(fine_assign)), cfg, prices)
    return p


def partition_graph(
    g: ApplicationGraph, prices: PriceTable, cfg: ObjectiveConfig
) -> PartitionSet:
    """Best-of-restarts multilevel partitioning.

    Runs the coarsen / grow / refine pipeline once per restart with seeds
    ``cfg.seed + i`` and returns the result with the lowest objective,
    ties to the lowest seed. The result is balanced with no empty
    partition.
    """
    n = len(g.classes)
    if n == 0:
        raise InputError("cannot partition an empty graph")
    if cfg.k > n:
        raise InputError(f"k={cfg.k} exceeds class count {n}")
    best_p: PartitionSet | None = None
    best_obj: Fraction | None = None
    for i in range(cfg.restarts):
        # restarts=1: each run is one seed, so the seed-range check in
        # ObjectiveConfig sees only that seed
        run_cfg = replace(cfg, seed=cfg.seed + i, restarts=1)
        p = _single_run(g, prices, run_cfg)
        obj = objective(g, p, prices, cfg)
        if best_obj is None or obj < best_obj:
            best_p, best_obj = p, obj
    assert best_p is not None
    return best_p


def sweep_k(
    g: ApplicationGraph,
    prices: PriceTable,
    cfg: ObjectiveConfig,
    k_lo: int,
    k_hi: int,
) -> tuple[int, PartitionSet]:
    """Try every k in [k_lo, k_hi] and keep the max-modularity result
    (ties to the lowest k); k values above the class count are skipped."""
    if k_lo < 1 or k_hi < k_lo:
        raise InputError(f"invalid sweep range {k_lo}..{k_hi}")
    n = len(g.classes)
    best: tuple[Fraction, int, PartitionSet] | None = None
    for k in range(k_lo, min(k_hi, n) + 1):
        p = partition_graph(g, prices, replace(cfg, k=k))
        q = compute_ngm(g, p) if g.class_edges else Fraction(0)
        log.info("sweep k=%d: NGM %s", k, q)
        if best is None or q > best[0]:
            best = (q, k, p)
    if best is None:
        raise InputError(f"sweep range {k_lo}..{k_hi} is infeasible for {n} classes")
    return best[1], best[2]
