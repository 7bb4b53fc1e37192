"""Multilevel k-way partitioning of the class graph.

The objective blends weighted edge-cut with predicted infrastructure
duplication cost: alpha * cut + (1 - alpha) * dup_cost. The scheme is the
standard multilevel one: heavy-edge-matching coarsening, greedy graph
growing on the coarsest level, then balance repair and boundary
refinement while projecting back. Several seeded restarts run and the
lowest objective wins (ties go to the lowest seed).

Numeric policy: rationals at the boundaries, integers inside. The graph
holds its edge weights as integers over L, the LCM of their denominators
(``ApplicationGraph.class_edges``); prices and alpha arrive as exact
rationals, and each restart is scored by the exact rational
:func:`objective`. In between, :func:`scale` converts the rest once: unit
prices are multiplied by U, the LCM of their denominators; with alpha =
a/d, a move's gain times d*L*U is the integer ``a*U*dcut + (d-a)*L*ddup``
in the scaled units. Loads are integers, so the balance cap is the floor of the
rational one. Multiplying every compared quantity by the same positive
constant keeps each comparison and tie-break, so the integer kernels
choose exactly the partitions rational arithmetic would.

A level's adjacency row maps each neighbour to its scaled edge weight.
Every tie goes to the lowest id by a comparison at the choice itself, so
rows and resource tuples carry no order. Growth builds one move
state, ``_Moves``, without resources, and each level's :func:`refine`
builds one for its balance repair and refinement. A state holds the
partition loads and sizes, per vertex its scaled edge weight into each
partition, and per resource its client count in each partition. A move
updates only the moved vertex's neighbours and resources, so a
refinement pass costs the candidates it visits rather than a rescan of
every edge. A vertex moves only where it has edge weight or a copy of
one of its resources, as elsewhere it cannot gain, and it is skipped
when not even the best case gains: all of its edge weight outside its
partition going to one target, and every resource copy it alone keeps
alive disappearing. Both rules hold only because edge weights, alpha and
prices are non-negative: ``ApplicationGraph``, ``ObjectiveConfig`` and
``PriceTable`` each reject a negative one when they are made.
"""

from __future__ import annotations

import logging
import random
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import compress

from .infra import duplication_cost
from .metrics import compute_ngm, edge_cut
from .model import (
    ApplicationGraph,
    InputError,
    PartitionSet,
    PriceTable,
    adjacency,
    as_fraction,
    as_int,
    to_integers,
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
        for name in ("k", "restarts", "seed"):
            as_int(getattr(self, name), name)
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
class Level:
    """One level of the multilevel hierarchy in integer form.

    ``weights[v]`` is vertex v's balance weight (the summed weights of the
    classes it stands for); ``adj[v]`` maps each neighbour to the edge
    weight between them, scaled to an integer by :func:`scale` (a coarse
    level keeps the dicts :func:`_contract` merged its rows in);
    ``res_of[v]`` holds the ids of the resources bound to any class it
    stands for. Rows and resource tuples are in any order.
    """

    weights: list[int]
    adj: list[dict[int, int]]
    res_of: list[tuple[int, ...]]

    @property
    def classes(self) -> list[int]:
        """One entry per vertex, as ``ApplicationGraph.classes`` has one per
        class, so a level's size is read as a graph's is."""
        return self.weights


@dataclass(frozen=True)
class Gains:
    """The blended objective over the common denominator ``d*L*U`` (see the
    module docstring): a move gains ``cut`` per unit of scaled edge weight
    it takes out of the cut, and ``dup[rid]`` per copy of resource ``rid``
    it removes."""

    cut: int
    dup: list[int]


@dataclass(frozen=True)
class CoarseLevel:
    """One coarsening step: the contracted level plus the projection from
    the finer level's vertex ids onto the coarse ids."""

    graph: Level
    projection: tuple[int, ...]


def scale(g: ApplicationGraph, prices: PriceTable, cfg: ObjectiveConfig) -> tuple[Level, Gains]:
    """The finest level of ``g`` and the objective's gains, as integers.

    Edge weights are the graph's integers over L, and unit prices are
    multiplied by U, the LCM of their denominators. With alpha = a/d a
    move's gain times d*L*U is ``a*U * scaled cut gain + (d-a)*L * scaled
    dup gain``.
    """
    edges = g.class_edges
    lcm_prices, unit = to_integers([prices.unit_cost(r.kind) for r in g.resources])
    bound: list[set[int]] = [set() for _ in g.classes]
    for edge in g.resource_edges:
        bound[edge.cls].add(edge.resource)
    level = Level(
        weights=[c.weight for c in g.classes],
        adj=adjacency(g),
        res_of=[tuple(b) for b in bound],
    )
    a, d = cfg.alpha.numerator, cfg.alpha.denominator
    gains = Gains(
        cut=a * lcm_prices,
        dup=[(d - a) * edges.scale * u for u in unit],
    )
    return level, gains


def _balance_cap(weights: list[int], cfg: ObjectiveConfig) -> int:
    """Largest load a partition may carry: floor((1 + epsilon) * ceil(total / k)).
    Loads are integers, so the floor admits exactly the loads the rational
    cap does."""
    per_part = -(-sum(weights) // cfg.k)
    eps = cfg.epsilon
    return (eps.denominator + eps.numerator) * per_part // eps.denominator


def objective(
    g: ApplicationGraph,
    p: PartitionSet,
    prices: PriceTable,
    cfg: ObjectiveConfig,
) -> Fraction:
    """alpha * edge_cut + (1 - alpha) * duplication_cost; both reject a
    partition of another graph."""
    return cfg.alpha * edge_cut(g, p) + (1 - cfg.alpha) * duplication_cost(g, p, prices)


# ---------------------------------------------------------------------------
# coarsening
# ---------------------------------------------------------------------------

def _contract(level: Level, proj: list[int], coarse_count: int) -> Level:
    weights = [0] * coarse_count
    merged: list[dict[int, int]] = [{} for _ in range(coarse_count)]
    bound: list[set[int]] = [set() for _ in range(coarse_count)]
    for v, cv in enumerate(proj):
        weights[cv] += level.weights[v]
        bound[cv].update(level.res_of[v])
        row = merged[cv]
        for u, w in level.adj[v].items():
            cu = proj[u]
            if cu != cv:
                row[cu] = row.get(cu, 0) + w
    return Level(
        weights=weights,
        adj=merged,
        res_of=[tuple(b) for b in bound],
    )


def coarsen(
    level: Level, max_levels: int, min_size: int, seed: int
) -> list[CoarseLevel]:
    """Successive heavy-edge-matching contractions.

    Vertices are visited in a seeded random order; each unmatched vertex
    pairs with its heaviest unmatched neighbor (ties to the lowest id).
    Stops at ``max_levels``, at ``min_size`` vertices, or when no pair
    matches.
    """
    if not level.weights:
        raise InputError("cannot coarsen an empty graph")
    levels: list[CoarseLevel] = []
    current = level
    rng = random.Random(seed)
    while len(levels) < max_levels and len(current.weights) > min_size:
        n = len(current.weights)
        adj = current.adj
        order = list(range(n))
        rng.shuffle(order)
        match = [-1] * n
        matched_any = False
        for v in order:
            if match[v] != -1:
                continue
            best = best_w = -1
            for u, w in adj[v].items():
                if match[u] == -1 and (best == -1 or w > best_w or (w == best_w and u < best)):
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
# move state
# ---------------------------------------------------------------------------

class _Moves:
    """A partition of a level under construction, with every tally a move
    changes.

    ``assign[v]`` is v's partition; ``load[r]`` and ``size[r]`` are the
    summed weight and the vertex count of partition r; ``conn[v][r]`` is the
    scaled edge weight from v into r, summed over the neighbour → weight
    items of v's row; ``res_count[rid]`` maps each partition
    holding a client of resource rid to its number of clients there.
    :meth:`move` keeps all of them true, touching only the moved vertex's
    neighbours and resources.
    """

    def __init__(self, level: Level, assign: Sequence[int], parts: int) -> None:
        self.level = level
        self.assign = assign = list(assign)
        self.load = load = [0] * parts
        self.size = size = [0] * parts
        for part, weight in zip(assign, level.weights):
            load[part] += weight
            size[part] += 1
        self.conn: list[list[int]] = []
        for row in level.adj:
            weight_to = [0] * parts
            for u, w in row.items():
                weight_to[assign[u]] += w
            self.conn.append(weight_to)
        self.res_count: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for part, res in zip(assign, level.res_of):
            for rid in res:
                counts = self.res_count[rid]
                counts[part] = counts.get(part, 0) + 1

    def move(self, v: int, dst: int) -> None:
        """Move vertex v into partition ``dst``."""
        assign, load, size, level = self.assign, self.load, self.size, self.level
        src = assign[v]
        assign[v] = dst
        load[src] -= level.weights[v]
        load[dst] += level.weights[v]
        size[src] -= 1
        size[dst] += 1
        res_count = self.res_count
        for rid in level.res_of[v]:
            counts = res_count[rid]
            counts[src] -= 1
            if counts[src] == 0:
                del counts[src]
            counts[dst] = counts.get(dst, 0) + 1
        conn = self.conn
        for u, w in level.adj[v].items():
            conn[u][src] -= w
            conn[u][dst] += w


# ---------------------------------------------------------------------------
# initial partition and balance repair
# ---------------------------------------------------------------------------

def initial_partition(coarse: Level, cfg: ObjectiveConfig) -> PartitionSet:
    """Greedy graph growing from k seeded start vertices.

    Regions grow by repeatedly taking the (vertex, region) pair with the
    highest connection weight among cap-respecting regions (ties to the
    lowest vertex id, then lowest region); vertices with no positive
    connection go to the lightest region. Growth is cut-driven; the
    infrastructure term enters during refinement. Unplaced vertices wait in
    an extra partition k of the move state, so a placement is a move.
    """
    weights = coarse.weights
    n = len(weights)
    k = cfg.k
    if k > n:
        raise InputError(f"k={k} exceeds vertex count {n}")
    rng = random.Random(cfg.seed)
    cap = _balance_cap(weights, cfg)
    state = _Moves(replace(coarse, res_of=[()] * n), [k] * n, k + 1)
    assign, load, conn = state.assign, state.load, state.conn
    for region, v in enumerate(rng.sample(range(n), k)):
        state.move(v, region)

    for _ in range(n - k):
        best_v = best_r = -1
        best_w = 0
        for v in range(n):
            if assign[v] != k:
                continue
            row = conn[v]
            for r in range(k):
                if row[r] > best_w and load[r] + weights[v] <= cap:
                    best_v, best_r, best_w = v, r, row[r]
        if best_v == -1:
            best_v = assign.index(k)
            feasible = [r for r in range(k) if load[r] + weights[best_v] <= cap]
            candidates = feasible if feasible else list(range(k))
            best_r = min(candidates, key=lambda r: (load[r], r))
        state.move(best_v, best_r)
    return PartitionSet(k=k, assignment=tuple(assign))


def _repair(state: _Moves, cap: int) -> None:
    """Move vertices out of over-cap partitions, cheapest cut damage first.

    Always succeeds on unit vertex weights; on lumpy coarse levels it is
    best-effort (finer levels repair the rest).
    """
    assign, load, size, conn = state.assign, state.load, state.size, state.conn
    weights = state.level.weights
    k = len(load)
    while True:
        src = min(range(k), key=lambda r: (-load[r], r))
        if load[src] <= cap or size[src] < 2:
            break
        best: tuple[int, int, int] | None = None  # (cut increase, vertex, target)
        for v, part in enumerate(assign):
            if part != src:
                continue
            row = conn[v]
            for dst in range(k):
                if dst == src or load[dst] + weights[v] > cap:
                    continue
                key = (row[src] - row[dst], v, dst)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        state.move(best[1], best[2])


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def refine(
    level: Level,
    p: PartitionSet,
    cfg: ObjectiveConfig,
    gains: Gains,
) -> PartitionSet:
    """Boundary refinement sweeps under the blended objective, after
    repairing a partition over the balance cap with :func:`_repair`.

    Each pass visits candidate vertices in ascending id order and applies
    the vertex's best positive-gain move among balance-respecting targets
    (ties to the lowest partition id); candidates are boundary vertices
    plus clients of partition-spanning resources, taken when the pass
    starts. Duplication gains use exact incremental copy counts. Stops when
    a pass applies nothing, or after 10 passes. The objective never rises
    above that of the repaired partition, so for a partition within the
    cap it never increases.

    Nothing is rescanned per pass: the tallies are those of the shared
    move state ``_Moves``, built once per call for repair and refinement.
    With ``wdeg[v]`` v's total edge weight and ``dupsum[v]`` the summed
    ``dup`` of its resources, a candidate is skipped when ``cut * (wdeg[v]
    - 2 * conn[v][src]) + dupsum[v] <= 0``: with non-negative edge weights
    and gains, as :func:`scale` guarantees, no move of v gains more, so the
    skip drops no positive-gain move. v is on the boundary when
    ``conn[v][src] != wdeg[v]`` or a neighbour over a weight-0 edge
    (``zero[v]``) is outside src. Its targets are the partitions it has
    weight into or holding a copy of one of its resources: any other gains
    at most ``saved - dupsum[v] <= 0``.
    """
    k = p.k
    weights = level.weights
    cap = _balance_cap(weights, cfg)
    res_of = level.res_of
    cut_gain = gains.cut
    dup = gains.dup
    state = _Moves(level, p.assignment, k)
    _repair(state, cap)
    assign, load, size = state.assign, state.load, state.size
    conn, res_count = state.conn, state.res_count
    wdeg = list(map(sum, conn))
    zero = [[u for u, w in row.items() if not w] for row in level.adj]
    # ceiling[v] - 2 * cut * conn[v][src] bounds the gain of every move of v
    ceiling = [cut_gain * w + sum(dup[rid] for rid in res) for w, res in zip(wdeg, res_of)]

    for _ in range(_MAX_REFINE_PASSES):
        candidates = [
            v for v, src in enumerate(assign)
            if conn[v][src] != wdeg[v]
            or any(assign[u] != src for u in zero[v])
            or any(len(res_count[rid]) > 1 for rid in res_of[v])
        ]
        moved = False
        for v in candidates:
            src = assign[v]
            if size[src] < 2:
                continue
            conn_v = conn[v]
            if ceiling[v] <= 2 * cut_gain * conn_v[src]:
                continue
            res = res_of[v]
            targets = set(compress(range(k), conn_v))
            for rid in res:
                targets.update(res_count[rid])
            targets.discard(src)
            # dup saved at src: resources whose last client there is v
            saved = sum(dup[rid] for rid in res if res_count[rid][src] == 1)
            best_gain = 0
            best_dst = -1
            for dst in targets:
                if load[dst] + weights[v] > cap:
                    continue
                gain = cut_gain * (conn_v[dst] - conn_v[src])
                if res:
                    gain += saved - sum(dup[rid] for rid in res if dst not in res_count[rid])
                if gain > best_gain or (gain == best_gain and dst < best_dst):
                    best_gain, best_dst = gain, dst
            if best_dst != -1:
                state.move(v, best_dst)
                moved = True
        if not moved:
            break
    return PartitionSet(k=k, assignment=tuple(assign))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _single_run(level: Level, gains: Gains, cfg: ObjectiveConfig) -> PartitionSet:
    """Coarsen, grow a partition on the coarsest level, then repair and
    refine it on each level from the coarsest back to ``level``."""
    min_size = max(8, 4 * cfg.k)
    levels = coarsen(level, max_levels=_MAX_LEVELS, min_size=min_size, seed=cfg.seed)
    graphs = [level] + [lv.graph for lv in levels]
    # projections[i] maps graphs[i] onto the level refined before it
    projections = [lv.projection for lv in levels] + [range(len(graphs[-1].weights))]
    p = initial_partition(graphs[-1], cfg)
    for graph, projection in zip(reversed(graphs), reversed(projections)):
        p = refine(graph, PartitionSet(p.k, tuple(p.assignment[c] for c in projection)), cfg, gains)
    return p


def _check_result(g: ApplicationGraph, p: PartitionSet, cfg: ObjectiveConfig) -> None:
    """The balance postcondition of one restart: on unit class weights a
    load above the cap is a bug, so it raises ``RuntimeError``; classes of
    weight above 1 can make the cap unreachable, which is only logged."""
    weights = [c.weight for c in g.classes]
    cap = _balance_cap(weights, cfg)
    load = [0] * p.k
    for w, part in zip(weights, p.assignment):
        load[part] += w
    if max(load) <= cap:
        return
    if all(w == 1 for w in weights):
        raise RuntimeError(f"partitioner exceeded the balance cap: largest load {max(load)} > cap {cap}")
    log.warning(
        "largest partition load %d exceeds the balance cap %d (class weights are not all 1)",
        max(load), cap,
    )


def partition_graph(
    g: ApplicationGraph, prices: PriceTable, cfg: ObjectiveConfig
) -> PartitionSet:
    """Best-of-restarts multilevel partitioning.

    Runs the coarsen / grow / refine pipeline once per restart with seeds
    ``cfg.seed + i`` and returns the result with the lowest objective,
    ties to the lowest seed. Each restart's result is checked before it is
    scored: no empty partition, and on unit class weights no load above the
    balance cap.
    """
    n = len(g.classes)
    if n == 0:
        raise InputError("cannot partition an empty graph")
    if cfg.k > n:
        raise InputError(f"k={cfg.k} exceeds class count {n}")
    level, gains = scale(g, prices, cfg)
    best_p: PartitionSet | None = None
    best_obj: Fraction | None = None
    for i in range(cfg.restarts):
        # restarts=1: each run is one seed, so the seed-range check in
        # ObjectiveConfig sees only that seed
        run_cfg = replace(cfg, seed=cfg.seed + i, restarts=1)
        p = _single_run(level, gains, run_cfg)
        _check_result(g, p, cfg)
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
        raise InputError("invalid sweep range: LO..HI needs 1 <= LO <= HI")
    n = len(g.classes)
    best: tuple[Fraction, int, PartitionSet] | None = None
    for k in range(k_lo, min(k_hi, n) + 1):
        p = partition_graph(g, prices, replace(cfg, k=k))
        q = compute_ngm(g, p)
        log.info("sweep k=%d: NGM %s", k, q)
        if best is None or q > best[0]:
            best = (q, k, p)
    if best is None:
        raise InputError(f"sweep range {k_lo}..{k_hi} is infeasible for {n} classes")
    return best[1], best[2]
