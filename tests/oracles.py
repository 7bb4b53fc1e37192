"""Independent reference implementations used to check the package.

Everything here is deliberately written in a different style from the
package code (matrix formulas, exhaustive enumeration) so agreement is
meaningful.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from monopart.model import InputError, PartitionSet, as_fraction, as_int
from monopart.partitioner import _MAX_REFINE_PASSES, Gains, Level, ObjectiveConfig, _balance_cap


def modularity_matrix_form(
    n: int,
    edges: dict[tuple[int, int], Fraction],
    assignment: list[int] | tuple[int, ...],
    weighted: bool = True,
) -> Fraction:
    """Q via the adjacency-matrix definition:

    Q = (1 / 2W) * sum_ij (A_ij - d_i d_j / 2W) [c_i == c_j]

    summed over ordered pairs, which is algebraically the same quantity as
    the per-community form but computed along a different route.
    """
    A = [[Fraction(0)] * n for _ in range(n)]
    for (u, v), w in edges.items():
        val = w if weighted else Fraction(1)
        A[u][v] += val
        A[v][u] += val
    two_w = sum(sum(row) for row in A)
    if two_w == 0:
        raise ValueError("modularity undefined on an edgeless graph")
    deg = [sum(row) for row in A]
    q = Fraction(0)
    for i in range(n):
        for j in range(n):
            if assignment[i] == assignment[j]:
                q += A[i][j] - Fraction(deg[i] * deg[j], two_w)
    return q / two_w


def brute_force_min_cut_k2(
    n: int,
    edges: dict[tuple[int, int], Fraction],
    epsilon: Fraction,
) -> Fraction:
    """Exhaustive minimum balanced 2-cut over the same feasible set the
    partitioner uses: both sides non-empty, each side's size at most
    (1 + epsilon) * ceil(n / 2)."""
    cap = (1 + epsilon) * (-(-n // 2))
    best: Fraction | None = None
    for mask in range(1, 2 ** (n - 1)):  # vertex 0 pinned to side 0
        side = [(mask >> v) & 1 for v in range(n)]
        ones = sum(side)
        if ones == 0 or ones == n:
            continue
        if max(ones, n - ones) > cap:
            continue
        cut = sum(w for (u, v), w in edges.items() if side[u] != side[v])
        if best is None or cut < best:
            best = cut
    if best is None:
        raise ValueError("no feasible 2-partition under the balance cap")
    return best


def pairwise_f1_reference(
    pred: dict[str, int | str], truth: dict[str, str]
) -> Fraction:
    """Set-based pairwise F1: build the co-membership pair sets explicitly
    and intersect them."""
    common = sorted(set(pred) & set(truth))
    pred_pairs = set()
    true_pairs = set()
    for i, a in enumerate(common):
        for b in common[i + 1 :]:
            if pred[a] == pred[b]:
                pred_pairs.add((a, b))
            if truth[a] == truth[b]:
                true_pairs.add((a, b))
    tp = len(pred_pairs & true_pairs)
    if tp == 0:
        return Fraction(0)
    precision = Fraction(tp, len(pred_pairs))
    recall = Fraction(tp, len(true_pairs))
    return 2 * precision * recall / (precision + recall)


def pairwise_f1_enumerated(
    assignment: tuple[int, ...], truth: dict[str, str], names: list[str]
) -> Fraction:
    """Brute-force pairwise F1: walk every pair of classes present in both
    clusterings and tally it as a true positive, false positive or false
    negative."""
    common = [cid for cid in range(len(names)) if names[cid] in truth]
    tp = fp = fn = 0
    for i, u in enumerate(common):
        for v in common[i + 1 :]:
            same_pred = assignment[u] == assignment[v]
            same_true = truth[names[u]] == truth[names[v]]
            if same_pred and same_true:
                tp += 1
            elif same_pred:
                fp += 1
            elif same_true:
                fn += 1
    if tp == 0:
        return Fraction(0)
    precision = Fraction(tp, tp + fp)
    recall = Fraction(tp, tp + fn)
    return 2 * precision * recall / (precision + recall)


def class_edge_rows_reference(doc) -> list[tuple[int, int, Fraction]]:
    """The class edges of a graph document read one edge at a time, as
    ``(u, v, weight)`` rows with each weight a Fraction: each field is
    checked in the order u, v, weight, so an error names the first bad
    edge. The reference for ``graph_from_doc``, which reads the edges a
    column at a time."""
    rows = []
    for e in doc.get("class_edges", []):
        u = as_int(e["u"], "class id")
        v = as_int(e["v"], "class id")
        rows.append((u, v, as_fraction(e["weight"])))
    return rows


def class_edge_row_problems(n: int, rows) -> list[str]:
    """The class-edge rules of ``validate_graph``, written out one rule
    after another over ``(u, v, Fraction weight)`` rows for ``n`` classes;
    the same messages in the same order."""
    problems: list[str] = []
    seen_pairs: set[tuple[int, int]] = set()
    for u, v, weight in rows:
        if not (0 <= u < n) or not (0 <= v < n):
            problems.append(f"class edge ({u}, {v}) references a missing class id")
            continue
        pair = (u, v)
        if u >= v:
            problems.append(f"class edge {pair} must satisfy u < v")
            continue
        if pair in seen_pairs:
            problems.append(f"parallel class edge on pair {pair}")
        seen_pairs.add(pair)
        if weight < 0:
            problems.append(f"class edge {pair} has negative weight {weight}")
    return problems


def class_edge_problems_reference(g) -> list[str]:
    """:func:`class_edge_row_problems` of a graph's class-edge columns, each
    weight rebuilt as a Fraction. On a graph whose classes, resources and
    flows are well formed this is the whole problem list."""
    edges = g.class_edges
    rows = [
        (u, v, Fraction(w, edges.scale)) for u, v, w in zip(edges.u, edges.v, edges.weight)
    ]
    return class_edge_row_problems(len(g.classes), rows)


def graph_reader_error_reference(doc) -> str | None:
    """The message of the ``InputError`` that reading ``doc`` raises, or None
    when it reads, for a document whose every part but ``class_edges`` is
    valid: the per-edge reader's error, else the rule problems."""
    try:
        rows = class_edge_rows_reference(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed graph document: {exc}"
    except InputError as exc:
        return str(exc)
    return "; ".join(class_edge_row_problems(len(doc["classes"]), rows)) or None


def edge_cut_reference(g, assignment) -> Fraction:
    """Edge cut as a Fraction sum over the edges whose endpoints sit in
    different partitions."""
    edges = g.class_edges
    return sum(
        (
            Fraction(w, edges.scale)
            for u, v, w in zip(edges.u, edges.v, edges.weight)
            if assignment[u] != assignment[v]
        ),
        Fraction(0),
    )


def duplication_cost_reference(g, assignment, prices) -> Fraction:
    """Duplication premium from a set of client partitions per resource:
    (copies - 1) times the unit price of each resource in several."""
    copies: dict[int, set[int]] = {}
    for edge in g.resource_edges:
        copies.setdefault(edge.resource, set()).add(assignment[edge.cls])
    total = Fraction(0)
    for rid, parts in copies.items():
        if len(parts) > 1:
            total += (len(parts) - 1) * prices.unit_cost(g.resources[rid].kind)
    return total


@dataclass(frozen=True)
class TraceRecord:
    """One execution-trace event: ``class_name`` seen at position ``seq``
    within flow ``flow_hint``."""

    flow_hint: str
    seq: int
    class_name: str


def initial_partition_reference(coarse: Level, cfg: ObjectiveConfig) -> PartitionSet:
    """Greedy graph growing with its own tables: ``conn[v][r]`` counts only
    the edges from a still unplaced v, and nothing is kept for placed
    vertices. ``partitioner.initial_partition`` must return the same
    partition."""
    weights = coarse.weights
    n = len(weights)
    k = cfg.k
    if k > n:
        raise InputError(f"k={k} exceeds vertex count {n}")
    rng = random.Random(cfg.seed)
    cap = _balance_cap(weights, cfg)
    adj = coarse.adj

    assign = [-1] * n
    load = [0] * k
    # conn[v][r]: total edge weight from unassigned v into region r
    conn = [[0] * k for _ in range(n)]
    for region, v in enumerate(rng.sample(range(n), k)):
        assign[v] = region
        load[region] = weights[v]
        for u, w in adj[v]:
            if assign[u] == -1:
                conn[u][region] += w

    for _ in range(n - k):
        best_v = best_r = -1
        best_w = 0
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


def rebalance_reference(level: Level, assign: list[int], cfg: ObjectiveConfig) -> PartitionSet:
    """Balance repair that rescans, for every move, the adjacency of each
    vertex in the heaviest partition. The repair phase that opens
    ``partitioner.refine`` must leave the same partition."""
    weights = level.weights
    n = len(weights)
    k = cfg.k
    cap = _balance_cap(weights, cfg)
    adj = level.adj
    assign = list(assign)
    load = [0] * k
    size = [0] * k
    for v, r in enumerate(assign):
        load[r] += weights[v]
        size[r] += 1

    while True:
        src = min(range(k), key=lambda r: (-load[r], r))
        if load[src] <= cap or size[src] < 2:
            break
        best: tuple[int, int, int] | None = None  # (cut increase, vertex, target)
        for v in range(n):
            if assign[v] != src:
                continue
            conn = [0] * k
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
    return PartitionSet(k, tuple(assign))


def refine_reference(
    level: Level,
    p: PartitionSet,
    cfg: ObjectiveConfig,
    gains: Gains,
) -> PartitionSet:
    """Boundary refinement without kept state: every pass rescans each
    vertex's adjacency to find the candidates, and each candidate's to find
    its connectivity and targets, and no candidate is skipped before its
    targets are scored. ``partitioner.refine`` must return the same
    partition."""
    k = p.k
    weights = level.weights
    n = len(weights)
    assign = list(p.assignment)
    cap = _balance_cap(weights, cfg)
    adj = level.adj
    res_of = level.res_of
    cut_gain = gains.cut
    dup = gains.dup

    # res_count[rid]: partition -> number of bound client vertices in it
    res_count: list[dict[int, int]] = [{} for _ in dup]
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
            conn = [0] * k
            targets = set()
            for u, w in adj[v]:
                part = assign[u]
                conn[part] += w
                targets.add(part)
            res = res_of[v]
            for rid in res:
                targets.update(res_count[rid])
            targets.discard(src)
            # dup saved at src: resources whose last client there is v
            saved = sum(dup[rid] for rid in res if res_count[rid][src] == 1)
            best_gain = 0
            best_dst = -1
            for dst in sorted(targets):
                if load[dst] + weights[v] > cap:
                    continue
                gain = cut_gain * (conn[dst] - conn[src])
                if res:
                    gain += saved - sum(dup[rid] for rid in res if dst not in res_count[rid])
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
            for rid in res:
                counts = res_count[rid]
                counts[src] -= 1
                if counts[src] == 0:
                    del counts[src]
                counts[dst] = counts.get(dst, 0) + 1
            moved = True
        if not moved:
            break
    return PartitionSet(k=k, assignment=tuple(assign))


def group_flows_reference(
    text: str, line_regex: str, entry_points: tuple[str, ...] = ()
) -> tuple[list[tuple[str, tuple[str, ...]]], int]:
    """Trace grouping the long way: match every line, then give the
    untagged stream its synthetic flow ids, then number each flow's events,
    then sort every flow's events by that number and keep each class's
    first occurrence. Returns ``[(flow id, members)]`` in order of each
    flow's first event, and the number of skipped lines. A tag that is
    also a synthetic id raises ``InputError`` naming the lowest such id."""
    pattern = re.compile(line_regex)
    has_flow_group = "flow" in pattern.groupindex
    events: list[tuple[str | None, str]] = []
    skipped = 0
    for line in text.splitlines():
        match = pattern.search(line)
        if not match:
            skipped += 1
            continue
        cls = (match.group("class") or "").strip()
        if not cls:
            skipped += 1
            continue
        hint = match.group("flow") if has_flow_group else None
        hint = (hint or "").strip() or None  # a blank tag counts as no tag
        events.append((hint, cls))

    segment = -1
    resolved: list[tuple[str, str]] = []
    for hint, cls in events:
        if hint is None:
            if segment < 0 or (entry_points and cls in entry_points):
                segment += 1
            hint = f"F{segment}"
        resolved.append((hint, cls))
    tags = {hint for hint, _cls in events if hint is not None}
    synthetic = {hint for (given, _cls), (hint, _) in zip(events, resolved) if given is None}
    clashes = sorted(tags & synthetic, key=lambda hint: int(hint[1:]))
    if clashes:
        raise InputError(f"trace tag {clashes[0]!r} is also the id of an untagged flow segment")

    counters: dict[str, int] = {}
    records = []
    for hint, cls in resolved:
        seq = counters.get(hint, 0)
        counters[hint] = seq + 1
        records.append(TraceRecord(flow_hint=hint, seq=seq, class_name=cls))

    ordered_hints: list[str] = []
    by_hint: dict[str, list[TraceRecord]] = {}
    for rec in records:
        if rec.flow_hint not in by_hint:
            by_hint[rec.flow_hint] = []
            ordered_hints.append(rec.flow_hint)
        by_hint[rec.flow_hint].append(rec)
    flows = []
    for hint in ordered_hints:
        members: list[str] = []
        seen: set[str] = set()
        for rec in sorted(by_hint[hint], key=lambda r: r.seq):
            if rec.class_name not in seen:
                seen.add(rec.class_name)
                members.append(rec.class_name)
        flows.append((hint, tuple(members)))
    return flows, skipped


def report_from_json(text: str):
    """Read an evaluation report back from its JSON text; each rational is
    parsed by ``Fraction`` itself, which takes both ``"1.5"`` and ``"p/q"``."""
    from monopart.model import EvaluationReport, InfrastructureFactor

    doc = json.loads(text)
    return EvaluationReport(
        f1=None if doc["f1"] is None else Fraction(doc["f1"]),
        ngm=Fraction(doc["ngm"]),
        ifn_total=doc["ifn_total"],
        ifn_mean=Fraction(doc["ifn_mean"]),
        edge_cut=Fraction(doc["edge_cut"]),
        infra_total=InfrastructureFactor(**doc["infra_total"]),
        infra_cost=Fraction(doc["infra_cost"]),
        cluster_sizes=tuple(doc["cluster_sizes"]),
    )


# ---------------------------------------------------------------------------
# minimal DOT grammar checker (graphviz is not installed in CI)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<quoted>"(?:[^"\\]|\\.)*")
      | (?P<id>[A-Za-z_][A-Za-z_0-9]*|-?\d+(?:\.\d+)?)
      | (?P<punct>\{|\}|\[|\]|;|,|=|--|->)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"unexpected character at offset {pos}: {text[pos]!r}")
            break
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def is_name(self) -> bool:
        tok = self.peek()
        return tok is not None and tok not in "{}[];,=" and tok not in ("--", "->")


def check_dot(text: str) -> None:
    """Raise ValueError unless ``text`` is a well-formed (strict subset)
    DOT graph: `graph NAME? { targets }` with node and edge statements and
    [k=v, ...] attribute lists. Undirected graphs must use --."""
    p = _Parser(_tokenize(text))
    kind = p.take()
    if kind not in ("graph", "digraph"):
        raise ValueError(f"document must start with graph/digraph, got {kind!r}")
    edge_op = "--" if kind == "graph" else "->"
    if p.is_name():
        p.take()
    p.take("{")
    while p.peek() != "}":
        if not p.is_name():
            tok = p.take()
            if tok == ";":
                continue
            raise ValueError(f"expected a statement, got {tok!r}")
        if p.peek() in ("node", "edge", "graph") and p.tokens[p.i + 1] == "[":
            p.take()
            _attr_list(p)
            _semi(p)
            continue
        p.take()  # first node id
        while p.peek() in ("--", "->"):
            op = p.take()
            if op != edge_op:
                raise ValueError(f"edge operator {op!r} illegal in {kind}")
            if not p.is_name():
                raise ValueError(f"edge target missing, got {p.peek()!r}")
            p.take()
        if p.peek() == "[":
            _attr_list(p)
        _semi(p)
    p.take("}")
    if p.peek() is not None:
        raise ValueError(f"trailing tokens after closing brace: {p.peek()!r}")


def _attr_list(p: _Parser) -> None:
    p.take("[")
    while p.peek() != "]":
        if not p.is_name():
            raise ValueError(f"attribute name expected, got {p.peek()!r}")
        p.take()
        p.take("=")
        if not p.is_name():
            raise ValueError(f"attribute value expected, got {p.peek()!r}")
        p.take()
        if p.peek() == ",":
            p.take()
    p.take("]")


def _semi(p: _Parser) -> None:
    if p.peek() == ";":
        p.take()
