"""Decomposition quality metrics: pairwise F1 against ground truth,
Newman-Girvan modularity, interface number, edge cut."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .infra import build_infra_report
from .ingest import _as_text, load_json, load_yaml
from .model import (
    ApplicationGraph,
    Dependencies,
    EvaluationReport,
    InputError,
    PartitionSet,
    PriceTable,
    as_str,
    check_partition,
)


@dataclass(frozen=True)
class GroundTruth:
    """Reference decomposition: class name to cluster label. Anything but a
    non-empty dict of strings to strings is an :class:`InputError`."""

    assignment: dict[str, str]

    def __post_init__(self) -> None:
        if not isinstance(self.assignment, dict) or not self.assignment:
            raise InputError("ground truth must be a non-empty mapping")
        for name, label in self.assignment.items():
            as_str(name, "ground truth class")
            as_str(label, "ground truth label")


def load_ground_truth(data: bytes | str) -> GroundTruth:
    """Read ground truth from YAML or JSON: a flat ``{class: label}`` map."""
    text = _as_text(data)
    return GroundTruth(load_json(text) if text.lstrip()[:1] == "{" else load_yaml(text))


def compute_f1(
    p: PartitionSet, truth: GroundTruth, names: Sequence[str]
) -> Fraction:
    """Pairwise co-membership F1 between a partitioning and ground truth.

    Over unordered pairs of classes present in both: a pair is positive in
    a clustering when both classes share a cluster. F1 is the standard
    harmonic mean 2PR/(P+R) = 2TP/(predicted pairs + true pairs); 0 when no
    pair is co-located in both. Classes absent from the truth are excluded.

    Pairs are counted, not enumerated: a group of n classes holds C(n, 2)
    pairs, so TP sums over the (predicted, true) cells of the contingency
    table and the two pair totals over its rows and columns.
    """
    labels = truth.assignment
    common = [
        (p.assignment[cid], labels[name]) for cid, name in enumerate(names) if name in labels
    ]
    if not common:
        raise InputError("no classes in common between partition and ground truth")
    tp = _pairs(Counter(common))
    if tp == 0:
        return Fraction(0)
    predicted = _pairs(Counter(part for part, _ in common))
    actual = _pairs(Counter(label for _, label in common))
    return Fraction(2 * tp, predicted + actual)


def _pairs(group_sizes: Counter) -> int:
    """Unordered pairs inside the groups: the sum of C(n, 2) over the sizes."""
    return sum(n * (n - 1) // 2 for n in group_sizes.values())


class _EdgeTally(NamedTuple):
    """Class-edge weight per partition, in integers over the scale L.

    ``total`` is the whole weight, ``intra[c]`` the weight inside partition
    c and ``attached[c]`` the edge-endpoint weight attached to it (an edge
    inside c counts twice), each times L.
    """

    scale: int
    total: int
    intra: list[int]
    attached: list[int]

    def cut(self) -> Fraction:
        """Weight of the edges between partitions."""
        return Fraction(self.total - sum(self.intra), self.scale)

    def modularity(self) -> Fraction:
        """Q = sum_c intra_c / total - (attached_c / (2 total))^2, or 0
        when there is no edge weight; the scale cancels."""
        total = self.total
        if total == 0:
            return Fraction(0)
        return Fraction(
            sum(4 * total * i - a * a for i, a in zip(self.intra, self.attached)),
            4 * total * total,
        )


def _tally(g: ApplicationGraph, p: PartitionSet) -> _EdgeTally:
    """One pass over the class edges of a partition already checked against ``g``."""
    edges = g.class_edges
    intra = [0] * p.k
    attached = [0] * p.k
    assignment = p.assignment
    for u, v, w in zip(edges.u, edges.v, edges.weight):
        cu, cv = assignment[u], assignment[v]
        attached[cu] += w
        attached[cv] += w
        if cu == cv:
            intra[cu] += w
    return _EdgeTally(edges.scale, sum(edges.weight), intra, attached)


def compute_ngm(g: ApplicationGraph, p: PartitionSet) -> Fraction:
    """Newman-Girvan modularity Q = sum over partitions of e_cc - a_c^2.

    e_cc is the fraction of edge weight inside partition c, a_c the
    fraction of edge-endpoint weight attached to c. A graph without edge
    weight scores 0.
    """
    check_partition(g, p)
    return _tally(g, p).modularity()


def compute_ifn(deps: Dependencies, p: PartitionSet) -> tuple[int, Fraction, list[int]]:
    """Interface number: per partition, the count of classes receiving at
    least one dependency from another partition; returns (total, mean
    per partition, per-partition counts). ``deps`` are a graph's, whose
    class ids it has checked, and ``p`` a partition of that graph."""
    part = p.assignment
    interfaces = {v for u, v in zip(deps.source, deps.target) if part[u] != part[v]}
    counts = Counter(map(part.__getitem__, interfaces))
    per_partition = [counts[c] for c in range(p.k)]
    total = len(interfaces)
    return total, Fraction(total, p.k), per_partition


def edge_cut(g: ApplicationGraph, p: PartitionSet) -> Fraction:
    """Total weight of class edges crossing partitions."""
    check_partition(g, p)
    return _tally(g, p).cut()


def evaluate(
    g: ApplicationGraph,
    p: PartitionSet,
    truth: GroundTruth | None = None,
    prices: PriceTable | None = None,
    *,
    compute_floor: bool = True,
) -> EvaluationReport:
    """Assemble the full evaluation report for one partitioning; the
    interface number counts ``g.dependencies``.

    The partition is checked against ``g`` once, by ``build_infra_report``;
    the metrics after it take it as valid.
    """
    prices = prices if prices is not None else PriceTable.default()
    report = build_infra_report(g, p, prices, compute_floor=compute_floor)
    tally = _tally(g, p)
    ifn_total, ifn_mean, _per = compute_ifn(g.dependencies, p)
    f1 = compute_f1(p, truth, g.names()) if truth is not None else None
    return EvaluationReport(
        ngm=tally.modularity(),
        ifn_total=ifn_total,
        ifn_mean=ifn_mean,
        edge_cut=tally.cut(),
        infra_total=report.total,
        infra_cost=report.total_cost,
        cluster_sizes=tuple(p.sizes()),
        f1=f1,
    )


def _fmt(x: Fraction | None, places: int = 4) -> str:
    if x is None:
        return "-"
    try:
        return f"{float(x):.{places}f}"
    except OverflowError:
        raise InputError("number too large to print: beyond the float range") from None


def format_table(name: str, r: EvaluationReport) -> str:
    """Plain-text table of one report: a header line and its row, each
    column as wide as the wider of its two cells."""
    header = ("dataset", "k", "F1", "NGM", "IFN", "edge_cut", "infra_cost")
    row = (
        name,
        str(len(r.cluster_sizes)),
        _fmt(r.f1),
        _fmt(r.ngm),
        str(r.ifn_total),
        _fmt(r.edge_cut, 2),
        _fmt(r.infra_cost, 2),
    )
    widths = [max(len(h), len(c)) for h, c in zip(header, row)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in (header, row)
    )
