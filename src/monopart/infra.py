"""Predictive infrastructure factors and the cost model.

A partition's factor counts the distinct resources its classes touch,
bucketed by kind, plus a compute floor: every non-empty partition needs at
least one deployable compute unit. Splitting a resource's clients across
partitions duplicates the resource, and the duplication premium is what
the partitioner's objective charges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .ingest import _as_text, load_yaml
from .model import (
    SCHEMA_VERSION,
    ApplicationGraph,
    InfrastructureFactor,
    InputError,
    PartitionSet,
    PriceTable,
    ResourceKind,
    as_fraction,
    check_partition,
    factor_to_doc,
    fraction_str,
)


def _touched_resources(
    g: ApplicationGraph, p: PartitionSet
) -> list[set[int]]:
    """Resource ids touched by each partition (>= 1 bound client class)."""
    touched: list[set[int]] = [set() for _ in range(p.k)]
    for edge in g.resource_edges:
        touched[p.assignment[edge.cls]].add(edge.resource)
    return touched


def _factor(
    g: ApplicationGraph, resource_ids: set[int], compute_floor: bool
) -> InfrastructureFactor:
    """Count resources by kind; ``compute_floor`` raises n_ec to 1."""
    counts = Counter(g.resources[rid].kind for rid in resource_ids)
    n_ec = counts[ResourceKind.COMPUTE]
    return InfrastructureFactor(
        max(n_ec, 1) if compute_floor else n_ec,
        counts[ResourceKind.FILE_STORAGE],
        counts[ResourceKind.DATABASE],
        counts[ResourceKind.CACHE],
    )


def monolith_baseline(
    g: ApplicationGraph, *, compute_floor: bool = True
) -> InfrastructureFactor:
    """Factor of the unsplit application: distinct used resources by kind.

    Only resources with at least one binding count as used; this keeps the
    totals-dominate-baseline invariant when unused resources are declared.
    """
    return _factor(g, {edge.resource for edge in g.resource_edges}, compute_floor)


def infra_cost(f: InfrastructureFactor, prices: PriceTable) -> Fraction:
    return (
        f.n_ec * prices.compute
        + f.n_s3 * prices.file_storage
        + f.n_db * prices.database
        + f.n_ca * prices.cache
    )


def duplication_cost(
    g: ApplicationGraph, p: PartitionSet, prices: PriceTable
) -> Fraction:
    """Premium from resources whose clients span several partitions.

    Sum over resources of (copies - 1) * unit cost, where copies is the
    number of partitions holding at least one bound client; unbound
    resources contribute 0. Independent of the compute floor.
    """
    copies = Counter(rid for touched in _touched_resources(g, p) for rid in touched)
    return sum(
        (
            (n - 1) * prices.unit_cost(g.resources[rid].kind)
            for rid, n in copies.items()
            if n > 1
        ),
        Fraction(0),
    )


@dataclass(frozen=True)
class PartitionInfraReport:
    """Per-partition factors with resource rosters, totals, and costs."""

    per_partition: tuple[tuple[int, InfrastructureFactor, tuple[str, ...]], ...]
    total: InfrastructureFactor
    monolith_baseline: InfrastructureFactor
    total_cost: Fraction
    baseline_cost: Fraction


def build_infra_report(
    g: ApplicationGraph,
    p: PartitionSet,
    prices: PriceTable,
    *,
    compute_floor: bool = True,
    shared_database: bool = False,
) -> PartitionInfraReport:
    """Assemble the infrastructure report for a partitioning.

    ``shared_database`` switches databases to a shared-managed-service
    reading: each database counts once globally, attributed to the
    lowest-index partition touching it. It changes reporting only, never
    the partitioner's objective.
    """
    check_partition(g, p)
    return _infra_report(g, p, prices, compute_floor, shared_database)


def _infra_report(
    g: ApplicationGraph,
    p: PartitionSet,
    prices: PriceTable,
    compute_floor: bool,
    shared_database: bool,
) -> PartitionInfraReport:
    """:func:`build_infra_report` on a partition already checked against ``g``."""
    touched = _touched_resources(g, p)

    if shared_database:
        seen_db: set[int] = set()
        for idx in range(p.k):
            keep = set()
            for rid in touched[idx]:
                if g.resources[rid].kind is ResourceKind.DATABASE:
                    if rid in seen_db:
                        continue
                    seen_db.add(rid)
                keep.add(rid)
            touched[idx] = keep

    per_partition = []
    total = InfrastructureFactor()
    for idx in range(p.k):
        factor = _factor(g, touched[idx], compute_floor)
        names = tuple(sorted(g.resources[rid].name for rid in touched[idx]))
        per_partition.append((idx, factor, names))
        total = total + factor

    baseline = monolith_baseline(g, compute_floor=compute_floor)
    return PartitionInfraReport(
        per_partition=tuple(per_partition),
        total=total,
        monolith_baseline=baseline,
        total_cost=infra_cost(total, prices),
        baseline_cost=infra_cost(baseline, prices),
    )


def load_price_table(data: bytes | str) -> PriceTable:
    """Read a price table from YAML with one key per resource kind (compute,
    database, cache, file_storage); missing keys keep their defaults."""
    doc = load_yaml(_as_text(data))
    if doc is None:
        return PriceTable.default()
    if not isinstance(doc, dict):
        raise InputError("price table must be a YAML mapping")
    known = {kind.value for kind in ResourceKind}
    unknown = set(doc) - known
    if unknown:
        raise InputError(f"unknown price table key {min(unknown, key=str)!r}")
    values = {}
    for key in sorted(known & set(doc)):
        value = as_fraction(doc[key])
        if value < 0:
            raise InputError(f"price for {key} must be >= 0, got {doc[key]!r}")
        values[key] = value
    return PriceTable(**values)


def infra_report_to_doc(report: PartitionInfraReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "per_partition": [
            {
                "partition": idx,
                "factor": factor_to_doc(factor),
                "resources": list(names),
            }
            for idx, factor, names in report.per_partition
        ],
        "total": factor_to_doc(report.total),
        "monolith_baseline": factor_to_doc(report.monolith_baseline),
        "total_cost": fraction_str(report.total_cost),
        "baseline_cost": fraction_str(report.baseline_cost),
    }

