"""Predictive infrastructure factors and the cost model.

A partition's factor counts the distinct resources its classes touch,
bucketed by kind, plus a compute floor: every non-empty partition needs at
least one deployable compute unit. Splitting a resource's clients across
partitions duplicates the resource, and the duplication premium is what
the partitioner's objective charges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple, dataclass
from fractions import Fraction

from .ingest import _as_text, check_keys, load_yaml
from .model import (
    FACTOR_KINDS,
    SCHEMA_VERSION,
    ApplicationGraph,
    InfrastructureFactor,
    InputError,
    PartitionSet,
    PriceTable,
    ResourceKind,
    check_partition,
    factor_to_doc,
    fraction_str,
)


def _factor(
    g: ApplicationGraph, resource_ids: set[int], compute_floor: bool
) -> InfrastructureFactor:
    """Count resources by kind; ``compute_floor`` raises the compute count to 1."""
    counts = Counter(g.resources[rid].kind for rid in resource_ids)
    if compute_floor:
        counts[ResourceKind.COMPUTE] = max(counts[ResourceKind.COMPUTE], 1)
    return InfrastructureFactor(*(counts[kind] for kind in FACTOR_KINDS))


def monolith_baseline(
    g: ApplicationGraph, *, compute_floor: bool = True
) -> InfrastructureFactor:
    """Factor of the unsplit application: distinct used resources by kind.

    Only resources with at least one binding count as used; this keeps the
    totals-dominate-baseline invariant when unused resources are declared.
    """
    return _factor(g, {edge.resource for edge in g.resource_edges}, compute_floor)


def infra_cost(f: InfrastructureFactor, prices: PriceTable) -> Fraction:
    costs = (n * prices.unit_cost(kind) for n, kind in zip(astuple(f), FACTOR_KINDS))
    return sum(costs, Fraction(0))


def duplication_cost(
    g: ApplicationGraph, p: PartitionSet, prices: PriceTable
) -> Fraction:
    """Premium from resources whose clients span several partitions.

    The infrastructure bill minus the monolith baseline, both without the
    compute floor: the sum over bound resources of (copies - 1) * unit cost,
    where copies is the number of partitions holding a bound client.
    """
    report = build_infra_report(g, p, prices, compute_floor=False)
    return report.total_cost - report.baseline_cost


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
    touched: list[set[int]] = [set() for _ in range(p.k)]
    for edge in g.resource_edges:
        touched[p.assignment[edge.cls]].add(edge.resource)

    if shared_database:
        seen_db: set[int] = set()
        for rids in touched:
            rids -= seen_db
            seen_db |= {rid for rid in rids if g.resources[rid].kind is ResourceKind.DATABASE}

    per_partition = []
    total = InfrastructureFactor()
    for idx, rids in enumerate(touched):
        factor = _factor(g, rids, compute_floor)
        per_partition.append((idx, factor, tuple(sorted(g.resources[rid].name for rid in rids))))
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
    database, cache, file_storage); missing keys keep their defaults, and
    :class:`PriceTable` checks the prices."""
    doc = load_yaml(_as_text(data))
    if doc is None:
        return PriceTable.default()
    if not isinstance(doc, dict):
        raise InputError("price table must be a YAML mapping")
    check_keys(doc, (kind.value for kind in ResourceKind), "price table")
    return PriceTable(**doc)


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

