"""Assembles the weighted application graph from ingestion records.

Edge weights compose three signals per unordered class pair: summed
relation base weights, count of shared infrastructure resources, and
functional-flow co-occurrence.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations

from .ingest import DependencyRecord, FlowRecord, InfraManifest, Relation
from .model import (
    ApplicationGraph,
    ClassEdges,
    ClassNode,
    Dependencies,
    FunctionalFlow,
    InputError,
    ResourceEdge,
    ResourceNode,
    as_fraction,
    to_integers,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WeightConfig:
    """Edge-weight composition parameters; all components must be >= 0."""

    base_call: Fraction = Fraction(1)
    base_reference: Fraction = Fraction(1)
    base_inheritance: Fraction = Fraction(3)
    beta_flow: Fraction = Fraction(1)
    shared_resource_increment: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        for field in fields(self):
            value = as_fraction(getattr(self, field.name))
            if value < 0:
                raise InputError(f"weight config {field.name} must be >= 0, got {value}")
            object.__setattr__(self, field.name, value)

    def base_weight(self, relation: Relation) -> Fraction:
        """The base weight of one ``relation`` record: the field ``base_<relation>``."""
        return getattr(self, f"base_{relation.value}")


def build_graph(
    deps: list[DependencyRecord],
    manifest: InfraManifest = InfraManifest(),
    flows: list[FlowRecord] | tuple[FlowRecord, ...] = (),
    cfg: WeightConfig = WeightConfig(),
) -> ApplicationGraph:
    """Build the application graph from parsed inputs.

    Class ids are assigned in first-appearance order: dependency records
    (from, then to), then binding class names, then flow members. Classes
    appearing only in the manifest or traces become isolated nodes (with a
    warning). One merged undirected edge per class pair weighs
    ``base + increment * shared + beta * flow``: base sums the base weights
    of all records on the pair (both directions), shared counts the distinct
    resources bound to both endpoints and flow the flows containing both.
    """
    if not deps:
        raise InputError("empty graph")

    id_by_name: dict[str, int] = {}

    def intern(name: str) -> int:
        if name not in id_by_name:
            id_by_name[name] = len(id_by_name)
        return id_by_name[name]

    for rec in deps:
        intern(rec.from_class)
        intern(rec.to_class)
    for cls_name, _res in manifest.bindings:
        if cls_name not in id_by_name:
            log.warning("class %r appears only in the manifest; adding as isolated node", cls_name)
        intern(cls_name)
    for flow in flows:
        for member in flow.members:
            if member not in id_by_name:
                log.warning("class %r appears only in traces; adding as isolated node", member)
            intern(member)

    classes = tuple(ClassNode(id=cid, name=name) for name, cid in id_by_name.items())

    resources = tuple(
        ResourceNode(id=rid, name=name, kind=kind)
        for rid, (name, kind) in enumerate(manifest.resources)
    )
    resource_id = {r.name: r.id for r in resources}
    resource_edges = tuple(
        ResourceEdge(resource=rid, cls=cid)
        for rid, cid in sorted(
            (resource_id[res], id_by_name[cls]) for cls, res in manifest.bindings
        )
    )

    model_flows = tuple(
        FunctionalFlow(id=flow.id, members=tuple(id_by_name[m] for m in flow.members))
        for flow in flows
    )

    # One [relation base, shared resources, flows] entry per unordered pair.
    # Relation bases are summed as integers over the LCM of the three
    # base-weight denominators.
    base_scale, scaled = to_integers([cfg.base_weight(rel) for rel in Relation])
    scaled_base = dict(zip(Relation, scaled))
    dependencies = Dependencies(
        tuple(id_by_name[rec.from_class] for rec in deps),
        tuple(id_by_name[rec.to_class] for rec in deps),
        tuple(rec.relation for rec in deps),
    )
    counts: defaultdict[tuple[int, int], list[int]] = defaultdict(lambda: [0, 0, 0])
    for u, v, relation in zip(dependencies.source, dependencies.target, dependencies.relation):
        counts[(u, v) if u < v else (v, u)][0] += scaled_base[relation]

    # Co-membership: a resource's clients share it (slot 1), a flow's
    # members co-occur in it (slot 2).
    clients: list[set[int]] = [set() for _ in resources]
    for edge in resource_edges:
        clients[edge.resource].add(edge.cls)
    groups = [(1, group) for group in clients] + [(2, set(f.members)) for f in model_flows]
    for slot, group in groups:
        for pair in combinations(sorted(group), 2):
            counts[pair][slot] += 1

    # Few distinct (base, shared, flow) triples occur; each one's weight is
    # composed and scaled to an integer over L once.
    pairs = sorted(counts)  # the pairs, not the items: sorting those is ~3x slower
    keys = [tuple(counts[pair]) for pair in pairs]
    composed = {
        key: Fraction(key[0], base_scale)
        + cfg.shared_resource_increment * key[1]
        + cfg.beta_flow * key[2]
        for key in dict.fromkeys(keys)
    }
    scale, scaled = to_integers(list(composed.values()))
    integer = dict(zip(composed, scaled))
    class_edges = ClassEdges(
        tuple(u for u, _v in pairs),
        tuple(v for _u, v in pairs),
        tuple(map(integer.__getitem__, keys)),
        scale,
    )

    return ApplicationGraph(
        classes=classes,
        resources=resources,
        flows=model_flows,
        resource_edges=resource_edges,
        class_edges=class_edges,
        dependencies=dependencies,
    )


# 12-color palette for partition fills in DOT output (cycled when k > 12)
_PALETTE = (
    "#a6cee3", "#1f78b4", "#b2df8a", "#33a02c", "#fb9a99", "#e31a1c",
    "#fdbf6f", "#ff7f00", "#cab2d6", "#6a3d9a", "#ffff99", "#b15928",
)


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(g: ApplicationGraph, assignment: tuple[int, ...] | None = None) -> str:
    """Render the graph in DOT: class nodes as ellipses (filled by partition
    when an assignment is given), resource nodes as boxes, edge labels are
    the exact weights."""
    lines = ["graph application {"]
    lines.append("  node [fontname=\"Helvetica\"];")
    for c in g.classes:
        attrs = [f'label="{_dot_escape(c.name)}"', "shape=ellipse"]
        if assignment is not None:
            color = _PALETTE[assignment[c.id] % len(_PALETTE)]
            attrs.append("style=filled")
            attrs.append(f'fillcolor="{color}"')
        lines.append(f"  c{c.id} [{', '.join(attrs)}];")
    for r in g.resources:
        lines.append(
            f'  r{r.id} [label="{_dot_escape(r.name)}", shape=box, style=dashed];'
        )
    edges = g.class_edges
    for u, v, weight in zip(edges.u, edges.v, edges.weight_texts()):
        lines.append(f'  c{u} -- c{v} [label="{weight}"];')
    for edge in g.resource_edges:
        lines.append(f"  c{edge.cls} -- r{edge.resource} [style=dotted];")
    lines.append("}")
    return "\n".join(lines) + "\n"
