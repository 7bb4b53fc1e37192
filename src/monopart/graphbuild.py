"""Assembles the weighted application graph from ingestion records.

Edge weights compose three signals per unordered class pair: summed
relation base weights, count of shared infrastructure resources, and
functional-flow co-occurrence.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from fractions import Fraction

from .ingest import DependencyRecord, FlowRecord, InfraManifest, Relation
from .model import (
    ApplicationGraph,
    ClassEdge,
    ClassNode,
    FunctionalFlow,
    InputError,
    ResourceEdge,
    ResourceNode,
    as_fraction,
    fraction_str,
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
    warning). One merged undirected edge per class pair carries
    relation_base (sum of base weights over all records on the pair, both
    directions), shared_resource_count (distinct resources bound to both
    endpoints), and flow_cooccurrence (flows containing both endpoints).
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

    classes = tuple(
        ClassNode(id=cid, name=name)
        for name, cid in sorted(id_by_name.items(), key=lambda kv: kv[1])
    )

    resources = tuple(
        ResourceNode(id=rid, name=name, kind=kind)
        for rid, (name, kind) in enumerate(manifest.resources)
    )
    resource_id = {r.name: r.id for r in resources}
    resource_edges = tuple(
        ResourceEdge(resource=resource_id[res], cls=id_by_name[cls])
        for res, cls in sorted(
            ((res, cls) for cls, res in manifest.bindings),
            key=lambda rc: (resource_id[rc[0]], id_by_name[rc[1]]),
        )
    )

    model_flows = tuple(
        FunctionalFlow(id=flow.id, members=tuple(id_by_name[m] for m in flow.members))
        for flow in flows
    )

    # accumulate edge components per unordered pair; relation bases are
    # summed as integers over the LCM of the three base-weight denominators
    base_scale, scaled = to_integers([cfg.base_weight(rel) for rel in Relation])
    scaled_base = dict(zip(Relation, scaled))
    relation_base: dict[tuple[int, int], int] = {}
    for rec in deps:
        u, v = id_by_name[rec.from_class], id_by_name[rec.to_class]
        pair = (u, v) if u < v else (v, u)
        relation_base[pair] = relation_base.get(pair, 0) + scaled_base[rec.relation]

    shared: dict[tuple[int, int], int] = {}
    clients: dict[int, set[int]] = {r.id: set() for r in resources}
    for edge in resource_edges:
        clients[edge.resource].add(edge.cls)
    for rid in sorted(clients):
        members = sorted(clients[rid])
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                shared[(u, v)] = shared.get((u, v), 0) + 1

    cooccur: dict[tuple[int, int], int] = {}
    for flow in model_flows:
        members = sorted(set(flow.members))
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                cooccur[(u, v)] = cooccur.get((u, v), 0) + 1

    pairs = sorted(set(relation_base) | set(shared) | set(cooccur))
    # Few distinct (base, shared, flow) triples occur; each one's Fractions
    # are built once.
    components: dict[tuple[int, int, int], tuple[Fraction, Fraction]] = {}
    class_edges = []
    for u, v in pairs:
        n_shared = shared.get((u, v), 0)
        n_flow = cooccur.get((u, v), 0)
        key = (relation_base.get((u, v), 0), n_shared, n_flow)
        if key not in components:
            base = Fraction(key[0], base_scale)
            weight = base + cfg.shared_resource_increment * n_shared + cfg.beta_flow * n_flow
            components[key] = (base, weight)
        base, weight = components[key]
        class_edges.append(
            ClassEdge(
                u=u,
                v=v,
                weight=weight,
                relation_base=base,
                shared_resource_count=n_shared,
                flow_cooccurrence=n_flow,
            )
        )

    return ApplicationGraph(
        classes=classes,
        resources=resources,
        flows=model_flows,
        resource_edges=resource_edges,
        class_edges=tuple(class_edges),
        beta=cfg.beta_flow,
        resource_increment=cfg.shared_resource_increment,
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
    for e in g.class_edges:
        lines.append(f'  c{e.u} -- c{e.v} [label="{fraction_str(e.weight)}"];')
    for edge in g.resource_edges:
        lines.append(f"  c{edge.cls} -- r{edge.resource} [style=dotted];")
    lines.append("}")
    return "\n".join(lines) + "\n"
