"""Core domain types shared by every stage of the decomposition pipeline.

Everything here is an immutable value object plus invariant validation and
the canonical JSON interchange. No parsing, no algorithms.

Numeric policy: rationals at the boundaries, integers inside. Every weight
and cost a user supplies or an artifact records is an exact rational
(:class:`fractions.Fraction`), serialized as a decimal string when the value
has a finite decimal expansion and as ``"p/q"`` otherwise; this keeps every
artifact bit-identical across platforms. Counts, ids and class weights are
integers, and a non-integral value for one is rejected, never truncated.
Loops over weights and prices run on integers: :func:`to_integers` turns
the rationals into integers over their common denominator, and a Fraction
is built again only for a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

SCHEMA_VERSION = 1


class InputError(Exception):
    """Bad user input: malformed file, unknown enum value, invalid flag.

    The CLI maps this to exit code 2; anything else is an internal error.
    """


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

def as_fraction(value: int | float | str | Fraction) -> Fraction:
    """Coerce a config/JSON value to an exact Fraction.

    Floats are routed through their shortest decimal repr, so a YAML ``0.1``
    means 1/10, not the nearest binary double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"expected a number, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {value!r}") from exc
    raise InputError(f"not a rational number: {value!r}")


def as_int(value: object, what: str) -> int:
    """``value`` if it is an integer (booleans excluded), else :class:`InputError`.

    Unlike ``int()`` this never truncates: ``3.9`` and ``"2.7"`` are rejected.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{what} must be an integer, got {value!r}")


def as_str(value: object, what: str) -> str:
    """``value`` if it is a string, else :class:`InputError`: a name is
    never made from another type with ``str()``."""
    if isinstance(value, str):
        return value
    raise InputError(f"{what} must be a string, got {value!r}")


def to_integers(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """L, the least common denominator of ``values``, and each value times L.

    Sums and comparisons of the integers are exact and, divided by L, give
    those of the rationals; an empty input has L = 1.
    """
    ratios = [x.as_integer_ratio() for x in values]
    scale = math.lcm(*{d for _n, d in ratios})
    return scale, [n * (scale // d) for n, d in ratios]


def fraction_str(x: Fraction) -> str:
    """Serialize a Fraction: exact decimal if one exists, else ``p/q``."""
    if x.denominator == 1:
        return str(x.numerator)
    den = x.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    shift = max(twos, fives)
    scaled = abs(x.numerator) * 10**shift // x.denominator
    digits = str(scaled).rjust(shift + 1, "0")
    sign = "-" if x < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


# ---------------------------------------------------------------------------
# graph node and edge types
# ---------------------------------------------------------------------------

class ResourceKind(str, Enum):
    """The four infrastructure dependency kinds a class may bind to."""

    COMPUTE = "compute"
    FILE_STORAGE = "file_storage"
    DATABASE = "database"
    CACHE = "cache"


@dataclass(frozen=True)
class ClassNode:
    """One application class; ``weight`` is its balance weight (one class = 1)."""

    id: int
    name: str
    weight: int = 1


@dataclass(frozen=True)
class ResourceNode:
    """One infrastructure dependency referenced by classes."""

    id: int
    name: str
    kind: ResourceKind


@dataclass(frozen=True)
class ClassEdge:
    """Merged undirected edge between two classes.

    ``weight`` is recomposable from the components:
    ``relation_base + increment * shared_resource_count + beta * flow_cooccurrence``
    where beta and increment are recorded on the owning graph. Endpoints are
    stored canonically with ``u < v``, which :func:`validate_graph` checks.
    """

    u: int
    v: int
    weight: Fraction
    relation_base: Fraction = Fraction(0)
    shared_resource_count: int = 0
    flow_cooccurrence: int = 0


@dataclass(frozen=True)
class ResourceEdge:
    """Binding between a resource node and a class node that depends on it."""

    resource: int
    cls: int


@dataclass(frozen=True)
class FunctionalFlow:
    """Ordered set of classes exercised by one business use case.

    ``members`` holds class ids, de-duplicated; the first one is the entry point.
    """

    id: str
    members: tuple[int, ...]


@dataclass(frozen=True)
class ApplicationGraph:
    """The full application model: class nodes, resource nodes, flows, edges.

    ``beta`` and ``resource_increment`` record the weight-composition
    parameters the class edges were built with, so the recomposition
    invariant stays checkable on the graph alone.
    """

    classes: tuple[ClassNode, ...]
    resources: tuple[ResourceNode, ...] = ()
    flows: tuple[FunctionalFlow, ...] = ()
    resource_edges: tuple[ResourceEdge, ...] = ()
    class_edges: tuple[ClassEdge, ...] = ()
    beta: Fraction = Fraction(1)
    resource_increment: Fraction = Fraction(1)

    def names(self) -> list[str]:
        return [c.name for c in self.classes]

    def id_by_name(self) -> dict[str, int]:
        return {c.name: c.id for c in self.classes}


def adjacency(g: ApplicationGraph, values: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Per-class adjacency lists ``[(neighbor, value), ...]`` sorted by id,
    where ``values[i]`` belongs to ``g.class_edges[i]``."""
    adj: list[list[tuple[int, int]]] = [[] for _ in g.classes]
    for e, value in zip(g.class_edges, values):
        adj[e.u].append((e.v, value))
        adj[e.v].append((e.u, value))
    for lst in adj:
        lst.sort(key=lambda t: t[0])
    return adj


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSet:
    """Assignment of every class node to exactly one of ``k`` partitions.

    ``assignment[class_id]`` is the partition index; class ids are dense so a
    tuple doubles as the map.
    """

    k: int
    assignment: tuple[int, ...]

    def sizes(self) -> list[int]:
        counts = [0] * self.k
        for part in self.assignment:
            counts[part] += 1
        return counts


def validate_partition(g: ApplicationGraph, p: PartitionSet) -> list[str]:
    """Violations of the partition contract against ``g``; empty means valid."""
    problems = []
    if p.k < 1:
        problems.append(f"partition count k={p.k} must be >= 1")
        return problems
    if len(p.assignment) != len(g.classes):
        problems.append(
            f"assignment covers {len(p.assignment)} classes, graph has {len(g.classes)}"
        )
        return problems
    used = set()
    for cid, part in enumerate(p.assignment):
        if not 0 <= part < p.k:
            problems.append(f"class {cid} assigned to out-of-range partition {part}")
        else:
            used.add(part)
    missing = sorted(set(range(p.k)) - used)
    for part in missing:
        problems.append(f"partition {part} is empty")
    return problems


def check_partition(g: ApplicationGraph, p: PartitionSet) -> None:
    """Raise :class:`InputError` naming every violation of the partition contract."""
    problems = validate_partition(g, p)
    if problems:
        raise InputError("invalid partition: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# infrastructure factors and prices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfrastructureFactor:
    """Counts of cloud components: compute, file storage, database, cache."""

    n_ec: int = 0
    n_s3: int = 0
    n_db: int = 0
    n_ca: int = 0

    def __add__(self, other: "InfrastructureFactor") -> "InfrastructureFactor":
        return InfrastructureFactor(
            self.n_ec + other.n_ec,
            self.n_s3 + other.n_s3,
            self.n_db + other.n_db,
            self.n_ca + other.n_ca,
        )


@dataclass(frozen=True)
class PriceTable:
    """Currency units per resource instance, one entry per kind."""

    compute: Fraction = Fraction(1)
    database: Fraction = Fraction(2)
    cache: Fraction = Fraction(1, 2)
    file_storage: Fraction = Fraction(1, 4)

    def unit_cost(self, kind: ResourceKind) -> Fraction:
        """The price of one ``kind`` resource: the field named ``kind.value``."""
        return getattr(self, kind.value)

    @classmethod
    def default(cls) -> "PriceTable":
        """Illustrative defaults; tune via a prices YAML for real platforms."""
        return cls()


# ---------------------------------------------------------------------------
# evaluation report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationReport:
    """All decomposition metrics for one partition of one graph.

    ``f1`` is None when no ground truth was supplied.
    """

    ngm: Fraction
    ifn_total: int
    ifn_mean: Fraction
    edge_cut: Fraction
    infra_total: InfrastructureFactor
    infra_cost: Fraction
    cluster_sizes: tuple[int, ...]
    f1: Fraction | None = None


# ---------------------------------------------------------------------------
# graph validation
# ---------------------------------------------------------------------------

def validate_graph(g: ApplicationGraph) -> list[str]:
    """All invariant violations in ``g``; an empty list means well-formed.

    Violations are data, not failures: each entry names the offending node
    or edge so callers can report precisely.
    """
    problems: list[str] = []
    n = len(g.classes)
    m = len(g.resources)

    seen_names: set[str] = set()
    for i, c in enumerate(g.classes):
        if c.id != i:
            problems.append(f"class ids not dense: index {i} holds id {c.id}")
        if not c.name:
            problems.append(f"class {c.id} has an empty name")
        elif c.name in seen_names:
            problems.append(f"duplicate class name {c.name!r}")
        else:
            seen_names.add(c.name)
        if c.weight < 1:
            problems.append(f"class {c.name!r} has weight {c.weight} < 1")

    seen_res: set[str] = set()
    for i, r in enumerate(g.resources):
        if r.id != i:
            problems.append(f"resource ids not dense: index {i} holds id {r.id}")
        if not r.name:
            problems.append(f"resource {r.id} has an empty name")
        elif r.name in seen_res:
            problems.append(f"duplicate resource name {r.name!r}")
        else:
            seen_res.add(r.name)

    # Recomposition runs on integers: every rational is scaled by L, the LCM
    # of all the denominators involved, so each edge is checked exactly as
    # weight*L == base*L + inc*L*shared + beta*L*flow.
    edges = g.class_edges
    scale, scaled = to_integers([
        g.resource_increment,
        g.beta,
        *(e.weight for e in edges),
        *(e.relation_base for e in edges),
    ])
    inc_l, beta_l = scaled[0], scaled[1]
    weights_l, bases_l = scaled[2 : 2 + len(edges)], scaled[2 + len(edges) :]
    seen_pairs: set[tuple[int, int]] = set()
    for e, weight_l, base_l in zip(edges, weights_l, bases_l):
        if not (0 <= e.u < n) or not (0 <= e.v < n):
            problems.append(f"class edge ({e.u}, {e.v}) references a missing class id")
            continue
        pair = (e.u, e.v)
        if e.u >= e.v:
            problems.append(f"class edge {pair} must satisfy u < v")
            continue
        if pair in seen_pairs:
            problems.append(f"parallel class edge on pair {pair}")
        seen_pairs.add(pair)
        if weight_l < 0 or base_l < 0 or e.shared_resource_count < 0 or e.flow_cooccurrence < 0:
            problems.append(f"class edge {pair} has a negative component")
        recomposed_l = base_l + inc_l * e.shared_resource_count + beta_l * e.flow_cooccurrence
        if weight_l != recomposed_l:
            recomposed = Fraction(recomposed_l, scale)
            problems.append(
                f"class edge {pair} weight {e.weight} != recomposed {recomposed}"
            )

    seen_bindings: set[tuple[int, int]] = set()
    for re_ in g.resource_edges:
        if not (0 <= re_.resource < m):
            problems.append(f"resource edge references missing resource id {re_.resource}")
            continue
        if not (0 <= re_.cls < n):
            problems.append(f"resource edge references missing class id {re_.cls}")
            continue
        key = (re_.resource, re_.cls)
        if key in seen_bindings:
            problems.append(f"duplicate resource edge {key}")
        seen_bindings.add(key)

    seen_flows: set[str] = set()
    for i, flow in enumerate(g.flows):
        if not flow.id:
            problems.append(f"flow at index {i} has an empty id")
        elif flow.id in seen_flows:
            problems.append(f"duplicate flow id {flow.id!r}")
        else:
            seen_flows.add(flow.id)
        if not flow.members:
            problems.append(f"flow {flow.id!r} has no members")
        for cid in flow.members:
            if not (0 <= cid < n):
                problems.append(f"flow {flow.id!r} references missing class id {cid}")

    return problems


# ---------------------------------------------------------------------------
# canonical JSON interchange
# ---------------------------------------------------------------------------

def graph_to_doc(g: ApplicationGraph) -> dict:
    """The canonical interchange document for a graph (JSON-serializable)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "beta": fraction_str(g.beta),
        "resource_increment": fraction_str(g.resource_increment),
        "classes": [
            {"id": c.id, "name": c.name, "weight": c.weight} for c in g.classes
        ],
        "resources": [
            {"id": r.id, "name": r.name, "kind": r.kind.value} for r in g.resources
        ],
        "flows": [{"id": f.id, "members": list(f.members)} for f in g.flows],
        "resource_edges": [
            {"resource": e.resource, "class": e.cls} for e in g.resource_edges
        ],
        "class_edges": [
            {
                "u": e.u,
                "v": e.v,
                "weight": fraction_str(e.weight),
                "relation_base": fraction_str(e.relation_base),
                "shared_resource_count": e.shared_resource_count,
                "flow_cooccurrence": e.flow_cooccurrence,
            }
            for e in g.class_edges
        ],
    }


def _check_schema_version(doc: Mapping, what: str) -> None:
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InputError(f"{what}: unsupported schema_version {version!r}")


def graph_from_doc(doc: Mapping) -> ApplicationGraph:
    """Parse the canonical interchange document back into a graph."""
    if not isinstance(doc, Mapping):
        raise InputError("graph document must be a JSON object")
    _check_schema_version(doc, "graph document")
    # Weights repeat a handful of distinct strings; each is parsed once per
    # document. Only strings are shared: 1, 1.0 and True hash alike.
    parsed: dict[str, Fraction] = {}

    def rational(value: object) -> Fraction:
        if type(value) is not str:
            return as_fraction(value)
        x = parsed.get(value)
        if x is None:
            x = parsed[value] = as_fraction(value)
        return x

    try:
        classes = tuple(
            ClassNode(
                as_int(c["id"], "class id"),
                as_str(c["name"], "class name"),
                as_int(c.get("weight", 1), "class weight"),
            )
            for c in doc.get("classes", [])
        )
        resources = tuple(
            ResourceNode(
                as_int(r["id"], "resource id"),
                as_str(r["name"], "resource name"),
                ResourceKind(r["kind"]),
            )
            for r in doc.get("resources", [])
        )
        flows = tuple(
            FunctionalFlow(
                as_str(f["id"], "flow id"), tuple(as_int(x, "flow member") for x in f["members"])
            )
            for f in doc.get("flows", [])
        )
        resource_edges = tuple(
            ResourceEdge(as_int(e["resource"], "resource id"), as_int(e["class"], "class id"))
            for e in doc.get("resource_edges", [])
        )
        class_edges = tuple(
            ClassEdge(
                as_int(e["u"], "class id"),
                as_int(e["v"], "class id"),
                rational(e["weight"]),
                rational(e.get("relation_base", 0)),
                as_int(e.get("shared_resource_count", 0), "shared_resource_count"),
                as_int(e.get("flow_cooccurrence", 0), "flow_cooccurrence"),
            )
            for e in doc.get("class_edges", [])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph document: {exc}") from exc
    return ApplicationGraph(
        classes=classes,
        resources=resources,
        flows=flows,
        resource_edges=resource_edges,
        class_edges=class_edges,
        beta=rational(doc.get("beta", 1)),
        resource_increment=rational(doc.get("resource_increment", 1)),
    )


def partition_to_doc(
    p: PartitionSet, g: ApplicationGraph, *, objective: Fraction, seed: int
) -> dict:
    assignment = {
        g.classes[cid].name: part for cid, part in enumerate(p.assignment)
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "k": p.k,
        "assignment": {name: assignment[name] for name in sorted(assignment)},
        "objective": fraction_str(objective),
        "seed": seed,
    }


def partition_from_doc(doc: Mapping, g: ApplicationGraph) -> PartitionSet:
    if not isinstance(doc, Mapping):
        raise InputError("partition document must be a JSON object")
    _check_schema_version(doc, "partition document")
    try:
        k = as_int(doc["k"], "partition count k")
        raw = doc["assignment"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed partition document: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise InputError("partition assignment must map class names to partition indices")
    ids = g.id_by_name()
    assignment = [-1] * len(g.classes)
    for name, part in raw.items():
        if name not in ids:
            raise InputError(f"partition references unknown class {name!r}")
        assignment[ids[name]] = as_int(part, f"partition of class {name!r}")
    for cid, part in enumerate(assignment):
        if part < 0:
            raise InputError(
                f"partition is missing class {g.classes[cid].name!r}"
            )
    p = PartitionSet(k=k, assignment=tuple(assignment))
    check_partition(g, p)
    return p


def factor_to_doc(f: InfrastructureFactor) -> dict:
    return {"n_ec": f.n_ec, "n_s3": f.n_s3, "n_db": f.n_db, "n_ca": f.n_ca}


def report_to_doc(r: EvaluationReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "f1": None if r.f1 is None else fraction_str(r.f1),
        "ngm": fraction_str(r.ngm),
        "ifn_total": r.ifn_total,
        "ifn_mean": fraction_str(r.ifn_mean),
        "edge_cut": fraction_str(r.edge_cut),
        "infra_total": factor_to_doc(r.infra_total),
        "infra_cost": fraction_str(r.infra_cost),
        "cluster_sizes": list(r.cluster_sizes),
    }
