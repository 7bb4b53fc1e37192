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

import functools
import itertools
import json
import math
import operator
from dataclasses import asdict, astuple, dataclass, fields
from enum import Enum
from fractions import Fraction
from numbers import Number
from typing import Callable, Iterable, Mapping, Sequence

SCHEMA_VERSION = 1
# graph.json has its own version: 2 writes the class edges and dependencies as columns
GRAPH_SCHEMA_VERSION = 2


class InputError(Exception):
    """Bad user input: malformed file, unknown enum value, invalid flag.

    The CLI maps this to exit code 2; anything else is an internal error.
    """


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

# The largest decimal exponent a number may carry: the digit count Python
# allows an integer literal. ``1e-10000000`` would take seconds to parse and
# make every later sum a 33-million-bit integer.
MAX_EXPONENT = 4300


def as_fraction(value: int | float | str | Fraction) -> Fraction:
    """Coerce a config/JSON value to an exact Fraction.

    Floats are routed through their shortest decimal repr, so a YAML ``0.1``
    means 1/10, not the nearest binary double. A non-finite float, or a
    decimal exponent beyond ±:data:`MAX_EXPONENT`, is an :class:`InputError`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"expected a number, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"not a finite number: {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            _mantissa, e, exponent = value.lower().rpartition("e")
            if e and abs(int(exponent)) > MAX_EXPONENT:
                raise InputError(f"exponent beyond ±{MAX_EXPONENT}: {value!r}")
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


def _all_int(values: Sequence[object]) -> bool:
    """Whether the type of every value is exactly ``int``, so a bool or a
    float is not, counted in C for a whole column of ids at once."""
    return operator.countOf(map(type, values), int) == len(values)


def _non_tuples(owner: object, *names: str, what: str = "") -> list[str]:
    """A problem for each field ``names`` of ``owner`` that is not a tuple."""
    return [
        f"{what}{name} must be a tuple, got {type(getattr(owner, name)).__name__}"
        for name in names
        if not isinstance(getattr(owner, name), tuple)
    ]


def _foreign_elements(owner: object, **kinds: type) -> list[str]:
    """A problem for each tuple field ``name`` of ``owner`` that holds a
    value whose type is not exactly ``kinds[name]``, scanned in C."""
    problems = []
    for name, kind in kinds.items():
        values = getattr(owner, name)
        if operator.countOf(map(type, values), kind) != len(values):
            i, value = next((i, v) for i, v in enumerate(values) if type(v) is not kind)
            problems.append(
                f"{name} must hold {kind.__name__} values, got {type(value).__name__} at index {i}"
            )
    return problems


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
    """Serialize a Fraction: exact decimal if one exists, else ``p/q``. A
    number with more digits than Python turns into text (4300 by default)
    is an :class:`InputError`."""
    try:
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
    except ValueError:  # int-to-str past the interpreter's digit limit
        raise InputError(f"number too large to write: over {MAX_EXPONENT} digits") from None


# ---------------------------------------------------------------------------
# graph node and edge types
# ---------------------------------------------------------------------------

class ResourceKind(str, Enum):
    """The four infrastructure dependency kinds a class may bind to."""

    COMPUTE = "compute"
    FILE_STORAGE = "file_storage"
    DATABASE = "database"
    CACHE = "cache"


class Relation(str, Enum):
    """Kind of a class-to-class dependency."""

    CALL = "call"
    REFERENCE = "reference"
    INHERITANCE = "inheritance"


_RELATIONS = {r.value: r for r in Relation}


def as_relation(value: object) -> Relation:
    """The :class:`Relation` a string names, trimmed and case-folded. A
    relation's own value, as every writer spells it, is looked up at once."""
    if type(value) is str and value in _RELATIONS:
        return _RELATIONS[value]
    try:
        return Relation(as_str(value, "relation").strip().lower())
    except ValueError:
        raise InputError(f"unknown relation {value!r}") from None


@dataclass(frozen=True)
class DependencyRecord:
    """One directed class-to-class dependency, between class names, as the
    dependency export is parsed; a graph holds them as :class:`Dependencies`."""

    from_class: str
    to_class: str
    relation: Relation = Relation.CALL


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
class ClassEdges:
    """The merged undirected class edges, column by column: edge ``i`` joins
    ``u[i]`` and ``v[i]`` and weighs the exact rational ``weight[i] / scale``,
    where ``scale`` (L) is the least common denominator of the weights as
    :func:`monopart.graphbuild.build_graph` composed them. Endpoints are
    stored canonically with ``u < v``, which :func:`validate_graph` checks.
    The integer weights are what every loop over the edges reads; a
    Fraction is made only for a weight that is written or reported. A column
    that is not a tuple, or a ``scale`` not an ``int`` >= 1, is :class:`ValueError`.
    """

    u: tuple[int, ...] = ()
    v: tuple[int, ...] = ()
    weight: tuple[int, ...] = ()
    scale: int = 1

    def __post_init__(self) -> None:
        if problems := _non_tuples(self, "u", "v", "weight", what="class edge column "):
            raise ValueError("; ".join(problems))
        if (
            not len(self.u) == len(self.v) == len(self.weight)
            or type(self.scale) is not int
            or self.scale < 1
        ):
            raise ValueError("class edge columns must have one length and an integer scale >= 1")

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[int, int, Fraction]]) -> "ClassEdges":
        """The columns of ``(u, v, weight)`` rows, the weights turned into
        integers by :func:`to_integers`."""
        rows = list(rows)
        scale, weights = to_integers([w for _u, _v, w in rows])
        return cls(tuple(r[0] for r in rows), tuple(r[1] for r in rows), tuple(weights), scale)

    def __len__(self) -> int:
        return len(self.u)

    def fraction(self, i: int) -> Fraction:
        """The rational weight of edge ``i``."""
        return Fraction(self.weight[i], self.scale)

    def weight_texts(self) -> list[str]:
        """:func:`fraction_str` of each edge's weight, written once per
        distinct weight."""
        text = {w: fraction_str(Fraction(w, self.scale)) for w in set(self.weight)}
        return list(map(text.__getitem__, self.weight))


@dataclass(frozen=True)
class Dependencies:
    """The directed class-to-class dependencies, column by column, in parse
    order: dependency ``i`` runs from class ``source[i]`` to class
    ``target[i]`` as ``relation[i]``. The ids and relations are
    :func:`validate_graph`'s to check; a column that is not a tuple, or
    columns of unequal length, is :class:`ValueError`.
    """

    source: tuple[int, ...] = ()
    target: tuple[int, ...] = ()
    relation: tuple[Relation, ...] = ()

    def __post_init__(self) -> None:
        if problems := _non_tuples(self, "source", "target", "relation", what="dependency column "):
            raise ValueError("; ".join(problems))
        if not len(self.source) == len(self.target) == len(self.relation):
            raise ValueError("dependency columns must have one length")

    def __len__(self) -> int:
        return len(self.source)


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
    """The full application model: class nodes, resource nodes, flows, edges,
    and the directed dependencies the interface number counts.
    Made only if :func:`validate_graph` finds no problem, else :class:`ValueError` lists them."""

    classes: tuple[ClassNode, ...]
    resources: tuple[ResourceNode, ...] = ()
    flows: tuple[FunctionalFlow, ...] = ()
    resource_edges: tuple[ResourceEdge, ...] = ()
    class_edges: ClassEdges = ClassEdges()
    dependencies: Dependencies = Dependencies()

    def __post_init__(self) -> None:
        if problems := validate_graph(self):
            raise ValueError("; ".join(problems))

    def names(self) -> list[str]:
        return [c.name for c in self.classes]

    def id_by_name(self) -> dict[str, int]:
        return {c.name: c.id for c in self.classes}


def adjacency(g: ApplicationGraph) -> list[dict[int, int]]:
    """Per-class adjacency rows ``{neighbor: weight}`` with the class edges'
    integer weights; the graph holds no parallel edge, so none is overwritten."""
    adj: list[dict[int, int]] = [{} for _ in g.classes]
    edges = g.class_edges
    for u, v, weight in zip(edges.u, edges.v, edges.weight):
        adj[u][v] = adj[v][u] = weight
    return adj


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSet:
    """Assignment of every class node to exactly one of ``k`` partitions.

    ``assignment[class_id]`` is the partition index; class ids are dense so a
    tuple doubles as the map. It is checked when made: a tuple, an integer
    k >= 1, every index an integer in ``range(k)`` and no empty partition,
    else :class:`ValueError`.
    Covering exactly a graph's classes is :func:`check_partition`'s rule.
    """

    k: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if problems := _non_tuples(self, "assignment"):
            raise ValueError("invalid partition: " + problems[0])
        if type(self.k) is not int:
            raise ValueError(f"invalid partition: partition count k={self.k!r} must be an integer")
        if self.k < 1:
            raise ValueError(f"invalid partition: partition count k={self.k} must be >= 1")
        if self.k > len(self.assignment):
            raise ValueError(
                f"invalid partition: k={self.k} exceeds class count {len(self.assignment)}"
            )
        parts = self.assignment
        if _all_int(parts) and set(parts) == set(range(self.k)):
            return
        problems = [
            f"class {cid} has non-integer partition {part!r}" if type(part) is not int
            else f"class {cid} assigned to out-of-range partition {part}"
            for cid, part in enumerate(parts)
            if type(part) is not int or not 0 <= part < self.k
        ]
        # only a number can equal an index (0.0 and True do): nothing else is hashed
        used = {part for part in parts if isinstance(part, Number)}
        problems += [f"partition {part} is empty" for part in range(self.k) if part not in used]
        raise ValueError("invalid partition: " + "; ".join(problems))

    def sizes(self) -> list[int]:
        counts = [0] * self.k
        for part in self.assignment:
            counts[part] += 1
        return counts


def check_partition(g: ApplicationGraph, p: PartitionSet) -> None:
    """Raise :class:`InputError` unless ``p`` assigns exactly the classes of ``g``."""
    if len(p.assignment) != len(g.classes):
        raise InputError(
            f"invalid partition: assignment covers {len(p.assignment)} classes, "
            f"graph has {len(g.classes)}"
        )


# ---------------------------------------------------------------------------
# infrastructure factors and prices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfrastructureFactor:
    """Counts of cloud components, one field per kind of ``FACTOR_KINDS``."""

    n_ec: int = 0
    n_s3: int = 0
    n_db: int = 0
    n_ca: int = 0

    def __add__(self, other: "InfrastructureFactor") -> "InfrastructureFactor":
        return InfrastructureFactor(*map(sum, zip(astuple(self), astuple(other))))


# The resource kind each InfrastructureFactor field counts, in field order.
FACTOR_KINDS = (
    ResourceKind.COMPUTE,
    ResourceKind.FILE_STORAGE,
    ResourceKind.DATABASE,
    ResourceKind.CACHE,
)


@dataclass(frozen=True)
class PriceTable:
    """Currency units per resource instance, one entry per kind; every price
    is coerced to a Fraction and must be >= 0."""

    compute: Fraction = Fraction(1)
    database: Fraction = Fraction(2)
    cache: Fraction = Fraction(1, 2)
    file_storage: Fraction = Fraction(1, 4)

    def __post_init__(self) -> None:
        # in name order, so a prices file with several bad keys names the
        # first of them in sorted order
        for name in sorted(f.name for f in fields(self)):
            value = as_fraction(getattr(self, name))
            if value < 0:
                raise InputError(f"price for {name} must be >= 0, got {fraction_str(value)}")
            object.__setattr__(self, name, value)

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
    """All invariant violations in ``g``, each naming its node or edge; an
    empty list means well-formed, and a container of the wrong type, or one
    holding a value of the wrong type, is reported alone.
    :class:`ApplicationGraph` raises on any."""
    problems = _non_tuples(g, "classes", "resources", "flows", "resource_edges")
    problems += [
        f"{name} must be a {kind.__name__}, got {type(getattr(g, name)).__name__}"
        for name, kind in (("class_edges", ClassEdges), ("dependencies", Dependencies))
        if type(getattr(g, name)) is not kind
    ]
    if problems:
        return problems
    if problems := _foreign_elements(
        g,
        classes=ClassNode,
        resources=ResourceNode,
        flows=FunctionalFlow,
        resource_edges=ResourceEdge,
    ):
        return problems
    n = len(g.classes)
    m = len(g.resources)

    class_names: set[str] = set()
    for i, c in enumerate(g.classes):
        _id_rule(problems, "class", i, c.id)
        _name_rule(problems, class_names, c.name, "class", c.id, "name")
        if type(c.weight) is not int:
            problems.append(f"class {c.name!r} has non-integer weight {c.weight!r}")
        elif c.weight < 1:
            problems.append(f"class {c.name!r} has weight {c.weight} < 1")

    seen_res: set[str] = set()
    for i, r in enumerate(g.resources):
        _id_rule(problems, "resource", i, r.id)
        if type(r.kind) is not ResourceKind:
            problems.append(f"resource {r.id} has kind {r.kind!r}, not a ResourceKind")
        _name_rule(problems, seen_res, r.name, "resource", r.id, "name")

    problems += _class_edge_problems(g.class_edges, n)

    seen_bindings: set[tuple[int, int]] = set()
    for re_ in g.resource_edges:
        if type(re_.resource) is not int or type(re_.cls) is not int:
            problems.append(f"resource edge ({re_.resource!r}, {re_.cls!r}) has a non-integer id")
            continue
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
        _name_rule(problems, seen_flows, flow.id, "flow at index", i, "id")
        if not isinstance(flow.members, tuple):
            problems += _non_tuples(flow, "members", what=f"flow {flow.id!r} ")
            continue
        if not flow.members:
            problems.append(f"flow {flow.id!r} has no members")
        for cid in flow.members:
            if type(cid) is not int:
                problems.append(f"flow {flow.id!r} has non-integer class id {cid!r}")
            elif not (0 <= cid < n):
                problems.append(f"flow {flow.id!r} references missing class id {cid}")
        try:
            repeats = len(set(flow.members)) < len(flow.members)
        except TypeError:  # an unhashable member, reported above
            continue
        if repeats:
            seen: set[int] = set()
            repeated = dict.fromkeys(c for c in flow.members if c in seen or seen.add(c))
            problems += [f"flow {flow.id!r} repeats class id {cid}" for cid in repeated]

    problems += _dependency_problems(g.dependencies, n)
    return problems


def _id_rule(problems: list[str], what: str, i: int, id_: object) -> None:
    """The dense-id rule: the ``what`` node at index ``i`` has the ``int`` id ``i``."""
    if type(id_) is not int:
        problems.append(f"{what} at index {i} has non-integer id {id_!r}")
    elif id_ != i:
        problems.append(f"{what} ids not dense: index {i} holds id {id_}")


def _name_rule(problems: list[str], seen: set[str], name: object, owner: str, key: object, field: str) -> None:
    """The name rule of class and resource names and flow ids: a string, not empty and not in
    ``seen``, which it joins. ``owner`` and ``key`` label the node; a repeat is named by kind."""
    if not isinstance(name, str):
        problems.append(f"{owner} {key} has non-string {field} {name!r}")
        return
    if not name:
        problems.append(f"{owner} {key} has an empty {field}")
    elif name in seen:
        problems.append(f"duplicate {owner.split()[0]} {field} {name!r}")
    seen.add(name)


def _class_edge_problems(edges: ClassEdges, n: int) -> list[str]:
    """The class-edge problems, in edge order, for ``n`` classes. Columns
    whose pairs are in increasing order, as
    :func:`monopart.graphbuild.build_graph` emits them, are checked whole;
    any others are walked edge by edge for the messages, if any."""
    u, v, weight = edges.u, edges.v, edges.weight
    if (
        _all_int(u)
        and _all_int(v)
        and all(map(operator.lt, u, v))
        and (not v or max(v) < n)
        # pairs in increasing order are distinct, and u[0] is the least u
        and all(map(operator.lt, zip(u, v), zip(u[1:], v[1:])))
        and (not u or u[0] >= 0)
        and _all_int(weight)
        and (not weight or min(weight) >= 0)
    ):
        return []
    problems: list[str] = []
    seen_pairs: set[tuple[int, int]] = set()
    for i, pair in enumerate(zip(u, v)):
        a, b = pair
        if type(a) is not int or type(b) is not int:
            problems.append(f"class edge ({a!r}, {b!r}) has a non-integer endpoint")
            continue
        if not (0 <= a < n) or not (0 <= b < n):
            problems.append(f"class edge ({a}, {b}) references a missing class id")
            continue
        if a >= b:
            problems.append(f"class edge {pair} must satisfy u < v")
            continue
        if pair in seen_pairs:
            problems.append(f"parallel class edge on pair {pair}")
        seen_pairs.add(pair)
        if type(weight[i]) is not int:
            problems.append(f"class edge {pair} has non-integer weight {weight[i]!r}")
        elif weight[i] < 0:
            problems.append(f"class edge {pair} has negative weight {edges.fraction(i)}")
    return problems


def _dependency_problems(deps: Dependencies, n: int) -> list[str]:
    """The dependency problems, in dependency order, for ``n`` classes.
    The columns are checked whole; they are walked dependency by
    dependency only for the messages, if any."""
    ids = deps.source + deps.target
    if (
        _all_int(ids)
        and (not ids or (min(ids) >= 0 and max(ids) < n))
        and operator.countOf(map(type, deps.relation), Relation) == len(deps)
    ):
        return []
    problems: list[str] = []
    for i, (a, b, relation) in enumerate(zip(deps.source, deps.target, deps.relation)):
        for cid in (a, b):
            if type(cid) is not int:
                problems.append(f"dependency {i} has non-integer class id {cid!r}")
            elif not 0 <= cid < n:
                problems.append(f"dependency {i} references missing class id {cid}")
        if type(relation) is not Relation:
            problems.append(f"dependency {i} has relation {relation!r}, not a Relation")
    return problems


# ---------------------------------------------------------------------------
# canonical JSON interchange
# ---------------------------------------------------------------------------

_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=64)  # one per depth
def _encoder(newline: str) -> Callable[[object], str]:
    """The stdlib C encoder (where ``_json`` exists) writing one flat
    container, with ``newline`` (a line break and an indent) after each
    item separator."""
    return json.JSONEncoder(separators=("," + newline, ": "), check_circular=False).encode


def json_text(doc: object) -> str:
    """``json.dumps(doc, indent=2)``, the text of every JSON artifact, for a
    document whose object keys are strings.

    The stdlib writes with its pure-Python encoder whenever ``indent`` is
    set. Here Python walks only the upper levels. A container of scalars
    goes to the C encoder in one call, with the line break and indent as the
    item separator; only the brackets are added around the result. So does
    a list of records, objects whose values are all scalars: see
    :func:`_records_text`.
    """
    return _json_text(doc, "\n")


def _json_text(value: object, newline: str) -> str:
    # ``newline`` is a line break and the indent of the line ``value`` ends on
    if not isinstance(value, (dict, list, tuple)):
        return _encoder(newline)(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    items = value.values() if isinstance(value, dict) else value
    if set(map(type, items)) <= _SCALAR_TYPES:
        text = _encoder(inner)(value)
        return text[0] + inner + text[1:-1] + newline + text[-1]
    if isinstance(value, dict):
        key = _encoder(inner)
        return "{" + inner + ("," + inner).join(
            key(k) + ": " + _json_text(v, inner) for k, v in value.items()
        ) + newline + "}"
    if all(type(d) is dict and d for d in value):
        if (text := _records_text(value, inner)) is not None:
            return "[" + inner + text + newline + "]"
    return "[" + inner + ("," + inner).join(_json_text(v, inner) for v in value) + newline + "]"


def _records_text(records: Sequence[dict], brace: str) -> str | None:
    """The indented text of non-empty records, objects whose values are all
    scalars, each opening and closing on a line that ``brace`` (a line break
    and an indent) starts, joined by ``,``; None unless every object is a
    record.

    All of them go to the C encoder in one call, with the line break and
    indent of a field as the item separator, so ``"},"`` before a line
    break can only be the seam between two records.
    """
    key = brace + "  "
    types = set(map(type, itertools.chain.from_iterable(map(dict.values, records))))
    if not types <= _SCALAR_TYPES:
        return None
    body = _encoder(key)(records)[2:-2]
    seam = brace + "}," + brace + "{" + key
    return "{" + key + body.replace("}," + key + "{", seam) + brace + "}"


def graph_to_doc(g: ApplicationGraph) -> dict:
    """The canonical interchange document for a graph (JSON-serializable):
    the nodes, flows and bindings as lists of records, the class edges and
    the dependencies as objects of equally long columns."""
    edges, deps = g.class_edges, g.dependencies
    return {
        "schema_version": GRAPH_SCHEMA_VERSION,
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
        "class_edges": {"u": list(edges.u), "v": list(edges.v), "weight": edges.weight_texts()},
        "dependencies": {
            "from": list(deps.source),
            "to": list(deps.target),
            "relation": [relation.value for relation in deps.relation],
        },
    }


def _check_schema_version(
    doc: Mapping, what: str, current: int = SCHEMA_VERSION, writer: str = ""
) -> None:
    """Raise :class:`InputError` unless ``doc`` has ``current`` as its
    version or none; an older one says to re-run its ``writer``, if given."""
    version = doc.get("schema_version", current)
    # True and 1.0 compare equal to 1; as with as_int, only an int counts
    if type(version) is not int or version != current:
        older = writer and type(version) is int and version < current
        hint = f"; re-run {writer} to write schema_version {current}" if older else ""
        raise InputError(f"{what}: unsupported schema_version {version!r}{hint}")


def _read_columns(doc: Mapping, section: str, keys: tuple[str, ...]) -> list[tuple]:
    """The columns ``keys`` of the document's ``section``, an object of
    equally long lists, each as a tuple of its values as read; an absent
    section reads as empty columns."""
    raw = doc.get(section, dict.fromkeys(keys, []))
    if not isinstance(raw, Mapping):
        raise InputError(f"{section} must be an object of columns, got {type(raw).__name__}")
    columns = []
    for key in keys:
        if key not in raw:
            raise InputError(f"{section} has no column {key!r}")
        if type(raw[key]) is not list:
            raise InputError(f"{section} column {key!r} must be a list, got {type(raw[key]).__name__}")
        columns.append(tuple(raw[key]))
    if len(set(map(len, columns))) > 1:
        lengths = ", ".join(f"{key} {len(column)}" for key, column in zip(keys, columns))
        raise InputError(f"{section} columns must have one length, got {lengths}")
    return columns


def _read_class_edges(doc: Mapping) -> ClassEdges:
    """The document's class edges, the endpoints as they are for
    :func:`validate_graph` to check. Each distinct weight string is parsed
    once, in order of first appearance, so the first bad weight in the
    document is named."""
    u, v, weight = _read_columns(doc, "class_edges", ("u", "v", "weight"))
    if set(map(type, weight)) <= {str}:
        parsed = {text: as_fraction(text) for text in dict.fromkeys(weight)}
        scale, scaled = to_integers(list(parsed.values()))
        return ClassEdges(u, v, tuple(map(dict(zip(parsed, scaled)).__getitem__, weight)), scale)
    # JSON numbers are parsed edge by edge: 1 and True hash alike
    scale, scaled = to_integers(list(map(as_fraction, weight)))
    return ClassEdges(u, v, tuple(scaled), scale)


def _read_dependencies(doc: Mapping) -> Dependencies:
    """The document's dependencies, the class ids as they are for
    :func:`validate_graph` to check. Each distinct relation string is
    parsed once, as the weights are."""
    source, target, relation = _read_columns(doc, "dependencies", ("from", "to", "relation"))
    if set(map(type, relation)) <= {str}:
        parsed = {text: as_relation(text) for text in dict.fromkeys(relation)}
        return Dependencies(source, target, tuple(map(parsed.__getitem__, relation)))
    # a value that is not a string is not hashed (a JSON list is not hashable)
    return Dependencies(source, target, tuple(map(as_relation, relation)))


def graph_from_doc(doc: Mapping) -> ApplicationGraph:
    """Parse the canonical interchange document back into a graph; a bad
    field, or a graph :class:`ApplicationGraph` refuses, is an :class:`InputError`.

    Only the current :data:`GRAPH_SCHEMA_VERSION` is read: an older
    document is refused with a hint to re-run ``ingest``. Keys it does not
    read are ignored. An absent section reads as empty.
    """
    if not isinstance(doc, Mapping):
        raise InputError("graph document must be a JSON object")
    _check_schema_version(doc, "graph document", GRAPH_SCHEMA_VERSION, writer="ingest")
    try:
        classes = tuple(ClassNode(c["id"], c["name"], c.get("weight", 1)) for c in doc.get("classes", []))
        resources = tuple(
            ResourceNode(r["id"], r["name"], ResourceKind(r["kind"])) for r in doc.get("resources", [])
        )
        flows = tuple(FunctionalFlow(f["id"], tuple(f["members"])) for f in doc.get("flows", []))
        resource_edges = tuple(ResourceEdge(e["resource"], e["class"]) for e in doc.get("resource_edges", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph document: {exc}") from exc
    class_edges = _read_class_edges(doc)
    dependencies = _read_dependencies(doc)
    try:
        return ApplicationGraph(classes, resources, flows, resource_edges, class_edges, dependencies)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


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
        k = doc["k"]
        raw = doc["assignment"]
    except KeyError as exc:
        raise InputError(f"malformed partition document: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise InputError("partition assignment must map class names to partition indices")
    ids = g.id_by_name()
    for name in raw:
        if name not in ids:
            raise InputError(f"partition references unknown class {name!r}")
    if len(raw) < len(ids):
        missing = next(name for name in ids if name not in raw)
        raise InputError(f"partition is missing class {missing!r}")
    try:
        return PartitionSet(k, tuple(map(raw.__getitem__, ids)))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def factor_to_doc(f: InfrastructureFactor) -> dict:
    return asdict(f)


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
