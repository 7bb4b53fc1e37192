"""Parsers for the three input artifacts: class dependencies, infrastructure
manifest, execution traces.

Everything lands in neutral ingestion records (names, not ids); graph
assembly happens later in :mod:`monopart.graphbuild`.
"""

from __future__ import annotations

import json
import logging
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import Enum

import yaml

from .model import InputError, ResourceKind

log = logging.getLogger(__name__)


class Relation(str, Enum):
    """Kind of a class-to-class dependency."""

    CALL = "call"
    REFERENCE = "reference"
    INHERITANCE = "inheritance"


@dataclass(frozen=True)
class DependencyRecord:
    """One directed class-to-class dependency."""

    from_class: str
    to_class: str
    relation: Relation = Relation.CALL


@dataclass(frozen=True)
class InfraManifest:
    """Declared infrastructure resources and class-to-resource bindings."""

    resources: tuple[tuple[str, ResourceKind], ...] = ()
    bindings: tuple[tuple[str, str], ...] = ()  # (class name, resource name)


@dataclass(frozen=True)
class TraceRecord:
    """One execution-trace event: ``class_name`` seen at position ``seq``
    within flow ``flow_hint``."""

    flow_hint: str
    seq: int
    class_name: str


@dataclass(frozen=True)
class FlowRecord:
    """One functional flow at ingestion level: ordered distinct class names,
    first entry is the flow's entry point."""

    id: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class FlowRuleConfig:
    """Rules for turning a trace log into flows.

    ``line_regex`` must define a named group ``class`` and may define
    ``flow``; untagged lines are segmented at every occurrence of an
    entry-point class (no entry points: one flow for the whole log).
    """

    line_regex: str
    entry_points: tuple[str, ...] = ()


@dataclass(frozen=True)
class TraceParseResult:
    records: tuple[TraceRecord, ...]
    skipped: int


# Accepted spellings for resource kinds in manifests (case-insensitive).
KIND_ALIASES: dict[str, ResourceKind] = {
    "database": ResourceKind.DATABASE,
    "s3": ResourceKind.FILE_STORAGE,
    "file_storage": ResourceKind.FILE_STORAGE,
    "cache": ResourceKind.CACHE,
    "compute": ResourceKind.COMPUTE,
    "vm": ResourceKind.COMPUTE,
    "ec2": ResourceKind.COMPUTE,
}


def _as_text(data: bytes | str) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"input is not valid UTF-8: {exc}") from exc
    return data


def _parse_relation(raw: object) -> Relation:
    if not isinstance(raw, str):
        raise InputError(f"relation must be a string, got {raw!r}")
    try:
        return Relation(raw.strip().lower())
    except ValueError:
        raise InputError(f"unknown relation {raw!r}") from None


# ---------------------------------------------------------------------------
# class dependencies (XML, or the isomorphic JSON form)
# ---------------------------------------------------------------------------

def parse_dependency_xml(data: bytes | str) -> list[DependencyRecord]:
    """Parse a class-dependency export into dependency records.

    The XML schema is ``<dependencies><class name="..."><dependsOn name="..."
    relation="call|reference|inheritance"/>...</class>...</dependencies>``;
    a JSON document with the isomorphic shape
    ``{"classes": [{"name": ..., "dependsOn": [{"name", "relation"}]}]}``
    is accepted wherever the XML is. ``relation`` defaults to ``call``.
    Self-dependencies are dropped with a warning; names are whitespace-trimmed.
    """
    text = _as_text(data)
    if text.lstrip()[:1] in ("{", "["):
        return _dependencies_from_json(text)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, col = exc.position
        raise InputError(f"malformed XML at line {line}, column {col}: {exc.msg}") from exc
    if root.tag != "dependencies":
        raise InputError(f"expected root element <dependencies>, got <{root.tag}>")
    records: list[DependencyRecord] = []
    for class_el in root.iter("class"):
        from_name = (class_el.get("name") or "").strip()
        if not from_name:
            raise InputError("<class> element without a name attribute")
        for dep_el in class_el.iter("dependsOn"):
            to_name = (dep_el.get("name") or "").strip()
            if not to_name:
                raise InputError(
                    f"<dependsOn> under class {from_name!r} without a name attribute"
                )
            relation = _parse_relation(dep_el.get("relation", "call"))
            if from_name == to_name:
                log.warning("dropping self-dependency of class %r", from_name)
                continue
            records.append(DependencyRecord(from_name, to_name, relation))
    return records


def _dependencies_from_json(text: str) -> list[DependencyRecord]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    entries = doc.get("classes") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise InputError('dependency JSON must be an object with a "classes" array of objects')
    records: list[DependencyRecord] = []
    for entry in entries:
        from_name = str(entry.get("name", "")).strip()
        if not from_name:
            raise InputError("dependency JSON entry without a class name")
        depends_on = entry.get("dependsOn", [])
        if not isinstance(depends_on, list):
            raise InputError(f'"dependsOn" of {from_name!r} must be an array')
        for dep in depends_on:
            if isinstance(dep, str):
                to_name, relation = dep.strip(), Relation.CALL
            elif isinstance(dep, dict):
                to_name = str(dep.get("name", "")).strip()
                relation = _parse_relation(str(dep.get("relation", "call")))
            else:
                raise InputError(f"dependency of {from_name!r} is not an object or a name: {dep!r}")
            if not to_name:
                raise InputError(f"dependency of {from_name!r} without a name")
            if from_name == to_name:
                log.warning("dropping self-dependency of class %r", from_name)
                continue
            records.append(DependencyRecord(from_name, to_name, relation))
    return records


def dependencies_to_doc(records: list[DependencyRecord]) -> list[dict]:
    """Directed records as JSON objects (embedded in the graph artifact so
    direction survives for interface counting)."""
    return [
        {"from": r.from_class, "to": r.to_class, "relation": r.relation.value}
        for r in records
    ]


def dependencies_from_doc(doc: list) -> list[DependencyRecord]:
    try:
        return [
            DependencyRecord(str(e["from"]), str(e["to"]), _parse_relation(e["relation"]))
            for e in doc
        ]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed dependency list: {exc}") from exc


# ---------------------------------------------------------------------------
# infrastructure manifest (YAML)
# ---------------------------------------------------------------------------

def parse_infra_yaml(data: bytes | str) -> InfraManifest:
    """Parse the infrastructure manifest.

    Schema: top-level ``resources:`` list of ``{name, kind}`` and
    ``bindings:`` list of ``{class, resource}``. Kind strings map
    case-insensitively through :data:`KIND_ALIASES`.
    """
    text = _as_text(data)
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InputError(f"malformed YAML: {exc}") from exc
    if doc is None:
        return InfraManifest()
    if not isinstance(doc, dict):
        raise InputError("manifest must be a YAML mapping")

    resources: list[tuple[str, ResourceKind]] = []
    declared: set[str] = set()
    for entry in doc.get("resources") or []:
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise InputError(f"resource entry must have name and kind: {entry!r}")
        name = str(entry["name"]).strip()
        raw_kind = str(entry["kind"]).strip().lower()
        kind = KIND_ALIASES.get(raw_kind)
        if kind is None:
            raise InputError(f"unknown resource kind {raw_kind!r}")
        if name in declared:
            raise InputError(f"duplicate resource name {name!r}")
        declared.add(name)
        resources.append((name, kind))

    bindings: list[tuple[str, str]] = []
    for entry in doc.get("bindings") or []:
        if not isinstance(entry, dict) or "class" not in entry or "resource" not in entry:
            raise InputError(f"binding entry must have class and resource: {entry!r}")
        cls = str(entry["class"]).strip()
        res = str(entry["resource"]).strip()
        if res not in declared:
            raise InputError(
                f"binding for class {cls!r} references undeclared resource {res!r}"
            )
        bindings.append((cls, res))

    return InfraManifest(resources=tuple(resources), bindings=tuple(bindings))


def manifest_to_yaml(manifest: InfraManifest) -> str:
    """Emit a manifest in the schema `parse_infra_yaml` reads (round-trips)."""
    lines = ["resources:" if manifest.resources else "resources: []"]
    for name, kind in manifest.resources:
        lines.append(f"  - name: {name}")
        lines.append(f"    kind: {kind.value}")
    if manifest.bindings:
        lines.append("bindings:")
        for cls, res in manifest.bindings:
            lines.append(f"  - class: {cls}")
            lines.append(f"    resource: {res}")
    else:
        lines.append("bindings: []")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# execution traces
# ---------------------------------------------------------------------------

def load_flow_rules(data: bytes | str) -> FlowRuleConfig:
    """Load a flow-rule config: YAML ``{line_regex: ..., entry_points: [...]}``."""
    text = _as_text(data)
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InputError(f"malformed YAML: {exc}") from exc
    if not isinstance(doc, dict) or "line_regex" not in doc:
        raise InputError("flow rules must be a mapping with a line_regex key")
    entry_points = doc.get("entry_points")
    if not isinstance(entry_points, (list, type(None))):
        raise InputError(f"flow rule entry_points must be a list, got {entry_points!r}")
    return FlowRuleConfig(
        line_regex=str(doc["line_regex"]), entry_points=tuple(str(e) for e in entry_points or ())
    )


def parse_traces(data: bytes | str, rules: FlowRuleConfig) -> TraceParseResult:
    """Turn a line-oriented trace log into trace records.

    Lines the rule regex rejects are counted as skipped, never fatal. Lines
    without a flow capture fall into an untagged stream that is segmented
    into synthetic flows ``F0, F1, ...`` at every occurrence of an
    entry-point class; with no entry points the stream is one flow.
    """
    try:
        pattern = re.compile(rules.line_regex)
    except re.error as exc:
        raise InputError(f"invalid flow rule regex: {exc}") from exc
    if "class" not in pattern.groupindex:
        raise InputError("flow rule regex must define a named group 'class'")
    has_flow_group = "flow" in pattern.groupindex

    text = _as_text(data)
    entry_points = set(rules.entry_points)
    # (hint or None, class name) per matched line, in log order
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
        hint = hint.strip() if hint else None
        events.append((hint, cls))

    # assign synthetic hints to the untagged stream
    segment = -1
    resolved: list[tuple[str, str]] = []
    for hint, cls in events:
        if hint is None:
            if segment < 0 or (entry_points and cls in entry_points):
                segment += 1
            hint = f"F{segment}"
        resolved.append((hint, cls))

    counters: dict[str, int] = {}
    records = []
    for hint, cls in resolved:
        seq = counters.get(hint, 0)
        counters[hint] = seq + 1
        records.append(TraceRecord(flow_hint=hint, seq=seq, class_name=cls))
    if skipped:
        log.warning("skipped %d unparseable trace line(s)", skipped)
    return TraceParseResult(records=tuple(records), skipped=skipped)


def group_flows(records: list[TraceRecord] | tuple[TraceRecord, ...]) -> list[FlowRecord]:
    """Group trace records into flows, one per distinct flow hint.

    Members are de-duplicated preserving first occurrence, so the first
    member is the flow's entry point.
    """
    ordered_hints: list[str] = []
    by_hint: dict[str, list[TraceRecord]] = {}
    for rec in records:
        if rec.flow_hint not in by_hint:
            by_hint[rec.flow_hint] = []
            ordered_hints.append(rec.flow_hint)
        by_hint[rec.flow_hint].append(rec)

    flows: list[FlowRecord] = []
    for hint in ordered_hints:
        members: list[str] = []
        seen: set[str] = set()
        for rec in sorted(by_hint[hint], key=lambda r: r.seq):
            if rec.class_name not in seen:
                seen.add(rec.class_name)
                members.append(rec.class_name)
        flows.append(FlowRecord(id=hint, members=tuple(members)))
    return flows

