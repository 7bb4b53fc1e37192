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
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

import yaml

from .model import DependencyRecord, InputError, Relation, ResourceKind, as_relation, as_str

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class InfraManifest:
    """Declared infrastructure resources and class-to-resource bindings; a
    container that is not a tuple, an entry that is not a pair, a
    non-string or repeated name, a kind that is not a :class:`ResourceKind`,
    or a binding to an undeclared resource or made twice is an :class:`InputError`."""

    resources: tuple[tuple[str, ResourceKind], ...] = ()
    bindings: tuple[tuple[str, str], ...] = ()  # (class name, resource name)

    def __post_init__(self) -> None:
        declared: set[str] = set()
        for name, kind in _pairs(self, "resources"):
            as_str(name, "manifest name")
            if type(kind) is not ResourceKind:
                raise InputError(f"unknown resource kind {kind!r}")
            if name in declared:
                raise InputError(f"duplicate resource name {name!r}")
            declared.add(name)
        bound: set[tuple[str, str]] = set()
        for cls, res in _pairs(self, "bindings"):
            as_str(cls, "manifest class")
            if as_str(res, "manifest resource") not in declared:
                raise InputError(f"binding for class {cls!r} references undeclared resource {res!r}")
            if (cls, res) in bound:
                raise InputError(f"duplicate binding of class {cls!r} to resource {res!r}")
            bound.add((cls, res))


def _pairs(manifest: InfraManifest, name: str) -> tuple:
    """The field ``name`` of ``manifest`` if it is a tuple of pairs, else
    :class:`InputError`."""
    entries = getattr(manifest, name)
    if not isinstance(entries, tuple):
        raise InputError(f"manifest {name} must be a tuple, got {type(entries).__name__}")
    for entry in entries:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            raise InputError(f"manifest {name} entry {entry!r} is not a pair")
    return entries


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
    entry-point class (no entry points: one flow for the whole log). A rule
    that breaks this, or a non-string entry point, is an
    :class:`InputError` when the config is built.
    """

    line_regex: str
    entry_points: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        try:
            pattern = re.compile(as_str(self.line_regex, "flow rule line_regex"))
        except re.error as exc:
            raise InputError(f"invalid flow rule regex: {exc}") from exc
        if "class" not in pattern.groupindex:
            raise InputError("flow rule regex must define a named group 'class'")
        for entry in self.entry_points:
            as_str(entry, "flow rule entry point")


@dataclass(frozen=True)
class TraceParseResult:
    """``records`` holds one ``(flow id, class name)`` pair per parsed line,
    in log order; lines of the same pair repeat one shared tuple, so the
    list costs one pointer per line. ``skipped`` counts the lines left out."""

    records: list[tuple[str, str]]
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


# libyaml's parser when PyYAML was built with it: it reads the same documents
# several times faster than the pure-Python one.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# The deepest YAML nesting read; every input schema needs at most 3 levels.
# Both loaders build a document recursively: libyaml crashes the process
# from about 30,000 levels, the pure-Python one raises RecursionError.
MAX_YAML_DEPTH = 32


def load_yaml(text: str) -> object:
    """Parse one YAML document with the safe loader; a malformed document,
    one nested deeper than :data:`MAX_YAML_DEPTH`, or a mapping that repeats
    a key (compared as written) raises :class:`InputError`. Both are checked
    on the parser's events, before any document is built."""
    try:
        # per open collection: [keys so far, nodes so far] of a mapping, None for a sequence
        frames: list[list | None] = []
        for event in yaml.parse(text, Loader=YAML_LOADER):
            mapping = frames[-1] if frames else None
            if mapping is not None and isinstance(event, yaml.NodeEvent):
                mapping[1] += 1
                if mapping[1] % 2 and isinstance(event, yaml.ScalarEvent):
                    if event.value in mapping[0]:
                        line = event.start_mark.line + 1
                        raise InputError(f"malformed YAML: repeated key {event.value!r} at line {line}")
                    mapping[0].add(event.value)
            if isinstance(event, yaml.CollectionStartEvent):
                if len(frames) == MAX_YAML_DEPTH:
                    raise InputError(f"malformed YAML: nested deeper than {MAX_YAML_DEPTH} levels")
                frames.append([set(), 0] if isinstance(event, yaml.MappingStartEvent) else None)
            elif isinstance(event, yaml.CollectionEndEvent):
                frames.pop()
        return yaml.load(text, Loader=YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a bad date or !!int scalar
        raise InputError(f"malformed YAML: {exc}") from exc


def _reject_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise InputError(f"malformed JSON: repeated key {key!r}")
            seen.add(key)
    return doc


def load_json(text: str) -> object:
    """Parse one JSON document; a malformed one, one nested past the
    interpreter's recursion limit, an integer of more than 4300 digits, or
    an object that repeats a key raises :class:`InputError`."""
    try:
        return json.loads(text, object_pairs_hook=_reject_repeated_keys)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"malformed JSON: {exc}") from exc


def check_keys(doc: dict, known: Iterable[str], what: str) -> None:
    """Reject a top-level key that the reader of ``what`` does not read, such
    as a misspelt section that would otherwise be dropped without a word."""
    unknown = doc.keys() - set(known)
    if unknown:
        raise InputError(f"unknown {what} key {min(unknown, key=str)!r}")


def _as_text(data: bytes | str, start: int = 0, end: int | None = None) -> str:
    """``data[start:end]`` as text. Bytes must be UTF-8; a bad sequence is
    reported at its offset in the whole of ``data``, as decoding all of it
    would report it."""
    if isinstance(data, bytes):
        try:
            return data[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            whole = UnicodeDecodeError(exc.encoding, data, start + exc.start, start + exc.end, exc.reason)
            raise InputError(f"input is not valid UTF-8: {whole}") from exc
    return data[start:end]


def _name(raw: object, what: str) -> str:
    """A class or resource name read from a document, whitespace-trimmed."""
    return as_str(raw, what).strip()


# ---------------------------------------------------------------------------
# class dependencies (XML, or the isomorphic JSON form)
# ---------------------------------------------------------------------------

def parse_dependency_xml(data: bytes | str) -> list[DependencyRecord]:
    """Parse a class-dependency export into dependency records.

    The XML schema is ``<dependencies><class name="..."><dependsOn name="..."
    relation="call|reference|inheritance"/>...</class>...</dependencies>``;
    a JSON document with the isomorphic shape
    ``{"classes": [{"name": ..., "dependsOn": [{"name", "relation"}]}]}``
    is accepted wherever the XML is. ``relation`` defaults to ``call``, and a
    nested ``<class>`` owns only its direct ``<dependsOn>`` children.
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
        for dep_el in class_el.findall("dependsOn"):
            to_name = (dep_el.get("name") or "").strip()
            if not to_name:
                raise InputError(
                    f"<dependsOn> under class {from_name!r} without a name attribute"
                )
            relation = as_relation(dep_el.get("relation", "call"))
            if from_name == to_name:
                log.warning("dropping self-dependency of class %r", from_name)
                continue
            records.append(DependencyRecord(from_name, to_name, relation))
    return records


def _dependencies_from_json(text: str) -> list[DependencyRecord]:
    doc = load_json(text)
    entries = doc.get("classes") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise InputError('dependency JSON must be an object with a "classes" array of objects')
    records: list[DependencyRecord] = []
    for entry in entries:
        from_name = _name(entry.get("name", ""), "class name")
        if not from_name:
            raise InputError("dependency JSON entry without a class name")
        depends_on = entry.get("dependsOn", [])
        if not isinstance(depends_on, list):
            raise InputError(f'"dependsOn" of {from_name!r} must be an array')
        for dep in depends_on:
            if isinstance(dep, str):
                to_name, relation = dep.strip(), Relation.CALL
            elif isinstance(dep, dict):
                to_name = _name(dep.get("name", ""), f"dependency name of {from_name!r}")
                relation = as_relation(dep.get("relation", "call"))
            else:
                raise InputError(f"dependency of {from_name!r} is not an object or a name: {dep!r}")
            if not to_name:
                raise InputError(f"dependency of {from_name!r} without a name")
            if from_name == to_name:
                log.warning("dropping self-dependency of class %r", from_name)
                continue
            records.append(DependencyRecord(from_name, to_name, relation))
    return records


# ---------------------------------------------------------------------------
# infrastructure manifest (YAML)
# ---------------------------------------------------------------------------

def parse_infra_yaml(data: bytes | str) -> InfraManifest:
    """Parse the infrastructure manifest.

    Schema: top-level ``resources:`` list of ``{name, kind}`` and
    ``bindings:`` list of ``{class, resource}``. Kind strings map
    case-insensitively through :data:`KIND_ALIASES`.
    """
    doc = load_yaml(_as_text(data))
    if doc is None:
        return InfraManifest()
    if not isinstance(doc, dict):
        raise InputError("manifest must be a YAML mapping")
    check_keys(doc, ("resources", "bindings"), "manifest")

    resources = []
    for entry in _manifest_entries(doc, "resources", "name", "kind"):
        name = _manifest_name(entry, "name")
        kind = _name(entry["kind"], "manifest kind").lower()
        resources.append((name, KIND_ALIASES.get(kind, kind)))
    bindings = tuple(
        (_manifest_name(entry, "class"), _manifest_name(entry, "resource"))
        for entry in _manifest_entries(doc, "bindings", "class", "resource")
    )
    return InfraManifest(tuple(resources), bindings)


def _manifest_name(entry: dict, key: str) -> str:
    """The name under ``key`` of a manifest entry, trimmed and not blank."""
    name = _name(entry[key], f"manifest {key}")
    if not name:
        raise InputError(f"manifest {key} must not be blank: {entry!r}")
    return name


def _manifest_entries(doc: dict, section: str, *keys: str) -> list[dict]:
    """The entries of a manifest section (absent or null: none), each a
    mapping holding ``keys``."""
    entries = doc.get(section)
    if entries is None:
        return []
    if not isinstance(entries, list):
        raise InputError(f"manifest {section} must be a list, got {entries!r}")
    for entry in entries:
        if not isinstance(entry, dict) or any(key not in entry for key in keys):
            raise InputError(f"{section[:-1]} entry must have {' and '.join(keys)}: {entry!r}")
    return entries


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

# Characters (bytes, for a log given as bytes) per block that `parse_traces`
# decodes and splits into lines at a time. A block ends just after a "\n",
# so no line boundary of `str.splitlines`, "\r\n" included, falls between
# two blocks, and no UTF-8 sequence is cut: a "\n" byte is never part of one.
_TRACE_BLOCK = 1 << 16

# Lines at the head of a block that show whether its lines repeat: when at
# most half of them are distinct, each distinct line of the block is
# matched once. Otherwise the block is matched line by line, because a memo
# costs a hash and a lookup per line: on a 13.5 MB log with a timestamp on
# every line, always using it was 11-26 % slower than the line-by-line loop
# (Python 3.11, 2 vCPUs).
_TRACE_SAMPLE = 256


def load_flow_rules(data: bytes | str) -> FlowRuleConfig:
    """Load a flow-rule config: YAML ``{line_regex: ..., entry_points: [...]}``."""
    doc = load_yaml(_as_text(data))
    if not isinstance(doc, dict) or "line_regex" not in doc:
        raise InputError("flow rules must be a mapping with a line_regex key")
    check_keys(doc, ("line_regex", "entry_points"), "flow rules")
    entry_points = doc.get("entry_points")
    if not isinstance(entry_points, (list, type(None))):
        raise InputError(f"flow rule entry_points must be a list, got {entry_points!r}")
    return FlowRuleConfig(line_regex=doc["line_regex"], entry_points=tuple(entry_points or ()))


def parse_traces(data: bytes | str, rules: FlowRuleConfig) -> TraceParseResult:
    """Turn a line-oriented trace log into ``(flow id, class name)`` records.

    Lines the rule regex rejects, or whose class capture is blank, are
    counted as skipped, never fatal. A line's flow id is its stripped flow
    capture. Lines without one, or whose capture is blank, fall into an
    untagged stream that is segmented into synthetic flows ``F0, F1, ...`` at
    every occurrence of an entry-point class; with no entry points the
    stream is one flow. A tag equal to one of those synthetic ids would
    merge two flows, so it is an :class:`InputError`.

    The log is decoded and split a block at a time. In a block whose lines
    repeat, the regex runs once per distinct line; the results are then
    read back in log order, so records and counts are those of matching
    every line.
    """
    pattern = re.compile(rules.line_regex)
    search = pattern.search
    class_group = pattern.groupindex["class"]
    flow_group = pattern.groupindex.get("flow")  # group numbers count from 1
    entry_points = frozenset(rules.entry_points)
    records: list[tuple[str, str]] = []
    append = records.append
    shared = {}.setdefault  # one tuple per distinct (flow id, class name) pair
    tags: set[str] = set()
    add_tag = tags.add
    skipped = 0
    segment = -1
    untagged = ""
    newline = b"\n" if isinstance(data, bytes) else "\n"
    start, size = 0, len(data)
    while start < size:
        end = data.find(newline, start + _TRACE_BLOCK - 1) + 1 or size
        lines = _as_text(data, start, end).splitlines()
        start = end
        sample = lines[:_TRACE_SAMPLE]
        distinct = set(lines) if 2 * len(set(sample)) <= len(sample) else None
        # per line matched: its shared tagged pair, its untagged class name,
        # or None for a skipped line
        parsed: list[tuple[str, str] | str | None] = []
        put = parsed.append
        for line in lines if distinct is None else distinct:
            match = search(line)
            if match is None:
                put(None)
                continue
            cls = (match[class_group] or "").strip()
            if not cls:
                put(None)
                continue
            flow = (match[flow_group] or "").strip() if flow_group else ""
            if flow:
                add_tag(flow)
                pair = flow, cls
                put(shared(pair, pair))
            else:
                put(cls)
        results = parsed if distinct is None else map(dict(zip(distinct, parsed)).__getitem__, lines)
        for result in results:
            if type(result) is tuple:
                append(result)
            elif result is None:
                skipped += 1
            else:
                if segment < 0 or result in entry_points:
                    segment += 1
                    untagged = f"F{segment}"
                pair = untagged, result
                append(shared(pair, pair))
    clash = next((f"F{i}" for i in range(segment + 1) if f"F{i}" in tags), None)
    if clash is not None:
        raise InputError(f"trace tag {clash!r} is also the id of an untagged flow segment")
    return TraceParseResult(records=records, skipped=skipped)


def group_flows(records: list[tuple[str, str]]) -> list[FlowRecord]:
    """Group ``(flow id, class name)`` records into flows, in order of each
    flow's first record.

    Members are de-duplicated preserving first occurrence, so the first
    member is the flow's entry point.
    """
    members: defaultdict[str, dict[str, None]] = defaultdict(dict)
    for flow, cls in records:
        members[flow][cls] = None
    return [FlowRecord(id=flow, members=tuple(classes)) for flow, classes in members.items()]
