"""Fuzzing of the input boundary: every file a command reads is mutated
and the command must exit 0 or 2, never 1, naming the file when it exits 2.

Valid graph.json and partition.json come from the jpetstore fixture; the
ground truth and the price table are written as JSON, which both of their
readers accept. Each example applies one mutation to one file: truncation,
a wrong container type, an unknown name, a negative or non-numeric value,
a string replaced by a value of another type, or a byte that is not UTF-8.

The inputs of ``ingest`` are fuzzed the same way, each in its own format:
jpetstore's dependencies as XML and as JSON, its manifest and a flow-rule
file as YAML, and a trace log mixing tagged and untagged lines. Their
values are names, so in place of the numeric mutations a string is
replaced by a value of another type.

The class edges and dependencies of graph.json are objects of columns;
``COLUMN_EDITS`` breaks their shape one way each, and every one must exit 2.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
from typing import Callable
from xml.sax.saxutils import escape, quoteattr

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR

from monopart.cli import GRAPH_FILE, PARTITION_FILE, main

TRUTH_FILE = "truth.json"
PRICES_FILE = "prices.yaml"
KINDS = ("truncate", "container", "unknown name", "negative", "non-numeric", "non-string",
         "non-utf8")

# mutated file -> (command run on it, the files its error may name)
COMMANDS = {
    GRAPH_FILE: (["evaluate"], (GRAPH_FILE, PARTITION_FILE)),
    PARTITION_FILE: (["evaluate"], (PARTITION_FILE,)),
    TRUTH_FILE: (["evaluate", "--truth", TRUTH_FILE], (TRUTH_FILE,)),
    PRICES_FILE: (["partition", "--k", "3", "--restarts", "1", "--prices", PRICES_FILE],
                  (PRICES_FILE,)),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> dict[str, object]:
    """The parsed documents of the four valid files."""
    app, out = FIXTURES_DIR / "jpetstore", tmp_path_factory.mktemp("pristine")
    assert main(["ingest", "--deps", str(app / "deps.xml"),
                 "--manifest", str(app / "manifest.yaml"), "--out", str(out)]) == 0
    assert main(["partition", "--k", "3", "--out", str(out)]) == 0
    return {
        GRAPH_FILE: json.loads((out / GRAPH_FILE).read_text()),
        PARTITION_FILE: json.loads((out / PARTITION_FILE).read_text()),
        TRUTH_FILE: yaml.safe_load((app / "truth.yaml").read_text()),
        PRICES_FILE: {"compute": "1", "database": 2, "cache": "1/2", "file_storage": 0.25},
    }


def _nodes(doc: object, path: tuple = ()):
    """(path, value) for the document and every value nested in it."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, (*path, i))


def _numeric(value: object) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, str):
        try:
            Fraction(value)
        except (ValueError, ZeroDivisionError):
            return False
        return True
    return False


def _replace(doc: object, path: tuple, value: object) -> object:
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _rename_key(doc: object, path: tuple, old: str, new: str) -> object:
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path:
        parent = parent[key]
    items = [(new if key == old else key, value) for key, value in parent.items()]
    parent.clear()
    parent.update(items)
    return doc


def _json(doc: object) -> bytes:
    return json.dumps(doc, indent=2).encode()


def _mutate(
    data: st.DataObject, kind: str, doc: object, dump: Callable[[object], bytes] = _json
) -> bytes:
    """The document serialized by ``dump`` with one mutation of ``kind`` applied."""
    nodes = list(_nodes(doc))
    if kind == "truncate":
        raw = dump(doc)
        return raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
    if kind == "non-utf8":
        raw = dump(doc)
        at = data.draw(st.integers(0, len(raw)), label="at")
        return raw[:at] + b"\xff" + raw[at:]
    if kind == "container":
        path, value = data.draw(st.sampled_from(nodes), label="node")
        wrong = [{}, [], "x", 1] if not isinstance(value, (dict, list)) else (
            [[], "x", 1] if isinstance(value, dict) else [{}, "x", 1])
        doc = _replace(doc, path, data.draw(st.sampled_from(wrong), label="as"))
    elif kind == "unknown name":
        targets = [("value", path, None) for path, value in nodes if isinstance(value, str)]
        targets += [("key", path, key) for path, value in nodes if isinstance(value, dict)
                    for key in value]
        assume(targets)
        where, path, key = data.draw(st.sampled_from(targets), label="name")
        doc = _replace(doc, path, "zz") if where == "value" else _rename_key(doc, path, key, "zz")
    elif kind == "non-string":
        strings = [path for path, value in nodes if isinstance(value, str)]
        assume(strings)
        path = data.draw(st.sampled_from(strings), label="string")
        doc = _replace(doc, path, data.draw(st.sampled_from([1, 2.5, None, True, ["x"], {"x": 1}]),
                                            label="value"))
    else:
        numbers = [(path, value) for path, value in nodes if _numeric(value)]
        assume(numbers)
        path, value = data.draw(st.sampled_from(numbers), label="number")
        if kind == "negative":
            bad = -abs(value) - 1 if not isinstance(value, str) else f"-{value.lstrip('-')}"
        else:
            bad = data.draw(st.sampled_from(["x", "1/0", "nan", None, True, 2.5, "3.9"]),
                            label="value")
        doc = _replace(doc, path, bad)
    return dump(doc)


def _run(root: Path, argv: list[str]) -> tuple[int, str]:
    """The exit code and stderr of ``argv`` run with ``--out root --force``."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(root), "--force"])
    return code, stderr.getvalue()


@pytest.mark.parametrize("target", list(COMMANDS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_mutated_input_exits_0_or_2_naming_it(pristine, target, kind, data):
    argv, named = COMMANDS[target]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, doc in pristine.items():
            raw = _mutate(data, kind, doc) if name == target else json.dumps(doc).encode()
            (root / name).write_bytes(raw)
        code, err = _run(root, [str(root / a) if a in COMMANDS else a for a in argv])
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert any(str(root / name) in err for name in named), err


# graph.json section -> its columns
GRAPH_COLUMNS = {"class_edges": ("u", "v", "weight"), "dependencies": ("from", "to", "relation")}


def _set_column(section: str, key: str, value: object) -> Callable[[dict], None]:
    def edit(doc: dict) -> None:
        doc[section][key] = value

    return edit


def _shorten_column(section: str, key: str) -> Callable[[dict], None]:
    return lambda doc: doc[section][key].pop()


def _set_first(section: str, key: str, value: Callable[[dict], object]) -> Callable[[dict], None]:
    """An edit that sets the first entry of a column to ``value(doc)``."""

    def edit(doc: dict) -> None:
        doc[section][key][0] = value(doc)

    return edit


def _as_rows(section: str) -> Callable[[dict], None]:
    """An edit that writes ``section`` as schema 1 did: one object per entry."""

    def edit(doc: dict) -> None:
        columns = doc[section]
        doc[section] = [dict(zip(columns, entry)) for entry in zip(*columns.values())]

    return edit


# Column-shape mutations of graph.json, each of which makes it invalid.
COLUMN_EDITS = {
    **{
        f"{section}.{key}={type(value).__name__}": _set_column(section, key, value)
        for section, keys in GRAPH_COLUMNS.items()
        for key in keys
        for value in ("x", {"x": 1}, 3)
    },
    **{
        f"{section}.{key}_shorter": _shorten_column(section, key)
        for section, keys in GRAPH_COLUMNS.items()
        for key in keys
    },
    "from=-1": _set_first("dependencies", "from", lambda doc: -1),
    "from=n": _set_first("dependencies", "from", lambda doc: len(doc["classes"])),
    "to=n": _set_first("dependencies", "to", lambda doc: len(doc["classes"])),
    "from=0.0": _set_first("dependencies", "from", lambda doc: 0.0),
    "to=1.5": _set_first("dependencies", "to", lambda doc: 1.5),
    "from=true": _set_first("dependencies", "from", lambda doc: True),
    **{
        f"relation={type(value).__name__}": _set_first("dependencies", "relation", lambda doc, v=value: v)
        for value in (5, None, True, ["call"], {"call": 1})
    },
    "class_edges_schema_1": _as_rows("class_edges"),
    "dependencies_schema_1": _as_rows("dependencies"),
}


@pytest.mark.parametrize("edit", list(COLUMN_EDITS.values()), ids=list(COLUMN_EDITS))
def test_graph_column_shape_exits_2_naming_it(pristine, tmp_path, edit):
    for name, doc in pristine.items():
        if name == GRAPH_FILE:
            doc = copy.deepcopy(doc)
            edit(doc)
        (tmp_path / name).write_text(json.dumps(doc))
    code, err = _run(tmp_path, ["evaluate"])
    assert code == 2, err
    assert err.startswith(f"error: {tmp_path / GRAPH_FILE}: "), err
    assert err.count("\n") == 1, err


INGEST_KINDS = ("truncate", "container", "unknown name", "non-string", "non-utf8")
INGEST_INPUTS = ("deps.xml", "deps.json", "manifest.yaml", "flow-rules.yaml", "traces.log")
CHILD_TAGS = {"classes": "class"}  # dependency JSON key -> XML element of each item


def _xml(doc: object) -> bytes:
    """Dependency XML for the JSON form of the document: a mapping's scalars
    become attributes and each item of a list value a child element."""

    def element(tag: str, node: object) -> str:
        if isinstance(node, list):
            return "".join(element(tag, item) for item in node)
        if not isinstance(node, dict):
            return f"<{tag}>{escape(str(node))}</{tag}>"
        attrs = "".join(f" {key}={quoteattr(str(value))}" for key, value in node.items()
                        if not isinstance(value, (dict, list)))
        body = "".join(element(CHILD_TAGS.get(key, key), value) for key, value in node.items()
                       if isinstance(value, (dict, list)))
        return f"<{tag}{attrs}>{body}</{tag}>"

    return element("dependencies", doc).encode()


def _yaml(doc: object) -> bytes:
    return yaml.safe_dump(doc, sort_keys=False).encode()


def _lines(doc: object) -> bytes:
    return ("\n".join(map(str, doc)) if isinstance(doc, list) else str(doc)).encode()


@pytest.fixture(scope="module")
def ingest_inputs() -> dict[str, tuple[object, Callable[[object], bytes]]]:
    """Each valid ingest input as a document and the serializer of its format.

    The documents are cut to a few entries each, so that a mutation often
    lands on the structure and not on one of many names."""
    app = FIXTURES_DIR / "jpetstore"
    root = ET.fromstring((app / "deps.xml").read_text())
    deps = {"classes": [{"name": c.get("name"), "dependsOn": [dict(d.attrib) for d in c]}
                        for c in list(root)[:6]]}
    manifest = yaml.safe_load((app / "manifest.yaml").read_text())
    manifest = {"resources": manifest["resources"][:2], "bindings": manifest["bindings"][:3]}
    names = [c["name"] for c in deps["classes"]]
    traces = [f"[f{i % 3}] {name}" if i % 3 else name for i, name in enumerate(names)]
    rules = {"line_regex": r"^(?:\[(?P<flow>\w+)\] )?(?P<class>[\w.]+)$", "entry_points": names[:2]}
    return {
        "deps.xml": (deps, _xml),
        "deps.json": (deps, _json),
        "manifest.yaml": (manifest, _yaml),
        "flow-rules.yaml": (rules, _yaml),
        "traces.log": (traces + ["?? unparsed"], _lines),
    }


@pytest.mark.parametrize("target", INGEST_INPUTS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(kind=st.sampled_from(INGEST_KINDS), data=st.data())
def test_mutated_ingest_input_exits_0_or_2_naming_it(ingest_inputs, target, kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, (doc, dump) in ingest_inputs.items():
            (root / name).write_bytes(_mutate(data, kind, doc, dump) if name == target else dump(doc))
        deps = "deps.json" if target == "deps.json" else "deps.xml"
        argv = ["ingest", "--deps", deps, "--manifest", "manifest.yaml",
                "--traces", "traces.log", "--flow-rules", "flow-rules.yaml"]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(root / a) if a in INGEST_INPUTS else a for a in argv]
                        + ["--out", str(root / "out")])
    err = stderr.getvalue()
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert str(root / target) in err, err
