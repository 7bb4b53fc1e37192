"""Fuzzing of the artifact boundary: every file a command reads is mutated
and the command must exit 0 or 2, never 1, naming the file when it exits 2.

Valid graph.json and partition.json come from the jpetstore fixture; the
ground truth and the price table are written as JSON, which both of their
readers accept. Each example applies one mutation to one file: truncation,
a wrong container type, an unknown name, a negative or non-numeric value,
or a byte that is not UTF-8.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR

from monopart.cli import GRAPH_FILE, PARTITION_FILE, main

TRUTH_FILE = "truth.json"
PRICES_FILE = "prices.yaml"
KINDS = ("truncate", "container", "unknown name", "negative", "non-numeric", "non-utf8")

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


def _mutate(data: st.DataObject, kind: str, doc: object) -> bytes:
    """The serialized document with one mutation of ``kind`` applied."""
    nodes = list(_nodes(doc))
    if kind == "truncate":
        raw = json.dumps(doc, indent=2).encode()
        return raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
    if kind == "non-utf8":
        raw = json.dumps(doc, indent=2).encode()
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
    return json.dumps(doc, indent=2).encode()


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
        argv = [str(root / a) if a in COMMANDS else a for a in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", str(root), "--force"])
    err = stderr.getvalue()
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert any(str(root / name) in err for name in named), err
