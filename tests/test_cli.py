"""End-to-end command line coverage, in-process via cli.main."""

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import pytest
import yaml

from conftest import FIXTURES_DIR

from oracles import check_dot

from monopart import ingest, metrics, model, partitioner
from monopart.cli import (
    DOT_FILE,
    EVALUATION_FILE,
    GRAPH_FILE,
    INFRA_REPORT_FILE,
    PARTITION_FILE,
    main,
)
from monopart.fixturegen import MAX_CLASSES, MAX_PAIR_DRAWS, FixtureSpec
from monopart.model import PartitionSet

DEPS_XML = """\
<dependencies>
  <class name="web.Shop">
    <dependsOn name="web.Cart"/>
    <dependsOn name="data.Orders" relation="reference"/>
  </class>
  <class name="web.Cart">
    <dependsOn name="data.Orders"/>
  </class>
  <class name="data.Orders"/>
</dependencies>
"""

MANIFEST_YAML = """\
resources:
  - {name: orders-db, kind: database}
bindings:
  - {class: data.Orders, resource: orders-db}
"""


@pytest.fixture
def workdir(tmp_path: Path) -> Path:
    (tmp_path / "deps.xml").write_text(DEPS_XML)
    (tmp_path / "manifest.yaml").write_text(MANIFEST_YAML)
    return tmp_path


def run_ingest(workdir: Path, *extra: str) -> int:
    return main(
        [
            "ingest",
            "--deps",
            str(workdir / "deps.xml"),
            "--manifest",
            str(workdir / "manifest.yaml"),
            "--out",
            str(workdir / "out"),
            *extra,
        ]
    )


def yaml_input(workdir: Path, name: str, text: str) -> tuple[list[str], Path]:
    """Write ``text`` as the YAML input ``name`` (manifest, flow rules, truth
    or prices) of an ingested ``workdir``; return the argv of the command
    that reads it, less ``--out``, and its path."""
    out = workdir / "out"
    if name == "truth.yaml":
        assert main(["partition", "--k", "2", "--out", str(out)]) == 0
    (workdir / "traces.log").write_text("web.Shop\n")
    bad = workdir / name
    bad.write_text(text)
    deps = ["ingest", "--deps", str(workdir / "deps.xml")]
    argv = {
        "manifest.yaml": [*deps, "--manifest", str(bad)],
        "flow-rules.yaml": [*deps, "--traces", str(workdir / "traces.log"), "--flow-rules", str(bad)],
        "truth.yaml": ["evaluate", "--truth", str(bad)],
        "prices.yaml": ["partition", "--k", "2", "--prices", str(bad)],
    }[name]
    return [*argv, "--force"], bad


def ingest_jpetstore_and_partition_k5(out: Path, *flags: str) -> None:
    """jpetstore at k=5 and the default seed: one database's clients land in
    two partitions, and the manifest declares no compute resource."""
    app = FIXTURES_DIR / "jpetstore"
    deps, manifest = str(app / "deps.xml"), str(app / "manifest.yaml")
    assert main(["ingest", "--deps", deps, "--manifest", manifest, "--out", str(out)]) == 0
    assert main(["partition", "--k", "5", *flags, "--out", str(out)]) == 0


class TestIngest:
    def test_happy_path_prints_counts(self, workdir, capsys):
        assert run_ingest(workdir) == 0
        out = capsys.readouterr().out
        assert "classes: 3" in out
        assert "class edges: 3" in out
        assert "resources: 1" in out
        assert "flows: 0" in out
        assert (workdir / "out" / GRAPH_FILE).exists()

    def test_deps_only(self, workdir, capsys):
        code = main(
            ["ingest", "--deps", str(workdir / "deps.xml"), "--out", str(workdir / "out")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resources: 0" in out

    def test_missing_deps_file(self, workdir, capsys):
        code = main(
            ["ingest", "--deps", str(workdir / "nope.xml"), "--out", str(workdir / "out")]
        )
        assert code == 2
        assert "nope.xml" in capsys.readouterr().err

    def test_malformed_xml(self, workdir, capsys):
        (workdir / "bad.xml").write_text("<dependencies><class></dependencies>")
        code = main(
            ["ingest", "--deps", str(workdir / "bad.xml"), "--out", str(workdir / "out")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_refuses_overwrite_without_force(self, workdir, capsys):
        assert run_ingest(workdir) == 0
        capsys.readouterr()
        assert run_ingest(workdir) == 2
        err = capsys.readouterr().err
        assert GRAPH_FILE in err
        assert "--force" in err

    def test_force_rewrites_identically(self, workdir, capsys):
        assert run_ingest(workdir) == 0
        first = (workdir / "out" / GRAPH_FILE).read_bytes()
        assert run_ingest(workdir, "--force") == 0
        assert (workdir / "out" / GRAPH_FILE).read_bytes() == first

    def test_skipped_trace_lines_reported_once(self, workdir):
        (workdir / "traces.log").write_text("web.Shop\nnot one class\nweb.Cart\n")
        (workdir / "flow-rules.yaml").write_text("line_regex: '^(?P<class>\\S+)$'\n")
        proc = subprocess.run(
            [sys.executable, "-m", "monopart", "ingest", "--deps", str(workdir / "deps.xml"),
             "--traces", str(workdir / "traces.log"),
             "--flow-rules", str(workdir / "flow-rules.yaml"), "--out", str(workdir / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == "skipped trace lines: 1\n"
        text = (workdir / "out" / GRAPH_FILE).read_text()
        assert json.loads(text)["flows"]
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_out_env_honored(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("MONOPART_OUT", str(workdir / "envout"))
        code = main(["ingest", "--deps", str(workdir / "deps.xml")])
        assert code == 0
        assert (workdir / "envout" / GRAPH_FILE).exists()

    def test_out_flag_beats_env(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("MONOPART_OUT", str(workdir / "envout"))
        assert run_ingest(workdir) == 0
        assert (workdir / "out" / GRAPH_FILE).exists()
        assert not (workdir / "envout").exists()


class TestPartition:
    def test_k1_objective_zero(self, workdir, capsys):
        run_ingest(workdir)
        code = main(["partition", "--k", "1", "--out", str(workdir / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "objective: 0" in out
        doc = json.loads((workdir / "out" / PARTITION_FILE).read_text())
        assert set(doc["assignment"].values()) == {0}
        assert (workdir / "out" / INFRA_REPORT_FILE).exists()

    def test_prints_factor_of_each_partition_and_total(self, workdir, capsys):
        run_ingest(workdir)
        assert main(["partition", "--k", "1", "--out", str(workdir / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "partition 0: 3 classes, factor (n_ec=1, n_s3=0, n_db=1, n_ca=0) resources: orders-db",
            "total factor: (n_ec=1, n_s3=0, n_db=1, n_ca=0), cost 3 (baseline 3)",
        ]

    def test_shared_db_without_compute_floor(self, tmp_path, capsys):
        out = tmp_path / "out"
        ingest_jpetstore_and_partition_k5(out, "--shared-db", "--no-compute-floor")
        doc = json.loads((out / INFRA_REPORT_FILE).read_text())
        # the split database stays with the lower partition only; an empty
        # roster has no compute floor to fall back on
        assert [(p["partition"], p["resources"]) for p in doc["per_partition"]] == [
            (0, ["m0-ca1", "m0-db0", "m2-ca0", "m2-s31"]),
            (1, ["m1-db1", "m1-s30"]),
            (2, []),
            (3, []),
            (4, ["m2-ca0", "m2-s31"]),
        ]
        assert doc["per_partition"][2]["factor"] == {"n_ec": 0, "n_s3": 0, "n_db": 0, "n_ca": 0}
        assert doc["total"] == {"n_ec": 0, "n_s3": 3, "n_db": 2, "n_ca": 3}
        assert doc["monolith_baseline"] == {"n_ec": 0, "n_s3": 2, "n_db": 2, "n_ca": 2}
        assert (doc["total_cost"], doc["baseline_cost"]) == ("6.25", "5.5")

    def test_rerun_byte_identical(self, workdir, capsys):
        run_ingest(workdir)
        main(["partition", "--k", "2", "--out", str(workdir / "out")])
        first = (workdir / "out" / PARTITION_FILE).read_bytes()
        report_first = (workdir / "out" / INFRA_REPORT_FILE).read_bytes()
        main(["partition", "--k", "2", "--out", str(workdir / "out"), "--force"])
        assert (workdir / "out" / PARTITION_FILE).read_bytes() == first
        assert (workdir / "out" / INFRA_REPORT_FILE).read_bytes() == report_first

    def test_k_exceeds_classes(self, workdir, capsys):
        run_ingest(workdir)
        code = main(["partition", "--k", "9", "--out", str(workdir / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_at_top_of_range(self, workdir, capsys):
        # the last 8 seeds of the 64-bit range with the default 8 restarts;
        # one seed higher is refused (see test_bad_input_exits_2_naming_it)
        run_ingest(workdir)
        code = main(["partition", "--k", "2", "--seed", str(2**64 - 8), "--out", str(workdir / "out")])
        assert code == 0, capsys.readouterr().err

    def test_postcondition_violation_exits_1(self, workdir, caplog, monkeypatch):
        run_ingest(workdir)
        monkeypatch.setattr(partitioner, "_single_run", lambda *a: PartitionSet(2, (0, 0, 0)))
        code = main(["partition", "--k", "2", "--out", str(workdir / "out")])
        assert code == 1
        assert "partition 1 is empty" in caplog.text
        assert not (workdir / "out" / PARTITION_FILE).exists()

    def test_scores_before_writing(self, workdir, capsys, monkeypatch):
        run_ingest(workdir)

        def fail(*_args):
            raise model.InputError("scoring failed")

        monkeypatch.setattr(metrics._EdgeTally, "modularity", fail)
        assert main(["partition", "--k", "2", "--out", str(workdir / "out")]) == 2
        assert not (workdir / "out" / PARTITION_FILE).exists()
        assert not (workdir / "out" / INFRA_REPORT_FILE).exists()

    @pytest.mark.parametrize("existing", [PARTITION_FILE, INFRA_REPORT_FILE])
    def test_refuses_overwrite_before_writing_either(self, workdir, capsys, existing):
        run_ingest(workdir)
        old = workdir / "out" / existing
        old.write_text("old\n")
        capsys.readouterr()
        assert main(["partition", "--k", "2", "--out", str(workdir / "out")]) == 2
        assert capsys.readouterr().err == f"error: refusing to overwrite {old} (use --force)\n"
        assert sorted(p.name for p in (workdir / "out").iterdir()) == sorted([GRAPH_FILE, existing])
        assert old.read_text() == "old\n"

    def test_zero_edge_weight_scores_ngm_zero(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        zero_bases = ["--base-call", "0", "--base-reference", "0", "--base-inheritance", "0"]
        deps = str(FIXTURES_DIR / "jpetstore" / "deps.xml")
        assert main(["ingest", "--deps", deps, *zero_bases, "--out", out]) == 0
        for argv in (["--k", "3"], ["--sweep-k", "2..4", "--force"]):
            capsys.readouterr()
            assert main(["partition", *argv, "--out", out]) == 0, capsys.readouterr().err
            assert "NGM: 0.0000" in capsys.readouterr().out.splitlines()
        assert main(["evaluate", "--out", out]) == 0, capsys.readouterr().err
        header, row = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split(), row.split()))["NGM"] == "0.0000"

    def test_missing_graph(self, tmp_path, capsys):
        code = main(["partition", "--k", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert GRAPH_FILE in capsys.readouterr().err

    def test_k_or_sweep_required(self, workdir, capsys):
        run_ingest(workdir)
        code = main(["partition", "--out", str(workdir / "out")])
        assert code == 2
        code = main(["partition", "--k", "3", "--sweep-k", "2..3", "--out", str(workdir / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "one of the arguments --k --sweep-k is required" in err
        assert "argument --sweep-k: not allowed with argument --k" in err
        assert not (workdir / "out" / PARTITION_FILE).exists()

    def test_sweep(self, workdir, capsys):
        run_ingest(workdir)
        code = main(
            ["partition", "--sweep-k", "2..3", "--out", str(workdir / "out")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep selected k=" in out

    def test_sweep_bad_format(self, workdir, capsys):
        run_ingest(workdir)
        code = main(
            ["partition", "--sweep-k", "2-3", "--out", str(workdir / "out")]
        )
        assert code == 2


class TestEvaluate:
    def test_perfect_truth_scores_one(self, workdir, capsys):
        run_ingest(workdir)
        main(["partition", "--k", "2", "--out", str(workdir / "out")])
        # truth copied from the produced assignment, so F1 must be 1.0
        doc = json.loads((workdir / "out" / PARTITION_FILE).read_text())
        truth = {name: f"g{part}" for name, part in doc["assignment"].items()}
        (workdir / "truth.yaml").write_text(
            "".join(f"{k}: {v}\n" for k, v in truth.items())
        )
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--truth",
                str(workdir / "truth.yaml"),
                "--name",
                "demo",
                "--out",
                str(workdir / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "1.0000" in out
        assert (workdir / "out" / EVALUATION_FILE).exists()

    def test_k_above_class_count_is_one_line(self, workdir, capsys):
        out = workdir / "out"
        run_ingest(workdir)
        assert main(["partition", "--k", "2", "--out", str(out)]) == 0
        path = out / PARTITION_FILE
        doc = json.loads(path.read_text())
        doc["k"] = 1000000000
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["evaluate", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid partition: k=1000000000 exceeds class count 3\n"
        )

    def test_dash_without_truth(self, workdir, capsys):
        run_ingest(workdir)
        main(["partition", "--k", "2", "--out", str(workdir / "out")])
        capsys.readouterr()
        code = main(["evaluate", "--out", str(workdir / "out")])
        assert code == 0
        table = capsys.readouterr().out
        row = table.splitlines()[1]
        assert " - " in row or row.split()[2] == "-"

    def test_out_dot_names_the_directory(self, workdir, capsys, monkeypatch):
        run_ingest(workdir)
        assert main(["partition", "--k", "2", "--out", str(workdir / "out")]) == 0
        monkeypatch.chdir(workdir / "out")
        capsys.readouterr()
        assert main(["evaluate", "--out", "."]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[0] == "out"

    def test_truth_with_unknown_classes_only(self, workdir, capsys):
        run_ingest(workdir)
        main(["partition", "--k", "2", "--out", str(workdir / "out")])
        (workdir / "truth.yaml").write_text("ghost.One: a\nghost.Two: a\n")
        code = main(
            [
                "evaluate",
                "--truth",
                str(workdir / "truth.yaml"),
                "--out",
                str(workdir / "out"),
            ]
        )
        assert code == 2

    def test_no_compute_floor(self, tmp_path, capsys):
        out = tmp_path / "out"
        ingest_jpetstore_and_partition_k5(out)
        costs = {}
        for flags in ((), ("--no-compute-floor",)):
            assert main(["evaluate", *flags, "--out", str(out), "--force"]) == 0
            doc = json.loads((out / EVALUATION_FILE).read_text())
            costs[flags] = doc["infra_cost"]
        # evaluate counts each copy of the split database; the floor adds
        # one compute unit per partition at price 1
        assert doc["infra_total"] == {"n_ec": 0, "n_s3": 3, "n_db": 3, "n_ca": 3}
        assert costs == {(): "13.25", ("--no-compute-floor",): "8.25"}

    def test_partition_checked_at_most_twice(self, tmp_path, monkeypatch):
        """Once when partition.json is loaded, once on entry to evaluate."""
        app, out = FIXTURES_DIR / "jpetstore", str(tmp_path / "out")
        deps, manifest = str(app / "deps.xml"), str(app / "manifest.yaml")
        assert main(["ingest", "--deps", deps, "--manifest", manifest, "--out", out]) == 0
        assert main(["partition", "--k", "3", "--out", out]) == 0
        original, calls = model.check_partition, []

        def counting(g, p):
            calls.append(p)
            original(g, p)

        for name, module in list(sys.modules.items()):
            if name.startswith("monopart") and getattr(module, "check_partition", None) is original:
                monkeypatch.setattr(module, "check_partition", counting)
        assert main(["evaluate", "--truth", str(app / "truth.yaml"), "--out", out]) == 0
        assert 1 <= len(calls) <= 2


class TestDot:
    def test_plain_export(self, workdir, capsys):
        run_ingest(workdir)
        code = main(["dot", "--out", str(workdir / "out")])
        assert code == 0
        text = (workdir / "out" / DOT_FILE).read_text()
        check_dot(text)
        assert text.count("--") >= 3
        assert "orders-db" in text
        assert "fillcolor" not in text

    def test_partition_colors(self, workdir, capsys):
        run_ingest(workdir)
        main(["partition", "--k", "2", "--out", str(workdir / "out")])
        code = main(
            [
                "dot",
                "--partition",
                str(workdir / "out" / PARTITION_FILE),
                "--out",
                str(workdir / "out"),
                "--force",
            ]
        )
        assert code == 0
        text = (workdir / "out" / DOT_FILE).read_text()
        check_dot(text)
        assert text.count("fillcolor") == 3


class TestGenerate:
    def gen(self, out: Path, *extra: str) -> int:
        return main(
            [
                "generate",
                "--classes",
                "24",
                "--clusters",
                "3",
                "--p-in",
                "0.3",
                "--p-out",
                "0.02",
                "--seed",
                "3",
                "--out",
                str(out),
                *extra,
            ]
        )

    def test_shape(self, tmp_path, capsys):
        assert self.gen(tmp_path / "gen") == 0
        truth = (tmp_path / "gen" / "truth.yaml").read_text()
        lines = [ln for ln in truth.splitlines() if ln.strip()]
        assert len(lines) == 24
        labels = [ln.split(":")[1].strip() for ln in lines]
        assert len(set(labels)) == 3
        assert all(labels.count(lbl) == 8 for lbl in set(labels))

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        self.gen(tmp_path / "a")
        self.gen(tmp_path / "b")
        for name in ("deps.xml", "manifest.yaml", "truth.yaml"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_p_out_zero_keeps_clusters_apart(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "--classes",
                "12",
                "--clusters",
                "3",
                "--p-in",
                "1.0",
                "--p-out",
                "0.0",
                "--seed",
                "5",
                "--out",
                str(tmp_path / "gen"),
            ]
        )
        assert code == 0
        truth = {}
        for ln in (tmp_path / "gen" / "truth.yaml").read_text().splitlines():
            name, _, label = ln.partition(":")
            truth[name.strip()] = label.strip()
        from monopart.ingest import parse_dependency_xml

        for rec in parse_dependency_xml((tmp_path / "gen" / "deps.xml").read_text()):
            assert truth[rec.from_class] == truth[rec.to_class]

    @pytest.mark.parametrize(
        "name,classes,clusters,seed",
        [
            ("daytrader", 111, 6, 3),
            ("jpetstore", 24, 3, 3),
            ("springblog", 47, 5, 11),
            ("pbw", 36, 4, 2),
        ],
    )
    def test_committed_fixtures_reproduce(self, tmp_path, capsys, name, classes, clusters, seed):
        code = main(
            [
                "generate",
                "--classes",
                str(classes),
                "--clusters",
                str(clusters),
                "--p-in",
                "0.3",
                "--p-out",
                "0.02",
                "--seed",
                str(seed),
                "--out",
                str(tmp_path / name),
            ]
        )
        assert code == 0
        for fname in ("deps.xml", "manifest.yaml", "truth.yaml"):
            assert (tmp_path / name / fname).read_bytes() == (
                FIXTURES_DIR / name / fname
            ).read_bytes(), f"{name}/{fname} drifted from the generator"

    def test_refuses_overwrite_before_writing_any(self, tmp_path, capsys):
        (tmp_path / "gen").mkdir()
        (tmp_path / "gen" / "truth.yaml").write_text("old\n")
        assert self.gen(tmp_path / "gen") == 2
        assert "truth.yaml (use --force)" in capsys.readouterr().err
        assert [p.name for p in (tmp_path / "gen").iterdir()] == ["truth.yaml"]

    def test_invalid_params(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "--classes",
                "10",
                "--clusters",
                "20",
                "--p-in",
                "0.3",
                "--p-out",
                "0.02",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "gen"),
            ]
        )
        assert code == 2


def _corrupt_graph(out: Path) -> tuple[list[str], str]:
    (out / GRAPH_FILE).write_text('{"classes": [')
    return ["partition", "--k", "2"], str(out / GRAPH_FILE)


def _truncated_partition(out: Path) -> tuple[list[str], str]:
    assert main(["partition", "--k", "2", "--out", str(out)]) == 0
    text = (out / PARTITION_FILE).read_text()
    (out / PARTITION_FILE).write_text(text[: len(text) // 2])
    return ["evaluate"], str(out / PARTITION_FILE)


def _deps_classes_not_objects(out: Path) -> tuple[list[str], str]:
    deps = out.parent / "deps.json"
    deps.write_text('{"classes":[1,2]}')
    return ["ingest", "--deps", str(deps), "--force"], str(deps)


def _assignment_list(out: Path) -> tuple[list[str], str]:
    path = out.parent / "list.json"
    path.write_text('{"k": 2, "assignment": [0, 1]}')
    return ["dot", "--partition", str(path)], str(path)


def _assignment_not_integer(out: Path) -> tuple[list[str], str]:
    path = out.parent / "str.json"
    assignment = {"web.Shop": 0, "web.Cart": 1, "data.Orders": "x"}
    path.write_text(json.dumps({"k": 2, "assignment": assignment}))
    return ["dot", "--partition", str(path)], str(path)


def _relation_not_string(out: Path) -> tuple[list[str], str]:
    doc = json.loads((out / GRAPH_FILE).read_text())
    doc["dependencies"]["relation"][0] = 5
    (out / GRAPH_FILE).write_text(json.dumps(doc))
    return ["partition", "--k", "2"], str(out / GRAPH_FILE)


def _seed_past_restarts(out: Path) -> tuple[list[str], str]:
    return ["partition", "--k", "2", "--seed", str(2**64 - 2)], "--seed"


def _partition_k(k: object) -> Callable[[Path], tuple[list[str], str]]:
    def case(out: Path) -> tuple[list[str], str]:
        path = out.parent / "k.json"
        assignment = {"web.Shop": 0, "web.Cart": 1, "data.Orders": 2}
        path.write_text(json.dumps({"k": k, "assignment": assignment}))
        return ["dot", "--partition", str(path)], str(path)

    case.__name__ = f"partition_k_{type(k).__name__}"
    return case


def _first_class(field: str, value: object) -> Callable[[Path], tuple[list[str], str]]:
    def case(out: Path) -> tuple[list[str], str]:
        doc = json.loads((out / GRAPH_FILE).read_text())
        doc["classes"][0][field] = value
        (out / GRAPH_FILE).write_text(json.dumps(doc))
        return ["partition", "--k", "2"], str(out / GRAPH_FILE)

    case.__name__ = f"class_{field}_{type(value).__name__}"
    return case


def _truth_not_utf8(out: Path) -> tuple[list[str], str]:
    assert main(["partition", "--k", "2", "--out", str(out)]) == 0
    path = out.parent / "truth.yaml"
    path.write_bytes(b"web.Shop: \xff\n")
    return ["evaluate", "--truth", str(path), "--force"], str(path)


def _prices_not_utf8(out: Path) -> tuple[list[str], str]:
    path = out.parent / "prices.yaml"
    path.write_bytes(b"cache: \xff\n")
    return ["partition", "--k", "2", "--prices", str(path)], str(path)


def _truth_class_not_string(out: Path) -> tuple[list[str], str]:
    assert main(["partition", "--k", "2", "--out", str(out)]) == 0
    path = out.parent / "truth.yaml"
    path.write_text("1: m0\nweb.Shop: m0\n")
    return ["evaluate", "--truth", str(path), "--force"], (
        f"{path}: ground truth class must be a string, got 1"
    )


def _prices_int_and_unknown_key(out: Path) -> tuple[list[str], str]:
    path = out.parent / "prices.yaml"
    path.write_text("1: 2\nfoo: 3\n")
    return ["partition", "--k", "2", "--prices", str(path)], (
        f"{path}: unknown price table key 1"
    )


def _artifact_with(
    name: str, label: str, edit: Callable[[dict], object], problem: str
) -> Callable[[Path], tuple[list[str], str]]:
    """A command reading the artifact ``name`` after ``edit`` changed its
    document; the error must name the file and then ``problem``."""

    def case(out: Path) -> tuple[list[str], str]:
        if name == PARTITION_FILE:
            assert main(["partition", "--k", "2", "--out", str(out)]) == 0
        path = out / name
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return ["evaluate" if name == PARTITION_FILE else "dot", "--force"], f"{path}: {problem}"

    case.__name__ = label
    return case


def _set_entry(section: str, i: int = 0, **values: object) -> Callable[[dict], None]:
    """An edit that sets entry ``i`` of each named column of ``section``."""

    def edit(doc: dict) -> None:
        for key, value in values.items():
            doc[section][key][i] = value

    return edit


ARTIFACT_CASES = [
    _artifact_with(GRAPH_FILE, "class_name_int", lambda d: d["classes"][0].update(name=5),
                   "class 0 has non-string name 5"),
    _artifact_with(GRAPH_FILE, "dependency_from_list", _set_entry("dependencies", **{"from": ["x"]}),
                   "dependency 0 has non-integer class id ['x']"),
    _artifact_with(GRAPH_FILE, "dependency_to_float", _set_entry("dependencies", 1, to=1.0),
                   "dependency 1 has non-integer class id 1.0"),
    _artifact_with(GRAPH_FILE, "dependency_relation_unknown",
                   _set_entry("dependencies", relation="uses"), "unknown relation 'uses'"),
    _artifact_with(GRAPH_FILE, "dependency_columns_unequal",
                   lambda d: d["dependencies"]["to"].pop(),
                   "dependencies columns must have one length, got from 3, to 2, relation 3"),
    _artifact_with(GRAPH_FILE, "class_edges_schema_1_list",
                   lambda d: d.update(class_edges=[{"u": 0, "v": 1, "weight": "1"}]),
                   "class_edges must be an object of columns, got list"),
    _artifact_with(GRAPH_FILE, "class_edge_column_missing", lambda d: d["class_edges"].pop("v"),
                   "class_edges has no column 'v'"),
    _artifact_with(GRAPH_FILE, "class_edge_column_string",
                   lambda d: d["class_edges"].update(weight="11"),
                   "class_edges column 'weight' must be a list, got str"),
    _artifact_with(GRAPH_FILE, "schema_version_1", lambda d: d.update(schema_version=1),
                   "graph document: unsupported schema_version 1; re-run ingest to write schema_version 2"),
    _artifact_with(GRAPH_FILE, "flow_id_int",
                   lambda d: d["flows"].append({"id": 5, "members": [0]}),
                   "flow at index 0 has non-string id 5"),
    _artifact_with(GRAPH_FILE, "flow_member_list",
                   lambda d: d["flows"].append({"id": "f", "members": [[0]]}),
                   "flow 'f' has non-integer class id [0]"),
    _artifact_with(GRAPH_FILE, "class_name_empty", lambda d: d["classes"][0].update(name=""),
                   "class 0 has an empty name"),
    _artifact_with(GRAPH_FILE, "class_weight_zero", lambda d: d["classes"][0].update(weight=0),
                   "class 'web.Shop' has weight 0 < 1"),
    _artifact_with(GRAPH_FILE, "resource_id_not_dense", lambda d: d["resources"][0].update(id=1),
                   "resource ids not dense: index 0 holds id 1"),
    _artifact_with(GRAPH_FILE, "resource_name_twice",
                   lambda d: d["resources"].append({"id": 1, "name": "orders-db", "kind": "cache"}),
                   "duplicate resource name 'orders-db'"),
    _artifact_with(GRAPH_FILE, "resource_name_blank", lambda d: d["resources"][0].update(name=""),
                   "resource 0 has an empty name"),
    _artifact_with(GRAPH_FILE, "flow_id_blank",
                   lambda d: d["flows"].append({"id": "", "members": [0]}),
                   "flow at index 0 has an empty id"),
    _artifact_with(GRAPH_FILE, "flow_id_twice",
                   lambda d: d["flows"].extend([{"id": "f", "members": [0]}] * 2),
                   "duplicate flow id 'f'"),
    _artifact_with(GRAPH_FILE, "resource_edge_missing_resource",
                   lambda d: d["resource_edges"][0].update(resource=5),
                   "resource edge references missing resource id 5"),
    _artifact_with(GRAPH_FILE, "resource_edge_class_missing",
                   lambda d: d["resource_edges"][0].update({"class": 999}),
                   "resource edge references missing class id 999"),
    _artifact_with(GRAPH_FILE, "flow_member_missing",
                   lambda d: d["flows"].append({"id": "f", "members": [9]}),
                   "flow 'f' references missing class id 9"),
    _artifact_with(GRAPH_FILE, "class_edge_u_above_v", _set_entry("class_edges", u=1, v=0),
                   "class edge (1, 0) must satisfy u < v"),
    _artifact_with(GRAPH_FILE, "class_edge_endpoint_float", _set_entry("class_edges", u=1.0),
                   "class edge (1.0, 1) has a non-integer endpoint"),
    _artifact_with(GRAPH_FILE, "class_edge_endpoints_float",
                   lambda d: (_set_entry("class_edges", u=1.0)(d), _set_entry("class_edges", 1, v=2.0)(d)),
                   "class edge (1.0, 1) has a non-integer endpoint; "
                   "class edge (0, 2.0) has a non-integer endpoint"),
    _artifact_with(GRAPH_FILE, "class_edge_weight_negative", _set_entry("class_edges", weight="-1/2"),
                   "class edge (0, 1) has negative weight -1/2"),
    _artifact_with(PARTITION_FILE, "partition_k_zero", lambda d: d.update(k=0),
                   "invalid partition: partition count k=0 must be >= 1"),
]


def _truth_names_no_class(out: Path) -> tuple[list[str], str]:
    assert main(["partition", "--k", "2", "--out", str(out)]) == 0
    path = out.parent / "truth.yaml"
    path.write_text("ghost.One: a\nghost.Two: a\n")
    return ["evaluate", "--truth", str(path), "--force"], str(path)


def _entry_points_scalar(out: Path) -> tuple[list[str], str]:
    rules = out.parent / "flow-rules.yaml"
    rules.write_text("line_regex: '^(?P<class>\\S+)$'\nentry_points: web.Shop\n")
    traces = out.parent / "traces.log"
    traces.write_text("web.Shop\nweb.Cart\nweb.Shop\ndata.Orders\n")
    argv = ["ingest", "--deps", str(out.parent / "deps.xml"), "--traces", str(traces)]
    return [*argv, "--flow-rules", str(rules), "--force"], str(rules)


def _trace_tag_is_synthetic_id(out: Path) -> tuple[list[str], str]:
    rules = FIXTURES_DIR.parent / "config" / "flow-rules.example.yaml"
    traces = out.parent / "traces.log"
    traces.write_text("web.Shop\nweb.Cart\n[F0] data.Orders\n[F0] web.Cart\n")
    argv = ["ingest", "--deps", str(out.parent / "deps.xml"), "--traces", str(traces)]
    return [*argv, "--flow-rules", str(rules), "--force"], (
        f"{traces}: trace tag 'F0' is also the id of an untagged flow segment"
    )


def _ingest_with(
    name: str, text: str, label: str, problem: str = ""
) -> Callable[[Path], tuple[list[str], str]]:
    """ingest with traces, where the input file ``name`` holds ``text`` and the
    others are valid; the error must name the file, then ``problem`` if given."""

    def case(out: Path) -> tuple[list[str], str]:
        root = out.parent
        (root / "traces.log").write_text("web.Shop\nweb.Cart\n")
        (root / "flow-rules.yaml").write_text("line_regex: '^(?P<class>\\S+)$'\n")
        (root / name).write_text(text)
        deps = root / ("deps.json" if name == "deps.json" else "deps.xml")
        argv = ["ingest", "--deps", str(deps), "--manifest", str(root / "manifest.yaml"),
                "--traces", str(root / "traces.log"), "--flow-rules", str(root / "flow-rules.yaml")]
        return [*argv, "--force"], f"{root / name}: {problem}" if problem else str(root / name)

    case.__name__ = label
    return case


INGEST_CASES = [
    _ingest_with("manifest.yaml", "resources: 5\n", "manifest_resources_number"),
    _ingest_with("manifest.yaml", "resources: []\nbindings: 5\n", "manifest_bindings_number"),
    _ingest_with("manifest.yaml", "resources:\n  - {name: [1], kind: database}\n",
                 "manifest_name_list"),
    _ingest_with("manifest.yaml",
                 "resources:\n  - {name: db, kind: database}\nbindings:\n  - {class: [1], resource: db}\n",
                 "manifest_class_list"),
    _ingest_with("manifest.yaml", "resources:\n  - {name: 2001-02-30, kind: database}\n",
                 "manifest_bad_date"),
    _ingest_with("manifest.yaml",
                 "resources:\n  - {name: db, kind: database}\nbindings:\n"
                 "  - {class: web.Shop, resource: db}\n  - {class: web.Shop, resource: db}\n",
                 "manifest_binding_twice",
                 "duplicate binding of class 'web.Shop' to resource 'db'"),
    _ingest_with("manifest.yaml",
                 "resources:\n  - {name: db, kind: database}\nbindings:\n"
                 "  - {class: '  ', resource: db}\n",
                 "manifest_class_blank", "manifest class must not be blank"),
    _ingest_with("manifest.yaml", "resources:\n  - {name: ' ', kind: database}\n",
                 "manifest_name_blank", "manifest name must not be blank"),
    _ingest_with("manifest.yaml",
                 "resources:\n  - {name: db, kind: database}\nbindngs:\n"
                 "  - {class: web.Shop, resource: db}\n",
                 "manifest_unknown_key", "unknown manifest key 'bindngs'"),
    _ingest_with("flow-rules.yaml", "line_regex: '^(?P<class>\\S+)$'\nentry_point: [web.Shop]\n",
                 "rules_unknown_key", "unknown flow rules key 'entry_point'"),
    _ingest_with("flow-rules.yaml", "line_regex: '('\n", "rules_regex_unbalanced"),
    _ingest_with("flow-rules.yaml", "line_regex: 5\n", "rules_regex_number"),
    _ingest_with("flow-rules.yaml", "line_regex: '(?P<flow>\\w+)'\n", "rules_no_class_group"),
    _ingest_with("flow-rules.yaml", "line_regex: '^(?P<class>\\S+)$'\nentry_points: [[1]]\n",
                 "rules_entry_point_list"),
    _ingest_with("deps.json", '{"classes":[{"name":["x"]}]}', "deps_class_name_list"),
    _ingest_with("deps.json", '{"classes":[{"name":"A","dependsOn":[{"name":["x"]}]}]}',
                 "deps_dependency_name_list"),
    _ingest_with("deps.json", '{"classes":[]}', "deps_no_dependencies"),
    _ingest_with("deps.xml", "<dependencies/>", "deps_xml_no_dependencies"),
]


def _repeated_key(name: str, text: str) -> Callable[[Path], tuple[list[str], str]]:
    """The YAML input ``name`` repeating a key; its reader must not keep
    the last value."""

    def case(out: Path) -> tuple[list[str], str]:
        argv, bad = yaml_input(out.parent, name, text)
        return argv, f"{bad}: malformed YAML: repeated key"

    case.__name__ = f"repeated_key_{name.split('.')[0].replace('-', '_')}"
    return case


REPEATED_KEY_CASES = [
    _repeated_key("truth.yaml", "web.Shop: a\nweb.Cart: a\ndata.Orders: b\nweb.Shop: b\n"),
    _repeated_key("prices.yaml", "cache: 1\ncache: 5\n"),
    _repeated_key("manifest.yaml", "resources:\n  - {name: db, kind: database, name: db2}\n"),
    _repeated_key("flow-rules.yaml", "line_regex: '^(?P<class>\\S+)$'\nline_regex: '('\n"),
]


def _dependency_unknown_class(command: str) -> Callable[[Path], tuple[list[str], str]]:
    def case(out: Path) -> tuple[list[str], str]:
        assert main(["partition", "--k", "2", "--out", str(out)]) == 0
        doc = json.loads((out / GRAPH_FILE).read_text())
        doc["dependencies"]["to"][0] = len(doc["classes"])
        (out / GRAPH_FILE).write_text(json.dumps(doc))
        return [command, "--force", *(["--k", "2"] if command == "partition" else [])], str(
            out / GRAPH_FILE
        )

    case.__name__ = f"dependency_unknown_class_{command}"
    return case


DEEP_JSON = "[" * 100_000 + "]" * 100_000
LONG_INTEGER = "1" * 5_000  # past the 4,300 digits Python converts


def _json_input(
    where: str, label: str, text: str, problem: str = ""
) -> Callable[[Path], tuple[list[str], str]]:
    """A command reading ``text`` as its JSON input ``where``: graph.json, a
    --deps export, a dot --partition file, the partition.json that evaluate
    reads or a JSON truth file; the error must name the file, then
    ``malformed JSON`` and ``problem``."""

    def case(out: Path) -> tuple[list[str], str]:
        if where == "graph":
            path, argv = out / GRAPH_FILE, ["partition", "--k", "2"]
        elif where == "evaluate":
            assert main(["partition", "--k", "2", "--out", str(out)]) == 0
            path, argv = out / PARTITION_FILE, ["evaluate"]
        elif where == "deps":
            path = out.parent / "deps.json"
            argv = ["ingest", "--deps", str(path), "--force"]
        elif where == "partition":
            path = out.parent / "p.json"
            argv = ["dot", "--partition", str(path)]
        else:
            assert main(["partition", "--k", "2", "--out", str(out)]) == 0
            path = out.parent / "truth.json"
            argv = ["evaluate", "--truth", str(path), "--force"]
        path.write_text(text)
        return argv, f"{path}: malformed JSON{problem}"

    case.__name__ = f"{where}_{label}"
    return case


JSON_CASES = [
    _json_input("graph", "nested_100000_deep", DEEP_JSON),
    _json_input("deps", "nested_100000_deep", DEEP_JSON),
    _json_input("partition", "nested_100000_deep", DEEP_JSON),
    _json_input("partition", "k_of_5000_digits", '{"k": ' + LONG_INTEGER + ', "assignment": {}}'),
    _json_input("truth", "label_of_5000_digits", '{"web.Shop": ' + LONG_INTEGER + "}"),
    # Each of these loads with the last value of the repeated key if that is kept.
    _json_input("graph", "repeated_key",
                '{"schema_version": 1, "classes": [{"id": 0, "name": "a"}, {"id": 1, "name": "b"}], '
                '"schema_version": 2}',
                ": repeated key 'schema_version'"),
    _json_input("truth", "repeated_key",
                '{"web.Shop": "a", "web.Cart": "a", "data.Orders": "b", "web.Shop": "b"}',
                ": repeated key 'web.Shop'"),
    _json_input("deps", "repeated_key",
                '{"classes": [{"name": "web.Shop", "dependsOn": ["web.Cart"], "name": "x"}]}',
                ": repeated key 'name'"),
    _json_input("partition", "repeated_key",
                '{"k": 2, "assignment": {"web.Shop": 1, "web.Cart": 1, "data.Orders": 1, '
                '"web.Shop": 0}}',
                ": repeated key 'web.Shop'"),
    _json_input("evaluate", "repeated_key",
                '{"k": 2, "assignment": {"web.Shop": 0}, "assignment": '
                '{"web.Shop": 0, "web.Cart": 1, "data.Orders": 1}}',
                ": repeated key 'assignment'"),
]


@pytest.mark.parametrize(
    "make_case",
    [
        _corrupt_graph,
        _truncated_partition,
        _deps_classes_not_objects,
        _assignment_list,
        _assignment_not_integer,
        _relation_not_string,
        _seed_past_restarts,
        _partition_k(3.9),
        _partition_k("2.7"),
        _partition_k(True),
        _first_class("weight", 2.7),
        _first_class("weight", "2.7"),
        _first_class("weight", True),
        _first_class("id", 0.0),
        _first_class("id", True),
        _truth_not_utf8,
        _prices_not_utf8,
        _truth_names_no_class,
        _truth_class_not_string,
        _prices_int_and_unknown_key,
        _entry_points_scalar,
        _trace_tag_is_synthetic_id,
        _dependency_unknown_class("partition"),
        _dependency_unknown_class("dot"),
        _dependency_unknown_class("evaluate"),
        *INGEST_CASES,
        *ARTIFACT_CASES,
        *JSON_CASES,
        *REPEATED_KEY_CASES,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_bad_input_exits_2_naming_it(workdir, capsys, make_case):
    out = workdir / "out"
    assert run_ingest(workdir) == 0
    argv, named = make_case(out)
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def _out_is_a_file(root: Path) -> tuple[list[str], str]:
    path = root / "a-file"
    path.write_text("")
    return ["ingest", "--deps", str(root / "deps.xml"), "--out", str(path)], (
        f"error: [Errno 17] File exists: '{path}'"
    )


def _traces_without_flow_rules(root: Path) -> tuple[list[str], str]:
    argv = ["ingest", "--deps", str(root / "deps.xml"), "--traces", str(root / "traces.log")]
    return [*argv, "--out", str(root / "out")], "error: --traces requires --flow-rules"


def _evaluate_before_partition(root: Path) -> tuple[list[str], str]:
    assert run_ingest(root) == 0
    return ["evaluate", "--out", str(root / "out")], (
        f"error: partition artifact not found: {root / 'out' / PARTITION_FILE} "
        "(run partition first)"
    )


def _sweep_infeasible(root: Path) -> tuple[list[str], str]:
    app, out = FIXTURES_DIR / "jpetstore", str(root / "out")
    assert main(["ingest", "--deps", str(app / "deps.xml"), "--out", out]) == 0
    return ["partition", "--sweep-k", "30..40", "--out", out], (
        "error: sweep range 30..40 is infeasible for 24 classes"
    )


def _alpha_not_rational(root: Path) -> tuple[list[str], str]:
    assert run_ingest(root) == 0
    return ["partition", "--k", "3", "--alpha", "abc", "--out", str(root / "out")], (
        "argument --alpha: not a rational number: 'abc'"
    )


def _zero_clusters(root: Path) -> tuple[list[str], str]:
    argv = ["generate", "--classes", "5", "--clusters", "0", "--p-in", "0.5", "--p-out", "0.1"]
    return [*argv, "--seed", "1", "--out", str(root / "out")], (
        "error: clusters must be in 1..classes, got 0 for 5"
    )


def _classes_of_20_digits(root: Path) -> tuple[list[str], str]:
    argv = ["generate", "--classes", "9" * 20, "--clusters", "2", "--p-in", "0.5", "--p-out", "0.1"]
    return [*argv, "--seed", "1", "--out", str(root / "out")], (
        f"error: classes must be at most {MAX_CLASSES} ({MAX_PAIR_DRAWS} class pairs), got {'9' * 20}"
    )


def _sweep_k_of_5000_digits(root: Path) -> tuple[list[str], str]:
    return ["partition", "--sweep-k", "2.." + "9" * 5000, "--out", str(root / "out")], (
        "error: argument --sweep-k: expects LO..HI, two integers"
    )


def _k_and_sweep_k(root: Path) -> tuple[list[str], str]:
    return ["partition", "--k", "3", "--sweep-k", "2..3", "--out", str(root / "out")], (
        "error: argument --sweep-k: not allowed with argument --k"
    )


def _neither_k_nor_sweep_k(root: Path) -> tuple[list[str], str]:
    return ["partition", "--out", str(root / "out")], (
        "error: one of the arguments --k --sweep-k is required"
    )


def _sweep_lo_above_hi(root: Path) -> tuple[list[str], str]:
    assert run_ingest(root) == 0
    return ["partition", "--sweep-k", "5..3", "--out", str(root / "out")], (
        "error: invalid sweep range: LO..HI needs 1 <= LO <= HI"
    )


def _sweep_lo_of_3000_digits(root: Path) -> tuple[list[str], str]:
    assert run_ingest(root) == 0
    return ["partition", "--sweep-k", "9" * 3000 + "..1", "--out", str(root / "out")], (
        "error: argument --sweep-k: expects LO..HI, two integers"
    )


GENERATE_ARGV = ["generate", "--classes", "5", "--clusters", "2", "--p-in", "0.5", "--p-out", "0.1",
                 "--seed", "1"]


def _flag_of_3000_digits(argv: list[str], flag: str) -> Callable[[Path], tuple[list[str], str]]:
    """``argv`` with ``flag`` given 3,000 digits, which int() reads and a
    later message would echo whole."""

    def case(root: Path) -> tuple[list[str], str]:
        assert run_ingest(root) == 0
        return [*argv, flag, "9" * 3000, "--out", str(root / "out")], (
            f"error: argument {flag}: expects an integer of at most 20 digits"
        )

    case.__name__ = f"{argv[0]}_{flag.lstrip('-')}_of_3000_digits"
    return case


@pytest.mark.parametrize(
    "make_case",
    [
        _sweep_lo_above_hi,
        _sweep_lo_of_3000_digits,
        _flag_of_3000_digits(["partition"], "--k"),
        _flag_of_3000_digits(["partition", "--k", "2"], "--seed"),
        _flag_of_3000_digits(["partition", "--k", "2"], "--restarts"),
        *(_flag_of_3000_digits(GENERATE_ARGV, flag)
          for flag in ("--classes", "--clusters", "--resources-per-cluster", "--seed")),
        _out_is_a_file,
        _traces_without_flow_rules,
        _evaluate_before_partition,
        _sweep_infeasible,
        _alpha_not_rational,
        _zero_clusters,
        _classes_of_20_digits,
        _sweep_k_of_5000_digits,
        _k_and_sweep_k,
        _neither_k_nor_sweep_k,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_usage_error_exits_2(workdir, capsys, make_case):
    argv, message = make_case(workdir)
    before = {path: path.read_bytes() for path in workdir.rglob("*") if path.is_file()}
    capsys.readouterr()
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.endswith(message + "\n")
    assert "Traceback" not in err and len(err) < 1000
    assert {path: path.read_bytes() for path in workdir.rglob("*") if path.is_file()} == before
    assert elapsed < 1


def test_class_bound_admits_exactly_the_pairs_allowed():
    assert MAX_CLASSES * (MAX_CLASSES - 1) // 2 <= MAX_PAIR_DRAWS < (MAX_CLASSES + 1) * MAX_CLASSES // 2
    FixtureSpec(classes=MAX_CLASSES, clusters=2, p_in=0.5, p_out=0.1)  # checked, never generated
    with pytest.raises(model.InputError, match=f"classes must be at most {MAX_CLASSES} "):
        FixtureSpec(classes=MAX_CLASSES + 1, clusters=2, p_in=0.5, p_out=0.1)


@pytest.mark.parametrize(
    "field,value", [("classes", 24.0), ("clusters", True), ("resources_per_cluster", 1.5), ("seed", "3")]
)
def test_fixture_counts_and_seed_must_be_integers(field, value):
    spec = {"classes": 24, "clusters": 3, "p_in": 0.3, "p_out": 0.02, field: value}
    with pytest.raises(model.InputError) as info:
        FixtureSpec(**spec)
    assert str(info.value) == f"{field} must be an integer, got {value!r}"


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
@pytest.mark.parametrize("name", ["manifest.yaml", "flow-rules.yaml", "truth.yaml", "prices.yaml"])
def test_malformed_yaml_exits_2_under_either_loader(workdir, capsys, monkeypatch, name, loader):
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML built without libyaml")
    assert run_ingest(workdir) == 0
    argv, bad = yaml_input(workdir, name, "a: [1\nb: 2\n")
    monkeypatch.setattr(ingest, "YAML_LOADER", getattr(yaml, loader))
    capsys.readouterr()
    assert main([*argv, "--out", str(workdir / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: malformed YAML" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
@pytest.mark.parametrize("name", ["manifest.yaml", "flow-rules.yaml", "truth.yaml", "prices.yaml"])
def test_repeated_yaml_key_exits_2_under_either_loader(workdir, capsys, monkeypatch, name, loader):
    """Either loader would keep the last value silently."""
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML built without libyaml")
    assert run_ingest(workdir) == 0
    argv, bad = yaml_input(workdir, name, "a: 1\nb:\n  c: 2\n  c: 3\n")
    monkeypatch.setattr(ingest, "YAML_LOADER", getattr(yaml, loader))
    capsys.readouterr()
    assert main([*argv, "--out", str(workdir / "out")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: malformed YAML: repeated key 'c' at line 4\n"


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--prices", ".nan"),
        ("--prices", ".inf"),
        ("--prices", "-.inf"),
        ("--prices", "'1e-10000000'"),
        ("--alpha", "1e-10000000"),
        ("--epsilon", "1e+10000000"),
    ],
)
def test_non_finite_or_oversized_number_exits_2_quickly(workdir, capsys, flag, value):
    """Building 10**10000000 alone would take seconds."""
    out = workdir / "out"
    assert run_ingest(workdir) == 0
    named = f"argument {flag}"
    if flag == "--prices":
        path = workdir / "prices.yaml"
        path.write_text(f"cache: {value}\n")
        value = named = str(path)
    capsys.readouterr()
    start = time.perf_counter()
    code = main(["partition", "--k", "2", flag, value, "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert elapsed < 1


# 10**4300 has 4301 digits, one more than Python turns into text; 10**400
# is past the float range the evaluation table prints through.
TOO_MANY_DIGITS, PAST_FLOAT = "1e4300", "1e400"


@pytest.mark.parametrize(
    "case",
    ["ingest_base_call", "partition_price", "evaluate_price", "evaluate_price_past_float",
     "dot_edge_weight"],
)
def test_number_too_large_to_write_exits_2_writing_nothing(workdir, capsys, case):
    out = workdir / "out"
    assert run_ingest(workdir) == 0
    prices = workdir / "prices.yaml"
    prices.write_text(f'compute: "{PAST_FLOAT if case.endswith("float") else TOO_MANY_DIGITS}"\n')
    if case == "ingest_base_call":
        out = workdir / "fresh"
        argv = ["ingest", "--deps", str(workdir / "deps.xml"), "--base-call", TOO_MANY_DIGITS]
    elif case == "partition_price":
        argv = ["partition", "--k", "2", "--prices", str(prices)]
    elif case == "dot_edge_weight":
        doc = json.loads((out / GRAPH_FILE).read_text())
        doc["class_edges"]["weight"][0] = TOO_MANY_DIGITS
        (out / GRAPH_FILE).write_text(json.dumps(doc))
        argv = ["dot"]
    else:
        assert main(["partition", "--k", "2", "--out", str(out)]) == 0
        argv = ["evaluate", "--prices", str(prices)]
    before = sorted(out.iterdir()) if out.exists() else []
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: number too large to ")
    assert err.count("\n") == 1
    assert (sorted(out.iterdir()) if out.exists() else []) == before


DEEP_YAML = "[" * 100_000 + "]" * 100_000 + "\n"


@pytest.mark.parametrize(
    "name,text",
    [
        ("manifest.yaml", DEEP_YAML),
        ("manifest.yaml", "- " * 40_000 + "x\n"),
        ("truth.yaml", DEEP_YAML),
        ("prices.yaml", DEEP_YAML),
        ("flow-rules.yaml", "line_regex: '^(?P<class>\\S+)$'\nentry_points: " + DEEP_YAML),
    ],
    ids=["manifest", "manifest_compact", "truth", "prices", "flow_rules_entry_points"],
)
def test_deeply_nested_yaml_exits_2_naming_it(workdir, name, text):
    """Run in a child process: libyaml used to crash the process on these."""
    assert run_ingest(workdir) == 0
    argv, bad = yaml_input(workdir, name, text)
    proc = subprocess.run(
        [sys.executable, "-m", "monopart", *argv, "--out", str(workdir / "out")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr[-500:]
    assert f"{bad}: malformed YAML: nested deeper than 32 levels" in proc.stderr
    assert "Traceback" not in proc.stderr


class TestSubprocessSmoke:
    def test_console_script_pipeline(self, workdir):
        env_out = str(workdir / "out")
        steps = [
            [sys.executable, "-m", "monopart", "ingest", "--deps", str(workdir / "deps.xml"),
             "--manifest", str(workdir / "manifest.yaml"), "--out", env_out],
            [sys.executable, "-m", "monopart", "partition", "--k", "2", "--out", env_out],
            [sys.executable, "-m", "monopart", "evaluate", "--out", env_out],
        ]
        for cmd in steps:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        assert (workdir / "out" / EVALUATION_FILE).exists()
