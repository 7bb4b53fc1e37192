"""Artifacts are byte-identical to the committed golden files.

Each case runs ``ingest`` and ``partition`` through ``cli.main`` and compares
the written ``partition.json`` with ``tests/golden/<case>.json``. The golden
files pin the partitions the multilevel partitioner chooses, so a change to
its internal arithmetic that alters any choice (a tie-break, a cap test, a
gain comparison) fails here.

For the cases in ``PIPELINE_CASES`` every other artifact and the stdout of
all four commands are pinned too, under ``tests/golden/<case>/``. The same
``partition``, ``evaluate`` and ``dot`` runs on the golden ``graph.json``
pin that a graph written earlier stays readable, with the same output.
"""

import json
from pathlib import Path

import pytest

from conftest import FIXTURES_DIR

from monopart.cli import (
    DOT_FILE,
    EVALUATION_FILE,
    GRAPH_FILE,
    INFRA_REPORT_FILE,
    PARTITION_FILE,
    main,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

FRACTIONAL_PRICES = "cache: 0.3\nfile_storage: 1/6\n"

# case -> (fixture, ingest flags, partition flags)
CASES = {
    "daytrader": ("daytrader", [], ["--k", "6"]),
    "daytrader-sweep": ("daytrader", [], ["--sweep-k", "2..6"]),
    "jpetstore": ("jpetstore", [], ["--k", "3"]),
    "pbw": ("pbw", [], ["--k", "4"]),
    "pbw-eps0": ("pbw", [], ["--k", "3", "--epsilon", "0"]),
    "springblog": ("springblog", [], ["--k", "5"]),
    "jpetstore-fractional": (
        "jpetstore",
        ["--base-call", "1/3", "--beta-flow", "2/7", "--shared-resource-increment", "3/5"],
        ["--k", "3", "--alpha", "1/3", "--epsilon", "1/7", "--prices", "{prices}"],
    ),
    # 30 of the 57 class edges weigh 0, so coarsening, growth and refinement
    # all meet zero-weight rows
    "jpetstore-zero": (
        "jpetstore",
        ["--shared-resource-increment", "0", "--base-reference", "0"],
        ["--k", "3"],
    ),
}


def run_case(case: str, work: Path, reverse_edges: bool = False) -> bytes:
    """Run ingest and partition for ``case`` in ``work``; return
    partition.json. With ``reverse_edges`` the class edges of the written
    graph.json are reversed before partitioning."""
    fixture, ingest_flags, partition_flags = CASES[case]
    src = FIXTURES_DIR / fixture
    out = work / "out"
    prices = work / "prices.yaml"
    prices.write_text(FRACTIONAL_PRICES, encoding="utf-8")
    assert main(["ingest", "--deps", str(src / "deps.xml"),
                 "--manifest", str(src / "manifest.yaml"),
                 *ingest_flags, "--out", str(out)]) == 0
    if reverse_edges:
        doc = json.loads((out / GRAPH_FILE).read_bytes())
        for column in doc["class_edges"].values():
            column.reverse()
        (out / GRAPH_FILE).write_text(json.dumps(doc), encoding="utf-8")
    flags = [f.format(prices=prices) for f in partition_flags]
    assert main(["partition", *flags, "--out", str(out)]) == 0
    return (out / PARTITION_FILE).read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_partition_matches_golden(case, tmp_path, capsys):
    assert run_case(case, tmp_path) == (GOLDEN_DIR / f"{case}.json").read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_reversed_class_edges_give_the_golden_partition(case, tmp_path, capsys):
    """Every partitioner tie goes to the lowest id, so the order of the
    class edges in graph.json cannot change a partition."""
    partition = run_case(case, tmp_path, reverse_edges=True)
    assert partition == (GOLDEN_DIR / f"{case}.json").read_bytes()


PIPELINE_CASES = ("jpetstore", "jpetstore-fractional")
# case -> flags of evaluate besides --truth
EVALUATE_FLAGS = {"jpetstore": [], "jpetstore-fractional": ["--prices", "{prices}"]}
# what partition, evaluate and dot write; ingest also writes GRAPH_FILE
LATER_ARTIFACTS = (PARTITION_FILE, INFRA_REPORT_FILE, EVALUATION_FILE, DOT_FILE)


def run_pipeline(case: str, work: Path, capsys, graph: Path | None = None) -> dict[str, bytes]:
    """Run ingest (or copy ``graph`` in its place), partition, evaluate
    --truth and dot --partition for ``case`` in ``work``. Returns each
    artifact and each command's stdout (``<command>.stdout``), with the
    output directory written as ``OUT``."""
    fixture, ingest_flags, partition_flags = CASES[case]
    src = FIXTURES_DIR / fixture
    out = work / "out"
    prices = work / "prices.yaml"
    prices.write_text(FRACTIONAL_PRICES, encoding="utf-8")
    commands = {
        "partition": ["partition", *partition_flags],
        "evaluate": ["evaluate", "--truth", str(src / "truth.yaml"), *EVALUATE_FLAGS[case]],
        "dot": ["dot", "--partition", str(out / PARTITION_FILE)],
    }
    if graph is None:
        commands = {"ingest": ["ingest", "--deps", str(src / "deps.xml"),
                               "--manifest", str(src / "manifest.yaml"), *ingest_flags],
                    **commands}
    else:
        out.mkdir()
        (out / GRAPH_FILE).write_bytes(graph.read_bytes())
    outputs = {}
    capsys.readouterr()
    for command, argv in commands.items():
        argv = [a.format(prices=prices) for a in argv]
        assert main([*argv, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        outputs[f"{command}.stdout"] = stdout.encode("utf-8")
    names = LATER_ARTIFACTS if graph is not None else (GRAPH_FILE, *LATER_ARTIFACTS)
    outputs.update({name: (out / name).read_bytes() for name in names})
    return outputs


def golden_outputs(case: str, names) -> dict[str, bytes]:
    """The golden copy of each output in ``names``; partition.json is the
    case's ``<case>.json``."""
    paths = {name: GOLDEN_DIR / case / name for name in names}
    if PARTITION_FILE in paths:
        paths[PARTITION_FILE] = GOLDEN_DIR / f"{case}.json"
    return {name: path.read_bytes() for name, path in paths.items()}


@pytest.mark.parametrize("case", PIPELINE_CASES)
def test_every_output_matches_golden(case, tmp_path, capsys):
    outputs = run_pipeline(case, tmp_path, capsys)
    assert outputs == golden_outputs(case, outputs)


@pytest.mark.parametrize("case", PIPELINE_CASES)
def test_golden_graph_gives_the_golden_outputs(case, tmp_path, capsys):
    outputs = run_pipeline(case, tmp_path, capsys, graph=GOLDEN_DIR / case / GRAPH_FILE)
    assert outputs == golden_outputs(case, outputs)
