"""Benchmark workloads: what each one feeds the CLI and how its inputs are made.

A workload is a list of monoliths. Each monolith gets its own input
directory holding ``deps.xml``, ``manifest.yaml`` and ``truth.yaml`` (plus
``traces.log`` and ``flow-rules.yaml`` when it has traces), and is run
through ``ingest -> partition -> evaluate`` (``-> dot`` where asked).

Input generation runs in a child process (``python3 bench/workloads.py
WORKLOAD SEED DIR``) so that the memory it needs never shows in the peak
resident memory of the process that runs the pipeline. It writes
``shape.json`` next to the inputs with the realised size of each monolith.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
FLOW_RULES = ROOT / "config" / "flow-rules.example.yaml"


@dataclass(frozen=True)
class Monolith:
    """One application of a workload and the flags its commands take."""

    name: str
    k: int
    partition_flags: tuple[str, ...] = ()
    traces: bool = False
    dot: bool = False

    def commands(self, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
        """(command, argv) pairs for one pass, in pipeline order."""
        ingest = ["ingest", "--deps", str(inputs / "deps.xml"),
                  "--manifest", str(inputs / "manifest.yaml")]
        if self.traces:
            ingest += ["--traces", str(inputs / "traces.log"),
                       "--flow-rules", str(inputs / "flow-rules.yaml")]
        plan = [
            ("ingest", ingest + ["--out", str(out)]),
            ("partition", ["partition", "--k", str(self.k), *self.partition_flags,
                           "--out", str(out)]),
            ("evaluate", ["evaluate", "--truth", str(inputs / "truth.yaml"),
                          "--name", self.name, "--out", str(out)]),
        ]
        if self.dot:
            plan.append(("dot", ["dot", "--partition", str(out / "partition.json"),
                                 "--out", str(out)]))
        return plan


# Planted-cut sizing: two monoliths of 420 classes in 6 clusters; the
# partitioner's cut path and its 8 default restarts take most of a pass. Two
# monoliths rather than one of 600 classes: the partitioner's work varies by
# a few per cent from seed to seed, and each partition call lasts half as
# long, so the short commands between them are timed at twice as many
# points of a run.
PLANTED = dict(classes=420, clusters=6, p_in=0.2, p_out=0.01, resources_per_cluster=2)
PLANTED_MONOLITHS = 2

# Traced-infra sizing: sparse clusters, a manifest that binds every resource
# across two clusters (so duplication is forced), and a long tagged trace log.
# It runs 2 restarts: with 1, about one seed in ten lands in a local optimum
# (F1 near 0.7), which makes the quality metrics bimodal across seeds.
TRACED = dict(classes=1200, clusters=8, p_in=0.05, p_out=0.003, resources_per_cluster=0)
TRACED_RESOURCES = 300
TRACED_CLIENTS_PER_SIDE = 3          # clients drawn from each of the two clusters
TRACED_FLOWS = 1500
TRACED_LINES_PER_FLOW = 200
TRACED_KINDS = ("database", "cache", "file_storage")

REAL_APPS = {"daytrader": 6, "jpetstore": 3, "springblog": 5, "pbw": 4}

# Commands rerun after each untraced pass, and as often as the time left
# allows once no further pass fits (see run.py). Partition takes most of a
# pass on these two, so without them the short commands would be timed only
# three or four times a run. A round on real-apps would add nothing.
ROUNDS = {"planted-cut": ("ingest", "evaluate"), "traced-infra": ("evaluate", "evaluate"),
          "real-apps": ()}

WORKLOADS: dict[str, list[Monolith]] = {
    "planted-cut": [Monolith(f"planted-{i}", k=PLANTED["clusters"])
                    for i in range(PLANTED_MONOLITHS)],
    "traced-infra": [
        Monolith("traced", k=TRACED["clusters"],
                 partition_flags=("--alpha", "1/10", "--restarts", "2"), traces=True)
    ],
    "real-apps": [Monolith(name, k=k, dot=True) for name, k in REAL_APPS.items()],
}


def plan(workload: str, seed: int) -> list[Monolith]:
    """The workload's monoliths; real-apps runs them in a seed-chosen order."""
    monoliths = list(WORKLOADS[workload])
    if workload == "real-apps":
        random.Random(seed).shuffle(monoliths)
    return monoliths


def _write_fixture(spec_args: dict, seed: int, out: Path) -> list[list[str]]:
    """Write a fixturegen monolith into ``out``; return its planted clusters
    as lists of class names."""
    from monopart import fixturegen

    fixture = fixturegen.generate_fixture(fixturegen.FixtureSpec(seed=seed, **spec_args))
    (out / "deps.xml").write_text(fixture.deps_xml, encoding="utf-8")
    (out / "manifest.yaml").write_text(fixture.manifest_yaml, encoding="utf-8")
    (out / "truth.yaml").write_text(fixture.truth_yaml, encoding="utf-8")
    clusters: list[list[str]] = [[] for _ in range(spec_args["clusters"])]
    for line, cluster in zip(fixture.truth_yaml.splitlines(), fixture.cluster_of):
        clusters[cluster].append(line.split(":", 1)[0])
    return clusters


def _write_traced_extras(clusters: list[list[str]], seed: int, out: Path) -> None:
    """Cross-cluster manifest and tagged trace log for traced-infra."""
    rng = random.Random(f"traced-infra/{seed}")
    res_lines, bind_lines = [], []
    for r in range(TRACED_RESOURCES):
        kind = TRACED_KINDS[r % len(TRACED_KINDS)]
        name = f"r{r:03d}-{kind}"
        res_lines.append(f"  - name: {name}\n    kind: {kind}")
        a, b = rng.sample(range(len(clusters)), 2)
        clients = (rng.sample(clusters[a], TRACED_CLIENTS_PER_SIDE)
                   + rng.sample(clusters[b], TRACED_CLIENTS_PER_SIDE))
        bind_lines += [f"  - class: {c}\n    resource: {name}" for c in clients]
    (out / "manifest.yaml").write_text(
        "resources:\n" + "\n".join(res_lines) + "\nbindings:\n" + "\n".join(bind_lines) + "\n",
        encoding="utf-8",
    )

    # Each flow is one request path inside one cluster: 4-5 distinct classes,
    # the first being the entry point, revisited over the flow's lines.
    lines = []
    for f in range(TRACED_FLOWS):
        members = rng.sample(rng.choice(clusters), rng.choice((4, 5)))
        tag = f"[f{f:04d}] "
        lines += [tag + c for c in members]
        lines += [tag + rng.choice(members) for _ in range(TRACED_LINES_PER_FLOW - len(members))]
    (out / "traces.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
    shutil.copyfile(FLOW_RULES, out / "flow-rules.yaml")


def _shape(inputs: Path) -> dict:
    """Realised input size of one monolith, read back from its files."""
    import yaml

    deps = (inputs / "deps.xml").read_text(encoding="utf-8")
    manifest = yaml.safe_load((inputs / "manifest.yaml").read_text(encoding="utf-8")) or {}
    traces = inputs / "traces.log"
    return {
        "classes": len((inputs / "truth.yaml").read_text(encoding="utf-8").splitlines()),
        "dependencies": deps.count("<dependsOn "),
        "resources": len(manifest.get("resources") or ()),
        "bindings": len(manifest.get("bindings") or ()),
        "trace_lines": len(traces.read_text(encoding="utf-8").splitlines()) if traces.exists() else 0,
    }


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write every monolith's inputs under ``root/<name>``; return the shapes."""
    shapes = {}
    for i, mono in enumerate(WORKLOADS[workload]):
        out = root / mono.name
        out.mkdir(parents=True)
        if workload == "planted-cut":
            _write_fixture(PLANTED, seed * PLANTED_MONOLITHS + i, out)
        elif workload == "traced-infra":
            _write_traced_extras(_write_fixture(TRACED, seed, out), seed, out)
        else:
            for name in ("deps.xml", "manifest.yaml", "truth.yaml"):
                shutil.copyfile(FIXTURES / mono.name / name, out / name)
        shapes[mono.name] = _shape(out)
    # A tiny traced monolith that runs every code path once before timing.
    warm = root / "_warmup"
    warm.mkdir()
    small = dict(classes=24, clusters=3, p_in=0.3, p_out=0.02, resources_per_cluster=1)
    clusters = _write_fixture(small, seed, warm)
    (warm / "traces.log").write_text(
        "".join(f"[w{i}] {c}\n" for i, members in enumerate(clusters) for c in members[:4]),
        encoding="utf-8",
    )
    shutil.copyfile(FLOW_RULES, warm / "flow-rules.yaml")
    (root / "shape.json").write_text(json.dumps(shapes, indent=2, sort_keys=True), encoding="utf-8")
    return shapes


WARMUP = Monolith("_warmup", k=3, traces=True, dot=True)

if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
