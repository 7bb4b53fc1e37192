"""End-to-end benchmark of the monopart CLI.

Run from the repository root:

    python3 bench/run.py --workload planted-cut --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` into a temporary
directory under ``.bench_out/``. Passes of ``ingest -> partition ->
evaluate`` (``-> dot`` on real-apps) then run in this process through
``monopart.cli.main``, one after another, as long as the next one is
expected to end within ``--seconds``. Every pass is checked: each command
exits 0, ``partition.json`` is a valid partition within the balance cap
whose stored objective matches a recomputation, and every artifact is
byte-identical to the first pass.

On the workloads where partition takes most of a pass, ``ingest`` and
``evaluate`` get too few samples from the passes alone to give a steady
median. So after each untraced pass, and in the time left once no further
pass fits, a "round" runs some of them again on the last pass's artifacts
(``workloads.ROUNDS`` says which); each rewrite must be byte-identical
too. ``ingest_s`` and ``evaluate_s`` are medians over the passes and the
rounds; ``pipeline_s`` and ``partition_s`` over the passes.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates traced and untraced passes and reports the
per-layer metrics from the spans (see ``spans.py``); the spans are written
to ``.bench_out/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 1 when any command or check failed, 2 when the repository is incomplete.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

ARTIFACTS = ("graph.json", "partition.json", "infra_report.json", "evaluation.json", "graph.dot")
COMMANDS = ("ingest", "partition", "evaluate")
REWRITES = {"ingest": "graph.json", "evaluate": "evaluation.json"}  # what a round's commands write
SETUP_RUNS = 4       # set-up samples taken before the passes
SETUP_EVERY = 3.0    # seconds between the set-up samples taken during the passes
MIN_UNTRACED = 2     # two passes at least, so the byte-identity check always runs
MIN_TRACED = 2       # two traced passes at least, so the counts can be compared

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402


@dataclass
class PassResult:
    traced: bool
    pipeline_s: float = 0.0
    command_s: dict[str, float] = field(default_factory=dict)
    quality: dict[str, dict[str, Fraction]] = field(default_factory=dict)  # app -> name -> value
    counts: dict[str, int] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


class Bench:
    """One benchmark run: the program's modules, the inputs and the tallies."""

    def __init__(self, monoliths: list[workloads.Monolith], inputs: Path, work: Path) -> None:
        from monopart import cli, metrics, model, partitioner

        self.cli, self.metrics, self.model, self.partitioner = cli, metrics, model, partitioner
        self.monoliths = monoliths
        self.inputs = inputs
        self.work = work
        self.recorder = spans.Recorder()
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, dict[str, str]] = {}   # app -> artifact -> sha256 of the first pass
        self.truth_names: dict[str, set[str]] = {}

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def _run_command(self, argv: list[str], traced: bool) -> tuple[int, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if traced:
                rc = self.recorder.call(f"cli.{argv[0]}", self.cli.main, argv)
            else:
                rc = self.cli.main(argv)
        return rc, stderr.getvalue()

    def run_pass(self, pass_id: int, traced: bool, monoliths=None) -> PassResult:
        monoliths = monoliths or self.monoliths
        result = PassResult(traced=traced, command_s={c: 0.0 for c in COMMANDS})
        out_root = self.work / "pass"
        shutil.rmtree(out_root, ignore_errors=True)
        self.recorder.pass_id = pass_id
        if traced:
            self.recorder.install()
        to_check = []
        try:
            start = time.perf_counter()
            for mono in monoliths:
                plan = mono.commands(self.inputs / mono.name, out_root / mono.name)
                ok = True
                for command, argv in plan:
                    t0 = time.perf_counter()
                    rc, err = self._run_command(argv, traced)
                    dt = time.perf_counter() - t0
                    if command in result.command_s:
                        result.command_s[command] += dt
                    ok &= self.record(rc == 0, f"{mono.name}: {command} exited {rc}: {err.strip()}")
                if ok:
                    to_check.append((mono, out_root / mono.name, dict(plan)["partition"]))
            result.pipeline_s = time.perf_counter() - start
        finally:
            self.recorder.restore()
        for mono, out, partition_argv in to_check:
            self._check(mono, out, partition_argv, result)
        if traced:
            result.layers = self.recorder.pass_metrics(pass_id)
        return result

    def run_round(self, commands: tuple[str, ...]) -> list[tuple[str, float]]:
        """Rerun ``commands`` in order on the last pass's artifacts, each one
        for every monolith; each must rewrite its artifact byte for byte.
        Returns one (command, seconds) sample per command, summed over the
        monoliths as in a pass."""
        samples = []
        for command in commands:
            artifact, elapsed = REWRITES[command], 0.0
            for mono in self.monoliths:
                out = self.work / "pass" / mono.name
                argv = dict(mono.commands(self.inputs / mono.name, out))[command]
                (out / artifact).unlink(missing_ok=True)
                t0 = time.perf_counter()
                rc, err = self._run_command(argv, traced=False)
                elapsed += time.perf_counter() - t0
                if self.record(rc == 0, f"{mono.name}: repeated {command} exited {rc}: {err.strip()}"):
                    digest = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                    self.record(digest == self.hashes.get(mono.name, {}).get(artifact),
                                f"{mono.name}: repeated {command} changed {artifact}")
            samples.append((command, elapsed))
        return samples

    def _check(self, mono: workloads.Monolith, out: Path, partition_argv: list[str],
               result: PassResult) -> None:
        """Output checks on one monolith's artifacts; adds its quality values
        and artifact counts to ``result``."""
        model, name = self.model, mono.name
        try:
            graph_bytes = (out / "graph.json").read_bytes()
            g = model.graph_from_doc(json.loads(graph_bytes))
            p_doc = json.loads((out / "partition.json").read_text(encoding="utf-8"))
            e_doc = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
            p = model.partition_from_doc(p_doc, g)  # raises unless validate_partition passes
            quality = {
                "f1": model.as_fraction(e_doc["f1"]),
                "ngm": model.as_fraction(e_doc["ngm"]),
                "objective": model.as_fraction(p_doc["objective"]),
                "infra_cost": model.as_fraction(e_doc["infra_cost"]),
            }
        except (OSError, ValueError, KeyError, model.InputError) as exc:
            self.record(False, f"{name}: artifacts unreadable or partition invalid: {exc!r}")
            return
        self.record(True, f"{name}: partition.json valid")
        result.quality[name] = quality

        args = self.cli.build_parser().parse_args(partition_argv)
        cfg = self.partitioner.ObjectiveConfig(k=args.k, alpha=args.alpha, epsilon=args.epsilon,
                                               seed=args.seed, restarts=args.restarts)
        loads = [0] * p.k
        for c in g.classes:
            loads[p.assignment[c.id]] += c.weight
        cap = (1 + args.epsilon) * -(-sum(loads) // p.k)
        self.record(max(loads) <= cap, f"{name}: largest load {max(loads)} exceeds cap {cap}")
        recomputed = self.partitioner.objective(g, p, model.PriceTable.default(), cfg)
        self.record(quality["objective"] == recomputed,
                     f"{name}: stored objective {quality['objective']} != recomputed {recomputed}")

        hashes = {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
                  for a in ARTIFACTS if (out / a).exists()}
        reference = self.hashes.setdefault(name, hashes)
        self.record(hashes == reference, f"{name}: artifacts differ from the first pass: "
                     + ", ".join(a for a in ARTIFACTS if hashes.get(a) != reference.get(a)))

        if name not in self.truth_names:
            truth = self.metrics.load_ground_truth((self.inputs / name / "truth.yaml").read_bytes())
            self.truth_names[name] = set(truth.assignment)
        common = sum(1 for c in g.classes if c.name in self.truth_names[name])
        spread: dict[int, set[int]] = {}
        for edge in g.resource_edges:
            spread.setdefault(edge.resource, set()).add(p.assignment[edge.cls])
        counts = {
            "model.graph_json_bytes": len(graph_bytes),
            "infra.duplicated_resources": sum(1 for parts in spread.values() if len(parts) > 1),
            "metrics.f1_pairs": common * (common - 1) // 2,
            "classes": len(g.classes),
            "class_edges": len(g.class_edges),
        }
        for key, value in counts.items():
            result.counts[key] = result.counts.get(key, 0) + value


class Setup:
    """Samples of ``setup_s``: the wall time of a fresh interpreter importing
    ``monopart.cli``. A few are taken up front (after one unkept run, which
    may compile bytecode) and the rest between passes, at most one every
    ``SETUP_EVERY`` seconds, so that the median spans the whole run."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self.last = 0.0
        self._launch()
        self.times.clear()
        for _ in range(SETUP_RUNS):
            self._launch()

    def _launch(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import monopart.cli"],
                       env=self.env, cwd=ROOT, check=True)
        self.last = time.perf_counter()
        self.times.append(self.last - t0)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY:
            self._launch()


def tail(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g}"
    for pct in (99.9, 99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            text += f", p{pct:g} {ordered[math.ceil(pct / 100 * n) - 1]:.6g}"
            break
    return text + f", n={n}"


def quality_totals(per_app: dict[str, dict[str, Fraction]]) -> dict[str, Fraction]:
    """Mean f1 and ngm, summed objective and infra_cost over the apps."""
    apps = list(per_app.values())
    if not apps:  # every pass failed before its checks; the run reports failure
        return dict.fromkeys(("f1", "ngm", "objective", "infra_cost"), Fraction(0))
    return {
        "f1": sum((a["f1"] for a in apps), Fraction(0)) / len(apps),
        "ngm": sum((a["ngm"] for a in apps), Fraction(0)) / len(apps),
        "objective": sum((a["objective"] for a in apps), Fraction(0)),
        "infra_cost": sum((a["infra_cost"] for a in apps), Fraction(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "monopart" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {SRC / 'monopart'} or BENCHMARK.json not found; "
              "run from the root of a monopart checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args: argparse.Namespace, work: Path) -> int:
    inputs = work / "inputs"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    gen = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), args.workload, str(args.seed), str(inputs)],
        env=env, cwd=ROOT,
    )
    if gen.returncode != 0:
        print(f"error: input generation failed with exit code {gen.returncode}", file=sys.stderr)
        return 2
    shape = json.loads((inputs / "shape.json").read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup = Setup()

    sys.path.insert(0, str(SRC))
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    bench = Bench(workloads.plan(args.workload, args.seed), inputs, work)
    bench.run_pass(-1, traced=False, monoliths=[workloads.WARMUP])

    # Rounds only in untraced runs: their spans would land in a traced pass.
    round_commands = () if args.trace else workloads.ROUNDS[args.workload]
    passes: list[PassResult] = []
    rounds: list[list[tuple[str, float]]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 0
        passes.append(bench.run_pass(len(passes), traced))
        if round_commands:
            rounds.append(bench.run_round(round_commands))
        setup.maybe_sample()
        step = time.perf_counter() - t0
        untraced = [p for p in passes if not p.traced]
        traced_passes = [p for p in passes if p.traced]
        enough = len(untraced) >= (1 if args.trace else MIN_UNTRACED) and \
            len(traced_passes) >= (MIN_TRACED if args.trace else 0)
        if enough and time.perf_counter() - start + step > args.seconds:
            break
    # Spend the time no further pass fits in on rounds.
    while rounds and time.perf_counter() - start + sum(t for _, t in rounds[-1]) <= args.seconds:
        rounds.append(bench.run_round(round_commands))
        setup.maybe_sample()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = passes[0]
    for i, p in enumerate(passes[1:], 1):
        bench.record(p.quality == reference.quality and p.counts == reference.counts,
                      f"pass {i}: quality or artifact counts differ from pass 0")
    first = traced_passes[0].layers if traced_passes else {}
    for i, p in enumerate(traced_passes[1:], 1):
        bench.record(all(p.layers[k] == v for k, v in first.items() if not k.endswith("_s")),
                      f"traced pass {i}: span counts differ from the first traced pass")

    if args.trace:
        series = {name: [p.layers[name] if name in p.layers else p.counts.get(name, 0)
                         for p in traced_passes] for name in spans.LAYER_METRICS}
        series["trace_overhead_s"] = [statistics.median(p.pipeline_s for p in traced_passes)
                                      - statistics.median(p.pipeline_s for p in untraced)]
        declared = spec["per_layer"]
    else:
        series = {
            "pipeline_s": [p.pipeline_s for p in untraced],
            **{f"{c}_s": [p.command_s[c] for p in untraced]
               + [t for r in rounds for command, t in r if command == c] for c in COMMANDS},
            "setup_s": setup.times,
            "peak_rss_mib": [peak_rss_mib],
            **{k: [float(v)] for k, v in quality_totals(reference.quality).items()},
            "success_rate": [1 - len(bench.failures) / bench.attempted],
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": statistics.median(series[m["name"]]), "unit": m["unit"]}
               for m in declared}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {len(rounds)} rounds, {bench.attempted} operations, "
          f"{len(bench.failures)} failed")
    for app, shp in shape.items():
        print(f"  input {app}: " + ", ".join(f"{k} {v}" for k, v in sorted(shp.items())))
    print(f"  graphs: classes {reference.counts.get('classes')}, "
          f"class edges {reference.counts.get('class_edges')}")
    if len(reference.quality) > 1:
        for app, q in sorted(reference.quality.items()):
            print(f"  {app}: " + ", ".join(f"{k} {float(v):.6g}" for k, v in q.items()))
    for m in declared:
        name, samples = m["name"], series[m["name"]]
        detail = tail(samples) if m["unit"] == "s" else ""
        moves = spans.LAYER_METRICS.get(name, "") if args.trace else ""
        value = metrics[name]["value"]
        shown = f"{value:>14.6g}" if isinstance(value, float) else f"{value:>14}"
        print(f"{name:36s} {shown} {m['unit']:6s} {detail}"
              + (f"  [{moves}]" if moves else ""))
    if traced_passes:
        print(f"  ratio bases: refine changed {first['partitioner.refine_changed']}"
              f"/{first['partitioner.refine_calls']} calls; at best "
              f"{first['partitioner.restarts_best']}/{first['partitioner.restarts']} restarts")
        bench.recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "shape": shape,
        "graph": {k: reference.counts.get(k) for k in ("classes", "class_edges")},
        "hashes": bench.hashes, "failures": bench.failures,
        "quality": {app: {k: str(v) for k, v in q.items()} for app, q in reference.quality.items()},
        "passes": [{"traced": p.traced, "pipeline_s": p.pipeline_s, **p.command_s} for p in passes],
        "rounds": rounds,
        "setup_s": setup.times, "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    correct = not bench.failures
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
