"""Command-line pipeline: ingest -> partition -> evaluate, plus fixture
generation and DOT export.

Artifact layout inside the output directory is fixed: graph.json,
partition.json, infra_report.json, evaluation.json, graph.dot. Existing
artifacts are only overwritten with --force. Exit codes: 0 success, 2
input/usage error, 1 internal error.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from . import fixturegen, graphbuild, infra, ingest, metrics, model, partitioner

log = logging.getLogger(__name__)
T = TypeVar("T")

GRAPH_FILE = "graph.json"
PARTITION_FILE = "partition.json"
INFRA_REPORT_FILE = "infra_report.json"
EVALUATION_FILE = "evaluation.json"
DOT_FILE = "graph.dot"


def _fraction_arg(raw: str) -> Fraction:
    try:
        return model.as_fraction(raw)
    except model.InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# Integer flags hold at most 20 digits, enough for the 64-bit seed range, so
# no message can echo thousands of them; their own messages never echo one.
MAX_FLAG_DIGITS = 20


def _int_arg(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:  # not an integer, or more digits than int() reads
        raise argparse.ArgumentTypeError("expects an integer") from None
    if abs(value) >= 10**MAX_FLAG_DIGITS:
        raise argparse.ArgumentTypeError(f"expects an integer of at most {MAX_FLAG_DIGITS} digits")
    return value


def _sweep_arg(raw: str) -> tuple[int, int]:
    """``LO..HI`` as two integers."""
    m = re.fullmatch(rf"(\d{{1,{MAX_FLAG_DIGITS}}})\.\.(\d{{1,{MAX_FLAG_DIGITS}}})", raw)
    if m is None:
        raise argparse.ArgumentTypeError("expects LO..HI, two integers")
    return int(m[1]), int(m[2])


def _config(cls: type[T], args: argparse.Namespace, **overrides: object) -> T:
    """The config dataclass ``cls`` built from the flags whose dest is one of
    its field names, with ``overrides`` taking precedence."""
    values = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**{**values, **overrides})


@contextmanager
def _naming(path: Path | str) -> Iterator[None]:
    """Prefix any InputError raised inside with the file it concerns."""
    try:
        yield
    except model.InputError as exc:
        raise model.InputError(f"{path}: {exc}") from exc


def _parse_input(path: str, parse: Callable[..., T], *args: object) -> T:
    """Read the input file at ``path`` and parse its bytes."""
    p = Path(path)
    if not p.is_file():
        raise model.InputError(f"input file not found: {path}")
    with _naming(path):
        return parse(p.read_bytes(), *args)


def _write_artifacts(out_dir: Path, texts: dict[str, str], force: bool) -> list[Path]:
    """Write each ``name: text`` into ``out_dir``. Without ``force`` an
    existing target is refused before any of them is written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    targets = {out_dir / name: text for name, text in texts.items()}
    for target in targets:
        if target.exists() and not force:
            raise model.InputError(f"refusing to overwrite {target} (use --force)")
    for target, text in targets.items():
        target.write_text(text, encoding="utf-8")
    return list(targets)


def _json(doc: dict) -> str:
    return model.json_text(doc) + "\n"


def _load_artifact(path: Path, what: str, step: str, parse: Callable[..., T], *args: object) -> T:
    """``parse(doc, *args)`` of the JSON artifact at ``path``, which ``step`` writes."""
    if not path.is_file():
        raise model.InputError(f"{what} artifact not found: {path} (run {step} first)")
    with _naming(path):
        return parse(ingest.load_json(ingest._as_text(path.read_bytes())), *args)


def _load_graph(out_dir: Path) -> model.ApplicationGraph:
    return _load_artifact(out_dir / GRAPH_FILE, "graph", "ingest", model.graph_from_doc)


def _load_partition(path: Path, g: model.ApplicationGraph) -> model.PartitionSet:
    return _load_artifact(path, "partition", "partition", model.partition_from_doc, g)


def _load_prices(path: str | None) -> model.PriceTable:
    if path is None:
        return model.PriceTable.default()
    return _parse_input(path, infra.load_price_table)


def cmd_ingest(args: argparse.Namespace) -> int:
    deps = _parse_input(args.deps, ingest.parse_dependency_xml)
    manifest = ingest.InfraManifest()
    if args.manifest:
        manifest = _parse_input(args.manifest, ingest.parse_infra_yaml)
    flows: list[ingest.FlowRecord] = []
    if args.traces:
        if not args.flow_rules:
            raise model.InputError("--traces requires --flow-rules")
        rules = _parse_input(args.flow_rules, ingest.load_flow_rules)
        parsed = _parse_input(args.traces, ingest.parse_traces, rules)
        if parsed.skipped:
            print(f"skipped trace lines: {parsed.skipped}", file=sys.stderr)
        flows = ingest.group_flows(parsed.records)
        del parsed  # one pointer per trace line: not held through the graph build and write

    cfg = _config(graphbuild.WeightConfig, args)
    with _naming(args.deps):  # a build fails only on a graph without dependencies
        g = graphbuild.build_graph(deps, manifest, flows, cfg)

    [path] = _write_artifacts(args.out, {GRAPH_FILE: _json(model.graph_to_doc(g))}, args.force)
    print(f"classes: {len(g.classes)}")
    print(f"class edges: {len(g.class_edges)}")
    print(f"resources: {len(g.resources)}")
    print(f"flows: {len(g.flows)}")
    print(f"wrote {path}")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    g = _load_graph(args.out)
    prices = _load_prices(args.prices)
    if args.sweep_k:
        lo, hi = args.sweep_k
        cfg = _config(partitioner.ObjectiveConfig, args, k=max(lo, 1))
        k, p = partitioner.sweep_k(g, prices, cfg, lo, hi)
        cfg = replace(cfg, k=k)
        print(f"sweep selected k={k}")
    else:
        cfg = _config(partitioner.ObjectiveConfig, args)
        p = partitioner.partition_graph(g, prices, cfg)

    obj = partitioner.objective(g, p, prices, cfg)
    report = infra.build_infra_report(
        g, p, prices, compute_floor=not args.no_compute_floor, shared_database=args.shared_db
    )
    tally = metrics._tally(g, p)
    cut, ngm = model.fraction_str(tally.cut()), tally.modularity()
    # Every number is turned into text before either artifact is written.
    p_doc = model.partition_to_doc(p, g, objective=obj, seed=cfg.seed)
    r_doc = infra.infra_report_to_doc(report)
    texts = {PARTITION_FILE: _json(p_doc), INFRA_REPORT_FILE: _json(r_doc)}
    _write_artifacts(args.out, texts, args.force)

    print(f"k: {p.k}")
    print(f"objective: {p_doc['objective']}")
    print(f"edge_cut: {cut}")
    print(f"NGM: {float(ngm):.4f}")
    sizes = p.sizes()
    for idx, factor, names in report.per_partition:
        roster = f" resources: {', '.join(names)}" if names else ""
        print(f"partition {idx}: {sizes[idx]} classes, factor {_factor_str(factor)}{roster}")
    print(
        f"total factor: {_factor_str(report.total)}, "
        f"cost {r_doc['total_cost']} (baseline {r_doc['baseline_cost']})"
    )
    return 0


def _factor_str(f: model.InfrastructureFactor) -> str:
    return "(" + ", ".join(f"{key}={n}" for key, n in model.factor_to_doc(f).items()) + ")"


def cmd_evaluate(args: argparse.Namespace) -> int:
    g = _load_graph(args.out)
    p = _load_partition(args.out / PARTITION_FILE, g)
    prices = _load_prices(args.prices)
    truth = None
    if args.truth:
        truth = _parse_input(args.truth, metrics.load_ground_truth)
        if truth.assignment.keys().isdisjoint(g.id_by_name()):
            raise model.InputError(f"{args.truth}: names no class of {GRAPH_FILE}")
    report = metrics.evaluate(g, p, truth, prices, compute_floor=not args.no_compute_floor)
    table = metrics.format_table(args.name or os.path.basename(os.path.abspath(args.out)), report)
    _write_artifacts(args.out, {EVALUATION_FILE: _json(model.report_to_doc(report))}, args.force)
    print(table)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    fixture = fixturegen.generate_fixture(_config(fixturegen.FixtureSpec, args))
    texts = {
        "deps.xml": fixture.deps_xml,
        "manifest.yaml": fixture.manifest_yaml,
        "truth.yaml": fixture.truth_yaml,
    }
    for path in _write_artifacts(args.out, texts, args.force):
        print(f"wrote {path}")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    g = _load_graph(args.out)
    assignment = None
    if args.partition:
        p = _load_partition(Path(args.partition), g)
        assignment = p.assignment
    text = graphbuild.to_dot(g, assignment)
    [path] = _write_artifacts(args.out, {DOT_FILE: text}, args.force)
    print(f"wrote {path}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    out = os.environ.get("MONOPART_OUT") or "out"
    sub.add_argument("--out", type=Path, default=out, help="output directory (default: $MONOPART_OUT or ./out)")
    sub.add_argument("--force", action="store_true", help="overwrite existing artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monopart",
        description="Decompose a monolith's class graph into microservice candidates",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse inputs and build graph.json")
    p_ingest.add_argument("--deps", required=True, help="class dependency export (XML or JSON)")
    p_ingest.add_argument("--manifest", help="infrastructure manifest YAML")
    p_ingest.add_argument("--traces", help="execution trace log")
    p_ingest.add_argument("--flow-rules", help="flow rule YAML for --traces")
    for weight in fields(graphbuild.WeightConfig):
        flag = "--" + weight.name.replace("_", "-")
        p_ingest.add_argument(flag, type=_fraction_arg, default=weight.default)
    _add_common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_part = sub.add_parser("partition", help="partition graph.json")
    k_or_sweep = p_part.add_mutually_exclusive_group(required=True)
    k_or_sweep.add_argument("--k", type=_int_arg, help="number of partitions")
    objective = partitioner.ObjectiveConfig
    p_part.add_argument("--alpha", type=_fraction_arg, default=objective.alpha)
    p_part.add_argument("--epsilon", type=_fraction_arg, default=objective.epsilon)
    p_part.add_argument("--seed", type=_int_arg, default=objective.seed)
    p_part.add_argument("--restarts", type=_int_arg, default=objective.restarts)
    p_part.add_argument("--prices", help="price table YAML")
    k_or_sweep.add_argument("--sweep-k", type=_sweep_arg, help="try k in LO..HI, keep max modularity")
    p_part.add_argument("--no-compute-floor", action="store_true")
    p_part.add_argument("--shared-db", action="store_true", help="report databases as shared, not duplicated")
    _add_common(p_part)
    p_part.set_defaults(func=cmd_partition)

    p_eval = sub.add_parser("evaluate", help="score partition.json")
    p_eval.add_argument("--truth", help="ground truth YAML/JSON")
    p_eval.add_argument("--prices", help="price table YAML")
    p_eval.add_argument("--name", help="dataset label in the table (default: out dir name)")
    p_eval.add_argument("--no-compute-floor", action="store_true")
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_gen = sub.add_parser("generate", help="generate a planted fixture")
    p_gen.add_argument("--classes", type=_int_arg, required=True)
    p_gen.add_argument("--clusters", type=_int_arg, required=True)
    p_gen.add_argument("--p-in", type=float, required=True)
    p_gen.add_argument("--p-out", type=float, required=True)
    p_gen.add_argument(
        "--resources-per-cluster", type=_int_arg, default=fixturegen.FixtureSpec.resources_per_cluster
    )
    p_gen.add_argument("--seed", type=_int_arg, required=True)
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_dot = sub.add_parser("dot", help="export graph.dot")
    p_dot.add_argument("--partition", help="partition JSON to color nodes by")
    _add_common(p_dot)
    p_dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits after --help (0) and on a usage error (2)
        return exc.code
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (model.InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        log.exception("internal error")
        return 1


if __name__ == "__main__":
    sys.exit(main())
