"""Command-line pipeline: ingest -> partition -> evaluate, plus fixture
generation and DOT export.

Artifact layout inside the output directory is fixed: graph.json,
partition.json, infra_report.json, evaluation.json, graph.dot. Existing
artifacts are only overwritten with --force. Exit codes: 0 success, 2
input/usage error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
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


def _read_json(path: Path) -> object:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise model.InputError(f"{path}: not a readable JSON document: {exc}") from exc


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get("MONOPART_OUT")
    return Path(env) if env else Path("out")


def _write_artifact(out_dir: Path, name: str, text: str, force: bool) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    if target.exists() and not force:
        raise model.InputError(f"refusing to overwrite {target} (use --force)")
    target.write_text(text, encoding="utf-8")
    return target


def _write_json(out_dir: Path, name: str, doc: dict, force: bool) -> Path:
    return _write_artifact(out_dir, name, json.dumps(doc, indent=2) + "\n", force)


def _load_graph(out_dir: Path) -> tuple[model.ApplicationGraph, list[ingest.DependencyRecord]]:
    path = out_dir / GRAPH_FILE
    if not path.is_file():
        raise model.InputError(f"graph artifact not found: {path} (run ingest first)")
    doc = _read_json(path)
    with _naming(path):
        g = model.graph_from_doc(doc)
        problems = model.validate_graph(g)
        if problems:
            raise model.InputError("; ".join(problems))
        deps = ingest.dependencies_from_doc(doc.get("dependencies", []))
        names = g.id_by_name()
        for rec in deps:
            for name in (rec.from_class, rec.to_class):
                if name not in names:
                    raise model.InputError(f"dependency names unknown class {name!r}")
        return g, deps


def _load_partition(out_dir: Path, g: model.ApplicationGraph, path: str | None = None) -> model.PartitionSet:
    p_path = Path(path) if path else out_dir / PARTITION_FILE
    if not p_path.is_file():
        raise model.InputError(f"partition artifact not found: {p_path} (run partition first)")
    doc = _read_json(p_path)
    with _naming(p_path):
        return model.partition_from_doc(doc, g)


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

    cfg = _config(graphbuild.WeightConfig, args)
    with _naming(args.deps):  # a build fails only on a graph without dependencies
        g = graphbuild.build_graph(deps, manifest, flows, cfg)
    problems = model.validate_graph(g)
    if problems:  # every reader rejects the inputs that could cause this
        raise RuntimeError("built graph is invalid: " + "; ".join(problems))

    doc = model.graph_to_doc(g)
    doc["dependencies"] = ingest.dependencies_to_doc(deps)
    out_dir = _out_dir(args)
    path = _write_json(out_dir, GRAPH_FILE, doc, args.force)
    print(f"classes: {len(g.classes)}")
    print(f"class edges: {len(g.class_edges)}")
    print(f"resources: {len(g.resources)}")
    print(f"flows: {len(g.flows)}")
    print(f"wrote {path}")
    return 0


def _parse_sweep(raw: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", raw)
    if not m:
        raise model.InputError(f"--sweep-k expects LO..HI, got {raw!r}")
    return int(m.group(1)), int(m.group(2))


def cmd_partition(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    g, _deps = _load_graph(out_dir)
    prices = _load_prices(args.prices)

    if args.sweep_k:
        lo, hi = _parse_sweep(args.sweep_k)
        k0 = max(lo, 1)
    elif args.k is None:
        raise model.InputError("one of --k or --sweep-k is required")
    else:
        k0 = args.k
    cfg = _config(partitioner.ObjectiveConfig, args, k=k0)
    if args.sweep_k:
        k, p = partitioner.sweep_k(g, prices, cfg, lo, hi)
        cfg = replace(cfg, k=k)
        print(f"sweep selected k={k}")
    else:
        p = partitioner.partition_graph(g, prices, cfg)

    obj = partitioner.objective(g, p, prices, cfg)
    report = infra.build_infra_report(
        g, p, prices, compute_floor=not args.no_compute_floor, shared_database=args.shared_db
    )
    cut = metrics.edge_cut(g, p)
    ngm = metrics.compute_ngm(g, p)
    p_doc = model.partition_to_doc(p, g, objective=obj, seed=cfg.seed)
    _write_json(out_dir, PARTITION_FILE, p_doc, args.force)
    _write_json(out_dir, INFRA_REPORT_FILE, infra.infra_report_to_doc(report), args.force)

    print(f"k: {p.k}")
    print(f"objective: {model.fraction_str(obj)}")
    print(f"edge_cut: {model.fraction_str(cut)}")
    print(f"NGM: {float(ngm):.4f}")
    sizes = p.sizes()
    for idx, factor, names in report.per_partition:
        roster = f" resources: {', '.join(names)}" if names else ""
        print(f"partition {idx}: {sizes[idx]} classes, factor {_factor_str(factor)}{roster}")
    print(
        f"total factor: {_factor_str(report.total)}, "
        f"cost {model.fraction_str(report.total_cost)} "
        f"(baseline {model.fraction_str(report.baseline_cost)})"
    )
    return 0


def _factor_str(f: model.InfrastructureFactor) -> str:
    return "(" + ", ".join(f"{key}={n}" for key, n in model.factor_to_doc(f).items()) + ")"


def cmd_evaluate(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    g, deps = _load_graph(out_dir)
    p = _load_partition(out_dir, g)
    prices = _load_prices(args.prices)
    truth = None
    if args.truth:
        truth = _parse_input(args.truth, metrics.load_ground_truth)
        if truth.assignment.keys().isdisjoint(g.id_by_name()):
            raise model.InputError(f"{args.truth}: names no class of {GRAPH_FILE}")
    report = metrics.evaluate(
        g, p, deps, truth, prices, compute_floor=not args.no_compute_floor
    )
    _write_json(out_dir, EVALUATION_FILE, model.report_to_doc(report), args.force)
    name = args.name if args.name else out_dir.name
    print(metrics.format_table(name, report))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    fixture = fixturegen.generate_fixture(_config(fixturegen.FixtureSpec, args))
    out_dir = _out_dir(args)
    for name, text in (
        ("deps.xml", fixture.deps_xml),
        ("manifest.yaml", fixture.manifest_yaml),
        ("truth.yaml", fixture.truth_yaml),
    ):
        path = _write_artifact(out_dir, name, text, args.force)
        print(f"wrote {path}")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    g, _deps = _load_graph(out_dir)
    assignment = None
    if args.partition:
        p = _load_partition(out_dir, g, args.partition)
        assignment = p.assignment
    text = graphbuild.to_dot(g, assignment)
    path = _write_artifact(out_dir, DOT_FILE, text, args.force)
    print(f"wrote {path}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="output directory (default: $MONOPART_OUT or ./out)")
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
    weights = graphbuild.WeightConfig
    p_ingest.add_argument("--base-call", type=_fraction_arg, default=weights.base_call)
    p_ingest.add_argument("--base-reference", type=_fraction_arg, default=weights.base_reference)
    p_ingest.add_argument("--base-inheritance", type=_fraction_arg, default=weights.base_inheritance)
    p_ingest.add_argument("--beta-flow", type=_fraction_arg, default=weights.beta_flow)
    p_ingest.add_argument(
        "--shared-resource-increment", type=_fraction_arg, default=weights.shared_resource_increment
    )
    _add_common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_part = sub.add_parser("partition", help="partition graph.json")
    p_part.add_argument("--k", type=int, default=None, help="number of partitions")
    objective = partitioner.ObjectiveConfig
    p_part.add_argument("--alpha", type=_fraction_arg, default=objective.alpha)
    p_part.add_argument("--epsilon", type=_fraction_arg, default=objective.epsilon)
    p_part.add_argument("--seed", type=int, default=objective.seed)
    p_part.add_argument("--restarts", type=int, default=objective.restarts)
    p_part.add_argument("--prices", help="price table YAML")
    p_part.add_argument("--sweep-k", help="try k in LO..HI, keep max modularity")
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
    p_gen.add_argument("--classes", type=int, required=True)
    p_gen.add_argument("--clusters", type=int, required=True)
    p_gen.add_argument("--p-in", type=float, required=True)
    p_gen.add_argument("--p-out", type=float, required=True)
    p_gen.add_argument(
        "--resources-per-cluster", type=int, default=fixturegen.FixtureSpec.resources_per_cluster
    )
    p_gen.add_argument("--seed", type=int, required=True)
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_dot = sub.add_parser("dot", help="export graph.dot")
    p_dot.add_argument("--partition", help="partition JSON to color nodes by")
    _add_common(p_dot)
    p_dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except model.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        log.exception("internal error")
        return 1


if __name__ == "__main__":
    sys.exit(main())
