"""monopart: decompose a monolith's class graph into microservice
candidates with an infrastructure-cost-aware partitioning objective."""

from .graphbuild import build_graph
from .infra import build_infra_report
from .ingest import parse_dependency_xml, parse_infra_yaml
from .metrics import evaluate
from .model import PriceTable
from .partitioner import ObjectiveConfig, partition_graph

__version__ = "0.1.0"

__all__ = [
    "ObjectiveConfig",
    "PriceTable",
    "build_graph",
    "build_infra_report",
    "evaluate",
    "parse_dependency_xml",
    "parse_infra_yaml",
    "partition_graph",
]
