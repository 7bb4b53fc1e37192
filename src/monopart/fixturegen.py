"""Planted-partition fixture generator.

Emits a dependency export, an infrastructure manifest, and a ground-truth
file with a known cluster structure, standing in for real monolith
codebases at desk scale. Output is byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .ingest import InfraManifest, manifest_to_yaml
from .model import InputError, ResourceKind

# kind rotation for generated resources; compute stays out so the
# compute floor is the only compute signal on generated fixtures
_KIND_CYCLE = (ResourceKind.DATABASE, ResourceKind.CACHE, ResourceKind.FILE_STORAGE)
_KIND_SHORT = {
    ResourceKind.DATABASE: "db",
    ResourceKind.CACHE: "ca",
    ResourceKind.FILE_STORAGE: "s3",
}


# Generation draws once per unordered class pair, so its time grows with
# n(n-1)/2. At most ten million draws are made, which is 4,472 classes: on
# one core of a shared 2-vCPU VM that size took 1.3 s with the traced-infra
# bench's densities and 7.7 s with every pair a dependency.
MAX_PAIR_DRAWS = 10_000_000
MAX_CLASSES = (1 + math.isqrt(1 + 8 * MAX_PAIR_DRAWS)) // 2


@dataclass(frozen=True)
class FixtureSpec:
    """Shape of a generated fixture: at most :data:`MAX_CLASSES` classes."""

    classes: int
    clusters: int
    p_in: float
    p_out: float
    resources_per_cluster: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.classes < 1:
            raise InputError(f"classes must be >= 1, got {self.classes}")
        if self.classes > MAX_CLASSES:
            raise InputError(
                f"classes must be at most {MAX_CLASSES} ({MAX_PAIR_DRAWS} class pairs), "
                f"got {self.classes}"
            )
        if not 1 <= self.clusters <= self.classes:
            raise InputError(
                f"clusters must be in 1..classes, got {self.clusters} for {self.classes}"
            )
        if not 0 <= self.p_out < self.p_in <= 1:
            raise InputError(
                f"need 0 <= p_out < p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}"
            )
        if self.resources_per_cluster < 0:
            raise InputError(
                f"resources_per_cluster must be >= 0, got {self.resources_per_cluster}"
            )
        if not 0 <= self.seed < 2**64:
            raise InputError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class Fixture:
    """Generated artifact bytes plus the planted cluster of every class."""

    deps_xml: str
    manifest_yaml: str
    truth_yaml: str
    cluster_of: tuple[int, ...]


def _class_names(spec: FixtureSpec) -> tuple[list[str], list[int]]:
    base = spec.classes // spec.clusters
    extra = spec.classes % spec.clusters
    names: list[str] = []
    cluster_of: list[int] = []
    for ci in range(spec.clusters):
        size = base + (1 if ci < extra else 0)
        for _ in range(size):
            names.append(f"app.m{ci}.C{len(names):03d}")
            cluster_of.append(ci)
    return names, cluster_of


def generate_fixture(spec: FixtureSpec) -> Fixture:
    """Generate the planted fixture for ``spec``.

    Classes split evenly across clusters (earlier clusters take the
    remainder). Every unordered class pair gets a dependency with
    probability p_in (same cluster) or p_out (different), direction
    uniform. Classes left isolated get one deterministic same-cluster
    dependency so the dependency export covers every class. Each cluster
    receives dedicated resources bound to roughly half its classes.
    """
    rng = random.Random(spec.seed)
    names, cluster_of = _class_names(spec)
    n = spec.classes

    out_deps: dict[int, set[int]] = {i: set() for i in range(n)}
    degree = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            p = spec.p_in if cluster_of[i] == cluster_of[j] else spec.p_out
            if rng.random() < p:
                if rng.random() < 0.5:
                    out_deps[i].add(j)
                else:
                    out_deps[j].add(i)
                degree[i] += 1
                degree[j] += 1

    members: dict[int, list[int]] = {ci: [] for ci in range(spec.clusters)}
    for i, ci in enumerate(cluster_of):
        members[ci].append(i)
    for i in range(n):
        if degree[i] == 0:
            own = members[cluster_of[i]]
            if len(own) > 1:
                target = own[(own.index(i) + 1) % len(own)]
            else:
                target = (i + 1) % n
            out_deps[i].add(target)
            degree[i] += 1
            degree[target] += 1

    xml_lines = ["<dependencies>"]
    for i in range(n):
        targets = sorted(out_deps[i], key=lambda j: names[j])
        if not targets:
            xml_lines.append(f'  <class name="{names[i]}"/>')
            continue
        xml_lines.append(f'  <class name="{names[i]}">')
        for j in targets:
            xml_lines.append(f'    <dependsOn name="{names[j]}" relation="call"/>')
        xml_lines.append("  </class>")
    xml_lines.append("</dependencies>")
    deps_xml = "\n".join(xml_lines) + "\n"

    resource_rows: list[tuple[str, ResourceKind]] = []
    binding_rows: list[tuple[str, str]] = []
    for ci in range(spec.clusters):
        for r in range(spec.resources_per_cluster):
            kind = _KIND_CYCLE[(ci * spec.resources_per_cluster + r) % len(_KIND_CYCLE)]
            res_name = f"m{ci}-{_KIND_SHORT[kind]}{r}"
            resource_rows.append((res_name, kind))
            chosen = [i for i in members[ci] if rng.random() < 0.5]
            if not chosen:
                chosen = [members[ci][0]]
            for i in chosen:
                binding_rows.append((names[i], res_name))

    manifest = InfraManifest(resources=tuple(resource_rows), bindings=tuple(binding_rows))
    truth_yaml = "".join(f"{names[i]}: m{cluster_of[i]}\n" for i in range(n))

    return Fixture(
        deps_xml=deps_xml,
        manifest_yaml=manifest_to_yaml(manifest),
        truth_yaml=truth_yaml,
        cluster_of=tuple(cluster_of),
    )
