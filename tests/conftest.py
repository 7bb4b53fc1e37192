"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from monopart.model import ApplicationGraph, ClassEdges, ClassNode, Dependencies, Relation

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES_DIR


def calls(*pairs: tuple[int, int]) -> Dependencies:
    """One directed ``call`` dependency per ``(from, to)`` pair of class ids."""
    return Dependencies(
        tuple(u for u, _v in pairs), tuple(v for _u, v in pairs), (Relation.CALL,) * len(pairs)
    )


def graph_from_edges(
    n: int,
    edges: dict[tuple[int, int], Fraction | int],
    dependencies: Dependencies = Dependencies(),
) -> ApplicationGraph:
    """Bare class graph N0..N(n-1) with the given edge weights and
    directed dependencies."""
    classes = tuple(ClassNode(i, f"N{i}") for i in range(n))
    class_edges = ClassEdges.from_rows((u, v, Fraction(w)) for (u, v), w in sorted(edges.items()))
    return ApplicationGraph(classes=classes, class_edges=class_edges, dependencies=dependencies)


def edge_weights(g: ApplicationGraph) -> dict[tuple[int, int], Fraction]:
    """``{(u, v): weight}`` of a graph's class edges, each weight a Fraction."""
    edges = g.class_edges
    return {(edges.u[i], edges.v[i]): edges.fraction(i) for i in range(len(edges))}


def clique_pair_xml(size: int, bridges: list[tuple[int, int]] | None = None) -> str:
    """Dependency XML for two size-cliques over classes C0..C(2*size-1);
    ``bridges`` are extra (u, v) index pairs."""
    names = [f"C{i}" for i in range(2 * size)]
    deps = []
    for a, b in itertools.combinations(range(size), 2):
        deps.append((names[a], names[b]))
        deps.append((names[size + a], names[size + b]))
    for u, v in bridges or [(0, size)]:
        deps.append((names[u], names[v]))
    return (
        "<dependencies>"
        + "".join(
            f'<class name="{u}"><dependsOn name="{v}"/></class>' for u, v in deps
        )
        + "</dependencies>"
    )


def random_edge_set(
    rng: random.Random, n: int, connected: bool = True, max_weight: int = 5
) -> dict[tuple[int, int], Fraction]:
    """Random weighted edge set; spanning tree first when ``connected``."""
    edges: dict[tuple[int, int], Fraction] = {}
    if connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            u, v = order[rng.randrange(i)], order[i]
            pair = (min(u, v), max(u, v))
            edges[pair] = Fraction(rng.randint(1, max_weight))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        pair = (min(u, v), max(u, v))
        if pair not in edges:
            edges[pair] = Fraction(rng.randint(1, max_weight))
    return edges
