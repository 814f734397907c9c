"""Graph generators.

``road_network`` substitutes the usroads dataset: road networks are sparse
(average degree ~2.5), connected, and near-planar. We build a random
spanning tree over points in the unit square plus extra short edges, with
strictly distinct weights (unique MST, which makes verification exact).

``rmat_graph`` substitutes ssca2's scale-free input (the R-MAT recursive
quadrant model with the canonical a/b/c/d parameters).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

Edge = Tuple[int, int, int]  # (u, v, weight)


@dataclass
class Graph:
    num_nodes: int
    edges: List[Edge] = field(default_factory=list)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def road_network(num_nodes: int, extra_edge_factor: float = 1.3,
                 seed: int = 1) -> Graph:
    """Connected sparse graph with distinct integer weights.

    A random spanning tree guarantees connectivity; ``extra_edge_factor``
    scales total edges relative to nodes (usroads has |E|/|V| ~ 1.2).
    Distances between random planar points drive the weights; a unique
    low-order tiebreak makes every weight distinct.
    """
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    rng = random.Random(f"road/{seed}")
    points = [(rng.random(), rng.random()) for _ in range(num_nodes)]

    def dist2(a: int, b: int) -> float:
        ax, ay = points[a]
        bx, by = points[b]
        return (ax - bx) ** 2 + (ay - by) ** 2

    edges: List[Edge] = []
    seen = set()

    def add_edge(u: int, v: int) -> None:
        if u == v:
            return
        key = (min(u, v), max(u, v))
        if key in seen:
            return
        seen.add(key)
        # Distinct weights: scaled distance with a unique tiebreak.
        weight = int(dist2(u, v) * 10_000_000) * 100_000 + len(edges)
        edges.append((key[0], key[1], weight))

    order = list(range(num_nodes))
    rng.shuffle(order)
    for i in range(1, num_nodes):
        add_edge(order[i], order[rng.randrange(i)])

    target = int(num_nodes * extra_edge_factor)
    attempts = 0
    while len(edges) < target and attempts < 20 * target:
        attempts += 1
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        add_edge(u, v)

    rng.shuffle(edges)
    return Graph(num_nodes=num_nodes, edges=edges)


def rmat_graph(scale: int, edge_factor: int = 8, seed: int = 1,
               a: float = 0.57, b: float = 0.19, c: float = 0.19) -> Graph:
    """R-MAT power-law graph: 2**scale nodes, edge_factor * nodes edges."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    rng = random.Random(f"rmat/{seed}")
    num_nodes = 1 << scale
    num_edges = edge_factor * num_nodes
    edges: List[Edge] = []
    for i in range(num_edges):
        u = v = 0
        for _ in range(scale):
            r = rng.random()
            u <<= 1
            v <<= 1
            if r < a:
                pass
            elif r < a + b:
                v |= 1
            elif r < a + b + c:
                u |= 1
            else:
                u |= 1
                v |= 1
        if u != v:
            edges.append((u, v, rng.randrange(1, 1 << 30)))
    return Graph(num_nodes=num_nodes, edges=edges)
