"""Undirected simple graphs: random instances, coloring oracles, and I/O.

Vertices are 0-based everywhere in memory; DIMACS I/O converts to the
1-based convention of the .col format.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass

from .errors import InvalidInstanceError, ParseError, ResourceLimitError

CHROMATIC_MAX_VERTICES = 12


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1 with normalized edges (u < v)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInstanceError(f"graph needs at least one vertex, got n={self.n}")
        seen = set()
        norm = []
        for e in self.edges:
            u, v = e
            if u == v:
                raise InvalidInstanceError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidInstanceError(f"edge {e} references a vertex outside 0..{self.n - 1}")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                raise InvalidInstanceError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            norm.append((a, b))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def max_degree(self) -> int:
        return max(self.degrees())

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def digest(self) -> str:
        import hashlib

        return hashlib.sha256(serialize_graph(self, "json").encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Coloring:
    """One label per vertex, labels drawn from 0..num_labels-1."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if any(l < 0 for l in self.labels):
            raise InvalidInstanceError("labels must be non-negative")

    def distinct_count(self) -> int:
        return len(set(self.labels))

    def is_proper(self, g: Graph) -> bool:
        return all(self.labels[u] != self.labels[v] for u, v in g.edges)


def generate_random_connected(n: int, density: float, seed: int) -> Graph:
    """Seeded random connected graph with max(n-1, round(density * C(n,2))) edges.

    A uniform random labeled spanning tree (Pruefer decode of a uniform
    sequence) guarantees connectivity; the remaining edges are a random
    subset of the non-tree pairs. The target count rounds half-up.
    """
    if n < 2:
        raise InvalidInstanceError(f"need at least 2 vertices, got {n}")
    if not (0 < density <= 1):
        raise InvalidInstanceError(f"density must be in (0, 1], got {density}")
    max_edges = n * (n - 1) // 2
    target = max(n - 1, math.floor(density * max_edges + 0.5))
    rng = random.Random(seed)

    tree = _random_spanning_tree(n, rng)
    tree_set = set(tree)
    extra_pool = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree_set
    ]
    rng.shuffle(extra_pool)
    edges = list(tree) + extra_pool[: target - len(tree)]
    return Graph(n, tuple(edges))


def _random_spanning_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Decode a uniformly random Pruefer sequence into a labeled tree."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def brooks_upper_bound(g: Graph) -> int:
    """Chromatic-number upper bound: max degree, plus one on complete graphs and odd cycles."""
    if not g.is_connected():
        raise InvalidInstanceError("Brooks' bound requires a connected graph")
    delta = g.max_degree() if g.n > 1 else 0
    if g.is_complete() or _is_odd_cycle(g):
        return delta + 1
    return max(delta, 1)


def _is_odd_cycle(g: Graph) -> bool:
    return g.n >= 3 and g.n % 2 == 1 and all(d == 2 for d in g.degrees())


def chromatic_number_exact(g: Graph) -> int:
    """Exact chromatic number by backtracking; guarded to small graphs."""
    if g.n > CHROMATIC_MAX_VERTICES:
        raise ResourceLimitError(
            f"exact chromatic number is limited to n <= {CHROMATIC_MAX_VERTICES}, got n={g.n}"
        )
    if g.m == 0:
        return 1
    adj = g.adjacency()
    # Most-constrained-first ordering shrinks the search tree.
    order = sorted(range(g.n), key=lambda v: -len(adj[v]))
    for k in range(2, g.n + 1):
        if _is_k_colorable(adj, order, k):
            return k
    return g.n


def _is_k_colorable(adj: list[set[int]], order: list[int], k: int) -> bool:
    colors: dict[int, int] = {}

    def backtrack(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        forbidden = {colors[u] for u in adj[v] if u in colors}
        # Symmetry breaking: a fresh color may only be the next unused one.
        for c in range(min(k, used + 1)):
            if c in forbidden:
                continue
            colors[v] = c
            if backtrack(i + 1, max(used, c + 1)):
                return True
            del colors[v]
        return False

    return backtrack(0, 0)


def greedy_coloring(g: Graph, order: list[int] | None = None) -> Coloring:
    """First-fit coloring along `order` (defaults to 0..n-1)."""
    if order is None:
        order = list(range(g.n))
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    adj = g.adjacency()
    labels = [-1] * g.n
    for v in order:
        taken = {labels[u] for u in adj[v] if labels[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        labels[v] = c
    return Coloring(tuple(labels))


def serialize_graph(g: Graph, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}, separators=(",", ":"))
    if fmt == "dimacs":
        lines = [f"p edge {g.n} {g.m}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown graph format {fmt!r} (expected 'json' or 'dimacs')")


def parse_graph(text: str, fmt: str) -> Graph:
    if fmt == "json":
        return _parse_json(text)
    if fmt == "dimacs":
        return _parse_dimacs(text)
    raise ValueError(f"unknown graph format {fmt!r} (expected 'json' or 'dimacs')")


def _parse_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError("graph JSON must be an object with 'n' and 'edges'")
    # JSON ints only: a bool, float or string is rejected, never coerced.
    n, edges = obj["n"], obj["edges"]
    if type(n) is not int or not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e) for e in edges
    ):
        raise ParseError("graph JSON needs an integer 'n' and 'edges' as a list of integer pairs")
    try:
        return Graph(n, tuple((u, v) for u, v in edges))
    except InvalidInstanceError as exc:
        raise ParseError(str(exc)) from exc


def _parse_dimacs(text: str) -> Graph:
    n = None
    declared_m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise ParseError(f"malformed problem line {line!r}", line=lineno)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"non-integer counts in {line!r}", line=lineno) from None
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", line=lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {line!r}", line=lineno)
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise ParseError(f"non-integer endpoints in {line!r}", line=lineno) from None
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex out of range in {line!r}", line=lineno)
            edges.append((u, v))
        else:
            raise ParseError(f"unrecognized line {line!r}", line=lineno)
    if n is None:
        raise ParseError("missing problem line")
    if declared_m != len(edges):
        raise ParseError(f"problem line declares {declared_m} edges, found {len(edges)}")
    try:
        return Graph(n, tuple(edges))
    except InvalidInstanceError as exc:
        raise ParseError(str(exc)) from exc
