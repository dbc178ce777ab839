"""Logarithmic HUBO encodings: minimum graph coloring and general partitioning.

Each vertex carries L bits read as a binary label. Equality of adjacent
labels is detected by a product of per-bit XNOR polynomials; a geometric
ladder of per-bit penalties makes the total energy order assignments
lexicographically by their index populations, so the ground state favors
small labels without any dedicated counting register.

A LogLayout is the one description of a log model, and log_layout the one
way to build it from a model's metadata, weighted by log_penalties, the
rule model JSON also writes and checks the penalty record by. log_hubo_terms
writes its term map from the parts of _log_hubo_parts, and the encoder
adopts it; checked_log_layout compares a model's map with the same parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, starmap
from operator import add
from typing import Any, Iterable, Iterator, Mapping

from .errors import DimensionError, InvalidInstanceError
from .graphs import Coloring, Graph, instance_meta
from .pbo import Bits, EncodedProblem, Polynomial, Term, check_build_terms


@dataclass(frozen=True)
class LexPenalties:
    """Per-bit weights P_1..P_L (least significant first) and the partition penalty."""

    p: tuple[int, ...]
    a_adjacency: int


@dataclass(frozen=True)
class PartitionSpec:
    """Per-edge int costs: alpha when labels agree, beta when they differ.

    gap is the feasibility gap of the hard constraints, an int >= 1, or
    None when every assignment is feasible. A log_general model's metadata
    records the same costs as "u-v"-keyed alpha/beta maps, and a None gap
    as "unconstrained".
    """

    alpha: Mapping[tuple[int, int], int]
    beta: Mapping[tuple[int, int], int]
    gap: int | None = None


def bits_for_colors(c: int) -> int:
    """Bits needed to address c labels; at least one even for c=1."""
    if c < 1:
        raise ValueError(f"color count must be >= 1, got {c}")
    return max(1, (c - 1).bit_length())


def lex_penalties(n: int, l: int, gap: int | None = 1) -> LexPenalties:
    """The explicit sufficient ladder P_k = (n+1)^(k-1) with partition penalty
    A = floor(n*sum(P)/gap) + 1, the smallest integer strictly above
    n*sum(P)/gap, for a finite feasibility gap, and A = 1 when the problem
    has no hard constraints (gap None). Minimum coloring has gap 1."""
    if not (type(n) is type(l) is int and n >= 1 and l >= 1):
        raise ValueError(f"need integers n >= 1 and l >= 1, got n={n!r}, l={l!r}")
    if gap is not None and not (type(gap) is int and gap >= 1):
        raise ValueError(f"feasibility gap must be a positive integer or None, got {gap!r}")
    p = tuple((n + 1) ** k for k in range(l))
    return LexPenalties(p=p, a_adjacency=1 if gap is None else n * sum(p) // gap + 1)


def bit_var(v: int, k: int, l: int) -> int:
    """Variable id of bit k (0-based, least significant first) of vertex v."""
    return v * l + k


def vertex_labels(bits: Bits, n: int, l: int) -> list[int]:
    """Each vertex's label: its L bits read as a binary number, least significant first."""
    return [sum(bits[bit_var(v, k, l)] << k for k in range(l)) for v in range(n)]


@dataclass(frozen=True)
class LogLayout:
    """A log model: n vertices of L = len(ladder) bits, the ladder, the
    constant, and one agreement-product weight per edge. log_layout builds
    it from a model's costs; log_hubo_terms writes its term map."""

    n: int
    ladder: tuple[int, ...]
    constant: int
    edges: list[tuple[int, int]]
    weights: list[int]


def log_hubo_terms(layout: LogLayout) -> dict[Term, int]:
    """The log model's polynomial as its term map, each key written once, in closed form:
    one dict.update per part of _log_hubo_parts."""
    terms: dict[Term, int] = {}
    for keys, values in _log_hubo_parts(layout):
        terms.update(zip(keys, values))
    return terms


def _log_hubo_parts(layout: LogLayout) -> Iterator[tuple[Iterable[Term], list[int]]]:
    """The log model's terms as (keys, coefficients) parts whose keys are all distinct:
    the single bits, bit by bit, and the constant; then each weighted vertex's sets of
    two or more bits; then each weighted edge's cross monomials.

    An edge's weight * prod_k XNOR(x[u][k], x[v][k]), XNOR(a, b) = 1 - a - b + 2ab,
    has coefficient weight * 2^|S & T| * (-1)^|S ^ T| on its monomial over bits S
    of u and T of v. Summed over the edges, the constant gains the sum of the
    weights, a monomial over bits S of one vertex v has W_v * (-1)^|S| (W_v the
    summed weight of v's edges) plus P_k when S = {k}, and each edge keeps its
    (2^L - 1)^2 cross monomials. Keys join two per-vertex subset tables, lower
    vertex first, built only when some edge has nonzero weight; the cross
    coefficients come from one sign table per distinct weight. Single bits and
    the constant are left out when zero (no other sum can be).
    """
    n, l = layout.n, len(layout.ladder)
    weighted = [(min(e), max(e), w) for e, w in zip(layout.edges, layout.weights) if w]
    sums = dict.fromkeys(range(n), 0)  # W_v, for the ladder's vertices and every weighted endpoint
    for u, v, w in weighted:
        sums[u] = sums.get(u, 0) + w
        sums[v] = sums.get(v, 0) + w
    singles = ((bit_var(v, k, l), (p if v < n else 0) - w) for k, p in enumerate(layout.ladder) for v, w in sums.items())
    singles = [((x,), c) for x, c in singles if c]
    if constant := layout.constant + sum(w for _, _, w in weighted):
        singles.append(((), constant))
    yield [key for key, _ in singles], [c for _, c in singles]
    if not weighted:
        return
    sign = [(-1) ** mask.bit_count() for mask in range(1 << l)]
    multi = [mask for mask in range(3, 1 << l) if mask & (mask - 1)]  # sets of two or more bits
    subsets = {}
    for x in sorted({x for u, v, _ in weighted for x in (u, v)}):
        # subsets[x][mask]: the ids of x's bits in mask
        subsets[x] = [tuple(bit_var(x, k, l) for k in range(l) if mask >> k & 1) for mask in range(1 << l)]
        if sums[x]:
            yield [subsets[x][mask] for mask in multi], [sums[x] * sign[mask] for mask in multi]
    masks = range(1, 1 << l)
    signs = {1: [sign[s] * sign[t] << (s & t).bit_count() for s in masks for t in masks]}
    for u, v, w in weighted:
        if w not in signs:
            signs[w] = [w * f for f in signs[1]]
        yield starmap(add, product(subsets[u][1:], subsets[v][1:])), signs[w]


def log_penalties(meta: Mapping[str, Any]) -> LexPenalties:
    """The penalty record of a log model's metadata: lex_penalties of its n
    and L, at gap 1 for log_mgc and at a log_general model's recorded gap,
    "unconstrained" read as None. log_layout weights the terms by it, and
    model JSON writes and checks the record by it."""
    gap = meta.get("gap") if meta["kind"] == "log_general" else 1
    if gap is None:
        raise InvalidInstanceError('a log_general model records its gap, an int or "unconstrained"')
    return lex_penalties(meta.get("n"), meta.get("L"), None if gap == "unconstrained" else gap)


def log_layout(meta: Mapping[str, Any]) -> LogLayout:
    """The layout a log model's metadata describes, with the ladder and
    partition penalty of log_penalties(meta).

    Raises a ValueError unless n and L are positive ints, the gap is valid,
    the edges are distinct int pairs u < v of vertices 0..n-1, and a
    log_general model has int alpha and beta entries, keyed "u-v", for
    every edge; log_mgc costs are alpha 1, beta 0.
    """
    if meta.get("kind") not in LOG_KINDS:
        raise InvalidInstanceError(f"expected a logarithmic encoding, got kind {meta.get('kind')!r}")
    pen = log_penalties(meta)
    n, edges = meta["n"], meta.get("edges")
    # The exact check's term-count floor relies on each edge being one pair u < v, listed once.
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and type(e[0]) is type(e[1]) is int and 0 <= e[0] < e[1] < n
        for e in edges
    ):
        raise InvalidInstanceError(f"edges must be integer pairs u < v of vertices 0..{n - 1}")
    edges = [(u, v) for u, v in edges]
    if len(set(edges)) != len(edges):
        raise InvalidInstanceError("edges must be distinct")
    costs = {"alpha": [1] * len(edges), "beta": [0] * len(edges)}
    if meta["kind"] == "log_general":
        for name in costs:
            given = meta.get(name)
            if not isinstance(given, dict) or not all(type(given.get(f"{u}-{v}")) is int for u, v in edges):
                raise InvalidInstanceError(f"{name} needs an integer entry for every edge")
            costs[name] = [given[f"{u}-{v}"] for u, v in edges]
    # Edge costs A * sum(alpha*prod + beta*(1 - prod)) = sum(A*(alpha - beta)*prod) + A*sum(beta).
    a = pen.a_adjacency
    weights = [a * (alpha - beta) for alpha, beta in zip(costs["alpha"], costs["beta"])]
    return LogLayout(n, pen.p, a * sum(costs["beta"]), edges, weights)


def checked_log_layout(prob: EncodedProblem) -> LogLayout:
    """log_layout of a log model, checked to rebuild its polynomial exactly.

    A mismatch means the model was hand-edited or corrupted in transit,
    so it is bad input: InvalidInstanceError. The n * L bits must be the
    whole registry before the rebuild runs.
    """
    layout = log_layout(prob.meta)
    if layout.n * len(layout.ladder) != prob.num_variables or not _rebuilds(layout, prob.polynomial):
        raise InvalidInstanceError("encoding metadata does not reproduce its polynomial")
    return layout


def _rebuilds(layout: LogLayout, p: Polynomial) -> bool:
    """Whether log_hubo_terms(layout) is `p`'s term map exactly, read part by part, with no second map.

    The parts build 2^L-entry tables once some edge has nonzero weight, so a
    cheap count goes first: each such edge yields (2^L - 1)^2 monomials over
    bits of both its endpoints, which no other (distinct) edge or ladder term
    can produce or cancel, so `p` holds at least that many. The parts' keys are
    distinct, so `p` is the map when it holds their coefficients and no more terms.
    """
    floor = sum(1 for w in layout.weights if w) * ((1 << len(layout.ladder)) - 1) ** 2
    if len(p._terms) < floor:
        return False
    compared = 0
    for keys, values in _log_hubo_parts(layout):
        if list(map(p._terms.get, keys)) != values:
            return False
        compared += len(values)
    return compared == len(p._terms)


def _encode_log(g: Graph, l: int, /, **meta: Any) -> EncodedProblem:
    """The log HUBO over n*L variables, degree 2L, built from log_layout of
    its own metadata; `meta` names the kind and any costs and gap."""
    meta = instance_meta(g, L=l, **meta)
    layout = log_layout(meta)
    check_build_terms(g.n * l + 1 + sum(1 for w in layout.weights if w) * 4**l)
    poly = Polynomial._from_canonical(log_hubo_terms(layout))
    # Roles count bits from 1, as the model file format has them.
    registry = tuple(f"x[{v}][{k + 1}]" for v in range(g.n) for k in range(l))
    return EncodedProblem(poly, registry, meta)


def encode_mgc_log(g: Graph, c: int) -> EncodedProblem:
    """Build the logarithmic minimum-coloring HUBO: the gap-1 case of encode_general."""
    return _encode_log(g, bits_for_colors(c), kind="log_mgc", c_num=c)


def encode_general(g: Graph, spec: PartitionSpec, l: int) -> EncodedProblem:
    """Build the general partition HUBO: weighted agreement costs plus the lexicographic ladder,
    with the partition penalty lex_penalties gives for spec.gap. A missing or
    non-int cost raises ValueError."""
    missing = [e for e in g.edges if e not in spec.alpha or e not in spec.beta]
    if missing:
        raise ValueError(f"partition spec is missing costs for edges {missing}")
    alpha = {f"{u}-{v}": spec.alpha[(u, v)] for u, v in g.edges}
    beta = {f"{u}-{v}": spec.beta[(u, v)] for u, v in g.edges}
    gap = "unconstrained" if spec.gap is None else spec.gap
    return _encode_log(g, l, kind="log_general", c_num=None, alpha=alpha, beta=beta, gap=gap)


LOG_KINDS = ("log_mgc", "log_general")


def decode_log(prob: EncodedProblem, assignment: Bits) -> Coloring:
    """Read each vertex's bits positionally; every bitstring is a valid label."""
    if prob.kind not in LOG_KINDS + ("quadratized_log",):
        raise ValueError(f"expected a logarithmic encoding, got kind {prob.kind!r}")
    n, l = prob.meta["n"], prob.meta["L"]
    if len(assignment) < n * l:
        raise DimensionError(f"assignment length {len(assignment)} < {n * l} vertex bits")
    return Coloring(tuple(vertex_labels(assignment, n, l)))
