"""Logarithmic HUBO encodings: minimum graph coloring and general partitioning.

Each vertex carries L bits read as a binary label. Equality of adjacent
labels is detected by a product of per-bit XNOR polynomials; a geometric
ladder of per-bit penalties makes the total energy order assignments
lexicographically by their index populations, so the ground state favors
small labels without any dedicated counting register.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DimensionError
from .graphs import Coloring, Graph, brooks_upper_bound
from .model import EncodedProblem, instance_meta
from .pbo import Bits, Polynomial, Term, check_build_terms


@dataclass(frozen=True)
class LexPenalties:
    """Per-bit weights P_1..P_L (least significant first) and the partition penalty."""

    p: tuple[int, ...]
    a_adjacency: int

    @property
    def total(self) -> int:
        return sum(self.p)


@dataclass(frozen=True)
class PartitionSpec:
    """Per-edge costs: alpha when labels agree, beta when they differ.

    gap is the feasibility gap of the hard constraints, or None when every
    assignment is feasible. A log_general model's metadata records the
    same costs as "u-v"-keyed alpha/beta maps, and a None gap as
    "unconstrained".
    """

    alpha: Mapping[tuple[int, int], int]
    beta: Mapping[tuple[int, int], int]
    gap: int | None = None

    @staticmethod
    def mgc(g: Graph) -> PartitionSpec:
        """Minimum graph coloring: unit cost on monochromatic edges, gap 1."""
        alpha = {e: 1 for e in g.edges}
        beta = {e: 0 for e in g.edges}
        return PartitionSpec(alpha=alpha, beta=beta, gap=1)


def bits_for_colors(c: int) -> int:
    """Bits needed to address c labels; at least one even for c=1."""
    if c < 1:
        raise ValueError(f"color count must be >= 1, got {c}")
    return max(1, (c - 1).bit_length())


def lex_penalties(n: int, l: int) -> LexPenalties:
    """The explicit sufficient ladder P_k = (n+1)^(k-1) with A = n*sum(P)+1."""
    if n < 1 or l < 1:
        raise ValueError(f"need n >= 1 and l >= 1, got n={n}, l={l}")
    p = tuple((n + 1) ** (k - 1) for k in range(1, l + 1))
    return LexPenalties(p=p, a_adjacency=n * sum(p) + 1)


def bit_var(v: int, k: int, l: int) -> int:
    """Variable id of bit k (1-based, least significant first) of vertex v."""
    return v * l + (k - 1)


# Per-bit factors of XNOR(a, b) = 2ab - a - b + 1 as (coeff, takes a, takes b).
_XNOR_FACTORS = ((2, True, True), (-1, True, False), (-1, False, True), (1, False, False))


def log_hubo_terms(
    n: int,
    ladder: Sequence[int],
    constant: int = 0,
    edges: Iterable[tuple[int, int]] = (),
    weights: Iterable[int] = (),
) -> Iterator[tuple[Term, int]]:
    """The logarithmic HUBO as one term stream, with L = len(ladder).

    Yields P_k * x[v][k] for every vertex and bit, then the constant, then
    weight * prod_k XNOR(x[u][k], x[v][k]) for each edge. An edge's 4^L
    product monomials are written out directly, one XNOR factor chosen
    per bit, under sorted keys: every bit of the lower vertex precedes
    every bit of the higher one. Each key is the concatenation of two
    per-vertex tuples, the ids of a subset of each endpoint's bits,
    tabulated once per vertex by subset bitmask.
    """
    l = len(ladder)
    for k in range(1, l + 1):
        for v in range(n):
            yield (bit_var(v, k, l),), ladder[k - 1]
    yield (), constant
    weighted = [(e, w) for e, w in zip(edges, weights) if w]
    if not weighted:
        return
    template = []
    for factors in itertools.product(_XNOR_FACTORS, repeat=l):
        u_mask = sum(1 << k for k, (_, a, _) in enumerate(factors) if a)
        v_mask = sum(1 << k for k, (_, _, b) in enumerate(factors) if b)
        template.append((math.prod(c for c, _, _ in factors), u_mask, v_mask))
    subsets = {
        x: [tuple(x * l + k for k in range(l) if mask >> k & 1) for mask in range(1 << l)]
        for x in {x for e, _ in weighted for x in e}
    }
    for (u, v), weight in weighted:
        lo, hi = subsets[min(u, v)], subsets[max(u, v)]
        for coeff, u_mask, v_mask in template:
            yield lo[u_mask] + hi[v_mask], weight * coeff


def partition_weights(
    edges: Sequence[tuple[int, int]], spec: PartitionSpec, a_partition: int
) -> tuple[list[int], int]:
    """Per-edge agreement-product weights and the constant of A * sum(alpha*prod + beta*(1-prod))."""
    weights = [a_partition * (spec.alpha[e] - spec.beta[e]) for e in edges]
    return weights, sum(a_partition * spec.beta[e] for e in edges)


def edge_weights(prob: EncodedProblem) -> tuple[list[int], int]:
    """partition_weights of a logarithmic encoding, re-derived from its metadata."""
    if prob.kind not in LOG_KINDS:
        raise ValueError(f"expected a logarithmic encoding, got kind {prob.kind!r}")
    edges = [tuple(e) for e in prob.meta["edges"]]
    if prob.kind == "log_mgc":
        spec = PartitionSpec(alpha=dict.fromkeys(edges, 1), beta=dict.fromkeys(edges, 0))
    else:
        spec = PartitionSpec(
            alpha={(u, v): int(prob.meta["alpha"][f"{u}-{v}"]) for u, v in edges},
            beta={(u, v): int(prob.meta["beta"][f"{u}-{v}"]) for u, v in edges},
        )
    return partition_weights(edges, spec, prob.penalties.a_adjacency)


def _log_polynomial(g: Graph, ladder: Sequence[int], a_partition: int, spec: PartitionSpec) -> Polynomial:
    weights, constant = partition_weights(g.edges, spec, a_partition)
    l = len(ladder)
    check_build_terms(g.n * l + 1 + sum(1 for w in weights if w) * 4**l)
    return Polynomial._from_canonical(log_hubo_terms(g.n, ladder, constant, g.edges, weights))


def _registry(n: int, l: int) -> tuple[str, ...]:
    return tuple(f"x[{v}][{k}]" for v in range(n) for k in range(1, l + 1))


def encode_mgc_log(g: Graph, c: int | None = None) -> EncodedProblem:
    """Build the logarithmic minimum-coloring HUBO over n*L variables, degree 2L."""
    if c is None:
        c = brooks_upper_bound(g)
    l = bits_for_colors(c)
    pen = lex_penalties(g.n, l)
    poly = _log_polynomial(g, pen.p, pen.a_adjacency, PartitionSpec.mgc(g))
    meta = instance_meta(g, kind="log_mgc", c_num=c, L=l)
    return EncodedProblem(poly, _registry(g.n, l), pen, meta)


def encode_general(g: Graph, spec: PartitionSpec, l: int) -> EncodedProblem:
    """Build the general partition HUBO: weighted agreement costs plus the lexicographic ladder.

    The partition penalty is the smallest integer strictly above
    n * sum(P) / gap for a finite feasibility gap, and 1 when the problem
    has no hard constraints.
    """
    if l < 1:
        raise ValueError(f"bit count must be >= 1, got {l}")
    missing = [e for e in g.edges if e not in spec.alpha or e not in spec.beta]
    if missing:
        raise ValueError(f"partition spec is missing costs for edges {missing}")
    pen_base = lex_penalties(g.n, l)
    if spec.gap is None:
        a_partition = 1
    else:
        if spec.gap < 1:
            raise ValueError(f"feasibility gap must be a positive integer, got {spec.gap}")
        a_partition = (g.n * pen_base.total) // spec.gap + 1
    pen = LexPenalties(p=pen_base.p, a_adjacency=a_partition)
    poly = _log_polynomial(g, pen.p, a_partition, spec)
    meta = instance_meta(
        g,
        kind="log_general",
        c_num=None,
        L=l,
        alpha={f"{u}-{v}": spec.alpha[(u, v)] for u, v in g.edges},
        beta={f"{u}-{v}": spec.beta[(u, v)] for u, v in g.edges},
        gap="unconstrained" if spec.gap is None else spec.gap,
    )
    return EncodedProblem(poly, _registry(g.n, l), pen, meta)


LOG_KINDS = ("log_mgc", "log_general")


def decode_log(prob: EncodedProblem, assignment: Bits) -> Coloring:
    """Read each vertex's bits positionally; every bitstring is a valid label."""
    if prob.kind not in LOG_KINDS + ("quadratized_log",):
        raise ValueError(f"expected a logarithmic encoding, got kind {prob.kind!r}")
    n, l = prob.meta["n"], prob.meta["L"]
    if len(assignment) < n * l:
        raise DimensionError(f"assignment length {len(assignment)} < {n * l} vertex bits")
    labels = tuple(
        sum((1 << (k - 1)) * assignment[bit_var(v, k, l)] for k in range(1, l + 1))
        for v in range(n)
    )
    return Coloring(labels)
