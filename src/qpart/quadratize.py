"""Reduction of logarithmic HUBOs to QUBO form with penalized auxiliaries.

Per edge and bit position the construction introduces a product auxiliary
w = x_u * x_v and an agreement auxiliary y = XNOR(x_u, x_v); the per-edge
product over the y's is then collapsed by a standard Rosenberg chain. All
gadgets are quadratic, exact on binary inputs, and weighted so that any
violated constraint costs more than the rest of the Hamiltonian can repay.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError
from .logenc import LogLayout, bit_var, bits_for_colors, checked_log_layout
from .pbo import EncodedProblem, Polynomial, _accumulate, _zeta_passes, energy_vector


@dataclass(frozen=True)
class QuadratizationPenalties:
    """Gadget weights: one tier per auxiliary family.

    m_stage1 guards the agreement auxiliaries, m_stage2 the chain links.
    m_product guards the bit-product auxiliaries and must be at least
    3 * m_stage1: the agreement gadget can dip to -2 when its product
    auxiliary is wrong, and the product gadget then contributes at least
    its penalty once and up to three times, so the 3x factor keeps every
    off-manifold state at least m_stage1 above the manifold.
    """

    m_product: int
    m_stage1: int
    m_stage2: int


@dataclass(frozen=True)
class QuadratizedProblem:
    """A degree <= 2 rewrite of a logarithmic encoding, originals preserved in place."""

    problem: EncodedProblem

    @property
    def num_original_vars(self) -> int:
        return self.problem.meta["n"] * self.problem.meta["L"]

    @property
    def total_aux(self) -> int:
        return self.problem.num_variables - self.num_original_vars


def quadratization_penalties(layout: LogLayout) -> QuadratizationPenalties:
    """Smallest integer tiers strictly dominating the rest of the Hamiltonian:
    one above the largest |edge weight| plus n times the ladder's sum."""
    m = max(map(abs, layout.weights), default=0) + layout.n * sum(layout.ladder) + 1
    return QuadratizationPenalties(m_product=3 * m, m_stage1=m, m_stage2=m)


def quadratize(prob: EncodedProblem) -> QuadratizedProblem:
    """Rewrite a logarithmic encoding as a QUBO whose aux-minimized energy matches.

    With L = 1 the input is already quadratic and passes through
    unchanged. Otherwise each edge contributes L product gadgets, L
    agreement gadgets, and a Rosenberg chain of L-2 links; the degree-2L
    adjacency monomial becomes the quadratic product of the chain head
    with the last agreement bit (just y1*y2 when L = 2). The originals
    keep ids 0..nL-1, and edge e, in metadata order, owns the 3L-2 ids
    from nL + e(3L-2): w[e][1..L], then y[e][1..L], then b[e][1..L-2].

    Each key is written once, in closed form: bit k of vertex v gets P_k - deg(v)*m_1
    (never zero, as m_1 > n*sum(P) >= P_k), w[e][k] gets 3*m_product + 2*m_1, and the
    constant the layout's plus m*L*m_1; no other key sums across gadgets.

    That allocates m*(3L-2) auxiliaries for L >= 2. The published
    m*(2L-2) counts the L product and L-2 chain auxiliaries per edge;
    this construction also adds one agreement auxiliary y per edge-bit,
    which the published count leaves out. ROADMAP item 5 tracks a
    construction at the published count.
    """
    layout = checked_log_layout(prob)
    n, l, edges, weights = layout.n, len(layout.ladder), layout.edges, layout.weights
    penalties = quadratization_penalties(layout)
    meta = {**prob.meta, "kind": "quadratized_log", "base_kind": prob.kind}
    if l == 1:
        return QuadratizedProblem(EncodedProblem(prob.polynomial, prob.registry, meta))

    m_p, m_1, m_2 = penalties.m_product, penalties.m_stage1, penalties.m_stage2
    degree = Counter(v for e in edges for v in e)
    terms = {(bit_var(v, k, l),): p - degree[v] * m_1 for k, p in enumerate(layout.ladder) for v in range(n)}
    if constant := layout.constant + len(edges) * l * m_1:
        terms[()] = constant
    registry = list(prob.registry)
    for e, ((u, v), weight) in enumerate(zip(edges, weights)):
        # First ids of the edge's three families: w[e][k] is w + k - 1, and so on.
        w = n * l + e * (3 * l - 2)
        y, b = w + l, w + 2 * l
        for role, size in (("w", l), ("y", l), ("b", l - 2)):
            registry += [f"{role}[{e}][{k}]" for k in range(1, size + 1)]
        for k in range(l):
            xu, xv = bit_var(u, k, l), bit_var(v, k, l)
            # y = XNOR(xu, xv) given w, m_1*(1 - xu - xv - y + 2w + 2xu*y + 2xv*y - 4w*y), is zero iff y is
            # correct on the w-manifold; its 2w joins the product gadget's 3w, its 1, xu and xv are summed above.
            terms |= _product_gadget(w + k, xu, xv, m_p)
            terms |= {(w + k,): 3 * m_p + 2 * m_1, (y + k,): -m_1, (w + k, y + k): -4 * m_1}
            terms |= {(xu, y + k): 2 * m_1, (xv, y + k): 2 * m_1}
        # Prefix-product chain over y_1..y_{L-1}; the replaced monomial is the
        # quadratic product of the chain head (y_1, then a b after every y) with y_L.
        head = y
        for i in range(l - 2):
            terms |= _product_gadget(b + i, *sorted((head, y + i + 1)), m_2)
            head = b + i
        if weight:
            terms[tuple(sorted((head, y + l - 1)))] = weight

    poly = Polynomial._from_canonical(terms)
    if poly.degree() > 2:
        raise InternalInvariantError("quadratization produced a term of degree > 2")
    return QuadratizedProblem(EncodedProblem(poly, tuple(registry), meta))


def _product_gadget(z: int, a: int, b: int, m: int) -> dict[tuple[int, ...], int]:
    """Rosenberg's m*(ab - 2az - 2bz + 3z), keys sorted for a < b < z: >= 0, zero iff z = a*b."""
    return {(a, b): m, (a, z): -2 * m, (b, z): -2 * m, (z,): 3 * m}


def manifold_extension(quad: QuadratizedProblem, original_bits: tuple[int, ...]) -> tuple[int, ...]:
    """Extend original bits with the auxiliary values every gadget enforces.

    w = x_u * x_v per edge-bit, y = XNOR per edge-bit, and prefix products
    along each chain. At this extension all gadget penalties vanish, so
    the QUBO energy equals the HUBO energy of the original assignment.
    """
    prob = quad.problem
    l = prob.meta["L"]
    bits = list(original_bits[: quad.num_original_vars])
    if l == 1:
        return tuple(bits)
    for u, v in prob.meta["edges"]:
        pairs = [(bits[bit_var(u, k, l)], bits[bit_var(v, k, l)]) for k in range(l)]
        y = [int(xu == xv) for xu, xv in pairs]
        bits += [xu * xv for xu, xv in pairs] + y
        bits += list(itertools.accumulate(y, operator.mul))[1 : l - 1]
    return tuple(bits)


def aux_count_paper(m: int, l: int) -> int:
    """The published auxiliary count m*(2l-2); quadratize's docstring gives the built one."""
    if l < 1:
        raise ValueError(f"bit count must be >= 1, got {l}")
    return m * (2 * l - 2)


def qubit_advantage_predicate(n: int, m: int, c: int) -> tuple[bool, int, int]:
    """(advantage, log qubit count, one-hot qubit count) under the published accounting.

    The predicate is the published crossover inequality evaluated with
    exact integer arithmetic:

        m < ((n+1)*c - L) / (2*(L-1))   with   L = ceil(log2 c)

    and True outright when L = 1. The returned log count is the published
    n*L + m*(2L-2); note the predicate is the inequality as published,
    which is looser than directly comparing the two returned counts.
    """
    if c < 2:
        raise ValueError(f"color bound must be >= 2, got {c}")
    if n < 1 or not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"need n >= 1 and 0 <= m <= n(n-1)/2, got n={n}, m={m}")
    l = bits_for_colors(c)
    onehot_count = (n + 1) * c
    log_count = n * l + aux_count_paper(m, l)
    if l == 1:
        return True, log_count, onehot_count
    advantage = 2 * m * (l - 1) < onehot_count - l
    return advantage, log_count, onehot_count


@dataclass(frozen=True)
class QuadratizationReport:
    """Whether a quadratization is exact; if so, its ground states project onto the HUBO's."""

    passed: bool


def verify_quadratization(hubo: EncodedProblem, quad: QuadratizedProblem) -> QuadratizationReport:
    """Prove that the QUBO, minimized over its auxiliaries, is the HUBO at every assignment.

    Auxiliaries sharing a term form a block, and the minimum over a block's auxiliaries is a
    function of its originals: enumerated once per distinct relabelled block, Moebius-transformed
    into monomials and added to the auxiliary-free terms, it must give the HUBO exactly. An MGC
    edge block has 5L-2 variables, so L <= 5 is proved at any size; L = 6 raises ResourceLimitError.
    """
    n_orig = quad.num_original_vars
    parent: dict[int, int] = {}  # union-find over the auxiliaries

    def find(a: int) -> int:
        while parent.setdefault(a, a) != a:
            parent[a] = a = parent[parent[a]]
        return a

    for key, _ in quad.problem.polynomial.items():
        for v in key:
            if v >= n_orig:
                parent[find(v)] = find(key[-1])
    reduced, blocks, minima = [], {}, {}  # keys are sorted, so an auxiliary, if any, is last
    for key, coeff in quad.problem.polynomial.items():
        (blocks.setdefault(find(key[-1]), []) if key and key[-1] >= n_orig else reduced).append((key, coeff))
    for block in blocks.values():
        block_vars = sorted({v for key, _ in block for v in key})  # originals first
        k = sum(v < n_orig for v in block_vars)
        signature = (k, tuple(sorted((tuple(map(block_vars.index, key)), c) for key, c in block)))
        if signature not in minima:
            f = energy_vector(Polynomial._from_canonical(dict(signature[1])), len(block_vars))
            f = f.reshape(-1, 1 << k).min(axis=0).astype(object)
            _zeta_passes(f, range(k), np.subtract)  # the inverse of energy_vector's subset-sum passes
            subsets = [tuple(i for i in range(k) if mask >> i & 1) for mask in range(1 << k)]
            minima[signature] = [(subsets[mask], int(c)) for mask, c in enumerate(f) if c]
        reduced += [(tuple(map(block_vars.__getitem__, local)), c) for local, c in minima[signature]]
    return QuadratizationReport(Polynomial._from_canonical(_accumulate(reduced)) == hubo.polynomial)
