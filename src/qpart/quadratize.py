"""Reduction of logarithmic HUBOs to QUBO form with penalized auxiliaries.

Per edge and bit position the construction introduces a product auxiliary
w = x_u * x_v and an agreement auxiliary y = XNOR(x_u, x_v); the per-edge
product over the y's is then collapsed by a standard Rosenberg chain. All
gadgets are quadratic, exact on binary inputs, and weighted so that any
violated constraint costs more than the rest of the Hamiltonian can repay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, InvalidInstanceError
from .logenc import LexPenalties, bit_var, bits_for_colors, edge_weights, log_hubo_terms
from .model import EncodedProblem
from .pbo import Polynomial, energy_vector


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
    num_original_vars: int
    aux_product: int
    aux_agreement: int
    aux_chain: int

    @property
    def total_aux(self) -> int:
        return self.aux_product + self.aux_agreement + self.aux_chain


def quadratization_penalties(coeff_bound: int, n: int, lex_total: int) -> QuadratizationPenalties:
    """Smallest integer tiers strictly dominating the rest of the Hamiltonian."""
    m = coeff_bound + n * lex_total + 1
    return QuadratizationPenalties(m_product=3 * m, m_stage1=m, m_stage2=m)


def quadratize(prob: EncodedProblem) -> QuadratizedProblem:
    """Rewrite a logarithmic encoding as a QUBO whose aux-minimized energy matches.

    With L = 1 the input is already quadratic and passes through
    unchanged. Otherwise each edge contributes L product gadgets, L
    agreement gadgets, and a Rosenberg chain of L-2 links; the degree-2L
    adjacency monomial becomes the quadratic product of the chain head
    with the last agreement bit (just y1*y2 when L = 2).

    That allocates m*(3L-2) auxiliaries for L >= 2, not the published
    m*(2L-2): a three-variable quadratic gadget computing XNOR exactly
    does not exist, so each edge-bit needs both a product and an
    agreement auxiliary; the published count assumes a quadratic gadget
    that the squared-penalty form does not deliver.
    """
    weights, const = edge_weights(prob)
    n = prob.meta["n"]
    l = prob.meta["L"]
    edges = [tuple(e) for e in prob.meta["edges"]]
    pen: LexPenalties = prob.penalties

    # Rebuild the HUBO from structure; a mismatch means the input was
    # hand-edited or corrupted in transit, so it is bad input, not a bug.
    # The rebuild costs 4^L per weighted edge, so cheap checks go first:
    # each edge of nonzero weight yields (2^L - 1)^2 monomials over bits
    # of both its endpoints, which no other (distinct) edge or ladder
    # term can produce or cancel.
    if (
        len(pen.p) != l
        or n * l > prob.num_variables
        or sum(1 for _ in prob.polynomial.items())
        < sum(1 for w in weights if w) * ((1 << l) - 1) ** 2
        or Polynomial(log_hubo_terms(n, pen.p, const, edges, weights)) != prob.polynomial
    ):
        raise InvalidInstanceError("encoding metadata does not reproduce its polynomial")

    coeff_bound = max((abs(w) for w in weights), default=0)
    penalties = quadratization_penalties(coeff_bound, n, pen.total)

    num_original = n * l
    if l == 1:
        meta = _quadratized_meta(prob, num_original, 0, 0, 0)
        out = EncodedProblem(prob.polynomial, prob.registry, penalties, meta)
        return QuadratizedProblem(out, num_original, 0, 0, 0)

    terms = list(log_hubo_terms(n, pen.p, const))
    registry = list(prob.registry)
    aux_w = aux_y = aux_b = 0
    next_id = num_original
    m_p, m_1, m_2 = penalties.m_product, penalties.m_stage1, penalties.m_stage2

    for e_idx, ((u, v), weight) in enumerate(zip(edges, weights)):
        w_ids = []
        y_ids = []
        for k in range(1, l + 1):
            w_ids.append(next_id)
            registry.append(f"w[{e_idx}][{k}]")
            next_id += 1
        for k in range(1, l + 1):
            y_ids.append(next_id)
            registry.append(f"y[{e_idx}][{k}]")
            next_id += 1
        aux_w += l
        aux_y += l

        for k in range(1, l + 1):
            xu, xv = bit_var(u, k, l), bit_var(v, k, l)
            w, y = w_ids[k - 1], y_ids[k - 1]
            # w = xu * xv  (Rosenberg product gadget, >= 0, zero iff exact)
            terms += [
                ((xu, xv), m_p),
                ((w, xu), -2 * m_p),
                ((w, xv), -2 * m_p),
                ((w,), 3 * m_p),
            ]
            # y = XNOR(xu, xv) given w; zero on the w-manifold iff y is correct
            terms += [
                ((), m_1),
                ((y,), -m_1),
                ((xu,), -m_1),
                ((xv,), -m_1),
                ((w,), 2 * m_1),
                ((y, xu), 2 * m_1),
                ((y, xv), 2 * m_1),
                ((y, w), -4 * m_1),
            ]

        if l == 2:
            product_var_pair: tuple[int, ...] = (y_ids[0], y_ids[1])
        else:
            # Prefix-product chain over y_1..y_{L-1}; the replaced monomial
            # is the quadratic product of the chain head with y_L.
            chain_ids = []
            for i in range(1, l - 1):
                chain_ids.append(next_id)
                registry.append(f"b[{e_idx}][{i}]")
                next_id += 1
            aux_b += l - 2
            prev = y_ids[0]
            for i, b in enumerate(chain_ids):
                nxt = y_ids[i + 1]
                terms += [
                    ((prev, nxt), m_2),
                    ((b, prev), -2 * m_2),
                    ((b, nxt), -2 * m_2),
                    ((b,), 3 * m_2),
                ]
                prev = b
            product_var_pair = (chain_ids[-1], y_ids[-1])

        if weight:
            terms.append((product_var_pair, weight))

    poly = Polynomial(terms)
    if poly.degree() > 2:
        raise InternalInvariantError("quadratization produced a term of degree > 2")
    meta = _quadratized_meta(prob, num_original, aux_w, aux_y, aux_b)
    out = EncodedProblem(poly, tuple(registry), penalties, meta)
    return QuadratizedProblem(out, num_original, aux_w, aux_y, aux_b)


def _quadratized_meta(prob: EncodedProblem, num_original: int, aux_w: int, aux_y: int, aux_b: int) -> dict:
    meta = dict(prob.meta)
    meta.update(
        {
            "kind": "quadratized_log",
            "base_kind": prob.kind,
            "num_original": num_original,
            "backmap": list(range(num_original)),
            "aux_counts": {"w": aux_w, "y": aux_y, "b": aux_b},
            "base_penalties": {"p": list(prob.penalties.p), "a_adjacency": prob.penalties.a_adjacency},
        }
    )
    return meta


def manifold_extension(quad: QuadratizedProblem, original_bits: tuple[int, ...]) -> tuple[int, ...]:
    """Extend original bits with the auxiliary values every gadget enforces.

    w = x_u * x_v per edge-bit, y = XNOR per edge-bit, and prefix products
    along each chain. At this extension all gadget penalties vanish, so
    the QUBO energy equals the HUBO energy of the original assignment.
    """
    prob = quad.problem
    n, l = prob.meta["n"], prob.meta["L"]
    edges = [tuple(e) for e in prob.meta["edges"]]
    bits = list(original_bits[: quad.num_original_vars])
    if l == 1:
        return tuple(bits)
    for u, v in edges:
        w_vals = []
        y_vals = []
        for k in range(1, l + 1):
            xu, xv = bits[bit_var(u, k, l)], bits[bit_var(v, k, l)]
            w_vals.append(xu * xv)
            y_vals.append(1 if xu == xv else 0)
        bits.extend(w_vals)
        bits.extend(y_vals)
        if l >= 3:
            prefix = y_vals[0]
            for k in range(1, l - 1):
                prefix *= y_vals[k]
                bits.append(prefix)
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
    l = bits_for_colors(c)
    onehot_count = (n + 1) * c
    log_count = n * l + aux_count_paper(m, l)
    if l == 1:
        return True, log_count, onehot_count
    advantage = 2 * m * (l - 1) < onehot_count - l
    return advantage, log_count, onehot_count


@dataclass(frozen=True)
class QuadratizationReport:
    """Outcome of exhaustively checking a quadratization against its HUBO."""

    min_over_aux_matches: bool
    ground_projection_matches: bool
    hubo_min: int
    qubo_min: int

    @property
    def passed(self) -> bool:
        return self.min_over_aux_matches and self.ground_projection_matches


def verify_quadratization(hubo: EncodedProblem, quad: QuadratizedProblem) -> QuadratizationReport:
    """Exhaustively check energy equality under aux-minimization and ground-state projection."""
    n_orig = quad.num_original_vars
    n_total = quad.problem.num_variables
    n_aux = n_total - n_orig

    qubo_energies = energy_vector(quad.problem.polynomial, n_total)
    # Index layout is aux_high | orig_low, so each row of the reshape fixes
    # the auxiliary bits and sweeps the originals.
    min_ext = qubo_energies.reshape(1 << n_aux, 1 << n_orig).min(axis=0)
    hubo_energies = energy_vector(hubo.polynomial, n_orig)

    matches = bool(np.array_equal(min_ext, hubo_energies))

    hubo_min = int(hubo_energies.min())
    qubo_min = int(qubo_energies.min())
    hubo_ground = set(np.flatnonzero(hubo_energies == hubo_min).tolist())
    qubo_ground = np.flatnonzero(qubo_energies == qubo_min)
    projected = set((qubo_ground & ((1 << n_orig) - 1)).tolist())
    projection_ok = projected == hubo_ground

    return QuadratizationReport(
        min_over_aux_matches=matches,
        ground_projection_matches=projection_ok,
        hubo_min=hubo_min,
        qubo_min=qubo_min,
    )
