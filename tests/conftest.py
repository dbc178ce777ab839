"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from qpart.errors import InvalidInstanceError
from qpart.gates import ising_expand
from qpart.graphs import Graph
from qpart.logenc import LOG_KINDS, LogLayout, PartitionSpec, log_hubo_terms, log_layout, log_penalties
from qpart.onehot import onehot_penalties, x_var, y_var
from qpart.pbo import Polynomial, energy_vector, index_to_bits
from qpart.quadratize import quadratization_penalties


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def star_graph(n: int) -> Graph:
    return Graph(n, tuple((0, i) for i in range(1, n)))


def connected_graphs_up_to_iso(n: int) -> list[Graph]:
    """All isomorphism-distinct connected graphs on n vertices, by exhaustion.

    Canonicalizes each edge set as the lexicographic minimum over all
    vertex permutations; independent of any library so it doubles as an
    enumeration oracle. Practical for n <= 6.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    perms = list(itertools.permutations(range(n)))
    seen: set[tuple[tuple[int, int], ...]] = set()
    out: list[Graph] = []
    for bits in range(1 << len(pairs)):
        edges = tuple(p for i, p in enumerate(pairs) if bits >> i & 1)
        g = Graph(n, edges)
        if not g.is_connected():
            continue
        canon = min(
            tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
            for perm in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        out.append(g)
    return out


def brute_force_chromatic(g: Graph) -> int:
    """Minimum label count over all k^n assignments; independent of the backtracker."""
    if g.m == 0:
        return 1
    for k in range(2, g.n + 1):
        for labels in itertools.product(range(k), repeat=g.n):
            if all(labels[u] != labels[v] for u, v in g.edges):
                return k
    return g.n


def proper_label_assignments(g: Graph, num_labels: int):
    """All proper colorings with labels drawn from 0..num_labels-1."""
    for labels in itertools.product(range(num_labels), repeat=g.n):
        if all(labels[u] != labels[v] for u, v in g.edges):
            yield labels


# Term-dict algebra: {sorted variable tuple: int}, zero entries dropped. An
# independent reference for the builders, which write their terms out directly.


def add_scaled(a, b, scale=1):
    """a + scale * b."""
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, 0) + scale * coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def multiply(a, b):
    """a * b with x*x = x."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(sorted(set(k1) | set(k2)))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: coeff for key, coeff in out.items() if coeff}


def mgc_spec(g):
    """Minimum coloring as a partition spec: unit cost on monochromatic edges, gap 1."""
    return PartitionSpec(alpha=dict.fromkeys(g.edges, 1), beta=dict.fromkeys(g.edges, 0), gap=1)


# Per-bit factors of XNOR(a, b) = 2ab - a - b + 1 as (coeff, takes a, takes b).
_XNOR_FACTORS = ((2, True, True), (-1, True, False), (-1, False, True), (1, False, False))


def naive_log_hubo_terms(layout):
    """The log model's polynomial as a term stream with repeated keys, the reference
    for log_hubo_terms' closed form: P_k * x[v][k] for every vertex and bit, the
    constant, then each edge's weight * prod_k XNOR(x[u][k], x[v][k]) written out as
    its 4^L products, one XNOR factor chosen per bit, under sorted keys."""
    n, l = layout.n, len(layout.ladder)
    for k in range(l):
        for v in range(n):
            yield (v * l + k,), layout.ladder[k]
    yield (), layout.constant
    for (u, v), weight in zip(layout.edges, layout.weights):
        lo, hi = sorted((u, v))
        for factors in itertools.product(_XNOR_FACTORS, repeat=l):
            key = [lo * l + k for k, (_, a, _) in enumerate(factors) if a]
            key += [hi * l + k for k, (_, _, b) in enumerate(factors) if b]
            yield tuple(key), weight * math.prod(c for c, _, _ in factors)


def naive_onehot_terms(g, c):
    """The one-hot model's polynomial as a term stream with repeated keys, the reference
    for encode_mgc_onehot's closed form: A_onehot * (1 - sum_c x)^2 expanded per vertex,
    A_adjacency on each edge's pair of one colour, then the usage bits and the link
    A_link * x (1 - y), one bit and one pair at a time."""
    pen = onehot_penalties(g.n, g.m, c)
    for v in range(g.n):
        # (1 - sum_c x)^2 = 1 - sum_c x + 2 * sum_{c<c'} x x'
        yield (), pen.a_onehot
        for col in range(c):
            yield (x_var(v, col, c),), -pen.a_onehot
        for col in range(c):
            for col2 in range(col + 1, c):
                yield (x_var(v, col, c), x_var(v, col2, c)), 2 * pen.a_onehot
    for u, v in g.edges:
        for col in range(c):
            yield (x_var(u, col, c), x_var(v, col, c)), pen.a_adjacency
    for col in range(c):
        yield (y_var(col, g.n, c),), 1
    for v in range(g.n):
        for col in range(c):
            yield (x_var(v, col, c),), pen.a_link
            yield (x_var(v, col, c), y_var(col, g.n, c)), -pen.a_link


def edge_agreement_product(u, v, l):
    """Product of per-bit XNORs: 1 iff the two vertices carry equal bitstrings."""
    return Polynomial(log_hubo_terms(LogLayout(0, (0,) * l, 0, [(u, v)], [1])))


def population_of_bits(bits, n, l):
    """Index population s_k: vertices whose k-th bit is set, k = 1..L, of n blocks of l bits."""
    return tuple(sum(bits[v * l + (k - 1)] for v in range(n)) for k in range(1, l + 1))


def feasibility_gap_bruteforce(g, spec, l, feasible):
    """Minimum partition energy (unit penalty) over infeasible assignments minus the
    feasible minimum; None when every assignment is feasible, InvalidInstanceError
    when none is, and energy_vector's ResourceLimitError past its variable limit."""
    nv = g.n * l
    weights = [spec.alpha[e] - spec.beta[e] for e in g.edges]
    constant = sum(spec.beta[e] for e in g.edges)
    poly = Polynomial(log_hubo_terms(LogLayout(g.n, (0,) * l, constant, list(g.edges), weights)))
    energies = energy_vector(poly, nv)
    mask = np.fromiter(
        (feasible(index_to_bits(i, nv)) for i in range(1 << nv)), dtype=bool, count=1 << nv
    )
    if mask.all():
        return None
    if not mask.any():
        raise InvalidInstanceError("no feasible assignment exists; the gap is undefined")
    return int(energies[~mask].min()) - int(energies[mask].min())


def bits_to_index(bits):
    """The index of an assignment in energy_vector: bit v is x_v."""
    return sum(1 << v for v, b in enumerate(bits) if b)


def zeta_oracle(p, num_vars):
    """energy_vector as one in-place subset-sum pass per variable over the
    whole array, each coefficient placed at its term's bitmask first: the
    reference for energy_vector's split into term rows and high passes."""
    bound = sum(abs(c) for _, c in p.items())
    energies = np.zeros(1 << num_vars, dtype=np.int32 if bound < 2**31 else np.int64 if bound < 2**62 else object)
    for key, coeff in p.items():
        energies[sum(1 << v for v in key)] = coeff
    for v in range(num_vars):
        view = energies.reshape(-1, 2, 1 << v)
        view[:, 1, :] += view[:, 0, :]
    return energies


@dataclass(frozen=True)
class PropertyReport:
    """Ground-state properties of a one-hot assignment, checked directly."""

    indicator_faithful: bool
    proper_coloring: bool
    one_hot_satisfied: bool
    colors_used: int

    def all_satisfied(self):
        return self.indicator_faithful and self.proper_coloring and self.one_hot_satisfied


def check_properties_onehot(prob, assignment):
    n, c = prob.meta["n"], prob.meta["c_num"]
    usage = [sum(assignment[x_var(v, col, c)] for v in range(n)) for col in range(c)]
    return PropertyReport(
        indicator_faithful=all(
            (assignment[y_var(col, n, c)] == 1) == (usage[col] >= 1) for col in range(c)
        ),
        proper_coloring=all(
            not (assignment[x_var(u, col, c)] and assignment[x_var(v, col, c)])
            for u, v in prob.meta["edges"]
            for col in range(c)
        ),
        one_hot_satisfied=all(
            sum(assignment[x_var(v, col, c)] for col in range(c)) == 1 for v in range(n)
        ),
        colors_used=sum(assignment[y_var(col, n, c)] for col in range(c)),
    )


# The sufficient penalty bounds each encoder's closed form must meet.


def lex_bounds_hold(pen, n):
    """Strict hierarchy: P_{k+1} > n * sum(P_1..P_k), and A > n * sum(P)."""
    ladder_ok = all(pen.p[k + 1] > n * sum(pen.p[: k + 1]) for k in range(len(pen.p) - 1))
    return ladder_ok and pen.a_adjacency > n * sum(pen.p)


def onehot_bounds_hold(pen, m, c):
    """The sufficiency inequalities for edge count m and color bound c."""
    return (
        pen.a_link > 1
        and pen.a_adjacency > pen.a_link * c
        and pen.a_onehot > pen.a_adjacency * m + pen.a_link * c
    )


def quadratization_bounds_hold(pen, coeff_bound, n, lex_total):
    """Each gadget tier exceeds the rest of the Hamiltonian, coeff_bound + n * lex_total,
    and m_product >= 3 * m_stage1 (see QuadratizationPenalties)."""
    slack = coeff_bound + n * lex_total
    return pen.m_stage1 > slack and pen.m_stage2 > slack and pen.m_product >= 3 * pen.m_stage1


def quadratization_exact_by_enumeration(hubo, quad):
    """The exhaustive reference for verify_quadratization, up to 24 variables in all:
    whether the QUBO's energies, minimized over the auxiliaries, equal the HUBO's at
    every original assignment. Where they do, the QUBO's ground states must project
    onto exactly the HUBO's ground set; that consequence is asserted too."""
    n_orig = quad.num_original_vars
    qubo = energy_vector(quad.problem.polynomial, quad.problem.num_variables)
    hubo_energies = energy_vector(hubo.polynomial, n_orig)
    # Index layout is aux_high | orig_low, so each row fixes the auxiliaries.
    matches = bool(np.array_equal(qubo.reshape(-1, 1 << n_orig).min(axis=0), hubo_energies))
    projected = set((np.flatnonzero(qubo == qubo.min()) & ((1 << n_orig) - 1)).tolist())
    hubo_ground = set(np.flatnonzero(hubo_energies == hubo_energies.min()).tolist())
    assert not matches or projected == hubo_ground
    return matches


def aux_count_actual(m, l):
    """Auxiliaries the quadratization allocates: m*(3l-2) for l >= 2, else 0
    (quadratize's docstring says why it is not the published m*(2l-2))."""
    return 0 if l == 1 else m * (3 * l - 2)


# The Ising expansion keeps each spin coefficient as an int scaled by 2**degree.


def naive_ising_expand(p):
    """The Ising expansion one (term, subset) pair at a time: a term c * x_T adds
    c * 2**(degree - |T|) * (-1)**|S| into every subset S of T; zero sums are dropped."""
    shift = p.degree()
    acc = {}
    for key, coeff in p.items():
        scaled = coeff << (shift - len(key))
        for size in range(len(key) + 1):
            signed = -scaled if size % 2 else scaled
            for subset in itertools.combinations(key, size):
                acc[subset] = acc.get(subset, 0) + signed
    return {k: v for k, v in acc.items() if v}


def scaled_spin_terms(p):
    """ising_expand's levels as one map: each nonzero spin term's key, a tuple of ints,
    to its coefficient scaled by 2**degree, an int."""
    return {key: v for rows, vals in ising_expand(p) for key, v in zip(map(tuple, rows.tolist()), vals.tolist())}


def spin_terms(p):
    """Nonzero spin coefficients of p under x = (1 - Z)/2, as exact fractions."""
    return {key: Fraction(v, 1 << p.degree()) for key, v in scaled_spin_terms(p).items()}


def evaluate_spin(p, bits):
    """The spin form of p at Z_j = 1 - 2*x_j; it must reproduce p.evaluate(bits)."""
    total = 0
    for key, num in scaled_spin_terms(p).items():
        for v in key:
            num *= 1 - 2 * bits[v]
        total += num
    return Fraction(total, 1 << p.degree())


# The model JSON document, built as a dict, as json.loads reads `to_model_json` output.


def model_doc(prob):
    """The document `json.loads(to_model_json(prob))` reads: one block per degree,
    in ascending degree, whose terms are ordered by key, with coefficients as
    decimal strings and ids flattened d per term; a known kind's metadata with
    the penalty record its kind's rule derives."""
    metadata = dict(prob.meta)
    kind = metadata.get("kind")
    if kind == "onehot_mgc":
        metadata["penalties"] = asdict(onehot_penalties(metadata["n"], metadata["m"], metadata["c_num"]))
    elif kind in LOG_KINDS:
        metadata["penalties"] = asdict(log_penalties(metadata))
    elif kind == "quadratized_log":
        base = log_layout({**metadata, "kind": metadata["base_kind"]})
        metadata["penalties"] = asdict(quadratization_penalties(base))
    terms = sorted(prob.polynomial.items(), key=lambda kv: (len(kv[0]), kv[0]))
    blocks = []
    for degree, group in itertools.groupby(terms, key=lambda kv: len(kv[0])):
        group = list(group)
        blocks.append(
            {
                "coeffs": [str(coeff) for _, coeff in group],
                "degree": degree,
                "vars": [i for key, _ in group for i in key],
            }
        )
    return {
        "num_vars": prob.num_variables,
        "variables": [{"id": i, "role": r} for i, r in enumerate(prob.registry)],
        "terms": blocks,
        "metadata": metadata,
    }
