"""Logarithmic HUBO encodings: lexicographic penalties, decoding, general partitioning."""

import itertools
import json
import random

import pytest
from conftest import (
    complete_graph,
    connected_graphs_up_to_iso,
    edge_agreement_product,
    feasibility_gap_bruteforce,
    lex_bounds_hold,
    mgc_spec,
    naive_log_hubo_terms,
    path_graph,
    population_of_bits,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpart.errors import DimensionError, InvalidInstanceError, ResourceLimitError
from qpart.graphs import Graph
from qpart.logenc import (
    LogLayout,
    PartitionSpec,
    bits_for_colors,
    decode_log,
    encode_general,
    encode_mgc_log,
    _rebuilds,
    lex_penalties,
    log_hubo_terms,
    log_layout,
    log_penalties,
)
from qpart.model import from_model_json, to_model_json
from qpart.pbo import ENUMERATION_MAX_VARS, Polynomial, _accumulate, ground_states

K3 = complete_graph(3)
P3 = path_graph(3)
K2 = complete_graph(2)


class TestLexPenalties:
    def test_explicit_ladder_values(self):
        pen = lex_penalties(3, 2)
        assert pen.p == (1, 4)
        assert pen.a_adjacency == 16

    def test_single_bit(self):
        pen = lex_penalties(4, 1)
        assert pen.p == (1,)
        assert pen.a_adjacency == 5

    def test_three_bits(self):
        pen = lex_penalties(4, 3)
        assert pen.p == (1, 5, 25)
        assert pen.a_adjacency == 125

    def test_bounds_hold_on_grid(self):
        for n in range(1, 15):
            for l in range(1, 6):
                assert lex_bounds_hold(lex_penalties(n, l), n)

    def test_bits_for_colors(self):
        assert [bits_for_colors(c) for c in (1, 2, 3, 4, 5, 8, 9)] == [1, 1, 2, 2, 3, 3, 4]

    @pytest.mark.parametrize(
        "n, l, gap",
        [(3, 2, 1.5), (3, 2, True), (3, 2, 0), (3.0, 2, 1), (3, 2.0, 1), (True, 2, 1)],
        ids=["gap_float", "gap_bool", "gap_zero", "n_float", "l_float", "n_bool"],
    )
    def test_rejects_non_integers(self, n, l, gap):
        # the model reader refuses a float or bool penalty, so the ladder takes ints only
        with pytest.raises(ValueError):
            lex_penalties(n, l, gap)


class TestEncoding:
    def test_k3_four_colors(self):
        prob = encode_mgc_log(K3, 4)
        assert prob.num_variables == 6
        assert prob.meta["L"] == 2
        assert prob.polynomial.degree() == 4
        energy, states = ground_states(prob.polynomial, prob.num_variables)
        assert energy == 5
        for bits in states:
            assert population_of_bits(bits, 3, 2) == (1, 1)
            coloring = decode_log(prob, bits)
            assert coloring.is_proper(K3)
            assert set(coloring.labels) == {0, 1, 2}

    def test_p3_two_colors(self):
        prob = encode_mgc_log(P3, 2)
        assert prob.num_variables == 3
        energy, states = ground_states(prob.polynomial, prob.num_variables)
        assert energy == 1
        assert states == [(0, 1, 0)]

    def test_edgeless_all_zero(self):
        prob = encode_mgc_log(Graph(3, ()), 4)
        energy, states = ground_states(prob.polynomial, prob.num_variables)
        assert energy == 0
        assert states == [(0,) * 6]
        assert decode_log(prob, states[0]).labels == (0, 0, 0)

    def test_degree_is_twice_bit_count(self):
        for c, expect in ((2, 2), (4, 4), (8, 6)):
            prob = encode_mgc_log(K2, c)
            assert prob.polynomial.degree() == expect

    def test_registry_roles(self):
        prob = encode_mgc_log(P3, 4)
        assert prob.registry[0] == "x[0][1]"
        assert prob.registry[5] == "x[2][2]"

    def test_rejects_nonpositive_colors(self):
        with pytest.raises(ValueError):
            encode_mgc_log(K3, 0)


@st.composite
def term_stream_args(draw):
    """A LogLayout with any ladder, constant, edge subset and edge weights
    over n <= 6 vertices and L <= 4 bits, zero and negative included. Its
    edges join vertices below 6, past n too, as edge_agreement_product's
    n = 0 layouts do."""
    n = draw(st.integers(0, 6))
    l = draw(st.integers(1, 4))
    coeffs = st.integers(-(2**70), 2**70) | st.integers(-3, 3)
    span = draw(st.integers(n, 6))
    pairs = [(u, v) for u in range(span) for v in range(u + 1, span)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # either endpoint order: the map sorts each edge's keys itself
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    weights = draw(st.lists(coeffs, min_size=len(edges), max_size=len(edges)))
    return LogLayout(n, tuple(draw(st.lists(coeffs, min_size=l, max_size=l))), draw(coeffs), edges, weights)


class TestTermStream:
    @given(term_stream_args())
    @settings(max_examples=60, deadline=None)
    def test_keys_are_canonical(self, layout):
        span = max([layout.n, *(1 + max(e) for e in layout.edges)])
        terms = log_hubo_terms(layout)
        assert type(terms) is dict
        for key, coeff in terms.items():
            assert all(a < b for a, b in zip(key, key[1:]))
            assert all(0 <= v < span * len(layout.ladder) for v in key)
            assert coeff != 0

    @given(term_stream_args())
    @settings(max_examples=60, deadline=None)
    def test_trusted_build_matches_constructor(self, layout):
        terms = log_hubo_terms(layout)
        trusted = Polynomial._from_canonical(terms)
        assert list(trusted.items()) == list(Polynomial(terms).items()) == list(terms.items())

    @given(term_stream_args())
    # W_0 = 3 is P_1, so x[0][1] cancels; the weight 5 cancels the constant;
    # an n = 0 layout whose one edge names its endpoints in reverse
    @example(LogLayout(2, (3, 5), 0, [(0, 1)], [3]))
    @example(LogLayout(2, (1, 1), -5, [(1, 0)], [5]))
    @example(LogLayout(0, (0, 0, 0), 0, [(3, 1)], [-(2**70)]))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_template_product(self, layout):
        assert log_hubo_terms(layout) == _accumulate(naive_log_hubo_terms(layout))

    def test_item_order_pinned(self):
        # The order the summed term stream had before the map: single bits bit by bit,
        # x[0][2] and x[2][2] cancelled by W_0 = W_2 = 3; the constant 5 + 3; each
        # weighted endpoint's bit pairs; then the reversed edge's cross monomials.
        # The zero-weight edge writes nothing.
        layout = LogLayout(3, (1, 3), 5, [(2, 0), (0, 1)], [3, 0])
        assert list(log_hubo_terms(layout).items()) == [
            ((0,), -2), ((2,), 1), ((4,), -2), ((3,), 3), ((), 8), ((0, 1), 3), ((4, 5), 3),
            ((0, 4), 6), ((0, 5), 3), ((0, 4, 5), -6), ((1, 4), 3), ((1, 5), 6), ((1, 4, 5), -6),
            ((0, 1, 4), -6), ((0, 1, 5), -6), ((0, 1, 4, 5), 12),
        ]


class TestIndexPopulation:
    def test_all_zeros(self):
        assert population_of_bits((0,) * 6, 3, 2) == (0, 0)

    def test_all_ones(self):
        assert population_of_bits((1,) * 6, 3, 2) == (3, 3)


# Index populations (s_1..s_L) compare lexicographically from the most
# significant bit s_L down, i.e. as the reversed tuples.


class TestLexCompare:
    def test_most_significant_bit_decides(self):
        # s has the high bit unused, t uses it: s is smaller
        assert (1, 0)[::-1] < (0, 1)[::-1]
        assert not (0, 1)[::-1] < (1, 0)[::-1]

    def test_equal(self):
        assert (2, 3)[::-1] == (2, 3)[::-1]

    def test_lower_bits_ignored_when_high_differs(self):
        assert (5, 2)[::-1] < (0, 3)[::-1]

    def test_order_embedding_exhaustive(self):
        # lexicographic energy orders population vectors exactly as the
        # most-significant-first comparison does
        for n in range(1, 7):
            for l in (1, 2, 3):
                pen = lex_penalties(n, l)
                pops = list(itertools.product(range(n + 1), repeat=l))
                energy = {s: sum(pk * sk for pk, sk in zip(pen.p, s)) for s in pops}
                for s in pops:
                    for t in pops:
                        assert (energy[s] < energy[t]) == (s[::-1] < t[::-1])
                        assert (energy[s] == energy[t]) == (s == t)


class TestDecodeLog:
    def test_positional_value(self):
        prob = encode_mgc_log(Graph(1, ()), 4)
        assert decode_log(prob, (0, 1)).labels == (2,)

    def test_all_zeros(self):
        prob = encode_mgc_log(P3, 4)
        assert decode_log(prob, (0,) * 6).labels == (0, 0, 0)

    def test_dimension_mismatch(self):
        prob = encode_mgc_log(P3, 4)
        with pytest.raises(DimensionError):
            decode_log(prob, (0,) * 3)


class TestXnorProduct:
    def test_detects_equality_exactly(self):
        for l in (1, 2, 3):
            prod = edge_agreement_product(0, 1, l)
            for a_bits in itertools.product((0, 1), repeat=l):
                for b_bits in itertools.product((0, 1), repeat=l):
                    bits = a_bits + b_bits
                    assert prod.evaluate(bits) == (1 if a_bits == b_bits else 0)


@st.composite
def integer_partition_args(draw):
    """encode_general arguments with int costs: n <= 5, L <= 3, costs from
    -3..3 and +-2^70 (alpha = beta gives a zero-weight edge), gap None or 1..3."""
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else ())
    cost = st.integers(-3, 3) | st.sampled_from([-(2**70), 2**70])
    alpha = {e: draw(cost) for e in g.edges}
    beta = {e: alpha[e] if draw(st.booleans()) else draw(cost) for e in g.edges}
    gap = draw(st.none() | st.integers(1, 3))
    return g, PartitionSpec(alpha=alpha, beta=beta, gap=gap), draw(st.integers(1, 3))


def _tamper(terms, name, rng):
    """Edit a copy of a term map in place of a hand-edited model file: name one of
    STREAM_TAMPERS; the keys edited are chosen by rng."""
    terms = dict(terms)
    keys = sorted(terms, key=lambda k: (len(k), k))
    if name == "term_deleted" and keys:
        del terms[rng.choice(keys)]
    elif name == "key_added":
        # an id past every vertex's bits, which no part writes
        terms[(1 << 20,)] = 1
    elif name == "coefficient_changed" and keys:
        key = rng.choice(keys)
        terms[key] = terms[key] + 1 or 2
    elif name == "coefficients_swapped" and len(keys) >= 2:
        a, b = rng.sample(keys, 2)
        terms[a], terms[b] = terms[b], terms[a]
    elif name == "constant_changed":
        terms[()] = terms.get((), 0) + 1
        if not terms[()]:
            del terms[()]
    return terms


STREAM_TAMPERS = ["none", "term_deleted", "key_added", "coefficient_changed", "coefficients_swapped", "constant_changed"]


class TestStreamedCheck:
    """_rebuilds compares a model's map with the parts as they stream; it must
    agree with comparing the whole map log_hubo_terms writes."""

    @given(
        term_stream_args() | integer_partition_args().map(lambda args: log_layout(encode_general(*args).meta)),
        st.sampled_from(STREAM_TAMPERS),
        st.randoms(use_true_random=False),
    )
    @example(LogLayout(2, (1, 1), -5, [(1, 0)], [5]), "constant_changed", random.Random(0))
    @example(LogLayout(3, (1, 3), 5, [(2, 0), (0, 1)], [3, 0]), "coefficients_swapped", random.Random(0))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_whole_map(self, layout, tamper, rng):
        terms = _tamper(log_hubo_terms(layout), tamper, rng)
        assert _rebuilds(layout, Polynomial._from_canonical(terms)) == (terms == log_hubo_terms(layout))


class TestGeneralPartition:
    def test_mgc_instantiation_identity(self):
        for g, c in ((K3, 4), (P3, 2), (K2, 4)):
            log_prob = encode_mgc_log(g, c)
            gen_prob = encode_general(g, mgc_spec(g), log_prob.meta["L"])
            assert gen_prob.polynomial == log_prob.polynomial

    def test_no_costs_reduces_to_lexicographic(self):
        spec = PartitionSpec(
            alpha={e: 0 for e in K3.edges}, beta={e: 0 for e in K3.edges}, gap=None
        )
        prob = encode_general(K3, spec, 2)
        energy, states = ground_states(prob.polynomial, prob.num_variables)
        assert energy == 0
        assert states == [(0,) * 6]

    def test_k2_single_bit(self):
        prob = encode_general(K2, mgc_spec(K2), 1)
        assert log_penalties(prob.meta).a_adjacency == 3
        energy, states = ground_states(prob.polynomial, prob.num_variables)
        assert energy == 1
        assert set(states) == {(1, 0), (0, 1)}

    def test_weighted_disagreement_costs(self):
        # beta > alpha rewards agreement: both endpoints take label 0
        spec = PartitionSpec(alpha={(0, 1): 0}, beta={(0, 1): 5}, gap=None)
        prob = encode_general(K2, spec, 1)
        energy, states = ground_states(prob.polynomial, prob.num_variables)
        assert energy == 0
        assert states == [(0, 0)]

    def test_missing_edge_costs_rejected(self):
        with pytest.raises(ValueError):
            encode_general(K3, PartitionSpec(alpha={}, beta={}, gap=1), 2)

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, None], ids=["float", "integral_float", "bool", "none"])
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_non_integer_costs_rejected(self, name, bad):
        # the model reader refuses these costs, so the encoder must not write them
        costs = {"alpha": {(0, 1): 1}, "beta": {(0, 1): 0}, name: {(0, 1): bad}}
        with pytest.raises(ValueError, match=f"{name} needs an integer entry for every edge"):
            encode_general(K2, PartitionSpec(**costs, gap=None), 1)

    def test_non_integer_gap_rejected(self):
        with pytest.raises(ValueError):
            encode_general(K2, PartitionSpec(alpha={(0, 1): 1}, beta={(0, 1): 0}, gap=1.5), 1)

    @given(integer_partition_args())
    @settings(max_examples=40, deadline=None)
    def test_reader_reads_every_encoded_model(self, args):
        g, spec, l = args
        prob = encode_general(g, spec, l)
        text = to_model_json(prob)
        back = from_model_json(text)
        assert back.polynomial == prob.polynomial
        assert back.registry == prob.registry
        pen = log_penalties(prob.meta)
        assert json.loads(text)["metadata"]["penalties"] == {"p": list(pen.p), "a_adjacency": pen.a_adjacency}
        assert back.meta == prob.meta


class TestFeasibilityGap:
    @staticmethod
    def proper_coloring_predicate(g, l):
        def feasible(bits):
            labels = population_free_decode(bits, g.n, l)
            return all(labels[u] != labels[v] for u, v in g.edges)

        return feasible

    def test_mgc_gap_is_one(self):
        for g in (K2, P3, K3):
            l = 2
            gap = feasibility_gap_bruteforce(
                g, mgc_spec(g), l, self.proper_coloring_predicate(g, l)
            )
            assert gap == 1

    def test_unconstrained_returns_none(self):
        spec = PartitionSpec(alpha={e: 0 for e in P3.edges}, beta={e: 0 for e in P3.edges}, gap=None)
        assert feasibility_gap_bruteforce(P3, spec, 1, lambda bits: True) is None

    def test_enumeration_limit(self):
        path = Graph(ENUMERATION_MAX_VARS + 1, tuple((v, v + 1) for v in range(ENUMERATION_MAX_VARS)))
        with pytest.raises(ResourceLimitError):
            feasibility_gap_bruteforce(path, mgc_spec(path), 1, lambda bits: True)

    def test_all_infeasible_is_an_error(self):
        # a triangle cannot be properly 2-colored
        with pytest.raises(InvalidInstanceError):
            feasibility_gap_bruteforce(
                K3, mgc_spec(K3), 1, self.proper_coloring_predicate(K3, 1)
            )


def population_free_decode(bits, n, l):
    return [sum((1 << (k - 1)) * bits[v * l + k - 1] for k in range(1, l + 1)) for v in range(n)]


def test_ground_population_is_lex_minimum_over_feasible_set():
    # Theorem-style check at desk scale: the ground state's index population
    # equals the lexicographic minimum over all feasible assignments.
    for n in (2, 3):
        for g in connected_graphs_up_to_iso(n):
            for c in (2, 4):
                prob = encode_mgc_log(g, c)
                l = prob.meta["L"]
                feasible_pops = [
                    population_of_bits(bits, g.n, l)
                    for bits in itertools.product((0, 1), repeat=g.n * l)
                    if all(
                        population_free_decode(bits, g.n, l)[u]
                        != population_free_decode(bits, g.n, l)[v]
                        for u, v in g.edges
                    )
                ]
                if not feasible_pops:
                    continue
                best = min(feasible_pops, key=lambda s: s[::-1])
                _, states = ground_states(prob.polynomial, prob.num_variables)
                for bits in states:
                    assert population_of_bits(bits, g.n, l) == best
