"""HUBO-to-QUBO reduction: gadget exactness, penalties, auxiliary accounting."""

import copy
import dataclasses
import importlib
from fractions import Fraction

import pytest
from conftest import (
    aux_count_actual,
    complete_graph,
    naive_quadratized_terms,
    path_graph,
    quadratization_bounds_hold,
    quadratization_exact_by_enumeration,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpart.errors import InvalidInstanceError, ResourceLimitError
from qpart.graphs import Graph, generate_random_connected
from qpart.logenc import PartitionSpec, bit_var, encode_general, encode_mgc_log, log_layout, log_penalties
from qpart.model import from_model_json, to_model_json
from qpart.onehot import encode_mgc_onehot
from qpart.pbo import ENUMERATION_MAX_VARS, EncodedProblem, Polynomial, _accumulate, ground_states
from qpart.quadratize import (
    QuadratizationPenalties,
    QuadratizedProblem,
    aux_count_paper,
    manifold_extension,
    quadratization_penalties,
    quadratize,
    qubit_advantage_predicate,
    verify_quadratization,
)

K2 = complete_graph(2)
P3 = path_graph(3)
K3 = complete_graph(3)
# one alpha = beta edge (zero weight: gadgets but no product term) and one
# beta > alpha edge (negative weight)
P3_SPEC = PartitionSpec(alpha={(0, 1): 1, (1, 2): 0}, beta={(0, 1): 1, (1, 2): 2})
K3_SPEC = PartitionSpec(alpha=dict.fromkeys(K3.edges, 0), beta=dict.fromkeys(K3.edges, 2), gap=2)


def role_counts(quad):
    """How many auxiliaries of each family the registry names."""
    return {role: sum(r.startswith(f"{role}[") for r in quad.problem.registry) for role in "wyb"}


class TestQuadratize:
    def test_single_bit_passthrough(self):
        hubo = encode_mgc_log(K2, 2)
        quad = quadratize(hubo)
        assert quad.total_aux == 0
        assert quad.problem.polynomial == hubo.polynomial
        assert quad.problem.kind == "quadratized_log"

    def test_k2_two_bits(self):
        hubo = encode_mgc_log(K2, 4)
        quad = quadratize(hubo)
        assert role_counts(quad) == {"w": 2, "y": 2, "b": 0}
        assert quad.problem.num_variables == 8
        assert verify_quadratization(hubo, quad).passed
        assert 1 << quad.num_original_vars == 16

    def test_single_edge_three_bits_aux_count(self):
        hubo = encode_mgc_log(K2, 8)
        quad = quadratize(hubo)
        assert quad.total_aux == 7
        assert role_counts(quad) == {"w": 3, "y": 3, "b": 1}

    def test_degree_bounded_everywhere(self):
        for g in (K2, P3, complete_graph(3)):
            for c in (2, 4, 8):
                quad = quadratize(encode_mgc_log(g, c))
                assert quad.problem.polynomial.degree() <= 2

    def test_registry_roles_and_backmap(self):
        hubo = encode_mgc_log(K2, 4)
        quad = quadratize(hubo)
        roles = quad.problem.registry
        assert roles[: quad.num_original_vars] == hubo.registry
        assert "w[0][1]" in roles and "y[0][2]" in roles
        quad3 = quadratize(encode_mgc_log(K2, 8))
        assert "b[0][1]" in quad3.problem.registry

    @pytest.mark.parametrize(
        "build",
        [
            *(lambda l=l: encode_mgc_log(K3, 1 << l) for l in (1, 2, 3, 4)),
            lambda: encode_general(K3, K3_SPEC, 2),
            lambda: encode_mgc_log(Graph(3, ()), 4),
        ],
        ids=["mgc_L1", "mgc_L2", "mgc_L3", "mgc_L4", "general_L2", "edgeless_c4"],
    )
    def test_metadata_is_the_hubo_metadata_plus_kinds(self, build):
        # the QUBO, the registry and the HUBO's own metadata describe the rest
        hubo = build()
        prob = quadratize(hubo).problem
        assert prob.meta == {**hubo.meta, "kind": "quadratized_log", "base_kind": hubo.kind}
        assert from_model_json(to_model_json(prob)) == prob

    def test_builders_write_canonical_keys(self):
        # both builders write their keys without sorting them, so each must be written increasing
        models = [encode_mgc_onehot(g, c) for g in (P3, complete_graph(4)) for c in (1, 3)]
        for l in (2, 3, 4):
            models.append(quadratize(encode_mgc_log(complete_graph(4), 1 << l)).problem)
            models.append(quadratize(encode_general(P3, P3_SPEC, l)).problem)
        for prob in models:
            for key, _ in prob.polynomial.items():
                assert all(a < b for a, b in zip(key, key[1:])), (prob.kind, key)

    def test_deterministic(self):
        a = quadratize(encode_mgc_log(P3, 4))
        b = quadratize(encode_mgc_log(P3, 4))
        assert a.problem.polynomial == b.problem.polynomial
        assert a.problem.registry == b.problem.registry

    def test_rejects_onehot_input(self):
        with pytest.raises(ValueError):
            quadratize(encode_mgc_onehot(K2, 2))

    def test_rejects_metadata_bit_count_disagreeing_with_ladder(self):
        hubo = encode_mgc_log(P3, 4)
        tampered = EncodedProblem(hubo.polynomial, hubo.registry, {**hubo.meta, "L": 3})
        with pytest.raises(InvalidInstanceError):
            quadratize(tampered)

    @pytest.mark.parametrize("tamper", ["edge_coeff_off_by_one", "extra_key", "term_deleted"])
    def test_rejects_polynomial_metadata_does_not_rebuild(self, tamper):
        # one term map edit each; every other key and coefficient is intact
        hubo = encode_mgc_log(P3, 4)
        terms = dict(hubo.polynomial.items())
        if tamper == "edge_coeff_off_by_one":
            terms[(0, 1, 2, 3)] += 1  # edge (0, 1)'s top monomial
        elif tamper == "extra_key":
            terms[(0, 4)] = 1  # bits of vertices 0 and 2, which share no edge
        else:
            del terms[(1, 2)]
        tampered = EncodedProblem(Polynomial(terms), hubo.registry, hubo.meta)
        with pytest.raises(InvalidInstanceError):
            quadratize(tampered)

    @pytest.mark.parametrize(
        "build, edit",
        [
            (lambda: encode_mgc_log(P3, 4), lambda meta: meta["edges"][0].reverse()),
            (lambda: encode_mgc_log(P3, 4), lambda meta: meta.update(edges=[["0", "1"], ["1", "2"]])),
            (lambda: encode_general(P3, P3_SPEC, 2), lambda meta: meta.pop("alpha")),
        ],
        ids=["edge_reversed", "string_edge_ids", "general_without_alpha"],
    )
    def test_rejects_metadata_the_model_reader_rejects(self, build, edit):
        # the same rules as the JSON loader, on a model that never was JSON
        hubo = build()
        meta = copy.deepcopy(dict(hubo.meta))
        edit(meta)
        with pytest.raises(InvalidInstanceError):
            quadratize(EncodedProblem(hubo.polynomial, hubo.registry, meta))

    def test_rejects_registry_longer_than_bits(self):
        # auxiliary ids start right after the n*L originals, so an extra
        # variable would shift every auxiliary role by one
        hubo = encode_mgc_log(K2, 4)
        padded = EncodedProblem(hubo.polynomial, hubo.registry + ("extra",), hubo.meta)
        with pytest.raises(InvalidInstanceError):
            quadratize(padded)


@st.composite
def hubos(draw):
    """A log HUBO on 1 to 5 vertices with any edge subset and L = 2..5: minimum colouring,
    or partition costs -3..3 (so zero and negative weights) with gap 1, 2 or None."""
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ()))
    l = draw(st.integers(2, 5))
    if draw(st.booleans()):
        return encode_mgc_log(g, 1 << l)
    alpha, beta = ({e: draw(st.integers(-3, 3)) for e in g.edges} for _ in range(2))
    return encode_general(g, PartitionSpec(alpha, beta, draw(st.sampled_from([1, 2, None]))), l)


class TestClosedForm:
    @given(hubos())
    # vertex 2 is isolated; an edgeless graph; L = 2, whose chain is empty, on P3's
    # zero-weight and negative-weight edges
    @example(encode_mgc_log(Graph(3, ((0, 1),)), 8))
    @example(encode_mgc_log(Graph(2, ()), 16))
    @example(encode_general(P3, P3_SPEC, 2))
    @settings(max_examples=60, deadline=None)
    def test_matches_gadget_stream(self, hubo):
        poly = quadratize(hubo).problem.polynomial
        assert poly == Polynomial._from_canonical(_accumulate(naive_quadratized_terms(log_layout(hubo.meta))))
        for key, coeff in poly.items():
            assert all(a < b for a, b in zip(key, key[1:])) and coeff != 0


class TestVerification:
    def test_p3_two_bits(self):
        hubo = encode_mgc_log(P3, 4)
        quad = quadratize(hubo)
        report = verify_quadratization(hubo, quad)
        assert report.passed
        hubo_min, _ = ground_states(hubo.polynomial, hubo.num_variables)
        assert ground_states(quad.problem.polynomial, quad.problem.num_variables)[0] == hubo_min

    def test_sabotaged_stage1_penalty_detected(self, monkeypatch):
        hubo = encode_mgc_log(K2, 4)
        good = quadratization_penalties(log_layout(hubo.meta))
        bad = QuadratizationPenalties(
            m_product=good.m_product, m_stage1=1, m_stage2=good.m_stage2
        )
        module = importlib.import_module("qpart.quadratize")
        monkeypatch.setattr(module, "quadratization_penalties", lambda *_: bad)
        report = verify_quadratization(hubo, quadratize(hubo))
        assert not report.passed

    def test_ground_energy_preserved(self):
        hubo = encode_mgc_log(P3, 4)
        quad = quadratize(hubo)
        assert verify_quadratization(hubo, quad).passed
        # coloring 0,1,0 costs one low bit
        assert ground_states(quad.problem.polynomial, quad.problem.num_variables)[0] == 1

    def test_on_manifold_energy_equality(self):
        import itertools

        hubos = [encode_mgc_log(g, c) for g, c in ((K2, 2), (K2, 8), (P3, 4), (K2, 16))]
        for hubo in hubos + [encode_general(P3, P3_SPEC, 2)]:
            quad = quadratize(hubo)
            for original in itertools.product((0, 1), repeat=quad.num_original_vars):
                extended = manifold_extension(quad, original)
                assert quad.problem.polynomial.evaluate(extended) == hubo.polynomial.evaluate(
                    original
                )


def with_terms(quad, added, new_aux=0):
    """quad plus the `added` terms, over its variables and `new_aux` new auxiliaries."""
    prob = quad.problem
    terms = dict(prob.polynomial.items())
    for key, coeff in added.items():
        terms[key] = terms.get(key, 0) + coeff
    registry = prob.registry + tuple(f"z[{i}]" for i in range(new_aux))
    return QuadratizedProblem(EncodedProblem(Polynomial(terms), registry, prob.meta))


# On P3 at c = 4 the originals are 0..5 and w[0][1], w[1][1] are 6 and 10.
# A unit Rosenberg gadget z = w[0][1]*w[1][1] on a new auxiliary 14 is zero
# at its best z, so it couples the two edges and leaves the minimum alone.
COUPLING_GADGET = {(6, 10): 1, (6, 14): -2, (10, 14): -2, (14,): 3}
# On K2 at c = 4 (8 variables): two new blocks with the same relabelled terms
# but one original (min over z of x0 - x0*z is 0) and none (min of 1 - z*z' is 0).
TWIN_BLOCKS = {(0,): 1, (0, 8): -1, (): 1, (9, 10): -1}

# name: (HUBO builder, edit of the true penalty tiers, edit of the QUBO, whether the proof passes)
PROOF_CASES = {
    **{
        f"mgc_{name}_c{c}": (lambda g=g, c=c: encode_mgc_log(g, c), None, None, True)
        for name, g in (("K2", K2), ("P3", P3), ("K3", K3))
        for c in (2, 4, 8)
        if (name, c) != ("K3", 8)  # 30 variables, past enumeration
    },
    **{f"general_P3_L{l}": (lambda l=l: encode_general(P3, P3_SPEC, l), None, None, True) for l in (1, 2, 3)},
    "product_tier_equal_to_stage1": (
        lambda: encode_mgc_log(P3, 8), lambda t: dataclasses.replace(t, m_product=t.m_stage1), None, False
    ),
    "stage1_tier_one": (lambda: encode_mgc_log(P3, 8), lambda t: dataclasses.replace(t, m_stage1=1), None, False),
    "stage2_tier_one_L3": (lambda: encode_mgc_log(P3, 8), lambda t: dataclasses.replace(t, m_stage2=1), None, False),
    # at L = 2 there is no chain link, so the stage-2 tier guards nothing
    "stage2_tier_one_L2": (lambda: encode_mgc_log(P3, 4), lambda t: dataclasses.replace(t, m_stage2=1), None, True),
    "edges_coupled_by_term": (lambda: encode_mgc_log(P3, 4), None, lambda q: with_terms(q, {(6, 10): 1}), False),
    "edges_coupled_by_gadget": (
        lambda: encode_mgc_log(P3, 4), None, lambda q: with_terms(q, COUPLING_GADGET, 1), True
    ),
    "twin_blocks_of_different_originals": (
        lambda: encode_mgc_log(K2, 4), None, lambda q: with_terms(q, TWIN_BLOCKS, 3), True
    ),
}


@pytest.mark.parametrize("name", list(PROOF_CASES))
def test_proof_agrees_with_enumeration(monkeypatch, name):
    make_hubo, edit_tiers, edit_quad, expected = PROOF_CASES[name]
    if edit_tiers:
        module = importlib.import_module("qpart.quadratize")
        monkeypatch.setattr(module, "quadratization_penalties", lambda *a: edit_tiers(quadratization_penalties(*a)))
    hubo = make_hubo()
    quad = quadratize(hubo)
    if edit_quad:
        quad = edit_quad(quad)
    assert quad.problem.num_variables <= ENUMERATION_MAX_VARS
    assert quadratization_exact_by_enumeration(hubo, quad) is expected
    assert verify_quadratization(hubo, quad).passed is expected


RANDOM_12 = generate_random_connected(12, 0.5, 0)


class TestProofBeyondEnumeration:
    def test_passes(self):
        for g, c, size in ((K3, 8, 30), (RANDOM_12, 16, 378)):
            hubo = encode_mgc_log(g, c)
            quad = quadratize(hubo)
            assert quad.problem.num_variables == size
            assert verify_quadratization(hubo, quad).passed

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("family", ["ladder", "w_gadget", "y_gadget", "b_link", "edge_product"])
    def test_rejects_one_coefficient_edit(self, family, delta):
        hubo = encode_mgc_log(RANDOM_12, 16)
        quad = quadratize(hubo)
        ids = quad.problem.registry.index
        key = {
            "ladder": (bit_var(0, 0, 4),),
            "w_gadget": (ids("w[0][1]"),),
            "y_gadget": (ids("y[0][1]"),),
            "b_link": (ids("b[0][1]"),),
            "edge_product": (ids("y[0][4]"), ids("b[0][2]")),  # y ids precede b ids
        }[family]
        assert key in dict(quad.problem.polynomial.items())
        assert not verify_quadratization(hubo, with_terms(quad, {key: delta})).passed

    def test_block_past_enumeration_limit_raises(self):
        # one edge at L = 6: a block of 5L - 2 = 28 variables
        hubo = encode_mgc_log(K2, 64)
        with pytest.raises(ResourceLimitError):
            verify_quadratization(hubo, quadratize(hubo))


class TestPenaltyRecord:
    def test_bounds_hold_by_construction(self):
        for g, c in ((K2, 4), (P3, 4), (complete_graph(3), 8)):
            hubo = encode_mgc_log(g, c)
            pen = log_penalties(hubo.meta)
            assert quadratization_bounds_hold(
                quadratization_penalties(log_layout(hubo.meta)), pen.a_adjacency, g.n, sum(pen.p)
            )

    def test_matches_closed_form_for_default_ladder(self):
        # with the explicit ladder, the tier equals 2((n+1)^L - 1) + 2
        for n, l in ((2, 2), (3, 2), (4, 3)):
            tiers = quadratization_penalties(log_layout({"kind": "log_mgc", "n": n, "L": l, "edges": [[0, 1]]}))
            assert tiers.m_stage1 == 2 * ((n + 1) ** l - 1) + 2
            assert tiers.m_product == 3 * tiers.m_stage1


class TestAuxCounts:
    def test_paper_formula(self):
        assert aux_count_paper(5, 3) == 20
        assert aux_count_paper(7, 1) == 0

    def test_actual_vs_paper_single_edge(self):
        assert aux_count_paper(1, 2) == 2
        assert aux_count_actual(1, 2) == 4

    def test_actual_matches_construction(self):
        for g, c in ((K2, 4), (P3, 4), (K2, 8), (P3, 8)):
            hubo = encode_mgc_log(g, c)
            quad = quadratize(hubo)
            assert quad.total_aux == aux_count_actual(g.m, hubo.meta["L"])


class TestQubitAdvantage:
    def test_small_example(self):
        advantage, log_count, onehot_count = qubit_advantage_predicate(4, 6, 4)
        assert advantage is True
        assert onehot_count == 20
        assert log_count == 4 * 2 + 6 * 2

    def test_large_true_and_false(self):
        assert qubit_advantage_predicate(100, 600, 64)[0] is True
        assert qubit_advantage_predicate(100, 700, 64)[0] is False

    def test_single_bit_always_true(self):
        advantage, log_count, onehot_count = qubit_advantage_predicate(10, 45, 2)
        assert advantage is True
        assert log_count == 10 and onehot_count == 22

    def test_matches_exact_rational_threshold(self):
        for n in range(2, 30, 3):
            for c in (3, 4, 8, 16):
                for m in range(0, min(3 * n, n * (n - 1) // 2 + 1), 2):
                    advantage, _, onehot_count = qubit_advantage_predicate(n, m, c)
                    l = max(1, (c - 1).bit_length())
                    expected = m < Fraction(onehot_count - l, 2 * (l - 1))
                    assert advantage == expected

    def test_published_inequality_is_looser_than_count_comparison(self):
        # the published crossover admits points where the published counts
        # do not actually favor the logarithmic encoding
        advantage, log_count, onehot_count = qubit_advantage_predicate(100, 600, 64)
        assert advantage is True
        assert log_count > onehot_count

    def test_rejects_trivial_color_bound(self):
        cases = [(4, 3, 1), (-5, 3, 4), (0, 3, 4), (4, -3, 4)]
        # more edges than a simple graph on n vertices has
        cases += [(n, m, c) for n, m in ((2, 2), (2, 4), (5, 12), (5, 14)) for c in (3, 4, 8, 16)]
        for n, m, c in cases:
            with pytest.raises(ValueError):
                qubit_advantage_predicate(n, m, c)


def test_general_partition_quadratization_with_negative_weights():
    # beta > alpha makes the per-edge product coefficient negative; the
    # penalty tiers must still dominate
    from qpart.logenc import PartitionSpec, encode_general

    g = Graph(2, ((0, 1),))
    spec = PartitionSpec(alpha={(0, 1): 0}, beta={(0, 1): 2}, gap=None)
    hubo = encode_general(g, spec, 2)
    quad = quadratize(hubo)
    report = verify_quadratization(hubo, quad)
    assert report.passed
