"""One-hot QUBO encoding: penalties, ground states, decoding, property checks."""

import pytest
from conftest import (
    check_properties_onehot,
    complete_graph,
    connected_graphs_up_to_iso,
    naive_onehot_terms,
    onehot_bounds_hold,
    path_graph,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpart import onehot

from qpart.errors import DimensionError
from qpart.graphs import Coloring, Graph, chromatic_number_exact
from qpart.onehot import (
    decode_onehot,
    encode_mgc_onehot,
    onehot_penalties,
    x_var,
    y_var,
)
from qpart.pbo import _accumulate, ground_states

K3 = complete_graph(3)
P3 = path_graph(3)


class TestPenalties:
    def test_explicit_choice_values(self):
        pen = onehot_penalties(3, 3, 3)
        assert (pen.a_link, pen.a_adjacency, pen.a_onehot) == (4, 13, 64)

    def test_single_vertex_values(self):
        pen = onehot_penalties(1, 0, 1)
        assert (pen.a_link, pen.a_adjacency, pen.a_onehot) == (2, 3, 5)

    def test_bounds_hold_on_grid(self):
        for n in range(1, 12):
            for m in (0, 1, n, 3 * n):
                for c in range(1, n + 2):
                    assert onehot_bounds_hold(onehot_penalties(n, m, c), m, c)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            onehot_penalties(0, 0, 1)

    @pytest.mark.parametrize(
        "n, m, c",
        [(3, 3, 2.5), (3.0, 3, 2), (3, 3.0, 2), (3, 3, True), (True, 0, 1), (3, False, 2)],
        ids=["c_float", "n_float", "m_float", "c_bool", "n_bool", "m_bool"],
    )
    def test_rejects_non_integers(self, n, m, c):
        # the model reader passes c_num straight from a file; 2.5 would give
        # a_adjacency 11.0, and True the record for c = 1
        with pytest.raises(ValueError, match="need integers"):
            onehot_penalties(n, m, c)


class TestEncoding:
    def test_variable_count_and_degree(self):
        prob = encode_mgc_onehot(K3, 3)
        assert prob.num_variables == (3 + 1) * 3 == 12
        assert prob.polynomial.degree() == 2
        assert prob.registry[x_var(1, 2, 3)] == "x[1][2]"
        assert prob.registry[y_var(0, 3, 3)] == "y[0]"

    def test_k3_ground_energy_is_chromatic_number(self):
        prob = encode_mgc_onehot(K3, 3)
        energy, states = ground_states(prob.polynomial, prob.num_variables)
        assert energy == 3
        for bits in states:
            report = check_properties_onehot(prob, bits)
            assert report.all_satisfied()
            assert report.colors_used == 3
            decoded = decode_onehot(prob, bits)
            assert isinstance(decoded, Coloring)
            assert decoded.is_proper(K3)
            assert decoded.distinct_count() == 3

    def test_p3_ground_energy(self):
        prob = encode_mgc_onehot(P3, 2)
        assert prob.num_variables == 8
        energy, states = ground_states(prob.polynomial, prob.num_variables)
        assert energy == 2
        for bits in states:
            report = check_properties_onehot(prob, bits)
            assert report.all_satisfied()
            assert report.colors_used == 2

    def test_single_vertex_single_color(self):
        prob = encode_mgc_onehot(Graph(1, ()), 1)
        energy, _ = ground_states(prob.polynomial, prob.num_variables)
        assert energy == 1

    def test_rejects_nonpositive_colors(self):
        with pytest.raises(ValueError):
            encode_mgc_onehot(K3, 0)


@st.composite
def graphs_and_colors(draw):
    """A graph on 1 to 6 vertices with any edge subset, and a colour bound of 1 to 5."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, tuple(edges)), draw(st.integers(1, 5))


class TestClosedForm:
    @given(graphs_and_colors())
    @example((Graph(1, ()), 1))
    @example((Graph(1, ()), 2))
    @example((P3, 1))
    @example((K3, 2))
    @settings(max_examples=60, deadline=None)
    def test_matches_term_stream(self, args):
        g, c = args
        terms = dict(encode_mgc_onehot(g, c).polynomial.items())
        assert terms == _accumulate(naive_onehot_terms(g, c))
        assert all(a < b for key in terms for a, b in zip(key, key[1:]))

    @pytest.mark.parametrize(
        "g, c",
        [(Graph(1, ()), 1), (Graph(1, ()), 3), (P3, 1), (P3, 2), (K3, 4), (complete_graph(5), 3)],
        ids=["K1_c1", "K1_c3", "P3_c1", "P3_c2", "K3_c4", "K5_c3"],
    )
    def test_term_limit_counts_the_keys(self, g, c, monkeypatch):
        # the count checked against MAX_BUILD_TERMS is the number of keys built
        counts = []
        monkeypatch.setattr(onehot, "check_build_terms", counts.append)
        prob = encode_mgc_onehot(g, c)
        assert counts == [len(list(prob.polynomial.items()))]


class TestDecoding:
    def test_all_zeros_reports_every_vertex(self):
        prob = encode_mgc_onehot(K3, 3)
        assert decode_onehot(prob, (0,) * 12) == [0, 1, 2]

    def test_double_set_vertex_reported(self):
        prob = encode_mgc_onehot(K3, 3)
        bits = [0] * 12
        bits[x_var(0, 0, 3)] = 1
        bits[x_var(0, 1, 3)] = 1
        bits[x_var(1, 0, 3)] = 1
        bits[x_var(2, 1, 3)] = 1
        assert decode_onehot(prob, tuple(bits)) == [0]

    def test_dimension_mismatch(self):
        prob = encode_mgc_onehot(K3, 3)
        with pytest.raises(DimensionError):
            decode_onehot(prob, (0,) * 5)

    def test_unfaithful_indicator_detected(self):
        prob = encode_mgc_onehot(P3, 2)
        bits = [0] * 8
        # proper one-hot coloring 0,1,0 but y left all-zero
        bits[x_var(0, 0, 2)] = 1
        bits[x_var(1, 1, 2)] = 1
        bits[x_var(2, 0, 2)] = 1
        report = check_properties_onehot(prob, tuple(bits))
        assert report.one_hot_satisfied and report.proper_coloring
        assert not report.indicator_faithful
        assert report.colors_used == 0


def test_theorem_ground_state_properties_small_family():
    # every ground state of every connected graph on <= 3 vertices satisfies
    # the four penalty-theorem properties with energy equal to chi
    for n in (2, 3):
        for g in connected_graphs_up_to_iso(n):
            chi = chromatic_number_exact(g)
            for c in sorted({chi, g.n}):
                prob = encode_mgc_onehot(g, c)
                energy, states = ground_states(prob.polynomial, prob.num_variables)
                assert energy == chi
                for bits in states:
                    assert check_properties_onehot(prob, bits).all_satisfied()
