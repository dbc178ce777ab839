"""Graph construction, random generation, coloring oracles, and I/O."""

import math

import pytest
from conftest import (
    brute_force_chromatic,
    complete_graph,
    connected_graphs_up_to_iso,
    cycle_graph,
    path_graph,
)

from qpart.errors import InvalidInstanceError, ParseError, ResourceLimitError
from qpart.graphs import (
    Coloring,
    Graph,
    brooks_upper_bound,
    chromatic_number_exact,
    generate_random_connected,
    greedy_coloring,
    parse_graph,
    serialize_graph,
)


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInstanceError):
            Graph(3, ((1, 1),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidInstanceError):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(InvalidInstanceError):
            Graph(2, ((0, 2),))

    def test_edges_normalized_sorted(self):
        g = Graph(3, ((2, 1), (1, 0)))
        assert g.edges == ((0, 1), (1, 2))

    def test_connectivity(self):
        assert path_graph(4).is_connected()
        assert not Graph(4, ((0, 1), (2, 3))).is_connected()
        assert Graph(1, ()).is_connected()


class TestRandomGeneration:
    def test_two_vertices_forced_k2(self):
        g = generate_random_connected(2, 0.5, 7)
        assert g.edges == ((0, 1),)

    def test_edge_count_formula(self):
        g = generate_random_connected(4, 0.5, 3)
        assert g.m == max(3, math.floor(0.5 * 6 + 0.5)) == 3

    def test_deterministic(self):
        a = generate_random_connected(4, 0.5, 11)
        b = generate_random_connected(4, 0.5, 11)
        assert a == b

    def test_different_seed_usually_differs(self):
        draws = {generate_random_connected(8, 0.5, s).edges for s in range(10)}
        assert len(draws) > 1

    def test_rejects_tiny_instances(self):
        with pytest.raises(InvalidInstanceError):
            generate_random_connected(1, 0.5, 0)
        with pytest.raises(InvalidInstanceError):
            generate_random_connected(4, 0.0, 0)
        with pytest.raises(InvalidInstanceError):
            generate_random_connected(4, 1.5, 0)

    def test_connected_over_seeded_sweep(self):
        # 1020 draws across the benchmark parameter box
        count = 0
        for n in range(4, 21):
            for density in (0.2, 0.5, 0.8):
                for seed in range(20):
                    g = generate_random_connected(n, density, seed)
                    assert g.is_connected(), (n, density, seed)
                    expect = max(n - 1, math.floor(density * n * (n - 1) / 2 + 0.5))
                    assert g.m == expect
                    count += 1
        assert count >= 1000


class TestBrooksBound:
    def test_complete_graphs(self):
        for n in range(2, 7):
            g = complete_graph(n)
            assert brooks_upper_bound(g) == g.max_degree() + 1 == n

    def test_odd_cycles(self):
        for n in (3, 5, 7):
            assert brooks_upper_bound(cycle_graph(n)) == 3

    def test_even_cycle_uses_delta(self):
        assert brooks_upper_bound(cycle_graph(6)) == 2

    def test_path(self):
        assert brooks_upper_bound(path_graph(3)) == 2

    def test_single_vertex(self):
        assert brooks_upper_bound(Graph(1, ())) == 1

    def test_rejects_disconnected(self):
        with pytest.raises(InvalidInstanceError):
            brooks_upper_bound(Graph(4, ((0, 1), (2, 3))))


class TestChromaticNumber:
    def test_examples(self):
        assert chromatic_number_exact(complete_graph(4)) == 4
        assert chromatic_number_exact(path_graph(3)) == 2
        assert chromatic_number_exact(cycle_graph(5)) == 3

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError):
            chromatic_number_exact(path_graph(13))

    def test_matches_brute_force(self):
        for n in (3, 4, 5):
            for g in connected_graphs_up_to_iso(n):
                assert chromatic_number_exact(g) == brute_force_chromatic(g)

    def test_bound_ordering(self):
        # chi <= greedy color count and chi <= Brooks on every connected graph
        for seed in range(30):
            g = generate_random_connected(4 + seed % 5, 0.5, seed)
            chi = chromatic_number_exact(g)
            assert chi <= greedy_coloring(g).distinct_count()
            assert chi <= brooks_upper_bound(g)


class TestGreedyColoring:
    def test_clique_forces_distinct(self):
        col = greedy_coloring(complete_graph(3), [0, 1, 2])
        assert col.labels == (0, 1, 2)

    def test_edgeless_all_zero(self):
        assert greedy_coloring(Graph(4, ())).labels == (0, 0, 0, 0)

    def test_path_alternates(self):
        assert greedy_coloring(path_graph(3), [0, 1, 2]).labels == (0, 1, 0)

    def test_result_is_proper(self):
        for seed in range(10):
            g = generate_random_connected(7, 0.5, seed)
            assert greedy_coloring(g).is_proper(g)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            greedy_coloring(path_graph(3), [0, 0, 2])


class TestColoring:
    def test_proper_check(self):
        g = path_graph(3)
        assert Coloring((0, 1, 0)).is_proper(g)
        assert not Coloring((0, 0, 1)).is_proper(g)

    def test_distinct_count(self):
        assert Coloring((0, 2, 0)).distinct_count() == 2


class TestSerialization:
    def test_json_exact_bytes(self):
        assert serialize_graph(Graph(2, ((0, 1),)), "json") == '{"n":2,"edges":[[0,1]]}'

    def test_dimacs_parse_k3(self):
        text = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
        assert parse_graph(text, "dimacs") == complete_graph(3)

    def test_dimacs_serialize(self):
        text = serialize_graph(complete_graph(3), "dimacs")
        assert text == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"

    def test_dimacs_comments_ignored(self):
        text = "c a comment\np edge 2 1\nc another\ne 1 2\n"
        assert parse_graph(text, "dimacs") == Graph(2, ((0, 1),))

    @pytest.mark.parametrize("fmt", ["json", "dimacs"])
    def test_round_trip(self, fmt):
        for g in [cycle_graph(5), complete_graph(4), Graph(3, ())]:
            assert parse_graph(serialize_graph(g, fmt), fmt) == g

    def test_round_trip_random(self):
        for seed in range(5):
            g = generate_random_connected(9, 0.4, seed)
            for fmt in ("json", "dimacs"):
                assert parse_graph(serialize_graph(g, fmt), fmt) == g

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("p edge 3 1\ne 1 9\n", "dimacs")
        assert exc.value.line == 2

    def test_parse_error_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("p edge 3 2\ne 1 2\n", "dimacs")

    def test_parse_error_missing_header(self):
        with pytest.raises(ParseError):
            parse_graph("e 1 2\n", "dimacs")

    def test_parse_error_bad_json(self):
        with pytest.raises(ParseError):
            parse_graph("{not json", "json")
        with pytest.raises(ParseError):
            parse_graph('{"n": 2}', "json")

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3.7, "edges": [[0, 1.9], [1, 2]]}',
            '{"n": 3.0, "edges": []}',
            '{"n": true, "edges": []}',
            '{"n": "3", "edges": []}',
            '{"n": 3, "edges": [[0, true]]}',
            '{"n": 3, "edges": [[0, 1.0]]}',
            '{"n": "3", "edges": [["0", "1"]]}',
            '{"n": 3, "edges": [[0, 1, 2]]}',
            '{"n": 3, "edges": ["01"]}',
            '{"n": 3, "edges": {"0": 1}}',
            '{"n": null, "edges": []}',
        ],
    )
    def test_parse_error_non_integer_json(self, text):
        with pytest.raises(ParseError):
            parse_graph(text, "json")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            serialize_graph(Graph(1, ()), "graphml")


def test_iso_distinct_connected_counts():
    # Known counts of connected graphs up to isomorphism
    assert len(connected_graphs_up_to_iso(2)) == 1
    assert len(connected_graphs_up_to_iso(3)) == 2
    assert len(connected_graphs_up_to_iso(4)) == 6
