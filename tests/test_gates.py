"""Ising expansion and CNOT counting: oracle versus closed forms."""

import math
import random
from fractions import Fraction

import pytest
from conftest import (
    add_scaled,
    complete_graph,
    edge_agreement_product,
    evaluate_spin,
    multiply,
    naive_ising_expand,
    spin_terms,
)

from qpart.gates import (
    cnot_count_log_closed,
    cnot_count_onehot_closed,
    cnot_count_oracle,
    ising_expand,
)
from qpart.graphs import generate_random_connected
from qpart.logenc import LogLayout, encode_mgc_log, lex_penalties, log_hubo_terms
from qpart.onehot import encode_mgc_onehot
from qpart.pbo import Polynomial

XNOR = Polynomial({(0, 1): 2, (0,): -1, (1,): -1, (): 1})


class TestIsingExpand:
    def test_single_variable(self):
        sp = spin_terms(Polynomial({(0,): 1}))
        assert sp[()] == Fraction(1, 2)
        assert sp[(0,)] == Fraction(-1, 2)

    def test_product(self):
        sp = spin_terms(Polynomial({(0, 1): 1}))
        assert sp[()] == Fraction(1, 4)
        assert sp[(0,)] == Fraction(-1, 4)
        assert sp[(1,)] == Fraction(-1, 4)
        assert sp[(0, 1)] == Fraction(1, 4)

    def test_xnor_is_half_plus_half_zz(self):
        sp = spin_terms(XNOR)
        assert sp == {(): Fraction(1, 2), (0, 1): Fraction(1, 2)}
        assert sp[()] == Fraction(1, 2)
        assert sp[(0, 1)] == Fraction(1, 2)
        assert sp.get((0,), 0) == 0

    def test_substitution_round_trip(self):
        # evaluating the spin form at Z = 1 - 2x reproduces the original
        rng = random.Random(17)
        for max_vars, bound in ((4, 30), (6, 1 << 70)):
            for _ in range(1000):
                items = [
                    (tuple(rng.sample(range(6), rng.randint(0, max_vars))), rng.randint(-bound, bound))
                    for _ in range(rng.randint(0, 6))
                ]
                p = Polynomial(items)
                bits = tuple(rng.randint(0, 1) for _ in range(6))
                assert evaluate_spin(p, bits) == p.evaluate(bits)


class TestLevelwiseSum:
    """ising_expand against the per-subset loop it replaced."""

    @staticmethod
    def check(p):
        spin = ising_expand(p)
        assert spin == naive_ising_expand(p)
        assert all(type(v) is int and all(type(j) is int for j in key) for key, v in spin.items())
        return spin

    def test_empty_and_constant(self):
        assert self.check(Polynomial()) == {}
        assert self.check(Polynomial({(): -7})) == {(): -7}
        assert self.check(Polynomial({(): 1 << 70})) == {(): 1 << 70}

    def test_cancelled_subsets_are_dropped(self):
        # XNOR is (1 + Z0 Z1) / 2: its Z0 and Z1 sums cancel. The product of
        # two XNORs is (1 + Z0 Z1)(1 + Z2 Z3) / 4, so 12 of its 16 cancel.
        assert self.check(XNOR) == {(): 2, (0, 1): 2}
        xnor23 = {(2, 3): 2, (2,): -1, (3,): -1, (): 1}
        both = Polynomial(multiply(dict(XNOR.items()), xnor23))
        assert self.check(both) == {(): 4, (0, 1): 4, (2, 3): 4, (0, 1, 2, 3): 4}

    def test_random_polynomials_to_degree_8(self):
        # ids past 2**31 and 2**62 pack fewer per sort word than small ones
        rng = random.Random(24)
        for trial in range(600):
            ids = rng.sample(range((16, 1 << 31, 1 << 62)[trial % 3]), 11)
            nv = rng.randint(1, 11)
            bound = (1 << 3, 1 << 40, 1 << 72)[trial // 3 % 3]
            items = [
                (rng.sample(ids[:nv], rng.randint(0, min(nv, 8))), rng.randint(-bound, bound))
                for _ in range(rng.randint(0, 14))
            ]
            if trial % 5 == 0:  # make sure degree 8 itself is reached
                items.append((rng.sample(ids, 8), rng.randint(-bound, bound)))
            self.check(Polynomial(items))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("below", [1, 0], ids=["below_2_63", "at_2_63"])
    def test_sums_at_the_int64_switch(self, sign, below):
        # Two degree-4 terms sharing x1 x2 x3: sum |b_T| * degree is
        # 4 * 2 * |a| = 2**63 - 8 * below, and the empty set's top sum,
        # 4 * F_4(()), reaches 8 * a, one past int64 at 2**63.
        a = sign * ((1 << 60) - below)
        self.check(Polynomial({(0, 1, 2, 3): a, (1, 2, 3, 4): a}))


class TestOracle:
    def test_linear_polynomial_costs_nothing(self):
        report = cnot_count_oracle(Polynomial({(0,): 5, (1,): -2, (): 9}))
        assert report.cnot_count == 0
        assert report.term_histogram == {}

    def test_single_xnor(self):
        report = cnot_count_oracle(XNOR)
        assert report.cnot_count == 2
        assert report.term_histogram == {2: 1}

    def test_edge_product_two_bits(self):
        report = cnot_count_oracle(edge_agreement_product(0, 1, 2))
        assert report.cnot_count == 10
        assert report.term_histogram == {2: 2, 4: 1}

    def test_report_json(self):
        report = cnot_count_oracle(edge_agreement_product(0, 1, 2))
        assert '"cnot": 10' in report.to_json()


class TestClosedForms:
    def test_onehot_values(self):
        assert cnot_count_onehot_closed(3, 2, 2) == 26
        assert cnot_count_onehot_closed(4, 3, 3) == 66
        assert cnot_count_onehot_closed(3, 3, 3) == 54

    def test_log_values(self):
        assert cnot_count_log_closed(2, 1) == 4
        assert cnot_count_log_closed(1, 2) == 10
        assert cnot_count_log_closed(3, 3) == 102

    def test_log_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            cnot_count_log_closed(3, 0)


class TestCrossChecks:
    def test_k3_onehot(self):
        prob = encode_mgc_onehot(complete_graph(3), 3)
        assert cnot_count_oracle(prob.polynomial).cnot_count == 54

    def test_random_graphs_match_closed_forms(self):
        rng = random.Random(23)
        checked = 0
        while checked < 50:
            n = rng.randint(3, 8)
            density = rng.choice((0.3, 0.5, 0.8))
            g = generate_random_connected(n, density, rng.randrange(10_000))
            for c in (2, 3, 4):
                onehot = encode_mgc_onehot(g, c)
                assert (
                    cnot_count_oracle(onehot.polynomial).cnot_count
                    == cnot_count_onehot_closed(g.n, g.m, c)
                )
                log = encode_mgc_log(g, c)
                l = log.meta["L"]
                pen = lex_penalties(g.n, l)
                adjacency = {}
                for u, v in g.edges:
                    agreement = dict(edge_agreement_product(u, v, l).items())
                    adjacency = add_scaled(adjacency, agreement, pen.a_adjacency)
                assert (
                    cnot_count_oracle(Polynomial(adjacency)).cnot_count
                    == cnot_count_log_closed(g.m, l)
                )
                # the lexicographic part is 1-local, so the full Hamiltonian
                # cross-checks too; this also confirms no cancellation occurs
                report = cnot_count_oracle(log.polynomial)
                assert report.cnot_count == cnot_count_log_closed(g.m, l)
                # per-edge subset structure survives intact: one 2s-local
                # term per size-s bit subset per edge
                expected_hist = {
                    2 * s: g.m * math.comb(l, s) for s in range(1, l + 1)
                }
                assert report.term_histogram == expected_hist
            checked += 1

    def test_lexicographic_term_contributes_nothing(self):
        pen = lex_penalties(4, 3)
        report = cnot_count_oracle(Polynomial(log_hubo_terms(LogLayout(4, pen.p, 0, [], []))))
        assert report.cnot_count == 0

    def test_sparse_ratio_growth_with_colors(self):
        # For n = m the ratio reduces to c*(c+3) / (2(L-1)*2^L + 2). It dips
        # once between c=4 and c=8 before the c/log2(c) growth takes over, so
        # the check asserts the dip explicitly and growth from c=8 on.
        ratios = []
        for c in (4, 8, 16, 32, 64):
            n = m = 40
            l = (c - 1).bit_length()
            ratios.append(
                Fraction(cnot_count_onehot_closed(n, m, c), cnot_count_log_closed(m, l))
            )
        assert ratios[1] < ratios[0]
        assert all(a < b for a, b in zip(ratios[1:], ratios[2:]))
        assert ratios[-1] > ratios[0]


def test_histogram_drives_count_identity():
    for poly in (XNOR, edge_agreement_product(0, 1, 3)):
        report = cnot_count_oracle(poly)
        assert report.cnot_count == sum(
            2 * (k - 1) * cnt for k, cnt in report.term_histogram.items()
        )
