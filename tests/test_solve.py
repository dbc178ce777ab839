"""Exact solver and the seeded Metropolis annealer."""

import math
from fractions import Fraction

import pytest
from conftest import complete_graph, path_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from qpart import solve
from qpart.errors import DimensionError, ResourceLimitError
from qpart.logenc import encode_mgc_log
from qpart.pbo import Polynomial, ground_states
from qpart.solve import (
    AnnealParams,
    Sample,
    SampleSet,
    anneal,
)

P3 = path_graph(3)
K3 = complete_graph(3)


def energies(ss):
    return [s.energy for s in ss.samples]


class TestSolveExact:
    def test_single_variable(self):
        min_energy, argmin = ground_states(Polynomial({(0,): 1}))
        assert min_energy == 0
        assert argmin == [(0,)]

    def test_log_k3(self):
        prob = encode_mgc_log(K3, 4)
        min_energy, _ = ground_states(prob.polynomial, prob.num_variables)
        assert min_energy == 5

    def test_degenerate_zero_polynomial(self):
        min_energy, argmin = ground_states(Polynomial(), num_vars=3)
        assert min_energy == 0
        assert len(argmin) == 8

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            ground_states(Polynomial(), num_vars=25)


class TestAnneal:
    def test_deterministic(self):
        prob = encode_mgc_log(P3, 2)
        params = AnnealParams(runs=20, sweeps=50, seed=3)
        a = anneal(prob.polynomial, params, prob.num_variables)
        b = anneal(prob.polynomial, params, prob.num_variables)
        assert a == b

    def test_trivial_landscape_always_solved(self):
        ss = anneal(Polynomial({(0,): 1}), AnnealParams(runs=10, sweeps=100, seed=0))
        assert energies(ss) == [0] * 10

    def test_p3_reaches_optimum(self):
        prob = encode_mgc_log(P3, 2)
        ss = anneal(
            prob.polynomial, AnnealParams(runs=100, sweeps=1000, seed=0), prob.num_variables
        )
        assert min(energies(ss)) == 1

    def test_never_below_exact_minimum(self):
        for prob in (encode_mgc_log(P3, 2), encode_mgc_log(K3, 4)):
            emin, _ = ground_states(prob.polynomial, prob.num_variables)
            ss = anneal(
                prob.polynomial, AnnealParams(runs=30, sweeps=60, seed=1), prob.num_variables
            )
            assert min(energies(ss)) >= emin

    def test_energies_reverify(self):
        prob = encode_mgc_log(K3, 4)
        ss = anneal(
            prob.polynomial, AnnealParams(runs=25, sweeps=40, seed=9), prob.num_variables
        )
        for s in ss.samples:
            assert prob.polynomial.evaluate(s.bits) == s.energy

    def test_success_monotone_in_sweeps(self):
        # averaged over 20 seeds on the two reference instances
        for prob in (encode_mgc_log(P3, 2), encode_mgc_log(K3, 4)):
            emin, _ = ground_states(prob.polynomial, prob.num_variables)
            means = []
            for sweeps in (2, 8, 32, 128):
                total = Fraction(0)
                for seed in range(20):
                    ss = anneal(
                        prob.polynomial,
                        AnnealParams(runs=16, sweeps=sweeps, seed=seed),
                        prob.num_variables,
                    )
                    total += Fraction(sum(e <= emin for e in energies(ss)), ss.runs)
                means.append(total / 20)
            assert all(a <= b for a, b in zip(means, means[1:])), means

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AnnealParams(runs=0)
        with pytest.raises(ValueError):
            AnnealParams(sweeps=0)
        with pytest.raises(ValueError):
            AnnealParams(beta_start=2.0, beta_end=1.0)

    def test_num_vars_below_span_rejected(self):
        prob = encode_mgc_log(P3, 2)
        with pytest.raises(DimensionError, match="smaller than the polynomial's variable span"):
            anneal(prob.polynomial, AnnealParams(runs=1, sweeps=1), prob.num_variables - 1)


@st.composite
def qubos(draw):
    """A random QUBO with small or 2**70-sized coefficients, and a num_vars
    at or up to two past its span."""
    nv = draw(st.integers(1, 8))
    coeffs = st.one_of(st.integers(-30, 30), st.integers(-(2**70), 2**70))
    keys = st.lists(st.integers(0, nv - 1), max_size=2)
    poly = Polynomial(draw(st.lists(st.tuples(keys, coeffs), max_size=16)))
    return poly, nv + draw(st.integers(0, 2))


class TestKernels:
    """The local-field kernel against the per-term reference, draw for draw."""

    @given(
        qubos(),
        st.integers(1, 4),
        st.integers(1, 24),
        st.integers(0, 2**32),
        st.sampled_from([(0.01, 10.0), (0.5, 2.0), (1.0, 100.0)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_local_field_matches_per_term(self, qubo, runs, sweeps, seed, betas):
        poly, nv = qubo
        params = AnnealParams(runs, sweeps, betas[0], betas[1], seed)
        fields = solve._anneal_with(solve._local_field_kernel(poly, nv), poly, params, nv)
        terms = solve._anneal_with(solve._per_term_kernel(poly, nv), poly, params, nv)
        assert fields == terms
        assert anneal(poly, params, nv) == fields


@st.composite
def hubos(draw):
    """A random polynomial, nearly always of degree 3 or 4, with small,
    2**70-sized or 2**1100-sized coefficients, and a num_vars at or up to
    two past its span."""
    nv = draw(st.integers(4, 8))
    coeffs = st.one_of(
        st.integers(-30, 30), st.integers(-(2**70), 2**70), st.sampled_from([2**1100, -(2**1100)])
    )
    keys = st.lists(st.integers(0, nv - 1), max_size=4)
    items = draw(st.lists(st.tuples(keys, coeffs), max_size=16))
    top = draw(st.lists(st.integers(0, nv - 1), min_size=draw(st.integers(3, 4)), max_size=4, unique=True))
    items.append((top, draw(st.integers(1, 30))))
    return Polynomial(items), nv + draw(st.integers(0, 2))


def naive_kernel(p, nv):
    """Each flip's energy change by evaluating the whole polynomial twice."""

    def run_sweeps(x, draws):
        for beta, flips in draws:
            for v, u in flips:
                flipped = x[:v] + [1 - x[v]] + x[v + 1 :]
                delta = p.evaluate(flipped) - p.evaluate(x)
                try:
                    accept = delta <= 0 or u < math.exp(-beta * delta)
                except OverflowError:  # exp of a delta beyond float range is 0.0
                    accept = False
                if accept:
                    x[v] = 1 - x[v]

    return run_sweeps


class TestHuboKernel:
    """The HUBO kernel against full re-evaluation, draw for draw."""

    @given(
        hubos(),
        st.integers(1, 4),
        st.integers(1, 16),
        st.integers(0, 2**32),
        st.sampled_from([(0.01, 10.0), (0.5, 2.0), (1.0, 100.0)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_reevaluation(self, hubo, runs, sweeps, seed, betas):
        poly, nv = hubo
        params = AnnealParams(runs, sweeps, betas[0], betas[1], seed)
        naive = solve._anneal_with(naive_kernel(poly, nv), poly, params, nv)
        assert solve._anneal_with(solve._per_term_kernel(poly, nv), poly, params, nv) == naive
        assert anneal(poly, params, nv) == naive


class TestHugeEnergyChanges:
    """An uphill change beyond float range is rejected instead of raising."""

    PARAMS = AnnealParams(runs=8, sweeps=20, seed=4)

    def test_local_field_kernel(self):
        poly = Polynomial({(0,): 2**1100, (0, 1): -1})
        ss = anneal(poly, self.PARAMS)
        # x0 = 1 costs 2**1100 - 1 or 2**1100: every run ends at x0 = 0
        assert energies(ss) == [0] * self.PARAMS.runs

    def test_per_term_kernel(self):
        poly = Polynomial({(0, 1, 2): 2**1100})
        ss = anneal(poly, self.PARAMS)
        assert energies(ss) == [0] * self.PARAMS.runs
        assert ss == solve._anneal_with(naive_kernel(poly, 3), poly, self.PARAMS, 3)


class TestSampleSetJson:
    def test_json_shape(self):
        ss = SampleSet((Sample(bits=(0, 1, 0), energy=7),))
        text = ss.to_json()
        assert '"bits": "010"' in text
        assert '"energy": "7"' in text
