"""Exact solver and the seeded Metropolis annealer."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import complete_graph, cycle_graph, path_graph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpart import solve
from qpart.errors import DimensionError, ResourceLimitError
from qpart.graphs import Graph
from qpart.logenc import PartitionSpec, encode_general, encode_mgc_log, recover_log_layout
from qpart.onehot import encode_mgc_onehot
from qpart.pbo import Polynomial, ground_states
from qpart.quadratize import quadratize
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
        for beta_start, beta_end in ((0.01, math.inf), (0.01, math.nan), (1e-300, 1e300)):
            with pytest.raises(ValueError):
                AnnealParams(beta_start=beta_start, beta_end=beta_end)

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_single_spin_reaches_boltzmann_distribution(self, beta):
        # h = 1 at a near-constant beta: P(x = 1) = e^-beta / (1 + e^-beta).
        # At beta = 2 a threshold of -ln(u) * beta in place of -ln(u) / beta
        # gives 0.378 instead of 0.119.
        ss = anneal(Polynomial({(0,): 1}), AnnealParams(2000, 50, beta, beta * (1 + 1e-9), seed=0))
        p = math.exp(-beta) / (1 + math.exp(-beta))
        frac = sum(s.bits == (1,) for s in ss.samples) / ss.runs
        assert abs(frac - p) <= 4 * math.sqrt(p * (1 - p) / ss.runs), (frac, p)

    def test_num_vars_below_span_rejected(self):
        prob = encode_mgc_log(P3, 2)
        with pytest.raises(DimensionError, match="smaller than the polynomial's variable span"):
            anneal(prob.polynomial, AnnealParams(runs=1, sweeps=1), prob.num_variables - 1)


# Small, 2**70-sized and 2**1100-sized coefficients; a 2**1100 one puts
# every energy change it enters past float range.
COEFFS = st.one_of(
    st.integers(-30, 30), st.integers(-(2**70), 2**70), st.sampled_from([2**1100, -(2**1100)])
)


@st.composite
def qubos(draw):
    """A random polynomial of degree 0-2, and a num_vars at or up to two past its span."""
    nv = draw(st.integers(1, 8))
    keys = st.lists(st.integers(0, nv - 1), max_size=2)
    poly = Polynomial(draw(st.lists(st.tuples(keys, COEFFS), max_size=16)))
    return poly, nv + draw(st.integers(0, 2))


@st.composite
def hubos(draw):
    """A random polynomial, nearly always of degree 3 or 4, and a num_vars
    at or up to two past its span."""
    nv = draw(st.integers(4, 8))
    keys = st.lists(st.integers(0, nv - 1), max_size=4)
    items = draw(st.lists(st.tuples(keys, COEFFS), max_size=16))
    top = draw(st.lists(st.integers(0, nv - 1), min_size=draw(st.integers(3, 4)), max_size=4, unique=True))
    items.append((top, draw(st.integers(1, 30))))
    return Polynomial(items), nv + draw(st.integers(0, 2))


def naive_kernel(p, nv):
    """Each flip's energy change by evaluating the whole polynomial twice."""

    def run_flips(x, draws):
        for v, threshold in draws:
            flipped = x[:v] + [1 - x[v]] + x[v + 1 :]
            delta = p.evaluate(flipped) - p.evaluate(x)
            if delta <= 0 or delta < threshold:
                x[v] = 1 - x[v]

    return run_flips


class Pinned:
    """Stands in for `st.data()` in an `@example`: every draw is one fixed model."""

    def __init__(self, model):
        self.model = model

    def draw(self, strategy):
        return self.model


# Runs of several draw blocks: 12 variables give blocks of DRAW_BLOCK // 12
# sweeps, two full and a short last one; past DRAW_BLOCK variables a block
# is one sweep (with seed 6, the second run starts with variable DRAW_BLOCK
# unset, so a kernel that never flips it differs).
MULTI_BLOCK = Pinned(
    (Polynomial({(): 1, (0,): 3, (1,): -2, (0, 1): -4, (2, 3): 5, (3, 7): 2, (1, 4, 5): 7, (6, 7, 8, 9): -6, (9, 10, 11): 4}), 12)
)
BLOCK_PER_SWEEP = Pinned((Polynomial({(0,): 1, (0, 1): -3, (1, 2, 3): 2, (solve.DRAW_BLOCK,): -1}), solve.DRAW_BLOCK + 1))


class TestKernel:
    """The annealer against full re-evaluation, draw for draw, on every degree."""

    @pytest.mark.parametrize("models", [qubos(), hubos()], ids=["degree_0_2", "degree_3_4"])
    @given(
        st.data(),
        st.integers(1, 4),
        st.integers(1, 24),
        st.integers(0, 2**32),
        st.sampled_from([(0.01, 10.0), (0.5, 2.0), (1.0, 100.0)]),
    )
    @example(MULTI_BLOCK, 2, 2 * (solve.DRAW_BLOCK // 12) + 18, 5, (0.5, 2.0))
    @example(BLOCK_PER_SWEEP, 2, 2, 6, (0.01, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_reevaluation(self, models, data, runs, sweeps, seed, betas):
        poly, nv = data.draw(models)
        params = AnnealParams(runs, sweeps, betas[0], betas[1], seed)
        naive = solve._anneal_with(naive_kernel(poly, nv), poly.evaluate, params, nv)
        assert anneal(poly, params, nv) == naive


@st.composite
def log_models(draw):
    """A log model on n <= 6 vertices at L = 2..4: minimum colouring, or
    general partitioning with costs that make edge weights zero or negative."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))))
    l = draw(st.integers(2, 4))
    if draw(st.booleans()):
        return encode_mgc_log(g, draw(st.integers((1 << l - 1) + 1, 1 << l)))
    costs = st.integers(-3, 3)
    spec = PartitionSpec(
        alpha={e: draw(costs) for e in g.edges},
        beta={e: draw(costs) for e in g.edges},
        gap=draw(st.one_of(st.none(), st.integers(1, 3))),
    )
    return encode_general(g, spec, l)


class TestLabelKernel:
    """Log HUBOs anneal on label tables, sample for sample as the flip-energy
    kernel does; every other model keeps the flip-energy kernel."""

    @given(log_models(), st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_flip_energy_kernel(self, prob, runs, sweeps, seed):
        p, nv = prob.polynomial, prob.num_variables
        params = AnnealParams(runs, sweeps, seed=seed)
        ss = anneal(p, params, nv)
        assert ss == solve._anneal_with(solve._flip_energy_kernel(p, nv), p.evaluate, params, nv)
        assert all(s.energy == p.evaluate(s.bits) for s in ss.samples)

    def test_chosen_for_log_models(self, monkeypatch):
        def refuse(p, nv):
            raise AssertionError("flip-energy kernel called for a log model")

        monkeypatch.setattr(solve, "_flip_energy_kernel", refuse)
        for c in (4, 8, 16):
            prob = encode_mgc_log(cycle_graph(5), c)
            anneal(prob.polynomial, AnnealParams(runs=2, sweeps=5), prob.num_variables)


def off_by_one(p):
    """p with its largest-degree term's coefficient raised by 1."""
    items = list(p.items())
    top = max(range(len(items)), key=lambda i: len(items[i][0]))
    key, coeff = items[top]
    items[top] = (key, coeff + 1)
    return Polynomial(items)


def model(prob):
    return prob.polynomial, prob.num_variables


LOG_CYCLE = encode_mgc_log(cycle_graph(4), 4)  # L = 2
FALLBACKS = {
    "log_coefficient_off_by_one": (off_by_one(LOG_CYCLE.polynomial), LOG_CYCLE.num_variables),
    "log_padding_variables": (LOG_CYCLE.polynomial, LOG_CYCLE.num_variables + 2),
    "degree_3_hubo": (Polynomial({(0,): 3, (1, 2): -2, (0, 1, 2): -5, (2, 3, 4): 4, (1, 4): 1}), 5),
    "onehot_qubo": model(encode_mgc_onehot(P3, 2)),
    "quadratized_qubo": model(quadratize(encode_mgc_log(P3, 4)).problem),
}


@pytest.mark.parametrize("name", list(FALLBACKS))
def test_other_models_keep_the_flip_energy_kernel(name, monkeypatch):
    p, nv = FALLBACKS[name]

    def refuse(layout):
        raise AssertionError("label kernel called for a model it does not describe")

    monkeypatch.setattr(solve, "_label_kernel", refuse)
    if p.degree() <= 2:
        monkeypatch.setattr(solve, "recover_log_layout", refuse)
    params = AnnealParams(runs=3, sweeps=10, seed=2)
    assert anneal(p, params, nv) == solve._anneal_with(naive_kernel(p, nv), p.evaluate, params, nv)


class TestFlipDraws:
    """The draw stream's layout, rebuilt draw by draw from a second generator
    of the same seed: blocks of whole sweeps, at most DRAW_BLOCK draws but at
    least one sweep, each block's sites drawn before its uniforms."""

    @pytest.mark.parametrize(
        "nv, sweeps, block_sizes",
        [
            (12, 2 * (solve.DRAW_BLOCK // 12) + 18, [solve.DRAW_BLOCK // 12] * 2 + [18]),
            (solve.DRAW_BLOCK + 1, 3, [1, 1, 1]),
        ],
        ids=["short_last_block", "one_sweep_per_block"],
    )
    def test_blocks_of_whole_sweeps_sites_then_uniforms(self, nv, sweeps, block_sizes):
        # a different beta every sweep, so a draw paired with another sweep's beta shows
        betas = np.linspace(0.5, 3.0, sweeps)
        rng = np.random.default_rng(7)
        expected = []
        first = 0
        for size in block_sizes:
            sweep_of_draw = [t for t in range(first, first + size) for _ in range(nv)]
            sites = rng.integers(0, nv, size=len(sweep_of_draw)).tolist()
            minus_log_u = (-np.log(rng.random(size=len(sweep_of_draw)))).tolist()
            expected += [(v, m / float(betas[t])) for v, m, t in zip(sites, minus_log_u, sweep_of_draw)]
            first += size
        assert first == sweeps

        assert list(solve._flip_draws(np.random.default_rng(7), betas, nv)) == expected


class TestHugeEnergyChanges:
    """An uphill change beyond float range is rejected instead of raising."""

    PARAMS = AnnealParams(runs=8, sweeps=20, seed=4)

    def test_flip_energy_kernel_pair_terms(self):
        poly = Polynomial({(0,): 2**1100, (0, 1): -1})
        ss = anneal(poly, self.PARAMS)
        # x0 = 1 costs 2**1100 - 1 or 2**1100: every run ends at x0 = 0
        assert energies(ss) == [0] * self.PARAMS.runs

    def test_flip_energy_kernel_larger_terms(self):
        poly = Polynomial({(0, 1, 2): 2**1100})
        ss = anneal(poly, self.PARAMS)
        assert energies(ss) == [0] * self.PARAMS.runs
        assert ss == solve._anneal_with(naive_kernel(poly, 3), poly.evaluate, self.PARAMS, 3)

    def test_label_kernel(self):
        # agreeing labels on either edge cost 2**1100; L = 2 gives four labels
        spec = PartitionSpec(alpha={(0, 1): 2**1100, (1, 2): 2**1100}, beta={(0, 1): 0, (1, 2): 0}, gap=None)
        prob = encode_general(P3, spec, 2)
        p, nv = prob.polynomial, prob.num_variables
        assert recover_log_layout(p, nv) is not None
        ss = anneal(p, self.PARAMS, nv)
        assert ss == solve._anneal_with(solve._flip_energy_kernel(p, nv), p.evaluate, self.PARAMS, nv)
        assert max(energies(ss)) < 2**1100


class TestSampleSetJson:
    def test_json_shape(self):
        ss = SampleSet((Sample(bits=(0, 1, 0), energy=7),))
        text = ss.to_json()
        assert '"bits": "010"' in text
        assert '"energy": "7"' in text
