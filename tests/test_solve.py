"""Exact solver and the seeded Metropolis annealer."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import complete_graph, cycle_graph, path_graph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpart import solve
from qpart.errors import DimensionError, ResourceLimitError
from qpart.graphs import Graph
from qpart.logenc import PartitionSpec, checked_log_layout, encode_general, encode_mgc_log
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
        with pytest.raises(ValueError, match="seed"):
            AnnealParams(seed=-1)
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


def naive_kernel(p, nv, order=None):
    """Each flip's energy change by evaluating the whole polynomial twice,
    one run and one variable at a time. A sweep visits the variables in
    `order`, by default the colour classes' order the class kernel follows;
    a flip is accepted when its change is below its threshold. The final
    states are scored by p.evaluate."""
    if order is None:
        order = [v for members in solve._colour_classes(p, nv) for v in members]

    def kernel(x, blocks):
        for block in blocks:
            for run, run_block in zip(x, block.tolist()):
                bits = run.view(np.uint8).tolist()
                for thresholds in run_block:
                    for v in order:
                        flipped = bits[:v] + [1 - bits[v]] + bits[v + 1 :]
                        if p.evaluate(flipped) - p.evaluate(bits) < thresholds[v]:
                            bits[v] = 1 - bits[v]
                run[:] = bits
        return [p.evaluate(bits) for bits in x.view(np.uint8).tolist()]

    return kernel


class Pinned:
    """Stands in for `st.data()` in an `@example`: every draw is one fixed model."""

    def __init__(self, model):
        self.model = model

    def draw(self, strategy):
        return self.model


# Runs of several draw blocks: 2 runs of 12 variables give blocks of
# DRAW_BLOCK // 24 sweeps, two full and a short last one.
MULTI_BLOCK = Pinned(
    (Polynomial({(): 1, (0,): 3, (1,): -2, (0, 1): -4, (2, 3): 5, (3, 7): 2, (1, 4, 5): 7, (6, 7, 8, 9): -6, (9, 10, 11): 4}), 12)
)


# Pair-term models on either side of the spin state's bound, with variable
# 0's |h_0| + sum |c| at 2**53 - 1 in the first, which anneals on float
# bits, and at 2**52 - 2 in the second, whose spin coefficients are odd
# halves near 2**50. At x = 0, variable 0's field is 2. On spins, the first
# model's constant coefficient -(2**52 + 1/2) would round, the field would
# read 1.5, and some uphill flips would be accepted wrongly.
BITS_FIELDS = (Polynomial({(0,): 2, (0, 1): 2**52 - 1, (0, 2): 2**52 - 2}), 3)
SPIN_FIELDS = (Polynomial({(0,): 2, (0, 1): 2**51 - 1, (0, 2): 2**51 - 3}), 3)


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
    @example(MULTI_BLOCK, 2, 2 * (solve.DRAW_BLOCK // 24) + 18, 5, (0.5, 2.0))
    @example(Pinned(BITS_FIELDS), 8, 40, 3, (0.5, 2.0))
    @example(Pinned(SPIN_FIELDS), 8, 40, 3, (0.5, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_reevaluation(self, models, data, runs, sweeps, seed, betas):
        poly, nv = data.draw(models)
        params = AnnealParams(runs, sweeps, betas[0], betas[1], seed)
        naive = solve._anneal_with(naive_kernel(poly, nv), params, nv)
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
    """Log layouts anneal on label tables, sample for sample as full
    re-evaluation of their polynomial in id order does; every polynomial
    anneals on colour classes."""

    @given(log_models(), st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_reevaluation(self, prob, runs, sweeps, seed):
        p, nv = prob.polynomial, prob.num_variables
        params = AnnealParams(runs, sweeps, seed=seed)
        ss = anneal(checked_log_layout(prob), params)
        assert ss == solve._anneal_with(naive_kernel(p, nv, range(nv)), params, nv)
        assert all(s.energy == p.evaluate(s.bits) for s in ss.samples)

    def test_chosen_for_log_models(self, monkeypatch):
        def refuse(p, nv):
            raise AssertionError("class kernel called for a log layout")

        monkeypatch.setattr(solve, "_class_kernel", refuse)
        for c in (4, 8, 16):
            prob = encode_mgc_log(cycle_graph(5), c)
            anneal(checked_log_layout(prob), AnnealParams(runs=2, sweeps=5), prob.num_variables)

    def test_num_vars_must_be_the_layouts_bits(self):
        layout = checked_log_layout(LOG_CYCLE)
        with pytest.raises(DimensionError, match="not the layout's 8 bits"):
            anneal(layout, AnnealParams(runs=1, sweeps=1), LOG_CYCLE.num_variables + 2)


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
    "log_polynomial": model(LOG_CYCLE),
    "log_coefficient_off_by_one": (off_by_one(LOG_CYCLE.polynomial), LOG_CYCLE.num_variables),
    "log_padding_variables": (LOG_CYCLE.polynomial, LOG_CYCLE.num_variables + 2),
    "degree_3_hubo": (Polynomial({(0,): 3, (1, 2): -2, (0, 1, 2): -5, (2, 3, 4): 4, (1, 4): 1}), 5),
    # Terms of degree 6 and 8: a term's other members are ANDed over 5 and 7 rows.
    "log_degree_6": model(encode_mgc_log(P3, 8)),
    "log_degree_8": model(encode_mgc_log(P3, 16)),
    "onehot_qubo": model(encode_mgc_onehot(P3, 2)),
    "quadratized_qubo": model(quadratize(encode_mgc_log(P3, 4)).problem),
    # Variable 0, in eight terms, shares its colour class with variables in
    # none, so the class is cut into more than one group.
    "cut_class": (Polynomial({**{(0, i): 1 for i in range(1, 9)}, **{(i,): (-1) ** i * (i - 8) for i in range(9, 21)}}), 21),
}


@pytest.mark.parametrize("name", list(FALLBACKS))
def test_other_models_keep_the_class_kernel(name, monkeypatch):
    p, nv = FALLBACKS[name]

    def refuse(layout):
        raise AssertionError("label kernel called for a model it does not describe")

    monkeypatch.setattr(solve, "_label_kernel", refuse)
    params = AnnealParams(runs=3, sweeps=10, seed=2)
    assert anneal(p, params, nv) == solve._anneal_with(naive_kernel(p, nv), params, nv)


# Every kernel and state: the models above, a log layout on label tables,
# a QUBO on each side of the spin state's bound, and Python-int fields, of
# a QUBO and of a HUBO whose terms are ANDed before the object matmul.
STREAM_MODELS = {
    **FALLBACKS,
    "log_hubo": (checked_log_layout(LOG_CYCLE), LOG_CYCLE.num_variables),
    "bits_fields": BITS_FIELDS,
    "spin_fields": SPIN_FIELDS,
    "object_fields": (Polynomial({(0,): 2**53 + 1, (0, 1): -(2**53), (1, 2): 3}), 3),
    "object_fields_hubo": (Polynomial({(0,): 2**53 + 1, (0, 1, 2, 3): -(2**53), (1, 2): 3, (2, 3, 4): -2}), 5),
}


@pytest.mark.parametrize("name", list(STREAM_MODELS))
def test_run_sample_does_not_depend_on_runs(name):
    p, nv = STREAM_MODELS[name]
    few, many = (anneal(p, AnnealParams(runs, 30, seed=8), nv) for runs in (4, 9))
    assert few.samples == many.samples[:4]


@pytest.mark.parametrize("draw_block", [1, 1 << 20, "three_sweeps"])
@pytest.mark.parametrize("name", list(STREAM_MODELS))
def test_samples_do_not_depend_on_draw_block(name, draw_block, monkeypatch):
    p, nv = STREAM_MODELS[name]
    params = AnnealParams(runs=5, sweeps=40, seed=9)
    expected = anneal(p, params, nv)
    if draw_block == "three_sweeps":
        # 13 blocks of three sweeps and a shorter last one of one sweep.
        draw_block = 3 * params.runs * nv
    monkeypatch.setattr(solve, "DRAW_BLOCK", draw_block)
    assert anneal(p, params, nv) == expected


@pytest.mark.parametrize("models", [qubos(), hubos()], ids=["degree_0_2", "degree_3_4"])
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_no_term_holds_two_members_of_a_colour_class(models, data):
    poly, nv = data.draw(models)
    classes = solve._colour_classes(poly, nv)
    assert sorted(v for members in classes for v in members) == list(range(nv))
    assert all(members and members == sorted(members) for members in classes)
    colour = {v: c for c, members in enumerate(classes) for v in members}
    for key, _ in poly.items():
        assert len({colour[v] for v in key}) == len(key), key


def test_colour_classes_put_most_neighbours_first():
    # Id order would give [[0, 2], [1]], which breaks
    # TestAnneal::test_success_monotone_in_sweeps.
    prob = encode_mgc_log(P3, 2)
    assert solve._colour_classes(prob.polynomial, prob.num_variables) == [[1], [0, 2]]


def entry_counts(poly, nv):
    """Each variable's field entries: its linear term, plus one per larger term."""
    return [1 + sum(v in key for key, _ in poly.items() if len(key) > 1) for v in range(nv)]


def test_cut_class_model_cuts_a_class():
    p, nv = FALLBACKS["cut_class"]
    classes = solve._colour_classes(p, nv)
    assert len(solve._groups(classes, entry_counts(p, nv))) > len(classes)


@pytest.mark.parametrize("models", [qubos(), hubos()], ids=["degree_0_2", "degree_3_4"])
@given(st.data())
@example(Pinned(FALLBACKS["cut_class"]))
@settings(max_examples=100, deadline=None)
def test_groups_cut_each_class_into_contiguous_rows(models, data):
    poly, nv = data.draw(models)
    classes = solve._colour_classes(poly, nv)
    entries = entry_counts(poly, nv)
    groups = solve._groups(classes, entries)
    assert all(groups)
    # Consecutive groups make up each class in turn.
    rest = iter(groups)
    for members in classes:
        rows = []
        while len(rows) < len(members):
            rows += next(rest)
        assert sorted(rows) == members
    assert next(rest, None) is None
    for group in groups:
        span = entries[group[0]]
        assert max(entries[v] for v in group) == span
        assert len(group) * span <= 2 * sum(entries[v] for v in group), group


class TestEnergies:
    """Final energies are exact Python ints, however far they reach."""

    PARAMS = AnnealParams(runs=6, sweeps=5, seed=1)

    def test_constant_only(self):
        p = Polynomial({(): -7})
        ss = anneal(p, self.PARAMS, 3)
        assert energies(ss) == [-7] * self.PARAMS.runs
        assert all(type(e) is int for e in energies(ss))

    def test_sum_past_int64(self):
        # Each field is below 2**53, so the fields are float64, but an energy
        # reaches -1100 * (2**53 - 1) < -2**63: a float64 accumulator drops
        # its low bits, and an int64 one wraps.
        p = Polynomial({(v,): -(2**53 - 1) for v in range(1100)})
        ss = anneal(p, self.PARAMS)
        assert [s.energy for s in ss.samples] == [p.evaluate(s.bits) for s in ss.samples]
        assert min(energies(ss)) < -(2**63)

    @pytest.mark.parametrize(
        "singles",
        [[-(2**30), -(2**30 - 1)], [-(2**38 + v) for v in range(4)]],
        ids=["int32_tier", "int64_tier"],
    )
    def test_sum_in_each_integer_tier(self, singles):
        # Negative singles only: every run ends with every bit set, at
        # -sum |c|, which is -(2**31 - 1) in the int32 tier and about -2**40,
        # past int32, in the int64 tier.
        p = Polynomial({(v,): c for v, c in enumerate(singles)})
        ss = anneal(p, self.PARAMS)
        assert energies(ss) == [sum(singles)] * self.PARAMS.runs
        assert [s.energy for s in ss.samples] == [p.evaluate(s.bits) for s in ss.samples]
        assert all(type(e) is int for e in energies(ss))


@pytest.mark.parametrize("model", ["class", "label"])
def test_runs_past_size_limit_are_refused_before_drawing(model, monkeypatch):
    p, nv = LOG_CYCLE.polynomial, LOG_CYCLE.num_variables
    if model == "label":
        p = checked_log_layout(LOG_CYCLE)
    monkeypatch.setattr(solve, "MAX_ANNEAL_CELLS", 3 * (nv + solve.RUN_CELLS))
    assert anneal(p, AnnealParams(runs=3, sweeps=2), nv).runs == 3

    def refuse(kernel, params, nv):
        raise AssertionError("drew a run past the limit")

    monkeypatch.setattr(solve, "_anneal_with", refuse)
    with pytest.raises(ResourceLimitError, match="annealer's limit"):
        anneal(p, AnnealParams(runs=4, sweeps=2), nv)


class TestFlipDraws:
    """The draw stream's layout, rebuilt from a second generator of each
    run's seed: the initial state, then one uniform per (sweep, variable id),
    read as max(-ln(u)/beta, 1), in blocks of whole sweeps of every run, at
    most DRAW_BLOCK draws but at least one sweep."""

    @pytest.mark.parametrize(
        "draw_block, block_sizes",
        [(100, [8, 8, 3]), (10, [1] * 19)],
        ids=["short_last_block", "one_sweep_per_block"],
    )
    def test_initial_state_then_uniforms_by_sweep_and_variable(self, draw_block, block_sizes, monkeypatch):
        monkeypatch.setattr(solve, "DRAW_BLOCK", draw_block)
        runs, nv, sweeps, seed = 3, 4, 19, 5
        # beta from 0.01 to 100, a different one every sweep, so a draw paired
        # with another sweep's beta shows, and so does a missing floor of 1
        params = AnnealParams(runs, sweeps, 0.01, 100.0, seed)
        seen = []

        def record(x, blocks):
            seen.append(x.copy())
            seen.extend(block.copy() for block in blocks)
            return [0] * len(x)

        solve._anneal_with(record, params, nv)
        start, *blocks = seen
        assert [block.shape for block in blocks] == [(runs, size, nv) for size in block_sizes]
        betas = np.array([0.01 * 10_000.0 ** (t / (sweeps - 1)) for t in range(sweeps)])
        for run in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(run,)))
            assert start[run].tolist() == rng.integers(0, 2, size=nv).astype(bool).tolist()
            expected = np.maximum(-np.log(rng.random(size=(sweeps, nv))) / betas[:, None], 1.0)
            assert np.array_equal(np.concatenate([block[run] for block in blocks]), expected)

    def test_setup_does_not_grow_with_sweeps(self):
        # One run of one variable over 10**6 sweeps: a block of draws takes
        # 256 KiB, where every sweep's beta held at once would take about 38 MiB.
        def one_block(x, blocks):
            next(blocks)
            return [0] * len(x)

        tracemalloc.start()
        try:
            solve._anneal_with(one_block, AnnealParams(runs=1, sweeps=10**6), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestHugeEnergyChanges:
    """An uphill change beyond float range is rejected instead of raising."""

    PARAMS = AnnealParams(runs=8, sweeps=20, seed=4)

    def test_class_kernel_pair_terms(self):
        poly = Polynomial({(0,): 2**1100, (0, 1): -1})
        ss = anneal(poly, self.PARAMS)
        # x0 = 1 costs 2**1100 - 1 or 2**1100: every run ends at x0 = 0
        assert energies(ss) == [0] * self.PARAMS.runs

    def test_class_kernel_larger_terms(self):
        poly = Polynomial({(0, 1, 2): 2**1100})
        ss = anneal(poly, self.PARAMS)
        assert energies(ss) == [0] * self.PARAMS.runs
        assert ss == solve._anneal_with(naive_kernel(poly, 3), self.PARAMS, 3)

    def test_label_kernel(self):
        # agreeing labels on either edge cost 2**1100; L = 2 gives four labels
        spec = PartitionSpec(alpha={(0, 1): 2**1100, (1, 2): 2**1100}, beta={(0, 1): 0, (1, 2): 0}, gap=None)
        prob = encode_general(P3, spec, 2)
        p, nv = prob.polynomial, prob.num_variables
        ss = anneal(checked_log_layout(prob), self.PARAMS, nv)
        assert ss == solve._anneal_with(naive_kernel(p, nv, range(nv)), self.PARAMS, nv)
        assert max(energies(ss)) < 2**1100

    def test_float_boundary(self):
        # With x1 = 1, raising x0 costs exactly 1, then 3; in float64 2**53 + 1
        # rounds to 2**53, so the costs would read 0 and 2. The second model's
        # coefficients sum to 2**54 - 1, so a float bound of 2**54 fails it.
        for pair in (2**53, 2**53 - 2):
            poly = Polynomial({(0,): 2**53 + 1, (0, 1): -pair})
            ss = anneal(poly, self.PARAMS)
            assert ss == solve._anneal_with(naive_kernel(poly, 2), self.PARAMS, 2), pair


class TestSampleSetJson:
    def test_json_shape(self):
        ss = SampleSet((Sample(bits=(0, 1, 0), energy=7),))
        text = ss.to_json()
        assert '"bits": "010"' in text
        assert '"energy": "7"' in text
