"""Polynomial algebra, evaluation, and the exhaustive ground-state oracle."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import add_scaled, bits_to_index, multiply, zeta_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpart.errors import DimensionError, ResourceLimitError
from qpart.pbo import (
    ENUMERATION_MAX_VARS,
    ZETA_CHUNK_BYTES,
    ZETA_ROW_BITS,
    Polynomial,
    _degree_blocks,
    energy_vector,
    ground_states,
    index_to_bits,
)

XNOR = Polynomial({(0, 1): 2, (0,): -1, (1,): -1, (): 1})


@st.composite
def polynomials(draw, max_vars=5, max_terms=6, max_coeff=40):
    n_terms = draw(st.integers(0, max_terms))
    items = []
    for _ in range(n_terms):
        vars_ = draw(st.lists(st.integers(0, max_vars - 1), max_size=3))
        coeff = draw(st.integers(-max_coeff, max_coeff))
        items.append((tuple(vars_), coeff))
    return Polynomial(items)


def assignments(num_vars):
    return st.tuples(*([st.integers(0, 1)] * num_vars))


class TestEvaluate:
    def test_constant(self):
        p = Polynomial({(): 7})
        assert p.evaluate(()) == 7
        assert p.evaluate((1, 0)) == 7

    def test_identity(self):
        p = Polynomial({(0,): 1})
        assert p.evaluate((1,)) == 1
        assert p.evaluate((0,)) == 0

    def test_xnor_truth_table(self):
        expected = {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
        for bits, val in expected.items():
            assert XNOR.evaluate(bits) == val

    def test_short_assignment_rejected(self):
        with pytest.raises(DimensionError):
            Polynomial({(2,): 1}).evaluate((1, 0))


class TestAlgebra:
    """conftest's term-dict algebra, the independent reference the golden tests build with."""

    def test_add_scaled_zero_scalar(self):
        p = {(0,): 3, (): 1}
        assert add_scaled(p, {(1,): 9}, 0) == p

    def test_add_scaled_cancellation(self):
        p = {(0,): 1}
        assert add_scaled(p, p, -1) == {}
        assert Polynomial(add_scaled(p, p, -1)) == Polynomial()

    def test_add_scaled_arithmetic(self):
        assert add_scaled({(): 1}, {(0,): 2}, 3) == {(): 1, (0,): 6}

    def test_multiplication_idempotent(self):
        x0 = {(0,): 1}
        assert multiply(x0, x0) == x0
        s = {(0,): 1, (1,): 1}
        assert multiply(s, s) == {(0,): 1, (1,): 1, (0, 1): 2}

    def test_degree_examples(self):
        assert XNOR.degree() == 2
        assert Polynomial().degree() == 0
        assert Polynomial({(): 5}).degree() == 0

    def test_degree_of_expanded_xnor_product(self):
        # three XNOR factors over disjoint variable pairs expand to degree 6
        prod = {(): 1}
        for k in range(3):
            a, b = 2 * k, 2 * k + 1
            prod = multiply(prod, {(a, b): 2, (a,): -1, (b,): -1, (): 1})
        assert Polynomial(prod).degree() == 6

    @given(polynomials(), polynomials(), st.integers(-20, 20), assignments(5))
    @settings(max_examples=300)
    def test_add_scaled_linearity(self, p, q, c, bits):
        lhs = Polynomial(add_scaled(dict(p.items()), dict(q.items()), c)).evaluate(bits)
        assert lhs == p.evaluate(bits) + c * q.evaluate(bits)

    @given(polynomials(), polynomials(), assignments(5))
    @settings(max_examples=200)
    def test_product_evaluates_pointwise(self, p, q, bits):
        prod = Polynomial(multiply(dict(p.items()), dict(q.items())))
        assert prod.evaluate(bits) == p.evaluate(bits) * q.evaluate(bits)


def moebius_from_truth_table(values, num_vars):
    """Reconstruct multilinear coefficients by subset Moebius inversion."""
    coeffs = {}
    for subset in range(1 << num_vars):
        total = 0
        size_s = bin(subset).count("1")
        sub = subset
        while True:
            size_t = bin(sub).count("1")
            sign = -1 if (size_s - size_t) % 2 else 1
            total += sign * values[sub]
            if sub == 0:
                break
            sub = (sub - 1) & subset
        if total:
            key = tuple(v for v in range(num_vars) if subset >> v & 1)
            coeffs[key] = total
    return coeffs


class TestCanonicalForm:
    @given(polynomials(max_vars=4))
    @settings(max_examples=150)
    def test_terms_recoverable_from_truth_table(self, p):
        nv = 4
        values = [p.evaluate(index_to_bits(i, nv)) for i in range(1 << nv)]
        assert moebius_from_truth_table(values, nv) == dict(p.items())

    def test_functionally_equal_implies_structurally_equal(self):
        # x0 + x1 - x0*x1 is the canonical form of OR; the constructor
        # merges repeated variables, unsorted keys, duplicates and zeros
        a = Polynomial({(0,): 1, (1,): 1, (0, 1): -1})
        b = Polynomial(
            [((0, 0), 1), ((1,), 2), ((1, 0), -1), ((1,), -1), ((2,), 0), ((2, 1), 3), ((1, 2), -3)]
        )
        assert a == b and dict(a.items()) == dict(b.items())

    @pytest.mark.parametrize(
        "terms",
        [{(0,): 1.5}, {(1.9, 2): 3}, {(4,): "7"}, {("4",): 7}, {(0,): Fraction(2)}],
        ids=["float_coeff", "float_id", "str_coeff", "str_id", "fraction_coeff"],
    )
    def test_rejects_non_integer_ids_and_coefficients(self, terms):
        with pytest.raises(TypeError):
            Polynomial(terms)


class TestGroundStates:
    def test_single_variable(self):
        assert ground_states(Polynomial({(0,): 1})) == (0, [(0,)])

    def test_zero_polynomial_degenerate(self):
        emin, states = ground_states(Polynomial(), num_vars=2)
        assert emin == 0
        assert sorted(states) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_xnor_argmin(self):
        emin, states = ground_states(XNOR)
        assert emin == 0
        assert set(states) == {(0, 1), (1, 0)}

    def test_matches_direct_enumeration(self):
        rng = random.Random(5)
        for _ in range(20):
            items = [
                (tuple(rng.sample(range(5), rng.randint(0, 3))), rng.randint(-9, 9))
                for _ in range(6)
            ]
            p = Polynomial(items)
            energies = [p.evaluate(bits) for bits in itertools.product((0, 1), repeat=5)]
            emin, states = ground_states(p, num_vars=5)
            assert emin == min(energies)
            expected = {
                bits
                for bits in itertools.product((0, 1), repeat=5)
                if p.evaluate(bits) == emin
            }
            assert set(states) == expected

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            ground_states(Polynomial({(24,): 1}))

    def test_num_vars_too_small_rejected(self):
        with pytest.raises(DimensionError):
            ground_states(Polynomial({(3,): 1}), num_vars=2)


class TestExactArithmetic:
    def test_huge_coefficients_survive(self):
        # the largest penalty scale in scope: (n+1)^L * n * 3 at n=100, L=7
        big = 101**7 * 100 * 3
        p = Polynomial({(0,): big, (): -big})
        assert p.evaluate((1,)) == 0
        assert p.evaluate((0,)) == -big
        assert dict(Polynomial([((0,), big)] * 2).items()) == {(0,): 2 * big}

    def test_bigint_enumeration_path(self):
        # force the object-dtype fallback in energy_vector
        big = 2**70
        p = Polynomial({(0,): big, (1,): -1})
        emin, states = ground_states(p, num_vars=2)
        assert emin == -1
        assert states == [(0, 1)]
        vec = energy_vector(p, 2)
        assert vec[bits_to_index((1, 1))] == big - 1

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_int32_at_the_largest_safe_bound(self, sign):
        # sum |c| = 2**31 - 1 keeps int32, and every entry stays exact
        p = Polynomial({(0,): sign * 2**30, (1,): sign * (2**30 - 1)})
        vec = energy_vector(p, 2)
        assert vec.dtype == np.int32
        assert vec.tolist() == [0, sign * 2**30, sign * (2**30 - 1), sign * (2**31 - 1)]

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_int64_where_int32_would_wrap(self, sign):
        p = Polynomial({(0,): sign * 2**30, (1,): sign * 2**30})
        vec = energy_vector(p, 2)
        assert vec.dtype == np.int64
        assert vec.tolist() == [0, sign * 2**30, sign * 2**30, sign * 2**31]

    @pytest.mark.parametrize("low", [2**30 - 1, 2**30], ids=["int32", "int64"])
    def test_ground_states_at_the_int32_switch(self, low):
        emin, states = ground_states(Polynomial({(0,): -(2**30), (1,): -low}))
        assert type(emin) is int
        assert emin == -(2**30) - low
        assert states == [(1, 1)]

    def test_int64_at_the_largest_safe_bound(self):
        # sum |c| = 2**62 - 1 keeps int64, and every entry stays exact
        p = Polynomial({(): -(2**61), (0,): 2**60, (1,): 2**60 - 1})
        vec = energy_vector(p, 2)
        assert vec.dtype == np.int64
        assert vec.tolist() == [-(2**61), -(2**60), -(2**60) - 1, -1]

    def test_object_dtype_where_int64_would_wrap(self):
        p = Polynomial({(0,): 2**62, (1,): 2**62})
        vec = energy_vector(p, 2)
        assert vec.dtype == object
        assert vec.tolist() == [0, 2**62, 2**62, 2**63]

    def test_index_bit_round_trip(self):
        for i in range(16):
            assert bits_to_index(index_to_bits(i, 4)) == i


# Small, 2**40- and 2**70-sized coefficients: the int32, int64 and object tiers.
WIDE_COEFFS = st.one_of(st.integers(-30, 30), st.integers(-(2**40), 2**40), st.integers(-(2**70), 2**70))


@st.composite
def enumerable_polynomials(draw):
    """A polynomial of degree <= 4 with small, 2**40- or 2**70-sized coefficients,
    and a num_vars at or up to two past its span (0 for a constant)."""
    nv = draw(st.integers(0, 7))
    keys = st.lists(st.integers(0, nv - 1), max_size=4) if nv else st.just(())
    poly = Polynomial(draw(st.lists(st.tuples(keys, WIDE_COEFFS), max_size=12)))
    return poly, nv + draw(st.integers(0, 2))


class TestEnergyVector:
    @given(enumerable_polynomials())
    @settings(max_examples=300)
    def test_matches_evaluate_at_every_index(self, case):
        p, nv = case
        vec = energy_vector(p, nv)
        assert len(vec) == 1 << nv
        assert [int(e) for e in vec] == [p.evaluate(index_to_bits(i, nv)) for i in range(1 << nv)]

    def test_zero_polynomial(self):
        vec = energy_vector(Polynomial(), 3)
        assert vec.dtype == np.int32
        assert vec.tolist() == [0] * 8

    def test_no_variables(self):
        assert energy_vector(Polynomial({(): -4}), 0).tolist() == [-4]
        assert energy_vector(Polynomial({(): 2**70}), 0).tolist() == [2**70]

    def test_num_vars_below_span_rejected(self):
        with pytest.raises(DimensionError, match="smaller than the polynomial's variable span"):
            energy_vector(Polynomial({(3,): 1}), 3)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            energy_vector(Polynomial(), ENUMERATION_MAX_VARS + 1)


@st.composite
def wide_polynomials(draw):
    """Past the low-bit row: 13-21 variables, terms of degree <= 4 anywhere,
    so some rows hold terms and most do not."""
    nv = draw(st.integers(ZETA_ROW_BITS + 1, 21))
    keys = st.lists(st.integers(0, nv - 1), max_size=4)
    return Polynomial(draw(st.lists(st.tuples(keys, WIDE_COEFFS), max_size=12))), nv


def term_rows(p):
    return {sum(1 << v for v in key) >> ZETA_ROW_BITS for key, _ in p.items()}


class TestEnergyVectorRows:
    """energy_vector's low-bit passes on term rows only, against the
    transform that runs every pass over the whole array."""

    @given(wide_polynomials())
    @settings(max_examples=25, deadline=None)
    def test_matches_whole_array_transform(self, case):
        p, nv = case
        vec = energy_vector(p, nv)
        expected = zeta_oracle(p, nv)
        assert vec.dtype == expected.dtype
        assert vec.tolist() == expected.tolist()

    @pytest.mark.parametrize(
        "scale, dtype", [(1, np.int32), (2**40, np.int64), (2**70, object)], ids=["int32", "int64", "object"]
    )
    def test_more_term_rows_than_one_chunk(self, scale, dtype):
        nv = 22
        rng = random.Random(scale)
        # a random high part (row) and up to three low bits per term
        items = [
            (
                [v for v in range(ZETA_ROW_BITS, nv) if rng.getrandbits(1)] + rng.sample(range(ZETA_ROW_BITS), rng.randint(0, 3)),
                scale * rng.randint(-30, 30),
            )
            for _ in range(1500)
        ]
        p = Polynomial(items)
        vec = energy_vector(p, nv)
        assert len(term_rows(p)) > ZETA_CHUNK_BYTES // (vec.itemsize << ZETA_ROW_BITS)
        expected = zeta_oracle(p, nv)
        assert vec.dtype == expected.dtype == dtype
        assert vec.tolist() == expected.tolist()

    def test_empty_polynomial_past_the_row(self):
        assert not energy_vector(Polynomial(), ZETA_ROW_BITS + 2).any()

    def test_extra_memory_is_one_chunk(self):
        # A term in every row, and lower-degree terms. At 21 variables the
        # whole int32 array is one chunk, so 22 tell a chunk from all rows.
        nv = 22
        rng = random.Random(0)
        items = [([v for v in range(nv) if row << ZETA_ROW_BITS >> v & 1], 1000) for row in range(1 << nv - ZETA_ROW_BITS)]
        items += [(rng.sample(range(nv), rng.randint(0, 4)), rng.randint(-9, 9)) for _ in range(2000)]
        p = Polynomial(items)
        assert len(term_rows(p)) == 1 << nv - ZETA_ROW_BITS
        tracemalloc.start()
        try:
            vec = energy_vector(p, nv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vec.dtype == np.int32
        assert peak <= vec.nbytes + ZETA_CHUNK_BYTES + (1 << 20)


@st.composite
def long_key_polynomials(draw):
    """Keys of up to 10 ids from a pool below 2**4, 2**12, 2**21 or 2**40, so a key
    packs into one word or several, and keys share prefixes that only a later word
    tells apart; coefficients past int64 too."""
    bound = draw(st.sampled_from([1 << 4, 1 << 12, 1 << 21, 1 << 40]))
    pool = draw(st.lists(st.integers(0, bound - 1), min_size=1, max_size=12, unique=True))
    keys = st.lists(st.sampled_from(pool), max_size=10)
    coeffs = st.integers(-9, 9) | st.integers(-(2**70), 2**70)
    return Polynomial(draw(st.lists(st.tuples(keys, coeffs), max_size=30)))


class TestDegreeBlocks:
    """The sorted view the model writer and the gate oracle read."""

    @given(long_key_polynomials())
    @example(Polynomial())
    @example(Polynomial({(): -5}))
    @example(Polynomial({tuple(range(10)): 1, tuple(range(9)) + (10,): 2, tuple(range(1, 11)): 3}))
    @settings(max_examples=300, deadline=None)
    def test_rows_in_key_order_by_degree(self, p):
        expected = {}
        for key, coeff in sorted(p.items(), key=lambda t: (len(t[0]), t[0])):
            expected.setdefault(len(key), []).append((key, coeff))
        blocks = _degree_blocks(p)
        assert [rows.shape[1] for rows, _ in blocks] == list(expected)
        got = [list(zip(map(tuple, rows.tolist()), coeffs.tolist())) for rows, coeffs in blocks]
        assert got == list(expected.values())
        narrow = p.num_variables() <= 1 << 31
        assert all(rows.dtype == (np.int32 if narrow else np.int64) for rows, _ in blocks)
