"""Model JSON interchange: exact round trips and stable output."""

import itertools
import json

import pytest
from conftest import complete_graph, model_doc, path_graph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpart import logenc
from qpart.errors import ParseError
from qpart.logenc import PartitionSpec, encode_general, encode_mgc_log, log_layout, log_penalties
from qpart.model import from_model_json, to_model_json
from qpart.onehot import OneHotPenalties, encode_mgc_onehot, onehot_penalties
from qpart.pbo import EncodedProblem, Polynomial
from qpart.quadratize import QuadratizationPenalties, quadratization_penalties, quadratize


def written_record(prob):
    """The penalty record `to_model_json(prob)` writes into the metadata."""
    return json.loads(to_model_json(prob))["metadata"]["penalties"]


class TestRoundTrip:
    def test_onehot(self):
        prob = encode_mgc_onehot(complete_graph(3), 3)
        parsed = from_model_json(to_model_json(prob))
        assert parsed.polynomial == prob.polynomial
        assert parsed.registry == prob.registry
        assert "penalties" not in parsed.meta
        assert OneHotPenalties(**written_record(parsed)) == onehot_penalties(3, 3, 3)
        assert parsed.meta["kind"] == "onehot_mgc"

    def test_log(self):
        prob = encode_mgc_log(path_graph(3), 4)
        parsed = from_model_json(to_model_json(prob))
        assert parsed.polynomial == prob.polynomial
        assert "penalties" not in parsed.meta
        pen = log_penalties(prob.meta)
        assert written_record(parsed) == {"p": list(pen.p), "a_adjacency": pen.a_adjacency}

    def test_quadratized(self):
        quad = quadratize(encode_mgc_log(path_graph(3), 4))
        parsed = from_model_json(to_model_json(quad.problem))
        assert parsed.polynomial == quad.problem.polynomial
        assert parsed.registry == quad.problem.registry
        assert "penalties" not in parsed.meta
        base = {**parsed.meta, "kind": "log_mgc"}
        assert QuadratizationPenalties(**written_record(parsed)) == quadratization_penalties(log_layout(base))

    def test_huge_coefficients_survive_as_strings(self):
        prob = encode_mgc_log(path_graph(10), 100)  # P_7 = 11^6
        text = to_model_json(prob)
        parsed = from_model_json(text)
        assert parsed.polynomial == prob.polynomial
        doc = json.loads(text)
        assert all(isinstance(c, str) for block in doc["terms"] for c in block["coeffs"])

    def test_byte_stable(self):
        prob = encode_mgc_log(complete_graph(3), 4)
        assert to_model_json(prob) == to_model_json(prob)


P3_SPEC = PartitionSpec(alpha={(0, 1): 2, (1, 2): 0}, beta={(0, 1): 0, (1, 2): 3}, gap=2)
MODELS = {
    "onehot": lambda: encode_mgc_onehot(complete_graph(3), 3),
    "log_mgc": lambda: encode_mgc_log(path_graph(3), 4),
    "log_general": lambda: encode_general(path_graph(3), P3_SPEC, 2),
    "quadratized": lambda: quadratize(encode_mgc_log(path_graph(3), 4)).problem,
    "unknown_kind": lambda: EncodedProblem(
        Polynomial({(0,): 1}), ("a",), {"kind": "other", "penalties": {"tier": [1, "2"]}}
    ),
}


@pytest.mark.parametrize("name", list(MODELS))
def test_read_model_equals_written_model(name):
    """A known kind's penalty record is derived, never held; any other kind's stays in its metadata."""
    prob = MODELS[name]()
    text = to_model_json(prob)
    parsed = from_model_json(text)
    assert parsed == prob
    assert to_model_json(parsed) == text
    if name.startswith("log"):
        assert "penalties" not in quadratize(parsed).problem.meta


COEFFS = st.integers(-3, 3) | st.integers(-(2**200), 2**200)
# quotes, backslashes, control and non-ASCII characters, which json.dumps escapes
TEXT = st.text(st.sampled_from('xy[]0"\\\n\t\x00é→\u2028\U0001f600'), max_size=5) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
# "terms" and "variables" inside the metadata must not disturb the top level;
# "penalties" is the record of a kind qpart does not know, written as it is
METADATA = st.dictionaries(
    st.sampled_from(["terms", "variables", "num_vars", "kind", "penalties"]) | TEXT,
    JSON_VALUES | COEFFS,
    max_size=4,
)


@st.composite
def problems(draw):
    num_vars = draw(st.integers(0, 6))
    keys = st.lists(st.integers(0, max(num_vars - 1, 0)), max_size=num_vars, unique=True).map(
        lambda ids: tuple(sorted(ids))
    )
    terms = draw(st.dictionaries(keys, COEFFS.filter(bool), max_size=8))
    registry = tuple(draw(st.lists(TEXT, min_size=num_vars, max_size=num_vars)))
    return EncodedProblem(Polynomial(terms), registry, draw(METADATA))


def written_text(doc):
    """`json.dumps(doc, indent=2, sort_keys=True) + "\\n"`, but with each block of terms on its own
    line, as `json.dumps(block, sort_keys=True)` writes it: the text to_model_json writes."""
    blocks = ",\n".join("    " + json.dumps(block, sort_keys=True) for block in doc["terms"])
    rest = json.dumps({**doc, "terms": []}, indent=2, sort_keys=True)
    if blocks:
        assert rest.count('\n  "terms": [],\n') == 1
        rest = rest.replace('\n  "terms": [],\n', f'\n  "terms": [\n{blocks}\n  ],\n')
    return rest + "\n"


# Ids of every decimal width from 1 to 6 digits, each at both ends of its width
WIDE_IDS = (0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000)
WIDE_TERMS = {
    (): -7,
    (0,): 1,
    (9,): -2,
    (100000,): 3,
    (10, 99): 2**70,
    (0, 99999): -5,
    (999, 1000): 4,
    (9, 100, 10000): -(2**64),
    (0, 999, 100000): 6,
    (0, 9, 10, 99): 8,
    (100, 999, 1000, 9999): -9,
    (1000, 9999, 10000, 99999): 1,
}


class TestWriter:
    @given(problems())
    @example(EncodedProblem(Polynomial(), (), {}))
    @example(EncodedProblem(Polynomial({(): -(2**100)}), ("a",), {"terms": [], "x": [[1, [2]], {}]}))
    @settings(max_examples=100, deadline=None)
    def test_layout_is_one_line_per_block(self, prob):
        text = to_model_json(prob)
        doc = model_doc(prob)
        assert json.loads(text) == doc
        assert text == written_text(doc)
        lines = [line.rstrip(",") for line in text.splitlines() if line.startswith('    {"coeffs": ')]
        assert list(map(json.loads, lines)) == doc["terms"]

    @pytest.mark.parametrize(
        "terms", [{}, {(): -7}, WIDE_TERMS], ids=["empty", "constant_only", "ids_of_one_to_six_digits"]
    )
    def test_ids_of_every_width(self, terms):
        # the drawn problems above have one-digit ids only
        prob = EncodedProblem(Polynomial(terms), tuple(f"v{i}" for i in range(WIDE_IDS[-1] + 1)), {"kind": "wide"})
        assert to_model_json(prob) == written_text(model_doc(prob))

    def test_stale_record_is_replaced_by_the_derived_one(self):
        prob = encode_mgc_log(path_graph(3), 4)
        stale_meta = {**prob.meta, "penalties": {"p": [7], "a_adjacency": 1}}
        stale = EncodedProblem(prob.polynomial, prob.registry, stale_meta)
        assert to_model_json(stale) == to_model_json(prob)

    def test_metadata_the_reader_refuses_is_not_written(self):
        prob = encode_mgc_log(path_graph(3), 4)
        edges = [list(reversed(prob.meta["edges"][0])), *prob.meta["edges"][1:]]
        with pytest.raises(ValueError, match="edges must be integer pairs u < v"):
            to_model_json(EncodedProblem(prob.polynomial, prob.registry, {**prob.meta, "edges": edges}))


# Terms in file order, then the map the reader sums them to: equal keys summed,
# zero sums dropped, and a key whose sum fell to zero entering again at the end.
REPEATED_TERMS = {
    "repeated_key": (
        [((0,), "2"), ((2,), "3"), ((0,), "-2"), ((0,), "4"), ((1, 2), "5"), ((2,), "1")],
        [((2,), 4), ((0,), 4), ((1, 2), 5)],
    ),
    "zero_coeff": ([((0,), "0"), ((1,), "1"), ((), "7"), ((1, 2), "0")], [((1,), 1), ((), 7)]),
    "minus_zero_coeff": ([((1,), "-0"), ((0,), "1"), ((), "-0")], [((0,), 1)]),
    "sum_to_zero": ([((0, 1), "3"), ((2,), "1"), ((0, 1), "-3")], [((2,), 1)]),
}


def _term_file(terms):
    """A three-variable model of `terms`, each run of one degree as one block."""
    runs = [list(run) for _, run in itertools.groupby(terms, lambda term: len(term[0]))]
    layout = [
        {"coeffs": [c for _, c in run], "degree": len(run[0][0]), "vars": [v for key, _ in run for v in key]}
        for run in runs
    ]
    variables = [{"id": i, "role": f"x{i}"} for i in range(3)]
    return json.dumps({"metadata": {}, "num_vars": 3, "terms": layout, "variables": variables})


class TestRepeatedTerms:
    @pytest.mark.parametrize("name", sorted(REPEATED_TERMS))
    def test_sums_as_written(self, name):
        terms, summed = REPEATED_TERMS[name]
        assert list(from_model_json(_term_file(terms)).polynomial.items()) == summed


class TestValidation:
    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError):
            from_model_json("{nope")

    def test_missing_fields_rejected(self):
        with pytest.raises(ParseError):
            from_model_json('{"num_vars": 2}')

    @pytest.mark.parametrize("blocks", [[], [((), "7"), ((0,), "1"), ((1,), "2")]], ids=["alone", "after_blocks"])
    def test_term_object_is_refused_naming_the_block_layout(self, blocks):
        # one {"coeff", "vars"} object per term, the layout the writer used before blocks
        doc = json.loads(_term_file(blocks))
        doc["terms"].append({"coeff": "1", "vars": [0]})
        with pytest.raises(ParseError, match=r"malformed model JSON: .*block \{coeffs, degree, vars\}"):
            from_model_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "build, meta",
        [
            (lambda: encode_mgc_log(path_graph(3), 4), {"L": 10**6}),
            (lambda: encode_mgc_log(path_graph(3), 4), {"n": 10**4000, "L": 50}),
            (lambda: quadratize(encode_mgc_log(path_graph(3), 4)).problem, {"L": 10**6}),
        ],
        ids=["log_bits", "log_vertices", "quadratized_bits"],
    )
    def test_ladder_longer_than_the_file_is_refused_unbuilt(self, build, meta, monkeypatch):
        # The reader derives the ladder (n+1)^k, k < L, from metadata alone,
        # so metadata asking for more digits than the file holds is refused
        # before the ladder is built.
        def refuse(*args):
            raise AssertionError("the ladder was built")

        doc = json.loads(to_model_json(build()))
        doc["metadata"].update(meta)
        monkeypatch.setattr(logenc, "lex_penalties", refuse)
        with pytest.raises(ParseError, match="does not fit in the file"):
            from_model_json(json.dumps(doc))

    def test_registry_must_cover_polynomial(self):
        with pytest.raises(ValueError):
            EncodedProblem(Polynomial({(5,): 1}), ("x",), {"kind": "test"})
