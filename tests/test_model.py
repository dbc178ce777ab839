"""Model JSON interchange: exact round trips and stable output."""

import json

import pytest
from conftest import complete_graph, path_graph

from qpart.errors import ParseError
from qpart.logenc import LexPenalties, encode_mgc_log
from qpart.model import from_model_json, to_model_json
from qpart.onehot import OneHotPenalties, encode_gc_onehot, encode_mgc_onehot
from qpart.pbo import Polynomial
from qpart.quadratize import QuadratizationPenalties, quadratize


class TestRoundTrip:
    def test_onehot(self):
        prob = encode_mgc_onehot(complete_graph(3), 3)
        parsed = from_model_json(to_model_json(prob))
        assert parsed.polynomial == prob.polynomial
        assert parsed.registry == prob.registry
        assert isinstance(parsed.penalties, OneHotPenalties)
        assert parsed.penalties == prob.penalties
        assert parsed.meta["kind"] == "onehot_mgc"

    def test_onehot_gc(self):
        prob = encode_gc_onehot(complete_graph(3), 3)
        text = to_model_json(prob)
        parsed = from_model_json(text)
        assert isinstance(parsed.penalties, OneHotPenalties)
        assert parsed.penalties == prob.penalties
        assert to_model_json(parsed) == text

    def test_log(self):
        prob = encode_mgc_log(path_graph(3), 4)
        parsed = from_model_json(to_model_json(prob))
        assert parsed.polynomial == prob.polynomial
        assert isinstance(parsed.penalties, LexPenalties)
        assert parsed.penalties == prob.penalties

    def test_quadratized(self):
        quad = quadratize(encode_mgc_log(path_graph(3), 4))
        parsed = from_model_json(to_model_json(quad.problem))
        assert parsed.polynomial == quad.problem.polynomial
        assert parsed.registry == quad.problem.registry
        assert isinstance(parsed.penalties, QuadratizationPenalties)

    def test_huge_coefficients_survive_as_strings(self):
        prob = encode_mgc_log(path_graph(10), 100)  # P_7 = 11^6
        text = to_model_json(prob)
        parsed = from_model_json(text)
        assert parsed.polynomial == prob.polynomial
        doc = json.loads(text)
        assert all(isinstance(t["coeff"], str) for t in doc["terms"])

    def test_byte_stable(self):
        prob = encode_mgc_log(complete_graph(3), 4)
        assert to_model_json(prob) == to_model_json(prob)


class TestValidation:
    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError):
            from_model_json("{nope")

    def test_missing_fields_rejected(self):
        with pytest.raises(ParseError):
            from_model_json('{"num_vars": 2}')

    def test_registry_must_cover_polynomial(self):
        from qpart.model import EncodedProblem

        with pytest.raises(ValueError):
            EncodedProblem(Polynomial({(5,): 1}), ("x",), None, {"kind": "test"})
