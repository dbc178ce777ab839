"""CLI pipeline: subcommands, exit codes, determinism, golden help."""

import contextlib
import copy
import dataclasses
import io
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, path_graph

from qpart import bench, cli, gates, graphs, logenc, onehot
from qpart.cli import build_parser, main
from qpart.graphs import Graph, serialize_graph
from qpart.logenc import PartitionSpec, encode_general, encode_mgc_log
from qpart.model import from_model_json, to_model_json
from qpart.onehot import encode_mgc_onehot
from qpart.quadratize import QuadratizedProblem, quadratize, verify_quadratization
from qpart.solve import AnnealParams, anneal

DATA = Path(__file__).parent / "data"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_expected_graph(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, _ = run(["gen", "--n", "4", "--density", "0.5", "--seed", "7", "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 4
        assert len(doc["edges"]) == 3

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", "--n", "6", "--seed", "3", "--out", str(a)], capsys)
        run(["gen", "--n", "6", "--seed", "3", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_dimacs_output(self, capsys):
        code, out, _ = run(["gen", "--n", "3", "--density", "1.0", "--seed", "0", "--format", "dimacs"], capsys)
        assert code == 0
        assert out.startswith("p edge 3 3")

    def test_too_small_exits_2(self, capsys):
        code, _, err = run(["gen", "--n", "1"], capsys)
        assert code == 2
        assert "error" in err


@pytest.fixture
def k3_file(tmp_path, capsys):
    path = tmp_path / "k3.json"
    run(["gen", "--n", "3", "--density", "1.0", "--seed", "0", "--out", str(path)], capsys)
    return path


class TestEncodeSolvePipeline:
    def test_log_encode_shape(self, k3_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        code, _, _ = run(
            ["encode", "--in", str(k3_file), "--encoding", "log", "--colors", "4", "--out", str(model)],
            capsys,
        )
        assert code == 0
        prob = from_model_json(model.read_text())
        assert prob.num_variables == 6
        assert prob.polynomial.degree() == 4

    def test_exact_solve_reports_minimum(self, k3_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(["encode", "--in", str(k3_file), "--encoding", "log", "--colors", "4", "--out", str(model)], capsys)
        code, out, _ = run(["solve", "--in", str(model), "--exact"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["min_energy"] == "5"
        assert len(doc["argmin"]) >= 1

    def test_exact_solve_matches_the_recorded_output(self, tmp_path, capsys):
        # A 20-variable log model, in energy_vector's int32 tier; the file was
        # written when every table took int64.
        graph, model = tmp_path / "g.json", tmp_path / "model.json"
        run(["gen", "--n", "10", "--seed", "3", "--out", str(graph)], capsys)
        run(["encode", "--in", str(graph), "--colors", "4", "--out", str(model)], capsys)
        code, out, _ = run(["solve", "--in", str(model), "--exact"], capsys)
        assert code == 0
        assert out == (DATA / "log_n10_c4_exact.json").read_text()

    def test_quadratize_pipeline(self, k3_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        quad = tmp_path / "quad.json"
        run(["encode", "--in", str(k3_file), "--encoding", "log", "--colors", "4", "--out", str(model)], capsys)
        code, _, _ = run(["quadratize", "--in", str(model), "--out", str(quad)], capsys)
        assert code == 0
        prob = from_model_json(quad.read_text())
        assert prob.polynomial.degree() <= 2
        assert prob.meta["kind"] == "quadratized_log"

    @pytest.mark.parametrize("colors", [2, 8])
    def test_reads_quadratized_model_with_restated_metadata(self, colors, tmp_path, capsys):
        # older writers also recorded num_original, backmap, aux_counts and
        # base_penalties, each a restatement of the HUBO; such files still run
        hubo = encode_mgc_log(K3, colors)
        text = to_model_json(quadratize(hubo).problem)
        doc = json.loads(text)
        meta = doc["metadata"]
        n_l, l = meta["n"] * meta["L"], meta["L"]
        pen = logenc.log_penalties(hubo.meta)
        gadget_edges = meta["m"] if l > 1 else 0
        meta.update(
            num_original=n_l,
            backmap=list(range(n_l)),
            aux_counts={"w": gadget_edges * l, "y": gadget_edges * l, "b": gadget_edges * (l - 2)},
            base_penalties={"p": list(pen.p), "a_adjacency": pen.a_adjacency},
        )
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        new.write_text(text)
        old.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert verify_quadratization(hubo, QuadratizedProblem(from_model_json(old.read_text()))).passed
        for command in (["solve", "--seed", "0", "--runs", "5", "--sweeps", "20"], ["gates"]):
            outputs = [run([*command, "--in", str(path)], capsys) for path in (new, old)]
            assert outputs[0][0] == 0
            assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("colors", [2, 4, 8])
    def test_solve_anneals_a_log_hubo_on_its_layout(self, colors, tmp_path, capsys):
        # At L = 1 a log model is a QUBO, which anneals on colour classes.
        prob = encode_mgc_log(K3, colors)
        model = tmp_path / "model.json"
        model.write_text(to_model_json(prob))
        code, out, _ = run(["solve", "--in", str(model), "--runs", "4", "--sweeps", "10", "--seed", "5"], capsys)
        annealed = logenc.checked_log_layout(prob) if colors > 2 else prob.polynomial
        assert code == 0
        assert out == anneal(annealed, AnnealParams(runs=4, sweeps=10, seed=5), prob.num_variables).to_json()

    def test_anneal_solve(self, k3_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(["encode", "--in", str(k3_file), "--encoding", "onehot", "--out", str(model)], capsys)
        code, out, _ = run(
            ["solve", "--in", str(model), "--runs", "5", "--sweeps", "20", "--seed", "1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["runs"] == 5

    def test_gates_report(self, k3_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(["encode", "--in", str(k3_file), "--encoding", "onehot", "--colors", "3", "--out", str(model)], capsys)
        code, out, _ = run(["gates", "--in", str(model)], capsys)
        assert code == 0
        assert json.loads(out)["cnot"] == 54

    def test_encode_idempotent(self, k3_file, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["encode", "--in", str(k3_file), "--colors", "4", "--out", str(a)], capsys)
        run(["encode", "--in", str(k3_file), "--colors", "4", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestQubits:
    def test_advantage_true(self, capsys):
        code, out, _ = run(["qubits", "--n", "4", "--m", "6", "--colors", "4"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["advantage"] is True
        assert doc["onehot_qubits"] == 20

    def test_advantage_false(self, capsys):
        code, out, _ = run(["qubits", "--n", "100", "--m", "700", "--colors", "64"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["advantage"] is False
        assert doc["advantage_counts"] is False

    @pytest.mark.parametrize("n, m, c, log_qubits, onehot_qubits", [(4, 6, 4, 20, 20), (5, 5, 3, 20, 18)])
    def test_published_advantage_where_the_counts_show_none(self, n, m, c, log_qubits, onehot_qubits, capsys):
        # The published inequality leaves n*L - L of the log count out.
        code, out, _ = run(["qubits", "--n", str(n), "--m", str(m), "--colors", str(c)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["log_qubits"], doc["onehot_qubits"]) == (log_qubits, onehot_qubits)
        assert doc["advantage"] is True
        assert doc["advantage_counts"] is False

    def test_advantage_in_the_counts(self, capsys):
        code, out, _ = run(["qubits", "--n", "10", "--m", "10", "--colors", "16"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["log_qubits"], doc["onehot_qubits"]) == (100, 176)
        assert doc["advantage_counts"] is True

    def test_negative_counts_exit_2(self, capsys):
        bad = [(n, m, "4") for n, m in (("-5", "3"), ("4", "-3"), ("2", "100"))]
        bad += [("4", "6", c) for c in ("1", "0", "-3")]
        for n, m, c in bad:
            code, out, err = run(["qubits", "--n", n, "--m", m, "--colors", c], capsys)
            assert code == 2
            assert out == ""
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "g, c",
        [
            (complete_graph(4), 4),
            (graphs.generate_random_connected(8, 0.3, 1), 2),
            (graphs.generate_random_connected(8, 0.3, 1), 4),
            (graphs.generate_random_connected(5, 0.6, 3), 8),
        ],
        ids=["K4-c4", "n8-c2", "n8-c4", "n5-c8"],
    )
    def test_cnot_counts_match_oracle(self, g, c, capsys):
        argv = ["qubits", "--n", str(g.n), "--m", str(g.m), "--colors", str(c)]
        code, out, _ = run(argv, capsys)
        assert code == 0
        doc = json.loads(out)
        oracle = gates.cnot_count_oracle
        assert doc["log_cnot"] == oracle(encode_mgc_log(g, c).polynomial).cnot_count
        assert doc["onehot_cnot"] == oracle(encode_mgc_onehot(g, c).polynomial).cnot_count


class TestBench:
    def test_small_suite_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        json_path = tmp_path / "bench.json"
        code, _, _ = run(
            [
                "bench", "--count", "2", "--n-min", "4", "--n-max", "5",
                "--runs", "4", "--sweeps", "16", "--seed", "1",
                "--out-csv", str(csv_path), "--out-json", str(json_path),
            ],
            capsys,
        )
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 5  # header + 2 instances x 2 encodings
        doc = json.loads(json_path.read_text())
        assert len(doc["records"]) == 4

    def test_bad_density_exits_2(self, capsys):
        code, _, _ = run(["bench", "--count", "1", "--density", ""], capsys)
        assert code == 2

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_exits_2(self, count, capsys):
        code, out, err = run(["bench", "--count", count], capsys)
        assert code == 2
        assert out == ""
        assert "--count" in err

    @pytest.mark.parametrize("colors", ["0", "-2"])
    def test_colors_below_one_exits_2(self, colors, capsys):
        code, out, err = run(["bench", "--count", "1", "--colors", colors], capsys)
        assert code == 2
        assert out == ""
        assert "--colors" in err

    @pytest.mark.parametrize("bounds", [["--n-min", "1"], ["--n-min", "6", "--n-max", "5"]])
    def test_vertex_range_exits_2(self, bounds, capsys):
        code, out, err = run(["bench", "--count", "1", *bounds], capsys)
        assert code == 2
        assert out == ""
        assert "n-min" in err


def _refuse(*args, **kwargs):
    """Stand-in for a builder that must not run: it would allocate too much."""
    raise RuntimeError("the builder ran")


def _set_first_id(value):
    def corrupt(doc):
        doc["variables"][0]["id"] = value

    return corrupt


def _block(doc, degree):
    """The block of the given degree in a parsed model document."""
    (block,) = [b for b in doc["terms"] if b["degree"] == degree]
    return block


def _set_first_var(value):
    """Set the first id of the highest-degree block's first term."""

    def corrupt(doc):
        doc["terms"][-1]["vars"][0] = value

    return corrupt


def _set_last_coeff(value):
    """Set the last coefficient of the highest-degree block."""

    def corrupt(doc):
        doc["terms"][-1]["coeffs"][-1] = value

    return corrupt


def _edit_constant(edit):
    """Rewrite the constant term's coefficient string; int() reads every edit as the same value."""

    def corrupt(doc):
        coeffs = _block(doc, 0)["coeffs"]
        coeffs[0] = edit(coeffs[0])

    return corrupt


def _repeat_first_var(doc):
    ids = doc["terms"][-1]["vars"]
    ids[1] = ids[0]


def _reverse_last_key(doc):
    """Reverse the ids of the highest-degree block's last term, leaving every other term as it is."""
    block = doc["terms"][-1]
    ids, degree = block["vars"], block["degree"]
    ids[-degree:] = ids[:-degree - 1:-1]


def _repeat_in_last_key(doc):
    """Repeat an id within the last term of the degree-2 block."""
    ids = _block(doc, 2)["vars"]
    ids[-1] = ids[-2]


def _bool_second_id(doc):
    """The second id of the degree-2 block's first term, (0, 1), as true: still increasing if read as 1."""
    ids = _block(doc, 2)["vars"]
    assert ids[:2] == [0, 1]
    ids[1] = True


def _negative_first_id(doc):
    """The degree-1 block's first id as -1: no order within a one-id term to break."""
    _block(doc, 1)["vars"][0] = -1


def _zero_bits(doc):
    """L = 0, an empty ladder and the polynomial such metadata rebuilds to: one
    constant per edge (quadratize used to fail on it with an IndexError)."""
    meta = doc["metadata"]
    meta.update(L=0)
    meta["penalties"]["p"] = []
    doc["terms"] = [{"coeffs": [str(len(meta["edges"]) * meta["penalties"]["a_adjacency"])], "degree": 0, "vars": []}]


def _repeat_edge(doc):
    """Edge 0-1 listed twice, with m raised to the list's length."""
    meta = doc["metadata"]
    meta["edges"].append([0, 1])
    meta["m"] = len(meta["edges"])


K3 = complete_graph(3)
K3_SPEC = PartitionSpec(alpha=dict.fromkeys(K3.edges, 0), beta=dict.fromkeys(K3.edges, 2), gap=2)
K3_MODELS = {
    "log": lambda: encode_mgc_log(K3, 4),
    "onehot": lambda: encode_mgc_onehot(K3, 3),
    "general": lambda: encode_general(K3, K3_SPEC, 2),
    "quadratized": lambda: quadratize(encode_mgc_log(K3, 4)).problem,
}

# Model JSON whose parts disagree or do not fit its kind: (encoding,
# mutation of the parsed document).
MODEL_DEFECTS = {
    "kind_edited": ("log", lambda doc: doc["metadata"].update(kind="onehot_mgc")),
    "penalty_key_removed": ("onehot", lambda doc: doc["metadata"]["penalties"].pop("a_link")),
    "negative_id": ("onehot", _set_first_id(-1)),
    "id_past_end": ("onehot", lambda doc: doc["variables"][0].update(id=doc["num_vars"])),
    "duplicate_id": ("log", _set_first_id(1)),
    "missing_id": ("log", lambda doc: doc["variables"].pop()),
    "n_missing": ("log", lambda doc: doc["metadata"].pop("n")),
    "edges_not_a_list": ("log", lambda doc: doc["metadata"].update(edges=5)),
    "edges_not_int_pairs": ("log", lambda doc: doc["metadata"].update(edges=[["a", "b"]])),
    "penalties_null": ("log", lambda doc: doc["metadata"].update(penalties=None)),
    "alpha_missing": ("general", lambda doc: doc["metadata"].pop("alpha")),
    "alpha_empty": ("general", lambda doc: doc["metadata"].update(alpha={})),
    "L_zero": ("log", _zero_bits),
    "edge_reversed": ("log", lambda doc: doc["metadata"]["edges"][0].reverse()),
    "edge_repeated": ("log", lambda doc: doc["metadata"]["edges"].append([0, 1])),
    "edge_past_n": ("log", lambda doc: doc["metadata"]["edges"].append([1, 3])),
    # numbers that int() would truncate or read as 1
    "float_var_id": ("log", _set_first_var(0.9)),
    "bool_var_id": ("log", _set_first_var(True)),
    "id_bool": ("log", _bool_second_id),
    "float_coeff": ("log", _set_last_coeff(2.7)),
    # a set of the coefficients would merge true with the int 1 beside it
    "bool_coeff": ("log", lambda doc: doc["terms"][-1]["coeffs"].__setitem__(slice(-2, None), [1, True])),
    "float_registry_id": ("onehot", _set_first_id(0.5)),
    "bool_penalty": ("log", lambda doc: doc["metadata"]["penalties"].update(p=[True, 4])),
    "float_penalty": ("onehot", lambda doc: doc["metadata"]["penalties"].update(a_link=4.9)),
    # coefficient strings int() reads but that are not ASCII decimal text
    "spaced_coeff": ("log", _edit_constant(lambda c: f" {c} ")),
    "underscore_coeff": ("log", _edit_constant(lambda c: f"{c[0]}_{c[1:]}")),
    "non_ascii_coeff": ("log", _edit_constant(lambda c: c.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")))),
    "bare_minus_coeff": ("log", _set_last_coeff("-")),
    # term ids the general constructor would silently sort or merge
    "unsorted_vars": ("log", _reverse_last_key),
    "repeated_var": ("log", _repeat_first_var),
    "id_repeated_in_key": ("log", _repeat_in_last_key),
    # a negative id where no order within the term is broken
    "id_negative": ("log", _negative_first_id),
    # blocks whose shape does not fit their degree
    "block_short": ("log", lambda doc: doc["terms"][-1]["vars"].pop()),
    "degree_bool": ("log", lambda doc: _block(doc, 1).update(degree=True)),
    "degree_negative": ("log", lambda doc: doc["terms"].append({"coeffs": [], "degree": -1, "vars": []})),
    "vars_not_list": ("log", lambda doc: _block(doc, 0).update(vars={})),
    # a term of the one-object-per-term layout, which the writer before blocks used
    "term_object": ("log", lambda doc: doc["terms"].append({"coeff": "1", "vars": [0]})),
    # entries short of a key their layout needs
    "block_without_degree": ("log", lambda doc: _block(doc, 1).pop("degree")),
    "variable_without_role": ("onehot", lambda doc: doc["variables"][0].pop("role")),
    "num_vars_missing": ("log", lambda doc: doc.pop("num_vars")),
    "terms_missing": ("log", lambda doc: doc.pop("terms")),
    "variables_missing": ("onehot", lambda doc: doc.pop("variables")),
    # a document that is no object at all, in place of the model
    "document_not_object": ("log", lambda doc: [1, 2]),
    # JSON types str() or dict() would coerce
    "role_not_string": ("onehot", lambda doc: doc["variables"][0].update(role=[1, 2])),
    "metadata_not_object": ("onehot", lambda doc: doc.update(metadata=[["kind", "x"]])),
    # a quadratized model's tiers record; 32.0 is the true m_stage2 as a float
    "tier_removed": ("quadratized", lambda doc: doc["metadata"]["penalties"].pop("m_stage1")),
    "float_tier": ("quadratized", lambda doc: doc["metadata"]["penalties"].update(m_stage2=32.0)),
    "penalties_string": ("quadratized", lambda doc: doc["metadata"].update(penalties="m_product=96")),
    # records that differ from the ones their metadata derives
    "gap_changed": ("general", lambda doc: doc["metadata"].update(gap=7)),
    "gap_float": ("general", lambda doc: doc["metadata"].update(gap=1.5)),
    "onehot_tier_one": ("onehot", lambda doc: doc["metadata"]["penalties"].update(a_onehot=1)),
    "c_num_bool": ("onehot", lambda doc: doc["metadata"].update(c_num=True)),
    "stage1_tier_one": ("quadratized", lambda doc: doc["metadata"]["penalties"].update(m_stage1=1)),
    # an edge count that is not the length of the edge list, with the record it derives
    "m_changed_onehot": (
        "onehot",
        lambda doc: doc["metadata"].update(m=40, penalties=dataclasses.asdict(onehot.onehot_penalties(3, 40, 3))),
    ),
    "m_changed_log": ("log", lambda doc: doc["metadata"].update(m=40)),
    "m_changed_quadratized": ("quadratized", lambda doc: doc["metadata"].update(m=40)),
    "edge_repeated_m_raised": ("log", _repeat_edge),
    "gap_missing": ("general", lambda doc: doc["metadata"].pop("gap")),
}
# The defects that replace the whole document with the one they return.
WHOLE_DOCUMENT_DEFECTS = {"document_not_object"}
# Text the error message must hold: the layout it names for a defect whose
# entry does not fit it, or the rule the model breaks.
DEFECT_MESSAGES = {
    "document_not_object": "{num_vars, terms, variables}",
    "num_vars_missing": "{num_vars, terms, variables}",
    "terms_missing": "{num_vars, terms, variables}",
    "variables_missing": "{num_vars, terms, variables}",
    "term_object": "{coeffs, degree, vars}",
    "block_without_degree": "{coeffs, degree, vars}",
    "variable_without_role": "{id, role}",
    "edge_repeated_m_raised": "edges must be distinct",
    "gap_missing": "records its gap",
}

K2 = complete_graph(2)
HUGE_AGREEMENT = PartitionSpec(alpha={(0, 1): 2**1100, (1, 2): 2**1100}, beta={(0, 1): 0, (1, 2): 0}, gap=None)
K2_UNWEIGHTED = PartitionSpec(alpha={(0, 1): 1}, beta={(0, 1): 1}, gap=None)


def _rederive_record(doc):
    """The penalty record the edited metadata derives, so the reader accepts it."""
    doc["metadata"]["penalties"] = dataclasses.asdict(logenc.log_penalties(doc["metadata"]))


def _raise_bit_count(doc):
    """Metadata L of 40 with its record and a registry of n * L variables."""
    meta = doc["metadata"]
    meta["L"] = 40
    _rederive_record(doc)
    doc["num_vars"] = meta["n"] * 40
    doc["variables"] = [{"id": i, "role": f"x{i}"} for i in range(doc["num_vars"])]


def _raise_vertex_count(doc):
    """Metadata n of 10^9 with its record."""
    doc["metadata"]["n"] = 10**9
    _rederive_record(doc)


# Metadata that asks the exact check in logenc for a runaway rebuild, each
# stopped by one check: n * L past the registry (an n * L ladder); fewer
# terms than the edge's cross monomials (a 4^L edge); no edge of nonzero
# weight, where only the rebuild finds the mismatch (no 2^L table), so
# that case must have built the bounded map.
METADATA_TAMPERS = {
    "vertex_count": (
        lambda: encode_general(K2, K2_UNWEIGHTED, 2),
        _raise_vertex_count,
    ),
    "bit_count": (lambda: encode_mgc_log(K2, 4), _raise_bit_count),
    "zero_weight_edge": (lambda: encode_general(K2, K2_UNWEIGHTED, 2), _raise_bit_count),
}


def _bounded(parts, limit, calls):
    """Wrap a generator of (keys, coefficients) parts so more than `limit` terms in
    one call fail the test, appending each call's part sizes to `calls`; the bounded
    range stops a runaway table before its part is built, so nothing hangs."""

    def wrapper(*args, **kwargs):
        calls.append([])
        for keys, values in parts(*args, **kwargs):
            calls[-1].append(len(values))
            if sum(calls[-1]) > limit:
                raise RuntimeError(f"more than {limit} terms")
            yield keys, values

    return wrapper


def _bounded_range(limit):
    """A stand-in for the range builtin that fails the test past `limit` items."""

    def bounded(*args):
        if len(span := range(*args)) > limit:
            raise RuntimeError(f"a range of {len(span)} items")
        return span

    return bounded


def _swap_term(blocks):
    """Drop the last degree-4 term, the four bits of x[1] and x[2], and add
    x[0][1] x[1][1] x[2][1], a monomial over three vertices that no edge writes."""
    four, three = blocks[4], blocks[3]
    four["coeffs"].pop()
    del four["vars"][-4:]
    three["coeffs"].append("-32")
    three["vars"] += [0, 2, 4]


# Edits to the term blocks of K3's log model at c = 4 (degrees 0 to 4, 37 terms)
# that keep its term count, so the count floor passes and only the comparison
# of the rebuilt map with the file's refuses.
TERM_TAMPERS = {
    "coefficient_changed": lambda blocks: blocks[4]["coeffs"].__setitem__(1, "65"),
    "term_dropped_and_added": _swap_term,
    # x[0] and x[2]'s bits become x[0][1] x[0][2] x[1][1] x[2][2], over three vertices
    "key_renamed": lambda blocks: blocks[4]["vars"].__setitem__(slice(4, 8), [0, 1, 2, 5]),
}


class TestExitCodes:
    def test_malformed_model_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(["solve", "--in", str(bad), "--exact"], capsys)
        assert code == 2
        assert "error" in err

    def test_resource_limit_exits_3(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        model = tmp_path / "m.json"
        run(["gen", "--n", "10", "--density", "0.5", "--seed", "0", "--out", str(graph)], capsys)
        run(["encode", "--in", str(graph), "--encoding", "onehot", "--out", str(model)], capsys)
        code, _, err = run(["solve", "--in", str(model), "--exact"], capsys)
        assert code == 3
        assert "resource limit" in err

    @pytest.mark.parametrize(
        "module, step, command",
        [
            (cli, "encode_mgc_log", ["encode", "--in", "{graph}", "--colors", "4"]),
            (cli, "anneal", ["solve", "--in", "{model}", "--runs", "2", "--sweeps", "2"]),
            (cli, "cnot_count_oracle", ["gates", "--in", "{model}"]),
            (bench, "quadratize", ["bench", "--count", "1", "--runs", "2", "--sweeps", "2"]),
        ],
        ids=["encode", "solve", "gates", "bench"],
    )
    def test_bug_in_a_step_exits_4(self, module, step, command, k3_file, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a step called wrongly")

        monkeypatch.setattr(module, step, broken)
        model = tmp_path / "model.json"
        model.write_text(to_model_json(K3_MODELS["log"]()))
        argv = [arg.format(graph=k3_file, model=model) for arg in command]
        code, out, err = run(argv, capsys)
        assert code == 4
        assert out == ""
        assert "TypeError: a step called wrongly" in err
        assert "Traceback" not in err

    def test_gen_past_vertex_limit_exits_3(self, capsys, monkeypatch):
        # n(n-1)/2 pairs at n = 20000 would take over 20 GB; refused before any are listed
        monkeypatch.setattr(graphs, "_random_spanning_tree", _refuse)
        code, out, err = run(["gen", "--n", "20000"], capsys)
        assert code == 3
        assert out == ""
        assert "resource limit" in err

    def test_edgeless_graph_of_many_vertices_exits_2(self, tmp_path, capsys, monkeypatch):
        # Brooks' bound needs a connected graph; too few edges decide that without adjacency sets
        monkeypatch.setattr(Graph, "adjacency", _refuse)
        graph = tmp_path / "g.json"
        graph.write_text('{"n": 100000000, "edges": []}')
        code, _, err = run(["encode", "--in", str(graph)], capsys)
        assert code == 2
        assert "connected" in err
        assert "Traceback" not in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen"])  # missing required --n
        assert exc.value.code == 2

    def test_tampered_model_exits_2(self, k3_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(["encode", "--in", str(k3_file), "--encoding", "log", "--colors", "4", "--out", str(model)], capsys)
        doc = json.loads(model.read_text())
        coeffs = doc["terms"][0]["coeffs"]
        coeffs[0] = str(int(coeffs[0]) + 1)
        model.write_text(json.dumps(doc))
        for command in ("quadratize", "solve"):
            code, _, err = run([command, "--in", str(model)], capsys)
            assert code == 2, command
            assert "does not reproduce its polynomial" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("tamper", sorted(TERM_TAMPERS))
    def test_tampered_terms_exit_2(self, tamper, k3_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(["encode", "--in", str(k3_file), "--encoding", "log", "--colors", "4", "--out", str(model)], capsys)
        doc = json.loads(model.read_text())
        count = sum(len(block["coeffs"]) for block in doc["terms"])
        TERM_TAMPERS[tamper](doc["terms"])
        assert sum(len(block["coeffs"]) for block in doc["terms"]) == count == 37
        model.write_text(json.dumps(doc))
        code, _, err = run(["quadratize", "--in", str(model)], capsys)
        assert code == 2
        assert "does not reproduce its polynomial" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tamper", sorted(METADATA_TAMPERS))
    def test_tampered_metadata_exits_2_before_expanding(self, tamper, tmp_path, capsys, monkeypatch):
        # Past 10^5 terms the rebuilt parts fail the test, and so does a
        # range past 10^5 in logenc, which builds each 2^L sign or subset
        # table over range(1 << L): the count floor must refuse a weighted
        # edge's tables, and a layout with no weighted edge must build none.
        # The real parts come through, so their comparison with the file's refuses.
        build, corrupt = METADATA_TAMPERS[tamper]
        doc = json.loads(to_model_json(build()))
        corrupt(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(logenc, "_log_hubo_parts", _bounded(logenc._log_hubo_parts, 10**5, calls))
        monkeypatch.setattr(logenc, "range", _bounded_range(10**5), raising=False)
        code, _, err = run(["quadratize", "--in", str(model)], capsys)
        assert code == 2
        assert "does not reproduce its polynomial" in err
        assert "Traceback" not in err
        if tamper == "zero_weight_edge":
            assert calls, "the rebuild no longer reads logenc._log_hubo_parts"
            # K2 at L = 40: 80 single bits and the constant A * beta, in one part
            assert calls == [[2 * 40 + 1]]

    def test_gates_past_subset_limit_exits_3(self, tmp_path, capsys):
        # One degree-40 term needs 2**40 subset additions; one degree-25 term
        # stays within the additions but has 2**25 subsets, a 256 MiB int64
        # array at the least. Either is refused before 128 MiB is allocated.
        for degree in (40, 25):
            doc = {
                "num_vars": degree,
                "variables": [{"id": i, "role": f"x{i}"} for i in range(degree)],
                "terms": [{"coeffs": ["1"], "degree": degree, "vars": list(range(degree))}],
                "metadata": {},
            }
            model = tmp_path / "model.json"
            model.write_text(json.dumps(doc))
            tracemalloc.start()
            try:
                code, _, err = run(["gates", "--in", str(model)], capsys)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 3, degree
            assert "resource limit" in err
            assert "Traceback" not in err
            assert peak < 128 << 20, degree

    @pytest.mark.parametrize("command", ["solve_onehot", "solve_log", "bench"])
    def test_anneal_past_size_limit_exits_3(self, command, k3_file, tmp_path, capsys):
        # 2**40 runs of a few variables each: one sweep of their draws would
        # take terabytes, so the anneal is refused before any run is drawn.
        runs = ["--runs", str(1 << 40), "--sweeps", "1"]
        if command == "bench":
            argv = ["bench", "--count", "1", "--n-min", "4", "--n-max", "4", *runs]
        else:
            model = tmp_path / "model.json"
            encoding = command.removeprefix("solve_")
            run(["encode", "--in", str(k3_file), "--encoding", encoding, "--colors", "4", "--out", str(model)], capsys)
            argv = ["solve", "--in", str(model), *runs]
        tracemalloc.start()
        try:
            code, out, err = run(argv, capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert "resource limit" in err
        assert "Traceback" not in err
        assert peak < 16 << 20

    def test_runs_of_one_variable_past_size_limit_exit_3(self, tmp_path, capsys):
        # 2**24 runs of one variable fit 2**24 cells of state, but each run's
        # generator takes about 950 B: 16 GB, refused before any is built.
        model = tmp_path / "model.json"
        model.write_text(
            '{"metadata": {}, "num_vars": 1, "terms": [{"coeffs": ["1"], "degree": 1, "vars": [0]}],'
            ' "variables": [{"id": 0, "role": "x0"}]}'
        )
        tracemalloc.start()
        try:
            code, out, err = run(["solve", "--in", str(model), "--runs", str(1 << 24), "--sweeps", "1"], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert "resource limit" in err
        assert "Traceback" not in err
        assert peak < 16 << 20

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_negative_seed_exits_2(self, command, k3_file, tmp_path, capsys):
        argv = ["bench", "--count", "1", "--n-min", "4", "--n-max", "4", "--runs", "2", "--sweeps", "2"]
        if command == "solve":
            model = tmp_path / "model.json"
            run(["encode", "--in", str(k3_file), "--encoding", "onehot", "--out", str(model)], capsys)
            argv = ["solve", "--in", str(model), "--runs", "2", "--sweeps", "2"]
        code, out, err = run([*argv, "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert "seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "betas",
        [["--beta-end", "inf"], ["--beta-start", "1e-300", "--beta-end", "1e300"]],
        ids=["infinite_beta_end", "ratio_overflows"],
    )
    def test_beta_schedule_past_float_range_exits_2(self, betas, k3_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(["encode", "--in", str(k3_file), "--encoding", "onehot", "--out", str(model)], capsys)
        code, out, err = run(["solve", "--in", str(model), "--runs", "2", "--sweeps", "3", *betas], capsys)
        assert code == 2
        assert out == ""
        assert "beta" in err

    def test_constant_model_anneal_exits_2_exact_solves(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(
            '{"metadata": {}, "num_vars": 0, "terms": [{"coeffs": ["5"], "degree": 0, "vars": []}], "variables": []}'
        )
        code, out, err = run(["solve", "--in", str(model), "--runs", "2", "--sweeps", "3"], capsys)
        assert code == 2
        assert out == ""
        assert "annealing needs at least one variable" in err
        code, out, _ = run(["solve", "--in", str(model), "--exact"], capsys)
        assert code == 0
        assert json.loads(out)["min_energy"] == "5"

    @pytest.mark.parametrize("encoding", ["log", "onehot"])
    def test_anneal_with_coefficient_beyond_float_range(self, encoding, tmp_path, capsys):
        # Uphill changes no float can hold, which the annealer must reject:
        # agreeing labels on either edge of a log model cost 2**1100, and so
        # does raising x0 of a one-hot model, whose coefficients the reader
        # does not rebuild.
        if encoding == "log":
            text = to_model_json(encode_general(path_graph(3), HUGE_AGREEMENT, 2))
        else:
            doc = json.loads(to_model_json(K3_MODELS[encoding]()))
            block = _block(doc, 1)
            block["coeffs"][block["vars"].index(0)] = str(2**1100)
            text = json.dumps(doc)
        model = tmp_path / "model.json"
        model.write_text(text)
        code, out, err = run(["solve", "--in", str(model), "--runs", "5", "--sweeps", "30"], capsys)
        assert code == 0
        assert "Traceback" not in err
        samples = json.loads(out)["samples"]
        if encoding == "log":
            assert all(int(s["energy"]) < 2**1100 for s in samples)
        else:
            assert all(s["bits"][0] == "0" for s in samples)

    @pytest.mark.parametrize("command", ["solve", "quadratize", "gates"])
    @pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
    def test_inconsistent_model_exits_2(self, defect, command, tmp_path, capsys):
        encoding, corrupt = MODEL_DEFECTS[defect]
        doc = json.loads(to_model_json(K3_MODELS[encoding]()))
        replaced = corrupt(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(replaced if defect in WHOLE_DOCUMENT_DEFECTS else doc))
        code, _, err = run([command, "--in", str(model)], capsys)
        assert code == 2
        assert "Traceback" not in err
        assert DEFECT_MESSAGES.get(defect, "") in err

    def test_non_integer_graph_json_exits_2(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text('{"n": 3.7, "edges": [[0, 1.9], [1, 2]]}')
        code, _, err = run(["encode", "--in", str(graph)], capsys)
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "encoding, module, builder",
        [("log", logenc, "log_hubo_terms"), ("onehot", onehot, "x_var")],
        ids=["log", "onehot"],
    )
    def test_encode_past_term_limit_exits_3(self, encoding, module, builder, tmp_path, capsys, monkeypatch):
        # K2 at 4096 colours needs 4**12 log terms or about 4096**2 one-hot
        # terms; the count is refused before any key is built.
        monkeypatch.setattr(module, builder, _refuse)
        graph = tmp_path / "g.json"
        graph.write_text(serialize_graph(complete_graph(2), "json"))
        model = tmp_path / "model.json"
        argv = ["encode", "--in", str(graph), "--encoding", encoding, "--colors", "4096"]
        code, _, err = run([*argv, "--out", str(model)], capsys)
        assert code == 3
        assert "resource limit" in err
        assert "Traceback" not in err
        assert not model.exists()


# Replacement values are small, so no mutant asks for a large graph or model.
SMALL_VALUES = st.one_of(
    st.integers(-3, 12),
    st.text("ab-", max_size=3),
    st.none(),
    st.lists(st.integers(-3, 12), max_size=3),
    st.dictionaries(st.text("01-", max_size=3), st.integers(-3, 12), max_size=2),
)
DELETE = object()
FUZZ_INPUTS = {
    "graph": json.loads(serialize_graph(Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3))), "json")),
    **{encoding: json.loads(to_model_json(build())) for encoding, build in K3_MODELS.items()},
}
FUZZ_COMMANDS = (
    ["encode"],
    ["encode", "--encoding", "onehot"],
    ["solve", "--exact"],
    ["solve", "--runs", "2", "--sweeps", "3"],
    ["quadratize"],
    ["gates"],
)


def mutate(data, doc):
    """Delete the value at a random path of `doc`, or replace it with a small one."""
    node = doc
    while node:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        value = data.draw(st.one_of(st.just(DELETE), SMALL_VALUES))
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
        return


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_json_exits_cleanly(data):
    doc = copy.deepcopy(FUZZ_INPUTS[data.draw(st.sampled_from(sorted(FUZZ_INPUTS)))])
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        Path(path).write_text(json.dumps(doc))
        for command in FUZZ_COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*command, "--in", path, "--out", os.path.join(tmp, "out.json")])
            assert code in (0, 2, 3), (command, err.getvalue())
            assert "Traceback" not in err.getvalue()


def test_help_lists_every_flag_with_default():
    os.environ["COLUMNS"] = "100"
    parser = build_parser()
    sections = [parser.format_help()]
    subactions = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    for name, sub in subactions.choices.items():
        sections.append(f"{'=' * 30} qpart {name} {'=' * 30}\n" + sub.format_help())
    golden = (DATA / "cli_help.txt").read_text()
    assert "\n".join(sections) == golden
