"""Golden files: fixed-seed encodings and anneals must serialize to pinned bytes.

The model digests are SHA-256 of `to_model_json` output. Any change to how
a Hamiltonian is built that alters a coefficient, a variable role or a
metadata field changes a digest, so a refactor of the builders that
claims identical output is checked here byte for byte. The anneal digests
are SHA-256 of `SampleSet.to_json` output, so a change to the annealer
that alters a random draw, an acceptance decision or a final energy
changes one. The energy-vector digests cover the dtype and every entry of
`energy_vector`, so a change to exhaustive evaluation that alters one
energy or the int32/int64/object choice changes one.

`CLI_PIPELINES` runs `qpart` command chains through `cli.main` in one
process, and `CLI_SHA256` pins the bytes each chain writes: models, gate
reports and seeded anneals as the CLI reads and writes them, and the CSV
and JSON of `qpart bench`, so a change to scoring, timing or Kaplan-Meier
aggregation that alters one number changes one. CI runs the same table
against the installed package.

A new pin holds the digest its output has at the parent commit. A pin
changes only on purpose, and CHANGES.md says why.
"""

import hashlib
import io
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from conftest import add_scaled, multiply, spin_terms

from qpart import cli
from qpart.gates import cnot_count_oracle
from qpart.graphs import Graph, generate_random_connected
from qpart.logenc import LOG_KINDS, PartitionSpec, checked_log_layout, encode_general, encode_mgc_log, log_penalties
from qpart.model import to_model_json
from qpart.onehot import encode_mgc_onehot
from qpart.pbo import EncodedProblem, Polynomial, energy_vector
from qpart.quadratize import quadratize
from qpart.solve import AnnealParams, anneal

GRAPH = generate_random_connected(6, 0.6, 5)

# (alpha, beta) cycled over the edges: alpha < beta with alpha = 0 makes the
# edge's constant cancel, alpha = beta drops the product, alpha > beta is
# the coloring case, and (2, 5) gives a negative product weight.
COST_CYCLE = ((0, 2), (3, 1), (1, 1), (0, 0), (2, 5))


def mixed_spec(g, gap, offset=0):
    costs = dict(zip(g.edges, itertools.islice(itertools.cycle(COST_CYCLE), offset, None)))
    return PartitionSpec(
        alpha={e: a for e, (a, _) in costs.items()},
        beta={e: b for e, (_, b) in costs.items()},
        gap=gap,
    )


def golden_models():
    models = {f"log_mgc_L{l}": encode_mgc_log(GRAPH, 1 << l) for l in (1, 2, 3, 4)}
    for l in (1, 2, 3, 4):
        models[f"log_general_L{l}"] = encode_general(GRAPH, mixed_spec(GRAPH, 2), l)
    models["log_general_unconstrained_L3"] = encode_general(GRAPH, mixed_spec(GRAPH, None), 3)
    for name, prob in list(models.items()):
        models[f"quadratized_{name}"] = quadratize(prob).problem
    models["onehot_mgc_c4"] = encode_mgc_onehot(GRAPH, 4)
    return models


GOLDEN_SHA256 = {
    "log_general_L1": "7b9c197dd9cd3400fcc8e898239f33ec6f0cd092f74ef93f76bd66b4e97c8f85",
    "log_general_L2": "bd3e98cf5718442e4d30ecadd920938e74ff674ccfa0a7118b12c10b01f7ed2a",
    "log_general_L3": "ced2f5721b51afd3ced273a2348a5b2e06ae8d67d06ba68edaac0f107d52d0bc",
    "log_general_L4": "9b69a2929fb8fd559be1a460f7920c1db7f23a6e9fd94f7b3f3eab054caf0b3f",
    "log_general_unconstrained_L3": "7abb6eaee12214b8e2af77cd66d8b0bd021cd8dede505adae71b7414d77d0de4",
    "log_mgc_L1": "ef06a204f3b0f7d7dec9c4ce8718bdca94dea6aed3a8f7e0508f06795ca2e2f1",
    "log_mgc_L2": "efa68de1d379c32f37170b7698b04d29641956fb986c4394f48db1e694f350d7",
    "log_mgc_L3": "92fe6e0319c4ccd97974203ce7f96d24bddda24e03388e3cf2e3b6060637f52e",
    "log_mgc_L4": "aedc9aca168e9c85a33f3a372759cab50ddc4fef6f6f24b64ff4e0c0a42fd2f8",
    "onehot_mgc_c4": "42d006d25650ba94528f6af6dffb6988eba6871e7fd696035484b3c67191745b",
    "quadratized_log_general_L1": "6446699d61116fd8d071a69e917eedf713764fa4da88ed16748031c3fed036df",
    "quadratized_log_general_L2": "93ec85fc5a3034a219b6f014585c30116e4c8c3630c530b135a787f88b87fda3",
    "quadratized_log_general_L3": "b4c10ecfd0efe464eb5bda1866a0450cfe6450e9571df8427810279b52702275",
    "quadratized_log_general_L4": "74a4bde8174d69927ecfd81d076e9346458a7105e6ea17cebe99dcbf4181cc00",
    "quadratized_log_general_unconstrained_L3": "b218e6b9518831d71e3f5e2473448923c74fba03a663d26e3be8ba9c437e1546",
    "quadratized_log_mgc_L1": "a058be3d45ca1c0541410d5ab8e613f1dadeb63ee2594191a43ff07dbf95497a",
    "quadratized_log_mgc_L2": "a965562b6a213adc98a308f7b9095daf8315f27754c88abe3cccc11cd09074bf",
    "quadratized_log_mgc_L3": "e2f69c47398f3b80e3bd74662428196c591ffa6233bcfbd556cb63f56787218a",
    "quadratized_log_mgc_L4": "43dad1bb21fb76e19781225b04bb4d0447930468010b0d288e231847588dcbaa",
}


@pytest.fixture(scope="module")
def models():
    return golden_models()


def test_golden_names_cover_every_model(models):
    assert set(models) == set(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_model_json_bytes_pinned(models, name):
    text = to_model_json(models[name])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]


def reference_general(g, spec, l, a):
    """encode_general's polynomial built with term-dict algebra alone."""
    poly = {(v * l + k,): (g.n + 1) ** k for k in range(l) for v in range(g.n)}
    one = {(): 1}
    for u, v in g.edges:
        agree = one
        for k in range(l):
            xu, xv = u * l + k, v * l + k
            agree = multiply(agree, {(xu, xv): 2, (xu,): -1, (xv,): -1, (): 1})
        alpha, beta = spec.alpha[(u, v)], spec.beta[(u, v)]
        cost = add_scaled(add_scaled({}, agree, alpha), add_scaled(one, agree, -1), beta)
        poly = add_scaled(poly, cost, a)
    return Polynomial(poly)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("gap", [1, 3, None])
def test_encode_general_matches_polynomial_algebra(l, gap):
    g = generate_random_connected(5, 0.7, 11 + l)
    spec = mixed_spec(g, gap, offset=l)
    a = 1 if gap is None else g.n * sum((g.n + 1) ** k for k in range(l)) // gap + 1
    prob = encode_general(g, spec, l)
    assert log_penalties(prob.meta).a_adjacency == a
    assert prob.polynomial == reference_general(g, spec, l, a)


# Negative quadratic couplings, a coupling of 2**70 whose flips are never
# accepted uphill, and num_vars two past the span (variables 6 and 7 occur
# in no term).
HAND_QUBO = Polynomial(
    {
        (): 5,
        (0,): 3,
        (1,): -2,
        (2,): 4,
        (3,): 1 - (1 << 70),
        (5,): -3,
        (0, 1): -4,
        (0, 5): 6,
        (1, 3): 1 << 70,
        (2, 3): -7,
        (2, 4): -1,
        (4, 5): 2,
    }
)
ANNEAL_PARAMS = AnnealParams(runs=6, sweeps=40, seed=11)


def golden_anneal_inputs():
    """(model, num_vars) of every pinned anneal: the layout of a log model,
    the polynomial of any other."""
    models = {f"onehot_mgc_c{c}": encode_mgc_onehot(GRAPH, c) for c in (3, 4)}
    for l in (1, 2, 3):
        models[f"quadratized_log_mgc_L{l}"] = quadratize(encode_mgc_log(GRAPH, 1 << l)).problem
    for l in (2, 3, 4):
        models[f"log_mgc_L{l}_degree{2 * l}"] = encode_mgc_log(GRAPH, 1 << l)
    inputs = {
        name: (checked_log_layout(prob) if prob.kind in LOG_KINDS else prob.polynomial, prob.num_variables)
        for name, prob in models.items()
    }
    inputs["hand_qubo"] = (HAND_QUBO, 8)
    # The degree-6 log HUBO as a plain polynomial, on colour classes.
    log_l3 = models["log_mgc_L3_degree6"]
    inputs["log_mgc_L3_degree6_classes"] = (log_l3.polynomial, log_l3.num_variables)
    return inputs


# Recorded with fixed-order sweeps: colour classes for QUBOs, label tables
# for log HUBOs. The colour-class pin of the degree-6 log HUBO was recorded
# before its kernel gathered a term's other members width-major. On GRAPH
# its classes visit every pair of variables that share a term in id order,
# so it matches the label-table pin.
ANNEAL_SHA256 = {
    "hand_qubo": "956630b77201126ccbbf2f4234c7cea2e7f5fbe8a3082a719262c35ff911eb44",
    "log_mgc_L2_degree4": "d490067b778d44a9bbd544c01baaab2a15e6e328a2aca3615a07928c4354fa92",
    "log_mgc_L3_degree6": "e36a33ba28d3b6ab9ad4b7723b0f4e13b26b846c2c3287c977a8464f00f8f275",
    "log_mgc_L3_degree6_classes": "e36a33ba28d3b6ab9ad4b7723b0f4e13b26b846c2c3287c977a8464f00f8f275",
    "log_mgc_L4_degree8": "80cb54f75617242d0eadadf8b130d4477c6b0ff5221b3edf2991f32d63db6cde",
    "onehot_mgc_c3": "f6f4f15eeab95cb713ad6e8aa7af1a7aaf864d451f0fea9a92a92dd24b7d2acc",
    "onehot_mgc_c4": "8873293aeffff18ae37c588a2c9a3080e17aa224f0ddfe98ed101c36cdb1bd6b",
    "quadratized_log_mgc_L1": "9f00663e1f80694db0814c6be949cd56c913ccff6ba36461e1e92bb7506b8c15",
    "quadratized_log_mgc_L2": "33a54d961d2f257b2398079854d8fa56ab9f98fb965ce6ce2ea4906520c33676",
    "quadratized_log_mgc_L3": "11087d8bb16657d488c2a0ce0c8d15466a500e42eda346438c255ca05243c342",
}


@pytest.fixture(scope="module")
def anneal_inputs():
    return golden_anneal_inputs()


def test_anneal_golden_names_cover_every_input(anneal_inputs):
    assert set(anneal_inputs) == set(ANNEAL_SHA256)


@pytest.mark.parametrize("name", sorted(ANNEAL_SHA256))
def test_anneal_bytes_pinned(anneal_inputs, name):
    model, num_vars = anneal_inputs[name]
    text = anneal(model, ANNEAL_PARAMS, num_vars).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == ANNEAL_SHA256[name]


def golden_energy_inputs():
    """(polynomial, num_vars) of every pinned energy vector: the shapes the
    exhaustive checks enumerate, at 20-23 variables, all in the int32 tier,
    plus a model whose coefficients need int64 and one that needs the object
    dtype, so that each tier keeps a pin."""
    inputs = {}
    for n, seed in ((10, 3), (11, 4)):
        prob = encode_mgc_log(generate_random_connected(n, 0.5, seed), 4)
        inputs[f"log_n{n}_c4"] = (prob.polynomial, prob.num_variables)
    prob = encode_mgc_onehot(generate_random_connected(4, 0.5, 5), 4)
    inputs["onehot_n4_c4"] = (prob.polynomial, prob.num_variables)
    prob = quadratize(encode_mgc_log(Graph(3, ((0, 1), (1, 2))), 8)).problem
    inputs["quadratized_path3_c8"] = (prob.polynomial, prob.num_variables)
    wide = Polynomial({(): -(1 << 40), (0, 13): 1 << 40, (1, 2, 12): -(3 << 38), (5,): 7, (2, 9): -1})
    inputs["int64_dtype"] = (wide, 14)
    big = Polynomial({(): -(1 << 70), (0, 3): 1 << 70, (1, 2, 4): -(3 << 68), (5,): 7, (2, 9): -1})
    inputs["object_dtype"] = (big, 12)
    return inputs


def energy_digest(energies):
    """SHA-256 over the dtype and the entries; object entries as decimal text."""
    h = hashlib.sha256(str(energies.dtype).encode() + b"\n")
    if energies.dtype == object:
        h.update(",".join(str(e) for e in energies.tolist()).encode())
    else:
        h.update(energies.tobytes())
    return h.hexdigest()


# object_dtype was recorded with the per-term masked evaluation, before the
# zeta transform, and int64_dtype with the int64/object zeta transform. The
# four int32 vectors were re-pinned when energy_vector took int32 below
# 2**31: each, cast to int64, hashes to the int64 digest recorded before
# then, so no entry changed.
ENERGY_SHA256 = {
    "int64_dtype": "d5ebc7062b6562ac24d9e1191d7ef06a810651be723e0af7fa9d7507b78a20aa",
    "log_n10_c4": "46f8e6213753c5031906b7b79a19669580e7ed71a423764b70194c6204e79ed0",
    "log_n11_c4": "e90f76a9457beb8af6b16631131d9e4d4bf3f88fba4be7162788ddef4800b6ba",
    "object_dtype": "b3da354901afd89d1b6db6d5516115033b0a7edad58280bd8a51731b9dd35075",
    "onehot_n4_c4": "c1230715831de9b11abb68ed5366529a3808f0d9a7cd60362fe9bf69778b3da7",
    "quadratized_path3_c8": "c6780b86b8c0345ef10a0b54c4806943d482113d8b24b1d03ec268c7dbfdccae",
}


def test_energy_golden_names_cover_every_input():
    assert set(golden_energy_inputs()) == set(ENERGY_SHA256)


@pytest.mark.parametrize("name", sorted(ENERGY_SHA256))
def test_energy_vector_bytes_pinned(name):
    poly, num_vars = golden_energy_inputs()[name]
    assert energy_digest(energy_vector(poly, num_vars)) == ENERGY_SHA256[name]


def gate_digest(poly):
    """SHA-256 over the oracle's report and every spin coefficient of the expansion."""
    pairs = sorted((key, str(coeff)) for key, coeff in spin_terms(poly).items())
    text = cnot_count_oracle(poly).to_json() + repr(pairs)
    return hashlib.sha256(text.encode()).hexdigest()


# Recorded with the (numerator, shift) dyadic oracle, before the expansion
# moved to integers scaled by 2**degree.
GATE_SHA256 = {
    "log_general_L1": "1b89990ee8f901ded30074933400e3cefb2ac3957047027f5c13150cbf916b6c",
    "log_general_L2": "3e0c6f8301361dc6be1774622a468f94ac7e56ab5d400fe7867d4276cea43317",
    "log_general_L3": "62d2ac17b55912487dbe72a7111d8e3052d8a8d46c1d4895fd17886219254592",
    "log_general_L4": "e1228439ce6c7b07edc09671a8dedc49052a85f19864471e95a1801a7431d586",
    "log_general_unconstrained_L3": "20e46b2e4fa0484be0d679aff50448ffc209a4b52420265b2dacaa8de196c998",
    "log_mgc_L1": "ca644d1d8a110a650871d70b52af61034782cab91fa701cf25f5afdcbcceb826",
    "log_mgc_L2": "37020c1f4e6b378d88206e3e877c56a8e44019f05581884aa8804320dc962d0d",
    "log_mgc_L3": "9335516e861104d3e0943ace46323199ff36e738cee581009c1606daac9c2b28",
    "log_mgc_L4": "946dd2b31461d5dc873c7a6783ade8283c41d867691558570ea9667938fd7ba0",
    "onehot_mgc_c4": "4bf881a41fbff164da3a57fbbf7c252b5840353d85af82669fe2b4ce6822c9d5",
    "quadratized_log_general_L1": "1b89990ee8f901ded30074933400e3cefb2ac3957047027f5c13150cbf916b6c",
    "quadratized_log_general_L2": "897e796aa16f42e75b559ab2d8ee60abdbd65cb4bf33eb9ea2db70443847f974",
    "quadratized_log_general_L3": "f38234c9d7d32585dcddba53831da53fba6cf1beb808c8886eb0788e78b27bc0",
    "quadratized_log_general_L4": "dde936d564243128fbfda7d7ab6c90eed8ec76f6a80a8aaee2c497fc2de9ac7b",
    "quadratized_log_general_unconstrained_L3": "3869f5c02a12d9a9bb13cf4aa00e2d99fb1d4b1c8e31bb652f59be46dbbddd89",
    "quadratized_log_mgc_L1": "ca644d1d8a110a650871d70b52af61034782cab91fa701cf25f5afdcbcceb826",
    "quadratized_log_mgc_L2": "ff0e1f799051942ebd86a84fd25d00e01223a2317b221dbea9de67593829c58b",
    "quadratized_log_mgc_L3": "8c8a3b55abe93183550da339fc2f73ce06bea04b88e0f43af000f634bd31ec84",
    "quadratized_log_mgc_L4": "f4746aad6ede87d2576c678b19aaee795a61de3ec2775544eadcfbefb18d2c5a",
}


def test_gate_golden_names_cover_every_model(models):
    assert set(models) == set(GATE_SHA256)


@pytest.mark.parametrize("name", sorted(GATE_SHA256))
def test_gate_oracle_pinned(models, name):
    assert gate_digest(models[name].polynomial) == GATE_SHA256[name]


# No output reads the order of a Polynomial's terms: the model writer sorts them,
# colour classes come from a sorted Graph, and fields, spin coefficients and
# energies are exact sums. So the builders may write their terms in any order.
ORDER_MODELS = {
    "spin_state_qubo": lambda: quadratize(encode_mgc_log(Graph(3, ((0, 1), (1, 2))), 4)).problem,
    "bool_state_hubo": lambda: encode_mgc_log(GRAPH, 8),
    "onehot_qubo": lambda: encode_mgc_onehot(GRAPH, 3),
}


@pytest.mark.parametrize("name", sorted(ORDER_MODELS))
def test_outputs_do_not_read_term_order(name):
    prob = ORDER_MODELS[name]()
    p, nv = prob.polynomial, prob.num_variables
    q = Polynomial._from_canonical(dict(reversed(list(p.items()))))
    assert list(q.items()) == list(reversed(list(p.items())))
    assert to_model_json(EncodedProblem(q, prob.registry, prob.meta)) == to_model_json(prob)
    assert anneal(q, ANNEAL_PARAMS, nv).to_json() == anneal(p, ANNEAL_PARAMS, nv).to_json()
    assert cnot_count_oracle(q).to_json() == cnot_count_oracle(p).to_json()
    assert energy_digest(energy_vector(q, nv)) == energy_digest(energy_vector(p, nv))


def as_kind_hubo(text):
    """The model relabelled as kind "hubo", which qpart does not know, so
    `qpart solve` anneals its polynomial on colour classes."""
    doc = json.loads(text)
    doc["metadata"]["kind"] = "hubo"
    return json.dumps(doc)


GEN_N6 = "gen --n 6 --seed 1"
LOG_N6_C8 = (GEN_N6, "encode --in - --colors 8")
QUAD_N6_C8 = (*LOG_N6_C8, "quadratize --in -")
ONEHOT_N6_C8 = (GEN_N6, "encode --in - --encoding onehot --colors 8")
QUAD_N10_C4 = ("gen --n 10 --seed 3", "encode --in - --colors 4", "quadratize --in -")
LOG_N20_C16 = ("gen --n 20 --seed 7", "encode --in - --colors 16")
LOG_N40_C16 = ("gen --n 40 --density 0.1 --seed 3", "encode --in - --colors 16")
LOG_N64_C16 = ("gen --n 64 --density 0.5 --seed 0", "encode --in - --colors 16")
ONEHOT_N20_C16 = ("gen --n 20 --seed 7", "encode --in - --encoding onehot --colors 16")
SOLVE = "solve --in - --runs 4 --sweeps 20 --seed 0"
BENCH_S0 = "bench --seed 0 --out-csv bench_s0.csv --out-json bench_s0.json"
BENCH_S2 = "bench --count 3 --runs 4 --sweeps 10 --seed 2 --out-csv bench_s2.csv --out-json bench_s2.json"
BENCH_N3_6 = (
    "bench --count 6 --n-min 3 --n-max 6 --runs 8 --sweeps 20 --seed 0"
    " --out-csv bench_n3_6.csv --out-json bench_n3_6.json"
)

# Each pipeline is a chain of stages run in one process: a `qpart` command
# line through cli.main, or a function of the text. Each stage reads the
# stdout of the one before it. The pinned output is the file of the entry's
# name when the chain writes one (`qpart bench`), and its stdout otherwise.
CLI_PIPELINES = {
    # An L=3 log HUBO of degree 6, its one-hot QUBO and its quadratization,
    # and seeded anneals of each: the log HUBO on label tables, the same
    # polynomial as an unknown kind on colour classes, and both QUBOs on
    # colour classes with a spin state.
    "log_n6_c8.json": LOG_N6_C8,
    "onehot_n6_c8.json": ONEHOT_N6_C8,
    "quad_n6_c8.json": QUAD_N6_C8,
    "solve_log_n6_c8.json": (*LOG_N6_C8, SOLVE),
    "solve_hubo_n6_c8.json": (*LOG_N6_C8, as_kind_hubo, SOLVE),
    "solve_onehot_n6_c8.json": (*ONEHOT_N6_C8, SOLVE),
    "solve_quad_n6_c8.json": (*QUAD_N6_C8, SOLVE),
    # An L=2 quadratization, whose chains are empty, and a seeded anneal of it.
    "quad_n10_c4.json": QUAD_N10_C4,
    "solve_quad_n10_c4.json": (*QUAD_N10_C4, SOLVE),
    # An n=20, L=4 log model, its quadratization and both gate reports.
    "log_n20_c16.json": LOG_N20_C16,
    "quad_n20_c16.json": (*LOG_N20_C16, "quadratize --in -"),
    "gates_log_n20_c16.json": (*LOG_N20_C16, "gates --in -"),
    "gates_quad_n20_c16.json": (*LOG_N20_C16, "quadratize --in -", "gates --in -"),
    # An n=40, L=4 log model, whose 160 ids take 8 bits, so that a degree-8
    # key packs into two int64 sort words; its quadratization and both gate
    # reports.
    "log_n40_c16.json": LOG_N40_C16,
    "quad_n40_c16.json": (*LOG_N40_C16, "quadratize --in -"),
    "gates_log_n40_c16.json": (*LOG_N40_C16, "gates --in -"),
    "gates_quad_n40_c16.json": (*LOG_N40_C16, "quadratize --in -", "gates --in -"),
    # The n=64, c=16 log model of perfbench's build workload, its
    # quadratization, whose 10,336 variables take ids of five digits, and the
    # log model's gate report.
    "log_n64_c16.json": LOG_N64_C16,
    "quad_n64_c16.json": (*LOG_N64_C16, "quadratize --in -"),
    "gates_log_n64_c16.json": (*LOG_N64_C16, "gates --in -"),
    # An n=20, c=16 one-hot QUBO, its gate report and a seeded anneal of it.
    "onehot_n20_c16.json": ONEHOT_N20_C16,
    "gates_onehot_n20_c16.json": (*ONEHOT_N20_C16, "gates --in -"),
    "solve_onehot_n20_c16.json": (*ONEHOT_N20_C16, SOLVE),
    # A graph in DIMACS text, its one-hot QUBO and every ground state of it.
    "solve_exact_dimacs_n5_c3.json": (
        "gen --n 5 --seed 2 --format dimacs",
        "encode --in - --format dimacs --encoding onehot --colors 3",
        "solve --in - --exact",
    ),
    # The default bench, 20 instances at 50 runs x 200 sweeps.
    "bench_s0.csv": (BENCH_S0,),
    "bench_s0.json": (BENCH_S0,),
    # A small bench whose g002_n6_d0.8 counts one 6-colour log run at c = 5.
    "bench_s2.csv": (BENCH_S2,),
    "bench_s2.json": (BENCH_S2,),
    # A bench with an L=1 passthrough, quadratized L=2 arms, the one-run
    # clamp at p_s = 0.5 and p_s = 1, and a censored arm on each encoding.
    "bench_n3_6.csv": (BENCH_N3_6,),
    "bench_n3_6.json": (BENCH_N3_6,),
    # Two instances at 2 runs x 5 sweeps, CSV on stdout.
    "bench_small_s0.csv": ("bench --count 2 --runs 2 --sweeps 5 --seed 0",),
}

CLI_SHA256 = {
    "bench_n3_6.csv": "1ed9ca70bbc73cec8bb969902bdc1e1736a842689fc809eeba79c48cc83f47e1",
    "bench_n3_6.json": "dffb285acf5a5c8130a241bdfcbbcab5520ff304c9c486ad1b02c08fe7b0ddb3",
    "bench_s0.csv": "2e400f4dca1fd43edb0cb60f567550dfa4c8fed2bec93368f187998af89afb5f",
    "bench_s0.json": "5a8dbafd4c1e06bf642f5c8637ceb09611b45f0cc1dd2ee88619709f15f7dd5d",
    "bench_s2.csv": "c627cc262c77e6de8c2d711565466b0d3dd02eb3f3a6de0c4584f5e7c2a82511",
    "bench_s2.json": "e3a6b5d6d9e952c87f0e3b07f0e9445c09c0775a68b808797e4866cad9b94458",
    "bench_small_s0.csv": "0a2540f9e9cd9d06adf95211b8558a3cac142b52af2b3d457299b42ee676a14d",
    "gates_log_n20_c16.json": "a319b9ec3254bf32d26565a3496edc652b65080a88568e46483ffd5d3837252c",
    "gates_log_n40_c16.json": "4417dd6290c7224b64b9f4bfe98ce57a8c0123cbd5b538e422d1695367ff9fa3",
    "gates_log_n64_c16.json": "582ea22061b3a12d3362c494a4701688236eac94d5360e966924e266b1a39daa",
    "gates_onehot_n20_c16.json": "105f9f99dabda1771abbd54d97b5ad8cc9fab40f512e5a68df84c496ca85e8a9",
    "gates_quad_n20_c16.json": "daa2aadad0bdd86582d56d351b3d2889b2dc297ead4acb86659659360d5e9bb5",
    "gates_quad_n40_c16.json": "150a336b305334bde398fa0d07b346f1a5323b57feccf996ef22e967694c0d57",
    "log_n20_c16.json": "fe6dcf4eac97c0cfaac884e305d5b522c79f91e99b92f72e2ffdb8fed9f09802",
    "log_n40_c16.json": "4546d56716f8ea16c266a8e05d7bc2501db0ffb706594ec8f3b15d3935375c56",
    "log_n64_c16.json": "2ff7648ceebda08cec2bb8e5c4c0320a9cd7cc1b6eedd6264fcfc390f7d09aeb",
    "log_n6_c8.json": "77b1f7501245646ec2e8838b9f40296d7004cbde3890755b90134ab2047cc498",
    "onehot_n20_c16.json": "3bbe221f77a8d0f3fde8417c74e91bcb261adc075f5684919d03c7daea6640fe",
    "onehot_n6_c8.json": "f4f6b1a19d58d138fa2aa03c5676d7c1d5a4461021f2b4633ef9d96a91722503",
    "quad_n10_c4.json": "aacbc05798e06f5779f0085d5a9caaa1dbf75def00a8d06ad697d2e85d6ab404",
    "quad_n20_c16.json": "5c70fdbad1b909da231748967faa28107d75f7055d9843b6677b36c074aad69b",
    "quad_n40_c16.json": "b58a4d66458bba9ea266b225cc730a26eec9f9db7b4cb2fa82307d7c2e8e0317",
    "quad_n64_c16.json": "e025de00eb0abad8a1327e71e2eedab97dd39ce35f2b0677fa06a9874bbe4c64",
    "quad_n6_c8.json": "3804939f64e5827a4acb238332408ad72730a3a164b36af2239086961c92ef6c",
    "solve_exact_dimacs_n5_c3.json": "e7fce801fa4a31cab6096ca05caca855956ea3c12f612894143ffc71fccad19b",
    "solve_hubo_n6_c8.json": "01afc8c4e22ec48fee29fa1065df1c61f56527fc522ea07915310a97ecf07216",
    "solve_log_n6_c8.json": "353cad8469d22e95eaccb312b083f48b4ea0b7ba615d6af605b40243bc250fb7",
    "solve_onehot_n20_c16.json": "430bb978c8bff0d4b04e305daa802282e419b68547f41ca6dec60639d7546a69",
    "solve_onehot_n6_c8.json": "dc5fd383e90af579f98eb867cb2a42db76a40663582a551e97dd748a0bf22107",
    "solve_quad_n10_c4.json": "0f9630e05d39885972e8f242e84368120f0768ecd5e60f638c3e0f8dab6cb8a1",
    "solve_quad_n6_c8.json": "694424c7713326fd19760c7ee02e06f62f0d1f7ade30081be16e1b7db7cb012e",
}


@pytest.fixture(scope="module")
def cli_output(tmp_path_factory):
    """The bytes of one pipeline's output. Pipelines share the stdout of a
    common prefix of stages, and run in one directory, where bench writes."""
    workdir = tmp_path_factory.mktemp("cli")
    stdouts = {(): ""}

    def stdout_of(stages):
        if stages not in stdouts:
            text, stage = stdout_of(stages[:-1]), stages[-1]
            if callable(stage):
                stdouts[stages] = stage(text)
            else:
                out, err = io.StringIO(), io.StringIO()
                with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
                    mp.chdir(workdir)
                    mp.setattr(sys, "stdin", io.StringIO(text))
                    assert cli.main(stage.split()) == 0, err.getvalue()
                stdouts[stages] = out.getvalue()
        return stdouts[stages]

    def output(name):
        text = stdout_of(CLI_PIPELINES[name])
        path = workdir / name
        return path.read_bytes() if path.exists() else text.encode()

    return output


def test_cli_golden_names_cover_every_pipeline():
    assert set(CLI_PIPELINES) == set(CLI_SHA256)


@pytest.mark.parametrize("name", sorted(CLI_SHA256))
def test_cli_pipeline_bytes_pinned(cli_output, name):
    assert hashlib.sha256(cli_output(name)).hexdigest() == CLI_SHA256[name]
