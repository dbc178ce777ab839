"""Golden files: fixed-seed encodings and anneals must serialize to pinned bytes.

The model digests are SHA-256 of `to_model_json` output. Any change to how
a Hamiltonian is built that alters a coefficient, a variable role or a
metadata field changes a digest, so a refactor of the builders that
claims identical output is checked here byte for byte. The anneal digests
are SHA-256 of `SampleSet.to_json` output, so a change to the annealer
that alters a random draw, an acceptance decision or a final energy
changes one. The energy-vector digests cover the dtype and every entry of
`energy_vector`, so a change to exhaustive evaluation that alters one
energy or the int64/object choice changes one.
"""

import hashlib
import itertools

import pytest
from conftest import add_scaled, multiply, spin_terms

from qpart.gates import cnot_count_oracle
from qpart.graphs import Graph, generate_random_connected
from qpart.logenc import PartitionSpec, encode_general, encode_mgc_log
from qpart.model import to_model_json
from qpart.onehot import encode_gc_onehot, encode_mgc_onehot
from qpart.pbo import Polynomial, energy_vector
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
    models["onehot_gc_c3"] = encode_gc_onehot(GRAPH, 3)
    return models


GOLDEN_SHA256 = {
    "log_general_L1": "e059e901c0fd721998493569ee58cb1f513acd35917e97093077d6e81927e3d7",
    "log_general_L2": "b495792125ac39cdb4f0cade8a2595a0ae0b698e41fb630f37dc1b6959f7d5ec",
    "log_general_L3": "dc66a13b57e9f0400735225275681e534ab28cdb638277eaa5eb6f5b7fa81e96",
    "log_general_L4": "39ce48ef0565672d9c0970b84edfd0df7fad06643dd1453d105181de838fdd82",
    "log_general_unconstrained_L3": "faf4ab56505e33200e1c079c707c6be21e92eee8ba8ab1dec50d80ccc3eefb3e",
    "log_mgc_L1": "70f81f19948737357f7027d44e6f5127cd7ec06fde3c3e6b91281382fc2d55a2",
    "log_mgc_L2": "f9254727f5e588c6c8b79f95e6b475241a83e58a75fe78378b11c86233954a95",
    "log_mgc_L3": "643f1add3b11e7b0367b516826f95abb5c4c51221d559152ce8ef083cf035ff1",
    "log_mgc_L4": "d03e41b062cdb7eb3f476ecc17d213003d4e766578f3fa6b5e05ec9e14584cd3",
    "onehot_gc_c3": "5b8fd96400377c29fe75d0c3f21f924fc3d3182286bed2728e809e4fedae6e0e",
    "onehot_mgc_c4": "40fafec450c29bcce260a1a01008c3550338bb6cfd2fa809dbf942811dbcb0ed",
    "quadratized_log_general_L1": "52f60b4b163604cff2246bb8d61a88024a6ab7703d337978616e61455509b4a8",
    "quadratized_log_general_L2": "6a758191e1f838d88f4e99d4d86b42b2158d899587273b738ebeba9f2e1dd9e9",
    "quadratized_log_general_L3": "be7b2cf01297036ef4ebcb6fb408b71e28bcb9045e07f3dbc11f280abd9c03a9",
    "quadratized_log_general_L4": "c6548ed9e8f8a0d9a0fd076248fb1d6635e7268035ed31b02a7bfccb469b21f5",
    "quadratized_log_general_unconstrained_L3": "360e92d3afbf2a301de55ef26d99d81231cfa842494d0cb151da51c977d8eb7b",
    "quadratized_log_mgc_L1": "a29a719027a36e2e320941e3471b3ec99248f87ef36cad9b3c0648cf08183cd0",
    "quadratized_log_mgc_L2": "c9011d76171f1e9e36c44e03a48c063e6d5b43bbbb95a38875e63bcf22085236",
    "quadratized_log_mgc_L3": "ae65d52a4155348065c706a174404d7a6a69491fdca2f4d9a1b4a519f290f901",
    "quadratized_log_mgc_L4": "59320d657956020a6da531c82a77110428971802befa5a58e0b7e4fc1339d106",
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
    assert prob.penalties.a_adjacency == a
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
    """(polynomial, num_vars) of every pinned anneal."""
    models = {f"onehot_mgc_c{c}": encode_mgc_onehot(GRAPH, c) for c in (3, 4)}
    for l in (1, 2, 3):
        models[f"quadratized_log_mgc_L{l}"] = quadratize(encode_mgc_log(GRAPH, 1 << l)).problem
    for l in (2, 3, 4):
        models[f"log_mgc_L{l}_degree{2 * l}"] = encode_mgc_log(GRAPH, 1 << l)
    inputs = {name: (prob.polynomial, prob.num_variables) for name, prob in models.items()}
    inputs["hand_qubo"] = (HAND_QUBO, 8)
    return inputs


# Recorded with the per-term kernel on every input; the one flip-energy
# kernel must reproduce them.
ANNEAL_SHA256 = {
    "hand_qubo": "3b849a0ea35711971ff9add7e0dc31e2fe1e974eb308333050f8d7e8866cf394",
    "log_mgc_L2_degree4": "208ba500d7847e8386dea76a244e878a9b939a3a0e9d31612e5d9dd3c19c63df",
    "log_mgc_L3_degree6": "60b0dd28ddded9a7cea96b044e29c558bbedfd82ac2fe147209cac4ac0bae2ba",
    "log_mgc_L4_degree8": "c309e500e8bba5f1efe26004ccb1dc86333ec38d412ee7182a553f31ee6862ab",
    "onehot_mgc_c3": "241122909cec9e8f7fcf12ba6af1f86bcb4a89aa01b411a751e2e61487fa3b27",
    "onehot_mgc_c4": "acd49fc615a8fe3f3ed7d8ae1fb2ad02ed42db9b80b99f154d5d7b009097b9bd",
    "quadratized_log_mgc_L1": "0a7ebfb9da6fa82dd31b11dcc773fb0051642ea427146dcbb33bd00d51af3e8e",
    "quadratized_log_mgc_L2": "f134729fded2994f21935ded9dc8a127bc3cc1d7b8201d081fb7bb8788a5f275",
    "quadratized_log_mgc_L3": "bfeea1fd9ca6c1e04e1a48350b42c16dd6383ffea9b3498d2d9270b4645d0c2c",
}


@pytest.fixture(scope="module")
def anneal_inputs():
    return golden_anneal_inputs()


def test_anneal_golden_names_cover_every_input(anneal_inputs):
    assert set(anneal_inputs) == set(ANNEAL_SHA256)


@pytest.mark.parametrize("name", sorted(ANNEAL_SHA256))
def test_anneal_bytes_pinned(anneal_inputs, name):
    poly, num_vars = anneal_inputs[name]
    text = anneal(poly, ANNEAL_PARAMS, num_vars).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == ANNEAL_SHA256[name]


def golden_energy_inputs():
    """(polynomial, num_vars) of every pinned energy vector: the shapes the
    exhaustive checks enumerate, at 20-23 variables, plus a model whose
    coefficients need the object dtype."""
    inputs = {}
    for n, seed in ((10, 3), (11, 4)):
        prob = encode_mgc_log(generate_random_connected(n, 0.5, seed), 4)
        inputs[f"log_n{n}_c4"] = (prob.polynomial, prob.num_variables)
    prob = encode_mgc_onehot(generate_random_connected(4, 0.5, 5), 4)
    inputs["onehot_n4_c4"] = (prob.polynomial, prob.num_variables)
    prob = quadratize(encode_mgc_log(Graph(3, ((0, 1), (1, 2))), 8)).problem
    inputs["quadratized_path3_c8"] = (prob.polynomial, prob.num_variables)
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


# Recorded with the per-term masked evaluation, before the zeta transform.
ENERGY_SHA256 = {
    "log_n10_c4": "a2c872fc3506bf3401b4aaa146aa435f4e9544d586194c05524dc36c8c7575c9",
    "log_n11_c4": "b591a2932e996c2abcb83c4a0f3dbeb9b893e7439b63036068a692945edafd18",
    "object_dtype": "b3da354901afd89d1b6db6d5516115033b0a7edad58280bd8a51731b9dd35075",
    "onehot_n4_c4": "6907033d0dc87cb2313a7d9bb17de599edf580409c19509bccce4fdaf6a8971d",
    "quadratized_path3_c8": "1033e5e9002a72af4adfed422927de55a6d90df61871de1e5ac3b772e7e1e1b4",
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
    "onehot_gc_c3": "e75989b3080d5ee5f4c48148136b9751d7628b967dab6f5d74f3e80a3d29defe",
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
