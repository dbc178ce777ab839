"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and any findings.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from conftest import check_properties_onehot, connected_graphs_up_to_iso, population_of_bits

from qpart.bench import (
    SurvivalObservation,
    TimingModel,
    km_median,
    records_to_csv,
    run_suite,
    suite_instances,
    tts,
)
from qpart.gates import cnot_count_log_closed, cnot_count_onehot_closed, cnot_count_oracle
from qpart.graphs import Graph, brooks_upper_bound, chromatic_number_exact, generate_random_connected
from qpart.logenc import bits_for_colors, decode_log, encode_mgc_log
from qpart.onehot import encode_mgc_onehot
from qpart.pbo import ground_states
from qpart.quadratize import quadratize, qubit_advantage_predicate, verify_quadratization
from qpart.solve import AnnealParams


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_onehot_ground_states():
    """Every ground state of the one-hot QUBO is a minimal proper coloring.

    Runs the whole range chi(g) <= c <= n, a superset of the required
    {chi(g), n} pair.
    """
    checked = 0
    ok = True
    for n in (1, 2, 3, 4):
        for g in connected_graphs_up_to_iso(n):
            chi = chromatic_number_exact(g)
            for c in range(chi, g.n + 1):
                prob = encode_mgc_onehot(g, c)
                energy, states = ground_states(prob.polynomial, prob.num_variables)
                if energy != chi:
                    ok = False
                for bits in states:
                    if not check_properties_onehot(prob, bits).all_satisfied():
                        ok = False
                checked += 1
    report(1, "one-hot ground states are minimal proper colorings", ok, f"{checked} encodings")


def test_criterion_2_log_ground_states():
    """Log-encoding ground states are feasible and lexicographically minimal."""
    checked = 0
    ok = True
    for n in (1, 2, 3, 4):
        for g in connected_graphs_up_to_iso(n):
            for c in (2, 4):
                prob = encode_mgc_log(g, c)
                l = prob.meta["L"]
                feasible_pops = []
                for raw in itertools.product((0, 1), repeat=g.n * l):
                    labels = [
                        sum((1 << (k - 1)) * raw[v * l + k - 1] for k in range(1, l + 1))
                        for v in range(g.n)
                    ]
                    if all(labels[u] != labels[v] for u, v in g.edges):
                        feasible_pops.append(population_of_bits(raw, g.n, l))
                _, states = ground_states(prob.polynomial, prob.num_variables)
                if feasible_pops:
                    # populations compare from the most significant bit down
                    best = min(feasible_pops, key=lambda s: s[::-1])
                    for bits in states:
                        if not decode_log(prob, bits).is_proper(g):
                            ok = False
                        if population_of_bits(bits, g.n, l) != best:
                            ok = False
                checked += 1
    report(2, "log ground states feasible and lex-minimal", ok, f"{checked} encodings")


# Adjacent hubs 0 and 1, each the apex of two triangles: chi = 3, but the
# per-bit ladder's ground states at colour bound 4 all use 4 labels.
TWO_HUBS = Graph(
    10,
    ((0, 1), (0, 2), (0, 3), (2, 3), (0, 4), (0, 5), (4, 5), (1, 6), (1, 7), (6, 7), (1, 8), (1, 9), (8, 9)),
)


def test_criterion_3_color_count_agreement():
    """Distinct labels in log ground states versus the exact chromatic number."""
    suite = list(connected_graphs_up_to_iso(2))
    suite += connected_graphs_up_to_iso(3)
    suite += connected_graphs_up_to_iso(4)
    seed = 0
    while len(suite) < 30:
        suite.append(generate_random_connected(5, (0.2, 0.5, 0.8)[seed % 3], seed))
        seed += 1
    # Colour bound 4 keeps the two-hub graph at L = 2 (20 variables); Brooks gives 5.
    suite = [(g, brooks_upper_bound(g)) for g in suite] + [(TWO_HUBS, 4)]
    findings = []
    for idx, (g, colors) in enumerate(suite):
        chi = chromatic_number_exact(g)
        prob = encode_mgc_log(g, colors)
        _, states = ground_states(prob.polynomial, prob.num_variables)
        counts = Counter(decode_log(prob, bits).distinct_count() for bits in states)
        findings += [
            f"graph#{idx} (n={g.n}, m={g.m}): {k} of {len(states)} ground states use {used} labels vs chi={chi}"
            for used, k in sorted(counts.items())
            if used != chi
        ]
    for f in findings:
        print(f"  finding: implicit minimization mismatch: {f}")
    report(
        3,
        "log ground-state label counts vs chromatic number",
        True,
        f"{len(suite)} graphs, {len(findings)} mismatches (reported as findings)",
    )
    # The per-bit ladder orders colourings by bit populations, so it can miss chi.
    assert "graph#30 (n=10, m=13): 32 of 32 ground states use 4 labels vs chi=3" in findings


def test_criterion_4_quadratization_exactness():
    """Aux-minimized QUBO energies equal HUBO energies; ground sets project exactly."""
    from conftest import complete_graph, path_graph

    cases = [
        (complete_graph(2), 4),   # single edge, L=2: 8 qubits
        (complete_graph(2), 8),   # single edge, L=3: 13 qubits
        (path_graph(3), 4),       # path, L=2: 14 qubits
        (path_graph(3), 8),       # path, L=3: 23 qubits
        (path_graph(4), 4),       # longer path, L=2: 20 qubits
        (complete_graph(3), 8),   # triangle, L=3: 30 qubits, past exhaustive reach
    ]
    ok = True
    details = []
    for g, c in cases:
        hubo = encode_mgc_log(g, c)
        quad = quadratize(hubo)
        rep = verify_quadratization(hubo, quad)
        if not rep.passed:
            ok = False
        details.append(f"n={g.n},L={hubo.meta['L']}:{quad.problem.num_variables}q")
    report(4, "quadratization energy and ground-state preservation", ok, ", ".join(details))


def test_criterion_5_gate_count_cross_check():
    """Closed-form CNOT counts match the Ising-expansion oracle exactly."""
    rng = random.Random(2024)
    ok = True
    checked = 0
    for _ in range(50):
        n = rng.randint(3, 8)
        g = generate_random_connected(n, rng.choice((0.3, 0.5, 0.8)), rng.randrange(10**6))
        for c in (2, 3, 4):
            onehot = encode_mgc_onehot(g, c)
            if cnot_count_oracle(onehot.polynomial).cnot_count != cnot_count_onehot_closed(
                g.n, g.m, c
            ):
                ok = False
            log = encode_mgc_log(g, c)
            if cnot_count_oracle(log.polynomial).cnot_count != cnot_count_log_closed(
                g.m, log.meta["L"]
            ):
                ok = False
            checked += 2
    report(5, "gate-count closed forms vs expansion oracle", ok, f"{checked} comparisons")


def test_criterion_6_qubit_crossover_predicate():
    """The published crossover inequality, checked against exact rational arithmetic."""
    ns = (2, 4, 6, 8, 10, 12, 16, 20, 50, 100)
    cs = (2, 3, 4, 5, 8, 16, 32, 64, 100, 128)
    ok = True
    points = 0
    count_disagreements = 0
    for n in ns:
        max_m = n * (n - 1) // 2
        ms = sorted({round(j * max_m / 9) for j in range(10)})
        while len(ms) < 10:  # tiny n: pad with duplicates of the extremes
            ms.append(max_m)
        for m, c in itertools.product(ms[:10], cs):
            advantage, log_count, onehot_count = qubit_advantage_predicate(n, m, c)
            l = bits_for_colors(c)
            if l == 1:
                expected = True
            else:
                expected = Fraction(m) < Fraction(onehot_count - l, 2 * (l - 1))
            if advantage != expected:
                ok = False
            if advantage != (log_count < onehot_count):
                count_disagreements += 1
            points += 1
    if count_disagreements:
        print(
            f"  finding: the published inequality admits {count_disagreements}/{points} "
            "grid points where the published qubit counts do not favor the log encoding"
        )
    report(
        6,
        "crossover predicate agrees with exact-rational evaluation",
        ok and points >= 1000,
        f"{points} grid points",
    )


def test_criterion_7_tts_and_km_units():
    """TTS closed-form anchors and Kaplan-Meier reference values."""
    ok = True
    tm = TimingModel.for_qubits(37)
    value = tts(Fraction(1, 2), tm)
    if value is None or abs(value - tm.t_run) > 1e-9 * tm.t_run:
        ok = False
    if tts(Fraction(0), tm) is not None:
        ok = False
    value = tts(Fraction(1, 4), tm)
    expect = tm.t_run * math.log(0.5) / math.log(0.75)
    if value is None or abs(value - expect) > 1e-9 * expect:
        ok = False
    if tts(Fraction(3, 4), tm) != tm.t_run or tts(Fraction(1), tm) != tm.t_run:
        ok = False
    grid = [tts(Fraction(k, 100), tm) for k in range(1, 101)]
    if any(a < b for a, b in zip(grid, grid[1:])):
        ok = False

    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 30)
        times = [rng.randint(1, 60) for _ in range(n)]
        est = km_median(
            [SurvivalObservation(time=Fraction(t), censored=False) for t in times]
        )
        if est.median != sorted(times)[(n + 1) // 2 - 1]:
            ok = False

    est = km_median(
        [
            SurvivalObservation(time=Fraction(1), censored=False),
            SurvivalObservation(time=Fraction(2), censored=True),
            SurvivalObservation(time=Fraction(3), censored=False),
        ]
    )
    if est.median != 3 or est.median_is_lower_bound:
        ok = False
    if [(t, s) for t, s, _ in est.curve] != [(1, Fraction(2, 3)), (3, Fraction(0))]:
        ok = False
    report(7, "TTS anchors and Kaplan-Meier reference values", ok, "200 randomized trials")


def test_criterion_8_end_to_end_pipeline():
    """Twenty generated instances benchmarked under both encodings."""
    instances = suite_instances(20, 4, 10, (0.2, 0.5, 0.8), 1000, None)
    params = AnnealParams(runs=24, sweeps=96, seed=7)
    result = run_suite(instances, params, group_by="n")

    ok = not result.failures
    if len(result.records) != 40:
        ok = False
    csv_text = records_to_csv(result.records)
    lines = csv_text.strip().split("\n")
    if len(lines) != 41 or lines[0].count(",") != 10:
        ok = False
    for rec in result.records:
        if not rec.n * math.ceil(math.log2(rec.c)) < (rec.n + 1) * rec.c:
            ok = False
    group_ns = {key for _, key, _, _ in result.groups}
    if group_ns != {str(n) for n in range(4, 11)}:
        ok = False
    solved = sum(1 for r in result.records if r.tts_value is not None)
    report(
        8,
        "end-to-end benchmark pipeline",
        ok,
        f"40 records, {solved} uncensored, per-n medians for n=4..10",
    )
