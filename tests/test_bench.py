"""TTS, Kaplan-Meier aggregation, and the benchmark suite driver."""

import csv
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import complete_graph, path_graph

from qpart import bench, cli
from qpart.bench import (
    CSV_COLUMNS,
    BenchInstance,
    SurvivalObservation,
    TimingModel,
    km_median,
    records_to_csv,
    report_to_json,
    run_suite,
    sample_instance,
    score,
    tts,
)
from qpart.errors import InternalInvariantError
from qpart.graphs import Graph, brooks_upper_bound, generate_random_connected
from qpart.solve import AnnealParams


def obs(*pairs):
    return [SurvivalObservation(time=Fraction(t), censored=c) for t, c in pairs]


class TestTts:
    TM = TimingModel.for_qubits(37)

    def test_ratio_one_at_half(self):
        assert tts(Fraction(1, 2), self.TM) == pytest.approx(self.TM.t_run, rel=1e-9)

    def test_analytic_value(self):
        expect = self.TM.t_run * math.log(0.5) / math.log(0.75)
        assert tts(Fraction(1, 4), self.TM) == pytest.approx(expect, rel=1e-9)
        # the formula gives log(1/2) / log(1/4) = half a run, clamped to one
        assert tts(Fraction(3, 4), self.TM) == self.TM.t_run

    def test_zero_is_censored(self):
        assert tts(0, self.TM) is None
        assert tts(Fraction(0), self.TM) is None

    def test_one_clamps_to_single_run(self):
        assert tts(1, self.TM) == self.TM.t_run

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tts(1.5, self.TM)
        with pytest.raises(ValueError):
            tts(-0.1, self.TM)

    def test_monotone_nonincreasing_in_p(self):
        grid = [Fraction(k, 100) for k in range(1, 101)]
        values = [tts(p, self.TM) for p in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_default_readout_tracks_qubits(self):
        tm = TimingModel.for_qubits(37)
        assert tm.t_readout == 77.0
        assert tm.t_run == 20.0 + 77.0 + 1000.0


class TestKaplanMeier:
    def test_uncensored_reduces_to_sample_median(self):
        est = km_median(obs((1, False), (2, False), (3, False), (4, False), (5, False)))
        assert est.median == 3
        assert not est.median_is_lower_bound

    def test_all_censored_reports_lower_bound(self):
        est = km_median(obs((4, True), (9, True)))
        assert est.median == 9
        assert est.median_is_lower_bound
        assert est.ci_low is None and est.ci_high is None

    def test_hand_computed_mixed_censoring(self):
        est = km_median(obs((1, False), (2, True), (3, False)))
        assert [(t, s) for t, s, _ in est.curve] == [
            (1, Fraction(2, 3)),
            (3, Fraction(0)),
        ]
        # Greenwood at t=1: (2/3)^2 * 1/(3*2)
        assert est.curve[0][2] == Fraction(2, 27)
        assert est.median == 3
        assert not est.median_is_lower_bound

    def test_matches_sample_median_randomized(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 25)
            times = [rng.randint(1, 50) for _ in range(n)]
            est = km_median(obs(*[(t, False) for t in times]))
            # lower sample median: the ceil(n/2)-th order statistic
            expected = sorted(times)[(n + 1) // 2 - 1]
            assert est.median == expected

    def test_survival_curve_monotone_in_unit_interval(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 20)
            data = [(rng.randint(1, 30), rng.random() < 0.4) for _ in range(n)]
            est = km_median(obs(*data))
            values = [s for _, s, _ in est.curve]
            assert all(0 <= s <= 1 for s in values)
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(v >= 0 for _, _, v in est.curve)

    def test_ties_events_before_censorings(self):
        est = km_median(obs((2, False), (2, True), (2, False)))
        # both events happen with 3 at risk
        assert est.curve == ((2, Fraction(1, 3), Fraction(1, 3) ** 2 * Fraction(2, 3)),)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            km_median([])

    def test_ci_bounds_bracket_median(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(4, 30)
            data = [(rng.randint(1, 40), rng.random() < 0.2) for _ in range(n)]
            est = km_median(obs(*data))
            if est.ci_low is not None and not est.median_is_lower_bound:
                assert est.ci_low <= float(est.median)
            if est.ci_high is not None and est.ci_low is not None:
                assert est.ci_low <= est.ci_high


class TestRunSuite:
    def test_single_instance_two_records(self):
        report = run_suite(
            [BenchInstance("p3", path_graph(3), density=0.67, colors=2)],
            AnnealParams(runs=8, sweeps=64, seed=0),
        )
        assert len(report.records) == 2
        by_enc = {r.encoding: r for r in report.records}
        assert by_enc["log"].qubits_pre == 3
        assert by_enc["onehot"].qubits_pre == 8
        assert by_enc["log"].qubits_pre < by_enc["onehot"].qubits_pre

    def test_unreachable_bound_censors_everything(self):
        # a triangle cannot be properly 2-colored, so no run ever succeeds
        report = run_suite(
            [BenchInstance("k3", complete_graph(3), colors=2)],
            AnnealParams(runs=6, sweeps=32, seed=0),
        )
        assert all(r.tts_value is None for r in report.records)
        assert all(r.p_s == 0 for r in report.records)
        for _, _, _, est in report.groups:
            assert est.median_is_lower_bound

    def test_one_vertex_graph_without_density(self):
        # n(n-1)/2 = 0 pairs: the density is 0, not a division by zero
        report = run_suite([BenchInstance("k1", Graph(1, ()))], AnnealParams(runs=4, sweeps=8, seed=0))
        assert report.failures == ()
        assert [(r.encoding, r.density, r.p_s) for r in report.records] == [
            ("onehot", 0.0, 1),
            ("log", 0.0, 1),
        ]

    def test_csv_columns_and_rows(self):
        report = run_suite(
            [BenchInstance("p3", path_graph(3), colors=2)],
            AnnealParams(runs=4, sweeps=16, seed=0),
        )
        text = records_to_csv(report.records)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_json_report_well_formed(self):
        report = run_suite(
            [BenchInstance("p3", path_graph(3), colors=2)],
            AnnealParams(runs=4, sweeps=16, seed=0),
        )
        doc = json.loads(report_to_json(report))
        assert doc["notes"]
        assert len(doc["records"]) == 2
        assert doc["groups"]
        assert doc["failures"] == []

    def test_csv_rows_agree_with_json_records(self):
        # solved, censored (K3 at 2 colours) and Brooks-bound records
        instances = [
            BenchInstance("p3", path_graph(3), colors=2),
            BenchInstance("k3", complete_graph(3), colors=2),
            BenchInstance("k4", complete_graph(4)),
        ]
        report = run_suite(instances, AnnealParams(runs=4, sweeps=16, seed=0))
        rows = list(csv.DictReader(io.StringIO(records_to_csv(report.records))))
        records = json.loads(report_to_json(report))["records"]
        assert len(rows) == len(records) == 6
        assert {r["censored"] for r in records} == {True, False}
        for row, rec in zip(rows, records):
            for column in set(CSV_COLUMNS) - {"p_s", "tts", "censored"}:
                assert row[column] == str(rec[column])
            assert float(Fraction(rec["p_s"])) == float(row["p_s"])
            assert (float(row["tts"]) if row["tts"] else None) == rec["tts"]
            assert row["censored"] == str(rec["censored"]).lower()

    def test_failures_recorded_suite_continues(self):
        disconnected = type(path_graph(3))(4, ((0, 1), (2, 3)))
        report = run_suite(
            [
                BenchInstance("bad", disconnected),  # Brooks rejects disconnected
                BenchInstance("good", path_graph(3), colors=2),
            ],
            AnnealParams(runs=4, sweeps=16, seed=0),
        )
        assert len(report.failures) == 1
        assert report.failures[0][0] == "bad"
        assert len(report.records) == 2

    def test_invariant_error_propagates(self, monkeypatch, capsys):
        def broken(prob):
            raise InternalInvariantError("integrity check failed")

        monkeypatch.setattr(bench, "quadratize", broken)
        with pytest.raises(InternalInvariantError):
            run_suite(
                [BenchInstance("p3", path_graph(3), colors=2)],
                AnnealParams(runs=4, sweeps=16, seed=0),
            )
        argv = ["bench", "--count", "1", "--n-min", "4", "--n-max", "4", "--runs", "2", "--sweeps", "2"]
        assert cli.main(argv) == 4
        assert "internal invariant" in capsys.readouterr().err

    def test_other_errors_propagate(self, monkeypatch):
        # Only a ValueError is bad input; any other error in a step is a bug.
        def broken(prob):
            raise TypeError("a step called wrongly")

        monkeypatch.setattr(bench, "quadratize", broken)
        with pytest.raises(TypeError, match="a step called wrongly"):
            run_suite(
                [BenchInstance("p3", path_graph(3), colors=2)],
                AnnealParams(runs=4, sweeps=16, seed=0),
            )

    def test_arm_steps_resolve_at_call_time(self, monkeypatch):
        # perfbench's tracer and the invariant test above replace these names on
        # the module; an arm table holding the functions themselves escapes both.
        steps = ("encode_mgc_onehot", "encode_mgc_log", "quadratize", "anneal", "decode_onehot", "decode_log")
        calls = Counter()
        for name in steps:

            def counted(*args, _name=name, _step=getattr(bench, name), **kwargs):
                calls[_name] += 1
                return _step(*args, **kwargs)

            monkeypatch.setattr(bench, name, counted)
        runs = 5
        report = run_suite(
            [BenchInstance("p4", path_graph(4), colors=3)], AnnealParams(runs=runs, sweeps=8, seed=0)
        )
        assert report.failures == () and len(report.records) == 2
        assert calls == {
            "encode_mgc_onehot": 1,
            "encode_mgc_log": 1,
            "quadratize": 1,
            "anneal": 2,
            "decode_onehot": runs,
            "decode_log": runs,
        }

    def test_group_by_density(self):
        report = run_suite(
            [
                BenchInstance("a", path_graph(3), density=0.2, colors=2),
                BenchInstance("b", path_graph(4), density=0.8, colors=2),
            ],
            AnnealParams(runs=4, sweeps=16, seed=0),
            group_by="density",
        )
        keys = {key for _, key, _, _ in report.groups}
        assert keys == {"0.20", "0.80"}

    def test_invalid_group_key(self):
        with pytest.raises(ValueError):
            run_suite([], AnnealParams(runs=1, sweeps=1), group_by="m")

    def test_qubit_accounting_invariant(self):
        report = run_suite(
            [BenchInstance("p4", path_graph(4), colors=2)],
            AnnealParams(runs=4, sweeps=16, seed=0),
        )
        for r in report.records:
            if r.c >= 2:
                assert r.n * math.ceil(math.log2(r.c)) < (r.n + 1) * r.c


class TestScore:
    """`score` on one instance's sampled colour counts, at targets other than best-found."""

    PARAMS = AnnealParams(runs=16, sweeps=20, seed=0)

    @pytest.fixture(scope="class")
    def sampled(self):
        g = generate_random_connected(5, 0.5, 2)
        c = brooks_upper_bound(g)
        return BenchInstance("g", g, colors=c), c, sample_instance(g, c, self.PARAMS)

    def hits(self, sampled, target):
        inst, c, arms = sampled
        return {r.encoding: r.p_s * self.PARAMS.runs for r in score(inst, c, arms, target, self.PARAMS)}

    def test_no_target_censors_every_record(self, sampled):
        inst, c, arms = sampled
        records = list(score(inst, c, arms, None, self.PARAMS))
        assert [r.encoding for r in records] == ["onehot", "log"]
        assert all(r.p_s == 0 and r.tts_value is None for r in records)

    def test_hits_never_fall_as_target_rises(self, sampled):
        _, _, arms = sampled
        top = max(q for _, _, counts in arms.values() for q in counts if q is not None)
        series = [self.hits(sampled, target) for target in range(top + 2)]
        assert all(h == 0 for h in series[0].values())
        assert all(h > 0 for h in series[-1].values())
        for encoding in arms:
            values = [h[encoding] for h in series]
            assert values == sorted(values)

    def test_largest_count_hits_every_feasible_run(self, sampled):
        _, _, arms = sampled
        for encoding, (_, _, counts) in arms.items():
            feasible = [q for q in counts if q is not None]
            # this seed decodes a proper colouring of several sizes in each arm
            assert len(set(feasible)) > 1
            assert self.hits(sampled, max(feasible))[encoding] == len(feasible)
