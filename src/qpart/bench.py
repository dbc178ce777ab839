"""Time-to-solution benchmarking with Kaplan-Meier aggregation.

The experiment is instances -> sample -> score: `suite_instances` draws the
graphs, `sample_instance` encodes, anneals and decodes each both ways, and
`score` counts the runs within a target colour count (`run_suite` passes the
fewest either encoding found). Unsolved records are censored at the run budget.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .graphs import Coloring, Graph, brooks_upper_bound, generate_random_connected
from .logenc import bits_for_colors, decode_log, encode_mgc_log
from .onehot import decode_onehot, encode_mgc_onehot
from .pbo import EncodedProblem
from .quadratize import quadratize
from .solve import AnnealParams, anneal

Z_95 = 1.96
T_ANNEAL = 20.0
T_THERMALIZE = 1000.0


@dataclass(frozen=True)
class TimingModel:
    """Per-run time in microseconds: a fixed anneal and thermalization plus the readout."""

    t_readout: float

    @property
    def t_run(self) -> float:
        return T_ANNEAL + self.t_readout + T_THERMALIZE

    @staticmethod
    def for_qubits(num_qubits: int) -> TimingModel:
        """Nominal constants with readout time growing with the qubit count."""
        return TimingModel(t_readout=40.0 + num_qubits)


def tts(p_s: Fraction | float, timing: TimingModel) -> float | None:
    """Expected time to hit the target with 50% confidence; None when censored.

    p_s = 0 cannot be extrapolated and is right-censored. The run
    multiplier log(1/2) / log(1 - p) is clamped to at least one run, so
    TTS never grows with p and every p_s >= 1/2 gives t_run.
    """
    p = Fraction(p_s)
    if p < 0 or p > 1:
        raise ValueError(f"success probability must lie in [0, 1], got {p_s}")
    if p == 0:
        return None
    if p >= Fraction(1, 2):
        return timing.t_run
    return timing.t_run * (math.log(0.5) / math.log(1.0 - float(p)))


@dataclass(frozen=True)
class SurvivalObservation:
    time: Fraction
    censored: bool


@dataclass(frozen=True)
class SurvivalEstimate:
    """Product-limit curve with Greenwood variances and the median crossing.

    median is the smallest event time where the curve reaches 1/2; when
    the curve never gets there the largest observed time is reported and
    flagged as a lower bound. ci_low / ci_high are the times where the
    plain Greenwood 95% band crosses 1/2, None when a band never does.
    """

    median: Fraction
    median_is_lower_bound: bool
    ci_low: float | None
    ci_high: float | None
    curve: tuple[tuple[Fraction, Fraction, Fraction], ...]


def km_median(observations: Sequence[SurvivalObservation]) -> SurvivalEstimate:
    """Kaplan-Meier estimate over right-censored observations.

    Survival fractions and Greenwood variances are exact rationals; only
    the confidence-band square root goes through floats. At tied times
    events precede censorings. When the last at-risk subject is an event
    the curve reaches zero and its variance is pinned to zero.
    """
    if not observations:
        raise ValueError("km_median needs at least one observation")
    obs = sorted((Fraction(o.time), o.censored) for o in observations)
    at_risk = len(obs)
    survival = Fraction(1)
    greenwood_sum = Fraction(0)
    curve: list[tuple[Fraction, Fraction, Fraction]] = []

    for t, tied in itertools.groupby(obs, key=operator.itemgetter(0)):
        flags = [censored for _, censored in tied]
        c = sum(flags)
        d = len(flags) - c
        if d > 0:
            if d == at_risk:
                survival = Fraction(0)
                variance = Fraction(0)
            else:
                survival *= Fraction(at_risk - d, at_risk)
                greenwood_sum += Fraction(d, at_risk * (at_risk - d))
                variance = survival * survival * greenwood_sum
            curve.append((t, survival, variance))
        at_risk -= d + c

    median, lower_bound = next(
        ((t, False) for t, s, _ in curve if s <= Fraction(1, 2)), (obs[-1][0], True)
    )

    ci_low = None
    ci_high = None
    for t, s, var in curve:
        se = math.sqrt(float(var))
        if ci_low is None and float(s) - Z_95 * se <= 0.5:
            ci_low = float(t)
        if ci_high is None and float(s) + Z_95 * se <= 0.5:
            ci_high = float(t)

    return SurvivalEstimate(
        median=median,
        median_is_lower_bound=lower_bound,
        ci_low=ci_low,
        ci_high=ci_high,
        curve=tuple(curve),
    )


@dataclass(frozen=True)
class BenchInstance:
    instance_id: str
    graph: Graph
    density: float | None = None
    colors: int | None = None


@dataclass(frozen=True)
class BenchRecord:
    instance_id: str
    encoding: str
    n: int
    m: int
    c: int
    l: int
    qubits_pre: int
    qubits_post: int
    p_s: Fraction
    tts_value: float | None
    t_censor: float
    density: float


@dataclass(frozen=True)
class BenchReport:
    records: tuple[BenchRecord, ...]
    groups: tuple[tuple[str, str, str, SurvivalEstimate], ...]  # (group_by, key, encoding, estimate)
    failures: tuple[tuple[str, str], ...]


METHODOLOGY_NOTES = (
    "Sampler: seeded classical Metropolis annealer; hardware dynamics are out of scope.",
    "Qubit counts are logical; no minor embedding is performed, so timings are not comparable to QPU wall-clock results.",
    "A run succeeds when its decoded solution is a proper coloring using no more colors than the best feasible solution found across both encodings of the instance.",
)


def suite_instances(
    count: int, n_min: int, n_max: int, densities: Sequence[float], seed: int, colors: int | None
) -> list[BenchInstance]:
    """`qpart bench`'s suite: instance i has n_min + i mod (n_max - n_min + 1) vertices
    and the i-th density taken in turn, and its graph is drawn with seed + i."""
    if not densities:
        raise ValueError("--density needs at least one value")
    if n_min < 2 or n_max < n_min:
        raise ValueError(f"need 2 <= n-min <= n-max, got {n_min}..{n_max}")
    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    if colors is not None and colors < 1:
        raise ValueError(f"--colors must be at least 1, got {colors}")
    instances = []
    span = n_max - n_min + 1
    for i in range(count):
        n = n_min + i % span
        density = densities[i % len(densities)]
        g = generate_random_connected(n, density, seed + i)
        instances.append(BenchInstance(f"g{i:03d}_n{n}_d{density:g}", g, density, colors))
    return instances


def sample_instance(
    graph: Graph, c: int, params: AnnealParams
) -> dict[str, tuple[EncodedProblem, EncodedProblem, list[int | None]]]:
    """Per arm: the model as encoded, the model as annealed and each run's colour count
    (None where the decoded sample is not a proper colouring)."""
    # (encoded, annealed, decoder), built per call so that each step is looked up when it runs
    onehot = encode_mgc_onehot(graph, c)
    log = encode_mgc_log(graph, c)
    arms = {
        "onehot": (onehot, onehot, decode_onehot),
        "log": (log, quadratize(log).problem, decode_log),
    }
    sampled = {}
    for encoding, (encoded, annealed, decode) in arms.items():
        counts: list[int | None] = []
        for s in anneal(annealed.polynomial, params, annealed.num_variables).samples:
            decoded = decode(annealed, s.bits)
            feasible = isinstance(decoded, Coloring) and decoded.is_proper(graph)
            counts.append(decoded.distinct_count() if feasible else None)
        sampled[encoding] = (encoded, annealed, counts)
    return sampled


def score(
    instance: BenchInstance,
    c: int,
    arms: dict[str, tuple[EncodedProblem, EncodedProblem, list[int | None]]],
    target: int | None,
    params: AnnealParams,
) -> Iterator[BenchRecord]:
    """One record per arm: a run succeeds when it uses at most `target` colours, never if None."""
    g = instance.graph
    pairs = g.n * (g.n - 1) / 2
    density = instance.density if instance.density is not None else (g.m / pairs if pairs else 0.0)
    for encoding, (encoded, annealed, counts) in arms.items():
        hits = 0 if target is None else sum(1 for q in counts if q is not None and q <= target)
        p_s = Fraction(hits, params.runs)
        tm = TimingModel.for_qubits(annealed.num_variables)
        yield BenchRecord(
            instance_id=instance.instance_id,
            encoding=encoding,
            n=g.n,
            m=g.m,
            c=c,
            l=bits_for_colors(c),
            qubits_pre=encoded.num_variables,
            qubits_post=annealed.num_variables,
            p_s=p_s,
            tts_value=tts(p_s, tm),
            t_censor=params.runs * tm.t_run,
            density=density,
        )


def run_suite(
    instances: Iterable[BenchInstance], anneal_params: AnnealParams, group_by: str = "n"
) -> BenchReport:
    """Sample every instance and score it against the fewest colours either arm found.

    An instance whose input is bad (a ValueError) is recorded as a failure and
    the suite goes on; any other error propagates. Records sharing the grouping
    key get one km_median survival estimate per (group, encoding).
    """
    if group_by not in ("n", "density"):
        raise ValueError(f"group_by must be 'n' or 'density', got {group_by!r}")
    records: list[BenchRecord] = []
    failures: list[tuple[str, str]] = []
    for inst in instances:
        try:
            c = inst.colors if inst.colors is not None else brooks_upper_bound(inst.graph)
            arms = sample_instance(inst.graph, c, anneal_params)
            best = min((q for *_, counts in arms.values() for q in counts if q is not None), default=None)
            records.extend(score(inst, c, arms, best, anneal_params))
        except ValueError as exc:
            failures.append((inst.instance_id, f"{type(exc).__name__}: {exc}"))

    grouped: dict[tuple[str, str], list[SurvivalObservation]] = {}
    for rec in records:
        key = str(rec.n) if group_by == "n" else f"{rec.density:.2f}"
        censored = rec.tts_value is None
        time = Fraction(rec.t_censor) if censored else Fraction(rec.tts_value)
        grouped.setdefault((key, rec.encoding), []).append(SurvivalObservation(time, censored))
    groups = tuple(
        (group_by, key, encoding, km_median(obs))
        for (key, encoding), obs in sorted(grouped.items())
    )
    return BenchReport(records=tuple(records), groups=groups, failures=tuple(failures))


CSV_COLUMNS = [
    "instance_id",
    "encoding",
    "n",
    "m",
    "c",
    "L",
    "qubits_pre",
    "qubits_post",
    "p_s",
    "tts",
    "censored",
]


def _record_json(r: BenchRecord) -> dict:
    """A record as report_to_json writes it; records_to_csv writes its CSV_COLUMNS."""
    return {
        "instance_id": r.instance_id,
        "encoding": r.encoding,
        "n": r.n,
        "m": r.m,
        "c": r.c,
        "L": r.l,
        "qubits_pre": r.qubits_pre,
        "qubits_post": r.qubits_post,
        "p_s": str(r.p_s),
        "tts": r.tts_value,
        "censored": r.tts_value is None,
        "t_censor": r.t_censor,
        "density": r.density,
    }


def records_to_csv(records: Iterable[BenchRecord]) -> str:
    """Each record's JSON document in CSV_COLUMNS: p_s a float, censored lower case, tts by csv's repr or empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        doc = _record_json(r)
        doc.update(p_s=repr(float(r.p_s)), censored=str(doc["censored"]).lower())
        writer.writerow(map(doc.__getitem__, CSV_COLUMNS))
    return buf.getvalue()


def report_to_json(report: BenchReport) -> str:
    doc = {
        "notes": list(METHODOLOGY_NOTES),
        "failures": [{"instance_id": i, "error": e} for i, e in report.failures],
        "records": list(map(_record_json, report.records)),
        "groups": [
            {
                "group_by": group_by,
                "key": key,
                "encoding": encoding,
                "median": float(est.median),
                "median_is_lower_bound": est.median_is_lower_bound,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "curve": [
                    [float(t), float(s), float(v)] for t, s, v in est.curve
                ],
            }
            for group_by, key, encoding, est in report.groups
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
