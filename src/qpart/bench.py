"""Time-to-solution benchmarking with Kaplan-Meier aggregation.

Each instance is encoded both ways, annealed, and scored by the fraction
of runs that recover the best feasible coloring found across the two
encodings. Unsolved instances enter the survival analysis right-censored
at the run budget instead of being dropped or given arbitrary values.
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
from typing import Iterable, Sequence

from .errors import InternalInvariantError
from .graphs import Coloring, Graph, brooks_upper_bound
from .logenc import bits_for_colors, decode_log, encode_mgc_log
from .onehot import decode_onehot, encode_mgc_onehot
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


def run_suite(
    instances: Iterable[BenchInstance],
    anneal_params: AnnealParams,
    group_by: str = "n",
) -> BenchReport:
    """Encode, anneal, and score every instance under both encodings.

    Per-instance failures are recorded and the suite continues; an
    InternalInvariantError is a bug, not a bad instance, and propagates.
    Groups of records sharing the grouping key are aggregated with
    km_median, one survival estimate per (group, encoding).
    """
    if group_by not in ("n", "density"):
        raise ValueError(f"group_by must be 'n' or 'density', got {group_by!r}")
    records: list[BenchRecord] = []
    failures: list[tuple[str, str]] = []
    for inst in instances:
        try:
            records.extend(_bench_one(inst, anneal_params))
        except InternalInvariantError:
            raise
        except Exception as exc:  # noqa: BLE001 - suite must survive bad instances
            failures.append((inst.instance_id, f"{type(exc).__name__}: {exc}"))

    grouped: dict[tuple[str, str], list[SurvivalObservation]] = {}
    for rec in records:
        key = str(rec.n) if group_by == "n" else f"{rec.density:.2f}"
        censored = rec.tts_value is None
        time = Fraction(rec.t_censor) if censored else Fraction(rec.tts_value)
        grouped.setdefault((key, rec.encoding), []).append(
            SurvivalObservation(time=time, censored=censored)
        )
    groups = tuple(
        (group_by, key, encoding, km_median(obs))
        for (key, encoding), obs in sorted(grouped.items())
    )
    return BenchReport(records=tuple(records), groups=groups, failures=tuple(failures))


def _bench_one(inst: BenchInstance, params: AnnealParams) -> list[BenchRecord]:
    """One record per encoding, each scored against the best colour count either one decoded.

    Each arm is (model as encoded, model as annealed, decoder): one-hot is
    annealed as encoded, the log model in its quadratized form.
    """
    g = inst.graph
    c = inst.colors if inst.colors is not None else brooks_upper_bound(g)
    l = bits_for_colors(c)
    pairs = g.n * (g.n - 1) / 2
    density = inst.density if inst.density is not None else (g.m / pairs if pairs else 0.0)

    onehot_prob = encode_mgc_onehot(g, c)
    log_prob = encode_mgc_log(g, c)
    arms = {
        "onehot": (onehot_prob, onehot_prob, decode_onehot),
        "log": (log_prob, quadratize(log_prob).problem, decode_log),
    }
    # colour count of each sample's decoded coloring, None where it is not proper
    quality: dict[str, list[int | None]] = {}
    for encoding, (_, annealed, decode) in arms.items():
        quality[encoding] = []
        for s in anneal(annealed.polynomial, params, annealed.num_variables).samples:
            decoded = decode(annealed, s.bits)
            feasible = isinstance(decoded, Coloring) and decoded.is_proper(g)
            quality[encoding].append(decoded.distinct_count() if feasible else None)
    best = min((q for counts in quality.values() for q in counts if q is not None), default=None)

    records = []
    for encoding, (encoded, annealed, _) in arms.items():
        # with no feasible sample every q is None, so no hit compares against best
        hits = sum(1 for q in quality[encoding] if q is not None and q <= best)
        p_s = Fraction(hits, params.runs)
        tm = TimingModel.for_qubits(annealed.num_variables)
        records.append(
            BenchRecord(
                instance_id=inst.instance_id,
                encoding=encoding,
                n=g.n,
                m=g.m,
                c=c,
                l=l,
                qubits_pre=encoded.num_variables,
                qubits_post=annealed.num_variables,
                p_s=p_s,
                tts_value=tts(p_s, tm),
                t_censor=params.runs * tm.t_run,
                density=density,
            )
        )
    return records


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


def records_to_csv(records: Iterable[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.instance_id,
                r.encoding,
                r.n,
                r.m,
                r.c,
                r.l,
                r.qubits_pre,
                r.qubits_post,
                repr(float(r.p_s)),
                "" if r.tts_value is None else repr(r.tts_value),
                "true" if r.tts_value is None else "false",
            ]
        )
    return buf.getvalue()


def report_to_json(report: BenchReport) -> str:
    doc = {
        "notes": list(METHODOLOGY_NOTES),
        "failures": [{"instance_id": i, "error": e} for i, e in report.failures],
        "records": [
            {
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
            for r in report.records
        ],
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
