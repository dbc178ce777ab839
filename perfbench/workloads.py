"""The three benchmark workloads, driven through qpart's public functions.

Each workload has four steps:

- `setup(seed)` makes the inputs from the seed, together with the
  benchmark's own reference answers (chromatic numbers);
- `run(inputs, rec)` is the timed pass: one item at a time inside
  `rec.item`, qpart's public functions called directly, an item that
  raises recorded as failed;
- `check(inputs, result)` tests the pass's outputs, outside the timing,
  and returns the ids of the items that failed;
- `stats(inputs, result)` derives counts and quality figures from the
  outputs. They depend only on the seed, so traced and untraced passes
  agree on them exactly.

The default sizes are the workloads the benchmark is defined on; the
constructors' arguments exist only so that the self-test can shrink them.
A traced run times the qpart calls by wrapping the functions in place
(`tracing.Tracer.nested`), so the code here is the same traced or not.
"""

from __future__ import annotations

import random
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from qpart.bench import SurvivalObservation, TimingModel, km_median, tts
from qpart.gates import cnot_count_log_closed, cnot_count_onehot_closed, cnot_count_oracle
from qpart.graphs import (
    Coloring,
    Graph,
    brooks_upper_bound,
    chromatic_number_exact,
    generate_random_connected,
)
from qpart.logenc import bits_for_colors, decode_log, encode_mgc_log
from qpart.model import from_model_json, to_model_json
from qpart.onehot import decode_onehot, encode_mgc_onehot
from qpart.pbo import Polynomial, ground_states
from qpart.quadratize import manifold_extension, quadratize, verify_quadratization
from qpart.solve import AnnealParams, SampleSet, anneal

SUITE_DENSITIES = (0.2, 0.5, 0.8)  # cycled over the instances, as `qpart bench` does
BUILD_DENSITY = 0.5
MANIFOLD_SAMPLES = 4  # random assignments on which `build` checks the QUBO against the HUBO
EXACT_DENSITY = 0.5
EXACT_COLORS = 4  # colour bound of the exhaustively solved log and one-hot models


@dataclass
class ItemResult:
    item_id: str
    data: dict[str, Any] = field(default_factory=dict)
    error: str | None = None


@dataclass
class PassResult:
    """One timed pass: its items, and results that belong to no single item."""

    items: list[ItemResult]
    extra: dict[str, Any] = field(default_factory=dict)

    def ok(self) -> list[ItemResult]:
        return [r for r in self.items if r.error is None]

    def sum(self, key: str) -> int:
        return sum(r.data.get(key, 0) for r in self.ok())


def run_items(items: list[tuple[str, Any]], rec, fn: Callable) -> list[ItemResult]:
    """Run `fn(payload, data)` per item; an exception fails only its item."""
    results = []
    for item_id, payload in items:
        result = ItemResult(item_id)
        with rec.item(item_id):
            try:
                fn(payload, result.data)
            except Exception:  # noqa: BLE001 - the pass goes on; the item counts as failed
                result.error = traceback.format_exc()
                print(f"perfbench: item {item_id} raised:\n{result.error}", file=sys.stderr)
        results.append(result)
    return results


def _flips(num_vars: int, params: AnnealParams, poly: Polynomial) -> dict[str, int]:
    """Attempted flips of one anneal call, filed by degree class."""
    flips = params.runs * params.sweeps * num_vars
    hubo = poly.degree() > 2
    return {"solve.flips_qubo": 0 if hubo else flips, "solve.flips_hubo": flips if hubo else 0}


def _energies_exact(poly: Polynomial, samples: SampleSet) -> bool:
    return all(s.energy == poly.evaluate(s.bits) for s in samples.samples)


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def _term_count(poly: Polynomial) -> int:
    return sum(1 for _ in poly.items())


# ---------------------------------------------------------------- suite


@dataclass(frozen=True)
class SuiteInstance:
    instance_id: str
    graph: Graph
    colors: int
    chi: int


class Suite:
    """The paper's TTS experiment as `qpart bench` runs it by default."""

    encodings = ("onehot", "log")

    def __init__(self, count: int = 20, n_min: int = 4, n_max: int = 10, runs: int = 50, sweeps: int = 200):
        self.count, self.n_min, self.n_max = count, n_min, n_max
        self.runs, self.sweeps = runs, sweeps

    def setup(self, seed: int) -> dict:
        # Same instances and anneal seed as `qpart bench --seed <seed>`.
        span = self.n_max - self.n_min + 1
        instances = []
        for i in range(self.count):
            n = self.n_min + i % span
            density = SUITE_DENSITIES[i % len(SUITE_DENSITIES)]
            g = generate_random_connected(n, density, seed + i)
            chi = chromatic_number_exact(g)
            instances.append(SuiteInstance(f"g{i:03d}_n{n}_d{density:g}", g, brooks_upper_bound(g), chi))
        params = AnnealParams(runs=self.runs, sweeps=self.sweeps, seed=seed)
        return {"instances": instances, "params": params}

    def run(self, inputs: dict, rec) -> PassResult:
        params = inputs["params"]
        items = [(inst.instance_id, inst) for inst in inputs["instances"]]
        result = PassResult(run_items(items, rec, lambda inst, data: self._instance(inst, params, data)))
        # Kaplan-Meier medians grouped by n, as `qpart bench` groups them,
        # and over all instances for each encoding.
        groups: dict[tuple[str, str], list[SurvivalObservation]] = {}
        for inst, res in zip(inputs["instances"], result.items):
            if res.error is None:
                for enc in self.encodings:
                    obs = res.data[f"obs_{enc}"]
                    groups.setdefault((str(inst.graph.n), enc), []).append(obs)
                    groups.setdefault(("all", enc), []).append(obs)
        result.extra["km"] = {key: km_median(obs) for key, obs in sorted(groups.items())}
        return result

    def _instance(self, inst: SuiteInstance, params: AnnealParams, data: dict) -> None:
        g, c = inst.graph, inst.colors
        onehot = encode_mgc_onehot(g, c)
        log = encode_mgc_log(g, c)
        quad = quadratize(log)
        qubo = quad.problem
        models = {"onehot": onehot, "log": qubo}
        samples = {
            enc: anneal(prob.polynomial, params, prob.num_variables)
            for enc, prob in models.items()
        }
        decoders = {"onehot": decode_onehot, "log": decode_log}

        # Colours used per run, None where the decoded sample is not a proper colouring.
        quality: dict[str, list[int | None]] = {}
        for enc, prob in models.items():
            decode = decoders[enc]
            counts = []
            for s in samples[enc].samples:
                coloring = decode(prob, s.bits)
                proper = isinstance(coloring, Coloring) and coloring.is_proper(g)
                counts.append(coloring.distinct_count() if proper else None)
            quality[enc] = counts

        # The program's own target: the fewest colours either encoding found.
        feasible = [q for counts in quality.values() for q in counts if q is not None]
        best_found = min(feasible) if feasible else None
        for enc, prob in models.items():
            # A run succeeds when it reaches a proper colouring with exactly
            # chi colours; chi comes from setup, not from the annealer.
            hits = sum(1 for q in quality[enc] if q == inst.chi)
            timing = TimingModel.for_qubits(prob.num_variables)
            value = tts(Fraction(hits, params.runs), timing)
            censored = value is None
            time_us = Fraction(params.runs * timing.t_run) if censored else Fraction(value)
            data[f"hits_{enc}"] = hits
            data[f"feasible_{enc}"] = sum(1 for q in quality[enc] if q is not None)
            data[f"program_hits_{enc}"] = (
                0 if best_found is None else sum(1 for q in quality[enc] if q is not None and q <= best_found)
            )
            data[f"censored_{enc}"] = int(censored)
            data[f"obs_{enc}"] = SurvivalObservation(time=time_us, censored=censored)
        data.update(
            target_above_chi=int(best_found is not None and best_found > inst.chi),
            runs=params.runs,
            log=log,
            quad=quad,
            models=models,
            samples=samples,
        )

    def check(self, inputs: dict, result: PassResult) -> list[str]:
        # Every sample's reported energy is its polynomial's exact value.
        return [
            r.item_id for r in result.items
            if r.error is not None or not all(
                _energies_exact(r.data["models"][enc].polynomial, r.data["samples"][enc]) for enc in self.encodings
            )
        ]

    def stats(self, inputs: dict, result: PassResult) -> dict[str, float]:
        runs = result.sum("runs")
        hits = {enc: result.sum(f"hits_{enc}") for enc in self.encodings}
        items = [r.data for r in result.ok()]
        out = {
            "hit_frac": _frac(sum(hits.values()), 2 * runs),
            "bench.censored": result.sum("censored_onehot") + result.sum("censored_log"),
            "bench.target_above_chi": result.sum("target_above_chi"),
            "onehot.terms": sum(_term_count(d["models"]["onehot"].polynomial) for d in items),
            "logenc.terms": sum(_term_count(d["log"].polynomial) for d in items),
            "logenc.vars": sum(d["log"].num_variables for d in items),
            "quadratize.aux_vars": sum(d["quad"].total_aux for d in items),
            "quadratize.terms": sum(_term_count(d["models"]["log"].polynomial) for d in items),
            "solve.flips_qubo": 0,
            "solve.flips_hubo": 0,
        }
        for d in items:
            for enc, prob in d["models"].items():
                for key, value in _flips(prob.num_variables, inputs["params"], prob.polynomial).items():
                    out[key] += value
        for enc in self.encodings:
            out[f"solve.hit_frac.{enc}"] = _frac(hits[enc], runs)
            out[f"solve.feasible_frac.{enc}"] = _frac(result.sum(f"feasible_{enc}"), runs)
            est = result.extra["km"].get(("all", enc))
            out[f"bench.km_median_tts_us.{enc}"] = float(est.median) if est is not None else 0.0
        return out


# ---------------------------------------------------------------- build


class Build:
    """The `qpart encode -> quadratize -> gates` path on one large graph."""

    def __init__(self, n: int = 64, colors: int = 16):
        self.n, self.colors = n, colors

    def setup(self, seed: int) -> dict:
        g = generate_random_connected(self.n, BUILD_DENSITY, seed)
        return {"graph": g, "colors": self.colors, "seed": seed}

    def run(self, inputs: dict, rec) -> PassResult:
        return PassResult(run_items([("graph", inputs)], rec, self._graph))

    def _graph(self, inputs: dict, data: dict) -> None:
        g, c = inputs["graph"], inputs["colors"]
        onehot = encode_mgc_onehot(g, c)
        log = encode_mgc_log(g, c)
        quad = quadratize(log)
        texts, round_trips = [], []
        for prob in (log, quad.problem):
            text = to_model_json(prob)
            round_trips.append((prob, from_model_json(text)))
            texts.append(text)
        reports = [cnot_count_oracle(p.polynomial) for p in (onehot, log)]
        data.update(onehot=onehot, log=log, quad=quad, texts=texts, round_trips=round_trips, reports=reports)

    def check(self, inputs: dict, result: PassResult) -> list[str]:
        (res,) = result.items
        if res.error is not None:
            return [res.item_id]
        d, g, c = res.data, inputs["graph"], inputs["colors"]
        l = bits_for_colors(c)
        quad = d["quad"]
        ok = (
            d["reports"][0].cnot_count == cnot_count_onehot_closed(g.n, g.m, c)
            and d["reports"][1].cnot_count == cnot_count_log_closed(g.m, l)
            and quad.total_aux == (g.m * (3 * l - 2) if l >= 2 else 0)
            and quad.problem.polynomial.degree() <= 2
            and all(
                back.polynomial == prob.polynomial and back.registry == prob.registry
                for prob, back in d["round_trips"]
            )
        )
        # On the auxiliary manifold the QUBO must reproduce the HUBO energy.
        rng = random.Random(inputs["seed"])
        hubo, qubo = d["log"].polynomial, quad.problem.polynomial
        for _ in range(MANIFOLD_SAMPLES):
            bits = tuple(rng.randrange(2) for _ in range(g.n * l))
            ok = ok and qubo.evaluate(manifold_extension(quad, bits)) == hubo.evaluate(bits)
        return [] if ok else [res.item_id]

    def stats(self, inputs: dict, result: PassResult) -> dict[str, float]:
        if not result.ok():
            return {}
        d = result.items[0].data
        return {
            "onehot.terms": _term_count(d["onehot"].polynomial),
            "logenc.terms": _term_count(d["log"].polynomial),
            "logenc.vars": d["log"].num_variables,
            "quadratize.aux_vars": d["quad"].total_aux,
            "quadratize.terms": _term_count(d["quad"].problem.polynomial),
            "model.json_bytes": sum(len(t.encode()) for t in d["texts"]),
            "gates.subset_adds": sum(
                1 << len(key) for p in (d["onehot"], d["log"]) for key, _ in p.polynomial.items()
            ),
            "gates.spin_terms": sum(sum(r.term_histogram.values()) for r in d["reports"]),
        }


# ---------------------------------------------------------------- exact


class Exact:
    """Exhaustive ground truth at 20-23 variables, and annealing scored against it."""

    def __init__(self, log_sizes: tuple[int, ...] = (10, 11), onehot_n: int = 4, path_colors: int = 8,
                 runs: int = 50, sweeps: int = 200):
        self.log_sizes, self.onehot_n, self.path_colors = log_sizes, onehot_n, path_colors
        self.runs, self.sweeps = runs, sweeps

    def setup(self, seed: int) -> dict:
        graphs = []
        for i, n in enumerate(self.log_sizes + (self.onehot_n,)):
            g = generate_random_connected(n, EXACT_DENSITY, seed + i)
            graphs.append((g, chromatic_number_exact(g)))
        items: list[tuple[str, Any]] = []
        for g, chi in graphs[:-1]:
            items.append((f"ground.log_n{g.n}", ("ground_log", g, chi)))
            items.append((f"anneal.log_n{g.n}", ("anneal_log", g, chi)))
        g, chi = graphs[-1]
        items.append((f"ground.onehot_n{g.n}", ("ground_onehot", g, chi)))
        items.append((f"verify.path3_c{self.path_colors}", ("verify", Graph(3, ((0, 1), (1, 2))), None)))
        params = AnnealParams(runs=self.runs, sweeps=self.sweeps, seed=seed)
        return {"items": items, "params": params}

    def run(self, inputs: dict, rec) -> PassResult:
        params = inputs["params"]
        ground: dict[int, tuple[Any, int]] = {}  # n -> (log model, ground energy)
        return PassResult(run_items(inputs["items"], rec, lambda p, data: self._item(p, params, ground, data)))

    def _item(self, payload, params: AnnealParams, ground: dict, data: dict) -> None:
        kind, g, chi = payload
        data.update(kind=kind, chi=chi, graph=g)
        if kind == "ground_log":
            log = encode_mgc_log(g, EXACT_COLORS)
            emin, states = ground_states(log.polynomial, log.num_variables)
            ground[g.n] = (log, emin)
            colorings = [decode_log(log, s) for s in states]
            data.update(log=log, colorings=colorings, assignments=1 << log.num_variables)
        elif kind == "anneal_log":
            # The raw degree-2L HUBO, scored against its exhaustive ground energy.
            log, emin = ground[g.n]
            samples = anneal(log.polynomial, params, log.num_variables)
            colorings = [decode_log(log, s.bits) for s in samples.samples]
            hits = sum(1 for s in samples.samples if s.energy == emin)
            timing = TimingModel.for_qubits(log.num_variables)
            value = tts(Fraction(hits, params.runs), timing)
            data.update(
                model=log, emin=emin, samples=samples, hits=hits, runs=params.runs,
                censored=int(value is None), feasible=sum(1 for col in colorings if col.is_proper(g)),
            )
        elif kind == "ground_onehot":
            onehot = encode_mgc_onehot(g, EXACT_COLORS)
            emin, states = ground_states(onehot.polynomial, onehot.num_variables)
            colorings = [decode_onehot(onehot, s) for s in states]
            data.update(onehot=onehot, colorings=colorings, assignments=1 << onehot.num_variables)
        else:
            log = encode_mgc_log(g, self.path_colors)
            quad = quadratize(log)
            report = verify_quadratization(log, quad)
            data.update(
                log=log, quad=quad, passed=report.passed,
                assignments=(1 << quad.problem.num_variables) + (1 << log.num_variables),
            )

    def check(self, inputs: dict, result: PassResult) -> list[str]:
        return [r.item_id for r in result.items if r.error is not None or not self._passes(r.data)]

    def _passes(self, d: dict) -> bool:
        kind, g, chi = d["kind"], d["graph"], d["chi"]
        if kind == "ground_log":
            # Every ground state is a proper colouring whenever one exists.
            return bool(d["colorings"]) and (
                chi > EXACT_COLORS or all(col.is_proper(g) for col in d["colorings"])
            )
        if kind == "ground_onehot":
            return bool(d["colorings"]) and all(
                isinstance(col, Coloring) and col.is_proper(g) and col.distinct_count() == chi
                for col in d["colorings"]
            )
        if kind == "anneal_log":
            # Exact energies, none below the exhaustive minimum.
            samples = d["samples"]
            return _energies_exact(d["model"].polynomial, samples) and all(
                s.energy >= d["emin"] for s in samples.samples
            )
        return d["passed"]

    def stats(self, inputs: dict, result: PassResult) -> dict[str, float]:
        runs, hits = result.sum("runs"), result.sum("hits")
        assignments = result.sum("assignments")
        items = [r.data for r in result.ok()]
        out = {
            "hit_frac": _frac(hits, runs),
            "solve.hit_frac.log": _frac(hits, runs),
            "solve.feasible_frac.log": _frac(result.sum("feasible"), runs),
            "solve.flips_qubo": 0,
            "solve.flips_hubo": 0,
            "bench.censored": result.sum("censored"),
            "onehot.terms": sum(_term_count(d["onehot"].polynomial) for d in items if "onehot" in d),
            "logenc.terms": sum(_term_count(d["log"].polynomial) for d in items if "log" in d),
            "logenc.vars": sum(d["log"].num_variables for d in items if "log" in d),
            "quadratize.aux_vars": sum(d["quad"].total_aux for d in items if "quad" in d),
            "quadratize.terms": sum(_term_count(d["quad"].problem.polynomial) for d in items if "quad" in d),
            "pbo.assignments": assignments,
            # energy_vector holds one 8-byte entry per assignment (int64, or
            # an object pointer when coefficients could overflow int64).
            "pbo.energy_bytes": 8 * assignments,
        }
        for d in items:
            if "samples" in d:
                for key, value in _flips(d["model"].num_variables, inputs["params"], d["model"].polynomial).items():
                    out[key] += value
        return out


WORKLOADS = {"suite": Suite, "build": Build, "exact": Exact}
