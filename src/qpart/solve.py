"""A seeded single-bit-flip Metropolis annealer.

The annealer is the classical stand-in for hardware sampling: one final
state per run, a geometric inverse-temperature ramp, and per-run RNG
streams derived from (seed, run index) so results are independent of
execution order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DimensionError
from .pbo import Bits, Polynomial, bits_to_index, index_to_bits


@dataclass(frozen=True)
class AnnealParams:
    runs: int = 100
    sweeps: int = 1000
    beta_start: float = 0.01
    beta_end: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")
        if not (0 < self.beta_start < self.beta_end):
            raise ValueError(
                f"need 0 < beta_start < beta_end, got {self.beta_start}, {self.beta_end}"
            )


@dataclass(frozen=True)
class Sample:
    bits: Bits
    energy: int


@dataclass(frozen=True)
class SampleSet:
    samples: tuple[Sample, ...]

    @property
    def runs(self) -> int:
        return len(self.samples)

    def to_json(self) -> str:
        doc = {
            "runs": self.runs,
            "samples": [
                {"bits": "".join(str(b) for b in s.bits), "energy": str(s.energy)}
                for s in self.samples
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def anneal(p: Polynomial, params: AnnealParams, num_vars: int | None = None) -> SampleSet:
    """One final-state sample per run under Metropolis single-bit-flip dynamics.

    Models of degree <= 2 anneal with incremental local fields, HUBOs with
    per-term evaluation; both make the same draws and the same exact
    integer energy changes, so a given seed gives the same samples.
    """
    nv = p.num_variables() if num_vars is None else num_vars
    if nv < p.num_variables():
        raise DimensionError(f"num_vars={nv} is smaller than the polynomial's variable span")
    if nv < 1:
        raise ValueError("annealing needs at least one variable")
    kernel = _local_field_kernel if p.degree() <= 2 else _per_term_kernel
    return _anneal_with(kernel(p, nv), p, params, nv)


# A kernel applies one run's sweep draws to its state `x` in place.
_Kernel = Callable[[list[int], Iterator[tuple[float, Iterator[tuple[int, float]]]]], None]


def _anneal_with(run_sweeps: _Kernel, p: Polynomial, params: AnnealParams, nv: int) -> SampleSet:
    """Draw each run's initial state and sweeps; `run_sweeps` applies them to the state."""
    sweeps = params.sweeps
    denom = max(sweeps - 1, 1)
    ratio = params.beta_end / params.beta_start
    betas = [params.beta_start * ratio ** (t / denom) for t in range(sweeps)]

    samples = []
    for run in range(params.runs):
        rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(run,)))
        x = rng.integers(0, 2, size=nv).tolist()
        run_sweeps(x, _sweep_draws(rng, betas, nv))
        bits = tuple(x)
        samples.append(Sample(bits=bits, energy=p.evaluate(bits)))
    return SampleSet(tuple(samples))


def _sweep_draws(
    rng: np.random.Generator, betas: list[float], nv: int
) -> Iterator[tuple[float, Iterator[tuple[int, float]]]]:
    """Per sweep: beta and the (site, uniform) pairs, drawn sites first."""
    for beta in betas:
        targets = rng.integers(0, nv, size=nv)
        uniforms = rng.random(size=nv)
        yield beta, zip(targets.tolist(), uniforms.tolist())


def _per_term_kernel(p: Polynomial, nv: int) -> _Kernel:
    """Each attempted flip sums the terms containing the site; any degree.
    The run's state is also kept as one int bitmask, so a term counts
    when the mask of its other variables is all set."""
    by_var: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for key, coeff in p.items():
        for v in key:
            by_var[v].append((coeff, sum(1 << u for u in key if u != v)))
    exp = math.exp

    def run_sweeps(x, draws):
        xs = bits_to_index(x)
        for beta, flips in draws:
            for v, u in flips:
                acc = 0
                for coeff, m in by_var[v]:
                    if xs & m == m:
                        acc += coeff
                delta = -acc if xs >> v & 1 else acc
                try:
                    if delta > 0 and u >= exp(-beta * delta):
                        continue
                except OverflowError:  # delta is past float range, so exp(...) is 0.0
                    continue
                xs ^= 1 << v
        x[:] = index_to_bits(xs, nv)

    return run_sweeps


def _local_field_kernel(p: Polynomial, nv: int) -> _Kernel:
    """Degree <= 2 only. The local field h[v] + sum_w J[v][w] x[w] is the
    energy change of raising x[v]; each run keeps it per variable, signed
    by x[v] so that it is the change of flipping v (as dwave-neal's sweep
    kernel does), and only an accepted flip updates its neighbours'.
    Python ints keep every delta exact."""
    h = [0] * nv
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for key, coeff in p.items():
        if len(key) == 1:
            h[key[0]] = coeff
        elif len(key) == 2:
            a, b = key
            nbrs[a].append((b, coeff))
            nbrs[b].append((a, coeff))
    exp = math.exp

    def run_sweeps(x, draws):
        flip_delta = [
            (h[v] + sum(j for w, j in nbrs[v] if x[w])) * (1 - 2 * x[v]) for v in range(nv)
        ]
        for beta, flips in draws:
            for v, u in flips:
                delta = flip_delta[v]
                try:
                    if delta > 0 and u >= exp(-beta * delta):
                        continue
                except OverflowError:  # delta is past float range, so exp(...) is 0.0
                    continue
                flip_delta[v] = -delta
                old = x[v]
                x[v] = 1 - old
                # w's field moves by +-J, which raises w's flip delta
                # by J exactly when x[w] equals the old x[v].
                for w, j in nbrs[v]:
                    if x[w] == old:
                        flip_delta[w] += j
                    else:
                        flip_delta[w] -= j

    return run_sweeps
