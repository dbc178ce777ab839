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
from .pbo import Bits, Polynomial, bits_to_index


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

    Every degree anneals with stored flip energies, so an attempted flip
    costs one lookup and each energy change is an exact integer.
    """
    nv = p.num_variables() if num_vars is None else num_vars
    if nv < p.num_variables():
        raise DimensionError(f"num_vars={nv} is smaller than the polynomial's variable span")
    if nv < 1:
        raise ValueError("annealing needs at least one variable")
    return _anneal_with(_flip_energy_kernel(p, nv), p, params, nv)


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


def _flip_energy_kernel(p: Polynomial, nv: int) -> _Kernel:
    """Any degree. Each run keeps every variable's flip energy: its local
    field (the energy change of raising it), signed by x[v] as dwave-neal's
    sweep kernel does. An attempted flip only reads it; an accepted flip of
    v moves the flip energies of the variables that share a term with v.
    Python ints keep every delta exact."""
    h = [0] * nv
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    # Per variable v and term T of 3 or more variables: (coeff, mask of T - v, T).
    larger: list[list[tuple[int, int, tuple[int, ...]]]] = [[] for _ in range(nv)]
    for key, coeff in p.items():
        if len(key) == 1:
            h[key[0]] = coeff
        elif len(key) == 2:
            a, b = key
            pairs[a].append((b, coeff))
            pairs[b].append((a, coeff))
        elif key:
            mask = sum(1 << u for u in key)
            for v in key:
                larger[v].append((coeff, mask ^ 1 << v, key))
    exp = math.exp

    def run_sweeps(x, draws):
        # The unset variables as one int, read only at the bits of variables
        # in `larger`, so it is toggled for those alone.
        unset = bits_to_index(1 - b for b in x)
        flip_delta = [
            (
                h[v]
                + sum(j for w, j in pairs[v] if x[w])
                + sum(c for c, m, _ in larger[v] if not m & unset)
            )
            * (1 - 2 * x[v])
            for v in range(nv)
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
                for w, j in pairs[v]:
                    if x[w] == old:
                        flip_delta[w] += j
                    else:
                        flip_delta[w] -= j
                if not larger[v]:
                    continue
                unset ^= 1 << v
                # w in T - v sees c in its field only when all of T - v - w
                # is set: every w if none of T - v is missing, the missing
                # one if exactly one is, none otherwise.
                for c, m, key in larger[v]:
                    missing = m & unset
                    if missing & (missing - 1):
                        continue
                    for w in (missing.bit_length() - 1,) if missing else key:
                        if w != v:
                            flip_delta[w] += c if x[w] == old else -c

    return run_sweeps
