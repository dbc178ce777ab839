"""A seeded single-bit-flip Metropolis annealer.

The annealer is the classical stand-in for hardware sampling: one final
state per run, a geometric inverse-temperature ramp, and per-run RNG
streams derived from (seed, run index) so results are independent of
execution order.

After its initial state, each run draws its flips in blocks of whole
sweeps (`DRAW_BLOCK`), all the block's sites, then all its uniforms u. A
flip of exact energy change delta is accepted when delta <= 0 or delta <
-ln(u)/beta, which is u < exp(-beta*delta), compared exactly.

Two kernels apply the flips, both with exact integer deltas, so they give
the same samples: a log HUBO whose layout the polynomial proves anneals on
per-vertex label tables, and every other model on stored flip energies.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DimensionError
from .logenc import LogLayout, recover_log_layout, vertex_labels
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
        # A finite ratio keeps every beta of the ramp finite.
        if not (0 < self.beta_start < self.beta_end and self.beta_end / self.beta_start < math.inf):
            raise ValueError(
                f"need 0 < beta_start < beta_end with a finite ratio, got {self.beta_start}, {self.beta_end}"
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

    An attempted flip costs a lookup or two and one comparison of the exact
    integer energy change with its precomputed threshold -ln(u)/beta. A
    polynomial of degree above 2 that logenc.recover_log_layout reads as a
    log HUBO anneals on label tables; any other anneals with stored flip
    energies.
    """
    nv = p.num_variables() if num_vars is None else num_vars
    if nv < p.num_variables():
        raise DimensionError(f"num_vars={nv} is smaller than the polynomial's variable span")
    if nv < 1:
        raise ValueError("annealing needs at least one variable")
    layout = recover_log_layout(p, nv) if p.degree() > 2 else None
    if layout is None:
        return _anneal_with(_flip_energy_kernel(p, nv), p.evaluate, params, nv)
    return _anneal_with(*_label_kernel(layout), params, nv)


# Most draws one block takes; a block still holds at least one sweep.
DRAW_BLOCK = 1 << 12

# A kernel applies one run's (site, threshold) draws to its state `x` in place.
_Kernel = Callable[[list[int], Iterator[tuple[int, float]]], None]


def _anneal_with(run_flips: _Kernel, energy: Callable[[Bits], int], params: AnnealParams, nv: int) -> SampleSet:
    """Draw each run's initial state and flips; `run_flips` applies them to
    the state, and `energy` gives the final state's exact energy."""
    sweeps = params.sweeps
    denom = max(sweeps - 1, 1)
    ratio = params.beta_end / params.beta_start
    betas = np.array([params.beta_start * ratio ** (t / denom) for t in range(sweeps)])

    samples = []
    for run in range(params.runs):
        rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(run,)))
        x = rng.integers(0, 2, size=nv).tolist()
        run_flips(x, _flip_draws(rng, betas, nv))
        bits = tuple(x)
        samples.append(Sample(bits=bits, energy=energy(bits)))
    return SampleSet(tuple(samples))


def _flip_draws(rng: np.random.Generator, betas: np.ndarray, nv: int) -> Iterator[tuple[int, float]]:
    """(site, -ln(u)/beta) per attempted flip, drawn in blocks of whole
    sweeps: a block's sites first, then its uniforms. Each block is drawn
    when the one before it is used up; chaining the blocks' iterators keeps
    a Python frame out of every draw."""
    block = max(DRAW_BLOCK // nv, 1)

    def draw(start: int) -> Iterator[tuple[int, float]]:
        block_betas = np.repeat(betas[start : start + block], nv)
        sites = rng.integers(0, nv, size=block_betas.size)
        thresholds = -np.log(rng.random(size=block_betas.size)) / block_betas
        return zip(sites.tolist(), thresholds.tolist())

    return itertools.chain.from_iterable(map(draw, range(0, len(betas), block)))


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

    def run_flips(x, draws):
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
        for v, threshold in draws:
            delta = flip_delta[v]
            if delta > 0 and delta >= threshold:
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

    return run_flips


def _label_kernel(layout: LogLayout) -> tuple[_Kernel, Callable[[Bits], int]]:
    """Log HUBOs whose layout rebuilds the polynomial exactly. Each run keeps
    every vertex's label and its table T_v[a] = ladder(a) + W_v[a], where
    ladder(a) is the ladder energy of label a and W_v[a] the summed weight
    of v's neighbours that carry label a. Moving v from label a to b
    changes the energy by exactly T_v[b] - T_v[a], whatever L is; an
    accepted move shifts entries a and b of each neighbour's table by its
    edge weight. The energy function reads the same layout in O(nL + m)."""
    n, l = layout.n, len(layout.ladder)
    ladder = [sum(p for k, p in enumerate(layout.ladder) if a >> k & 1) for a in range(1 << l)]
    weighted = [(u, v, w) for (u, v), w in zip(layout.edges, layout.weights)]
    # Bit k of vertex v is variable v * l + k (logenc.bit_var).
    sites = [(i // l, 1 << i % l) for i in range(n * l)]

    def run_flips(x, draws):
        label = vertex_labels(x, n, l)
        table = [ladder.copy() for _ in range(n)]
        near: list[list[tuple[list[int], int]]] = [[] for _ in range(n)]
        for u, v, w in weighted:
            table[u][label[v]] += w
            table[v][label[u]] += w
            near[u].append((table[v], w))
            near[v].append((table[u], w))
        for i, threshold in draws:
            v, bit = sites[i]
            a = label[v]
            b = a ^ bit
            t = table[v]
            delta = t[b] - t[a]
            if delta > 0 and delta >= threshold:
                continue
            label[v] = b
            for t, w in near[v]:
                t[a] -= w
                t[b] += w
        x[:] = [a >> k & 1 for a in label for k in range(l)]

    def energy(bits):
        label = vertex_labels(bits, n, l)
        return (
            layout.constant
            + sum(ladder[a] for a in label)
            + sum(w for u, v, w in weighted if label[u] == label[v])
        )

    return run_flips, energy
