"""A seeded single-bit-flip Metropolis annealer.

The annealer is the classical stand-in for hardware sampling: one final
state per run, a geometric inverse-temperature ramp, and per-run RNG
streams derived from (seed, run index), so a run's sample depends neither
on the other runs nor on how the draws are blocked.

Run r draws from `SeedSequence(seed, spawn_key=(r,))`: its initial state,
then one uniform u per (sweep, variable id). A sweep visits every variable
once, in a fixed order. A flip of exact energy change delta is accepted
when delta < max(-ln(u)/beta, 1); delta is an integer, so that is
delta <= 0 or u < exp(-beta*delta), compared exactly.

Two kernels apply the flips, both with exact integer deltas, and return
the final states' exact energies. The type of the model `anneal` is given
chooses the kernel:

- a LogLayout (logenc.checked_log_layout of a log model) anneals on
  per-vertex label tables, run by run, visiting its bits in id order;
- a Polynomial of any degree anneals all runs at once on colour classes.
  graphs.greedy_coloring of the interaction graph, with every term a
  clique, splits the variables into classes that share no term, so the
  flips of one class are independent given the rest and apply together.
  A sweep visits the classes in colour order, which is the order the
  flips take effect.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DimensionError, ResourceLimitError
from .graphs import Graph, greedy_coloring
from .logenc import LogLayout, vertex_labels
from .pbo import Bits, Polynomial, _degree_blocks, _exact_dtype


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def anneal(model: Polynomial | LogLayout, params: AnnealParams, num_vars: int | None = None) -> SampleSet:
    """One final-state sample per run under Metropolis single-bit-flip dynamics.

    An attempted flip compares the exact integer energy change with its
    threshold. A LogLayout anneals on label tables over its n * L bits,
    which num_vars, if given, must equal; a Polynomial anneals on colour
    classes over num_vars variables, by default its variable span.
    """
    if isinstance(model, LogLayout):
        nv = model.n * len(model.ladder)
        if num_vars not in (None, nv):
            raise DimensionError(f"num_vars={num_vars} is not the layout's {nv} bits")
    else:
        span = model.num_variables()
        nv = span if num_vars is None else num_vars
        if nv < span:
            raise DimensionError(f"num_vars={nv} is smaller than the polynomial's variable span")
        if nv < 1:
            raise ValueError("annealing needs at least one variable")
    if params.runs * (nv + RUN_CELLS) > MAX_ANNEAL_CELLS:
        raise ResourceLimitError(
            f"{params.runs} runs x ({nv} variables + {RUN_CELLS}) is over the annealer's limit of {MAX_ANNEAL_CELLS}"
        )
    kernel = _label_kernel(model) if isinstance(model, LogLayout) else _class_kernel(model, nv)
    return _anneal_with(kernel, params, nv)


# Most runs * (variables + RUN_CELLS) one anneal takes. A draw block holds
# at least one sweep of every run, so this bounds the state and one sweep
# of float64 draws with its layout copy: 256 MiB of draws at 1 << 24, plus
# a bool state of 16 MiB (128 MiB as float64 spins).
MAX_ANNEAL_CELLS = 1 << 24

# Each run's own cost in eight-byte cells: the np.random.Generator that
# _anneal_with builds for it before any draw, about 950 bytes with its bit
# generator and SeedSequence.
RUN_CELLS = 128

# Most draws one block of thresholds holds over all runs; a block still
# holds at least one sweep of every run. Twice as many made suite's RSS
# grow, and blocks past 1 << 17 draws fall out of cache.
DRAW_BLOCK = 1 << 15

# A kernel applies blocks of thresholds, shaped (runs, sweeps, variable id),
# to the runs' states, a (runs, nv) bool array, in place, and returns the
# final states' exact energies in run order.
_Kernel = Callable[[np.ndarray, Iterator[np.ndarray]], list[int]]


def _anneal_with(kernel: _Kernel, params: AnnealParams, nv: int) -> SampleSet:
    """Draw each run's initial state and thresholds; `kernel` applies them
    to the states and gives the final states' exact energies. Nothing built
    before the first draw grows with the sweep count."""
    rngs = [np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(run,))) for run in range(params.runs)]
    x = np.array([rng.integers(0, 2, size=nv) for rng in rngs], dtype=bool)
    energies = kernel(x, _thresholds(rngs, params, nv))
    return SampleSet(tuple(map(Sample, map(tuple, x.view(np.uint8).tolist()), energies)))


def _thresholds(rngs: list[np.random.Generator], params: AnnealParams, nv: int) -> Iterator[np.ndarray]:
    """Blocks of whole sweeps of max(-ln(u)/beta, 1), shaped (runs, sweeps,
    variable id), from each run's uniforms in (sweep, variable id) order.
    Sweep t's beta is beta_start * ratio ** (t / (sweeps - 1)), computed
    for one block at a time. Every block is written into one buffer, so a
    kernel copies or applies each block before it asks for the next."""
    sweeps = params.sweeps
    denom = max(sweeps - 1, 1)
    ratio = params.beta_end / params.beta_start
    block = min(max(DRAW_BLOCK // (len(rngs) * nv), 1), sweeps)
    buf = np.empty((len(rngs), block, nv))
    for start in range(0, sweeps, block):
        thresholds = buf[:, : sweeps - start]
        for rng, run_block in zip(rngs, thresholds):
            rng.random(out=run_block)
        np.log(thresholds, out=thresholds)
        betas = [params.beta_start * ratio ** (t / denom) for t in range(start, start + thresholds.shape[1])]
        thresholds /= -np.array(betas)[:, None]
        # Energy changes are integers: delta < max(t, 1) is delta <= 0 or delta < t.
        np.maximum(thresholds, 1.0, out=thresholds)
        yield thresholds


def _colour_classes(p: Polynomial, nv: int) -> list[list[int]]:
    """graphs.greedy_coloring of the interaction graph, with every term a
    clique, as its classes in colour order: no term holds two variables of
    one class. Each class lists its members by id."""
    edges = {pair for key, _ in p.items() for pair in itertools.combinations(key, 2)}
    labels = greedy_coloring(Graph(nv, tuple(edges))).labels
    classes: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for v, colour in enumerate(labels):
        classes[colour].append(v)
    return classes


def _groups(classes: list[list[int]], entries: list[int]) -> list[list[int]]:
    """Each class's members, most entries first (ties by id), cut greedily
    into contiguous groups, in class order. A group's size times its first
    member's entry count is at most twice the group's total entries, so
    padding every member to the first one's count at most doubles them."""
    groups = []
    for members in classes:
        ranked = sorted(members, key=lambda v: -entries[v])
        start = 0
        while start < len(ranked):
            span, total, stop = entries[ranked[start]], 0, start
            while stop < len(ranked) and (stop + 1 - start) * span <= 2 * (total + entries[ranked[stop]]):
                total += entries[ranked[stop]]
                stop += 1
            groups.append(ranked[start:stop])
            start = stop
    return groups


def _class_kernel(p: Polynomial, nv: int) -> _Kernel:
    """Any model, all runs at once, one colour class at a time. The state is
    a (nv + 1, runs) bool array: variables are rows, in the order of
    _groups, and the last row is held at 1. Variable v's field h_v + sum
    over its larger terms T of c_T * prod(x[T - v]) has one entry per term:
    h_v on the row of ones, and c_T on the rows of T's other members. A
    group's members pad to its first member's entry count with entries of
    coefficient 0 on the row of ones, so its fields are one batched matmul
    of its coefficients with the gathered rows. Where some term has more
    than one other member, the rows are gathered width-major, shaped
    (width, k, span, runs): the k-th other members of every entry are one
    contiguous slice, padded with the row of ones, and
    np.logical_and.reduce over the leading axis ANDs a term's rows first.
    That needs no nv x nv matrix and at most twice the entries in memory.
    Members of one class share no term, so the groups of a class flip
    independently. The coefficients are float64 while every |h_v| +
    sum |c_T| is below 2**53, which keeps every partial sum an exact
    integer, and Python ints (numpy dtype object) otherwise.

    Spin mode: when every term has degree <= 2 and every |h_v| + sum |c_T|
    is below 2**52, the state is instead a float64 array of s = 1 - 2x,
    the last row held at s = -1. Since x_w = (1 - s_w) / 2, the field is
    -(h_v + sum c_T / 2) on the constant row plus -c_T / 2 on each
    partner's row. Every coefficient and partial sum is then a multiple of
    1/2 below 2**52 in magnitude, so the float matmul gives the same exact
    integer field with no cast from bool, s * field is the energy change,
    and an accepted flip negates s. HUBOs and larger fields stay on bits,
    where an AND of rows is a bool reduction.

    Each block of thresholds is laid out as (sweep, row, run) by one
    gathering np.take into a buffer kept through the anneal, so a group's
    thresholds are a slice; each group's fields go into an output of its
    own, kept likewise.

    The kernel returns the final states' energies: the terms of each
    degree, the key rows and coefficients of pbo._degree_blocks, summed
    over all runs at once in pbo._exact_dtype(p), the integer tiers of the
    exhaustive oracle. Every partial sum is a sum over a subset of the
    coefficients, so each tier is exact."""
    # Per variable: (coefficient, the term's other members), h_v first.
    entries: list[list[tuple[int, tuple[int, ...]]]] = [[(0, ())] for _ in range(nv)]
    for key, coeff in p.items():
        if len(key) == 1:
            entries[key[0]][0] = (coeff, ())
        elif key:
            for v in key:
                entries[v].append((coeff, tuple(w for w in key if w != v)))
    bound = max(sum(abs(c) for c, _ in member_entries) for member_entries in entries)
    spins = bound < 1 << 52 and p.degree() <= 2
    dtype = float if bound < 1 << 53 else object

    groups = _groups(_colour_classes(p, nv), list(map(len, entries)))
    order = np.array([v for members in groups for v in members])
    row = dict(zip(order.tolist(), range(nv)))
    # Per group: its rows, its gather rows, (k, span) at width 1 and
    # (width, k, span) above it, and its coefficients (k, 1, span).
    steps = []
    start = 0
    for members in groups:
        span = len(entries[members[0]])
        padded = [entries[v] + [(0, ())] * (span - len(entries[v])) for v in members]
        width = max(len(others) for member_entries in padded for _, others in member_entries) or 1
        gather = np.array([[[row[w] for w in others] + [nv] * (width - len(others)) for _, others in e] for e in padded])
        coeffs = np.array([[c for c, _ in e] for e in padded], dtype=dtype)
        if spins:
            # -c_T / 2 on each partner, -(h_v + sum c_T / 2) on the constant row.
            coeffs[:, 1:] /= -2
            coeffs[:, 0] = coeffs[:, 1:].sum(axis=1) - coeffs[:, 0]
        gather = gather[..., 0] if width == 1 else np.ascontiguousarray(np.moveaxis(gather, 2, 0))
        steps.append((slice(start, start + len(members)), gather, coeffs[:, None]))
        start += len(members)

    def kernel(x, blocks):
        if spins:
            state = np.full((nv + 1, len(x)), -1.0)
            state[:nv] = 1 - 2 * x.T[order]
        else:
            state = np.ones((nv + 1, len(x)), dtype=bool)
            state[:nv] = x.T[order]
        plan = []
        for rows, gather, coeffs in steps:
            out = np.empty((len(coeffs), 1, len(x)), dtype=dtype)
            plan.append((state[rows], rows, gather, coeffs, out, out[:, 0]))
        layout = np.empty((0, nv, len(x)))
        for block in blocks:
            if len(layout) < block.shape[1]:
                layout = np.empty((block.shape[1], nv, len(x)))
            # order is a permutation, so "clip" never clips; it lets take
            # write into out= directly instead of through a buffer.
            sweeps = np.take(block.transpose(1, 2, 0), order, axis=1, out=layout[: block.shape[1]], mode="clip")
            for sweep in sweeps:
                for own, rows, gather, coeffs, out, field in plan:
                    on = state.take(gather, axis=0)
                    if on.ndim == 4:
                        on = np.logical_and.reduce(on)
                    np.matmul(coeffs, on, out=out)
                    # The energy change of flipping x is (1 - 2x) * field.
                    if spins:
                        field *= own
                        np.negative(own, out=own, where=field < sweep[rows])
                    else:
                        own ^= np.where(own, -field, field) < sweep[rows]
        x[:, order] = (state[:nv] < 0 if spins else state[:nv]).T

        # The terms of each degree, the constant's empty key included, in chunks
        # of at most nv terms: a chunk's products number runs * nv.
        tier = _exact_dtype(p)
        total = np.zeros(len(x), dtype=tier)
        for keys, coeffs in _degree_blocks(p):
            coeffs = coeffs.astype(tier, copy=False)
            for i in range(0, len(keys), nv):
                total += x.take(keys[i : i + nv], axis=1).all(axis=2) @ coeffs[i : i + nv]
        return total.tolist()

    return kernel


def _label_kernel(layout: LogLayout) -> _Kernel:
    """A log HUBO given by its layout. Each run keeps every vertex's label
    and its table T_v[a] = ladder(a) + W_v[a], where ladder(a) is the
    ladder energy of label a and W_v[a] the summed weight of v's
    neighbours that carry label a. Moving v from label a to b changes the
    energy by exactly T_v[b] - T_v[a], whatever L is; an accepted move
    shifts entries a and b of each neighbour's table by its edge weight.
    The kernel returns each run's energy from its final labels in
    O(nL + m): the constant, the labels' ladder energies and the weights
    of the edges whose ends share a label."""
    n, l = layout.n, len(layout.ladder)
    ladder = [sum(p for k, p in enumerate(layout.ladder) if a >> k & 1) for a in range(1 << l)]
    weighted = [(u, v, w) for (u, v), w in zip(layout.edges, layout.weights)]
    # Bit k of vertex v is variable v * l + k (logenc.bit_var).
    sites = [(i // l, 1 << i % l) for i in range(n * l)]

    def run_state(bits):
        label = vertex_labels(bits, n, l)
        table = [ladder.copy() for _ in range(n)]
        near: list[list[tuple[list[int], int]]] = [[] for _ in range(n)]
        for u, v, w in weighted:
            table[u][label[v]] += w
            table[v][label[u]] += w
            near[u].append((table[v], w))
            near[v].append((table[u], w))
        return label, table, near

    def kernel(x, blocks):
        runs = [run_state(bits) for bits in x.view(np.uint8).tolist()]
        for block in blocks:
            for (label, table, near), run_block in zip(runs, block):
                for thresholds in run_block.tolist():
                    for (v, bit), threshold in zip(sites, thresholds):
                        a = label[v]
                        b = a ^ bit
                        t = table[v]
                        if t[b] - t[a] >= threshold:
                            continue
                        label[v] = b
                        for t, w in near[v]:
                            t[a] -= w
                            t[b] += w
        x[:] = [[a >> k & 1 for a in label for k in range(l)] for label, _, _ in runs]
        return [
            layout.constant + sum(ladder[a] for a in label) + sum(w for u, v, w in weighted if label[u] == label[v])
            for label, _, _ in runs
        ]

    return kernel
