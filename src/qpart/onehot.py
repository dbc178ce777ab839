"""One-hot QUBO encoding of minimum graph coloring.

Each vertex gets one indicator bit per color, plus a global register of
color-usage indicators. Penalty weights follow the explicit closed forms
that make every ground state a proper coloring with a faithful usage
register and a minimal color count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError
from .graphs import Coloring, Graph, brooks_upper_bound
from .model import EncodedProblem, instance_meta
from .pbo import Bits, Polynomial, check_build_terms


@dataclass(frozen=True)
class OneHotPenalties:
    """Penalty tiers: link < adjacency < one-hot, each dominating the layers below."""

    a_link: int
    a_adjacency: int
    a_onehot: int


def onehot_penalties(n: int, m: int, c: int) -> OneHotPenalties:
    """The explicit sufficient choice: a_link=n+1, a_adj=(n+1)c+1, a_onehot=a_adj(m+1)+a_link*c."""
    if n < 1 or c < 1 or m < 0:
        raise ValueError(f"need n >= 1, c >= 1, m >= 0; got n={n}, m={m}, c={c}")
    a_link = n + 1
    a_adjacency = a_link * c + 1
    a_onehot = a_adjacency * (m + 1) + a_link * c
    return OneHotPenalties(a_link=a_link, a_adjacency=a_adjacency, a_onehot=a_onehot)


def x_var(v: int, color: int, c: int) -> int:
    """Variable id of the vertex-color indicator x[v][color]."""
    return v * c + color


def y_var(color: int, n: int, c: int) -> int:
    """Variable id of the color-usage indicator y[color]."""
    return n * c + color


def _coloring_term_count(g: Graph, c: int) -> int:
    """How many terms _coloring_terms yields: 1 + c + c(c-1)/2 per vertex, c per edge."""
    return g.n * (1 + c + c * (c - 1) // 2) + g.m * c


def _coloring_terms(g: Graph, c: int, pen: OneHotPenalties) -> list[tuple[tuple[int, ...], int]]:
    """A_onehot * sum_v (1 - sum_c x)^2 + A_adjacency * sum_edges sum_c x_u x_v, expanded."""
    terms: list[tuple[tuple[int, ...], int]] = []
    for v in range(g.n):
        # (1 - sum_c x)^2 = 1 - sum_c x + 2 * sum_{c<c'} x x'
        terms.append(((), pen.a_onehot))
        for col in range(c):
            terms.append(((x_var(v, col, c),), -pen.a_onehot))
        for col in range(c):
            for col2 in range(col + 1, c):
                terms.append(((x_var(v, col, c), x_var(v, col2, c)), 2 * pen.a_onehot))
    for u, v in g.edges:
        for col in range(c):
            terms.append(((x_var(u, col, c), x_var(v, col, c)), pen.a_adjacency))
    return terms


def encode_mgc_onehot(g: Graph, c: int | None = None) -> EncodedProblem:
    """Build the one-hot minimum-coloring QUBO over (n+1)*c variables.

    H = A_onehot * sum_v (1 - sum_c x)^2
      + A_adjacency * sum_edges sum_c x_u x_v
      + sum_c y_c
      + A_link * sum_v sum_c x_vc (1 - y_c)

    fully expanded to canonical multilinear form.
    """
    if c is None:
        c = brooks_upper_bound(g)
    if c < 1:
        raise ValueError(f"color count must be >= 1, got {c}")
    n = g.n
    pen = onehot_penalties(n, g.m, c)
    # the coloring terms, then c usage terms and 2c link terms per vertex
    check_build_terms(_coloring_term_count(g, c) + c + 2 * n * c)
    terms = _coloring_terms(g, c, pen)

    for col in range(c):
        terms.append(((y_var(col, n, c),), 1))

    for v in range(n):
        for col in range(c):
            terms.append(((x_var(v, col, c),), pen.a_link))
            terms.append(((x_var(v, col, c), y_var(col, n, c)), -pen.a_link))

    registry = [f"x[{v}][{col}]" for v in range(n) for col in range(c)]
    registry += [f"y[{col}]" for col in range(c)]
    meta = instance_meta(g, kind="onehot_mgc", c_num=c, L=None)
    return EncodedProblem(Polynomial(terms), tuple(registry), pen, meta)


def encode_gc_onehot(g: Graph, c: int) -> EncodedProblem:
    """Decision-version QUBO: ground energy is zero iff a proper c-coloring exists.

    The minimization encoding minus the usage register and its link term.
    Internal building block; the CLI only exposes the minimization form.
    """
    if c < 1:
        raise ValueError(f"color count must be >= 1, got {c}")
    pen = onehot_penalties(g.n, g.m, c)
    check_build_terms(_coloring_term_count(g, c))
    registry = tuple(f"x[{v}][{col}]" for v in range(g.n) for col in range(c))
    meta = instance_meta(g, kind="onehot_gc", c_num=c, L=None)
    return EncodedProblem(Polynomial(_coloring_terms(g, c, pen)), registry, pen, meta)


def decode_onehot(prob: EncodedProblem, assignment: Bits) -> Coloring | list[int]:
    """The coloring, if every vertex has exactly one color bit; else the violators."""
    if prob.kind != "onehot_mgc":
        raise ValueError(f"expected a one-hot encoding, got kind {prob.kind!r}")
    if len(assignment) != prob.num_variables:
        raise DimensionError(
            f"assignment length {len(assignment)} != {prob.num_variables} variables"
        )
    n, c = prob.meta["n"], prob.meta["c_num"]
    labels = []
    violations = []
    for v in range(n):
        set_cols = [col for col in range(c) if assignment[x_var(v, col, c)]]
        if len(set_cols) == 1:
            labels.append(set_cols[0])
        else:
            violations.append(v)
    if violations:
        return violations
    return Coloring(tuple(labels))
