"""One-hot QUBO encoding of minimum graph coloring.

Each vertex gets one indicator bit per color, plus a global register of
color-usage indicators. Penalty weights follow the explicit closed forms
that make every ground state a proper coloring with a faithful usage
register and a minimal color count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError
from .graphs import Coloring, Graph, instance_meta
from .pbo import Bits, EncodedProblem, Polynomial, Term, check_build_terms


@dataclass(frozen=True)
class OneHotPenalties:
    """Penalty tiers: link < adjacency < one-hot, each dominating the layers below."""

    a_link: int
    a_adjacency: int
    a_onehot: int


def onehot_penalties(n: int, m: int, c: int) -> OneHotPenalties:
    """The explicit sufficient choice: a_link=n+1, a_adj=(n+1)c+1, a_onehot=a_adj(m+1)+a_link*c.
    The encoder weights its terms by it; model JSON writes and checks the record by it."""
    if not (type(n) is type(m) is type(c) is int and n >= 1 and c >= 1 and m >= 0):
        raise ValueError(f"need integers n >= 1, c >= 1, m >= 0; got n={n!r}, m={m!r}, c={c!r}")
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


def encode_mgc_onehot(g: Graph, c: int) -> EncodedProblem:
    """Build the one-hot minimum-coloring QUBO over (n+1)*c variables.

    H = A_onehot * sum_v (1 - sum_c x)^2
      + A_adjacency * sum_edges sum_c x_u x_v
      + sum_c y_c
      + A_link * sum_v sum_c x_vc (1 - y_c)

    in closed form, each sorted key written once: n * A_onehot, A_link - A_onehot on each x bit,
    2 * A_onehot on each pair of one vertex's bits, -A_link on each (x[v][c], y[c]), A_adjacency
    on each edge's pair of one colour and 1 on each y bit, none zero as A_onehot > A_link > 0.
    x[v][c] ids grow with (v, c), edges have u < v, and every y id follows every x id.
    """
    n = g.n
    pen = onehot_penalties(n, g.m, c)
    check_build_terms(1 + n * (2 * c + c * (c - 1) // 2) + g.m * c + c)
    terms: dict[Term, int] = {(): n * pen.a_onehot}
    for v in range(n):
        for col in range(c):
            x = x_var(v, col, c)
            terms[(x,)] = pen.a_link - pen.a_onehot
            for col2 in range(col + 1, c):
                terms[(x, x_var(v, col2, c))] = 2 * pen.a_onehot
            terms[(x, y_var(col, n, c))] = -pen.a_link
    for u, v in g.edges:
        for col in range(c):
            terms[(x_var(u, col, c), x_var(v, col, c))] = pen.a_adjacency
    for col in range(c):
        terms[(y_var(col, n, c),)] = 1

    registry = [f"x[{v}][{col}]" for v in range(n) for col in range(c)]
    registry += [f"y[{col}]" for col in range(c)]
    meta = instance_meta(g, kind="onehot_mgc", c_num=c, L=None)
    return EncodedProblem(Polynomial._from_canonical(terms), tuple(registry), meta)


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
