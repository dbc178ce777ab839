"""CNOT-count estimation for one QAOA phase-separation layer.

Closed forms for both encodings are cross-checked by an oracle that
performs the Ising substitution x = (1 - Z)/2 exactly and prices each
surviving k-local Z product at 2(k-1) CNOTs. A term over T variables
contributes c / 2**|T| to each subset of T, so every coefficient is kept
as an int scaled by 2**degree and cancellation is detected exactly.

The expansion is a superset sum (the fast subset-sum, or zeta, transform
of Yates 1937) over the subsets of the term keys, taken one subset size
at a time from the degree down, in numpy, on the sorted view of the keys
that the model writer also reads: each level is one sort of its key rows,
packed into int64 words, and a few scatter-adds, not one dict update per
(term, subset) pair. The CNOT count reads each level's surviving rows.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .pbo import Polynomial, _degree_blocks, _lex_order

# Subsets a term-by-term expansion would add into: a term over T variables
# has 2**|T|. Checked before anything is built, the count refuses a key too
# wide to expand (a degree-40 term in a 1 KB file has 2**40) and bounds the
# level-wise sum, which copies at most degree / 2 key rows per subset.
# perfbench's n=64, c=16 log model has 6.5 M and expands in about 0.17 s;
# an n=40, c=32 (L=5) log model has 23 M and takes about 0.3 s.
MAX_SUBSET_ADDS = 1 << 25
# Key rows ising_expand may hold, checked before each level is built: the
# distinct subsets found so far plus the next level's rows before they are
# made distinct. A row is at most degree int32 ids, one or more int64 sort
# words and degree + 1 int64 sums, and each nonzero subset is also kept
# in its level's rows. Log models share most subsets between monomials (the n=64,
# c=16 model reaches about 0.44 M rows, an n=40, c=32 one 0.74 M), but one
# term's subsets are all distinct: a single degree-25 term within
# MAX_SUBSET_ADDS stops before its 19-variable subsets are built, having
# allocated about 40 MiB.
MAX_SPIN_TERMS = 1 << 20


def ising_expand(p: Polynomial) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact substitution x_j = (1 - Z_j)/2 with multilinear expansion.

    A term c * x_T expands to c / 2**|T| * sum over subsets S of T of
    (-1)**|S| Z_S; every coefficient is kept scaled by 2**degree, and
    zero coefficients are dropped. Returns, per size t from the degree
    down to 0, the nonzero t-sets as rows and their scaled coefficients.

    With b_T = c_T * 2**(degree - |T|), let F_d(S) sum b_T over the terms
    T that contain S and have d more variables, so that Z_S has the
    coefficient (-1)**|S| * sum over d of F_d(S). F_0(S) is b_S, and the
    sum of F_d(S + {j}) over j counts each such T once per variable of
    T - S, so F_{d+1}(S) is that sum divided by d + 1, exactly. The sets
    of size t are therefore built from those of size t + 1 alone: the
    keys of size t, and each (t + 1)-set with one variable dropped, made
    distinct.

    MAX_SUBSET_ADDS is checked from the key sizes before pbo._degree_blocks
    flattens any key. The b_T are int64 while sum |b_T| * degree, which
    bounds every partial sum, is below 2**63, and Python ints past it.
    """
    adds = sum(count << t for t, count in Counter(map(len, p._terms)).items())
    if adds > MAX_SUBSET_ADDS:
        raise ResourceLimitError(
            f"the Ising expansion needs {adds} subset additions, over the limit of {MAX_SUBSET_ADDS}"
        )
    blocks = {rows.shape[1]: (rows, coeffs) for rows, coeffs in _degree_blocks(p)}
    degree = max(blocks, default=0)
    bound = sum(sum(map(abs, coeffs)) << (degree - t) for t, (_, coeffs) in blocks.items())
    id_type = blocks[degree][0].dtype if blocks else np.int32

    levels = []  # each level's nonzero sets, one per row, and their coefficients
    held = 0
    above = np.empty((degree + 1, 0), dtype=id_type)  # the (t + 1)-sets, one per column
    sums = np.empty((0, 0), dtype=np.int64 if bound * max(degree, 1) < 1 << 63 else object)  # [d, i]: F_d(above[:, i])
    for t in range(degree, -1, -1):
        if held + above.shape[1] * (t + 1) > MAX_SPIN_TERMS:
            raise ResourceLimitError(
                f"the Ising expansion may hold more than {MAX_SPIN_TERMS} spin terms"
            )
        rows, coeffs = blocks.pop(t, (np.empty((0, t), dtype=id_type), np.empty(0, dtype=object)))
        k = len(coeffs)
        sets, where = _distinct(_with_dropped(rows.T, above))
        level = np.zeros((degree - t + 1, sets.shape[1]), dtype=sums.dtype)
        np.add.at(level[0], where[:k], coeffs.astype(sums.dtype) << (degree - t))
        for block in where[k:].reshape(t + 1, above.shape[1]):
            for d, row in enumerate(sums, start=1):
                np.add.at(level[d], block, row)
        level[1:] //= np.arange(1, degree - t + 1, dtype=sums.dtype)[:, None]
        coeff = level.sum(axis=0)
        if t % 2:
            coeff = -coeff
        nonzero = np.flatnonzero(coeff)
        levels.append((sets[:, nonzero].T, coeff[nonzero]))
        held += sets.shape[1]
        above, sums = sets, level
    return levels


def _with_dropped(own: np.ndarray, above: np.ndarray) -> np.ndarray:
    """The columns of `own`, then every column of `above` without its row i,
    for i = 0, 1, ..., in blocks of above's width."""
    t, k, n = len(own), own.shape[1], above.shape[1]
    rows = np.empty((t, k + (t + 1) * n), dtype=above.dtype)
    rows[:, :k] = own
    for i in range(t + 1):
        block = rows[:, k + i * n : k + (i + 1) * n]
        block[:i] = above[:i]
        block[i:] = above[i + 1 :]
    return rows


def _distinct(sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of a non-negative int matrix, and where each
    input column is among them: the packed words of pbo._lex_order,
    compared in sorted order in place of the rows."""
    count = sets.shape[1]
    order, words = _lex_order(sets)
    new = np.zeros(count, dtype=bool)
    new[:1] = True
    for word in words:
        ranked = word[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    where = np.empty(count, dtype=np.intp)
    where[order] = np.cumsum(new) - 1
    return sets[:, order[new]], where


@dataclass(frozen=True)
class GateReport:
    cnot_count: int
    term_histogram: dict[int, int]

    def to_json(self) -> str:
        doc = {
            "cnot": self.cnot_count,
            "histogram": {str(k): v for k, v in sorted(self.term_histogram.items())},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cnot_count_oracle(p: Polynomial) -> GateReport:
    """Expansion-based count: 2(k-1) CNOTs per surviving k-local Z term, k >= 2; a level that cancels has no entry."""
    hist = {rows.shape[1]: len(rows) for rows, _ in reversed(ising_expand(p)) if rows.shape[1] >= 2 and len(rows)}
    return GateReport(cnot_count=sum(count * 2 * (k - 1) for k, count in hist.items()), term_histogram=hist)


def cnot_count_onehot_closed(n: int, m: int, c: int) -> int:
    """Closed form for the one-hot QUBO: c * (n*(c+1) + 2m)."""
    return c * (n * (c + 1) + 2 * m)


def cnot_count_log_closed(m: int, l: int) -> int:
    """Closed form for the logarithmic HUBO adjacency term: m * (2(l-1)*2^l + 2)."""
    if l < 1:
        raise ValueError(f"bit count must be >= 1, got {l}")
    return m * (2 * (l - 1) * (1 << l) + 2)
