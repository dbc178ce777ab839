"""CNOT-count estimation for one QAOA phase-separation layer.

Closed forms for both encodings are cross-checked by an oracle that
performs the Ising substitution x = (1 - Z)/2 exactly and prices each
surviving k-local Z product at 2(k-1) CNOTs. A term over T variables
contributes c / 2**|T| to each subset of T, so every coefficient is kept
as an int scaled by 2**degree and cancellation is detected exactly.

The expansion is a superset sum (the fast subset-sum, or zeta, transform
of Yates 1937) over the subsets of the term keys, taken one subset size
at a time from the degree down, in numpy: each level is one sort of its
key rows, packed into int64 words, and a few scatter-adds, not one dict
update per (term, subset) pair.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import ResourceLimitError
from .pbo import Polynomial, Term

# Subsets a term-by-term expansion would add into: a term over T variables
# has 2**|T|. Checked before anything is built, the count refuses a key too
# wide to expand (a degree-40 term in a 1 KB file has 2**40) and bounds the
# level-wise sum, which copies at most degree / 2 key rows per subset.
# perfbench's n=64, c=16 log model has 6.5 M and expands in about 0.3 s;
# an n=40, c=32 (L=5) log model has 23 M and takes about 0.5 s.
MAX_SUBSET_ADDS = 1 << 25
# Key rows ising_expand may hold, checked before each level is built: the
# distinct subsets found so far plus the next level's rows before they are
# made distinct. A row is at most degree int32 ids, one or more int64 sort
# words and degree + 1 int64 sums, and each nonzero subset also becomes a
# dict entry. Log models share most subsets between monomials (the n=64,
# c=16 model reaches about 0.44 M rows, an n=40, c=32 one 0.74 M), but one
# term's subsets are all distinct: a single degree-25 term within
# MAX_SUBSET_ADDS stops before its 19-variable subsets are built, having
# allocated about 40 MiB.
MAX_SPIN_TERMS = 1 << 20


def ising_expand(p: Polynomial) -> dict[Term, int]:
    """Exact substitution x_j = (1 - Z_j)/2 with multilinear expansion.

    A term c * x_T expands to c / 2**|T| * sum over subsets S of T of
    (-1)**|S| Z_S; every coefficient is kept scaled by 2**degree, and
    zero coefficients are dropped.

    With b_T = c_T * 2**(degree - |T|), let F_d(S) sum b_T over the terms
    T that contain S and have d more variables, so that Z_S has the
    coefficient (-1)**|S| * sum over d of F_d(S). F_0(S) is b_S, and the
    sum of F_d(S + {j}) over j counts each such T once per variable of
    T - S, so F_{d+1}(S) is that sum divided by d + 1, exactly. The sets
    of size t are therefore built from those of size t + 1 alone: the
    keys of size t, and each (t + 1)-set with one variable dropped, made
    distinct.
    """
    per_size, ids, weights = _terms_by_size(p)
    degree = len(per_size) - 1
    ends = np.cumsum(per_size).tolist()
    id_ends = np.cumsum(per_size * np.arange(degree + 1)).tolist()

    found = []  # each level's nonzero sets, one per row, and their coefficients
    held = 0
    above = np.empty((degree + 1, 0), dtype=ids.dtype)  # the (t + 1)-sets, one per column
    sums = np.empty((0, 0), dtype=weights.dtype)  # sums[d, i] is F_d of above[:, i]
    for t in range(degree, -1, -1):
        if held + above.shape[1] * (t + 1) > MAX_SPIN_TERMS:
            raise ResourceLimitError(
                f"the Ising expansion may hold more than {MAX_SPIN_TERMS} spin terms"
            )
        k = int(per_size[t])
        own = ids[id_ends[t] - k * t : id_ends[t]].reshape(k, t).T
        sets, where = _distinct(_with_dropped(own, above))
        level = np.zeros((degree - t + 1, sets.shape[1]), dtype=weights.dtype)
        np.add.at(level[0], where[:k], weights[ends[t] - k : ends[t]])
        for block in where[k:].reshape(t + 1, above.shape[1]):
            for d, row in enumerate(sums, start=1):
                np.add.at(level[d], block, row)
        level[1:] //= np.arange(1, degree - t + 1, dtype=weights.dtype)[:, None]
        coeff = level.sum(axis=0)
        if t % 2:
            coeff = -coeff
        nonzero = np.flatnonzero(coeff)
        found.append((sets[:, nonzero].T, coeff[nonzero]))
        held += sets.shape[1]
        above, sums = sets, level
    return {key: v for rows, vals in found for key, v in zip(map(tuple, rows.tolist()), vals.tolist())}


def _terms_by_size(p: Polynomial) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p's term counts by size, then its key ids and its weights
    b_T = c_T * 2**(degree - |T|), both in order of size: the size-t terms
    come after the terms of every smaller size, and so do their ids.

    MAX_SUBSET_ADDS is checked before anything is flattened. Weights are
    int64 while sum |b_T| * degree, which bounds every partial sum of the
    expansion, is below 2**63, and Python ints past it.
    """
    keys = list(map(itemgetter(0), p.items()))
    sizes = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    per_size = np.bincount(sizes, minlength=1)
    present = np.flatnonzero(per_size).tolist()
    adds = sum(int(per_size[t]) << t for t in present)
    if adds > MAX_SUBSET_ADDS:
        raise ResourceLimitError(
            f"the Ising expansion needs {adds} subset additions, over the limit of {MAX_SUBSET_ADDS}"
        )
    degree = len(per_size) - 1
    by_size = np.argsort(sizes, kind="stable")
    id_type = np.int32 if p.num_variables() <= 1 << 31 else np.int64
    ids = np.fromiter(
        chain.from_iterable(keys[i] for i in by_size.tolist()), dtype=id_type, count=int(sizes.sum())
    )
    coeffs = np.fromiter(map(itemgetter(1), p.items()), dtype=object, count=len(keys))[by_size]
    ends = np.cumsum(per_size).tolist()
    bound = sum(sum(map(abs, coeffs[ends[t] - per_size[t] : ends[t]])) << (degree - t) for t in present)
    shifts = degree - sizes[by_size]
    if bound * max(degree, 1) < 1 << 63:
        return per_size, ids, coeffs.astype(np.int64) << shifts
    return per_size, ids, coeffs << shifts.astype(object)


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
    input column is among them.

    Each column is packed into as few int64 words as hold it, and the
    words are sorted and compared in place of the rows.
    """
    count = sets.shape[1]
    bits = max(int(sets.max(initial=0)).bit_length(), 1)
    per_word = max(63 // bits, 1)
    words = []
    for top in range(0, len(sets), per_word):
        word = np.zeros(count, dtype=np.int64)
        for row in sets[top : top + per_word]:
            word <<= bits
            word |= row
        words.append(word)
    order = np.lexsort(words[::-1]) if words else np.arange(count)
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
    """Expansion-based count: 2(k-1) CNOTs per surviving k-local Z term, k >= 2."""
    localities = Counter(len(key) for key in ising_expand(p))
    hist = {k: count for k, count in sorted(localities.items()) if k >= 2}
    cnot = sum(count * 2 * (k - 1) for k, count in hist.items())
    return GateReport(cnot_count=cnot, term_histogram=hist)


def cnot_count_onehot_closed(n: int, m: int, c: int) -> int:
    """Closed form for the one-hot QUBO: c * (n*(c+1) + 2m)."""
    return c * (n * (c + 1) + 2 * m)


def cnot_count_log_closed(m: int, l: int) -> int:
    """Closed form for the logarithmic HUBO adjacency term: m * (2(l-1)*2^l + 2)."""
    if l < 1:
        raise ValueError(f"bit count must be >= 1, got {l}")
    return m * (2 * (l - 1) * (1 << l) + 2)
