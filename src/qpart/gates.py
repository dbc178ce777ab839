"""CNOT-count estimation for one QAOA phase-separation layer.

Closed forms for both encodings are cross-checked by an oracle that
performs the Ising substitution x = (1 - Z)/2 exactly and prices each
surviving k-local Z product at 2(k-1) CNOTs. A term over T variables
contributes c / 2**|T| to each subset of T, so every coefficient is kept
as an int scaled by 2**degree and cancellation is detected exactly.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .errors import ResourceLimitError
from .pbo import Polynomial, Term

# Subset additions ising_expand may make: a term over T variables adds into
# all 2**|T| subsets of T. perfbench's n=64, c=16 log model needs about
# 6.5 M (2 s) and an n=40, L=5 log model (m=390) about 23 M, so both stay
# in reach; a degree-40 term in a 1 KB file would need 2**40.
MAX_SUBSET_ADDS = 1 << 25
# Spin terms ising_expand may hold, at about 260 B each. Log models share
# most subsets between monomials (the n=64, c=16 model holds about 228 k,
# an n=40, c=32 one about 376 k), but one term's subsets are all distinct,
# so a single degree-25 term within MAX_SUBSET_ADDS would need about 9 GB.
MAX_SPIN_TERMS = 1 << 20


def ising_expand(p: Polynomial) -> dict[Term, int]:
    """Exact substitution x_j = (1 - Z_j)/2 with multilinear expansion.

    A term c * x_T expands to c / 2**|T| * sum over subsets S of T of
    (-1)**|S| Z_S; every coefficient is kept scaled by 2**degree, and
    zero coefficients are dropped. Each term's subsets are counted as new
    spin terms before it is expanded, so the expansion never holds more
    than MAX_SPIN_TERMS.
    """
    adds = sum(1 << len(key) for key, _ in p.items())
    if adds > MAX_SUBSET_ADDS:
        raise ResourceLimitError(
            f"the Ising expansion needs {adds} subset additions, over the limit of {MAX_SUBSET_ADDS}"
        )
    shift = p.degree()
    acc: dict[Term, int] = {}
    for key, coeff in p.items():
        t = len(key)
        if len(acc) + (1 << t) > MAX_SPIN_TERMS:
            raise ResourceLimitError(
                f"the Ising expansion may hold more than {MAX_SPIN_TERMS} spin terms"
            )
        scaled = coeff << (shift - t)
        for size in range(t + 1):
            signed = -scaled if size % 2 else scaled
            for subset in combinations(key, size):
                acc[subset] = acc.get(subset, 0) + signed
    return {k: v for k, v in acc.items() if v}


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
