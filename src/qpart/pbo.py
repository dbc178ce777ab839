"""Multilinear pseudo-Boolean polynomials with exact integer coefficients.

Every Hamiltonian in the package is a value of this type. Coefficients are
Python ints, so penalty weights of any magnitude are represented exactly;
no floating point enters an energy computation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DimensionError, ResourceLimitError

ENUMERATION_MAX_VARS = 24
# Terms an encoder may stream into one polynomial, counted before it
# builds any. A build holds about 350 B per term (the 2**20-term log model
# of K2 at 1024 colours peaks at 354 MiB), so the largest allowed model
# takes about 0.7 GB; perfbench's n=64, c=16 log model streams 258 k terms.
MAX_BUILD_TERMS = 1 << 21

Term = tuple[int, ...]
Bits = tuple[int, ...]


class Polynomial:
    """Immutable multilinear polynomial over binary variables.

    Terms map sorted tuples of variable ids to nonzero integer
    coefficients; the empty tuple holds the constant. Idempotency
    (x^2 = x) is applied whenever terms combine, so the representation
    is canonical: two polynomials that agree as functions on {0,1}^N
    have identical term maps.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Iterable[int], int] | Iterable[tuple[Iterable[int], int]] | None = None):
        canon: dict[Term, int] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            get = canon.get
            for vars_, coeff in items:
                coeff = int(coeff)
                if coeff == 0:
                    continue
                key = tuple(sorted(set(map(int, vars_))))
                if key and key[0] < 0:
                    raise ValueError(f"negative variable id in term {key}")
                new = get(key, 0) + coeff
                if new == 0:
                    del canon[key]
                else:
                    canon[key] = new
        self._terms = canon

    @classmethod
    def _from_canonical(cls, terms: Iterable[tuple[Term, int]]) -> Polynomial:
        """Sum a term stream whose keys are already canonical: sorted tuples of
        distinct, non-negative ids, as the encoders' builders write them.

        The same map, in the same order, as the constructor builds from
        that stream, without re-canonicalizing each key. The keys are not
        checked, so only streams the program writes itself come through here.
        """
        canon: dict[Term, int] = {}
        get = canon.get
        for key, coeff in terms:
            if coeff:
                new = get(key, 0) + coeff
                if new:
                    canon[key] = new
                else:
                    del canon[key]
        poly = cls.__new__(cls)
        poly._terms = canon
        return poly

    def items(self) -> Iterator[tuple[Term, int]]:
        return iter(self._terms.items())

    def num_variables(self) -> int:
        """1 + the largest variable id appearing in any term (0 for constants)."""
        top = -1
        for key in self._terms:
            if key and key[-1] > top:
                top = key[-1]
        return top + 1

    def degree(self) -> int:
        return max((len(k) for k in self._terms), default=0)

    def evaluate(self, assignment: Iterable[int]) -> int:
        bits = tuple(assignment)
        if len(bits) < self.num_variables():
            raise DimensionError(
                f"assignment of length {len(bits)} does not cover {self.num_variables()} variables"
            )
        total = 0
        for key, coeff in self._terms.items():
            if all(bits[v] for v in key):
                total += coeff
        return total

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "Polynomial(0)"
        parts = []
        for key in sorted(self._terms, key=lambda k: (len(k), k))[:8]:
            mono = "*".join(f"x{v}" for v in key) if key else "1"
            parts.append(f"{self._terms[key]}*{mono}")
        tail = " + ..." if len(self._terms) > 8 else ""
        return f"Polynomial({' + '.join(parts)}{tail})"


def check_build_terms(count: int) -> None:
    """Raise ResourceLimitError when an encoding would stream more than MAX_BUILD_TERMS terms."""
    if count > MAX_BUILD_TERMS:
        raise ResourceLimitError(
            f"the encoding needs {count} terms, over the limit of {MAX_BUILD_TERMS}"
        )


def index_to_bits(index: int, num_vars: int) -> Bits:
    """Bit v of the enumeration index is the value of variable v."""
    return tuple((index >> v) & 1 for v in range(num_vars))


def bits_to_index(bits: Iterable[int]) -> int:
    out = 0
    for v, b in enumerate(bits):
        if b:
            out |= 1 << v
    return out


def energy_vector(p: Polynomial, num_vars: int) -> np.ndarray:
    """Energies of all 2**num_vars assignments, indexed by bits_to_index.

    A term contributes exactly at the indices that have all of its bits
    set, i.e. at the supersets of its bitmask. So each coefficient, the
    constant included, is placed at its term's bitmask, and a subset-sum
    (zeta) transform then adds every entry into all of its supersets: one
    in-place pass per variable v adds each index without bit v into its
    partner with bit v, O(num_vars * 2**num_vars) in all (Yates 1937;
    Bjorklund et al., "Fourier meets Moebius", STOC 2007). Every partial
    sum is a sum over a subset of the coefficients, bounded by their
    absolute sum: int64 when that bound is below 2**62, object (big-int)
    dtype otherwise.
    """
    if num_vars < p.num_variables():
        raise DimensionError(f"num_vars={num_vars} is smaller than the polynomial's variable span")
    if num_vars > ENUMERATION_MAX_VARS:
        raise ResourceLimitError(
            f"exhaustive enumeration is limited to {ENUMERATION_MAX_VARS} variables, got {num_vars}"
        )
    bound = sum(abs(c) for c in p._terms.values())
    energies = np.zeros(1 << num_vars, dtype=np.int64 if bound < 2**62 else object)
    for key, coeff in p._terms.items():
        energies[sum(1 << v for v in key)] = coeff
    for v in range(num_vars):
        view = energies.reshape(-1, 2, 1 << v)
        view[:, 1, :] += view[:, 0, :]
    return energies


def ground_states(p: Polynomial, num_vars: int | None = None) -> tuple[int, list[Bits]]:
    """Exact minimum energy and the complete argmin set, by exhaustion."""
    nv = p.num_variables() if num_vars is None else num_vars
    energies = energy_vector(p, nv)
    emin = energies.min()
    argmin = np.flatnonzero(energies == emin)
    return int(emin), [index_to_bits(int(i), nv) for i in argmin]
