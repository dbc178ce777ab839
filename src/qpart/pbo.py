"""Multilinear pseudo-Boolean polynomials with exact integer coefficients.

Every Hamiltonian in the package is a value of this type. Coefficients are
Python ints, so penalty weights of any magnitude are represented exactly;
no floating point enters an energy computation.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DimensionError, ResourceLimitError

ENUMERATION_MAX_VARS = 24
# energy_vector runs the passes over its low ZETA_ROW_BITS variables only on
# the rows of 2**ZETA_ROW_BITS entries that hold a term, gathering at most
# ZETA_CHUNK_BYTES of them at once.
ZETA_ROW_BITS = 12
ZETA_CHUNK_BYTES = 8 << 20
# Terms an encoder may write into one polynomial, counted before it
# builds any: about 250 B per term in the polynomial (K2's 2**20-term log
# model at 1024 colours peaks at 282 MiB), more with `qpart encode`'s
# registry and JSON text (ru_maxrss of 133 MiB for the 200,001 terms of a
# 10**5-vertex edgeless graph at 4 colours, against 75 MiB for the encoding
# alone; 137 against 108 MiB for K2's 2**18-term model at 512 colours), so
# a model near the limit takes over 1 GB.
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
        items = () if terms is None else terms.items() if isinstance(terms, Mapping) else terms
        # operator.index takes ints only: floats, strings and Fractions raise TypeError
        self._terms = _accumulate((_canonical_key(vars_), operator.index(coeff)) for vars_, coeff in items)

    @classmethod
    def _from_canonical(cls, terms: dict[Term, int]) -> Polynomial:
        """The polynomial of a finished term map, adopted without a copy, so the caller no
        longer changes it: canonical keys, sorted tuples of distinct, non-negative ids, each
        with a nonzero coefficient, as the builders write them.

        Nothing is summed, re-canonicalized or checked: terms whose keys repeat or whose
        coefficients may be zero go through _accumulate first. Only the builders, the
        quadratization proof and the model reader, which checks its keys, call this.
        """
        poly = cls.__new__(cls)
        poly._terms = terms
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
        return sum(coeff for key, coeff in self._terms.items() if all(map(bits.__getitem__, key)))

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


def _canonical_key(vars_: Iterable[int]) -> Term:
    key = tuple(sorted(set(map(operator.index, vars_))))
    if key and key[0] < 0:
        raise ValueError(f"negative variable id in term {key}")
    return key


def _accumulate(terms: Iterable[tuple[Term, int]]) -> dict[Term, int]:
    """Sum the coefficients of equal keys in the order keys first appear, dropping every
    zero sum (a dropped key that appears again enters at the end): the one summing loop,
    for the constructor, quadratize's gadgets, verify_quadratization's reduced terms and
    a model file that repeats a key or holds a zero."""
    canon: dict[Term, int] = {}
    get = canon.get
    for key, coeff in terms:
        if coeff:
            new = get(key, 0) + coeff
            if new:
                canon[key] = new
            else:
                del canon[key]
    return canon


def _degree_blocks(p: Polynomial) -> list[tuple[np.ndarray, np.ndarray]]:
    """p's terms by degree, ascending, flattened once: per degree d, the keys as the rows
    of a (K, d) array in lexicographic order, int32 if every id fits, else int64 (a
    registry names every id), and their coefficients, an object array in the same order.
    The one view of a term map that the model writer and the gate oracle read."""
    terms = p._terms
    sizes = np.fromiter(map(len, terms), dtype=np.intp, count=len(terms))
    ids = np.fromiter(itertools.chain.from_iterable(terms), dtype=np.int64, count=int(sizes.sum()))
    ids = ids.astype(np.int32) if ids.max(initial=0) < 1 << 31 else ids
    coeffs = np.fromiter(terms.values(), dtype=object, count=len(terms))
    starts = np.cumsum(sizes) - sizes
    blocks = []
    for d in np.flatnonzero(np.bincount(sizes)).tolist():
        which = np.flatnonzero(sizes == d)
        rows = ids[starts[which, None] + np.arange(d)]
        order, _ = _lex_order(rows.T)
        blocks.append((rows[order], coeffs[which[order]]))
    return blocks


def _lex_order(sets: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The order that sorts the columns of a non-negative int matrix lexicographically,
    and the columns packed into as few int64 words as hold them, most significant word
    first, so that comparing the words in turn compares the columns."""
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
    return (np.lexsort(words[::-1]) if words else np.arange(count)), words


def check_build_terms(count: int) -> None:
    """Raise ResourceLimitError when an encoding would write more than MAX_BUILD_TERMS terms."""
    if count > MAX_BUILD_TERMS:
        raise ResourceLimitError(
            f"the encoding needs {count} terms, over the limit of {MAX_BUILD_TERMS}"
        )


def index_to_bits(index: int, num_vars: int) -> Bits:
    """Bit v of the enumeration index is the value of variable v."""
    return tuple((index >> v) & 1 for v in range(num_vars))


def energy_vector(p: Polynomial, num_vars: int) -> np.ndarray:
    """Energies of all 2**num_vars assignments; bit v of an index is x_v.

    A term contributes exactly at the indices that have all of its bits
    set, i.e. at the supersets of its bitmask. So each coefficient, the
    constant included, is placed at its term's bitmask, and a subset-sum
    (zeta) transform then adds every entry into all of its supersets: one
    in-place pass per variable v adds each index without bit v into its
    partner with bit v, O(num_vars * 2**num_vars) in all (Yates 1937;
    Bjorklund et al., "Fourier meets Moebius", STOC 2007). Every partial
    sum is a sum over a subset of the coefficients, bounded by their
    absolute sum: int32 when that bound is below 2**31, int64 when it is
    below 2**62, object (big-int) dtype otherwise. The high passes stream
    the whole table, so the narrowest exact dtype is also the fastest; a
    24-variable table takes 64 MiB in int32.
    """
    if num_vars < p.num_variables():
        raise DimensionError(f"num_vars={num_vars} is smaller than the polynomial's variable span")
    if num_vars > ENUMERATION_MAX_VARS:
        raise ResourceLimitError(
            f"exhaustive enumeration is limited to {ENUMERATION_MAX_VARS} variables, got {num_vars}"
        )
    bound = sum(abs(c) for c in p._terms.values())
    energies = np.zeros(1 << num_vars, dtype=np.int32 if bound < 2**31 else np.int64 if bound < 2**62 else object)
    low = min(num_vars, ZETA_ROW_BITS)
    rows = energies.reshape(-1, 1 << low)
    held = set()
    for key, coeff in p._terms.items():
        mask = sum(1 << v for v in key)
        energies[mask] = coeff
        held.add(mask >> low)
    # The passes over the low bits stay within a row of 2**low entries, and
    # a row that holds no term stays zero under them; they are also the
    # slow passes, their inner stride being short. So they run on the rows
    # that hold a term, gathered a chunk at a time, and the passes over the
    # high bits run on the whole array.
    held = sorted(held)
    chunk = max(ZETA_CHUNK_BYTES // rows[0].nbytes, 1)
    for start in range(0, len(held), chunk):
        index = held[start : start + chunk]
        block = rows[index]
        _zeta_passes(block, range(low))
        rows[index] = block
        del block  # before the next chunk is gathered
    _zeta_passes(energies, range(low, num_vars))
    return energies


def _zeta_passes(energies: np.ndarray, variables: Iterable[int]) -> None:
    """Add each entry without bit v into its partner with bit v, in place,
    for each v: one subset-sum pass per variable."""
    for v in variables:
        view = energies.reshape(-1, 2, 1 << v)
        view[:, 1, :] += view[:, 0, :]


def ground_states(p: Polynomial, num_vars: int | None = None) -> tuple[int, list[Bits]]:
    """Exact minimum energy and the complete argmin set, by exhaustion."""
    nv = p.num_variables() if num_vars is None else num_vars
    energies = energy_vector(p, nv)
    emin = energies.min()
    argmin = np.flatnonzero(energies == emin)
    return int(emin), [index_to_bits(int(i), nv) for i in argmin]
