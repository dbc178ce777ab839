"""Encoded problems: a polynomial plus a variable registry and metadata.

The model JSON interchange format serializes coefficients as decimal
strings so arbitrary-size penalties survive a round trip exactly.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass
from typing import Any, Mapping

import numpy as np

from .errors import ParseError
from .graphs import Graph
from .pbo import Polynomial, _accumulate, _degree_blocks


@dataclass(frozen=True)
class EncodedProblem:
    """A Hamiltonian together with the role of every binary variable.

    registry[i] names variable i ("x[v][c]", "y[c]", "x[v][k]", "w[e][k]",
    ...); meta records the encoding kind and enough of the source instance
    (n, edges, color bound, bit count) to decode and re-derive structure.
    No penalty record is stored: model JSON writes, and checks, the one meta derives.
    """

    polynomial: Polynomial
    registry: tuple[str, ...]
    meta: Mapping[str, Any]

    def __post_init__(self):
        span = self.polynomial.num_variables()
        if span > len(self.registry):
            raise ValueError(f"polynomial uses {span} variables but registry has {len(self.registry)}")

    @property
    def num_variables(self) -> int:
        return len(self.registry)

    @property
    def kind(self) -> str | None:
        return self.meta.get("kind")


def instance_meta(g: Graph, **fields: Any) -> dict[str, Any]:
    """The source-graph fields every encoding records, plus its own `fields`."""
    return {"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges], "graph_digest": g.digest(), **fields}


def to_model_json(prob: EncodedProblem) -> str:
    """The model as `json.dumps(doc, indent=2, sort_keys=True)` writes it, plus a newline,
    except that "terms" holds one block per degree, each on one line.

    A block is `json.dumps({"coeffs": [...], "degree": d, "vars": [...]}, sort_keys=True)`:
    its terms' coefficients as decimal strings and their ids, d per term, in one flat list,
    keys sorted. Blocks come in ascending degree, so the terms keep the order of degree, then
    variable ids, as pbo._degree_blocks, which the gate oracle also reads, gives them.
    Sorted keys put "terms" between "num_vars" and "variables": the blocks and
    the variables, one format string each, follow the rest, which goes through `json.dumps`.
    A known kind's metadata gets the record it derives; ValueError if the reader would refuse it.
    """
    record = _penalty_record(prob.meta)
    metadata = dict(prob.meta) if record is None else {**prob.meta, "penalties": record}
    head = json.dumps({"metadata": metadata, "num_vars": prob.num_variables}, indent=2, sort_keys=True)
    blocks = [_block_json(rows, coeffs) for rows, coeffs in _degree_blocks(prob.polynomial)]
    terms = "[\n" + ",\n".join(blocks) + "\n  ]" if blocks else "[]"
    # each variable as json.dumps(indent=2) writes an element of a top-level list, without its
    # pure-Python encoder, which holds several times the text in small strings
    entries = [f'    {{\n      "id": {i},\n      "role": {json.dumps(r)}\n    }}' for i, r in enumerate(prob.registry)]
    variables = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    # head ends with the top-level "\n}"
    return f'{head[:-2]},\n  "terms": {terms},\n  "variables": {variables}\n}}\n'


def _block_json(rows: np.ndarray, coeffs: np.ndarray) -> str:
    """One entry of the terms list, on one line: the terms of one degree, a key per row of `rows`.

    The text json.dumps writes, joined directly: decimal strings need no escaping, and each
    distinct coefficient and id, of which a model has few, is formatted once."""
    coeffs, ids = coeffs.tolist(), rows.ravel().tolist()
    coeff_text = ", ".join(map({c: f'"{c}"' for c in set(coeffs)}.__getitem__, coeffs))
    id_text = ", ".join(map({i: str(i) for i in set(ids)}.__getitem__, ids))
    return f'    {{"coeffs": [{coeff_text}], "degree": {rows.shape[1]}, "vars": [{id_text}]}}'


def from_model_json(text: str) -> EncodedProblem:
    """Parse model JSON in to_model_json's block layout: the message names a terms entry that is
    not a `{"coeffs", "degree", "vars"}` object, or a variables entry not an `{"id", "role"}` one.

    A block's degree must be a non-negative JSON integer and its vars a list of exactly
    degree ids per coefficient. Variable ids must be JSON integers, non-negative and strictly
    increasing within each term, and coefficients JSON integers or ASCII decimal strings;
    booleans and floats are rejected. Terms of one key sum, and zero sums drop out. Roles
    must be strings and metadata an object. A known kind's penalty record must equal, in
    every value and JSON type, the one its metadata derives; any other kind's stays in its
    metadata."""
    from .logenc import LOG_KINDS  # late: the encoder modules depend on this one

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid model JSON: {exc.msg}", line=exc.lineno) from exc
    try:
        num_vars = _json_int(doc["num_vars"])
        roles: dict[int, str] = {}
        for index, entry in enumerate(doc["variables"]):
            if type(entry) is not dict or not {"id", "role"} <= entry.keys():
                raise ValueError(f"variables entry {index} is not an object {{id, role}}")
            i = _json_int(entry["id"])
            if not 0 <= i < num_vars or i in roles:
                raise ValueError(f"variable id {i} is out of range 0..{num_vars - 1} or repeated")
            roles[i] = entry["role"]
            if type(roles[i]) is not str:
                raise ValueError(f"variable {i} needs a string role, got {roles[i]!r}")
        if len(roles) != num_vars:
            raise ValueError(f"variables list {len(roles)} ids but num_vars is {num_vars}")
        keys: list[tuple[int, ...]] = []
        coeffs: list[Any] = []
        for index, block in enumerate(doc["terms"]):
            if type(block) is not dict or not {"coeffs", "degree", "vars"} <= block.keys():
                raise ValueError(f"terms entry {index} is not a block {{coeffs, degree, vars}}")
            degree, ids, block_coeffs = _json_int(block["degree"]), block["vars"], block["coeffs"]
            if not (type(ids) is list and type(block_coeffs) is list and degree >= 0):
                raise ValueError(f"a block needs a non-negative degree and lists, got degree {degree}")
            if len(ids) != degree * len(block_coeffs):
                raise ValueError(f"a block of {len(block_coeffs)} terms of degree {degree} has {len(ids)} ids")
            if not set(map(type, ids)) <= {int}:
                raise ValueError("term variable ids must be integers")
            # column k holds every term's k-th id; a block without terms has no columns
            cols = [ids[k::degree] for k in range(degree if ids else 0)]
            if cols and min(cols[0]) < 0:
                raise ValueError("term variable ids must be non-negative")
            if not all(all(map(operator.lt, col, nxt)) for col, nxt in zip(cols, cols[1:])):
                raise ValueError("term variable ids must be strictly increasing")
            keys.extend(zip(*cols) if cols else [()] * len(block_coeffs))
            coeffs.extend(block_coeffs)
        # every coefficient's type, since a set merges True with 1; then each distinct one once
        if not set(map(type, coeffs)) <= {int, str}:
            raise ValueError("term coefficients must be integers or decimal strings")
        distinct = set(coeffs)
        # int() also reads spaces, underscores and non-ASCII digits; empty strings it rejects
        digits = "".join(c.removeprefix("-") for c in distinct if type(c) is str)
        if not (digits.isascii() and (digits.isdigit() or not digits)):
            raise ValueError("coefficient strings must be ASCII decimal integers")
        value = {c: int(c) for c in distinct}
        terms = dict(zip(keys, map(value.__getitem__, coeffs)))
        if len(terms) < len(keys) or 0 in value.values():  # a repeated key or a zero: sum as written
            terms = _accumulate(zip(keys, map(value.__getitem__, coeffs)))
        poly = Polynomial._from_canonical(terms)
        metadata = doc.get("metadata", {})
        if type(metadata) is not dict:
            raise ValueError("metadata must be a JSON object")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model JSON: {exc}") from exc
    try:
        # For each k < L the file writes a coefficient of at least the ladder's
        # (n+1)^k in decimal, 3.3 bits a digit: refuse metadata whose ladder
        # outgrows the file before building it.
        n, l = metadata.get("n"), metadata.get("L")
        if metadata.get("kind") in LOG_KINDS + ("quadratized_log",) and type(n) is type(l) is int:
            if l * (l - 1) // 2 * ((n + 1).bit_length() - 1) > 4 * len(text):
                raise ValueError(f"a ladder of n={n}, L={l} does not fit in the file")
        record = _penalty_record(metadata)
        if record is not None:
            stored = metadata.pop("penalties", None)
            if json.dumps(record, sort_keys=True) != json.dumps(stored, sort_keys=True):
                raise ValueError("its penalty record differs from the one its metadata derives")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"metadata does not fit kind {metadata.get('kind')!r}: {exc}") from exc
    registry = tuple(roles[i] for i in range(num_vars))
    return EncodedProblem(poly, registry, metadata)


def _json_int(value: Any) -> int:
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _penalty_record(meta: Mapping[str, Any]) -> dict | None:
    """The penalty record a known kind's metadata derives by its encoder's rule, as a dict, checking the
    metadata as the encoder does and that m is a JSON int equal to the length of its edge list; None for
    a kind this module does not know."""
    # Late imports: the encoder modules depend on this one.
    from .logenc import LOG_KINDS, log_layout, log_penalties
    from .onehot import onehot_penalties
    from .quadratize import quadratization_penalties

    kind = meta.get("kind")
    if kind not in LOG_KINDS + ("quadratized_log", "onehot_mgc"):
        return None
    if not (type(meta.get("m")) is int and type(meta.get("edges")) is list and meta["m"] == len(meta["edges"])):
        raise ValueError(f"m={meta.get('m')!r} is not the length of its edge list")
    if kind == "onehot_mgc":
        return asdict(onehot_penalties(meta["n"], meta["m"], meta["c_num"]))
    if kind == "quadratized_log":
        return asdict(quadratization_penalties(log_layout({**meta, "kind": meta.get("base_kind")})))
    log_layout(meta)
    return asdict(log_penalties(meta))
