"""Encoded problems: a polynomial plus a variable registry and metadata.

The model JSON interchange format serializes coefficients as decimal
strings so arbitrary-size penalties survive a round trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Mapping

from .errors import ParseError
from .graphs import Graph
from .pbo import Polynomial


@dataclass(frozen=True)
class EncodedProblem:
    """A Hamiltonian together with the role of every binary variable.

    registry[i] names variable i ("x[v][c]", "y[c]", "x[v][k]", "w[e][k]",
    ...); meta records the encoding kind and enough of the source instance
    (n, edges, color bound, bit count) to decode and re-derive structure.
    """

    polynomial: Polynomial
    registry: tuple[str, ...]
    penalties: Any
    meta: Mapping[str, Any]

    def __post_init__(self):
        span = self.polynomial.num_variables()
        if span > len(self.registry):
            raise ValueError(
                f"polynomial uses {span} variables but registry has {len(self.registry)}"
            )

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
    terms = [
        {"vars": list(key), "coeff": str(coeff)}
        for key, coeff in sorted(prob.polynomial.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    metadata = dict(prob.meta)
    if prob.penalties is not None:
        metadata["penalties"] = asdict(prob.penalties)
    doc = {
        "num_vars": prob.num_variables,
        "variables": [{"id": i, "role": r} for i, r in enumerate(prob.registry)],
        "terms": terms,
        "metadata": metadata,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def from_model_json(text: str) -> EncodedProblem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid model JSON: {exc.msg}", line=exc.lineno) from exc
    try:
        num_vars = int(doc["num_vars"])
        roles: dict[int, str] = {}
        for entry in doc["variables"]:
            i = int(entry["id"])
            if not 0 <= i < num_vars or i in roles:
                raise ValueError(f"variable id {i} is out of range 0..{num_vars - 1} or repeated")
            roles[i] = str(entry["role"])
        if len(roles) != num_vars:
            raise ValueError(f"variables list {len(roles)} ids but num_vars is {num_vars}")
        poly = Polynomial(
            (tuple(int(v) for v in t["vars"]), int(t["coeff"])) for t in doc["terms"]
        )
        metadata = dict(doc.get("metadata", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model JSON: {exc}") from exc
    try:
        penalties = _penalties_from_meta(metadata)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"metadata does not fit kind {metadata.get('kind')!r}: {exc}") from exc
    registry = tuple(roles[i] for i in range(num_vars))
    return EncodedProblem(poly, registry, penalties, metadata)


def _penalties_from_meta(metadata: dict) -> Any:
    record = metadata.get("penalties")
    kind = metadata.get("kind", "")
    # Late imports: the encoder modules depend on this one.
    if kind in ("log_mgc", "log_general"):
        from .logenc import LexPenalties

        _check_log_meta(metadata)
        return LexPenalties(p=tuple(int(x) for x in record["p"]), a_adjacency=int(record["a_adjacency"]))
    if record is None:
        return None
    if kind in ("onehot_mgc", "onehot_gc"):
        from .onehot import OneHotPenalties

        return OneHotPenalties(**_intify(record))
    if kind == "quadratized_log":
        from .quadratize import QuadratizationPenalties

        return QuadratizationPenalties(**_intify(record))
    return record


def _intify(record: Mapping[str, Any]) -> dict[str, int]:
    return {k: int(v) for k, v in record.items()}


def _check_log_meta(metadata: Mapping[str, Any]) -> None:
    """The fields a logarithmic encoding is re-derived from must be present and integral;
    its penalty record is read by the caller."""
    n, l = metadata.get("n"), metadata.get("L")
    if not (type(n) is int and type(l) is int and n >= 1 and l >= 1):
        raise ValueError("n and L must be positive integers")
    edges = metadata.get("edges")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e) for e in edges
    ):
        raise ValueError("edges must be a list of integer pairs")
    # quadratize's term-count bound relies on each edge being one distinct pair.
    if not all(0 <= u < v < n for u, v in edges) or len({tuple(e) for e in edges}) != len(edges):
        raise ValueError(f"edges must be distinct pairs u < v of vertices 0..{n - 1}")
    if metadata["kind"] == "log_general":
        for name in ("alpha", "beta"):
            costs = metadata.get(name)
            if not isinstance(costs, dict) or not all(type(costs.get(f"{u}-{v}")) is int for u, v in edges):
                raise ValueError(f"{name} needs an integer entry for every edge")
