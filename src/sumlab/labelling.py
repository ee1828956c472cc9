"""Injective vertex labellings, induced edge labellings, and certificates.

An injective map f from vertices to integers induces two edge labellings:
the sum labelling uv -> f(u)+f(v) and the difference labelling
uv -> |f(u)-f(v)|.  A certificate packages a graph, a labelling, and a
claimed number of distinct edge values so that exhibited labellings can be
stored as data and re-verified mechanically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, emit_graph6, parse_graph6


class LabellingError(ValueError):
    """Labelling is not injective or does not match its graph."""


class LabelKind(str, Enum):
    SUM = "SUM"
    DIFF = "DIFF"


@dataclass(frozen=True)
class VertexLabelling:
    """Injective vertex -> integer map, stored as a sorted item tuple."""

    items: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, values: dict[int, int]) -> "VertexLabelling":
        lab = cls(tuple(sorted(values.items())))
        lab.validate()
        return lab

    def validate(self) -> None:
        verts = [v for v, _ in self.items]
        vals = [x for _, x in self.items]
        if len(set(verts)) != len(verts):
            raise LabellingError("repeated vertex in labelling")
        if len(set(vals)) != len(vals):
            raise LabellingError("labelling is not injective")

    def as_dict(self) -> dict[int, int]:
        return dict(self.items)


@dataclass(frozen=True)
class EdgeLabelling:
    kind: LabelKind
    labels: tuple[tuple[tuple[int, int], int], ...]

    def values(self) -> tuple[int, ...]:
        return tuple(x for _, x in self.labels)


def derive_edge_labelling(g: Graph, f: VertexLabelling, kind: LabelKind) -> EdgeLabelling:
    """Induce the edge labelling of the requested kind from f.

    f must be injective and label exactly the vertices of g.
    """
    f.validate()
    values = f.as_dict()
    if set(values) != set(range(g.n)):
        raise LabellingError("labelling domain does not match the graph's vertices")
    out = []
    for u, v in g.edges:
        if kind is LabelKind.SUM:
            out.append(((u, v), values[u] + values[v]))
        else:
            out.append(((u, v), abs(values[u] - values[v])))
    return EdgeLabelling(kind, tuple(out))


def distinct_value_count(e: EdgeLabelling) -> int:
    return len(set(e.values()))


@dataclass(frozen=True)
class Certificate:
    """A graph, a labelling, and a claimed distinct-value count."""

    graph: Graph
    labelling: VertexLabelling
    claim_kind: LabelKind
    claimed_value: int

    def to_json_dict(self) -> dict:
        return {
            "graph6": emit_graph6(self.graph),
            "labelling": {str(v): x for v, x in self.labelling.items},
            "kind": self.claim_kind.value,
            "claimed": self.claimed_value,
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "Certificate":
        """Raises LabellingError naming a missing or unreadable field; the
        labels and the claim must be JSON integers."""
        if not isinstance(record, dict):
            raise LabellingError(f"record is not a JSON object: {record!r}")

        def field(key, read):
            if key not in record:
                raise LabellingError(f"record has no {key!r} field")
            try:
                return read(record[key])
            except (TypeError, ValueError, AttributeError) as exc:
                raise LabellingError(f"field {key!r}: {exc}") from None

        return cls(
            graph=field("graph6", parse_graph6),
            labelling=field("labelling", lambda values: VertexLabelling.from_dict(
                {int(v): _json_int(x) for v, x in values.items()})),
            claim_kind=field("kind", LabelKind),
            claimed_value=field("claimed", _json_int),
        )


def _json_int(x) -> int:
    """x itself if it is a JSON integer; a float or a boolean (a Python int
    subclass) raises ValueError rather than being truncated or read as 0/1."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{x!r} is not an integer")
    return x


@dataclass(frozen=True)
class CertificateVerdict:
    passed: bool
    observed: int
    claimed: int


def verify_certificate(c: Certificate) -> CertificateVerdict:
    """Recompute the distinct-value count and compare with the claim."""
    observed = distinct_value_count(
        derive_edge_labelling(c.graph, c.labelling, c.claim_kind)
    )
    return CertificateVerdict(observed == c.claimed_value, observed, c.claimed_value)


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------

def certificates_to_json(certs: list[Certificate]) -> str:
    return json.dumps([c.to_json_dict() for c in certs], indent=2) + "\n"


def certificates_from_json(text: str) -> list[Certificate]:
    """A malformed record raises LabellingError naming its index."""
    data = json.loads(text)
    certs = []
    for i, rec in enumerate(data if isinstance(data, list) else [data]):
        try:
            certs.append(Certificate.from_json_dict(rec))
        except LabellingError as exc:
            raise LabellingError(f"certificate {i}: {exc}") from None
    return certs
