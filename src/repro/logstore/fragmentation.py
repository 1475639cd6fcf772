"""Vertical fragmentation of log records across DLA nodes (paper §4).

"A global log can be split into n fragments Log_i = {glsn, L_i} ... where
L_i ⊆ A_i, ∪ L_i = L, and Log_i is sent to P_i."  Each DLA node ``P_i``
supports an attribute subset ``A_i`` with ``∪ A_i = I`` and — in the
paper's strict form — ``A_i ∩ A_j = ∅``.

:class:`FragmentPlan` captures the assignment and validates cover and
disjointness; an ``allow_overlap`` escape hatch supports the replication
ablation (DESIGN.md §5), where overlapping attribute support trades
confidentiality (measured by §5's ``u``) for fault tolerance.

:func:`paper_fragment_plan` encodes the exact Table 2-5 assignment so the
examples regenerate those tables verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

from repro.crypto.accumulator import digest_to_exponent
from repro.errors import FragmentationError, UnknownAttributeError
from repro.logstore.records import _CANONICAL_JSON, LogRecord
from repro.logstore.schema import GlobalSchema

__all__ = ["Fragment", "FragmentPlan", "paper_fragment_plan", "round_robin_plan"]

# ``_CANONICAL_JSON.encode`` as one C call: the iterencoder that method
# builds on every call, built once.  It keeps no circular-reference
# markers (a shared marker table would outlive a failed call), so a
# value that contains itself raises ``RecursionError`` instead of
# ``ValueError``; every other value encodes to the same text.
_canonical_chunks = c_make_encoder(
    None, _CANONICAL_JSON.default, encode_basestring_ascii, None,
    _CANONICAL_JSON.key_separator, _CANONICAL_JSON.item_separator,
    _CANONICAL_JSON.sort_keys, _CANONICAL_JSON.skipkeys, _CANONICAL_JSON.allow_nan,
)


@dataclass(frozen=True)
class Fragment:
    """The slice of one record stored at one DLA node: ``{glsn, L_i}``."""

    glsn: int
    node_id: str
    values: dict
    # Memo of digest_exponent(); 0 = not yet computed (a digest exponent
    # has its top bit set).  A declared field, so every instance keeps
    # the same attribute layout.
    _digest_exponent: int = field(default=0, init=False, repr=False, compare=False)

    def canonical_bytes(self) -> bytes:
        """Stable serialization — the integrity accumulator's input.

        ``node|`` then the fragment as a :class:`LogRecord`'s canonical
        JSON.  The values are encoded directly, to the same bytes, in one
        C call; only a value JSON cannot encode (``TypeError``: a
        ``bytes``) takes that record's rendering.
        """
        try:
            body = "".join(_canonical_chunks(self.values, 0))
        except TypeError:
            record = LogRecord(glsn=self.glsn, values=self.values)
            return self.node_id.encode("utf-8") + b"|" + record.canonical_bytes()
        return f'{self.node_id}|{{"glsn":{self.glsn},"values":{body}}}'.encode()

    def digest_exponent(self) -> int:
        """The accumulator exponent of :meth:`canonical_bytes`, computed once.

        A stored fragment is never edited in place — a tamper, a WAL replay,
        a snapshot restore each construct a new ``Fragment`` — so the memo
        cannot outlive the values it was derived from.
        """
        exponent = self._digest_exponent
        if not exponent:
            exponent = digest_to_exponent(self.canonical_bytes())
            object.__setattr__(self, "_digest_exponent", exponent)
        return exponent


class FragmentPlan:
    """Assignment ``node_id -> A_i`` over a global schema.

    Parameters
    ----------
    schema:
        The attribute universe ``I``.
    assignment:
        Node id -> list of supported attribute names.
    allow_overlap:
        Permit an attribute to be supported by several nodes.  The paper's
        base design forbids it (``A_i ∩ A_j = ∅``); overlapping plans are
        used by the replication ablation.
    """

    def __init__(
        self,
        schema: GlobalSchema,
        assignment: dict[str, list[str]],
        allow_overlap: bool = False,
    ) -> None:
        if not assignment:
            raise FragmentationError("a fragment plan needs at least one node")
        self.schema = schema
        self.assignment = {node: list(attrs) for node, attrs in assignment.items()}
        self.allow_overlap = allow_overlap

        covered: dict[str, list[str]] = {}
        for node, attrs in self.assignment.items():
            if len(set(attrs)) != len(attrs):
                raise FragmentationError(f"node {node} lists duplicate attributes")
            for attr in attrs:
                if attr not in schema:
                    raise UnknownAttributeError(
                        f"node {node} supports unknown attribute {attr!r}"
                    )
                covered.setdefault(attr, []).append(node)

        missing = [name for name in schema.names if name not in covered]
        if missing:
            raise FragmentationError(
                f"attributes not covered by any node: {missing}"
            )
        overlaps = {a: nodes for a, nodes in covered.items() if len(nodes) > 1}
        if overlaps and not allow_overlap:
            raise FragmentationError(
                f"attributes supported by multiple nodes: {sorted(overlaps)}"
            )
        self._owners = covered

    @property
    def node_ids(self) -> list[str]:
        return sorted(self.assignment)

    def supports(self, node_id: str, attribute: str) -> bool:
        return attribute in self.assignment.get(node_id, ())

    def owners_of(self, attribute: str) -> list[str]:
        """All nodes supporting ``attribute`` (singleton when disjoint)."""
        try:
            return list(self._owners[attribute])
        except KeyError as exc:
            raise UnknownAttributeError(f"unknown attribute {attribute!r}") from exc

    def home_of(self, attribute: str) -> str:
        """The canonical owner (first in sorted order) of ``attribute``."""
        return sorted(self.owners_of(attribute))[0]

    def fragment(self, record: LogRecord) -> dict[str, Fragment]:
        """Split a record into per-node fragments.

        Every node receives a fragment (possibly with no values) so each
        node's glsn index is complete — the paper's access-control tables
        are replicated on every node.
        """
        record.validate_against(self.schema)
        fragments = {}
        for node, attrs in self.assignment.items():
            fragments[node] = Fragment(
                glsn=record.glsn,
                node_id=node,
                values=record.project(attrs),
            )
        return fragments

    def reassemble(self, fragments: list[Fragment]) -> LogRecord:
        """Inverse of :meth:`fragment` — requires fragments of one glsn."""
        if not fragments:
            raise FragmentationError("no fragments to reassemble")
        glsns = {f.glsn for f in fragments}
        if len(glsns) != 1:
            raise FragmentationError(f"fragments mix glsns: {sorted(glsns)}")
        values: dict = {}
        for frag in fragments:
            for key, val in frag.values.items():
                if key in values and values[key] != val:
                    raise FragmentationError(
                        f"conflicting replicas for attribute {key!r} "
                        f"of glsn {frag.glsn}"
                    )
                values[key] = val
        return LogRecord(glsn=glsns.pop(), values=values)

    def minimum_cover_count(self, attributes: list[str]) -> int:
        """§5's ``u``: minimum number of nodes covering ``attributes``.

        Exact greedy-free computation via exhaustive search over small
        node counts; falls back to greedy for clusters above 16 nodes.
        """
        needed = set(attributes)
        if not needed:
            return 0
        nodes = self.node_ids
        supports = {
            node: needed & set(self.assignment[node]) for node in nodes
        }
        # Drop useless nodes.
        useful = [n for n in nodes if supports[n]]
        if not useful:
            raise FragmentationError("no node supports the requested attributes")
        if len(useful) <= 16:
            from itertools import combinations

            for size in range(1, len(useful) + 1):
                for combo in combinations(useful, size):
                    if set().union(*(supports[n] for n in combo)) >= needed:
                        return size
            raise FragmentationError(
                f"attributes {sorted(needed)} not jointly coverable"
            )
        # Greedy approximation for big clusters.
        remaining = set(needed)
        count = 0
        while remaining:
            best = max(useful, key=lambda n: len(supports[n] & remaining))
            gain = supports[best] & remaining
            if not gain:
                raise FragmentationError(
                    f"attributes {sorted(remaining)} not coverable"
                )
            remaining -= gain
            count += 1
        return count


def paper_fragment_plan(schema: GlobalSchema) -> FragmentPlan:
    """The exact Table 2-5 assignment: P0..P3 over the Table 1 schema."""
    return FragmentPlan(
        schema,
        {
            "P0": ["Time", "C4"],
            "P1": ["id", "EID", "C2", "C5"],
            "P2": ["Tid", "C3", "C"],
            "P3": ["protocl", "ip", "C1"],
        },
    )


def round_robin_plan(schema: GlobalSchema, node_ids: list[str]) -> FragmentPlan:
    """Spread attributes across ``node_ids`` round-robin (benchmark plans)."""
    if not node_ids:
        raise FragmentationError("need at least one node")
    assignment: dict[str, list[str]] = {node: [] for node in node_ids}
    for i, name in enumerate(schema.names):
        assignment[node_ids[i % len(node_ids)]].append(name)
    return FragmentPlan(schema, assignment)
