"""Global log schema: the attribute universe ``I`` (paper §4).

"Let I = {i_0, i_1, ..., i_m} denote a set of all possible audit log
attributes ... Attributes in I can be well known, such as time, id, pid,
salary, price, etc., or undefined (denoted as C_1, C_2, ..., C_n)."

Undefined attributes are abstract: only the application subsystem knows
their meaning (by private agreement), which is precisely what makes storing
them at a DLA node privacy-preserving — the node sees opaque column names
and values.  §5's store-confidentiality metric counts them (``v``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import SchemaError, UnknownAttributeError

__all__ = ["AttributeKind", "Attribute", "GlobalSchema", "paper_table1_schema"]


class AttributeKind(str, Enum):
    """Value domain of an attribute, used for predicate type checking."""

    TIME = "time"        # ordered timestamps (stored as int ticks or str)
    IDENTITY = "id"      # principal / transaction identifiers
    INTEGER = "int"
    DECIMAL = "decimal"  # fixed-point business amounts (stored as str/float)
    TEXT = "text"
    UNDEFINED = "undefined"  # the paper's C_1 ... C_n


@dataclass(frozen=True)
class Attribute:
    """One attribute in the global universe ``I``."""

    name: str
    kind: AttributeKind = AttributeKind.TEXT

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid attribute name {self.name!r}")

    @property
    def is_undefined(self) -> bool:
        return self.kind is AttributeKind.UNDEFINED

    @property
    def comparable(self) -> bool:
        """Can this attribute appear in ordered (<, >) predicates?"""
        return self.kind in (
            AttributeKind.TIME,
            AttributeKind.INTEGER,
            AttributeKind.DECIMAL,
        )


class GlobalSchema:
    """The attribute universe ``I`` shared by an application subsystem.

    Iteration order is the declaration order (matters for table rendering);
    lookup is by name.
    """

    def __init__(self, attributes: list[Attribute]) -> None:
        if not attributes:
            raise SchemaError("a schema needs at least one attribute")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names: {duplicates}")
        self._attributes = list(attributes)
        self._by_name = {a.name: a for a in attributes}

    def __iter__(self):
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def names(self) -> list[str]:
        return [a.name for a in self._attributes]

    def get(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise UnknownAttributeError(
                f"attribute {name!r} is not in the global schema"
            ) from exc

    def validate_values(self, values: dict) -> None:
        """Reject records that name attributes outside ``I``."""
        for name in values:
            if name not in self._by_name:
                raise UnknownAttributeError(
                    f"record attribute {name!r} is not in the global schema"
                )


def paper_table1_schema() -> GlobalSchema:
    """The exact schema of the paper's Table 1 global event log.

    Columns: glsn is carried separately (it is the record key, not an
    attribute); the attributes are Time, id, protocl [sic — kept verbatim
    from the paper], Tid, and undefined C1, C2, C3.  The extra attributes
    appearing only in the fragment tables (C4, EID, C5, C, ip) are included
    so the Table 2-5 fragment plan can be expressed.
    """
    return GlobalSchema(
        [
            Attribute("Time", AttributeKind.TIME),
            Attribute("id", AttributeKind.IDENTITY),
            Attribute("protocl", AttributeKind.TEXT),
            Attribute("Tid", AttributeKind.IDENTITY),
            Attribute("C1", AttributeKind.UNDEFINED),
            Attribute("C2", AttributeKind.UNDEFINED),
            Attribute("C3", AttributeKind.UNDEFINED),
            Attribute("C4", AttributeKind.UNDEFINED),
            Attribute("EID", AttributeKind.IDENTITY),
            Attribute("C5", AttributeKind.UNDEFINED),
            Attribute("C", AttributeKind.UNDEFINED),
            Attribute("ip", AttributeKind.TEXT),
        ]
    )
