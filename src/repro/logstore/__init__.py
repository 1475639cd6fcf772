"""Distributed log store: fragmentation, storage, access control, integrity.

Implements the paper's §2/§4 storage design: records carry a cluster-unique
``glsn``; a :class:`~repro.logstore.fragmentation.FragmentPlan` splits each
record vertically across DLA nodes so no node holds a complete record;
tickets gate read/write/delete; one-way accumulators anchor integrity.
"""

from repro.logstore.access import (
    AccessControlTable,
    AccessEntry,
    check_table_consistency,
)
from repro.logstore.fragmentation import (
    Fragment,
    FragmentPlan,
    paper_fragment_plan,
    round_robin_plan,
)
from repro.logstore.glsn import PAPER_GLSN_START, GlsnAllocator
from repro.logstore.integrity import (
    IntegrityChecker,
    IntegrityNode,
    IntegrityReport,
    run_integrity_round,
)
from repro.logstore.records import LogRecord, format_glsn, render_table
from repro.logstore.schema import (
    Attribute,
    AttributeKind,
    GlobalSchema,
    paper_table1_schema,
)
from repro.logstore.store import DistributedLogStore, FragmentStore, WriteReceipt

__all__ = [
    "Attribute",
    "AttributeKind",
    "GlobalSchema",
    "paper_table1_schema",
    "LogRecord",
    "format_glsn",
    "render_table",
    "Fragment",
    "FragmentPlan",
    "paper_fragment_plan",
    "round_robin_plan",
    "GlsnAllocator",
    "PAPER_GLSN_START",
    "FragmentStore",
    "DistributedLogStore",
    "WriteReceipt",
    "AccessControlTable",
    "AccessEntry",
    "check_table_consistency",
    "IntegrityChecker",
    "IntegrityNode",
    "IntegrityReport",
    "run_integrity_round",
]
