"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one of the paper's artifacts (tables/figures)
or measures one of its claims; DESIGN.md §3 maps experiment ids to files.
Benchmarks print their result rows (run ``pytest benchmarks/
--benchmark-only -s`` to see them) and assert the claim's *shape* so a
regression that flips a conclusion fails loudly.
"""

from __future__ import annotations

import pytest

from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
    shared_prime,
)
from repro.logstore import (
    DistributedLogStore,
    paper_fragment_plan,
    paper_table1_schema,
)
from repro.smc.base import SmcContext
from repro.workloads import EcommerceWorkload, paper_table1_rows


def print_rows(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Uniform result-row printer for all benchmarks."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


@pytest.fixture(scope="session")
def prime64():
    return shared_prime(64)


@pytest.fixture(scope="session")
def schema():
    return paper_table1_schema()


@pytest.fixture(scope="session")
def plan(schema):
    return paper_fragment_plan(schema)


@pytest.fixture()
def rng():
    return DeterministicRng(b"bench")


@pytest.fixture()
def fresh_ctx(prime64):
    def make(seed=b"bench-ctx"):
        return SmcContext(prime64, DeterministicRng(seed))

    return make


@pytest.fixture()
def loaded_store(schema, plan):
    """A store loaded with Table 1 plus a 50-transaction workload."""
    authority = TicketAuthority(b"bench-master-secret-0123456789xx")
    store = DistributedLogStore(
        plan, authority, AccumulatorParams.generate(128, DeterministicRng(b"bs"))
    )
    ticket = authority.issue(
        "U1", {Operation.READ, Operation.WRITE, Operation.DELETE}
    )
    store.append_batch(paper_table1_rows(), ticket)
    store.append_batch(EcommerceWorkload(seed=1).flat_rows(50), ticket)
    return store, ticket
