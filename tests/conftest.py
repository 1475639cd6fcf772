"""Shared fixtures for the repro test suite.

Crypto parameters are deliberately small (64-128 bit) so the full suite
stays fast; every protocol under test is parametric in these sizes, so
correctness coverage is unaffected.  Expensive shared objects (groups,
populated services) are session-scoped.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
    shared_prime,
)
from repro.crypto.schnorr import SchnorrGroup
from repro.logstore import (
    DistributedLogStore,
    paper_fragment_plan,
    paper_table1_schema,
)
from repro.smc import SmcContext
from repro.workloads import paper_table1_rows

# ``--hypothesis-profile=ci``: the codec, checkpoint, batched-WAL, WAL
# put-template, recovery-codec, integrity-memo, sub-plan-memo and
# standing-scope fuzz modules again, with ten times the default examples
# (where a test does not set its own) and no per-example deadline (shared
# runners stall).
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session", autouse=True)
def _shipped_defaults():
    """Every test starts from the shipped defaults: no ``REPRO_*`` knob
    from the caller's shell leaks in, not even into session- or
    module-scoped fixtures.  A test that needs one sets it with
    ``monkeypatch``, which restores this scrubbed state afterwards."""
    with pytest.MonkeyPatch.context() as scrub:
        for name in [n for n in os.environ if n.startswith("REPRO_")]:
            scrub.delenv(name)
        yield


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return DeterministicRng(b"test-rng")


@pytest.fixture(scope="session")
def prime64():
    return shared_prime(64)


@pytest.fixture(scope="session")
def prime128():
    return shared_prime(128)


@pytest.fixture(scope="session")
def schnorr_group():
    return SchnorrGroup.generate(128, DeterministicRng(b"session-group"))


@pytest.fixture()
def ctx(prime64):
    """Fresh SMC context per test (ledgers must not leak across tests)."""
    return SmcContext(prime64, DeterministicRng(b"ctx"))


@pytest.fixture(scope="session")
def table1_schema():
    return paper_table1_schema()


@pytest.fixture(scope="session")
def table1_plan(table1_schema):
    return paper_fragment_plan(table1_schema)


@pytest.fixture()
def ticket_authority():
    return TicketAuthority(b"conftest-master-secret-0123456789")


@pytest.fixture()
def populated_store(table1_schema, table1_plan, ticket_authority):
    """A distributed store loaded with the paper's Table 1 rows.

    Returns ``(store, ticket, receipts)``.
    """
    store = DistributedLogStore(
        table1_plan,
        ticket_authority,
        AccumulatorParams.generate(128, DeterministicRng(b"acc")),
    )
    ticket = ticket_authority.issue(
        "U1", {Operation.READ, Operation.WRITE, Operation.DELETE}
    )
    receipts = store.append_batch(paper_table1_rows(), ticket)
    return store, ticket, receipts
