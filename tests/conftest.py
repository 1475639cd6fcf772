"""Shared fixtures for the repro test suite.

Crypto parameters are deliberately small (64-128 bit) so the full suite
stays fast; every protocol under test is parametric in these sizes, so
correctness coverage is unaffected.  Expensive shared objects (groups,
populated services) are session-scoped.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings, strategies as st

from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
    shared_prime,
)
from repro.crypto import primes
from repro.crypto.schnorr import SchnorrGroup
from repro.logstore import (
    DistributedLogStore,
    paper_fragment_plan,
    paper_table1_schema,
)
from repro.smc import SmcContext
from repro.workloads import paper_table1_rows

# ``--hypothesis-profile=ci``: the codec, checkpoint, batched-WAL, WAL
# put-template, recovery-codec, integrity-memo, sub-plan-memo,
# standing-scope, cache-differential, column-scan, aggregate and
# cross-alignment (``test_property_audit``) fuzz modules again, with ten
# times the default examples (where a test does not set its own) and no
# per-example deadline (shared runners stall).
settings.register_profile("ci", max_examples=1000, deadline=None)


def pytest_collection_finish(session):
    """Build Hypothesis' one-off Unicode tables before the first test.

    The first ``st.text()`` a process validates computes which code points
    UTF-8 encodes (seconds, cached under ``.hypothesis/`` for later
    processes).  Left to the first test that draws text, that time counts
    as its input generation and fails its ``too_slow`` health check in a
    fresh checkout; here it is paid once, outside any test.
    """
    st.text().validate()


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
def unsafe_prime512():
    """A 512-bit prime ``= 3 (mod 4)`` whose ``(p - 1) / 2`` is composite: the
    message encoder takes it, and keys over it get a full-range ``e``."""
    rng = DeterministicRng(b"unsafe-prime-512")
    while True:
        p = primes.random_prime(512, rng)
        if p % 4 == 3 and not primes.is_probable_prime((p - 1) // 2, rng=rng):
            return p


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
