"""Offline/online split determinism (the P6 correctness contract).

For every SMC protocol driver: a run whose context draws from *warmed*
precompute pools must produce the same results, the same LeakageLedger
(no new categories), and the same ``total.modexp`` as a run with the
pools disabled.  The split may only re-label setup work as ``offline.*``
— never change what a protocol computes or discloses.
"""

from __future__ import annotations

import pytest

from repro.core.service import ConfidentialAuditingService
from repro.crypto.pohlig_hellman import shared_prime
from repro.crypto.rng import DeterministicRng
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.precompute import PrecomputeConfig, PrecomputeManager, set_precompute_enabled
from repro.smc import (
    SmcContext,
    secure_compare,
    secure_equality,
    secure_ranking,
    secure_set_intersection,
    secure_set_union,
    secure_sum,
    secure_weighted_sum,
)

PRIME = shared_prime(64)

PROTOCOLS = {
    "intersection": lambda ctx: secure_set_intersection(
        ctx, {"P0": [1, 2, 3], "P1": [2, 3, 4], "P2": [3, 4, 5]}, shuffle=True
    ),
    "union": lambda ctx: secure_set_union(
        ctx, {"P0": [1, 2], "P1": [2, 9], "P2": [7]}
    ),
    "sum": lambda ctx: secure_sum(ctx, {"P0": 11, "P1": 7, "P2": 23}, k=2),
    "weighted_sum": lambda ctx: secure_weighted_sum(
        ctx, {"P0": 11, "P1": 7, "P2": 23}, {"P0": 1, "P1": 2, "P2": 3}
    ),
    "equality": lambda ctx: secure_equality(ctx, ("P0", "T77"), ("P1", "T77")),
    "compare": lambda ctx: secure_compare(ctx, ("P0", 31), ("P1", 64)),
    "ranking": lambda ctx: secure_ranking(
        ctx, {"P0": 5, "P1": 19, "P2": 11}, value_bound=100
    ),
}


def run_protocol(name, pooled: bool):
    """One protocol run under a fixed seed; returns (values, ledger, ops)."""
    ctx = SmcContext(PRIME, DeterministicRng(b"determinism"))
    if pooled:
        manager = PrecomputeManager(
            rng=DeterministicRng(b"pool-seed"),
            config=PrecomputeConfig(pool_size=16, low_water=4),
        )
        manager.warm_smc(PRIME, ["P0", "P1", "P2"])
        ctx.precompute = manager
        result = PROTOCOLS[name](ctx)
    else:
        set_precompute_enabled(False)
        try:
            result = PROTOCOLS[name](ctx)
        finally:
            set_precompute_enabled(None)
    # Sorted: pooled keys yield different ciphertext bytes, which can
    # reorder concurrent relay hops on the simulated network.  WHAT is
    # disclosed, by whom, to whom must be identical; interleaving may not.
    ledger = sorted(
        (e.protocol, e.observer, e.category, e.detail)
        for e in ctx.leakage.events
    )
    return result.values, ledger, ctx.crypto_ops


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_pooled_run_matches_disabled_run(name):
    pooled_values, pooled_ledger, pooled_ops = run_protocol(name, pooled=True)
    plain_values, plain_ledger, plain_ops = run_protocol(name, pooled=False)
    assert pooled_values == plain_values
    assert pooled_ledger == plain_ledger
    # Same online cost total: offline labels re-label, never add.
    assert pooled_ops.modexp == plain_ops.modexp
    offline = pooled_ops.snapshot().get("offline.modexp", 0)
    assert offline == 0  # SMC pools hold no pooled exponentiations
    assert plain_ops.snapshot().get("offline.modexp", 0) == 0


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_cold_pool_matches_disabled_run(name):
    """Enabled-but-empty pools must fall back bitwise to the legacy path."""
    ctx = SmcContext(PRIME, DeterministicRng(b"determinism"))
    ctx.precompute = PrecomputeManager(rng=DeterministicRng(b"unused"))
    cold = PROTOCOLS[name](ctx)
    plain_values, _, _ = run_protocol(name, pooled=False)
    assert cold.values == plain_values


class TestServiceLevelDeterminism:
    """End to end: full service with warmed pools vs kill switch."""

    CRITERION = "C1 > 30 or Tid = 'T1100267'"

    @staticmethod
    def build(warm: bool):
        from repro.workloads import paper_table1_rows

        schema = paper_table1_schema()
        service = ConfidentialAuditingService(
            schema, paper_fragment_plan(schema), prime_bits=64,
            rng=DeterministicRng(b"svc-determinism"),
        )
        ticket = service.register_user("U1")
        for row in paper_table1_rows()[:6]:
            service.log_event(row, ticket)
        if warm:
            service.warm_pools()
        return service

    def collect(self, warm: bool):
        if not warm:
            set_precompute_enabled(False)
        try:
            service = self.build(warm)
            result = service.query(self.CRITERION)
            cost = service.last_query_cost
            integrity = [
                (r.glsn, r.ok, r.expected, r.observed)
                for r in service.check_integrity()
            ]
            ledger = sorted(
                (e.protocol, e.observer, e.category)
                for e in service.ctx.leakage.events
            )
            return service, result, cost, integrity, ledger
        finally:
            if not warm:
                set_precompute_enabled(None)

    def test_query_and_integrity_invariant(self):
        svc_w, res_w, cost_w, integ_w, ledger_w = self.collect(warm=True)
        svc_p, res_p, cost_p, integ_p, ledger_p = self.collect(warm=False)
        assert sorted(res_w.glsns) == sorted(res_p.glsns)
        assert ledger_w == ledger_p
        assert integ_w == integ_p and all(row[1] for row in integ_w)
        # The split must partition, not change, the query's op total.
        assert cost_w.modexp == cost_p.modexp
        assert cost_w.offline_modexp + cost_w.online_modexp == cost_w.modexp
        assert cost_p.offline_modexp == 0
        # Integrity folds are all online — the first hop reads the
        # accumulator's fixed-base table, which is no pool — and the same
        # with the switch on or off: one fold per node per glsn.
        snap_w = svc_w.integrity_ops.snapshot()
        assert snap_w == svc_p.integrity_ops.snapshot()
        assert "offline.modexp" not in snap_w
        per_node = sum(
            v for k, v in snap_w.items()
            if k.endswith(".modexp") and not k.startswith("total")
        )
        assert per_node == snap_w["total.modexp"] == 4 * len(integ_w)
        assert svc_w.precompute.hit_rate() > 0.0
