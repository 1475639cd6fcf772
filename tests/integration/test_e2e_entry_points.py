"""Every name the end-to-end benchmark reaches for must still exist.

``benchmarks/e2e/layers.py`` wraps the functions named in ``ENTRY_POINTS``
and ``Tracing.__enter__`` raises when a path does not resolve to a plain
function — but only the traced benchmark run executes that, so a rename
under ``src/`` would otherwise pass the whole test suite.  The untraced run
has a surface of its own: what ``run.py`` imports and what
``workloads.py::Workload.config()/ratios()/counters()`` read off a service.
"""

import importlib.util
import inspect
from pathlib import Path

from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.logstore import paper_fragment_plan, paper_table1_schema

LAYERS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "layers.py"


def load_layers():
    """``benchmarks/e2e/layers.py`` as a module (it is not on the test path)."""
    spec = importlib.util.spec_from_file_location("e2e_layers_under_test", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_entry_point_is_a_plain_function():
    layers = load_layers()
    assert layers.ENTRY_POINTS
    broken = []
    for _name, path, _units in layers.ENTRY_POINTS:
        owner, attr = layers._resolve(path)
        if not inspect.isfunction(vars(owner).get(attr)):
            broken.append(path)
    assert not broken, f"renamed, moved or no longer plain functions: {broken}"


def test_the_untraced_surface_resolves_on_a_constructed_service():
    """The reads below are the ones ``benchmarks/e2e/run.py`` and
    ``workloads.py`` make, spelled the way they spell them."""
    from repro.aio import aio_scheduler_enabled
    from repro.cache import cache_stats_snapshot, caching_enabled, default_max_entries
    from repro.perf.engine import shutdown_shared_pool
    from repro.store import StoreConfig

    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"e2e-surface"),
    )
    try:
        ticket = service.register_user("U1")
        for c1 in (3, 40):
            service.log_event({"Tid": "T1", "C1": c1, "C2": "20.00"}, ticket)
        service.query("C1 < C2")
        service.check_integrity()

        # Workload.config()
        assert service.ctx.prime.bit_length() == 64
        assert service.store.accumulator.params.n.bit_length() > 0
        assert type(service.ctx.engine).__name__.endswith("Engine")
        assert aio_scheduler_enabled() is True
        assert isinstance(caching_enabled(), bool)
        assert default_max_entries() > 0
        assert StoreConfig.from_env().fsync in ("always", "batch", "off")
        assert list(service.plan.node_ids)
        # Workload.ratios()
        assert service.precompute.hit_rate() == 0.0
        # Workload.counters()
        snap = service.cost_snapshot()
        crypto, integrity = snap["crypto_ops"], snap["integrity_ops"]
        assert crypto.get("total.modexp", 0) + integrity.get("total.modexp", 0) > 0
        assert crypto.get("offline.modexp", 0) + integrity.get("offline.modexp", 0) == 0
        assert snap["leakage_events"] > 0
        # run.py::_cache_counts()
        for row in cache_stats_snapshot().values():
            assert {"hits", "misses"} <= set(row)
        assert callable(shutdown_shared_pool)
    finally:
        service.close()
