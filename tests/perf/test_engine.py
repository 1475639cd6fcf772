"""Tests for the pluggable bulk-exponentiation engines."""

import pytest

from repro.errors import ConfigurationError, ParameterError
from repro.perf.engine import (
    ENGINE_ENV_VAR,
    AutoEngine,
    ProcessPoolEngine,
    SerialEngine,
    get_default_engine,
    resolve_engine,
    set_default_engine,
)

P = (1 << 89) - 1  # Mersenne prime, handy fixed modulus
BASES = [pow(7, i, P) for i in range(1, 40)]


@pytest.fixture()
def pool_engine():
    engine = ProcessPoolEngine(workers=2)
    yield engine
    engine.close()


@pytest.fixture(autouse=True)
def _restore_default_engine():
    yield
    set_default_engine(None)


class TestSerialEngine:
    def test_shared_exponent(self):
        out = SerialEngine().pow_many(BASES, 65537, P)
        assert out == [pow(b, 65537, P) for b in BASES]

    def test_per_element_exponents(self):
        exps = list(range(2, 2 + len(BASES)))
        out = SerialEngine().pow_many(BASES, exps, P)
        assert out == [pow(b, e, P) for b, e in zip(BASES, exps)]

    def test_empty(self):
        assert SerialEngine().pow_many([], 3, P) == []

    def test_mismatched_exponent_list(self):
        with pytest.raises(ParameterError):
            SerialEngine().pow_many(BASES, [3], P)


class TestProcessPoolEngine:
    def test_matches_serial_shared_exponent(self, pool_engine):
        assert pool_engine.pow_many(BASES, 65537, P) == SerialEngine().pow_many(
            BASES, 65537, P
        )

    def test_matches_serial_per_element(self, pool_engine):
        exps = [3 + 2 * i for i in range(len(BASES))]
        assert pool_engine.pow_many(BASES, exps, P) == SerialEngine().pow_many(
            BASES, exps, P
        )

    def test_order_preserved_many_chunks(self):
        with ProcessPoolEngine(workers=2, chunks_per_worker=8) as engine:
            bases = list(range(2, 300))
            assert engine.pow_many(bases, 17, P) == [pow(b, 17, P) for b in bases]

    def test_empty_does_not_spawn_pool(self):
        engine = ProcessPoolEngine(workers=2)
        assert engine.pow_many([], 3, P) == []
        assert engine._pool is None  # lazy: nothing was spawned
        engine.close()

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolEngine(workers=0)

    def test_close_idempotent(self, pool_engine):
        pool_engine.pow_many(BASES[:4], 3, P)
        pool_engine.close()
        pool_engine.close()


class TestAutoEngine:
    def test_small_workload_stays_serial(self):
        auto = AutoEngine()
        chosen = auto.select(BASES, 65537, P)
        assert chosen.name == "serial"

    def test_large_workload_selects_pool_when_multicore(self):
        pool = ProcessPoolEngine(workers=4)
        auto = AutoEngine(threshold_work=1, pool=pool)
        chosen = auto.select(BASES, 65537, P)
        assert chosen is pool
        pool.close()

    def test_results_match_serial_either_side_of_threshold(self):
        with ProcessPoolEngine(workers=2) as pool:
            expected = SerialEngine().pow_many(BASES, 65537, P)
            assert AutoEngine(threshold_work=1, pool=pool).pow_many(
                BASES, 65537, P
            ) == expected
            assert AutoEngine(threshold_work=1 << 62, pool=pool).pow_many(
                BASES, 65537, P
            ) == expected

    def test_estimate_scales_with_inputs(self):
        auto = AutoEngine()
        small = auto.estimate_work(BASES[:2], 3, P)
        large = auto.estimate_work(BASES, 1 << 512, P)
        assert 0 < small < large
        assert auto.estimate_work([], 3, P) == 0


class TestSharedPoolShutdown:
    def test_shutdown_idempotent(self):
        from repro.perf import engine as engine_mod

        # With or without a live pool, repeated shutdowns are no-ops.
        engine_mod.shutdown_shared_pool()
        engine_mod.shutdown_shared_pool()
        pool = engine_mod._get_shared_pool()
        assert engine_mod._shared_pool is pool
        engine_mod.shutdown_shared_pool()
        assert engine_mod._shared_pool is None
        engine_mod.shutdown_shared_pool()

    def test_atexit_registration_idempotent(self):
        from repro.perf import engine as engine_mod

        assert engine_mod._atexit_registered  # registered at import
        engine_mod.ensure_shutdown_at_exit()
        engine_mod.ensure_shutdown_at_exit()
        assert engine_mod._atexit_registered

    def test_pool_recreates_after_shutdown(self):
        from repro.perf import engine as engine_mod

        first = engine_mod._get_shared_pool()
        engine_mod.shutdown_shared_pool()
        second = engine_mod._get_shared_pool()
        assert second is not first
        engine_mod.shutdown_shared_pool()


class TestResolution:
    def test_spec_strings(self):
        assert isinstance(resolve_engine("serial"), SerialEngine)
        assert isinstance(resolve_engine("auto"), AutoEngine)
        engine = resolve_engine("process")
        assert isinstance(engine, ProcessPoolEngine)
        engine.close()

    def test_instance_passthrough(self):
        engine = SerialEngine()
        assert resolve_engine(engine) is engine

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("gpu")
        with pytest.raises(ConfigurationError):
            resolve_engine(42)

    def test_env_var_drives_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "serial")
        set_default_engine(None)
        assert isinstance(get_default_engine(), SerialEngine)
        assert isinstance(resolve_engine(None), SerialEngine)

    def test_bad_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "quantum")
        with pytest.raises(ConfigurationError):
            set_default_engine(None)  # forces a re-read of the env var

    def test_default_is_auto_without_env(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        set_default_engine(None)
        assert isinstance(get_default_engine(), AutoEngine)

    def test_set_default_engine(self):
        engine = SerialEngine()
        assert set_default_engine(engine) is engine
        assert get_default_engine() is engine
