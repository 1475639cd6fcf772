"""Outside-in span tracing of the layers' public entry points.

The traced run wraps the functions in :data:`ENTRY_POINTS` — nothing under
``src/`` changes — and records one span per call: name, start, end and the
span that was open when it began (a ``contextvars`` variable, so coroutine
tasks and the scheduler's loop thread parent correctly).  Spans stay in
memory; :meth:`SpanLog.write_jsonl` dumps them afterwards.

A span's *self time* is its duration minus the part of that interval its
child spans cover, so on a single-threaded workload the self times of all
spans add up to the wall time of the root span.

Module-level functions are imported by name all over ``repro`` (``from
repro.smc.intersection import secure_set_intersection``), so wrapping one
rebinds every ``repro.*`` module attribute that is the original function;
methods are wrapped on their class.  :meth:`Tracing.__exit__` puts every
original back.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_open_span = contextvars.ContextVar("e2e_open_span", default=0)


def _arg(index: int, name: str):
    def pick(args, kwargs):
        return args[index] if len(args) > index else kwargs[name]

    return pick


_sets = _arg(1, "sets")
_values = _arg(1, "values")
_bases = _arg(1, "bases")
_left = _arg(1, "left")
_message = _arg(1, "msg")


def _set_elements(args, kwargs, _result) -> int:
    return sum(len(s) for s in _sets(args, kwargs).values())


def _value_count(args, kwargs, _result) -> int:
    return len(_values(args, kwargs))


def _base_count(args, kwargs, _result) -> int:
    return len(_bases(args, kwargs))


def _pair_count(args, kwargs, _result) -> int:
    return len(_left(args, kwargs)[1])


def _wire_bytes(args, kwargs, _result) -> int:
    return _message(args, kwargs).size_bytes


# (span name, "module:qualified.name", units) — units, when given, is a
# callable (args, kwargs, result) -> int counted on the span.
ENTRY_POINTS = (
    # core: the service surface the workloads call.
    ("core.service", "repro.core.service:ConfidentialAuditingService.query", None),
    ("core.service", "repro.core.service:ConfidentialAuditingService.audited_query", None),
    ("core.service", "repro.core.service:ConfidentialAuditingService.verify_report", None),
    ("core.service", "repro.core.service:ConfidentialAuditingService.aggregate", None),
    ("core.service", "repro.core.service:ConfidentialAuditingService.log_event", None),
    ("core.service", "repro.core.service:ConfidentialAuditingService.append_stream", None),
    ("core.service", "repro.core.service:ConfidentialAuditingService.check_integrity", None),
    # audit: planning and execution.
    ("audit.plan", "repro.audit.planner:plan_query", None),
    ("audit.execute", "repro.audit.executor:QueryExecutor.execute", None),
    ("audit.execute", "repro.audit.executor:QueryExecutor.execute_async", None),
    ("audit.execute", "repro.audit.executor:QueryExecutor.aggregate", None),
    ("cache.get_or_compute", "repro.cache.lru:LruCache.get_or_compute", None),
    ("obs.observe", "repro.obs.confidentiality:ConfidentialityObservatory.observe_query", None),
    # smc: the six drivers, their coroutine twins, and the ring hops.
    ("smc.intersection", "repro.smc.intersection:secure_set_intersection", _set_elements),
    ("smc.intersection", "repro.smc.intersection:secure_set_intersection_async", _set_elements),
    ("smc.intersection.hop", "repro.smc.intersection:IntersectionParty.start", None),
    ("smc.intersection.hop", "repro.smc.intersection:IntersectionParty.handle", None),
    ("smc.compare", "repro.smc.comparison:secure_compare", None),
    ("smc.compare", "repro.smc.comparison:secure_compare_async", None),
    ("smc.compare", "repro.smc.comparison:secure_compare_batch", _pair_count),
    ("smc.compare", "repro.smc.comparison:secure_compare_batch_async", _pair_count),
    ("smc.union", "repro.smc.union_:secure_set_union", _set_elements),
    ("smc.union", "repro.smc.union_:secure_set_union_async", _set_elements),
    ("smc.sum", "repro.smc.sum_:secure_sum", None),
    ("smc.sum", "repro.smc.sum_:secure_sum_async", None),
    ("smc.ranking", "repro.smc.ranking:secure_ranking", None),
    ("smc.ranking", "repro.smc.ranking:secure_ranking_async", None),
    ("smc.equality", "repro.smc.equality:secure_equality", None),
    ("smc.equality", "repro.smc.equality:secure_equality_async", None),
    # crypto and perf: where the modexps happen.
    ("crypto.ph_encrypt", "repro.crypto.pohlig_hellman:PohligHellmanCipher.encrypt_set", _value_count),
    ("crypto.ph_encrypt", "repro.crypto.pohlig_hellman:PohligHellmanCipher.decrypt_set", _value_count),
    ("crypto.hash_encode", "repro.crypto.pohlig_hellman:MessageEncoder.encode_hashed_many", _value_count),
    ("crypto.accumulator", "repro.crypto.accumulator:OneWayAccumulator.accumulate_all", None),
    ("crypto.accumulator", "repro.crypto.accumulator:OneWayAccumulator.fold_product", None),
    ("crypto.accumulator", "repro.crypto.accumulator:OneWayAccumulator.step_many", None),
    ("crypto.accumulator", "repro.crypto.accumulator:OneWayAccumulator.witness_all", None),
    ("crypto.ticket_verify", "repro.crypto.tickets:TicketAuthority.verify", None),
    ("cluster.sign", "repro.crypto.threshold:ThresholdScheme.sign", None),
    ("cluster.sign", "repro.crypto.threshold:ThresholdScheme.verify", None),
    ("perf.pow_many.auto", "repro.perf.engine:AutoEngine.pow_many", None),
    ("perf.pow_many.serial", "repro.perf.engine:SerialEngine.pow_many", _base_count),
    ("perf.pow_many.process", "repro.perf.engine:ProcessPoolEngine.pow_many", _base_count),
    ("precompute.warm", "repro.precompute.manager:PrecomputeManager.warm_smc", None),
    ("precompute.warm", "repro.precompute.manager:PrecomputeManager.warm_blind", None),
    ("precompute.warm", "repro.precompute.manager:PrecomputeManager.warm_witness", None),
    ("precompute.warm", "repro.precompute.manager:PrecomputeManager.refill_low_pools", None),
    # net: codec and the simulated transport.
    ("net.codec", "repro.net.codec:encode_message", None),
    ("net.codec", "repro.net.codec:decode_message", None),
    ("net.codec", "repro.net.codec:encoded_size", None),
    ("net.send", "repro.net.simnet:SimNetwork.send", _wire_bytes),
    ("net.transport", "repro.net.simnet:SimNetwork.run", None),
    ("net.transport", "repro.sched.channel:Channel.run", None),
    ("net.transport", "repro.aio.simnet:AsyncSimNetwork.drain", None),
    ("net.transport", "repro.aio.simnet:AsyncChannel.drain", None),
    # sched: both schedulers share the submit/gather surface.
    ("sched.submit", "repro.aio.scheduler:AsyncQueryScheduler.submit", None),
    ("sched.gather", "repro.aio.scheduler:AsyncQueryScheduler.gather", None),
    ("sched.submit", "repro.sched.scheduler:QueryScheduler.submit", None),
    ("sched.gather", "repro.sched.scheduler:QueryScheduler.gather", None),
    ("sched.standing", "repro.sched.standing:StandingQueryRegistry.evaluate_epoch", None),
    # logstore: the write path and the integrity rings.
    ("logstore.append", "repro.logstore.store:DistributedLogStore.append", None),
    ("logstore.integrity_ring", "repro.logstore.integrity:run_integrity_round", None),
    ("logstore.integrity_ring", "repro.logstore.integrity:run_batched_integrity_round", None),
    ("logstore.integrity_ring", "repro.logstore.integrity:run_combined_integrity_round", None),
    ("logstore.integrity_ring", "repro.logstore.integrity:run_integrity_round_async", None),
    ("logstore.integrity_ring", "repro.logstore.integrity:run_batched_integrity_round_async", None),
    ("logstore.integrity_ring", "repro.logstore.integrity:run_combined_integrity_round_async", None),
    ("logstore.integrity_ring.hop", "repro.logstore.integrity:IntegrityNode.start_batch_check", None),
    ("logstore.integrity_ring.hop", "repro.logstore.integrity:IntegrityNode.handle", None),
    # store: WAL, checkpoints, recovery.
    ("store.append_batch", "repro.store.cluster:DurableDistributedLogStore.append_batch", None),
    ("store.wal_append", "repro.store.wal:WriteAheadLog.append", None),
    ("store.wal_sync", "repro.store.wal:WriteAheadLog.sync", None),
    ("store.replay", "repro.store.wal:WriteAheadLog.replay", None),
    ("store.replay", "repro.store.durable:DurableFragmentStore.apply_wal_record", None),
    ("store.checkpoint", "repro.store.cluster:DurableDistributedLogStore.checkpoint", None),
    ("store.open", "repro.store.recovery:open_durable_store", None),
    ("store.recovery_audit", "repro.resilience.recovery:recovery_audit", None),
)


class SpanLog:
    """Finished spans as ``(id, parent, name, start, end, units)`` tuples."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself (round and op boundaries)."""
        sid = next(self._ids)
        parent = _open_span.get()
        token = _open_span.set(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _open_span.reset(token)
            self.rows.append((sid, parent, name, start, end, 0))

    def wrap(self, name: str, fn, units):
        """``fn`` with a span around every call (sync or coroutine)."""
        ids, rows, clock = self._ids, self.rows, time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                sid = next(ids)
                parent = _open_span.get()
                token = _open_span.set(sid)
                start = clock()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    _open_span.reset(token)
                    count = units(args, kwargs, result) if units else 0
                    rows.append((sid, parent, name, start, end, count))

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = next(ids)
                parent = _open_span.get()
                token = _open_span.set(sid)
                start = clock()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    _open_span.reset(token)
                    count = units(args, kwargs, result) if units else 0
                    rows.append((sid, parent, name, start, end, count))

        wrapper.__e2e_original__ = fn
        return wrapper

    def totals(self, window: tuple[float, float] | None = None) -> "Totals":
        """Per-name sums, optionally only of spans that start in ``window``."""
        children = defaultdict(list)
        for _sid, parent, _name, start, end, _units in self.rows:
            children[parent].append((start, end))
        totals = Totals()
        for sid, _parent, name, start, end, units in self.rows:
            if window is not None and not window[0] <= start < window[1]:
                continue
            covered = _covered(children.get(sid, ()), start, end)
            totals.add(name, end - start, end - start - covered, units)
        return totals

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, units in self.rows:
                handle.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name,
                         "start": start, "end": end, "units": units}
                    )
                    + "\n"
                )


def _covered(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


class Totals:
    """Span sums by name; the accessors take a name *prefix*."""

    def __init__(self) -> None:
        self.by_name: dict[str, list] = {}  # name -> [calls, total_s, self_s, units]

    def add(self, name: str, total_s: float, self_s: float, units: int) -> None:
        row = self.by_name.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += total_s
        row[2] += self_s
        row[3] += units

    def _sum(self, prefix: str, column: int):
        return sum(
            row[column]
            for name, row in self.by_name.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def calls(self, prefix: str) -> int:
        return self._sum(prefix, 0)

    def self_s(self, prefix: str) -> float:
        return self._sum(prefix, 2)

    def units(self, prefix: str) -> int:
        return self._sum(prefix, 3)


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _import_all_of_repro() -> None:
    """Load every ``repro`` module, so no alias of a wrapped function can be
    created (by a lazy import) while the wrappers are installed."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _resolve(path: str):
    module_name, _, qualified = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualified.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def leftover_wrappers() -> list[str]:
    """Names under ``repro`` still bound to a wrapper (must be empty after
    :class:`Tracing` exits; the harness test asserts it)."""
    found = []
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, "__e2e_original__"):
                found.append(f"{module.__name__}.{key}")
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                found.extend(
                    f"{module.__name__}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, "__e2e_original__")
                )
    return found


class Tracing:
    """Context manager: wrappers installed on entry, removed on exit."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def __enter__(self) -> SpanLog:
        _import_all_of_repro()
        for name, path, units in ENTRY_POINTS:
            owner, attr = _resolve(path)
            original = vars(owner)[attr]
            if not inspect.isfunction(original):
                raise TypeError(f"{path} is not a plain function")
            wrapper = self.log.wrap(name, original, units)
            holders = [owner] if inspect.isclass(owner) else _repro_modules()
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))
        return self.log

    def __exit__(self, *exc_info) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)
