"""repro.shard — horizontal sharding: a multi-ring DLA cluster.

The paper's DLA is one ring of TTP nodes holding vertical fragments of
every record.  This package scales it *horizontally*: the log stream is
partitioned by glsn range (and, optionally, by tenant) into shards, each
a complete, independent :class:`~repro.core.ConfidentialAuditingService`
ring with its own fragment stores, epoch/version space, integrity rings,
and credential realm.

* :class:`ShardMap` / :class:`ShardRange` — versioned placement metadata
  (block striping + explicit overrides; every change bumps the version);
* :class:`ShardRouter` — the single global glsn allocator + placement
  lookup + the :class:`~repro.errors.StaleShardMapError` guard and
  tenant-pinning leases;
* :func:`merge_shard_glsns` / :func:`rollup_cost` — the scatter-gather
  coordinator's secure-union merge and cost/leakage roll-up;
* :class:`ShardedAuditingService` — the cluster facade: routed appends,
  concurrently scattered queries with merged answers asserted identical
  to a single-ring execution, rebalancing with live fragment migration,
  and composed §5 confidentiality metrics.

Knobs: ``REPRO_SHARD_COUNT``, ``REPRO_SHARD_BLOCK_SIZE``,
``REPRO_SHARD_TENANT_PINNING`` (see :class:`ShardConfig`).
"""

from repro.shard.config import (
    SHARD_BLOCK_SIZE_ENV_VAR,
    SHARD_COUNT_ENV_VAR,
    SHARD_TENANT_PINNING_ENV_VAR,
    ShardConfig,
)
from repro.shard.map import ShardMap, ShardRange
from repro.shard.merge import merge_shard_glsns, rollup_cost
from repro.shard.router import ShardRouter
from repro.shard.service import (
    MoveReport,
    ShardedAuditingService,
    ShardedQueryResult,
    ShardedTicket,
    ShardedWriteReceipt,
)

__all__ = [
    "ShardConfig",
    "SHARD_COUNT_ENV_VAR",
    "SHARD_BLOCK_SIZE_ENV_VAR",
    "SHARD_TENANT_PINNING_ENV_VAR",
    "ShardMap",
    "ShardRange",
    "ShardRouter",
    "merge_shard_glsns",
    "rollup_cost",
    "ShardedAuditingService",
    "ShardedTicket",
    "ShardedWriteReceipt",
    "ShardedQueryResult",
    "MoveReport",
]
