"""Offline/online phase split: correlated-randomness pools (SPDZ-style).

Query-independent crypto material — Pohlig-Hellman exponent pairs,
blinding factors, Shamir polynomial tails, Schnorr nonce commitments —
is produced while the cluster is idle and drawn at query time, cutting
the online phase to the data-dependent work.  ``REPRO_PRECOMPUTE=off`` restores the exact inline computation.
"""

from repro.precompute.config import (
    LOW_WATER_ENV_VAR,
    POOL_SIZE_ENV_VAR,
    PRECOMPUTE_ENV_VAR,
    REFILL_BATCH_ENV_VAR,
    WORKER_ENV_VAR,
    PrecomputeConfig,
    precompute_enabled,
    set_precompute_enabled,
)
from repro.precompute.manager import PrecomputeManager
from repro.precompute.pool import Pool

__all__ = [
    "PRECOMPUTE_ENV_VAR",
    "POOL_SIZE_ENV_VAR",
    "LOW_WATER_ENV_VAR",
    "REFILL_BATCH_ENV_VAR",
    "WORKER_ENV_VAR",
    "PrecomputeConfig",
    "PrecomputeManager",
    "Pool",
    "precompute_enabled",
    "set_precompute_enabled",
]
