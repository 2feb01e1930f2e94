"""``repro.fleet`` — the sharded household-fleet runner (§6.3 at scale).

IoT Inspector ingests households independently and aggregates; the
fleet runner exploits exactly that shard boundary.  It partitions the
synthetic crowdsourced population into contiguous household ranges,
generates + analyzes each range in a worker process, and merges the
per-shard partials into a :class:`~repro.core.fingerprint.FingerprintReport`
that is **byte-identical** to the serial
:func:`~repro.core.fingerprint.fingerprint_households` path for the
same seed — regardless of worker count.

Completed shards land in a content-addressed cache (key = hash of the
generation spec + shard range + analysis code version), which doubles
as the checkpoint store: a killed run restarts from its completed
shards.  See ``docs/fleet.md`` for the sharding model, determinism
guarantees, and cache/resume semantics.

Runs are supervised (see :mod:`repro.fleet.supervisor`): per-shard
wall-clock deadlines enforced by a heartbeat watchdog, retry budgets
with exponential backoff, a poison quarantine for shards that exhaust
them, and SIGINT/SIGTERM graceful shutdown that journals the unfinished
shards so ``--resume`` merges byte-identically.
"""

from repro.fleet.cache import ShardCache
from repro.fleet.ledger import QuarantinedShard, ShardFailure, ShardState
from repro.fleet.merge import merge_shard_results
from repro.fleet.runner import (
    FleetConfigError,
    FleetError,
    FleetResult,
    FleetRunner,
    run_fleet,
)
from repro.fleet.shard import ShardFaultInjected, run_shard
from repro.fleet.spec import FleetSpec, ShardRange, code_version, shard_key
from repro.fleet.supervisor import ShardSupervisor, default_shard_deadline

__all__ = [
    "FleetConfigError",
    "FleetError",
    "FleetResult",
    "FleetRunner",
    "FleetSpec",
    "QuarantinedShard",
    "ShardCache",
    "ShardFailure",
    "ShardFaultInjected",
    "ShardRange",
    "ShardState",
    "ShardSupervisor",
    "code_version",
    "default_shard_deadline",
    "merge_shard_results",
    "run_fleet",
    "run_shard",
    "shard_key",
]
