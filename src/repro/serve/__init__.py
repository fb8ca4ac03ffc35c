"""repro.serve — concurrent SpMV serving: registry, batching, fleet.

The serving subsystem turns the repo's batch primitives into a
long-lived process that can take heavy concurrent traffic:

* :mod:`repro.serve.registry` — named pool of resident, autotuned
  :class:`~repro.engine.bound.BoundMatrix` handles; refcounted leases
  and byte-budget LRU eviction (in-use matrices are never evicted).
* :mod:`repro.serve.scheduler` — the micro-batcher: a free worker
  dispatches at once everything queued for one matrix (up to
  ``max_batch``) as a single ``spmm`` call, so batches fill while the
  workers are busy — the Eq. (1) bandwidth argument applied to
  serving, with no batching window.  Admission
  control bounds the queue with ``block`` / ``reject`` / ``shed-oldest``
  backpressure and enforces per-request deadlines before work reaches
  a worker.  Each server runs the ``workers`` threads it starts with
  until it closes.
* :mod:`repro.serve.client` — the in-process API (``spmv``, ``solve``,
  ``eigsh``, ``stats``).
* :mod:`repro.serve.fleet` / :mod:`repro.serve.router` — the sharded
  fleet: N shard hosts (processes or threads) each owning nnz-balanced
  row blocks of the registered matrices, placed by a seeded rendezvous
  order, and a :class:`FleetRouter` doing scatter/gather spmv with
  replica failover and hedging (``repro serve --fleet N``).
* :mod:`repro.serve.http` — JSON endpoint (``repro serve --port N``,
  vectors through ``orjson``): ``/v1/spmv``, ``/v1/solve``,
  ``/healthz``, ``/statz``, ``/fleetz``.
* :mod:`repro.serve.errors` — the error taxonomy
  (:class:`ServerOverloaded`, :class:`DeadlineExceeded`,
  :class:`ShardDown`, ...), each mapped to one HTTP status.

See ``docs/serving.md`` and ``docs/fleet.md`` for architecture,
batching semantics and the metrics tables.
"""

from repro.serve.client import Client
from repro.serve.errors import (
    DeadlineExceeded,
    FleetDegraded,
    MatrixNotFound,
    RegistryLoadFailed,
    ServeError,
    ServerClosed,
    ServerOverloaded,
    ShardDown,
)
from repro.serve.fleet import Fleet, ShardConfig
from repro.serve.http import make_http_server, run_http_server
from repro.serve.registry import MatrixLease, MatrixRegistry, MatrixSpec
from repro.serve.router import FleetRouter, Placement, RoutedOperator
from repro.serve.scheduler import POLICIES, SpMVServer

__all__ = [
    "Client",
    "DeadlineExceeded",
    "Fleet",
    "FleetDegraded",
    "FleetRouter",
    "MatrixLease",
    "MatrixNotFound",
    "MatrixRegistry",
    "MatrixSpec",
    "POLICIES",
    "Placement",
    "RegistryLoadFailed",
    "RoutedOperator",
    "ServeError",
    "ServerClosed",
    "ServerOverloaded",
    "ShardConfig",
    "ShardDown",
    "SpMVServer",
    "make_http_server",
    "run_http_server",
]
