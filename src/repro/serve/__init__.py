"""repro.serve — scheduling as a service.

A long-running stdlib-``asyncio`` HTTP/JSON daemon that answers DFG +
resource-model + option requests from a two-level memo cache (in-process
LRU over an on-disk artifact store, one file per answer), falling through
to a fingerprint-sharded worker pool (one worker call per miss) with
single-flight coalescing and session-based warm re-solves of edited
graphs.  Entry points::

    rotsched serve --port 8347 --workers 4 --artifacts artifacts/serve
    rotsched loadgen --port 8347 --repeats 8

or in-process::

    from repro.serve import build_service
    service = build_service(inline=True)
    envelope = asyncio.run(service.solve({"graph": {"benchmark": "diffeq"},
                                          "config": "2A1M"}))

See ``docs/serving.md`` for the protocol and the fingerprint contract.
"""

from repro.serve.protocol import (
    DEFAULT_OPTIONS,
    PROTOCOL,
    ServeError,
    SolveRequest,
    canonical_request,
    fingerprint,
    parse_request,
    request_fingerprint,
    result_payload,
    schedule_bits,
    solve_canonical,
)
from repro.serve.cache import ArtifactStore, LRUCache, TwoLevelCache
from repro.serve.pool import InlinePool, ShardedPool
from repro.serve.server import SchedulingService, build_service, run_server, start_server
from repro.serve.client import LoadgenReport, ServeClient, demo_workload, run_loadgen

__all__ = [
    "ArtifactStore",
    "DEFAULT_OPTIONS",
    "InlinePool",
    "LRUCache",
    "LoadgenReport",
    "PROTOCOL",
    "SchedulingService",
    "ServeClient",
    "ServeError",
    "ShardedPool",
    "SolveRequest",
    "TwoLevelCache",
    "build_service",
    "canonical_request",
    "demo_workload",
    "fingerprint",
    "parse_request",
    "request_fingerprint",
    "result_payload",
    "run_loadgen",
    "run_server",
    "schedule_bits",
    "solve_canonical",
    "start_server",
]
