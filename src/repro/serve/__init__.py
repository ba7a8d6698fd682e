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

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".protocol": (
        "DEFAULT_OPTIONS PROTOCOL ServeError SolveRequest canonical_request fingerprint "
        "parse_request request_fingerprint result_payload schedule_bits solve_canonical"
    ),
    ".cache": "ArtifactStore LRUCache TwoLevelCache",
    ".pool": "InlinePool ShardedPool",
    ".server": "SchedulingService build_service run_server start_server",
    ".client": "LoadgenReport ServeClient demo_workload run_loadgen",
})
