"""Two-level solve cache: in-process LRU in front of an on-disk store.

Level 1 (:class:`LRUCache`) holds complete response envelopes keyed by
fingerprint; level 2 (:class:`ArtifactStore`) persists each solved request
as one JSON file holding its canonical form and result, which
:meth:`ArtifactStore.export_bundle` turns into a replayable ``repro.qa``
bundle on demand.

:class:`TwoLevelCache` is the facade the server uses: memory hit, disk
hit (promoted into memory), or miss.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.serve.protocol import PROTOCOL, ServeError, graph_from_canonical

#: Suffixes that make each write's temp name unique within this process.
_TMP_SEQ = itertools.count()


class LRUCache:
    """A thread-safe LRU of response envelopes keyed by fingerprint."""

    def __init__(self, maxsize: int = 512):
        if maxsize < 1:
            raise ServeError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[Any]:
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


def _config_tag(canonical: Mapping[str, Any]) -> Optional[str]:
    """The ``"<n>A<m>M[p]"`` tag of an adders/mults model, else ``None``.

    Only tag-shaped models are expressible as qa fuzz-cell coordinates;
    a tag makes the bundle replayable by ``rotsched fuzz``'s runner.
    """
    units = {name: (count, latency, pipelined)
             for name, count, latency, pipelined in canonical["model"]["units"]}
    if set(units) != {"adder", "mult"}:
        return None
    a_count, a_lat, a_pipe = units["adder"]
    m_count, m_lat, m_pipe = units["mult"]
    if a_lat != 1 or a_pipe or m_lat != 2:
        return None
    return f"{a_count}A{m_count}M" + ("p" if m_pipe else "")


class ArtifactStore:
    """On-disk response artifacts keyed by canonical fingerprint.

    Layout: one file per entry, ``<root>/<fp[:2]>/<fp>.json``, holding
    ``{protocol, fingerprint, canonical, response}``.  A write goes to a
    temp name unique to its writer and is ``os.replace``d into place, so a
    crashed writer never leaves a half-readable entry; a leftover temp
    file is never read and never blocks a later write.
    """

    def __init__(self, root: str):
        self.root = root
        self.stored = 0
        self.loaded = 0

    def path_for(self, fp: str) -> str:
        return os.path.join(self.root, fp[:2], fp + ".json")

    def _record(self, fp: str) -> Optional[Dict[str, Any]]:
        """The record filed under ``fp``, or ``None`` (absent, corrupt, or
        another protocol's or fingerprint's)."""
        try:
            with open(self.path_for(fp), "rb") as fh:
                record = json.loads(fh.read())
        except (OSError, ValueError):
            return None
        ok = isinstance(record, dict) and record.get("protocol") == PROTOCOL
        return record if ok and record.get("fingerprint") == fp else None

    def load(self, fp: str) -> Optional[Dict[str, Any]]:
        """The stored response envelope, or ``None``."""
        record = self._record(fp)
        if record is None:
            return None
        self.loaded += 1
        return record["response"]

    def store(self, fp: str, canonical: Mapping[str, Any],
              response: Mapping[str, Any]) -> Optional[str]:
        """Persist one solved request; returns the artifact path.

        Best-effort: an unwritable store degrades to memory-only caching
        rather than failing the request (``None`` is returned).
        """
        final = self.path_for(fp)
        # json.dumps runs the C encoder; json.dump to a file would not.
        blob = json.dumps({"protocol": PROTOCOL, "fingerprint": fp,
                           "canonical": canonical, "response": response})
        tmp = f"{final}.{os.getpid()}-{next(_TMP_SEQ)}.tmp"
        try:
            try:
                fh = open(tmp, "wb")
            except FileNotFoundError:  # the shard directory's first entry
                os.makedirs(os.path.dirname(final), exist_ok=True)
                fh = open(tmp, "wb")
            with fh:
                fh.write(blob.encode("utf-8"))
            os.replace(tmp, final)
        except OSError:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            return None
        self.stored += 1
        return final

    def export_bundle(self, fp: str, out_dir: str) -> str:
        """Write the entry for ``fp`` as a ``repro.qa`` bundle under
        ``out_dir``; returns the bundle path.  Deterministic affine node
        semantics (which the fingerprint ignores) let
        :func:`repro.qa.bundle.replay_bundle` certify it by simulation."""
        record = self._record(fp)
        if record is None:
            raise ServeError(f"no readable artifact for fingerprint {fp!r} under {self.root}")
        from repro.qa.bundle import write_bundle
        from repro.suite.random_graphs import attach_affine_funcs

        canonical = record["canonical"]
        tag = _config_tag(canonical)
        case = {"generator": "serve", "params": {"fingerprint": fp},
                "config": tag if tag is not None else canonical["model"],
                "path": canonical["options"]["heuristic"]}
        graph = attach_affine_funcs(graph_from_canonical(canonical), seed=0)
        return write_bundle(out_dir, graph, case, [])


class TwoLevelCache:
    """Memory LRU over an optional disk store, with hit-level accounting."""

    def __init__(self, maxsize: int = 512, store: Optional[ArtifactStore] = None):
        self.memory = LRUCache(maxsize)
        self.store = store

    def lookup(self, fp: str) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """``(response, level)`` — level is ``"memory"``, ``"disk"`` or
        ``None``.  Disk hits are promoted into the LRU."""
        response = self.memory.get(fp)
        if response is not None:
            return response, "memory"
        if self.store is not None:
            response = self.store.load(fp)
            if response is not None:
                self.memory.put(fp, response)
                return response, "disk"
        return None, None

    def insert(self, fp: str, canonical: Mapping[str, Any],
               response: Mapping[str, Any]) -> None:
        self.memory.put(fp, dict(response))
        if self.store is not None:
            self.store.store(fp, canonical, response)

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"memory": self.memory.stats()}
        if self.store is not None:
            out["disk"] = {
                "root": self.store.root,
                "stored": self.store.stored,
                "loaded": self.store.loaded,
            }
        return out
