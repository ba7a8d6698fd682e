"""Two-level solve cache: in-process LRU in front of an on-disk store.

Level 1 (:class:`LRUCache`) holds complete response envelopes keyed by
fingerprint; level 2 (:class:`ArtifactStore`) persists each solved request
as a directory in the ``repro.qa`` bundle format — ``graph.json`` (the
lossless io form of the solved graph) plus ``case.json`` with the bundle
header — extended with a ``response.json`` holding the canonical request
and the semantic result.  Tag-shaped models (``"3A2M"``-style) write a
bundle that :func:`repro.qa.bundle.replay_bundle` can re-certify directly,
so every cached answer doubles as a replayable repro case.

:class:`TwoLevelCache` is the facade the server uses: memory hit, disk
hit (promoted into memory), or miss.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.dfg import io as dfg_io
from repro.serve.protocol import PROTOCOL, ServeError, graph_from_canonical

_RESPONSE_FILE = "response.json"


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

    Layout: ``<root>/<fp[:2]>/<fp>/`` holding ``graph.json`` +
    ``case.json`` (the ``repro.qa.bundle`` format, generator ``"serve"``)
    + ``response.json``.  Writes go through a temp directory and an
    ``os.replace`` so a crashed writer never leaves a half-readable entry.
    """

    def __init__(self, root: str):
        self.root = root
        self.stored = 0
        self.loaded = 0

    def path_for(self, fp: str) -> str:
        return os.path.join(self.root, fp[:2], fp)

    def load(self, fp: str) -> Optional[Dict[str, Any]]:
        """The stored response envelope, or ``None``."""
        path = os.path.join(self.path_for(fp), _RESPONSE_FILE)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if record.get("protocol") != PROTOCOL or record.get("fingerprint") != fp:
            return None
        self.loaded += 1
        return record["response"]

    def store(
        self,
        fp: str,
        canonical: Mapping[str, Any],
        response: Mapping[str, Any],
    ) -> Optional[str]:
        """Persist one solved request; returns the artifact path.

        Best-effort: an unwritable store degrades to memory-only caching
        rather than failing the request (``None`` is returned).
        """
        final = self.path_for(fp)
        if os.path.isdir(final):
            return final
        tmp = final + ".tmp"
        try:
            os.makedirs(tmp, exist_ok=True)
            # Deterministic affine semantics make the artifact a *fully*
            # replayable qa bundle (the certification oracle simulates the
            # schedule); they are attrs only — the fingerprint ignores them.
            from repro.suite.random_graphs import attach_affine_funcs

            graph = attach_affine_funcs(graph_from_canonical(canonical), seed=0)
            dfg_io.save(graph, os.path.join(tmp, "graph.json"))
            tag = _config_tag(canonical)
            case = {
                "format": "repro.qa.bundle",
                "version": 1,
                "generator": "serve",
                "params": {"fingerprint": fp},
                "config": tag if tag is not None else canonical["model"],
                "path": canonical["options"]["heuristic"],
                "failures": [],
            }
            with open(os.path.join(tmp, "case.json"), "w", encoding="utf-8") as fh:
                json.dump(case, fh, indent=2)
            with open(os.path.join(tmp, _RESPONSE_FILE), "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "protocol": PROTOCOL,
                        "fingerprint": fp,
                        "canonical": dict(canonical),
                        "response": dict(response),
                    },
                    fh,
                )
            os.replace(tmp, final)
        except OSError:
            return None
        self.stored += 1
        return final


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

    def insert(
        self,
        fp: str,
        canonical: Mapping[str, Any],
        response: Mapping[str, Any],
        persist: bool = True,
    ) -> None:
        self.memory.put(fp, dict(response))
        if persist and self.store is not None:
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
