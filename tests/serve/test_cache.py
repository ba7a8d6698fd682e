"""Cache-layer tests: LRU accounting, artifact round-trips, promotion."""

from __future__ import annotations

import json
import os

import pytest

from repro.qa import load_bundle, replay_bundle
from repro.serve import ArtifactStore, LRUCache, TwoLevelCache
from repro.serve.cache import _config_tag
from repro.serve.protocol import (
    ServeError,
    canonical_request,
    fingerprint,
    parse_request,
    solve_canonical,
)

REQUEST = {"graph": {"benchmark": "diffeq"}, "config": "2A1M"}


def solved_request(payload=REQUEST):
    canonical = canonical_request(parse_request(payload))
    fp = fingerprint(canonical)
    return fp, canonical, solve_canonical(canonical)


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats() == {
            "size": 1, "maxsize": 4, "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_eviction_is_lru_not_fifo(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # touch: "b" becomes the eviction victim
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_put_existing_key_does_not_evict(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get("a") == 10

    def test_rejects_silly_maxsize(self):
        with pytest.raises(ServeError):
            LRUCache(maxsize=0)


class TestArtifactStore:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        fp, canonical, response = solved_request()
        path = store.store(fp, canonical, response)
        assert path == store.path_for(fp) == str(tmp_path / fp[:2] / f"{fp}.json")
        assert store.load(fp) == response
        assert store.stored == 1 and store.loaded == 1

    def test_a_miss_writes_one_file(self, tmp_path):
        # One file per entry, plus its shard directory the first time.
        store = ArtifactStore(str(tmp_path))
        fp, canonical, response = solved_request()
        store.store(fp, canonical, response)
        assert os.listdir(tmp_path) == [fp[:2]]
        assert os.listdir(tmp_path / fp[:2]) == [f"{fp}.json"]
        twin = fp[:2] + "0" * 62
        store.store(twin, canonical, response)
        assert os.listdir(tmp_path) == [fp[:2]]
        assert sorted(os.listdir(tmp_path / fp[:2])) == sorted([f"{fp}.json", f"{twin}.json"])

    def test_load_rejects_fingerprint_mismatch(self, tmp_path):
        # A record copied under the wrong key must not resurface.
        store = ArtifactStore(str(tmp_path))
        fp, canonical, response = solved_request()
        path = store.store(fp, canonical, response)
        bogus = "0" * 64
        os.makedirs(os.path.dirname(store.path_for(bogus)))
        with open(path) as src, open(store.path_for(bogus), "w") as dst:
            dst.write(src.read())
        assert store.load(bogus) is None
        assert store.load(fp) == response

    def test_load_missing_and_corrupt(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.load("f" * 64) is None
        fp, canonical, response = solved_request()
        path = store.store(fp, canonical, response)
        for body in ("{not json", "[1, 2]", '{"protocol": "other/v0"}'):
            with open(path, "w") as fh:
                fh.write(body)
            assert store.load(fp) is None
        assert store.loaded == 0

    def test_leftover_temp_file_is_never_loaded_nor_blocks_a_store(self, tmp_path):
        # A writer that died between its temp write and the rename.
        store = ArtifactStore(str(tmp_path))
        fp, canonical, response = solved_request()
        os.makedirs(tmp_path / fp[:2])
        leftover = tmp_path / fp[:2] / f"{fp}.json.{os.getpid()}-0.tmp"
        leftover.write_text(json.dumps({"protocol": "repro.serve/v1", "fingerprint": fp,
                                        "canonical": canonical, "response": response}))
        assert store.load(fp) is None
        assert store.store(fp, canonical, response) == store.path_for(fp)
        assert store.load(fp) == response

    def test_old_directory_layout_entry_is_a_miss(self, tmp_path):
        # Entries of the earlier layout (a directory per fingerprint with
        # response.json inside) are misses, and a fresh store succeeds.
        fp, canonical, response = solved_request()
        old = tmp_path / fp[:2] / fp
        old.mkdir(parents=True)
        (old / "response.json").write_text(json.dumps(
            {"protocol": "repro.serve/v1", "fingerprint": fp, "response": response}))
        store = ArtifactStore(str(tmp_path))
        assert store.load(fp) is None
        assert store.store(fp, canonical, response) is not None
        assert store.load(fp) == response

    def test_unwritable_root_degrades_to_none(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        store = ArtifactStore(str(blocker))  # a file, not a directory
        fp, canonical, response = solved_request()
        assert store.store(fp, canonical, response) is None
        assert store.stored == 0

    def test_artifact_is_a_replayable_qa_bundle(self, tmp_path):
        # An entry exports to the repro.qa bundle format: load_bundle
        # parses it and replay_bundle re-certifies the rebuilt graph.
        store = ArtifactStore(str(tmp_path / "store"))
        fp, canonical, response = solved_request()
        store.store(fp, canonical, response)
        path = store.export_bundle(fp, str(tmp_path / "qa"))
        bundle = load_bundle(path)
        assert bundle.case["generator"] == "serve"
        assert bundle.case["config"] == "2A1M"
        assert bundle.case["path"] == "h2"
        assert bundle.case["params"]["fingerprint"] == fp
        assert sorted(bundle.graph.nodes) == list(range(11))  # diffeq
        _, failures = replay_bundle(path)
        assert failures == []

    def test_export_of_a_missing_entry_is_a_serve_error(self, tmp_path):
        with pytest.raises(ServeError, match="no readable artifact"):
            ArtifactStore(str(tmp_path)).export_bundle("a" * 64, str(tmp_path / "qa"))

    def test_config_tag_only_for_fuzzable_models(self):
        _, canonical, _ = solved_request()
        assert _config_tag(canonical) == "2A1M"
        pipelined = dict(canonical)
        pipelined["model"] = {
            "units": [["adder", 2, 1, False], ["mult", 1, 2, True]],
            "binding": canonical["model"]["binding"],
        }
        assert _config_tag(pipelined) == "2A1Mp"
        exotic = dict(canonical)
        exotic["model"] = {
            "units": [["alu", 3, 1, False]],
            "binding": [["add", "alu"], ["mul", "alu"]],
        }
        assert _config_tag(exotic) is None


class TestTwoLevelCache:
    def test_disk_hit_promotes_into_memory(self, tmp_path):
        fp, canonical, response = solved_request()
        warm = TwoLevelCache(maxsize=8, store=ArtifactStore(str(tmp_path)))
        warm.insert(fp, canonical, response)
        # A fresh process restart: empty memory, same disk.
        cold = TwoLevelCache(maxsize=8, store=ArtifactStore(str(tmp_path)))
        got, level = cold.lookup(fp)
        assert level == "disk" and got == response
        got2, level2 = cold.lookup(fp)
        assert level2 == "memory" and got2 == response

    def test_miss_returns_none_level(self):
        cache = TwoLevelCache(maxsize=8)
        assert cache.lookup("a" * 64) == (None, None)

    def test_memory_only_when_no_store(self):
        fp, canonical, response = solved_request()
        cache = TwoLevelCache(maxsize=8)
        cache.insert(fp, canonical, response)
        assert cache.lookup(fp) == (response, "memory")
        assert "disk" not in cache.stats()
