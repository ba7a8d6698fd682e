"""The explore/v1 metrics record (the perfcheck explore tier is tested in
test_perfcheck.py)."""

from repro.obs import EXPLORE_COUNTERS, EXPLORE_RECORD, explore_metrics


class TestExploreMetrics:
    def test_record_shape(self):
        snap = explore_metrics(
            {"cells_total": 60, "solved": 26, "dedup_hits": 10, "rounds": 4},
            mode="explore",
            elapsed=1.5,
        )
        assert snap["source"] == "repro.explore"
        assert snap["record"] == EXPLORE_RECORD
        assert snap["mode"] == "explore"
        # the schema counters are always present, zero-filled
        assert set(EXPLORE_COUNTERS) <= set(snap["counters"])
        assert snap["counters"]["cells_total"] == 60
        assert snap["counters"]["pruned_bound"] == 0
        # non-schema keys ride along as extras
        assert snap["extras"] == {"dedup_hits": 10, "rounds": 4}
        assert snap["timers"]["explore"]["count"] == 1

