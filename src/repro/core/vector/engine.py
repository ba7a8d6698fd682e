"""The vector rotation engine (``backend="vector"``).

:class:`VectorEngine` is the flat engine (:class:`~repro.core.flat.engine.
FlatEngine` — tuple records, transition memos, lazy schedules) with the
structural work of memo *misses* moved onto the numpy struct-view kernels
(:mod:`repro.core.vector.kernels`) once a graph is large enough for them
to pay: above :data:`_SCALAR_WORK` (``n + m``) the ``dr`` vectors, struct
views and wrap-period searches run vectorized.  Below it — every paper
benchmark — per-call numpy dispatch overhead dominates and the engine
behaves exactly like ``flat``.  The placement kernels stay scalar either
way (inherently sequential: each placement changes what the next probe
reads).

It also accepts struct views computed by :func:`~repro.core.vector.batch.
solve_batch`'s stacked initial pass (:meth:`VectorEngine.seed_struct_view`).

The golden parity suite and the QA engine-parity oracle pin this engine
bit-identical to flat/views/naive.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.dfg.graph import DFG
from repro.dfg.analysis import _find_zero_delay_cycle
from repro.schedule.resources import ResourceModel
from repro.core.flat.engine import FlatEngine, _StructView, _VecState
from repro.core.vector._compat import require_numpy
from repro.core.vector.columns import VectorColumns
from repro.core.vector.kernels import (
    vec_priority_columns,
    vec_retimed_delays,
    vec_wrap_period,
    vec_zero_delay_lists,
    vec_zero_edges,
)
from repro.errors import RotationError, ZeroDelayCycleError
from repro.obs import tracer as _obs


# Below this problem size (``n + m``) memo *misses* run the scalar flat
# kernels instead of the numpy ones: per-call dispatch overhead dominates
# numpy's throughput until roughly this many elements (measured crossover
# ~8k on random DFGs; the paper benchmarks sit near 100).  Both kernel
# families are pinned bit-identical by the property suite, so the switch
# is invisible to everything but the clock.  The stacked batched pass
# (:class:`~repro.core.vector.batch.BatchedFlatGraph`) always uses the
# numpy kernels — there the dispatch is amortized over the whole cohort.
_SCALAR_WORK = 8192


class VectorEngine(FlatEngine):
    """Flat engine with numpy kernels for large-graph memo misses
    (``backend="vector"``)."""

    backend_name = "vector"

    def __init__(
        self,
        graph: DFG,
        model: ResourceModel,
        priority="descendants",
        max_views: int = 4096,
        precompiled=None,
    ):
        self._np = require_numpy()
        super().__init__(graph, model, priority, max_views, precompiled=precompiled)
        self._columns()
        self._extras["batched_seeds"] = 0

    def _columns(self) -> None:
        self._vc = VectorColumns(self.fg, self.fm)
        self._scalar_misses = (self.fg.n + self.fg.m) <= _SCALAR_WORK

    def apply_delta(self, edits, model: Optional[ResourceModel] = None) -> Dict[str, int]:
        out = super().apply_delta(edits, model)
        self._columns()
        return out

    def seed_struct_view(self, dr_key: Tuple[int, ...], sv: _StructView) -> None:
        """Adopt a struct view computed by the batched stacked pass."""
        self._svs[dr_key] = sv
        self._extras["batched_seeds"] += 1

    # -- numpy branches of the flat engine's miss path -----------------
    def _array(self, values):
        np = self._np
        return np.array(values, dtype=np.int64)

    def _dr_of(self, rv) -> Tuple[int, ...]:
        if self._scalar_misses:
            return super()._dr_of(rv)
        return tuple(vec_retimed_delays(self._vc, self._array(rv)).tolist())

    def _sv_for(self, dr_key: Tuple[int, ...], r_factory) -> _StructView:
        if self._scalar_misses:
            return super()._sv_for(dr_key, r_factory)
        sv = self._svs.get(dr_key)
        if sv is not None:
            self._stats.view_hits += 1
            return sv
        vc = self._vc
        tr = _obs.active
        traced = tr.enabled
        if traced:
            tr.begin("vector.build")
        try:
            self._stats.view_builds += 1
            self._stats.edges_rescanned += self.fg.m
            self._extras["struct_view_builds"] += 1
            zs, zd = vec_zero_edges(vc, self._array(dr_key))
            cols = vec_priority_columns(self.priority, vc.node_time, vc.n, zs, zd)
            if cols is None:
                raise ZeroDelayCycleError(
                    _find_zero_delay_cycle(self.fg.graph, r_factory())
                )
            if self.priority == "mobility":
                self._stats.priority_full_rebuilds += 1
            zsucc, zpred = vec_zero_delay_lists(vc.n, zs, zd)
        finally:
            if traced:
                tr.end()
        return self._sv_store(dr_key, _StructView(zsucc, zpred, cols[2]))

    def _sv_derive(self, parent_dr, dr_key, moved_idx, r_factory) -> _StructView:
        if self._scalar_misses:
            return super()._sv_derive(parent_dr, dr_key, moved_idx, r_factory)
        return self._sv_for(dr_key, r_factory)

    def _rotated_dr(self, rec: _VecState, moved_idx, step: int, error) -> Tuple[int, ...]:
        if self._scalar_misses:
            return super()._rotated_dr(rec, moved_idx, step, error)
        np = self._np
        vc = self._vc
        dr_arr = self._array(rec.dr)
        moved_mask = np.zeros(vc.n, dtype=bool)
        moved_mask[list(moved_idx)] = True
        msrc = moved_mask[vc.esrc]
        mdst = moved_mask[vc.edst]
        # Down: a non-moved source feeding a moved node loses one delay;
        # up: a moved source feeding a non-moved node does.
        losing = (mdst & ~msrc) if step > 0 else (msrc & ~mdst)
        if bool(((dr_arr < 1) & losing).any()):
            raise RotationError(error())
        return tuple((dr_arr + step * (msrc.astype(np.int64) - mdst)).tolist())

    def _wrap_period(self, starts, dr) -> int:
        if self._scalar_misses:
            return super()._wrap_period(starts, dr)
        return vec_wrap_period(
            self._vc, self._array(starts), self._array(dr), self._extras
        )
