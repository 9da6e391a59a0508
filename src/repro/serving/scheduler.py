"""Continuous-batching request scheduler: the serving stack's one round loop.

The scheduler serves a *stream* of timestamped requests on one shared
:class:`~repro.system.timeline.ArrayTimeline`, iteration-interleaved in the
style of Orca's continuous batching:

* requests are admitted as they arrive, up to ``max_batch_size`` in flight;
* each scheduling **round** advances every in-flight request by one unit —
  its encoder (prefill) pass the first time, one decoder iteration after —
  so a newly arrived request starts decoding without waiting for older
  requests to finish; :meth:`ContinuousBatchingScheduler.run_round` plans
  and registers every unit, emits the round's ops as one
  :class:`~repro.system.timeline.OpBatch` and commits it in one kernel call;
* within a round, expert transfers are deduplicated across requests via
  :class:`~repro.serving.simulator.SharedExpertRound`: concurrent requests
  that activate the same expert of the same block share a single CPU→GPU
  migration;
* with a cache enabled (``cache_policy``/``cache_capacity``), rounds run on
  the shared refcounted :class:`~repro.system.residency.ExpertResidency`
  map through a :class:`~repro.serving.prefetch.CrossRequestPrefetcher`:
  hot experts stay resident *across* rounds and requests (LIFO/LRU/LFU
  replacement of unpinned entries), so repeat activations skip the CPU→GPU
  link entirely;
* runs of structurally identical decode rounds are fast-forwarded in closed
  form by round replay (:class:`_RoundReplay`), exactly, on placements
  without a residency map; with an expert cache or DRAM stage every round
  is simulated.

The paper's one-request-at-a-time engines
(:class:`~repro.serving.engine.ServingEngine`) are a front end over a
batch-1 scheduler: each of their passes is one single-unit
:meth:`~ContinuousBatchingScheduler.run_round` call on the caller's
timeline, with per-block latency records read back from the commit.  A
one-request workload through :meth:`~ContinuousBatchingScheduler.serve`
therefore reproduces the engine's ``run_request`` timeline exactly (pinned
to 1e-9 in the tests).

Modelling note: rounds time-multiplex the GPU at decoder-iteration
granularity (the paper's systems are optimised for per-request batch size 1,
so per-kernel batching across requests is not modelled; what continuous
batching buys here is pipelining of arrivals, shared expert migrations and
honest queueing behaviour under load).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from ..moe.configs import ModelConfig, get_config
from ..obs.probes import ServingProbes
from ..obs.spans import (CAT_DECODE as SPAN_DECODE, CAT_FETCH as SPAN_FETCH,
                         CAT_PREFILL as SPAN_PREFILL, CAT_STAGE as SPAN_STAGE,
                         PassFetch, SpanLog)
from ..system.hardware import PAPER_SYSTEM, LinkSpec, SystemSpec
from ..system.memory import OutOfMemoryError
from ..system.performance import GpuLatencyModel
from ..system.timeline import (_COMPUTE_CODE, ArrayTimeline, OpBatch,
                               Stream, lane_code)
from ..workloads.arrivals import LoadSpec, TimedRequest, generate_timed_requests
from ..workloads.generator import WorkloadSpec
from ..workloads.traces import IterationActivations, RequestTrace
from .metrics import (BlockLatencyRecord, LoadTestResult,
                      ServedRequestResult)
from .placement import DEFAULT_RUNTIME_WORKSPACE_BYTES, ModelPlacement
from .prefetch import CrossRequestPrefetcher
from .simulator import (CAT_EXPERT_TRANSFER, CAT_STAGE_IN, EmittedPass,
                        IterationSimulator, SharedExpertRound)


@dataclass
class EngineConfig:
    """Tunable knobs shared by all designs."""

    activation_level: int = 1
    runtime_workspace_bytes: int = DEFAULT_RUNTIME_WORKSPACE_BYTES
    #: Whether to keep simulating when the GPU pool would be exceeded
    #: (used by analyses that want to measure how far over budget a design is).
    allow_oversubscription: bool = False


#: The four system designs, with the display names used in reports
#: (matching the paper's figure legends).
DESIGN_LABELS = {
    "gpu_only": "GPU-only",
    "pregated": "Pre-gated MoE",
    "ondemand": "MoE-OnDemand",
    "prefetch_all": "MoE-Prefetch",
}


class RoundUnit(NamedTuple):
    """One member's pass in a :meth:`ContinuousBatchingScheduler.run_round`."""

    part: str
    #: Decode step of a decoder iteration (0 for the encoder pass).
    iteration: int
    activations: IterationActivations
    #: Token counts of the part's ``emit_*`` call: ``(query, self-KV,
    #: cross-KV)`` for a decoder iteration, ``(input,)`` for the encoder.
    tokens: Tuple[int, ...]
    #: Arrival time gating the pass's first op (0.0 once scheduled).
    start_at: float
    #: Op-name prefix (trace-recording timelines only).
    label: str
    #: Op ids the pass must wait for (a carried all-to-all combine).
    extra_deps: Sequence[int]


class CommittedRound(NamedTuple):
    """What :meth:`ContinuousBatchingScheduler.run_round` returns."""

    batch: OpBatch
    starts: np.ndarray
    ends: np.ndarray
    #: One emitted pass per unit, in unit order.
    passes: List[EmittedPass]
    #: Per-unit ``(op_lo, op_hi, route_lo, route_hi)`` slices of the batch
    #: and the placement's fetch-route log; filled only while the route log
    #: is installed (span logging).
    bounds: List[Tuple[int, int, int, int]]
    #: Per-unit block latency records, when asked for.
    blocks: Optional[List[List[BlockLatencyRecord]]]


@dataclass
class _InFlightRequest:
    """Lifecycle state of one admitted request."""

    timed: TimedRequest
    prefilled: bool = False
    next_decode: int = 0
    first_scheduled_time: Optional[float] = None
    token_times: List[float] = field(default_factory=list)
    #: Op ids the request's next pass must wait for (a trailing all-to-all
    #: combine on expert-parallel replicas; always empty single-GPU).
    pending_deps: List[int] = field(default_factory=list)
    #: Memo of per-step structural signatures used by round replay.
    step_sigs: Dict[int, Tuple] = field(default_factory=dict)

    @property
    def trace(self) -> RequestTrace:
        return self.timed.trace

    @property
    def done(self) -> bool:
        return self.prefilled and self.next_decode >= len(self.trace.decode_activations)


@dataclass
class _RoundRecord:
    """Everything round replay needs about one executed decode round.

    Captured by the round path when the round is replay-eligible
    (decode-only, no carried cross-pass deps).  The
    :class:`~repro.system.timeline.OpBatch` is kept by reference — its
    columns are the round's structural template.
    """

    base_id: int
    num_ops: int
    req_ids: Tuple[int, ...]
    batch: OpBatch
    starts: np.ndarray
    ends: np.ndarray
    #: Per-state (first op, last op) batch indices of the request's pass.
    first_index: Tuple[int, ...]
    last_index: Tuple[int, ...]
    #: Lane clocks by :func:`~repro.system.timeline.lane_code` before the
    #: commit.
    lane_free_before: Dict[int, float]
    #: :meth:`ArrayTimeline.replay_snapshot` taken after the commit.
    snapshot: Dict[str, object]
    #: :meth:`ModelPlacement.replay_counters` taken after the round.
    counters: Tuple[int, ...]
    peak_gpu_bytes: int


def _quad_coeffs(v0: float, v1: float, v2: float) -> Tuple[float, float, float]:
    """Quadratic-extrapolation coefficients from three trailing samples.

    ``v0, v1, v2`` are the values at rounds ``j0-2, j0-1, j0``.  The value
    ``m`` rounds past ``j0`` is ``v2 + m*delta + T(m)*curv`` with
    ``T(m) = m(m+1)/2`` — exact whenever the underlying sequence is a
    quadratic in the round index, which is what affine per-round durations
    produce (attention time grows linearly with KV length; everything else
    is constant).
    """
    delta = v2 - v1
    curv = delta - (v1 - v0)
    return v2, delta, curv


def _quad_eval(coeffs: Tuple[float, float, float], m: np.ndarray) -> np.ndarray:
    v2, delta, curv = coeffs
    return v2 + m * delta + (m * (m + 1) / 2.0) * curv


class _RoundReplay:
    """Steady-state decode-round fast-forward controller.

    Watches the round path for runs of **structurally identical**
    decode rounds (same requests, same op columns: streams, devices,
    categories, bytes, dependency pattern).  Op *durations* are allowed to
    drift affinely with the round index — that is exactly what growing KV
    lengths do to the attention ops — which makes every op time, lane clock
    and accumulated aggregate an exact quadratic in the round index.

    After :data:`HISTORY` consecutive identical rounds it plans a window:

    * **completion bound** — never replay past any request's last decode;
    * **signature scan** — upcoming rounds must keep the template's
      structure (expert-collision pattern and shard ownership, anonymised
      over expert ids);
    * **duration model check** — per-round durations must be affine across
      the window *and* the roofline model must still be on the same branch
      at the landing round (binary-searched if not);
    * **counter check** — placement/tier counters must tick by exactly the
      same integer delta each round;
    * **crossing horizon** — for every op, the winning term of its
      ``max(lane free, dep ready, earliest)`` (and of the exposed-stall
      submax) must keep winning for the whole window; each loser's margin
      is itself a quadratic, so the first future violation is found in
      closed form;
    * **arrival bound** — never replay past the point where the compute
      lanes catch up with the next pending arrival while a batch slot is
      open.

    A planned window of ``n`` rounds is applied in closed form:
    :meth:`~repro.system.timeline.ArrayTimeline.fast_forward` jumps the
    lane clocks and aggregates, the placement counters bump by ``n`` deltas,
    and each request's token clock is extended with its extrapolated
    per-round completion times.  Exact scheduling resumes on the next round.
    """

    #: Consecutive identical rounds required before planning (4 gives three
    #: per-round deltas — enough to pin a quadratic accumulation exactly).
    HISTORY = 4
    #: Smallest window worth the planning cost.
    MIN_ROUNDS = 3
    #: Hard cap per window (keeps constraint matrices small; a new window
    #: starts immediately after, so long steady states still replay fully).
    MAX_ROUNDS = 512
    #: Rounds to wait after a failed plan before trying again.
    COOLDOWN = 2
    #: Why :meth:`try_apply` stood down, in the order it checks: the round's
    #: requests are not the recorded ones, a request is on its last decode,
    #: the round structure changes too soon, durations are not affine,
    #: counters do not tick identically, the GPU peak moved, the roofline
    #: leaves its branch, an op's schedule argmax flips, or the next
    #: arrival would be admitted.
    STANDDOWN_REASONS = ("request_identity", "completion_bound", "signature",
                         "durations", "counters", "peak_bytes",
                         "roofline_branch", "crossing_horizon", "arrival")

    def __init__(self, scheduler: "ContinuousBatchingScheduler") -> None:
        self.scheduler = scheduler
        self.placement = scheduler.placement
        self.simulator = scheduler.simulator
        self.history: deque = deque(maxlen=self.HISTORY)
        self.cooldown = 0
        # Telemetry (copied into the LoadTestResult by serve()).
        self.windows = 0
        self.rounds = 0
        self.ops = 0
        #: Failed :meth:`try_apply` calls by reason.
        self.standdowns: Dict[str, int] = dict.fromkeys(
            self.STANDDOWN_REASONS, 0)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.history.clear()

    def observe(self, record: _RoundRecord) -> None:
        """Chain a freshly executed eligible round into the history."""
        if self.history and not self._same_shape(self.history[-1], record):
            self.history.clear()
        self.history.append(record)
        if self.cooldown:
            self.cooldown -= 1

    def ready(self) -> bool:
        return len(self.history) == self.HISTORY and self.cooldown == 0

    @staticmethod
    def _same_shape(prev: _RoundRecord, rec: _RoundRecord) -> bool:
        """Structural equality of two rounds (durations excluded)."""
        if (prev.req_ids != rec.req_ids or prev.num_ops != rec.num_ops
                or prev.first_index != rec.first_index
                or prev.last_index != rec.last_index):
            return False
        pb, rb = prev.batch, rec.batch
        if (pb.stream != rb.stream or pb.device != rb.device
                or pb.category != rb.category or pb.num_bytes != rb.num_bytes
                or pb.dep_offsets != rb.dep_offsets):
            return False
        shift = rec.base_id - prev.base_id
        for a, b in zip(pb.dep_ids, rb.dep_ids):
            if b - a != shift:
                return False
        return True

    # ------------------------------------------------------------------
    # Round structure signatures (forward scan)
    # ------------------------------------------------------------------
    #: Cached single-device top-1 signatures: with one expert per block the
    #: ``(block, expert)`` keys are all distinct, so the anonymised pattern
    #: is ``((1, 0), (1, 1), ...)`` whatever the expert ids — the common
    #: decode case, worth skipping the seen-dict walk for.
    _TOP1_SIGS: Dict[int, Tuple] = {}

    @classmethod
    def _top1_signature(cls, num_blocks: int) -> Tuple:
        sig = cls._TOP1_SIGS.get(num_blocks)
        if sig is None:
            sig = cls._TOP1_SIGS[num_blocks] = tuple(
                (1, i) for i in range(num_blocks))
        return sig

    def _step_signature(self, state: _InFlightRequest, step: int) -> Tuple:
        """Canonical structure of one request's decode step, memoised."""
        cache = state.step_sigs
        sig = cache.get(step)
        if sig is None:
            acts = state.trace.decode_activations[step]
            if (not self.simulator.multi_device
                    and all(len(e) == 1 for e in acts)):
                sig = self._top1_signature(len(acts))
            else:
                sig = self._signature([acts])
            cache[step] = sig
        return sig

    def _round_signature(self, active: Sequence[_InFlightRequest],
                         offset: int) -> Tuple:
        """Structure signature of the round ``offset`` steps ahead.

        ``offset`` is relative to each state's ``next_decode`` (-1 is the
        round just executed).  Single-request rounds use the cached
        per-step signature; multi-request rounds additionally canonicalise
        the *cross*-request collision pattern.
        """
        if len(active) == 1:
            state = active[0]
            return self._step_signature(state, state.next_decode + offset)
        return self._signature([
            state.trace.decode_activations[state.next_decode + offset]
            for state in active])

    def _signature(self, passes: Sequence[IterationActivations]) -> Tuple:
        """Canonical structure of one round's decode passes.

        Expert ids are anonymised to first-occurrence indices (the dedup
        collision pattern is what shapes the round, not the ids); shard
        ownership is included on multi-GPU replicas because it routes the
        fetch lanes.
        """
        multi = self.simulator.multi_device
        owner = self.placement.owner_device
        seen: Dict[Tuple[int, int], int] = {}
        parts = []
        for acts in passes:
            for block, experts in enumerate(acts):
                entry = [len(experts)]
                for expert in experts:
                    expert = int(expert)
                    idx = seen.get((block, expert))
                    if idx is None:
                        seen[(block, expert)] = idx = len(seen)
                    entry.append(idx)
                    if multi:
                        entry.append(owner(expert))
                parts.append(tuple(entry))
        return tuple(parts)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def try_apply(self, timeline: ArrayTimeline,
                  active: List[_InFlightRequest],
                  pending: deque) -> bool:
        """Plan and apply a replay window; returns whether rounds were skipped."""
        records = list(self.history)
        last = records[-1]
        if tuple(s.timed.request_id for s in active) != last.req_ids:
            self.history.clear()
            return self._stand_down("request_identity", cool=False)
        # ---- completion bound ----------------------------------------
        n = min(self.MAX_ROUNDS,
                min(len(s.trace.decode_activations) - s.next_decode
                    for s in active))
        if n < 1:
            return self._stand_down("completion_bound", cool=False)
        # ---- forward structure scan ----------------------------------
        template = self._round_signature(active, -1)
        n_sig = 0
        while n_sig < n and self._round_signature(active, n_sig) == template:
            n_sig += 1
        n = n_sig
        if n < self.MIN_ROUNDS:
            return self._stand_down("signature")
        # ---- per-round durations affine across the window ------------
        d = [np.asarray(r.batch.duration) for r in records]
        diff = d[3] - d[2]
        if (not np.allclose(d[1] - d[0], diff, rtol=0.0, atol=1e-15)
                or not np.allclose(d[2] - d[1], diff, rtol=0.0, atol=1e-15)):
            return self._stand_down("durations")
        # ---- integer counters tick identically -----------------------
        deltas = [tuple(b - a for a, b in zip(r1.counters, r2.counters))
                  for r1, r2 in zip(records, records[1:])]
        if deltas[0] != deltas[1] or deltas[1] != deltas[2]:
            return self._stand_down("counters")
        if len({r.peak_gpu_bytes for r in records}) != 1:
            return self._stand_down("peak_bytes")
        # ---- duration model still on the recorded roofline branch ----
        n = self._duration_model_bound(active, records, diff, n)
        if n < 1:
            return self._stand_down("roofline_branch")
        # ---- crossing horizon (argmax stability) ---------------------
        n = self._crossing_bound(records, n)
        if n < 1:
            return self._stand_down("crossing_horizon")
        # ---- arrival bound -------------------------------------------
        if pending and len(active) < self.scheduler.max_batch_size:
            n = self._arrival_bound(records, pending[0].arrival_time, n)
            if n < 1:
                return self._stand_down("arrival")
        self._apply(timeline, active, records, n)
        return True

    def _stand_down(self, reason: str, cool: bool = True) -> bool:
        """Count a failed plan by ``reason`` (cooling down unless told not
        to); returns ``False`` for :meth:`try_apply` to pass on."""
        self.standdowns[reason] += 1
        if cool:
            self.cooldown = self.COOLDOWN
        return False

    def _duration_model_bound(self, active, records, diff, n: int) -> int:
        """Largest window on which the affine duration model stays exact.

        The only round-varying durations in a steady decode round are the
        non-MoE attention ops (KV length grows by one per round).  The
        roofline model is piecewise affine in KV length — extrapolation is
        exact until the max(compute, memory) branch flips.  Verify the
        landing round against the real model; binary-search the boundary if
        it moved.
        """
        last = records[-1]

        def model_ok(m: int) -> bool:
            for state, first in zip(active, last.first_index):
                predicted = last.batch.duration[first] + m * diff[first]
                actual = self.simulator._nonmoe_duration(
                    "decoder", 1, state.next_decode + m,
                    state.trace.input_length)
                if abs(actual - predicted) > 1e-15 + 1e-12 * abs(actual):
                    return False
            return True

        if model_ok(n):
            return n
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if model_ok(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _crossing_bound(self, records: List[_RoundRecord], n: int) -> int:
        """Largest window on which every op's schedule argmax is stable.

        Each op starts at ``max(lane free, dep ready, earliest)`` and its
        exposed-stall floor is ``max(lane free, compute-dep ready,
        earliest)``.  With affine durations every candidate term is an
        exact quadratic in the round index, so each loser's margin
        ``D(m) = start - candidate`` is too; the window must stop before
        any margin crosses zero.  Built from the last three recorded
        rounds; requires the recorded winner to have been the same term in
        all three (otherwise an argmax already flipped inside the window).
        """
        r1, r2, r3 = records[-3], records[-2], records[-1]
        batch = r3.batch
        num = r3.num_ops
        streams = batch.stream
        devices = batch.device
        offsets = batch.dep_offsets
        dep_ids = batch.dep_ids
        base = r3.base_id
        starts = (r1.starts, r2.starts, r3.starts)
        ends = (r1.ends, r2.ends, r3.ends)
        lfb = (r1.lane_free_before, r2.lane_free_before, r3.lane_free_before)

        # Candidate rows: (op index, 3 candidate samples, is_compute_cand).
        row_op: List[int] = []
        row_samples: List[Tuple[float, float, float]] = []
        row_is_compute: List[bool] = []
        lane_prev: Dict[int, int] = {}
        for i in range(num):
            lane = lane_code(streams[i], devices[i])
            prev = lane_prev.get(lane)
            if prev is None:
                samples = tuple(f.get(lane, 0.0) for f in lfb)
            else:
                samples = tuple(e[prev] for e in ends)
            row_op.append(i)
            row_samples.append(samples)
            row_is_compute.append(True)  # the lane term floors the stall too
            lane_prev[lane] = i
            for k in range(offsets[i], offsets[i + 1]):
                j = dep_ids[k] - base
                row_op.append(i)
                row_samples.append(tuple(e[j] for e in ends))
                row_is_compute.append(streams[j] == _COMPUTE_CODE)
        op_idx = np.asarray(row_op, dtype=np.int64)
        cand = np.asarray(row_samples, dtype=np.float64)
        is_comp = np.asarray(row_is_compute, dtype=bool)
        start_samples = np.stack([s[op_idx] for s in starts], axis=1)

        # The start max: margins of every candidate against the actual start.
        margin = start_samples - cand
        # Winner stability: some candidate must explain the start exactly in
        # all three rounds (the kernel computes start as that very max, so
        # the winner's margin is exactly 0.0).
        winner_rows = np.all(margin == 0.0, axis=1)
        explained = np.zeros(num, dtype=bool)
        explained[op_idx[winner_rows]] = True
        # Ops whose start is the constant zero floor (earliest_start == 0
        # for every replay-eligible op) are stable by definition.
        explained[np.all(np.stack(starts, axis=1) == 0.0, axis=1)] = True
        if not explained.all():
            return 0

        # The exposed-stall floor max over compute-side candidates only.
        is_compute_op = np.asarray(
            [s == _COMPUTE_CODE for s in streams], dtype=bool)
        comp_rows = is_comp & is_compute_op[op_idx]
        ready = np.full((num, 3), -np.inf)
        np.maximum.at(ready, op_idx[comp_rows], cand[comp_rows])
        ready[~is_compute_op] = 0.0
        ready = np.maximum(ready, 0.0)  # the earliest_start (= 0) floor
        ready_margin = ready[op_idx[comp_rows]] - cand[comp_rows]
        r_winner = np.all(ready_margin == 0.0, axis=1)
        r_explained = np.zeros(num, dtype=bool)
        r_explained[op_idx[comp_rows][r_winner]] = True
        r_explained[np.all(ready == 0.0, axis=1)] = True
        if not r_explained[is_compute_op].all():
            return 0

        rows = np.concatenate([margin, ready_margin])
        # Quadratic margin extrapolation: D(m) = D0 + m*delta + T(m)*curv.
        d0 = rows[:, 2]
        delta = rows[:, 2] - rows[:, 1]
        curv = delta - (rows[:, 1] - rows[:, 0])
        # Constant non-negative margins can never cross; drop them.
        live = ~((delta == 0.0) & (curv == 0.0))
        d0, delta, curv = d0[live], delta[live], curv[live]
        if d0.size == 0:
            return n
        m = np.arange(1, n + 1, dtype=np.float64)
        margins = (d0[:, None] + np.outer(delta, m)
                   + np.outer(curv, m * (m + 1) / 2.0))
        bad = (margins < 0.0).any(axis=0)
        if bad.any():
            return int(np.argmax(bad))
        return n

    def _arrival_bound(self, records: List[_RoundRecord], arrival: float,
                       n: int) -> int:
        """Stop before the compute lanes catch up with the next arrival."""
        r1, r2, r3 = records[-3], records[-2], records[-1]
        lanes = [key for key in r3.snapshot["lane_free"]
                 if key[0] is Stream.COMPUTE]
        m = np.arange(1, n + 1, dtype=np.float64)
        now = np.full(n, -np.inf)
        for key in lanes:
            coeffs = _quad_coeffs(r1.snapshot["lane_free"].get(key, 0.0),
                                  r2.snapshot["lane_free"].get(key, 0.0),
                                  r3.snapshot["lane_free"][key])
            now = np.maximum(now, _quad_eval(coeffs, m))
        admits = now >= arrival
        if admits.any():
            # Replaying up to (and including) the first admitting round is
            # exact: admission happens at the next loop turn, as it would
            # have step-by-step.
            return int(np.argmax(admits)) + 1
        return n

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _apply(self, timeline: ArrayTimeline,
               active: List[_InFlightRequest],
               records: List[_RoundRecord], n: int) -> None:
        r0, r1, r2, r3 = records
        m = np.arange(1, n + 1, dtype=np.float64)

        # Per-request token clocks: the pass-completion time is an exact
        # quadratic in the round index.
        for idx, state in enumerate(active):
            last = r3.last_index[idx]
            coeffs = _quad_coeffs(float(r1.ends[last]), float(r2.ends[last]),
                                  float(r3.ends[last]))
            state.token_times.extend(_quad_eval(coeffs, m).tolist())
            state.next_decode += n

        # Lane clocks (values — quadratic) and accumulated aggregates
        # (per-round deltas quadratic: three snapshot deltas pin them).
        snaps = [r.snapshot for r in records]
        lane_free: Dict[Tuple[Stream, int], float] = {}
        makespan = float(snaps[-1]["makespan"])
        for key in snaps[-1]["lane_free"]:
            coeffs = _quad_coeffs(
                float(snaps[1]["lane_free"].get(key, 0.0)),
                float(snaps[2]["lane_free"].get(key, 0.0)),
                float(snaps[3]["lane_free"][key]))
            value = float(_quad_eval(coeffs, np.float64(n)))
            lane_free[key] = value
            if value > makespan:
                makespan = value

        def accumulate(field_name: str) -> Dict:
            latest = snaps[3][field_name]
            out = {}
            for key, current in latest.items():
                samples = [s[field_name].get(key, 0.0) for s in snaps]
                d1, d2, d3 = (samples[1] - samples[0], samples[2] - samples[1],
                              samples[3] - samples[2])
                delta = d3 - d2
                curv = delta - (d2 - d1)
                total = (n * d3 + (n * (n + 1) / 2.0) * delta
                         + (n * (n + 1) * (n + 2) / 6.0) * curv)
                out[key] = current + total
            return out

        def accumulate_exact(field_name: str, cast) -> Dict:
            latest = snaps[3][field_name]
            out = {}
            for key, current in latest.items():
                samples = [s[field_name].get(key, cast(0)) for s in snaps]
                d3 = samples[3] - samples[2]
                # Structural identity makes these per-round deltas constant;
                # replay was vetoed earlier if any counter drifted.
                out[key] = current + cast(n) * d3
            return out

        counter_delta = tuple(b - a for a, b in
                              zip(r2.counters, r3.counters))
        timeline.fast_forward(
            num_ops=n * r3.num_ops, makespan=makespan, lane_free=lane_free,
            lane_busy=accumulate("lane_busy"),
            lane_exposed=accumulate("lane_exposed"),
            category_count=accumulate_exact("category_count", int),
            category_duration=accumulate("category_duration"),
            category_bytes=accumulate_exact("category_bytes", float))
        self.placement.replay_fast_forward(n, counter_delta)
        self.windows += 1
        self.rounds += n
        self.ops += n * r3.num_ops
        self.history.clear()


class ContinuousBatchingScheduler:
    """Iteration-level scheduler for one single-GPU replica.

    Parameters
    ----------
    design:
        One of the four system designs (``gpu_only`` … ``pregated``).
    config:
        Model configuration (object or registry name).
    max_batch_size:
        Maximum number of requests in flight at once; also the client count
        when serving closed-loop (all-zero arrival times).
    cache_policy / cache_capacity:
        Enable shared expert caching: a refcounted
        :class:`~repro.system.residency.ExpertResidency` map holding up to
        ``cache_capacity`` unpinned experts in GPU HBM under the given
        replacement policy (``lifo`` / ``lru`` / ``lfu``).  ``cache_capacity=0``
        runs the residency machinery but retains nothing — byte- and
        time-identical to the uncached scheduler (the parity tests pin it).
        Ignored for the ``gpu_only`` design, which never migrates experts.
    stage_policy / stage_capacity:
        Enable the host-DRAM staging cache for SSD offload (``SSD_SYSTEM``):
        a second :class:`~repro.system.residency.ExpertResidency` holding up
        to ``stage_capacity`` experts in DRAM so repeat SSD fetches skip the
        SSD read and only cross PCIe.  ``stage_capacity=0`` keeps the
        machinery but retains nothing — time-identical to the unstaged SSD
        path (the tier parity contract).  Rejected on DRAM-offload systems.
    num_gpus / interconnect:
        Expert-parallel replica shape: ``num_gpus`` scales the system to
        that many identical devices over ``interconnect`` (NVLink 3 by
        default).  Left ``None``, the system's own topology applies;
        ``num_gpus=1`` is the legacy single-GPU replica.
    shard_policy / expert_weights:
        Expert→device assignment (``contiguous`` / ``round_robin`` /
        ``load_balanced``) and the expected per-expert gate load the
        load-balanced policy spreads; see
        :class:`~repro.serving.placement.ShardAssignment`.
    record_trace:
        ``False`` (default) serves on a bounded-memory timeline: each
        round's ops are retired once no in-flight request can reference
        them, so resident op count stays O(active window) and 100k-request
        loads fit in RAM.  ``True`` keeps the full op trace (Figure 9
        rendering / ``to_records`` export).  Every reported load metric is
        identical in both modes — the parity tests pin them to 1e-9.
    round_replay:
        Detect steady-state decode rounds and fast-forward them in closed
        form (see :class:`_RoundReplay`).  Exact by construction: replay
        only applies when the extrapolation provably matches what
        step-by-step execution would produce.  Stands down (never fires)
        with trace recording, span logging, or an expert cache or DRAM
        stage on the placement (``cache_capacity`` / ``stage_capacity``
        set, even to 0).
    probe_interval:
        Enable the sampled probe layer: every ``probe_interval`` simulated
        seconds (measured at round boundaries — see
        :class:`~repro.obs.probes.ServingProbes` for the cadence
        semantics), gauges for queue depth, active batch size, HBM usage,
        resident/staged expert bytes, per-device utilisation, replay
        engagement and timeline op count are sampled into a
        :class:`~repro.obs.probes.MetricsRegistry` surfaced as
        ``result.probes``.  ``None`` (default) disables all probe work.
    span_log:
        Record a per-request span tree (queue → prefill → decode
        iterations → expert fetches with source-tier and stage hit/miss
        attribution) on ``result.spans``.  Assembled from each round's
        committed op columns, so it works in no-trace mode; stands down
        round replay.
    """

    def __init__(self, design: str, config: "ModelConfig | str",
                 system: SystemSpec = PAPER_SYSTEM,
                 latency_model: Optional[GpuLatencyModel] = None,
                 engine_config: Optional[EngineConfig] = None,
                 max_batch_size: int = 8,
                 cache_policy: Optional[str] = None,
                 cache_capacity: Optional[int] = None,
                 stage_policy: Optional[str] = None,
                 stage_capacity: Optional[int] = None,
                 num_gpus: Optional[int] = None,
                 shard_policy: str = "contiguous",
                 expert_weights: Optional[Sequence[float]] = None,
                 interconnect: Optional[LinkSpec] = None,
                 record_trace: bool = False,
                 round_replay: bool = True,
                 probe_interval: Optional[float] = None,
                 span_log: bool = False) -> None:
        if design not in DESIGN_LABELS:
            raise ValueError(
                f"unknown design {design!r}; known: {sorted(DESIGN_LABELS)}")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if probe_interval is not None and probe_interval <= 0:
            raise ValueError(
                f"probe_interval must be > 0 (or None), got {probe_interval}")
        if num_gpus is not None or interconnect is not None:
            system = system.with_num_gpus(
                num_gpus if num_gpus is not None else system.num_gpus,
                interconnect=interconnect)
        self.design = design
        self.config = get_config(config) if isinstance(config, str) else config
        self.system = system
        self.latency = latency_model or GpuLatencyModel(system.gpu)
        self.engine_config = engine_config or EngineConfig()
        self.max_batch_size = max_batch_size
        self.record_trace = record_trace
        self.round_replay = round_replay
        self.probe_interval = probe_interval
        self.span_log = span_log
        self.placement = ModelPlacement(
            self.config, system, offload_experts=design != "gpu_only",
            cache_policy=cache_policy, cache_capacity=cache_capacity,
            stage_policy=stage_policy, stage_capacity=stage_capacity,
            shard_policy=shard_policy, expert_weights=expert_weights,
            runtime_workspace_bytes=self.engine_config.runtime_workspace_bytes,
            allow_oversubscription=self.engine_config.allow_oversubscription)
        self.residency = self.placement.residency
        self.prefetcher = (CrossRequestPrefetcher(self.residency)
                           if self.residency is not None else None)
        self.simulator = IterationSimulator(
            self.config, system, self.latency, design, self.placement,
            activation_level=self.engine_config.activation_level)
        #: Timeline of the most recent :meth:`serve` call (rendering /
        #: aggregate inspection; a full op trace only with ``record_trace``).
        self.last_timeline: Optional[ArrayTimeline] = None
        #: Replay controller of the most recent :meth:`serve` call (None
        #: when the configuration makes replay ineligible: replay off, trace
        #: recording, span logging, or a residency map on the placement).
        self.last_replay: Optional[_RoundReplay] = None

    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[Union[TimedRequest, RequestTrace]],
              offered_load: Optional[float] = None,
              replica: int = 0) -> LoadTestResult:
        """Serve timestamped requests to completion; returns load metrics.

        Plain :class:`RequestTrace` inputs are wrapped with arrival time 0
        (closed-loop style).  An un-loadable model (GPU-only over HBM) is
        reported via ``result.oom`` instead of raising, like
        :meth:`ServingEngine.run_workload`.
        """
        timed = [req if isinstance(req, TimedRequest)
                 else TimedRequest(request_id=i, arrival_time=0.0, trace=req)
                 for i, req in enumerate(requests)]
        for req in timed:
            if req.arrival_time < 0:
                raise ValueError(
                    f"request {req.request_id} has negative arrival_time "
                    f"{req.arrival_time}; arrivals are absolute timestamps >= 0")
        result = LoadTestResult(design=self.design, config_name=self.config.name,
                                offered_load=offered_load,
                                num_gpus=self.placement.num_devices)
        stats_before = (self.residency.stats.snapshot()
                        if self.residency is not None else None)
        transfers_before = self.placement.transfers.snapshot()
        alltoall_before = self.placement.alltoall_bytes
        fetch_bytes_before = list(self.placement.device_fetch_bytes)
        try:
            self.placement.load_model()
        except OutOfMemoryError as exc:
            result.oom = True
            result.oom_reason = str(exc)
            return result

        timeline = ArrayTimeline(record_trace=self.record_trace)
        self.last_timeline = timeline
        # Round replay needs no trace/span rows to materialise, and no
        # residency map: a GPU expert cache or DRAM stage (even capacity 0)
        # keeps per-key state a skipped round would have to advance, so
        # replay stands down up front on such placements.  Multi-GPU shards
        # are handled by the signature, which carries each expert's owner.
        replay: Optional[_RoundReplay] = None
        mapped = any(s.residency is not None or s.stage is not None
                     for s in self.placement.shards)
        if (self.round_replay and not self.record_trace and not self.span_log
                and not mapped):
            replay = _RoundReplay(self)
        self.last_replay = replay
        probes = (ServingProbes(self.probe_interval)
                  if self.probe_interval is not None else None)
        spans = SpanLog() if self.span_log else None
        logged_spans: List = []
        if spans is not None:
            # Install the fetch-attribution hook; drained once per round,
            # uninstalled when serving ends.
            self.placement.route_log = []
        pending = deque(sorted(timed, key=lambda r: (r.arrival_time, r.request_id)))
        active: List[_InFlightRequest] = []

        try:
            while pending or active:
                now = timeline.stream_free_time(Stream.COMPUTE)
                if not active and pending:
                    # Idle replica: jump to the next arrival so every request of
                    # a simultaneous burst is admitted into the same round (the
                    # ops themselves are gated on arrival via earliest_start).
                    now = max(now, pending[0].arrival_time)
                while (pending and len(active) < self.max_batch_size
                       and pending[0].arrival_time <= now):
                    admitted = _InFlightRequest(timed=pending.popleft())
                    active.append(admitted)
                    if spans is not None:
                        spans.admit(admitted.timed.request_id,
                                    admitted.timed.arrival_time)

                ops_before = timeline.num_ops if probes is not None else 0
                replayed = (replay is not None and replay.ready()
                            and replay.try_apply(timeline, active, pending))
                if not replayed:
                    self._run_round_batched(timeline, active, replay, spans)
                    if probes is not None:
                        probes.observe_round(timeline.num_ops - ops_before)
                # One-pass rebuild of the in-flight list; removing finished
                # states with list.remove() was O(batch²) per round.
                still_active: List[_InFlightRequest] = []
                for state in active:
                    if state.done:
                        result.requests.append(self._finalise(state, replica))
                        if spans is not None:
                            logged_spans.append(spans.finalise(
                                state.timed.request_id,
                                state.token_times[-1] if state.token_times
                                else (state.first_scheduled_time or 0.0)))
                    else:
                        still_active.append(state)
                active = still_active
                # After a round, the only op ids a future op can name are the
                # in-flight requests' carried cross-pass dependencies (trailing
                # all-to-all combines); everything else is retired so resident
                # op count stays O(active window) in no-trace mode.
                timeline.retire_completed(
                    keep=[dep for state in active for dep in state.pending_deps])
                if probes is not None and probes.due(timeline.makespan):
                    self._sample_probes(probes, timeline, timeline.makespan,
                                        len(pending), len(active), replay)
        finally:
            if spans is not None:
                self.placement.route_log = None

        if probes is not None:
            # Forced final sample: every gauge's last value matches the
            # end-of-run aggregates (the probe-consistency contract).
            if probes.last_sample != timeline.makespan:
                self._sample_probes(probes, timeline, timeline.makespan,
                                    0, 0, replay)
            result.probes = probes.registry
        if spans is not None:
            result.spans = logged_spans
        result.makespan = timeline.makespan
        result.peak_gpu_bytes = self.placement.peak_gpu_bytes
        result.expert_bytes_transferred = (
            timeline.category_count("expert_transfer")
            * self.config.expert_bytes())
        result.timeline_total_ops = timeline.num_ops
        result.timeline_peak_live_ops = timeline.peak_live_ops
        if self.residency is not None:
            result.cache_stats = self.residency.stats.since(stats_before)
        if self.placement.offload_experts:
            result.tier_stats = self.placement.transfers.since(transfers_before)
        result.alltoall_bytes = self.placement.alltoall_bytes - alltoall_before
        result.device_utilisation = [
            timeline.device_utilisation(d)
            for d in range(self.placement.num_devices)]
        result.shard_imbalance = self.placement.fetch_imbalance(
            since=fetch_bytes_before)
        if replay is not None:
            result.replay_windows = replay.windows
            result.replay_rounds = replay.rounds
            result.replay_ops = replay.ops
            result.replay_standdowns = dict(replay.standdowns)
        result.requests.sort(key=lambda r: r.request_id)
        return result

    # ------------------------------------------------------------------
    def run_round(self, timeline: ArrayTimeline, units: Sequence[RoundUnit],
                  block_records: bool = False) -> CommittedRound:
        """Plan, emit and commit one round of ``units`` as one op batch.

        Every unit's plan is made and registered before any op is emitted,
        so an expert stays resident until its last user in the round has
        executed (with a cache, registration also pins the already-resident
        experts the plans rely on, so no mid-round eviction can invalidate
        a plan).  The round's ops go into one
        :class:`~repro.system.timeline.OpBatch`, scheduled by the kernel's
        single commit.

        With ``block_records`` each unit's per-block latencies are read back
        from the committed times.  A block's latency runs from the end of
        its input (the preceding non-MoE op) to the end of the op completing
        the block; its exposed transfer time is the worst stall of any
        expert-execution op behind compute-side readiness — the last compute
        op before execution, or for a remote device the arrival of its
        dispatched tokens.
        """
        simulator = self.simulator
        placement = self.placement
        batch_round = (self.prefetcher.begin_round()
                       if self.prefetcher is not None else SharedExpertRound())
        plans = []
        for unit in units:
            plan = simulator.make_plan(unit.part, unit.activations)
            batch_round.register_plan(placement, unit.part, plan,
                                      unit.activations)
            plans.append(plan)
        batch = timeline.begin_batch()
        passes: List[EmittedPass] = []
        bounds: List[Tuple[int, int, int, int]] = []
        route_log = placement.route_log
        try:
            for unit, plan in zip(units, plans):
                if route_log is not None:
                    ops_lo, routes_lo = len(batch.stream), len(route_log)
                if unit.part == "decoder":
                    em = simulator.emit_decoder_iteration(
                        batch, unit.activations, *unit.tokens, unit.iteration,
                        start_at=unit.start_at, batch_round=batch_round,
                        label=unit.label, plan=plan,
                        extra_deps=unit.extra_deps)
                else:
                    em = simulator.emit_encoder_pass(
                        batch, unit.activations, *unit.tokens,
                        start_at=unit.start_at, batch_round=batch_round,
                        label=unit.label, plan=plan,
                        extra_deps=unit.extra_deps)
                passes.append(em)
                if route_log is not None:
                    bounds.append((ops_lo, len(batch.stream), routes_lo,
                                   len(route_log)))
        finally:
            batch_round.drain(placement)
        starts, ends = timeline.commit_batch(batch)
        if not block_records:
            return CommittedRound(batch, starts, ends, passes, bounds, None)
        starts_at, ends_at = starts.tolist(), ends.tolist()
        base = batch.base_id
        devices = batch.device
        blocks = []
        for unit, em in zip(units, passes):
            records = []
            for (block, num_active, input_id, ready_id, end_id, exec_ids,
                 dispatch_id) in em.blocks:
                ready = ends_at[ready_id - base]
                exposed = 0.0
                for exec_id in exec_ids:
                    exec_ready = ready
                    if dispatch_id >= 0 and devices[exec_id - base] != 0:
                        exec_ready = max(ready, ends_at[dispatch_id - base])
                    exposed = max(exposed, starts_at[exec_id - base] - exec_ready)
                records.append(BlockLatencyRecord(
                    part=unit.part, iteration=unit.iteration,
                    block_index=block,
                    latency=ends_at[end_id - base] - ends_at[input_id - base],
                    num_active_experts=num_active,
                    exposed_transfer_time=exposed))
            blocks.append(records)
        return CommittedRound(batch, starts, ends, passes, bounds, blocks)

    def _run_round_batched(self, timeline: ArrayTimeline,
                           active: Sequence[_InFlightRequest],
                           replay: Optional[_RoundReplay],
                           spans: Optional[SpanLog] = None) -> None:
        """Advance every in-flight request by one unit as one round.

        The round itself is :meth:`run_round`; this wraps it in the request
        bookkeeping: token times, carried cross-pass deps, spans and the
        replay record.  Replay-eligible rounds (pure decode, no carried
        cross-pass deps) are recorded for :class:`_RoundReplay`.
        """
        named = timeline.record_trace
        units = []
        for state in active:
            trace = state.trace
            timed = state.timed
            label = f"r{timed.request_id}." if named else ""
            start_at = (timed.arrival_time
                        if state.first_scheduled_time is None else 0.0)
            if state.prefilled:
                step = state.next_decode
                units.append(RoundUnit(
                    "decoder", step, trace.decode_activations[step],
                    (1, step + 1, trace.input_length), start_at, label,
                    state.pending_deps))
            else:
                units.append(RoundUnit(
                    "encoder", 0, trace.encoder_activations,
                    (trace.input_length,), start_at, label,
                    state.pending_deps))
        # A replay-eligible round is pure decode with no carried deps: every
        # dependency is then intra-batch, no op is arrival-gated, and the
        # round's op columns are a function of the activations alone.
        eligible = (replay is not None
                    and all(s.prefilled and not s.pending_deps
                            for s in active))
        if eligible:
            # Lane clocks as the round found them (the commit advances
            # them); nothing between commits moves a lane.
            lane_free_before = dict(timeline._lane_free)
        batch, starts, ends, passes, bounds, _ = self.run_round(timeline,
                                                                units)
        for state, em in zip(active, passes):
            if state.prefilled:
                state.token_times.append(float(ends[em.last_index]))
                state.next_decode += 1
            else:
                state.prefilled = True
            state.pending_deps = list(em.carry_deps)
            if state.first_scheduled_time is None:
                state.first_scheduled_time = float(starts[em.first_index])
        if spans is not None:
            route_log = self.placement.route_log
            for state, unit, em, pass_bounds in zip(active, units, passes,
                                                    bounds):
                spans.record_pass(
                    state.timed.request_id,
                    SPAN_DECODE if unit.part == "decoder" else SPAN_PREFILL,
                    unit.iteration,
                    float(starts[em.first_index]), float(ends[em.last_index]),
                    self._pass_fetches(batch, starts, ends, pass_bounds,
                                       route_log))
            del route_log[:]
        if replay is None:
            return
        if not eligible or (batch.dep_ids
                            and min(batch.dep_ids) < batch.base_id):
            replay.reset()
            return
        replay.observe(_RoundRecord(
            base_id=batch.base_id, num_ops=len(batch.stream),
            req_ids=tuple(s.timed.request_id for s in active),
            batch=batch, starts=starts, ends=ends,
            first_index=tuple(em.first_index for em in passes),
            last_index=tuple(em.last_index for em in passes),
            lane_free_before=lane_free_before,
            snapshot=timeline.replay_snapshot(),
            counters=self.placement.replay_counters(),
            peak_gpu_bytes=self.placement.peak_gpu_bytes))

    def _pass_fetches(self, batch: OpBatch, starts: np.ndarray,
                      ends: np.ndarray, bounds: Tuple[int, int, int, int],
                      route_log) -> List[PassFetch]:
        """Attribute one pass's expert-fetch ops to their routing decisions.

        ``route_fetch`` calls align 1:1 with ``CAT_EXPERT_TRANSFER`` copy ops
        in emission order, and a ``CAT_STAGE_IN`` op (when present) directly
        precedes its copy op — so the stage op peeks the route at the cursor
        without consuming it.
        """
        lo, hi, rlo, rhi = bounds
        routes = route_log[rlo:rhi] if route_log is not None else []
        categories = batch.category
        devices = batch.device
        num_bytes = batch.num_bytes
        fetches: List[PassFetch] = []
        cursor = 0
        for i in range(lo, hi):
            cat = categories[i]
            if cat == CAT_EXPERT_TRANSFER:
                tier, hit = (routes[cursor] if cursor < len(routes)
                             else ("unknown", False))
                cursor += 1
                kind = SPAN_FETCH
            elif cat == CAT_STAGE_IN:
                tier, hit = (routes[cursor] if cursor < len(routes)
                             else ("unknown", False))
                kind = SPAN_STAGE
            else:
                continue
            fetches.append(PassFetch(
                kind=kind, start=float(starts[i]), end=float(ends[i]),
                device=int(devices[i]), num_bytes=float(num_bytes[i]),
                source_tier=tier, stage_hit=hit))
        return fetches

    def _sample_probes(self, probes: ServingProbes, timeline: ArrayTimeline,
                       now: float, queue_depth: int, active_requests: int,
                       replay: Optional[_RoundReplay]) -> None:
        """Record one sample of every serving gauge at sim-time ``now``."""
        reg = probes.registry
        placement = self.placement
        reg.gauge("queue_depth", mode="max").sample(now, float(queue_depth))
        reg.gauge("active_requests").sample(now, float(active_requests))
        reg.gauge("hbm_used_bytes").sample(
            now, float(sum(s.pool.in_use for s in placement.shards)))
        reg.gauge("resident_expert_bytes").sample(
            now, float(sum(s.pool.category_usage("experts")
                           for s in placement.shards)))
        staged = sum(s.stage.resident_bytes for s in placement.shards
                     if s.stage is not None)
        reg.gauge("staged_expert_bytes").sample(now, float(staged))
        for d in range(placement.num_devices):
            reg.gauge(f"device{d}_utilisation", mode="mean").sample(
                now, timeline.device_utilisation(d))
        reg.gauge("replay_rounds").sample(
            now, float(replay.rounds if replay is not None else 0))
        for reason in _RoundReplay.STANDDOWN_REASONS:
            reg.gauge(f"replay_standdowns.{reason}").sample(
                now, float(replay.standdowns[reason]
                           if replay is not None else 0))
        reg.gauge("timeline_ops").sample(now, float(timeline.num_ops))
        probes.mark_sampled(now)

    def _finalise(self, state: _InFlightRequest, replica: int) -> ServedRequestResult:
        trace = state.trace
        return ServedRequestResult(
            request_id=state.timed.request_id, design=self.design,
            config_name=self.config.name,
            input_length=trace.input_length, output_length=trace.output_length,
            arrival_time=state.timed.arrival_time,
            first_scheduled_time=state.first_scheduled_time or 0.0,
            first_token_time=state.token_times[0] if state.token_times else 0.0,
            completion_time=state.token_times[-1] if state.token_times else 0.0,
            token_times=list(state.token_times), replica=replica)


def serve_load(design: str, config: "ModelConfig | str", load: LoadSpec,
               workload: Optional[WorkloadSpec] = None,
               system: SystemSpec = PAPER_SYSTEM,
               engine_config: Optional[EngineConfig] = None,
               max_batch_size: int = 8,
               cache_policy: Optional[str] = None,
               cache_capacity: Optional[int] = None,
               stage_policy: Optional[str] = None,
               stage_capacity: Optional[int] = None,
               num_gpus: Optional[int] = None,
               shard_policy: str = "contiguous",
               expert_weights: Optional[Sequence[float]] = None,
               interconnect: Optional[LinkSpec] = None,
               record_trace: bool = False,
               round_replay: bool = True,
               probe_interval: Optional[float] = None,
               span_log: bool = False) -> LoadTestResult:
    """Materialise a :class:`LoadSpec` and serve it on one replica.

    The one-call load-test entry point: open-loop specs timestamp requests
    with their arrival process and record the offered load; closed-loop
    specs use ``load.concurrency`` as the in-flight cap (each admission
    slot plays the role of one client issuing requests back-to-back).
    ``cache_policy``/``cache_capacity`` enable shared expert caching without
    constructing the residency map by hand; ``stage_policy``/
    ``stage_capacity`` enable the host-DRAM staging cache when serving an
    SSD-offload system (``SSD_SYSTEM``); ``num_gpus``/``shard_policy``
    shard the expert pool across an expert-parallel multi-GPU replica.
    """
    requests = generate_timed_requests(config, load, workload=workload)
    if load.mode == "closed":
        max_batch_size = load.concurrency
    scheduler = ContinuousBatchingScheduler(design, config, system=system,
                                            engine_config=engine_config,
                                            max_batch_size=max_batch_size,
                                            cache_policy=cache_policy,
                                            cache_capacity=cache_capacity,
                                            stage_policy=stage_policy,
                                            stage_capacity=stage_capacity,
                                            num_gpus=num_gpus,
                                            shard_policy=shard_policy,
                                            expert_weights=expert_weights,
                                            interconnect=interconnect,
                                            record_trace=record_trace,
                                            round_replay=round_replay,
                                            probe_interval=probe_interval,
                                            span_log=span_log)
    offered = load.request_rate if load.mode == "open" else None
    return scheduler.serve(requests, offered_load=offered)


def make_scheduler(design: str, config: "ModelConfig | str",
                   system: SystemSpec = PAPER_SYSTEM,
                   engine_config: Optional[EngineConfig] = None,
                   max_batch_size: int = 8,
                   cache_policy: Optional[str] = None,
                   cache_capacity: Optional[int] = None,
                   stage_policy: Optional[str] = None,
                   stage_capacity: Optional[int] = None,
                   num_gpus: Optional[int] = None,
                   shard_policy: str = "contiguous",
                   expert_weights: Optional[Sequence[float]] = None,
                   interconnect: Optional[LinkSpec] = None,
                   record_trace: bool = False,
                   round_replay: bool = True,
                   probe_interval: Optional[float] = None,
                   span_log: bool = False) -> ContinuousBatchingScheduler:
    """Factory mirroring :func:`repro.serving.engine.make_engine`."""
    return ContinuousBatchingScheduler(design, config, system=system,
                                       engine_config=engine_config,
                                       max_batch_size=max_batch_size,
                                       cache_policy=cache_policy,
                                       cache_capacity=cache_capacity,
                                       stage_policy=stage_policy,
                                       stage_capacity=stage_capacity,
                                       num_gpus=num_gpus,
                                       shard_policy=shard_policy,
                                       expert_weights=expert_weights,
                                       interconnect=interconnect,
                                       record_trace=record_trace,
                                       round_replay=round_replay,
                                       probe_interval=probe_interval,
                                       span_log=span_log)
