"""Multi-stream discrete-event execution timeline.

Models the hardware queues that matter for MoE offloading performance:

* the **compute stream** — GPU kernels execute in issue order;
* the **copy stream** — DRAM→GPU (or SSD→GPU) expert transfers execute in
  issue order, concurrently with the compute stream;
* the **stage stream** — SSD→DRAM staging reads, used when a host-DRAM
  staging cache fronts SSD-resident experts: the SSD read of one expert
  proceeds concurrently with *both* GPU compute and another expert's PCIe
  copy, which is exactly the decoupling a staging buffer buys.

An operation may declare dependencies on other operations (by id); it starts
at the latest of (a) the time its (stream, device) lane becomes free, (b)
the completion of all its dependencies and (c) its ``earliest_start`` (the
request's arrival).  This is exactly the overlap semantics of CUDA
streams with events, and is what produces Figure 9's execution timelines:
MoE-OnDemand's transfers depend on the same block's gate (serialised),
whereas Pre-gated MoE's transfers depend only on the *previous* block's
pre-gate and therefore overlap with expert execution.

Performance model of the timeline itself
----------------------------------------
Every aggregate a load test asks about — :attr:`~ArrayTimeline.makespan`,
per-lane busy time, device utilisation, exposed copy time, per-category op
counts/durations/bytes — is folded in as each batch commits, so querying
them is O(1) regardless of how many ops were ever scheduled.

For long serving runs the trace itself is the memory bottleneck: a
100k-request load schedules hundreds of millions of ops.  Constructing the
timeline with ``record_trace=False`` keeps only the *live* ops — those a
future op may still name as a dependency — and lets the owner retire ops it
knows can no longer be referenced (:meth:`retire_completed`).  Aggregates
are unaffected (they never consult the trace); trace-only queries
(:attr:`ops`, :meth:`render_ascii`, :meth:`to_records`) raise in this
mode.  The continuous-batching scheduler serves with ``record_trace=False``
by default and retires each round's ops as the round completes, keeping
resident op count O(active window) instead of O(total ops).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class Stream(Enum):
    """Hardware queue an operation executes on."""

    COMPUTE = "compute"
    COPY = "copy"
    #: Second copy queue: SSD→DRAM staging reads (the coldest hop of a
    #: multi-hop expert fetch), overlapping both compute and PCIe copies.
    STAGE = "stage"
    #: Intra-node GPU↔GPU interconnect (NVLink / PCIe-P2P): all-to-all
    #: token dispatch/combine traffic of expert-parallel replicas.
    INTERCONNECT = "interconnect"


#: Dense integer codes for streams, used by the columnar batch interface.
STREAMS: Tuple[Stream, ...] = (Stream.COMPUTE, Stream.COPY, Stream.STAGE,
                               Stream.INTERCONNECT)
STREAM_CODE: Dict[Stream, int] = {stream: code for code, stream in enumerate(STREAMS)}
_COMPUTE_CODE = STREAM_CODE[Stream.COMPUTE]
_NUM_STREAMS = len(STREAMS)


def lane_code(stream_code: int, device: int) -> int:
    """Dense integer key of the (stream, device) lane; keys the lane clocks
    and busy totals so the kernel never hashes a :class:`Stream`."""
    return stream_code + _NUM_STREAMS * device


def _lane_of(code: int) -> Tuple[Stream, int]:
    return STREAMS[code % _NUM_STREAMS], code // _NUM_STREAMS

# Interned op-category names.  Categories are a tiny closed set ("non_moe",
# "expert_transfer", …); the columnar batch stores the integer code so the
# hot path never hashes strings.
_CATEGORY_CODES: Dict[str, int] = {}
_CATEGORY_NAMES: List[str] = []


def category_code(category: str) -> int:
    """Intern ``category`` and return its dense integer code."""
    code = _CATEGORY_CODES.get(category)
    if code is None:
        code = len(_CATEGORY_NAMES)
        _CATEGORY_CODES[category] = code
        _CATEGORY_NAMES.append(category)
    return code


def category_name(code: int) -> str:
    return _CATEGORY_NAMES[code]


class OpBatch:
    """Column-oriented builder for a batch of timeline operations.

    Obtained from :meth:`ArrayTimeline.begin_batch`; op ids are assigned
    eagerly (``base_id + index``) so dependencies *within* the batch — the
    common case for a scheduling round — can be declared before the batch is
    committed.  Dependencies are stored flat (CSR-style ``dep_ids`` +
    ``dep_offsets``), avoiding one list object per op.  ``names`` is kept
    only when the owning timeline records a trace; no-trace serving never
    builds op-name strings at all.
    """

    __slots__ = ("base_id", "record_names", "stream", "device", "duration",
                 "earliest", "category", "num_bytes", "names", "dep_ids",
                 "dep_offsets")

    def __init__(self, base_id: int, record_names: bool) -> None:
        self.base_id = base_id
        self.record_names = record_names
        self.stream: List[int] = []
        self.device: List[int] = []
        self.duration: List[float] = []
        self.earliest: List[float] = []
        self.category: List[int] = []
        self.num_bytes: List[float] = []
        self.names: Optional[List[str]] = [] if record_names else None
        self.dep_ids: List[int] = []
        self.dep_offsets: List[int] = [0]

    def __len__(self) -> int:
        return len(self.duration)

    def add(self, stream_code: int, duration: float,
            deps: Sequence[int] = (), category: int = 0, device: int = 0,
            earliest_start: float = 0.0, num_bytes: float = 0.0,
            name: Optional[str] = None) -> int:
        """Append one op to the batch; returns its (global) op id."""
        self.stream.append(stream_code)
        self.device.append(device)
        self.duration.append(duration)
        self.earliest.append(earliest_start)
        self.category.append(category)
        self.num_bytes.append(num_bytes)
        if deps:
            self.dep_ids.extend(deps)
        self.dep_offsets.append(len(self.dep_ids))
        if self.names is not None:
            self.names.append(name if name is not None else "")
        return self.base_id + len(self.duration) - 1

    def add_run(self, durations: Sequence[float], categories: Sequence[int],
                deps: Sequence[int] = (), earliest_start: float = 0.0,
                names: Optional[Sequence[str]] = None) -> int:
        """Append a run of device-0 compute ops with one extend per column.

        ``deps`` and ``earliest_start`` gate the run's first op only; the
        rest follow it in lane order.  ``names`` is read only when the batch
        records names.  Returns the global op id of the run's first op.
        """
        k = len(durations)
        if k == 0:
            raise ValueError("a run needs at least one op")
        first = self.base_id + len(self.duration)
        self.stream.extend([_COMPUTE_CODE] * k)
        self.device.extend([0] * k)
        self.duration.extend(durations)
        self.earliest.append(earliest_start)
        self.earliest.extend([0.0] * (k - 1))
        self.category.extend(categories)
        self.num_bytes.extend([0.0] * k)
        if deps:
            self.dep_ids.extend(deps)
        self.dep_offsets.extend([len(self.dep_ids)] * k)
        if self.names is not None:
            self.names.extend(names)
        return first

    def op_label(self, index: int) -> str:
        """Human-readable identity of op ``index`` for error messages."""
        if self.names is not None and self.names[index]:
            name = repr(self.names[index])
        else:
            name = f"#{self.base_id + index}"
        stream = STREAMS[self.stream[index]]
        return (f"op {name} ({category_name(self.category[index])}) on lane "
                f"({stream.value}, device {self.device[index]})")


@dataclass
class TimelineOp:
    """One scheduled operation (a kernel or a transfer), as a trace reports it."""

    op_id: int
    name: str
    stream: Stream
    duration: float
    depends_on: List[int] = field(default_factory=list)
    category: str = "generic"
    start: float = 0.0
    end: float = 0.0
    #: Wall-clock time before which the op may not start regardless of
    #: stream/dependency readiness (e.g. the arrival time of the request it
    #: belongs to, for open-loop load simulations).
    earliest_start: float = 0.0
    #: GPU the op's queue belongs to.  Each (stream, device) pair is its own
    #: FIFO lane, so device 1's compute proceeds concurrently with device 0's
    #: (expert parallelism); single-GPU timelines leave every op on device 0.
    #: Interconnect ops are replica-wide and always use device 0.
    device: int = 0
    #: Payload bytes the op moves (transfers) — feeds the per-category byte
    #: aggregates; 0 for kernels.
    num_bytes: float = 0.0


class ArrayTimeline:
    """Schedules operations on per-device compute/copy/stage lanes.

    Ops arrive as :class:`OpBatch` columns (one batch per scheduling round)
    and are resolved by a tight loop over primitive lists — no per-op
    objects, name strings or attribute access — followed by vectorized
    per-batch folds of the category/lane aggregates.  Each op starts at
    ``max(dep ready, lane free, earliest_start)`` on its (stream, device)
    FIFO lane; dependency lookups hit a plain ``{op_id: (end, stream)}``
    dict for cross-batch deps and the in-flight ``ends`` list for
    intra-batch deps.  A single-GPU replica uses only device 0's lanes.

    Parameters
    ----------
    record_trace:
        ``False`` (default) keeps only ops that may still be referenced as
        dependencies; the owner retires finished ops via
        :meth:`retire_completed`, bounding memory for very long runs.
        ``True`` also keeps every committed batch so the trace queries
        (``ops``, ``render_ascii``, ``to_records``) can rebuild
        :class:`TimelineOp` objects on demand (the Figure 9 trace mode).
        All aggregate queries behave identically in both modes.
    """

    def __init__(self, record_trace: bool = False) -> None:
        self.record_trace = record_trace
        self._next_op_id = 0
        #: Lane clock by :func:`lane_code`.
        self._lane_free: Dict[int, float] = {}
        #: Live dependency info by op id: (end time, stream code).
        self._live_info: Dict[int, Tuple[float, int]] = {}
        self._peak_live_ops = 0
        # ---- incremental aggregates --------------------------------------
        self._makespan = 0.0
        self._lane_busy: Dict[int, float] = {}
        self._lane_exposed: Dict[int, float] = {}
        self._device_set: set = set()
        self._category_count: Dict[str, int] = {}
        self._category_duration: Dict[str, float] = {}
        self._category_bytes: Dict[str, float] = {}
        # ---- trace mode: ops, plus committed batches not yet rebuilt ------
        self._trace_ops: List[TimelineOp] = []
        self._trace_batches: List[Tuple[OpBatch, List[float], List[float]]] = []

    # ------------------------------------------------------------------
    def add(self, name: str, stream: Stream, duration: float,
            depends_on: Optional[Sequence[int]] = None,
            category: str = "generic", earliest_start: float = 0.0,
            device: int = 0, num_bytes: float = 0.0) -> TimelineOp:
        """Schedule one operation (a one-op batch) and return it.

        ``earliest_start`` gates the op on wall-clock time in addition to
        lane order and dependencies — no work for a request starts before
        the request has arrived.  ``num_bytes`` is the transfer payload
        (byte aggregates only; the caller already folded bandwidth into
        ``duration``).
        """
        # The name is always kept so validation errors can point at the op
        # even in no-trace mode.
        batch = OpBatch(self._next_op_id, record_names=True)
        deps = list(depends_on or [])
        batch.add(STREAM_CODE[stream], duration, deps=deps,
                  category=category_code(category), device=device,
                  earliest_start=earliest_start, num_bytes=num_bytes,
                  name=name)
        starts, ends = self.commit_batch(batch)
        return TimelineOp(op_id=batch.base_id, name=name, stream=stream,
                          duration=duration, depends_on=deps,
                          category=category, start=float(starts[0]),
                          end=float(ends[0]), earliest_start=earliest_start,
                          device=device, num_bytes=num_bytes)

    def begin_batch(self) -> OpBatch:
        """Start a columnar op batch whose ids continue this timeline's.

        The batch must be the *next* ops added (no interleaved :meth:`add`
        calls), is applied with :meth:`commit_batch`, and must not be
        changed after the commit.
        """
        return OpBatch(self._next_op_id, self.record_trace)

    # ------------------------------------------------------------------
    # The kernel
    # ------------------------------------------------------------------
    def commit_batch(self, batch: OpBatch) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve and fold in a batch; returns (starts, ends) arrays.

        Start and end times are exact ``max`` / ``+`` chains in op order.
        Summed aggregates (lane busy time, category durations and bytes)
        are folded per batch with :func:`numpy.bincount`, which may
        reassociate the float additions relative to a per-op sum.

        The commit is atomic: a batch with an invalid op (negative
        duration, earliest start or device, or a dependency on an op that
        is not live or not earlier in the batch) raises and leaves every
        lane clock, live op, aggregate and op id as they were.
        """
        if batch.base_id != self._next_op_id:
            raise RuntimeError(
                f"batch expects op ids from {batch.base_id} but the timeline "
                f"is at {self._next_op_id}; batches may not interleave with "
                "other adds")
        n = len(batch)
        if n == 0:
            return (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64))
        stream_codes = batch.stream
        devices = batch.device
        durations = batch.duration
        earliest = batch.earliest
        dep_ids = batch.dep_ids
        offsets = batch.dep_offsets
        base = batch.base_id
        lane_arr = np.array(stream_codes, dtype=np.int64)
        if any(devices):
            lane_arr += _NUM_STREAMS * np.array(devices, dtype=np.int64)
            lanes = lane_arr.tolist()
        else:
            # Every op on device 0: the lane codes are the stream codes.
            lanes = stream_codes
        # Value checks run once per batch (``not x >= 0`` also catches a
        # NaN that hides a negative from ``min``); the loop stops short of
        # the first invalid op so an earlier op's bad dependency still
        # reports first, as it would op by op.
        valid = n
        if not (min(durations) >= 0 and min(earliest) >= 0
                and min(devices) >= 0):
            valid = next((i for i in range(n) if durations[i] < 0
                          or earliest[i] < 0 or devices[i] < 0), n)
        starts: List[float] = []
        ends: List[float] = []
        add_start = starts.append
        add_end = ends.append
        lane_free = self._lane_free
        live_info = self._live_info
        exposed = self._lane_exposed
        # Lane clocks and exposed-copy totals move inside the loop; a bad
        # dependency restores them from these (a few entries each).
        saved = (dict(lane_free), dict(exposed))
        lo = 0
        for i, lane, earliest_start, duration, hi in zip(
                range(valid), lanes, earliest, durations, offsets[1:]):
            free = lane_free.get(lane, 0.0)
            start = free
            if hi == lo:
                # No dependency: the start is the lane clock or the arrival,
                # and a compute op cannot stall on a transfer.
                if earliest_start > start:
                    start = earliest_start
            else:
                ready = 0.0
                compute_ready = 0.0
                for dep in dep_ids[lo:hi]:
                    if dep >= base:
                        j = dep - base
                        if j >= i:
                            self._abort(saved, batch, i, dep)
                        dep_end = ends[j]
                        dep_stream = stream_codes[j]
                    else:
                        info = live_info.get(dep)
                        if info is None:
                            self._abort(saved, batch, i, dep)
                        dep_end, dep_stream = info
                    if dep_end > ready:
                        ready = dep_end
                    if dep_stream == _COMPUTE_CODE and dep_end > compute_ready:
                        compute_ready = dep_end
                lo = hi
                if ready > start:
                    start = ready
                if earliest_start > start:
                    start = earliest_start
                if stream_codes[i] == _COMPUTE_CODE:
                    # Online exposed-copy accounting (see exposed_copy_time):
                    # the stall beyond compute-side readiness.
                    stall_floor = free
                    if compute_ready > stall_floor:
                        stall_floor = compute_ready
                    if earliest_start > stall_floor:
                        stall_floor = earliest_start
                    stall = start - stall_floor
                    if stall > 0.0:
                        device = devices[i]
                        exposed[device] = exposed.get(device, 0.0) + stall
            end = start + duration
            lane_free[lane] = end
            add_start(start)
            add_end(end)
        if valid < n:
            self._abort(saved, batch, valid)
        self._next_op_id = base + n
        live_info.update(zip(range(base, base + n), zip(ends, stream_codes)))
        starts_arr = np.array(starts)
        ends_arr = np.array(ends)
        # ---- vectorized per-batch aggregate folds ------------------------
        duration_arr = np.array(durations, dtype=np.float64)
        batch_makespan = float(ends_arr.max())
        if batch_makespan > self._makespan:
            self._makespan = batch_makespan
        lane_counts = np.bincount(lane_arr)
        lane_sums = np.bincount(lane_arr, weights=duration_arr)
        lane_busy = self._lane_busy
        for lane in np.flatnonzero(lane_counts).tolist():
            lane_busy[lane] = lane_busy.get(lane, 0.0) + float(lane_sums[lane])
        self._device_set.update(devices)
        category_arr = np.array(batch.category, dtype=np.int64)
        num_categories = len(_CATEGORY_NAMES)
        counts = np.bincount(category_arr, minlength=num_categories)
        duration_sums = np.bincount(category_arr, weights=duration_arr,
                                    minlength=num_categories)
        bytes_arr = np.array(batch.num_bytes)
        byte_sums = np.bincount(category_arr, weights=bytes_arr,
                                minlength=num_categories)
        category_count = self._category_count
        category_duration = self._category_duration
        category_bytes = self._category_bytes
        for code in np.nonzero(counts)[0].tolist():
            name = _CATEGORY_NAMES[code]
            category_count[name] = category_count.get(name, 0) + int(counts[code])
            category_duration[name] = (
                category_duration.get(name, 0.0) + float(duration_sums[code]))
            if byte_sums[code]:
                category_bytes[name] = (
                    category_bytes.get(name, 0.0) + float(byte_sums[code]))
        if len(live_info) > self._peak_live_ops:
            self._peak_live_ops = len(live_info)
        if self.record_trace:
            self._trace_batches.append((batch, starts, ends))
        return starts_arr, ends_arr

    def _abort(self, saved: Tuple[Dict[int, float], Dict[int, float]],
               batch: OpBatch, index: int, dep: Optional[int] = None) -> None:
        """Undo the batch's lane clock and stall updates, then raise the
        error of op ``index``: a bad dependency ``dep``, or a bad value."""
        for live, before in zip((self._lane_free, self._lane_exposed), saved):
            live.clear()
            live.update(before)
        label = batch.op_label(index)
        if dep is not None:
            raise ValueError(
                f"{label}: dependency {dep} does not reference a scheduled "
                "op (retired, later in the batch, or never added)")
        if batch.duration[index] < 0:
            raise ValueError(f"{label}: duration must be non-negative "
                             f"(got {batch.duration[index]})")
        if batch.earliest[index] < 0:
            raise ValueError(f"{label}: earliest_start must be non-negative "
                             f"(got {batch.earliest[index]})")
        raise ValueError(f"{label}: device must be non-negative")

    # ------------------------------------------------------------------
    # Analytic fast-forward (round replay)
    # ------------------------------------------------------------------
    def replay_snapshot(self) -> Dict[str, object]:
        """Copy of every aggregate round replay extrapolates (cheap dicts).

        Lane entries are keyed by ``(stream, device)``.
        """
        return {
            "makespan": self._makespan,
            "lane_free": {_lane_of(k): v for k, v in self._lane_free.items()},
            "lane_busy": {_lane_of(k): v for k, v in self._lane_busy.items()},
            "lane_exposed": dict(self._lane_exposed),
            "category_count": dict(self._category_count),
            "category_duration": dict(self._category_duration),
            "category_bytes": dict(self._category_bytes),
        }

    def fast_forward(self, num_ops: int, makespan: float,
                     lane_free: Dict[Tuple[Stream, int], float],
                     lane_busy: Dict[Tuple[Stream, int], float],
                     lane_exposed: Dict[int, float],
                     category_count: Dict[str, int],
                     category_duration: Dict[str, float],
                     category_bytes: Dict[str, float]) -> None:
        """Apply a closed-form round-replay window to the aggregates.

        The caller (the scheduler's replay controller) has analytically
        advanced ``num_ops`` operations' worth of identical-shape rounds and
        supplies the resulting *absolute* aggregate values.  Lane clocks and
        aggregates jump; no per-op state is created, which is the point.
        Refused in trace mode — a trace must contain every op it claims to
        cover.
        """
        if self.record_trace:
            raise RuntimeError(
                "fast_forward is not available on a trace-recording timeline; "
                "round replay requires record_trace=False")
        if num_ops < 0:
            raise ValueError("num_ops must be non-negative")
        if makespan < self._makespan:
            raise ValueError(
                f"fast_forward may not rewind the makespan "
                f"({makespan} < {self._makespan})")
        self._next_op_id += num_ops
        self._makespan = makespan
        for lanes, values in ((self._lane_free, lane_free),
                              (self._lane_busy, lane_busy)):
            lanes.update((lane_code(STREAM_CODE[stream], device), value)
                         for (stream, device), value in values.items())
        self._lane_exposed.update(lane_exposed)
        self._category_count.update(category_count)
        self._category_duration.update(category_duration)
        self._category_bytes.update(category_bytes)

    # ------------------------------------------------------------------
    # Op retirement (bounded-memory serving mode)
    # ------------------------------------------------------------------
    def retire_completed(self, keep: Iterable[int] = ()) -> int:
        """Drop ops no future dependency can reference; returns the count.

        Only meaningful with ``record_trace=False`` (a no-op in trace mode —
        the trace is the point).  ``keep`` lists op ids that *may* still be
        named by future ops (e.g. a request's trailing all-to-all combine
        carried into its next pass); everything else is retired.  The
        caller owns the invariant: after this call, adding an op that
        depends on a retired id raises.  Aggregates and lane clocks are
        unaffected — retirement frees memory, never rewrites history.
        """
        if self.record_trace:
            return 0
        live = self._live_info
        kept = {op_id: live[op_id] for op_id in set(keep) if op_id in live}
        retired = len(live) - len(kept)
        live.clear()
        live.update(kept)
        return retired

    # ------------------------------------------------------------------
    # Queries (all O(1) / O(#lanes), served from the running aggregates)
    # ------------------------------------------------------------------
    @property
    def num_ops(self) -> int:
        """Total operations ever scheduled (retired ops included)."""
        return self._next_op_id

    @property
    def live_op_count(self) -> int:
        """Operations currently held in memory."""
        return len(self._live_info)

    @property
    def peak_live_ops(self) -> int:
        """High-water mark of resident ops (== :attr:`num_ops` in trace mode)."""
        return self._peak_live_ops

    @property
    def makespan(self) -> float:
        """Completion time of the last operation."""
        return self._makespan

    def stream_busy_time(self, stream: Stream, device: Optional[int] = None) -> float:
        code = STREAM_CODE[stream]
        if device is not None:
            return self._lane_busy.get(lane_code(code, device), 0.0)
        return sum(busy for lane, busy in self._lane_busy.items()
                   if lane % _NUM_STREAMS == code)

    def devices(self) -> List[int]:
        """Device ids that have scheduled at least one op (sorted)."""
        return sorted(self._device_set)

    def device_utilisation(self, device: int) -> float:
        """Fraction of the makespan the device's compute lane was busy."""
        total = self._makespan
        if total <= 0.0:
            return 0.0
        return self._lane_busy.get(lane_code(_COMPUTE_CODE, device), 0.0) / total

    def category_time(self, category: str) -> float:
        return self._category_duration.get(category, 0.0)

    def category_count(self, category: str) -> int:
        """Number of ops scheduled under ``category`` (O(1))."""
        return self._category_count.get(category, 0)

    def category_bytes(self, category: str) -> float:
        """Total payload bytes of ``category``'s transfer ops (O(1))."""
        return self._category_bytes.get(category, 0.0)

    def exposed_copy_time(self, device: Optional[int] = None) -> float:
        """Copy time not hidden under compute: the headline "how much
        migration latency was NOT overlapped" metric of the paper.

        Measured as the sum, over each device's compute-lane ops, of the
        stall each op suffers beyond its compute-side readiness: an op is
        "compute-ready" once the previous op of its lane has retired, its
        compute-stream dependencies have finished and its ``earliest_start``
        (request arrival) has passed.  Any additional wait is, by
        elimination, a stall on a copy/stage/interconnect dependency — i.e.
        exposed transfer time.  Idle gaps caused by compute-side dependencies
        or by waiting for request arrivals are *not* counted.

        Accumulated online as ops commit; ``device`` restricts the total
        to one compute lane.
        """
        if device is not None:
            return self._lane_exposed.get(device, 0.0)
        return sum(self._lane_exposed[d] for d in sorted(self._lane_exposed))

    def stream_free_time(self, stream: Stream, device: Optional[int] = None) -> float:
        """Time at which ``stream`` becomes free for the next queued op.

        With ``device=None`` this is the latest free time over every device's
        lane of the stream — "when is the whole replica's compute free".
        """
        code = STREAM_CODE[stream]
        if device is not None:
            return self._lane_free.get(lane_code(code, device), 0.0)
        lanes = [t for lane, t in self._lane_free.items()
                 if lane % _NUM_STREAMS == code]
        return max(lanes, default=0.0)

    def overlap_efficiency(self) -> float:
        """Fraction of copy-stream time hidden under compute (1.0 = fully hidden)."""
        copy_busy = self.stream_busy_time(Stream.COPY)
        if copy_busy == 0.0:
            return 1.0
        exposed = self.exposed_copy_time()
        return max(0.0, 1.0 - exposed / copy_busy)

    # ------------------------------------------------------------------
    # Trace queries (record_trace=True only)
    # ------------------------------------------------------------------
    def _trace(self, what: str) -> List[TimelineOp]:
        """Every committed op in id order.

        Ops are rebuilt from the committed batches on first query, so a
        trace costs one list append per batch while serving; each field
        carries the value the emitter passed in unchanged.
        """
        if not self.record_trace:
            raise RuntimeError(
                f"{what} needs the recorded trace; this timeline was built "
                "with record_trace=False (aggregate queries remain available)")
        ops = self._trace_ops
        if self._trace_batches:
            for batch, starts, ends in self._trace_batches:
                offsets = batch.dep_offsets
                names = batch.names
                for i in range(len(batch)):
                    ops.append(TimelineOp(
                        op_id=batch.base_id + i,
                        name=names[i] if names is not None else "",
                        stream=STREAMS[batch.stream[i]],
                        duration=batch.duration[i],
                        depends_on=batch.dep_ids[offsets[i]:offsets[i + 1]],
                        category=category_name(batch.category[i]),
                        start=starts[i], end=ends[i],
                        earliest_start=batch.earliest[i],
                        device=batch.device[i],
                        num_bytes=batch.num_bytes[i]))
            self._trace_batches.clear()
        return ops

    def op(self, op_id: int) -> TimelineOp:
        if not self.record_trace:
            raise KeyError(
                f"op {op_id} is not addressable: no op objects are kept "
                "with record_trace=False")
        ops = self._trace("op")
        if not 0 <= op_id < len(ops):
            raise KeyError(f"op {op_id} was never scheduled")
        return ops[op_id]

    @property
    def ops(self) -> List[TimelineOp]:
        return list(self._trace("ops"))

    def stream_ops(self, stream: Stream, device: Optional[int] = None) -> List[TimelineOp]:
        return [op for op in self._trace("stream_ops")
                if op.stream == stream and (device is None or op.device == device)]

    def ops_by_category(self, category: str) -> List[TimelineOp]:
        return [op for op in self._trace("ops_by_category")
                if op.category == category]

    # ------------------------------------------------------------------
    # Rendering (Figure 9 style traces)
    # ------------------------------------------------------------------
    def render_ascii(self, width: int = 80, label_width: int = 28) -> str:
        """Render a compact two-row Gantt chart of the timeline.

        A quick terminal sketch; for a zoomable, queryable view export the
        timeline with :func:`repro.obs.trace_export.write_chrome_trace`
        and open it in Perfetto / chrome://tracing.
        """
        if not self._trace("render_ascii"):
            return "(empty timeline)"
        total = self.makespan
        lines = []
        devices = self.devices()
        multi_device = devices != [0]
        lanes: List[Tuple[Stream, int]] = []
        for stream in (Stream.COMPUTE, Stream.COPY):
            lanes.extend((stream, d) for d in devices
                         if d == 0 or self.stream_ops(stream, d))
        for stream in (Stream.STAGE, Stream.INTERCONNECT):
            lanes.extend((stream, d) for d in devices if self.stream_ops(stream, d))
        for stream, device in lanes:
            cells = [" "] * width
            for op in self.stream_ops(stream, device):
                lo = int(op.start / total * (width - 1)) if total else 0
                hi = max(lo + 1, int(op.end / total * (width - 1)) + 1) if total else 1
                symbol = op.name[0].upper() if op.name else "#"
                for i in range(lo, min(hi, width)):
                    cells[i] = symbol
            name = f"{stream.value}[{device}]" if multi_device else stream.value
            label = f"{name:<{label_width}}"[:label_width]
            lines.append(f"{label}|{''.join(cells)}|")
        lines.append(f"{'(makespan)':<{label_width}} {total * 1e3:.3f} ms")
        return "\n".join(lines)

    def to_records(self) -> List[Dict[str, object]]:
        """Timeline as a list of dictionaries (CSV emission / reporting /
        the Perfetto exporter in :mod:`repro.obs.trace_export`)."""
        return [
            {
                "op_id": op.op_id,
                "name": op.name,
                "stream": op.stream.value,
                "device": op.device,
                "category": op.category,
                "start": op.start,
                "end": op.end,
                "duration": op.duration,
                "num_bytes": op.num_bytes,
                "earliest_start": op.earliest_start,
            }
            for op in self._trace("to_records")
        ]
