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
at the later of (a) the time its stream becomes free and (b) the completion
of all its dependencies.  This is exactly the overlap semantics of CUDA
streams with events, and is what produces Figure 9's execution timelines:
MoE-OnDemand's transfers depend on the same block's gate (serialised),
whereas Pre-gated MoE's transfers depend only on the *previous* block's
pre-gate and therefore overlap with expert execution.

Performance model of the timeline itself
----------------------------------------
Every aggregate a load test asks about — :attr:`~ExecutionTimeline.makespan`,
per-lane busy time, device utilisation, exposed copy time, per-category op
counts/durations/bytes — is maintained *incrementally* inside :meth:`add`,
so querying them is O(1) regardless of how many ops were ever scheduled.
(The original implementation recomputed them by scanning the full op list;
called once per decoder iteration that made serving loads accidentally
quadratic in request count.)

For long serving runs the trace itself is the memory bottleneck: a
100k-request load schedules hundreds of millions of ops.  Constructing the
timeline with ``record_trace=False`` keeps only the *live* ops — those a
future op may still name as a dependency — and lets the owner retire ops it
knows can no longer be referenced (:meth:`retire_completed`).  Aggregates
are unaffected (they never consult the trace); trace-only queries
(:attr:`ops`, :meth:`render_ascii`, :meth:`to_records`, the ``scan_*``
reference implementations) raise in this mode.  The continuous-batching
scheduler serves with ``record_trace=False`` by default and retires each
round's ops as the round completes, keeping resident op count O(active
window) instead of O(total ops).
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

    Obtained from :meth:`ExecutionTimeline.begin_batch`; op ids are assigned
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
    """One scheduled operation (a kernel or a transfer)."""

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

    @property
    def scheduled(self) -> bool:
        return self.end > 0.0 or self.duration == 0.0


class ExecutionTimeline:
    """Schedules operations on per-device compute/copy/stage lanes.

    Operations are scheduled eagerly as they are added (each (stream, device)
    lane is FIFO and dependencies must already exist), so querying times is
    O(1) and the object doubles as an execution trace.  A single-GPU replica
    uses only device 0's lanes, which reproduces the original two-stream
    timeline exactly.

    Parameters
    ----------
    record_trace:
        ``True`` (default) keeps every op for rendering / record export (the
        Figure 9 trace mode).  ``False`` keeps only ops that may still be
        referenced as dependencies; the owner retires finished ops via
        :meth:`retire_completed`, bounding memory for very long runs.  All
        aggregate queries behave identically in both modes.
    """

    def __init__(self, record_trace: bool = True) -> None:
        self.record_trace = record_trace
        #: Live ops by id (all ops ever added in trace mode; the un-retired
        #: window otherwise).  Insertion-ordered.
        self._live: Dict[int, TimelineOp] = {}
        self._next_op_id = 0
        self._lane_free: Dict[Tuple[Stream, int], float] = {}
        # ---- incremental aggregates --------------------------------------
        self._makespan = 0.0
        self._lane_busy: Dict[Tuple[Stream, int], float] = {}
        self._lane_exposed: Dict[int, float] = {}
        self._device_set: set = set()
        self._category_count: Dict[str, int] = {}
        self._category_duration: Dict[str, float] = {}
        self._category_bytes: Dict[str, float] = {}
        self._retired_count = 0
        self._peak_live_ops = 0

    # ------------------------------------------------------------------
    def add(self, name: str, stream: Stream, duration: float,
            depends_on: Optional[Sequence[int]] = None,
            category: str = "generic", earliest_start: float = 0.0,
            device: int = 0, num_bytes: float = 0.0) -> TimelineOp:
        """Schedule an operation and return it (with start/end filled in).

        ``earliest_start`` gates the op on wall-clock time in addition to
        lane order and dependencies — used by the request scheduler so no
        work for a request starts before the request has arrived.
        ``device`` selects the GPU whose lane of ``stream`` the op joins;
        ``num_bytes`` is the transfer payload (byte aggregates only — it
        does not affect timing, the caller already folded bandwidth into
        ``duration``).
        """
        label = f"op {name!r} on lane ({stream.value}, device {device})"
        if duration < 0:
            raise ValueError(
                f"{label}: duration must be non-negative (got {duration})")
        if earliest_start < 0:
            raise ValueError(
                f"{label}: earliest_start must be non-negative (got {earliest_start})")
        if device < 0:
            raise ValueError(f"{label}: device must be non-negative")
        live = self._live
        deps = list(depends_on or [])
        ready = 0.0
        compute_dep_ready = 0.0
        for dep in deps:
            dep_op = live.get(dep)
            if dep_op is None:
                raise ValueError(
                    f"{label}: dependency {dep} does not reference a scheduled "
                    "op (retired, or never added)")
            if dep_op.end > ready:
                ready = dep_op.end
            if dep_op.stream is Stream.COMPUTE and dep_op.end > compute_dep_ready:
                compute_dep_ready = dep_op.end
        op_id = self._next_op_id
        self._next_op_id = op_id + 1
        op = TimelineOp(op_id=op_id, name=name, stream=stream,
                        duration=duration, depends_on=deps, category=category,
                        earliest_start=earliest_start, device=device,
                        num_bytes=num_bytes)
        lane = (stream, device)
        lane_free = self._lane_free.get(lane, 0.0)
        start = max(ready, lane_free, earliest_start)
        op.start = start
        end = start + duration
        op.end = end
        self._lane_free[lane] = end
        live[op_id] = op
        # ---- fold the op into the running aggregates ---------------------
        if end > self._makespan:
            self._makespan = end
        self._lane_busy[lane] = self._lane_busy.get(lane, 0.0) + duration
        self._device_set.add(device)
        self._category_count[category] = self._category_count.get(category, 0) + 1
        self._category_duration[category] = (
            self._category_duration.get(category, 0.0) + duration)
        if num_bytes:
            self._category_bytes[category] = (
                self._category_bytes.get(category, 0.0) + num_bytes)
        if stream is Stream.COMPUTE:
            # Online exposed-copy accounting: the op was compute-ready once
            # its lane drained, its compute-stream dependencies finished and
            # its arrival gate passed; any further wait is a stall on a
            # copy/stage/interconnect dependency — exposed transfer time.
            compute_ready = max(lane_free, compute_dep_ready, earliest_start)
            stall = start - compute_ready
            if stall > 0.0:
                self._lane_exposed[device] = (
                    self._lane_exposed.get(device, 0.0) + stall)
        if len(live) > self._peak_live_ops:
            self._peak_live_ops = len(live)
        return op

    def add_compute(self, name: str, duration: float,
                    depends_on: Optional[Sequence[int]] = None,
                    category: str = "compute", earliest_start: float = 0.0,
                    device: int = 0) -> TimelineOp:
        return self.add(name, Stream.COMPUTE, duration, depends_on, category,
                        earliest_start=earliest_start, device=device)

    def add_copy(self, name: str, duration: float,
                 depends_on: Optional[Sequence[int]] = None,
                 category: str = "copy", earliest_start: float = 0.0,
                 device: int = 0, num_bytes: float = 0.0) -> TimelineOp:
        return self.add(name, Stream.COPY, duration, depends_on, category,
                        earliest_start=earliest_start, device=device,
                        num_bytes=num_bytes)

    def add_stage(self, name: str, duration: float,
                  depends_on: Optional[Sequence[int]] = None,
                  category: str = "stage_in", earliest_start: float = 0.0,
                  device: int = 0, num_bytes: float = 0.0) -> TimelineOp:
        """Schedule an SSD→DRAM staging read on the stage copy stream."""
        return self.add(name, Stream.STAGE, duration, depends_on, category,
                        earliest_start=earliest_start, device=device,
                        num_bytes=num_bytes)

    def add_interconnect(self, name: str, duration: float,
                         depends_on: Optional[Sequence[int]] = None,
                         category: str = "alltoall",
                         num_bytes: float = 0.0) -> TimelineOp:
        """Schedule an all-to-all dispatch/combine on the interconnect queue."""
        return self.add(name, Stream.INTERCONNECT, duration, depends_on, category,
                        num_bytes=num_bytes)

    # ------------------------------------------------------------------
    # Batched op interface (the array-kernel entry point)
    # ------------------------------------------------------------------
    def begin_batch(self) -> OpBatch:
        """Start a columnar op batch whose ids continue this timeline's.

        The batch must be the *next* ops added (no interleaved :meth:`add`
        calls) and is applied with :meth:`commit_batch` / :meth:`add_ops`.
        """
        return OpBatch(self._next_op_id, self.record_trace)

    def commit_batch(self, batch: OpBatch) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve and fold in a batch; returns (starts, ends) arrays.

        This reference implementation replays the batch through
        :meth:`add`, one op at a time — bit-identical to having never
        batched.  :class:`ArrayTimeline` overrides it with the columnar
        kernel.
        """
        if batch.base_id != self._next_op_id:
            raise RuntimeError(
                f"batch expects op ids from {batch.base_id} but the timeline "
                f"is at {self._next_op_id}; batches may not interleave with "
                "other adds")
        n = len(batch)
        starts = np.empty(n, dtype=np.float64)
        ends = np.empty(n, dtype=np.float64)
        offsets = batch.dep_offsets
        dep_ids = batch.dep_ids
        names = batch.names
        for i in range(n):
            op = self.add(
                names[i] if names is not None else f"op#{batch.base_id + i}",
                STREAMS[batch.stream[i]], batch.duration[i],
                depends_on=dep_ids[offsets[i]:offsets[i + 1]],
                category=category_name(batch.category[i]),
                earliest_start=batch.earliest[i], device=batch.device[i],
                num_bytes=batch.num_bytes[i])
            starts[i] = op.start
            ends[i] = op.end
        return starts, ends

    def add_ops(self, batch: OpBatch) -> Tuple[np.ndarray, np.ndarray]:
        """Alias of :meth:`commit_batch` (the batched ``add``)."""
        return self.commit_batch(batch)

    # ------------------------------------------------------------------
    # Analytic fast-forward (round replay)
    # ------------------------------------------------------------------
    def replay_snapshot(self) -> Dict[str, object]:
        """Copy of every aggregate round replay extrapolates (cheap dicts)."""
        return {
            "makespan": self._makespan,
            "lane_free": dict(self._lane_free),
            "lane_busy": dict(self._lane_busy),
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
        self._retired_count += num_ops
        self._makespan = makespan
        self._lane_free.update(lane_free)
        self._lane_busy.update(lane_busy)
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
        named by future :meth:`add` calls (e.g. a request's trailing
        all-to-all combine carried into its next pass); everything else is
        retired.  The caller owns the invariant: after this call, adding an
        op that depends on a retired id raises.  Aggregates and lane clocks
        are unaffected — retirement frees memory, never rewrites history.
        """
        if self.record_trace:
            return 0
        keep_set = set(keep)
        live = self._live
        if keep_set:
            retired = [op_id for op_id in live if op_id not in keep_set]
        else:
            retired = list(live)
        for op_id in retired:
            del live[op_id]
        self._retired_count += len(retired)
        return len(retired)

    # ------------------------------------------------------------------
    # Queries (all O(1) / O(#lanes), served from the running aggregates)
    # ------------------------------------------------------------------
    def op(self, op_id: int) -> TimelineOp:
        try:
            return self._live[op_id]
        except KeyError:
            raise KeyError(
                f"op {op_id} is not live (retired, or never scheduled)") from None

    @property
    def num_ops(self) -> int:
        """Total operations ever scheduled (retired ops included)."""
        return self._next_op_id

    @property
    def live_op_count(self) -> int:
        """Operations currently held in memory."""
        return len(self._live)

    @property
    def peak_live_ops(self) -> int:
        """High-water mark of resident ops (== :attr:`num_ops` in trace mode)."""
        return self._peak_live_ops

    @property
    def ops(self) -> List[TimelineOp]:
        self._require_trace("ops")
        return list(self._live.values())

    @property
    def makespan(self) -> float:
        """Completion time of the last operation."""
        return self._makespan

    def stream_busy_time(self, stream: Stream, device: Optional[int] = None) -> float:
        if device is not None:
            return self._lane_busy.get((stream, device), 0.0)
        return sum(busy for (s, _), busy in self._lane_busy.items() if s is stream)

    def stream_ops(self, stream: Stream, device: Optional[int] = None) -> List[TimelineOp]:
        self._require_trace("stream_ops")
        return [op for op in self._live.values()
                if op.stream == stream and (device is None or op.device == device)]

    def devices(self) -> List[int]:
        """Device ids that have scheduled at least one op (sorted)."""
        return sorted(self._device_set)

    def device_utilisation(self, device: int) -> float:
        """Fraction of the makespan the device's compute lane was busy."""
        total = self._makespan
        if total <= 0.0:
            return 0.0
        return self._lane_busy.get((Stream.COMPUTE, device), 0.0) / total

    def category_time(self, category: str) -> float:
        return self._category_duration.get(category, 0.0)

    def category_count(self, category: str) -> int:
        """Number of ops scheduled under ``category`` (O(1))."""
        return self._category_count.get(category, 0)

    def category_bytes(self, category: str) -> float:
        """Total payload bytes of ``category``'s transfer ops (O(1))."""
        return self._category_bytes.get(category, 0.0)

    def ops_by_category(self, category: str) -> List[TimelineOp]:
        self._require_trace("ops_by_category")
        return [op for op in self._live.values() if op.category == category]

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

        Accumulated online as ops are added; ``device`` restricts the total
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
        if device is not None:
            return self._lane_free.get((stream, device), 0.0)
        lanes = [t for (s, _), t in self._lane_free.items() if s == stream]
        return max(lanes, default=0.0)

    def overlap_efficiency(self) -> float:
        """Fraction of copy-stream time hidden under compute (1.0 = fully hidden)."""
        copy_busy = self.stream_busy_time(Stream.COPY)
        if copy_busy == 0.0:
            return 1.0
        exposed = self.exposed_copy_time()
        return max(0.0, 1.0 - exposed / copy_busy)

    # ------------------------------------------------------------------
    # Scan-based reference implementations (trace mode only)
    # ------------------------------------------------------------------
    # These recompute the aggregates from the recorded trace, exactly as the
    # original O(n) queries did.  They exist so the parity tests can pin the
    # incremental aggregates against first-principles scans; production code
    # should use the O(1) properties above.
    def _require_trace(self, what: str) -> None:
        if not self.record_trace:
            raise RuntimeError(
                f"{what} needs the recorded trace; this timeline was built "
                "with record_trace=False (aggregate queries remain available)")

    def scan_makespan(self) -> float:
        self._require_trace("scan_makespan")
        return max((op.end for op in self._live.values()), default=0.0)

    def scan_stream_busy_time(self, stream: Stream,
                              device: Optional[int] = None) -> float:
        self._require_trace("scan_stream_busy_time")
        return sum(op.duration for op in self._live.values()
                   if op.stream == stream and (device is None or op.device == device))

    def scan_category_time(self, category: str) -> float:
        self._require_trace("scan_category_time")
        return sum(op.duration for op in self._live.values() if op.category == category)

    def scan_exposed_copy_time(self) -> float:
        self._require_trace("scan_exposed_copy_time")
        exposed = 0.0
        for device in self.devices():
            prev_end = 0.0
            for op in self.stream_ops(Stream.COMPUTE, device):
                compute_dep_ready = max(
                    (self._live[d].end for d in op.depends_on
                     if self._live[d].stream == Stream.COMPUTE), default=0.0)
                compute_ready = max(prev_end, compute_dep_ready, op.earliest_start)
                exposed += max(0.0, op.start - compute_ready)
                prev_end = op.end
        return exposed

    # ------------------------------------------------------------------
    # Rendering (Figure 9 style traces)
    # ------------------------------------------------------------------
    def render_ascii(self, width: int = 80, label_width: int = 28) -> str:
        """Render a compact two-row Gantt chart of the timeline.

        A quick terminal sketch; for a zoomable, queryable view export the
        timeline with :func:`repro.obs.trace_export.write_chrome_trace`
        and open it in Perfetto / chrome://tracing.
        """
        self._require_trace("render_ascii")
        if not self._live:
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
        self._require_trace("to_records")
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
            for op in self._live.values()
        ]


class _LaneStore:
    """Growable columnar op storage for one (stream, device) lane.

    Preallocated numpy columns (doubling growth) for the numeric fields;
    names and dependency tuples stay Python lists (ragged).  Only built in
    trace mode — no-trace array timelines store no per-op state at all.
    """

    __slots__ = ("size", "op_id", "start", "end", "duration", "num_bytes",
                 "earliest", "category", "names", "deps")

    _COLUMNS = ("op_id", "start", "end", "duration", "num_bytes",
                "earliest", "category")

    def __init__(self, capacity: int = 256) -> None:
        self.size = 0
        self.op_id = np.empty(capacity, dtype=np.int64)
        self.start = np.empty(capacity, dtype=np.float64)
        self.end = np.empty(capacity, dtype=np.float64)
        self.duration = np.empty(capacity, dtype=np.float64)
        self.num_bytes = np.empty(capacity, dtype=np.float64)
        self.earliest = np.empty(capacity, dtype=np.float64)
        self.category = np.empty(capacity, dtype=np.int32)
        self.names: List[str] = []
        self.deps: List[Tuple[int, ...]] = []

    def append(self, op_id: int, start: float, end: float, duration: float,
               num_bytes: float, earliest: float, category: int,
               name: str, deps: Tuple[int, ...]) -> None:
        row = self.size
        if row == len(self.op_id):
            for column in self._COLUMNS:
                old = getattr(self, column)
                grown = np.empty(2 * len(old), dtype=old.dtype)
                grown[:row] = old
                setattr(self, column, grown)
        self.op_id[row] = op_id
        self.start[row] = start
        self.end[row] = end
        self.duration[row] = duration
        self.num_bytes[row] = num_bytes
        self.earliest[row] = earliest
        self.category[row] = category
        self.names.append(name)
        self.deps.append(deps)
        self.size = row + 1


class ArrayTimeline(ExecutionTimeline):
    """Array-backed timeline engine: same API, columnar hot path.

    Ops arrive as :class:`OpBatch` columns (one batch per scheduling round)
    and are resolved by a tight loop over primitive lists — no
    :class:`TimelineOp` objects, no per-op name strings, no per-op attribute
    access — followed by vectorized per-batch folds of the category/lane
    aggregates.  Dependency lookups hit a plain ``{op_id: (end, stream)}``
    dict for cross-batch deps and the in-flight ``ends`` list for
    intra-batch deps.

    Start times are the same ``max(dep ready, lane free, earliest_start)``
    chain the per-op :class:`ExecutionTimeline` reference computes, in the
    same order, so all *time* results (starts, ends, makespan, token
    clocks) are bit-identical to it.  Summed aggregates (lane busy time,
    category durations) are folded per batch with :func:`numpy.bincount`
    instead of per op, which reassociates the float additions — the parity
    tests pin them to the reference at 1e-9.

    With ``record_trace=True`` each committed op is also appended to
    preallocated, growable per-lane column arrays (:class:`_LaneStore`);
    trace queries (``ops``, ``render_ascii``, ``to_records``, ``scan_*``)
    lazily materialise :class:`TimelineOp` objects from the columns, so the
    full trace API keeps working at reconstruction cost only when asked.
    """

    def __init__(self, record_trace: bool = False) -> None:
        super().__init__(record_trace=record_trace)
        #: Live dependency info by op id: (end time, stream code).
        self._live_info: Dict[int, Tuple[float, int]] = {}
        self._lanes: Dict[Tuple[Stream, int], _LaneStore] = {}
        self._trace_dirty = False

    # ------------------------------------------------------------------
    # Scalar add routes through the kernel (one-op batch)
    # ------------------------------------------------------------------
    def add(self, name: str, stream: Stream, duration: float,
            depends_on: Optional[Sequence[int]] = None,
            category: str = "generic", earliest_start: float = 0.0,
            device: int = 0, num_bytes: float = 0.0) -> TimelineOp:
        # One-op batch; the name is always kept so validation errors can
        # point at the op even in no-trace mode.
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

    # ------------------------------------------------------------------
    # The kernel
    # ------------------------------------------------------------------
    def commit_batch(self, batch: OpBatch) -> Tuple[np.ndarray, np.ndarray]:
        if batch.base_id != self._next_op_id:
            raise RuntimeError(
                f"batch expects op ids from {batch.base_id} but the timeline "
                f"is at {self._next_op_id}; batches may not interleave with "
                "other adds")
        n = len(batch)
        if n == 0:
            return (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64))
        streams_t = STREAMS
        stream_codes = batch.stream
        devices = batch.device
        durations = batch.duration
        earliest = batch.earliest
        dep_ids = batch.dep_ids
        offsets = batch.dep_offsets
        base = batch.base_id
        starts: List[float] = [0.0] * n
        ends: List[float] = [0.0] * n
        lane_free = self._lane_free
        live_info = self._live_info
        exposed = self._lane_exposed
        for i in range(n):
            duration = durations[i]
            earliest_start = earliest[i]
            device = devices[i]
            if duration < 0 or earliest_start < 0 or device < 0:
                self._raise_invalid_op(batch, i)
            s_code = stream_codes[i]
            lane = (streams_t[s_code], device)
            free = lane_free.get(lane, 0.0)
            ready = 0.0
            compute_ready = 0.0
            for k in range(offsets[i], offsets[i + 1]):
                dep = dep_ids[k]
                if dep >= base:
                    j = dep - base
                    if j >= i:
                        self._raise_bad_dep(batch, i, dep)
                    dep_end = ends[j]
                    dep_stream = stream_codes[j]
                else:
                    info = live_info.get(dep)
                    if info is None:
                        self._raise_bad_dep(batch, i, dep)
                    dep_end, dep_stream = info
                if dep_end > ready:
                    ready = dep_end
                if dep_stream == _COMPUTE_CODE and dep_end > compute_ready:
                    compute_ready = dep_end
            start = free
            if ready > start:
                start = ready
            if earliest_start > start:
                start = earliest_start
            end = start + duration
            lane_free[lane] = end
            starts[i] = start
            ends[i] = end
            live_info[base + i] = (end, s_code)
            if s_code == _COMPUTE_CODE:
                # Online exposed-copy accounting, same definition as the
                # per-op reference: stall beyond compute-side readiness.
                stall_floor = free
                if compute_ready > stall_floor:
                    stall_floor = compute_ready
                if earliest_start > stall_floor:
                    stall_floor = earliest_start
                stall = start - stall_floor
                if stall > 0.0:
                    exposed[device] = exposed.get(device, 0.0) + stall
        self._next_op_id = base + n
        starts_arr = np.array(starts)
        ends_arr = np.array(ends)
        # ---- vectorized per-batch aggregate folds ------------------------
        duration_arr = np.array(durations)
        batch_makespan = float(ends_arr.max())
        if batch_makespan > self._makespan:
            self._makespan = batch_makespan
        stream_arr = np.array(stream_codes, dtype=np.int64)
        device_arr = np.array(devices, dtype=np.int64)
        lane_keys = (stream_arr << 32) | device_arr
        unique_lanes, inverse = np.unique(lane_keys, return_inverse=True)
        lane_sums = np.bincount(inverse, weights=duration_arr)
        lane_busy = self._lane_busy
        for key, busy in zip(unique_lanes.tolist(), lane_sums.tolist()):
            lane = (streams_t[key >> 32], key & 0xFFFFFFFF)
            lane_busy[lane] = lane_busy.get(lane, 0.0) + busy
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
            self._store_trace_rows(batch, starts, ends)
        return starts_arr, ends_arr

    def _raise_invalid_op(self, batch: OpBatch, index: int) -> None:
        label = batch.op_label(index)
        if batch.duration[index] < 0:
            raise ValueError(f"{label}: duration must be non-negative "
                             f"(got {batch.duration[index]})")
        if batch.earliest[index] < 0:
            raise ValueError(f"{label}: earliest_start must be non-negative "
                             f"(got {batch.earliest[index]})")
        raise ValueError(f"{label}: device must be non-negative")

    def _raise_bad_dep(self, batch: OpBatch, index: int, dep: int) -> None:
        raise ValueError(
            f"{batch.op_label(index)}: dependency {dep} does not reference a "
            "scheduled op (retired, later in the batch, or never added)")

    # ------------------------------------------------------------------
    # Retirement / live-window bookkeeping
    # ------------------------------------------------------------------
    def retire_completed(self, keep: Iterable[int] = ()) -> int:
        if self.record_trace:
            return 0
        keep_set = set(keep)
        live = self._live_info
        if keep_set:
            retired = [op_id for op_id in live if op_id not in keep_set]
        else:
            retired = list(live)
        for op_id in retired:
            del live[op_id]
        self._retired_count += len(retired)
        return len(retired)

    @property
    def live_op_count(self) -> int:
        return len(self._live_info)

    def op(self, op_id: int) -> TimelineOp:
        if self.record_trace:
            self._materialise()
            return super().op(op_id)
        raise KeyError(
            f"op {op_id} is not addressable: an ArrayTimeline keeps no op "
            "objects with record_trace=False")

    # ------------------------------------------------------------------
    # Trace reconstruction (columns → TimelineOp objects, on demand)
    # ------------------------------------------------------------------
    def _store_trace_rows(self, batch: OpBatch, starts: Sequence[float],
                          ends: Sequence[float]) -> None:
        lanes = self._lanes
        offsets = batch.dep_offsets
        names = batch.names
        for i in range(len(batch)):
            lane = (STREAMS[batch.stream[i]], batch.device[i])
            store = lanes.get(lane)
            if store is None:
                store = lanes[lane] = _LaneStore()
            store.append(batch.base_id + i, starts[i], ends[i],
                         batch.duration[i], batch.num_bytes[i],
                         batch.earliest[i], batch.category[i],
                         names[i] if names is not None else "",
                         tuple(batch.dep_ids[offsets[i]:offsets[i + 1]]))
        self._trace_dirty = True

    def _require_trace(self, what: str) -> None:
        super()._require_trace(what)
        self._materialise()

    def _materialise(self) -> None:
        if not self._trace_dirty:
            return
        ops: List[TimelineOp] = []
        for (stream, device), store in self._lanes.items():
            for row in range(store.size):
                ops.append(TimelineOp(
                    op_id=int(store.op_id[row]), name=store.names[row],
                    stream=stream, duration=float(store.duration[row]),
                    depends_on=list(store.deps[row]),
                    category=category_name(int(store.category[row])),
                    start=float(store.start[row]), end=float(store.end[row]),
                    earliest_start=float(store.earliest[row]), device=device,
                    num_bytes=float(store.num_bytes[row])))
        ops.sort(key=lambda op: op.op_id)
        self._live.clear()
        for op in ops:
            self._live[op.op_id] = op
        self._trace_dirty = False

