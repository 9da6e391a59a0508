"""A naive per-op timeline scheduler: the oracle for the timeline kernel.

Test-only and deliberately independent of :class:`ArrayTimeline`.  It
imports nothing from ``repro`` but the batch data format, schedules one op
at a time, keeps every op it ever scheduled, and derives each aggregate by
brute force over that list when asked.  Nothing is accumulated online, no
numpy reduction is involved and there is no retirement, so a bug in the
kernel's scheduling or in its incremental folds has no shared code to hide
behind.

The rule is Figure 9's: an op starts at ``max(dep ready, lane free,
earliest_start)``, where a lane is one (stream, device) FIFO queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.system.timeline import STREAMS, OpBatch, Stream, category_name


@dataclass
class ReferenceOp:
    stream: Stream
    device: int
    category: str
    duration: float
    earliest_start: float
    num_bytes: float
    deps: Tuple[int, ...]
    start: float
    end: float


class ReferenceTimeline:
    def __init__(self) -> None:
        self.ops: List[ReferenceOp] = []
        self._lane_end: Dict[Tuple[Stream, int], float] = {}

    def add(self, stream: Stream, duration: float, deps: Sequence[int] = (),
            category: str = "generic", device: int = 0,
            earliest_start: float = 0.0, num_bytes: float = 0.0) -> ReferenceOp:
        if duration < 0 or earliest_start < 0 or device < 0:
            raise ValueError("negative duration, earliest_start or device")
        if any(not 0 <= dep < len(self.ops) for dep in deps):
            raise ValueError(f"dependency of op {len(self.ops)} not yet scheduled")
        lane = (stream, device)
        ready = max([self.ops[dep].end for dep in deps], default=0.0)
        start = max(ready, self._lane_end.get(lane, 0.0), earliest_start)
        op = ReferenceOp(stream, device, category, duration, earliest_start,
                         num_bytes, tuple(deps), start, start + duration)
        self.ops.append(op)
        self._lane_end[lane] = op.end
        return op

    def commit(self, batch: OpBatch) -> Tuple[List[float], List[float]]:
        """Schedule a batch's ops in order; returns (starts, ends)."""
        assert batch.base_id == len(self.ops), "batches must arrive in order"
        offsets = batch.dep_offsets
        ops = [self.add(STREAMS[batch.stream[i]], batch.duration[i],
                        batch.dep_ids[offsets[i]:offsets[i + 1]],
                        category_name(batch.category[i]), batch.device[i],
                        batch.earliest[i], batch.num_bytes[i])
               for i in range(len(batch))]
        return [op.start for op in ops], [op.end for op in ops]

    # ---- brute-force aggregates ------------------------------------------
    def _lane_ops(self, stream: Stream, device: Optional[int]) -> List[ReferenceOp]:
        return [op for op in self.ops if op.stream is stream
                and (device is None or op.device == device)]

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    @property
    def makespan(self) -> float:
        return max([op.end for op in self.ops], default=0.0)

    def devices(self) -> List[int]:
        return sorted({op.device for op in self.ops})

    def stream_busy_time(self, stream: Stream, device: Optional[int] = None) -> float:
        return sum(op.duration for op in self._lane_ops(stream, device))

    def stream_free_time(self, stream: Stream, device: Optional[int] = None) -> float:
        return max([op.end for op in self._lane_ops(stream, device)], default=0.0)

    def device_utilisation(self, device: int) -> float:
        makespan = self.makespan
        busy = self.stream_busy_time(Stream.COMPUTE, device)
        return busy / makespan if makespan > 0.0 else 0.0

    def category_count(self, category: str) -> int:
        return sum(1 for op in self.ops if op.category == category)

    def category_time(self, category: str) -> float:
        return sum(op.duration for op in self.ops if op.category == category)

    def category_bytes(self, category: str) -> float:
        return sum(op.num_bytes for op in self.ops if op.category == category)

    def exposed_copy_time(self, device: Optional[int] = None) -> float:
        """Compute-lane stalls beyond compute-side readiness, summed.

        A compute op is ready once the previous op of its lane has ended,
        its compute-stream dependencies have ended and its arrival gate has
        passed; any later start waited on a transfer.
        """
        exposed = 0.0
        for dev in self.devices() if device is None else [device]:
            lane_end = 0.0
            for op in self._lane_ops(Stream.COMPUTE, dev):
                compute_deps = [self.ops[d].end for d in op.deps
                                if self.ops[d].stream is Stream.COMPUTE]
                ready = max([lane_end, op.earliest_start] + compute_deps)
                exposed += max(0.0, op.start - ready)
                lane_end = op.end
        return exposed


def reschedule(trace_ops) -> ReferenceTimeline:
    """The reference fed a recorded trace's ops, using only their inputs."""
    reference = ReferenceTimeline()
    for op in trace_ops:
        reference.add(op.stream, op.duration, op.depends_on,
                      category=op.category, device=op.device,
                      earliest_start=op.earliest_start, num_bytes=op.num_bytes)
    return reference
