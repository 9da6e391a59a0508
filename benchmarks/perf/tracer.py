"""Host-time spans around the repo's public methods, installed from outside.

The traced run (``--trace 1``) attributes host time to the repo's layers
without editing ``src/``: :func:`installed` replaces each method listed in
:func:`layer_targets` with a wrapper that records one span per call, and
restores every original attribute on exit.  A span is (span id, layer,
start, end, parent span, id), where the id is the scheduling round for the
serve workloads and the train step or decode batch for the tensor ones.

Per-layer statistics are folded as spans close, so memory stays bounded on
multi-million-call serves; only the first :data:`EXPORT_CAP` spans are kept
for the Chrome trace-event export (which Perfetto opens).
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Spans kept for the Chrome trace export; statistics cover every span.
EXPORT_CAP = 50_000

#: Primitives reported under their own name; the rest fold into ``other``.
REPORTED_PRIMITIVES = ("matmul", "layer_norm", "sdpa", "softmax_xent",
                       "embedding", "relu", "softmax")

#: Per-call tail percentiles, highest first; a tail is reported only when at
#: least ten calls lie beyond it.
TAIL_PERCENTILES = (99, 90, 50)

#: (self ns per layer, calls per layer, work counts) at the end of set-up.
Boundary = Tuple[List[int], List[int], Dict[str, int]]


class SpanRecorder:
    """Collects spans while :attr:`recording` is on; folds them per layer."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.durations: List[array] = []
        self.self_ns: List[int] = []
        #: Work counts taken at layer boundaries (ops committed, replays applied).
        self.counts: Dict[str, int] = {}
        #: Round ordinal (serve) or train step / decode batch index (tensor).
        self.current_id = 0
        self.recording = False
        self.num_spans = 0
        self.spans: List[Tuple[int, int, int, int, int, int]] = []
        self._stack: List[List[int]] = []

    def layer(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.durations.append(array("q"))
            self.self_ns.append(0)
        return self._index[name]

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``name`` span per call while recording.

        ``before(args)`` runs ahead of the span; ``after(args, result)``
        runs once the call returns, to count work done by the layer.
        """
        idx = self.layer(name)
        durations = self.durations[idx]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.recording:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            span_id = rec.num_spans
            rec.num_spans = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            span_tag = rec.current_id
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                durations.append(duration)
                rec.self_ns[idx] += duration - frame[1]
                if span_id < EXPORT_CAP:
                    spans.append((span_id, idx, start, end, parent, span_tag))
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    def snapshot(self) -> Boundary:
        """(self ns, calls) per layer and the work counts so far: the
        setup/measure boundary."""
        return list(self.self_ns), [len(d) for d in self.durations], dict(self.counts)

    def measured_count(self, boundary: Boundary, name: str) -> int:
        """Work count ``name`` taken after ``boundary``."""
        return self.counts.get(name, 0) - boundary[2].get(name, 0)

    def table(self, boundary: Boundary, setup_wall_ns: int,
              measure_wall_ns: int) -> Dict[str, Dict[str, float]]:
        """Per-layer rows: calls, total and self time, shares, per-call tails.

        ``self_frac`` is the layer's self time over the measured phase's wall
        time; ``setup_frac`` the same over the setup phase (spans before
        ``boundary``).  Time a span covers with its child spans counts once,
        in the child.
        """
        setup_self, setup_calls, _ = boundary
        rows: Dict[str, Dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            s_setup = setup_self[idx]
            d = np.array(self.durations[idx], dtype=np.int64)
            row: Dict[str, float] = {
                "calls": int(d.size),
                "setup_calls": setup_calls[idx],
                "total_s": float(d.sum()) / 1e9,
                "self_s": self.self_ns[idx] / 1e9,
                "self_frac": ((self.self_ns[idx] - s_setup) / measure_wall_ns
                              if measure_wall_ns else 0.0),
                "setup_frac": s_setup / setup_wall_ns if setup_wall_ns else 0.0,
            }
            if d.size:
                row["us_p50"] = float(np.percentile(d, 50)) / 1e3
                for pct in TAIL_PERCENTILES:
                    if d.size * (100 - pct) / 100 >= 10:
                        row[f"us_p{pct}"] = float(np.percentile(d, pct)) / 1e3
                        break
            rows[name] = row
        return rows

    def coverage(self, boundary: Boundary, measure_wall_ns: int) -> float:
        """Sum of self time over the measured phase's wall time."""
        before = sum(boundary[0])
        return (sum(self.self_ns) - before) / measure_wall_ns if measure_wall_ns else 0.0

    def chrome_trace(self, meta: Dict[str, object]) -> Dict[str, object]:
        """The kept spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = min((s[2] for s in self.spans), default=0)
        events: List[Dict[str, object]] = [
            {"ph": "M", "name": "process_name", "pid": 1,
             "args": {"name": "host time (benchmarks.perf)"}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "benchmark process"}},
        ]
        for span_id, idx, start, end, parent, tag in sorted(
                self.spans, key=lambda s: s[2]):
            name = self.names[idx]
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "pid": 1, "tid": 1,
                "args": {"span": span_id, "parent": parent, "id": tag},
            })
        other = dict(meta)
        other.update({
            "spans_recorded": self.num_spans,
            "spans_exported": len(self.spans),
            "note": (f"export capped at the first {EXPORT_CAP} spans; per-layer "
                     "statistics in the .layers.json table cover every span"),
        })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": other}


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
#: (owner, attribute, layer name, before hook, after hook) — ``owner`` is a
#: class whose own ``__dict__`` defines the attribute, a module, or a
#: primitive object.
Target = Tuple[object, str, str, Optional[Callable], Optional[Callable]]


def layer_targets(rec: SpanRecorder) -> List[Target]:
    """Every wrapped entry point of both engines, with its layer name."""
    from repro.core.pregated_model import PreGatedSwitchTransformer
    from repro.moe.expert import ExpertPool
    from repro.moe.gating import Router
    from repro.serving.placement import ShardedPlacement
    from repro.serving.prefetch import PrefetchRound
    from repro.serving.scheduler import ContinuousBatchingScheduler, _RoundReplay
    from repro.serving.simulator import IterationSimulator, SharedExpertRound
    from repro.system.memory import MemoryPool
    from repro.system.residency import ExpertResidency
    from repro.system.timeline import ArrayTimeline
    from repro.tensor import primitives
    from repro.tensor.attention import MultiHeadAttention
    from repro.tensor.autograd import Tensor
    from repro.tensor.optim import Adam
    from repro.training import trainer
    from repro.workloads.arrivals import ArrivalProcess
    from repro.workloads.traces import TraceGenerator

    def next_round(args) -> None:
        rec.current_id += 1

    def committed(args, result) -> None:
        rec.count("timeline.commit.ops", len(args[1]))

    def replayed(args, result) -> None:
        if result:
            rec.count("scheduler.replay.applied")

    targets: List[Target] = [
        (TraceGenerator, "workload", "workloads.trace_gen", None, None),
        (ArrivalProcess, "arrival_times", "workloads.arrivals", None, None),
        (ContinuousBatchingScheduler, "serve", "scheduler.serve", None, None),
        (ContinuousBatchingScheduler, "_run_round_batched", "scheduler.round",
         next_round, None),
        (_RoundReplay, "try_apply", "scheduler.replay", None, replayed),
        (IterationSimulator, "make_plan", "simulator.make_plan", None, None),
        (IterationSimulator, "emit_decoder_iteration", "simulator.emit_decode",
         None, None),
        (IterationSimulator, "emit_encoder_pass", "simulator.emit_encode",
         None, None),
        (ArrayTimeline, "commit_batch", "timeline.commit", None, committed),
        (ArrayTimeline, "retire_completed", "timeline.retire", None, None),
        (MemoryPool, "allocate", "memory.allocate", None, None),
        (MemoryPool, "free", "memory.free", None, None),
        (ShardedPlacement, "route_fetch", "placement.route_fetch", None, None),
        (ExpertResidency, "pin", "residency.pin", None, None),
        (ExpertResidency, "release", "residency.release", None, None),
        (SharedExpertRound, "register_plan", "prefetch.register_plan", None, None),
        (PrefetchRound, "register_plan", "prefetch.register_plan", None, None),
        (SharedExpertRound, "drain", "prefetch.drain", None, None),
        (PrefetchRound, "drain", "prefetch.drain", None, None),
        (trainer.Trainer, "train_step", "trainer.train_step", None, None),
        (PreGatedSwitchTransformer, "forward", "model.forward", None, None),
        (PreGatedSwitchTransformer, "greedy_decode", "model.greedy_decode",
         None, None),
        (Router, "forward", "moe.router", None, None),
        (ExpertPool, "forward", "moe.expert_pool", None, None),
        (MultiHeadAttention, "forward", "attention", None, None),
        (Tensor, "backward", "autograd.backward", None, None),
        (Adam, "step", "optim.adam", None, None),
        # The trainer calls the name it imported, so wrap it there.
        (trainer, "clip_grad_norm", "optim.clip_grad_norm", None, None),
    ]
    for name, prim in primitives.REGISTRY.items():
        label = name if name in REPORTED_PRIMITIVES else "other"
        targets.append((prim, "forward", f"prim.fwd.{label}", None, None))
        if prim.vjp is not None:
            targets.append((prim, "vjp", f"prim.vjp.{label}", None, None))
    return targets


def _original(owner: object, attr: str) -> object:
    if isinstance(owner, type):
        # A class must define the attribute itself: wrapping an inherited
        # one would shadow it on the subclass only.
        return vars(owner)[attr]
    return getattr(owner, attr)


@contextmanager
def installed(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every target for the duration of the block; restore on exit."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for owner, attr, name, before, after in layer_targets(rec):
            original = _original(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(name, original, before, after))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
