"""Per-request span trees assembled from the scheduler's round commits.

A span tree is the request-centric view of a serving run: one root span
from arrival to last generated token, with children for the queue wait,
the prefill pass, each decode iteration, and — nested under the pass that
issued them — every expert fetch the pass put on the copy/stage lanes,
attributed with its source tier and DRAM-stage hit/miss outcome.

The trees are assembled *cheaply in no-trace mode*: the scheduler already
knows each pass's first/last op indices and the committed start/end arrays
of every round (:meth:`ArrayTimeline.commit_batch` returns them), so span
construction reads a handful of floats per pass out of data that exists
anyway — no op objects, no name strings, no trace retention.  The cost is
that span recording stands down round replay (a fast-forwarded window has
no per-round spans to record).

Spans are plain data: :class:`Span` rows in a flat list with parent
indices (index 0 is the root), collected per request into
:class:`RequestSpans` and surfaced on ``LoadTestResult.spans``.  The
Perfetto exporter (:mod:`repro.obs.trace_export`) renders them as one
track per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Span categories, from coarse to fine.
CAT_REQUEST = "request"
CAT_QUEUE = "queue"
CAT_PREFILL = "prefill"
CAT_DECODE = "decode"
CAT_FETCH = "expert_fetch"
CAT_STAGE = "stage_in"


@dataclass
class Span:
    """One node of a request's span tree (times in simulated seconds)."""

    name: str
    category: str
    start: float
    end: float
    #: Index of the parent span in the owning tree's flat list (-1 = root).
    parent: int = -1
    #: Sparse attributes (fetch tier/hit, device, bytes, iteration …).
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PassFetch:
    """One transfer op a pass issued (the raw material of fetch spans)."""

    kind: str                      # CAT_FETCH or CAT_STAGE
    start: float
    end: float
    device: int
    num_bytes: float
    source_tier: Optional[str]     # "dram" / "ssd" (None if unattributed)
    stage_hit: bool


@dataclass
class RequestSpans:
    """Span tree of one served request (flat list, parent indices)."""

    request_id: int
    arrival_time: float
    spans: List[Span] = field(default_factory=list)

    @property
    def root(self) -> Span:
        return self.spans[0]

    def children(self, index: int) -> List[int]:
        return [i for i, span in enumerate(self.spans) if span.parent == index]

    def by_category(self, category: str) -> List[Span]:
        return [span for span in self.spans if span.category == category]


class _RequestBuilder:
    """Per-request accumulation while the request is in flight."""

    __slots__ = ("request_id", "arrival_time", "passes")

    def __init__(self, request_id: int, arrival_time: float) -> None:
        self.request_id = request_id
        self.arrival_time = arrival_time
        # (kind, iteration, start, end, fetches)
        self.passes: List[tuple] = []


class SpanLog:
    """Collects span trees for every request of one ``serve`` call.

    Driven by the scheduler: :meth:`admit` when a request joins the active
    set, :meth:`record_pass` after each round's commit (with the pass
    bounds and its issued fetches), :meth:`finalise` when the request
    completes — which assembles and returns the finished tree.
    """

    def __init__(self) -> None:
        self._open: Dict[int, _RequestBuilder] = {}

    def admit(self, request_id: int, arrival_time: float) -> None:
        self._open[request_id] = _RequestBuilder(request_id, arrival_time)

    def record_pass(self, request_id: int, kind: str, iteration: int,
                    start: float, end: float,
                    fetches: List[PassFetch]) -> None:
        self._open[request_id].passes.append(
            (kind, iteration, start, end, fetches))

    def finalise(self, request_id: int, completion_time: float) -> RequestSpans:
        builder = self._open.pop(request_id)
        tree = RequestSpans(request_id=request_id,
                            arrival_time=builder.arrival_time)
        spans = tree.spans
        end = completion_time
        if builder.passes:
            end = max(end, builder.passes[-1][3])
        spans.append(Span(name=f"r{request_id}", category=CAT_REQUEST,
                          start=builder.arrival_time, end=end))
        if builder.passes:
            first_start = builder.passes[0][2]
            spans.append(Span(name="queue", category=CAT_QUEUE,
                              start=builder.arrival_time,
                              end=max(builder.arrival_time, first_start),
                              parent=0))
        for kind, iteration, start, pass_end, fetches in builder.passes:
            name = "prefill" if kind == CAT_PREFILL else f"decode[{iteration}]"
            pass_index = len(spans)
            spans.append(Span(name=name, category=kind, start=start,
                              end=pass_end, parent=0,
                              attrs={"iteration": iteration}))
            for fetch in fetches:
                attrs: Dict[str, object] = {"device": fetch.device,
                                            "bytes": fetch.num_bytes}
                if fetch.source_tier is not None:
                    attrs["source_tier"] = fetch.source_tier
                    attrs["stage_hit"] = fetch.stage_hit
                spans.append(Span(name=fetch.kind, category=fetch.kind,
                                  start=fetch.start, end=fetch.end,
                                  parent=pass_index, attrs=attrs))
        return tree
