"""Chrome trace-event (Perfetto) JSON export of timelines and span trees.

The export replaces :meth:`ArrayTimeline.render_ascii` as the way to
*see* pre-gating overlap: load the emitted file in https://ui.perfetto.dev
(or chrome://tracing) and each device renders as a process with one track
per hardware stream — compute kernels overlapping expert fetches on the
copy lane is exactly Figure 9, zoomable and queryable.

Layout of the emitted events (the trace-event JSON array format, all
timestamps in microseconds):

* every op becomes a ``ph:"X"`` complete event with ``pid`` = device and
  ``tid`` = stream lane (compute/copy/stage/interconnect), ``cat`` = the
  op's category and the op id/payload bytes in ``args``;
* ``ph:"M"`` metadata events name the processes (``device0`` …) and
  threads (lane names), and set sort order so lanes render compute-first;
* per-request **flow events** (``ph:"s"``/``"t"``/``"f"``, one flow id per
  request) thread a request's journey through its ops across lanes and
  devices — Perfetto draws them as arrows.  Flows are anchored at the
  request's first op and every ``lm_head`` (token-completion) op, parsed
  from the ``r<id>.`` op-name prefix the scheduler writes in trace mode;
* request span trees (:mod:`repro.obs.spans`) render as one additional
  process (``pid`` = :data:`SPAN_PID`) with one track per request, each
  span a nested ``X`` event carrying its attributes.

The timeline side needs a trace-recording run (``record_trace=True``);
span export works from any span-logged run, trace or no-trace.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence

from .spans import RequestSpans

#: tid of each stream lane inside a device's process (and render order).
STREAM_TIDS: Dict[str, int] = {"compute": 0, "copy": 1, "stage": 2,
                               "interconnect": 3}

#: Process id the request-span tracks render under (devices use their own
#: small ids; anything clear of plausible device counts works).
SPAN_PID = 1000

_REQUEST_PREFIX = re.compile(r"^r(\d+)\.")
_SECONDS_TO_US = 1e6


def _metadata(pid: int, process: str, threads: Dict[int, str],
              sort_index: int) -> List[dict]:
    events = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": process}},
        {"ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
         "args": {"sort_index": sort_index}},
    ]
    for tid, name in sorted(threads.items()):
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": name}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": pid,
                       "tid": tid, "args": {"sort_index": tid}})
    return events


def timeline_trace_events(timeline) -> List[dict]:
    """Trace events for a trace-recording timeline's full op dump.

    ``timeline`` is any object exposing ``to_records()`` in the shape of
    :meth:`ArrayTimeline.to_records` (raises in no-trace mode — the
    trace is the export's substrate).
    """
    records = sorted(timeline.to_records(),
                     key=lambda r: (r["device"], r["stream"], r["start"],
                                    r["op_id"]))
    events: List[dict] = []
    devices = sorted({r["device"] for r in records})
    streams_by_device: Dict[int, set] = {}
    for rec in records:
        streams_by_device.setdefault(rec["device"], set()).add(rec["stream"])
    for device in devices:
        threads = {STREAM_TIDS[s]: s
                   for s in streams_by_device[device] if s in STREAM_TIDS}
        events.extend(_metadata(device, f"device{device}", threads,
                                sort_index=device))
    by_request: Dict[int, List[dict]] = {}
    for rec in records:
        name = rec["name"] or rec["category"]
        events.append({
            "ph": "X", "name": name, "cat": rec["category"],
            "pid": rec["device"], "tid": STREAM_TIDS.get(rec["stream"], 0),
            "ts": rec["start"] * _SECONDS_TO_US,
            "dur": rec["duration"] * _SECONDS_TO_US,
            "args": {"op_id": rec["op_id"],
                     "bytes": rec.get("num_bytes", 0.0)},
        })
        match = _REQUEST_PREFIX.match(rec["name"] or "")
        if match:
            by_request.setdefault(int(match.group(1)), []).append(rec)
    events.extend(_request_flow_events(by_request))
    return events


def _request_flow_events(by_request: Dict[int, List[dict]]) -> List[dict]:
    """Flow arrows threading each request through its per-token milestones.

    Anchors are the request's first op and each ``lm_head`` op (one per
    generated token) — enough to follow the request across lanes without
    drawing an arrow per op.
    """
    events: List[dict] = []
    for request_id, recs in sorted(by_request.items()):
        recs = sorted(recs, key=lambda r: (r["start"], r["op_id"]))
        anchors = [recs[0]]
        anchors.extend(r for r in recs[1:] if r["name"].endswith(".lm_head"))
        if len(anchors) < 2:
            continue
        for i, rec in enumerate(anchors):
            ph = "s" if i == 0 else ("f" if i == len(anchors) - 1 else "t")
            event = {"ph": ph, "name": f"r{request_id}", "cat": "request",
                     "id": request_id, "pid": rec["device"],
                     "tid": STREAM_TIDS.get(rec["stream"], 0),
                     "ts": rec["start"] * _SECONDS_TO_US}
            if ph == "f":
                event["bp"] = "e"
            events.append(event)
    return events


def span_trace_events(spans: Sequence[RequestSpans],
                      pid: int = SPAN_PID) -> List[dict]:
    """Trace events rendering request span trees, one track per request."""
    events: List[dict] = []
    threads = {tree.request_id: f"r{tree.request_id}" for tree in spans}
    events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                   "args": {"name": "requests"}})
    events.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                   "tid": 0, "args": {"sort_index": pid}})
    for tid, name in sorted(threads.items()):
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": name}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": pid,
                       "tid": tid, "args": {"sort_index": tid}})
    for tree in spans:
        for index, span in enumerate(tree.spans):
            events.append({
                "ph": "X", "name": span.name, "cat": span.category,
                "pid": pid, "tid": tree.request_id,
                "ts": span.start * _SECONDS_TO_US,
                "dur": span.duration * _SECONDS_TO_US,
                "args": {**span.attrs, "parent": span.parent,
                         "index": index},
            })
    return events


def build_chrome_trace(timeline=None,
                       spans: Optional[Sequence[RequestSpans]] = None,
                       metadata: Optional[Dict[str, object]] = None) -> dict:
    """Assemble the trace-event JSON payload (the Perfetto file content)."""
    if timeline is None and spans is None:
        raise ValueError("nothing to export: pass a timeline and/or spans")
    events: List[dict] = []
    if timeline is not None:
        events.extend(timeline_trace_events(timeline))
    if spans:
        events.extend(span_trace_events(spans))
    payload: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        payload["otherData"] = dict(metadata)
    return payload


def write_chrome_trace(path: str, timeline=None,
                       spans: Optional[Sequence[RequestSpans]] = None,
                       metadata: Optional[Dict[str, object]] = None) -> dict:
    """Write the trace-event JSON to ``path``; returns the payload."""
    payload = build_chrome_trace(timeline=timeline, spans=spans,
                                 metadata=metadata)
    with open(path, "w") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return payload
