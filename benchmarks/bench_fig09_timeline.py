"""Figure 9 — execution timelines of the four system designs.

Qualitative figure in the paper: GPU-only has no communication; MoE-OnDemand
serialises fetch and execution; MoE-Prefetch saturates the copy stream with
whole-expert-set transfers; Pre-gated MoE overlaps the (small) activated-
expert transfers with the previous block's execution.  The bench regenerates
the timelines, prints ASCII Gantt charts and checks the overlap behaviour.
"""

import pytest

from conftest import ENGINE_CONFIG, emit
from repro.analysis import FigureReport
from repro.moe import get_config
from repro.serving import DESIGN_LABELS, make_engine
from repro.system import ArrayTimeline, Stream
from repro.workloads import TraceGenerator

CONFIG = get_config("switch_base_64")
DESIGNS = ("gpu_only", "pregated", "ondemand", "prefetch_all")


def run_timeline_study():
    activations = TraceGenerator(CONFIG, seed=0).iteration_activations(
        num_tokens=1, num_moe_blocks=CONFIG.num_moe_blocks("decoder"))
    timelines = {}
    for design in DESIGNS:
        engine = make_engine(design, CONFIG, engine_config=ENGINE_CONFIG)
        timeline = ArrayTimeline(record_trace=True)
        engine.run_decoder_iteration(activations, timeline=timeline)
        timelines[design] = timeline
    return timelines


@pytest.mark.benchmark(group="fig09")
def test_fig09_execution_timeline(benchmark, results_dir):
    timelines = benchmark.pedantic(run_timeline_study, rounds=1, iterations=1)
    report = FigureReport(
        figure="Figure 9",
        description="One decoder iteration: makespan, copy time and overlap per design",
        headers=["design", "makespan (ms)", "copy busy (ms)", "exposed copy (ms)",
                 "overlap efficiency"],
        paper_reference="Pre-gated MoE hides expert migration under expert/non-MoE "
                        "execution; OnDemand exposes it; Prefetch is copy-bound.",
    )
    for design, timeline in timelines.items():
        report.add_row(DESIGN_LABELS[design],
                       round(timeline.makespan * 1e3, 3),
                       round(timeline.stream_busy_time(Stream.COPY) * 1e3, 3),
                       round(timeline.exposed_copy_time() * 1e3, 3),
                       round(timeline.overlap_efficiency(), 3))
    emit(report, results_dir, "fig09_timeline.csv")

    print()
    for design, timeline in timelines.items():
        print(f"--- {DESIGN_LABELS[design]} ---")
        print(timeline.render_ascii(width=78))

    assert timelines["gpu_only"].stream_busy_time(Stream.COPY) == 0.0
    assert timelines["pregated"].overlap_efficiency() > timelines["ondemand"].overlap_efficiency()
    assert timelines["prefetch_all"].makespan > 5 * timelines["pregated"].makespan
    assert timelines["pregated"].makespan < 1.5 * timelines["gpu_only"].makespan
