"""The test-only reference timeline: its independence and its own answers.

The reference is only an oracle while it shares no code with the kernel it
checks.  The import guard fails as soon as it reaches into ``repro`` for
anything beyond the batch data format; the hand-computed cases check the
reference itself against Figure 9's overlap rule.
"""

import ast
import os

import pytest

from repro.system.timeline import Stream

from . import reference_timeline
from .reference_timeline import ReferenceTimeline

#: The data-format names the reference may read from the kernel's module.
DATA_FORMAT = {"OpBatch", "STREAMS", "Stream", "category_name"}


def test_reference_imports_only_the_data_format():
    path = os.path.splitext(reference_timeline.__file__)[0] + ".py"
    with open(path) as handle:
        tree = ast.parse(handle.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("repro"), alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("repro"):
            assert node.module == "repro.system.timeline", node.module
            imported.extend(alias.name for alias in node.names)
    assert imported, "the reference should read OpBatch columns"
    assert set(imported) <= DATA_FORMAT, set(imported) - DATA_FORMAT


def test_prefetch_under_compute_is_hidden():
    """Pre-gated: a copy issued early finishes under the previous block."""
    reference = ReferenceTimeline()
    reference.add(Stream.COPY, 2.0)
    reference.add(Stream.COMPUTE, 3.0)
    execute = reference.add(Stream.COMPUTE, 1.0, deps=[0])
    assert execute.start == 3.0
    assert reference.makespan == 4.0
    assert reference.exposed_copy_time() == 0.0


def test_fetch_after_gate_is_exposed():
    """On-demand: the fetch waits for the gate and the execution waits for it."""
    reference = ReferenceTimeline()
    reference.add(Stream.COMPUTE, 0.5, category="gate")
    reference.add(Stream.COPY, 2.0, deps=[0], category="expert_transfer",
                  num_bytes=1024)
    reference.add(Stream.COMPUTE, 1.0, deps=[1])
    assert reference.makespan == 3.5
    assert reference.exposed_copy_time() == 2.0
    assert reference.category_bytes("expert_transfer") == 1024
    assert reference.category_count("gate") == 1


def test_lanes_are_per_device_and_gated_by_arrival():
    reference = ReferenceTimeline()
    reference.add(Stream.COMPUTE, 1.0, device=0)
    other = reference.add(Stream.COMPUTE, 1.0, device=1)
    gated = reference.add(Stream.COMPUTE, 1.0, device=0, earliest_start=5.0)
    assert other.start == 0.0
    assert gated.start == 5.0
    # Waiting for an arrival is not a copy stall.
    assert reference.exposed_copy_time() == 0.0
    assert reference.devices() == [0, 1]
    assert reference.stream_free_time(Stream.COMPUTE, 0) == 6.0
    assert reference.device_utilisation(1) == pytest.approx(1.0 / 6.0)


def test_unscheduled_dependency_rejected():
    with pytest.raises(ValueError):
        ReferenceTimeline().add(Stream.COMPUTE, 1.0, deps=[0])
