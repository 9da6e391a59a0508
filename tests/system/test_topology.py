"""Tests for the device topology and the per-device timeline lanes."""

import pytest

from repro.system.hardware import (
    A100_80GB,
    NVLINK3,
    PAPER_SYSTEM,
    PCIE_P2P,
    DeviceTopology,
    GpuSpec,
    LinkSpec,
)
from repro.system.timeline import ArrayTimeline, Stream


class TestSpecValidation:
    def test_gpu_spec_rejects_non_positive_memory(self):
        with pytest.raises(ValueError, match="memory_bytes"):
            GpuSpec(name="bad", memory_bytes=0, hbm_bandwidth=1e12,
                    fp16_tflops=100.0)

    def test_gpu_spec_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError, match="hbm_bandwidth"):
            GpuSpec(name="bad", memory_bytes=int(1e9), hbm_bandwidth=-1.0,
                    fp16_tflops=100.0)

    def test_gpu_spec_rejects_non_positive_tflops(self):
        with pytest.raises(ValueError, match="fp16_tflops"):
            GpuSpec(name="bad", memory_bytes=int(1e9), hbm_bandwidth=1e12,
                    fp16_tflops=0.0)

    def test_gpu_spec_rejects_negative_overheads(self):
        with pytest.raises(ValueError, match="overheads"):
            GpuSpec(name="bad", memory_bytes=int(1e9), hbm_bandwidth=1e12,
                    fp16_tflops=100.0, kernel_launch_overhead=-1e-6)

    def test_link_spec_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            LinkSpec(name="bad", bandwidth=0.0)

    def test_link_spec_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="latency"):
            LinkSpec(name="bad", bandwidth=1e9, latency=-1e-6)


class TestDeviceTopology:
    def test_needs_at_least_one_device(self):
        with pytest.raises(ValueError):
            DeviceTopology(devices=())

    def test_single_is_degenerate(self):
        topology = DeviceTopology.single(A100_80GB)
        assert topology.num_devices == 1
        assert topology.device(0) is A100_80GB
        assert topology.all_to_all_time(int(1e9)) == 0.0

    def test_homogeneous_replicates_the_device(self):
        topology = DeviceTopology.homogeneous(A100_80GB, 4, interconnect=PCIE_P2P)
        assert topology.num_devices == 4
        assert topology.total_memory_bytes == 4 * A100_80GB.memory_bytes
        assert topology.interconnect is PCIE_P2P
        with pytest.raises(ValueError):
            DeviceTopology.homogeneous(A100_80GB, 0)

    def test_all_to_all_time_uses_the_interconnect(self):
        topology = DeviceTopology.homogeneous(A100_80GB, 2)
        expected = NVLINK3.latency + 1e9 / NVLINK3.bandwidth
        assert topology.all_to_all_time(1e9) == pytest.approx(expected)
        assert topology.all_to_all_time(0) == 0.0


class TestSystemTopology:
    def test_default_system_is_single_gpu(self):
        assert PAPER_SYSTEM.topology is None
        assert PAPER_SYSTEM.num_gpus == 1
        assert PAPER_SYSTEM.device_topology.num_devices == 1

    def test_with_num_gpus_scales_the_machine(self):
        wide = PAPER_SYSTEM.with_num_gpus(4)
        assert wide.num_gpus == 4
        assert wide.device_topology.interconnect is NVLINK3
        assert all(gpu is PAPER_SYSTEM.gpu for gpu in wide.topology.devices)

    def test_with_one_gpu_clears_the_topology(self):
        assert PAPER_SYSTEM.with_num_gpus(4).with_num_gpus(1).topology is None

    def test_with_num_gpus_rejects_non_positive(self):
        with pytest.raises(ValueError):
            PAPER_SYSTEM.with_num_gpus(0)

    def test_explicit_interconnect_kept_for_one_gpu(self):
        one = PAPER_SYSTEM.with_num_gpus(1, interconnect=PCIE_P2P)
        assert one.num_gpus == 1
        assert one.device_topology.interconnect is PCIE_P2P


class TestTimelineDeviceLanes:
    def test_same_lane_serialises(self):
        timeline = ArrayTimeline(record_trace=True)
        a = timeline.add("a", Stream.COMPUTE, 1.0, device=0)
        b = timeline.add("b", Stream.COMPUTE, 1.0, device=0)
        assert b.start == pytest.approx(a.end)

    def test_different_devices_run_concurrently(self):
        timeline = ArrayTimeline(record_trace=True)
        a = timeline.add("a", Stream.COMPUTE, 1.0, device=0)
        b = timeline.add("b", Stream.COMPUTE, 1.0, device=1)
        assert a.start == b.start == 0.0
        assert timeline.makespan == pytest.approx(1.0)

    def test_per_device_copy_lanes_parallelise_fetches(self):
        timeline = ArrayTimeline(record_trace=True)
        a = timeline.add("fetch0", Stream.COPY, 1.0, device=0)
        b = timeline.add("fetch1", Stream.COPY, 1.0, device=1)
        c = timeline.add("fetch2", Stream.COPY, 1.0, device=0)
        assert a.start == b.start == 0.0
        assert c.start == pytest.approx(a.end)

    def test_dependencies_cross_lanes(self):
        timeline = ArrayTimeline(record_trace=True)
        copy = timeline.add("fetch", Stream.COPY, 2.0, device=1)
        exec_op = timeline.add("exec", Stream.COMPUTE, 1.0, depends_on=[copy.op_id],
                                       device=1)
        combine = timeline.add("combine", Stream.INTERCONNECT, 0.5,
                                            depends_on=[exec_op.op_id])
        assert exec_op.start == pytest.approx(copy.end)
        assert combine.start == pytest.approx(exec_op.end)
        assert combine.stream is Stream.INTERCONNECT

    def test_per_device_queries(self):
        timeline = ArrayTimeline(record_trace=True)
        timeline.add("a", Stream.COMPUTE, 1.0, device=0)
        timeline.add("b", Stream.COMPUTE, 3.0, device=1)
        assert timeline.devices() == [0, 1]
        assert timeline.stream_busy_time(Stream.COMPUTE) == pytest.approx(4.0)
        assert timeline.stream_busy_time(Stream.COMPUTE, 1) == pytest.approx(3.0)
        assert timeline.stream_free_time(Stream.COMPUTE, 0) == pytest.approx(1.0)
        # Replica-wide free time is the latest lane.
        assert timeline.stream_free_time(Stream.COMPUTE) == pytest.approx(3.0)
        assert timeline.device_utilisation(0) == pytest.approx(1.0 / 3.0)
        assert timeline.device_utilisation(1) == pytest.approx(1.0)

    def test_negative_device_rejected(self):
        timeline = ArrayTimeline(record_trace=True)
        with pytest.raises(ValueError):
            timeline.add("a", Stream.COMPUTE, 1.0, device=-1)

    def test_records_carry_the_device(self):
        timeline = ArrayTimeline(record_trace=True)
        timeline.add("a", Stream.COMPUTE, 1.0, device=2)
        assert timeline.to_records()[0]["device"] == 2

    def test_exposed_copy_time_is_per_lane(self):
        timeline = ArrayTimeline(record_trace=True)
        # Device 0: exec stalls 2s on its copy; device 1: stalls 1s.
        copy0 = timeline.add("c0", Stream.COPY, 2.0, device=0)
        timeline.add("e0", Stream.COMPUTE, 1.0, depends_on=[copy0.op_id], device=0)
        copy1 = timeline.add("c1", Stream.COPY, 1.0, device=1)
        timeline.add("e1", Stream.COMPUTE, 1.0, depends_on=[copy1.op_id], device=1)
        assert timeline.exposed_copy_time() == pytest.approx(3.0)

    def test_render_labels_lanes_when_multi_device(self):
        timeline = ArrayTimeline(record_trace=True)
        timeline.add("a", Stream.COMPUTE, 1.0, device=0)
        timeline.add("b", Stream.COMPUTE, 1.0, device=1)
        rendered = timeline.render_ascii()
        assert "compute[0]" in rendered
        assert "compute[1]" in rendered

    def test_render_keeps_plain_labels_single_device(self):
        timeline = ArrayTimeline(record_trace=True)
        timeline.add("a", Stream.COMPUTE, 1.0)
        rendered = timeline.render_ascii()
        assert "compute " in rendered
        assert "compute[0]" not in rendered
