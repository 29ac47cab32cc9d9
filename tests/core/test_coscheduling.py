"""Tests for the co-scheduling extension (paper Sections 6.3/8)."""

import pytest

from repro import obs
from repro.core.coscheduling import (
    CoSchedulePredictor,
    CoScheduledWorkload,
)
from repro.core.description import DemandVector, WorkloadDescription
from repro.core.placement import Placement
from repro.core.predictor import PandiaPredictor
from repro.errors import PlacementError, PredictionError
from repro.hardware.topology import MachineTopology


def make_workload(name="co", inst=5.0, dram=10.0, p=0.95, **kw):
    return WorkloadDescription(
        name=name,
        machine_name="FIG3",
        t1=100.0,
        demands=DemandVector(inst_rate=inst, dram_bw=dram),
        parallel_fraction=p,
        **kw,
    )


@pytest.fixture
def co_predictor(fig3_description):
    return CoSchedulePredictor(fig3_description)


@pytest.fixture
def topo(fig3_description):
    return fig3_description.topology


class TestDegeneratesToSoloPredictor:
    def test_single_workload_matches_pandia(self, fig3_description, topo, co_predictor):
        """With one workload, co-scheduling must equal the Section-5
        predictor exactly."""
        wd = make_workload(
            inter_socket_overhead=0.05, load_balance=0.5, burstiness=0.3
        )
        placement = Placement(topo, (0, 4, 2))
        solo = PandiaPredictor(fig3_description).predict(wd, placement)
        joint = co_predictor.predict([CoScheduledWorkload(wd, placement)])
        outcome = joint.outcomes[0]
        assert outcome.speedup == pytest.approx(solo.speedup, rel=1e-9)
        assert outcome.slowdowns == pytest.approx(solo.slowdowns)


class TestInterference:
    def test_neighbour_slows_a_memory_bound_workload(self, topo, co_predictor):
        mem = make_workload("mem", inst=2.0, dram=60.0)
        noisy = make_workload("noisy", inst=2.0, dram=60.0)
        alone = co_predictor.predict(
            [CoScheduledWorkload(mem, Placement(topo, (0,)))]
        ).outcome_for("mem")
        together = co_predictor.predict(
            [
                CoScheduledWorkload(mem, Placement(topo, (0,))),
                CoScheduledWorkload(noisy, Placement(topo, (1,))),
            ]
        ).outcome_for("mem")
        assert together.predicted_time_s > alone.predicted_time_s

    def test_compute_bound_neighbours_do_not_interact(self, topo, co_predictor):
        a = make_workload("a", inst=5.0, dram=0.0)
        b = make_workload("b", inst=5.0, dram=0.0)
        alone = co_predictor.predict(
            [CoScheduledWorkload(a, Placement(topo, (0,)))]
        ).outcome_for("a")
        together = co_predictor.predict(
            [
                CoScheduledWorkload(a, Placement(topo, (0,))),
                CoScheduledWorkload(b, Placement(topo, (1,))),
            ]
        ).outcome_for("a")
        assert together.predicted_time_s == pytest.approx(alone.predicted_time_s)

    def test_cross_workload_core_sharing_uses_smt_capacity(self, topo):
        from repro.core.machine_desc import MachineDescription

        md = MachineDescription(
            machine_name="FIG3",
            topology=MachineTopology(2, 2, 2),
            core_rate=10.0,
            core_rate_smt=12.0,
            dram_bw_per_node=100.0,
            interconnect_bw=50.0,
        )
        predictor = CoSchedulePredictor(md)
        a = make_workload("a", inst=8.0, dram=0.0, p=1.0)
        b = make_workload("b", inst=8.0, dram=0.0, p=1.0)
        joint = predictor.predict(
            [
                CoScheduledWorkload(a, Placement(md.topology, (0,))),
                CoScheduledWorkload(b, Placement(md.topology, (4,))),  # same core
            ]
        )
        # Combined demand 16 against the SMT aggregate 12 -> 1.33x each.
        for outcome in joint.outcomes:
            assert outcome.slowdowns[0] == pytest.approx(16.0 / 12.0, rel=1e-6)

    def test_resource_loads_are_summed_across_workloads(self, topo, co_predictor):
        a = make_workload("a", inst=2.0, dram=20.0, p=1.0)
        b = make_workload("b", inst=2.0, dram=20.0, p=1.0)
        joint = co_predictor.predict(
            [
                CoScheduledWorkload(a, Placement(topo, (0,))),
                CoScheduledWorkload(b, Placement(topo, (1,))),
            ]
        )
        # Both workloads interleave over socket 0 only (single active
        # socket each): node 0 sees 20 + 20 at full utilisation.
        assert joint.resource_loads[("dram", 0)] == pytest.approx(40.0, rel=1e-6)


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def traced(self):
        was_enabled = obs.enabled()
        obs.reset()
        obs.enable()
        yield
        obs.reset()
        if not was_enabled:
            obs.disable()

    def test_predict_emits_a_joint_span_and_iteration_histogram(
        self, topo, co_predictor
    ):
        prediction = co_predictor.predict(
            [
                CoScheduledWorkload(make_workload("a"), Placement(topo, (0, 1))),
                CoScheduledWorkload(make_workload("b"), Placement(topo, (2,))),
            ]
        )
        [span] = [s for s in obs.tracer().spans() if s.name == "predictor.joint"]
        assert span.attrs == {
            "jobs": 2,
            "threads": 3,
            "iterations": prediction.iterations,
            "converged": prediction.converged,
        }
        histogram = obs.metrics().histogram("predictor.joint.iterations")
        assert histogram.count == 1
        assert histogram.total == prediction.iterations

    def test_failed_predict_still_closes_its_span(self, co_predictor):
        with pytest.raises(PredictionError):
            co_predictor.predict([])
        [span] = [s for s in obs.tracer().spans() if s.name == "predictor.joint"]
        assert obs.tracer().current_id() is None
        assert "iterations" not in span.attrs


class TestValidation:
    def test_overlapping_placements_rejected(self, topo, co_predictor):
        a = make_workload("a")
        b = make_workload("b")
        with pytest.raises(PlacementError, match="claimed by workloads"):
            co_predictor.predict(
                [
                    CoScheduledWorkload(a, Placement(topo, (0, 1))),
                    CoScheduledWorkload(b, Placement(topo, (1, 2))),
                ]
            )

    def test_empty_jobs_rejected(self, co_predictor):
        with pytest.raises(PredictionError):
            co_predictor.predict([])

    def test_unknown_workload_outcome_rejected(self, topo, co_predictor):
        joint = co_predictor.predict(
            [CoScheduledWorkload(make_workload("a"), Placement(topo, (0,)))]
        )
        with pytest.raises(PredictionError):
            joint.outcome_for("zzz")


class TestAgainstSimulator:
    """The joint prediction must track the simulator's joint execution."""

    def test_two_profiled_workloads_co_running(self, testbox, testbox_gen, testbox_md):
        from repro.sim.engine import Job, SimOptions, simulate
        from repro.sim.noise import NO_NOISE
        from repro.workloads.spec import WorkloadSpec

        mem = WorkloadSpec(
            name="co-mem", work_ginstr=60.0, cpi=0.9, l1_bpi=8.0, dram_bpi=5.0,
            working_set_mib=32.0, parallel_fraction=0.99,
        )
        cpu = WorkloadSpec(
            name="co-cpu", work_ginstr=120.0, cpi=0.3, l1_bpi=3.0,
            working_set_mib=0.5, parallel_fraction=0.99,
        )
        wd_mem = testbox_gen.generate(mem)
        wd_cpu = testbox_gen.generate(cpu)
        topo = testbox.topology
        place_mem = Placement(topo, (0, 1))
        place_cpu = Placement(topo, (2, 3))

        joint = CoSchedulePredictor(testbox_md).predict(
            [
                CoScheduledWorkload(wd_mem, place_mem),
                CoScheduledWorkload(wd_cpu, place_cpu),
            ]
        )
        sim = simulate(
            testbox,
            [Job(mem, place_mem.hw_thread_ids), Job(cpu, place_cpu.hw_thread_ids)],
            SimOptions(noise=NO_NOISE),
        )
        for spec, name in ((mem, "co-mem"), (cpu, "co-cpu")):
            predicted = joint.outcome_for(name).predicted_time_s
            measured = next(
                jr.elapsed_s for jr in sim.job_results if jr.job.spec.name == name
            )
            assert predicted == pytest.approx(measured, rel=0.4)
