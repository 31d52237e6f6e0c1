"""Process-safety contract over the built-in workloads.

The process executor requires every COMPUTE operator to be encodable (its
payload is serialized to a worker and the value serialized back).  These
tests pin the contract for the library itself:

* every operator produced by every registered workload — across several
  lifecycle iterations, not just the initial configuration — round-trips
  through ``serialize``/``deserialize`` to the same bytes with its
  configuration signature intact, and passes :func:`ensure_process_safe`;
* :func:`ensure_process_safe` raises a clear :class:`ExecutionError` naming
  the node for operators without an encoding and ``supports_processes=False``
  opt-outs;
* a real workload lifecycle (census) executed on the process executor is
  equivalent to the inline reference, iteration by iteration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.operators import ensure_process_safe
from repro.exceptions import ExecutionError
from repro.execution.clock import SimulatedCostModel
from repro.execution.equivalence import assert_equivalent_runs
from repro.experiments.runner import run_lifecycle
from repro.storage.serialization import deserialize, serialize
from repro.systems.helix import HelixSystem

from conftest import OptedOutOperator, UnpicklableOperator
from repro.workloads import WORKLOADS
from repro.workloads.iterations import build_iteration_plan

#: Iterations sampled per workload: enough to hit DPR/LI/PPR modifications
#: (model swaps, extractor toggles, metric changes) that build new operators.
N_ITERATIONS = 4


def _iterated_dags(workload, n_iterations: int = N_ITERATIONS, seed: int = 7):
    """Yield the compiled DAG of every lifecycle iteration of ``workload``."""
    plan = build_iteration_plan(workload.domain, n_iterations, seed=seed)
    rng = np.random.default_rng(seed + 1)
    config = workload.initial_config(scale=0.25, seed=seed)
    for spec in plan:
        config = workload.apply_iteration(config, spec, rng)
        yield workload.build(config).compile().sliced_to_outputs()


class TestWorkloadPicklability:
    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    def test_every_operator_round_trips_with_signature_intact(self, workload_name):
        workload = WORKLOADS[workload_name]
        checked = 0
        for dag in _iterated_dags(workload):
            for name in dag.node_names:
                operator = dag.node(name).operator
                signature = operator.config_signature()
                ensure_process_safe(operator, node_name=name)
                payload = serialize(operator)
                clone = deserialize(payload)
                assert clone.config_signature() == signature, (
                    f"{workload_name}:{name} changed signature across encoding"
                )
                assert serialize(clone) == payload, f"{workload_name}:{name}"
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    def test_every_operator_declares_process_support(self, workload_name):
        workload = WORKLOADS[workload_name]
        for dag in _iterated_dags(workload, n_iterations=1):
            for name in dag.node_names:
                assert dag.node(name).operator.supports_processes


class TestEnsureProcessSafe:
    def test_rejects_non_picklable_naming_node(self):
        with pytest.raises(ExecutionError, match="my_node.*UnpicklableOperator.*not encodable"):
            ensure_process_safe(UnpicklableOperator(), node_name="my_node")

    def test_rejects_non_picklable_without_node_name(self):
        with pytest.raises(ExecutionError, match="UnpicklableOperator.*not encodable"):
            ensure_process_safe(UnpicklableOperator())

    def test_rejects_opt_out_flag(self):
        with pytest.raises(ExecutionError, match="my_node.*supports_processes=False"):
            ensure_process_safe(OptedOutOperator(), node_name="my_node")

    def test_accepts_library_operators(self):
        from repro.workloads.synthetic import CpuBoundOperator, LatencyOperator

        ensure_process_safe(LatencyOperator(offset=1.0), node_name="latency")
        ensure_process_safe(CpuBoundOperator(spin=10), node_name="cpu")


class TestWorkerPayloadFailures:
    def test_worker_rejects_garbage_payload_with_operator_error(self):
        """Payload deserialization failures in a worker surface as the same
        typed, picklable OperatorError as any other operator failure."""
        from repro.exceptions import OperatorError
        from repro.execution.executors import run_serialized_task

        with pytest.raises(OperatorError, match="could not deserialize"):
            run_serialized_task(b"not a pickle")


class TestSharedExecutorInstance:
    def test_process_pool_survives_across_lifecycle_iterations(self):
        """A user-supplied executor instance amortizes pool startup: the
        per-iteration engines drain it (finish_run) instead of destroying it,
        and the caller owns the final shutdown."""
        from repro.execution.executors import ProcessExecutor

        executor = ProcessExecutor(max_workers=2)
        try:
            system = HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0)
            system.configure_executor(executor)
            assert system.executor is executor
            result = run_lifecycle(system, "census", n_iterations=2, scale=0.25)
            assert len(result.iterations) == 2
            assert executor._pool is not None  # survived both iterations
        finally:
            executor.shutdown()
        assert executor._pool is None


class TestProcessLifecycleEquivalence:
    def test_census_lifecycle_on_process_executor_matches_inline(self):
        reference = run_lifecycle(
            HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0),
            "census",
            n_iterations=2,
            scale=0.25,
        )
        with HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0) as candidate_system:
            candidate = run_lifecycle(
                candidate_system,
                "census",
                n_iterations=2,
                scale=0.25,
                executor="process",
                max_workers=2,
            )
            assert candidate_system.executor.name == "process"
        assert len(reference.iterations) == len(candidate.iterations)
        for inline_stats, process_stats in zip(reference.iterations, candidate.iterations):
            # Canonical serialization makes exact artifact sizes — and the
            # storage_bytes statistic — bit-identical across the process
            # boundary, so the comparison includes them with exact equality
            # (repro/execution/equivalence.py).  Charged times are derived
            # from measured size estimates and stay approximate.
            assert_equivalent_runs(inline_stats, process_stats, include_times=False)
            assert process_stats.storage_bytes == inline_stats.storage_bytes
            assert process_stats.node_times == pytest.approx(
                inline_stats.node_times, rel=1e-3
            )
            assert process_stats.materialization_time == pytest.approx(
                inline_stats.materialization_time, rel=1e-3
            )
