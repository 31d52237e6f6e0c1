"""The execution engine: carries out the physical plan produced by the optimizer.

One :class:`ExecutionEngine` lifecycle serves every executor strategy.  The
engine walks the optimized DAG with an event-driven scheduler: every node
whose parents have resolved is dispatched onto the given
:class:`~repro.execution.executors.Executor` (``"inline"``, ``"thread"``,
``"process"`` or ``"distributed"``), and completions drive further dispatch.
While executing it

* charges per-node times according to the configured :class:`CostModel`,
* evicts nodes from the in-memory cache as soon as they go out of scope
  (Section 5.4, cache pruning) — scope is tracked with per-entry reference
  counts (one per still-outstanding consumer), so the same retirement
  machinery serves every executor, concurrent or not,
* at the eviction point asks the :class:`MaterializationPolicy` whether the
  node should be persisted (the streaming OPT-MAT-PLAN decision), always
  persisting mandatory outputs,
* records observed compute/load times and artifact sizes into the
  :class:`StatsStore` so the next iteration's optimizer has accurate
  estimates, and
* tracks memory usage for the Figure 10 experiment.

Equivalence contract
--------------------
All executors produce the *same run statistics* (outputs, node states,
charged node/component times under a deterministic cost model,
materialization decisions and materialized-node sets); only wall-clock and
the memory-residency profile may differ.  Two mechanisms guarantee this:

* **Reference-counted scope tracking** — a cached value is retired only
  after all of its executing consumers completed, so an operator can never
  observe a missing input regardless of completion order.
* **Deterministic retirement commits** — out-of-scope nodes are *committed*
  (streaming materialization decision, store write, eviction) by the
  scheduler in a fixed order: sorted by out-of-scope position in the
  topological order, then by name.  Because the streaming policy's
  cumulative run time (Definition 6) reads only the node's *ancestors* —
  which have necessarily completed — and the storage-budget sequence is
  fixed by the commit order, every decision matches bit for bit across
  executors.

The contract is checkable with the harness in
:mod:`repro.execution.equivalence` and enforced by
``tests/test_engine_parallel.py`` over randomly generated DAGs.

Out-of-process execution
------------------------
With the process and distributed executors, COMPUTE tasks are shipped to
workers as serialized ``(node_name, operator, inputs, context)`` payloads
(:mod:`repro.storage.serialization`; the distributed executor additionally
frames them for its TCP transport); the worker returns the value plus its
measured compute seconds, and the engine applies the cost model on receipt
so charged times follow the same code path as in-process execution.  LOAD
tasks, cache bookkeeping, retirement commits and stats recording never leave
the coordinating process.  Every COMPUTE operator is validated for process
safety (serialization round trip + :attr:`Operator.supports_processes`)
before any work is dispatched.
"""

from __future__ import annotations

import heapq
import time
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.dag import WorkflowDAG
from ..core.operators import RunContext, ensure_process_safe
from ..exceptions import BudgetExceededError, ExecutionError, OperatorError
from ..optimizer.metrics import StatsStore
from ..optimizer.oep import ExecutionPlan, NodeState
from ..optimizer.omp import MaterializationPolicy, NeverMaterialize
from ..optimizer.pruning import out_of_scope_after
from ..storage.serialization import ArtifactRef, estimate_size_bytes, serialize
from ..storage.store import MaterializationStore
from .cache import OperatorCache
from .clock import CostModel, MeasuredCostModel
from .executors import Executor, InlineExecutor
from .tracker import MemoryTracker, RunStats

__all__ = ["ExecutionEngine"]

#: Node signatures (class + configuration content hashes) already proven
#: process-safe, kept module-global because systems build a *fresh engine per
#: iteration*: the memo makes a multi-iteration lifecycle pay the validation
#: serialization round trip once per distinct operator configuration per process,
#: not once per iteration.  Bounded by a cap as a leak backstop.
_PROCESS_SAFE_SIGNATURES: Set[str] = set()
_PROCESS_SAFE_SIGNATURES_CAP = 50_000


class ExecutionEngine:
    """Executes physical plans against a store, cache and cost model.

    ``executor`` is the :class:`Executor` instance tasks are dispatched on
    (default: a new :class:`InlineExecutor`, the reference strategy).  The
    engine never builds or shuts down an executor: every run ends with
    ``finish_run``, and whoever built the instance — a ``System`` that
    built it from a name, or the caller — runs its final ``shutdown``.
    Build one from a name with
    :func:`~repro.execution.executors.create_executor`.
    """

    def __init__(
        self,
        store: MaterializationStore,
        policy: Optional[MaterializationPolicy] = None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsStore] = None,
        cache: Optional[OperatorCache] = None,
        context: Optional[RunContext] = None,
        materialize_outputs: bool = True,
        executor: Optional[Executor] = None,
    ):
        if executor is None:
            executor = InlineExecutor()
        elif not isinstance(executor, Executor):
            raise TypeError(
                f"executor must be an Executor instance, not {executor!r}; "
                f"build one from a name with create_executor()"
            )
        self.store = store
        self.policy = policy if policy is not None else NeverMaterialize()
        self.cost_model = cost_model if cost_model is not None else MeasuredCostModel()
        self.stats = stats if stats is not None else StatsStore()
        self.cache = cache if cache is not None else OperatorCache()
        self.context = context if context is not None else RunContext()
        self.materialize_outputs = materialize_outputs
        self.executor = executor

    # ------------------------------------------------------------------ public
    def execute(
        self,
        dag: WorkflowDAG,
        plan: ExecutionPlan,
        signatures: Mapping[str, str],
        iteration: int = 0,
    ) -> RunStats:
        """Run one iteration according to ``plan`` and return its statistics."""
        self._validate(dag, plan, signatures)
        self.cache.clear()
        memory = MemoryTracker()
        stats = self._new_run_stats(dag, plan, iteration)

        order = self._execution_order(dag, plan)
        if not order:
            return self._finalize_run(stats, memory)
        executing: Set[str] = set(order)
        consumers = self._consumer_counts(dag, executing)
        pending_parents = {
            name: len({p for p in dag.node(name).parents if p in executing})
            for name in order
        }

        # The reference retirement sequence: out-of-scope position in the
        # topological order, ties broken by name.  Commits follow this order
        # exactly, whatever the executor (see module docstring).
        scope = out_of_scope_after(dag, order)
        retirement_order = sorted(order, key=lambda n: (scope[n], n))
        retire_index = 0
        out_of_scope: Set[str] = set()

        completed: Set[str] = set()
        failure: Optional[BaseException] = None

        executor = self.executor
        # Give the executor read access to the store before any dispatch:
        # distributed workers without the coordinator's filesystem resolve
        # ArtifactRef inputs against it over the FETCH lane.
        executor.bind_store(self.store)
        if executor.out_of_process:
            self._validate_process_plan(dag, plan, order, signatures)
        # Input sizes of shipped COMPUTE tasks, kept scheduler-side so the
        # cost model can be applied when the worker's reply arrives.
        shipped_input_sizes: Dict[str, List[int]] = {}

        # Ready nodes, dispatched in topological order (a heap of positions).
        # Pool executors drain the whole frontier to keep workers busy;
        # synchronous executors take one task at a time so each value is
        # cached and retired before the next task runs — exactly the serial
        # reference walk, with its bounded memory profile.
        topo_position = {name: index for index, name in enumerate(order)}
        ready: List[int] = [topo_position[n] for n in order if pending_parents[n] == 0]
        heapq.heapify(ready)
        in_flight = 0

        def dispatch_ready() -> None:
            nonlocal in_flight
            while ready and not (executor.synchronous and in_flight > 0):
                name = order[heapq.heappop(ready)]
                self._dispatch(executor, dag, plan, signatures, name, shipped_input_sizes)
                in_flight += 1

        try:
            executor.start()
            dispatch_ready()
            while len(completed) < len(order):
                name, outcome, error = executor.next_completion()
                in_flight -= 1
                if error is not None:
                    failure = error
                    break
                value, charged = self._charged_result(dag, name, outcome, shipped_input_sizes)

                node = dag.node(name)
                size_bytes = estimate_size_bytes(value)
                self.cache.put(name, value, size_bytes)
                self.cache.set_consumers(name, consumers[name])
                stats.node_times[name] = charged
                stats.node_sizes[name] = size_bytes
                if node.is_output:
                    stats.outputs[name] = value
                completed.add(name)
                memory.snapshot(self.cache.snapshot_bytes())

                # Reference-count bookkeeping: this node consumed each of its
                # executing parents once, and is itself out of scope
                # immediately when it has no executing consumers.
                if consumers[name] == 0:
                    out_of_scope.add(name)
                for parent in {p for p in node.parents if p in executing}:
                    if self.cache.release(parent):
                        out_of_scope.add(parent)

                for child in {c for c in dag.children(name) if c in executing}:
                    pending_parents[child] -= 1
                    if pending_parents[child] == 0:
                        heapq.heappush(ready, topo_position[child])

                while (
                    retire_index < len(retirement_order)
                    and retirement_order[retire_index] in out_of_scope
                ):
                    retired = retirement_order[retire_index]
                    self._retire_node(dag, retired, signatures[retired], stats, iteration)
                    memory.snapshot(self.cache.snapshot_bytes())
                    retire_index += 1

                dispatch_ready()
        except BaseException:
            self.cache.clear()
            raise
        finally:
            # On failure this cancels every not-yet-started task and waits
            # for in-flight operators to drain before surfacing the error.
            # The pools stay alive for the executor's next run; its owner
            # runs the final shutdown().
            executor.finish_run(cancel=True)

        if failure is not None:
            self.cache.clear()
            raise failure

        self._restore_deterministic_order(dag, stats, order)
        return self._finalize_run(stats, memory)

    # ------------------------------------------------------------------ dispatch
    def _dispatch(
        self,
        executor: Executor,
        dag: WorkflowDAG,
        plan: ExecutionPlan,
        signatures: Mapping[str, str],
        name: str,
        shipped_input_sizes: Dict[str, List[int]],
    ) -> None:
        """Hand one ready node to the executor."""
        state = plan.states[name]
        if executor.out_of_process and state is NodeState.COMPUTE:
            payload, input_sizes = self._build_process_payload(
                dag, name, signatures, use_refs=executor.uses_artifact_refs
            )
            shipped_input_sizes[name] = input_sizes
            executor.submit_payload(name, payload)
            return
        executor.submit(name, partial(self._run_node, dag, name, state, signatures[name]))

    def _build_process_payload(
        self,
        dag: WorkflowDAG,
        name: str,
        signatures: Mapping[str, str],
        use_refs: bool = False,
    ) -> Tuple[bytes, List[int]]:
        """Serialize one COMPUTE task for an out-of-process worker.

        With ``use_refs`` (executors whose workers fetch from the bound
        store), inputs whose value is already materialized ship as
        :class:`ArtifactRef` placeholders instead of inline bytes — the
        worker pulls them over the FETCH lane and caches them, so an input
        shared by several tasks crosses the wire once, not once per task.
        Input *sizes* are always taken from the live cached values, so the
        cost model sees identical numbers whichever way the value travels.
        """
        inputs, input_sizes = self._gather_inputs(dag, name)
        if use_refs:
            inputs = [
                ArtifactRef(signatures[parent])
                if self.store.has(signatures[parent])
                else value
                for parent, value in zip(dag.node(name).parents, inputs)
            ]
        try:
            payload = serialize((name, dag.node(name).operator, inputs, self.context))
        except Exception as exc:  # noqa: BLE001 - inputs/operator without a codec
            raise ExecutionError(
                f"cannot ship node {name!r} to a worker process: its operator or "
                f"inputs failed to serialize: {exc}"
            ) from exc
        return payload, input_sizes

    def _charged_result(
        self,
        dag: WorkflowDAG,
        name: str,
        outcome: Any,
        shipped_input_sizes: Dict[str, List[int]],
    ) -> Tuple[Any, float]:
        """Charge one completion.

        In-process outcomes are already ``(value, charged)``; out-of-process
        COMPUTE outcomes are ``(value, measured_seconds)`` and the cost model
        is applied here, on the scheduler, so charging is identical across
        executors.
        """
        if name in shipped_input_sizes:
            input_sizes = shipped_input_sizes.pop(name)
            value, measured = outcome
            node = dag.node(name)
            charged = self.cost_model.compute_cost(
                node.operator, node.component, input_sizes, measured
            )
            return value, charged
        return outcome

    # ------------------------------------------------------------------ helpers
    def _new_run_stats(self, dag: WorkflowDAG, plan: ExecutionPlan, iteration: int) -> RunStats:
        stats = RunStats(iteration=iteration, workflow_name=dag.name)
        stats.node_states = dict(plan.states)
        stats.original_nodes = sorted(plan.forced)
        return stats

    def _execution_order(self, dag: WorkflowDAG, plan: ExecutionPlan) -> List[str]:
        """Non-pruned nodes in the DAG's deterministic topological order."""
        return [
            name
            for name in dag.topological_order()
            if plan.states[name] is not NodeState.PRUNE
        ]

    @staticmethod
    def _consumer_counts(dag: WorkflowDAG, executing: Set[str]) -> Dict[str, int]:
        """Number of executing consumers per executing node (scope refcounts)."""
        return {
            name: len({child for child in dag.children(name) if child in executing})
            for name in executing
        }

    @staticmethod
    def _restore_deterministic_order(
        dag: WorkflowDAG, stats: RunStats, order: List[str]
    ) -> None:
        """Rebuild completion-ordered mappings in topological order.

        Nodes may complete in a nondeterministic order, so ``node_times``,
        ``node_sizes`` and ``outputs`` are re-keyed to the topological
        iteration order, and ``component_times`` is accumulated in that order
        so even the floating-point summation sequence is identical across
        executors.
        """
        stats.node_times = {name: stats.node_times[name] for name in order}
        stats.node_sizes = {name: stats.node_sizes[name] for name in order}
        stats.outputs = {
            name: stats.outputs[name] for name in order if name in stats.outputs
        }
        component_times: Dict[str, float] = {}
        for name in order:
            component = dag.node(name).component.value
            component_times[component] = (
                component_times.get(component, 0.0) + stats.node_times[name]
            )
        stats.component_times = component_times

    def _finalize_run(self, stats: RunStats, memory: MemoryTracker) -> RunStats:
        self.cache.clear()
        stats.storage_bytes = self.store.total_bytes()
        stats.peak_memory_bytes = memory.peak_bytes
        stats.average_memory_bytes = memory.average_bytes
        return stats

    def _validate(
        self,
        dag: WorkflowDAG,
        plan: ExecutionPlan,
        signatures: Mapping[str, str],
    ) -> None:
        for name in dag.node_names:
            if name not in plan.states:
                raise ExecutionError(f"execution plan is missing a state for node {name!r}")
            if name not in signatures:
                raise ExecutionError(f"missing signature for node {name!r}")
        for name, state in plan.states.items():
            if state is NodeState.COMPUTE:
                for parent in dag.parents(name):
                    if plan.states.get(parent) is NodeState.PRUNE:
                        raise ExecutionError(
                            f"infeasible plan: {name!r} is computed but parent {parent!r} is pruned"
                        )

    def _validate_process_plan(
        self,
        dag: WorkflowDAG,
        plan: ExecutionPlan,
        order: Sequence[str],
        signatures: Mapping[str, str],
    ) -> None:
        """Every COMPUTE node must be process-safe before any work starts.

        Validation is memoized per node signature (module-global, since
        systems rebuild the engine per iteration), so multi-iteration
        lifecycles pay the serialization round trip once per distinct operator
        configuration rather than once per iteration.
        """
        for name in order:
            if plan.states[name] is not NodeState.COMPUTE:
                continue
            signature = signatures[name]
            if signature in _PROCESS_SAFE_SIGNATURES:
                continue
            ensure_process_safe(dag.node(name).operator, node_name=name)
            if len(_PROCESS_SAFE_SIGNATURES) >= _PROCESS_SAFE_SIGNATURES_CAP:
                _PROCESS_SAFE_SIGNATURES.clear()
            _PROCESS_SAFE_SIGNATURES.add(signature)

    def _run_node(
        self, dag: WorkflowDAG, name: str, state: NodeState, signature: str
    ) -> Tuple[Any, float]:
        """Produce one node's value (load or compute) and its charged time."""
        if state is NodeState.LOAD:
            return self._load_node(name, signature)
        return self._compute_node(dag, name)

    def _load_node(self, name: str, signature: str) -> Tuple[Any, float]:
        if not self.store.has(signature):
            raise ExecutionError(
                f"plan loads node {name!r} but no materialization exists for it"
            )
        value, measured = self.store.load(signature)
        record = self.store.catalog.get(signature)
        size_bytes = record.size_bytes if record is not None else estimate_size_bytes(value)
        charged = self.cost_model.io_cost(size_bytes, measured)
        self.stats.record(signature, load_time=charged, storage_bytes=size_bytes)
        return value, charged

    def _gather_inputs(self, dag: WorkflowDAG, name: str) -> Tuple[List[Any], List[int]]:
        """Collect a node's cached input values and their estimated sizes.

        The sizes are the ones estimated once when each value was cached, so
        a value read by several consumers is never estimated again.
        """
        node = dag.node(name)
        inputs: List[Any] = []
        input_sizes: List[int] = []
        for parent in node.parents:
            if parent not in self.cache:
                raise ExecutionError(
                    f"cannot compute node {name!r}: input {parent!r} is not cached "
                    f"(evicted or never produced); the operator would run with "
                    f"fewer inputs than the DAG declares"
                )
            entry = self.cache.get(parent)
            inputs.append(entry.value)
            input_sizes.append(entry.size_bytes)
        return inputs, input_sizes

    def _compute_node(self, dag: WorkflowDAG, name: str) -> Tuple[Any, float]:
        node = dag.node(name)
        inputs, input_sizes = self._gather_inputs(dag, name)
        started = time.perf_counter()
        try:
            value = node.operator.run(inputs, self.context)
        except OperatorError:
            raise
        except Exception as exc:  # noqa: BLE001 - wrap arbitrary operator failures
            raise OperatorError(name, str(exc)) from exc
        measured = time.perf_counter() - started
        charged = self.cost_model.compute_cost(node.operator, node.component, input_sizes, measured)
        return value, charged

    def _retire_node(
        self,
        dag: WorkflowDAG,
        name: str,
        signature: str,
        stats: RunStats,
        iteration: int,
    ) -> None:
        """Apply the streaming materialization decision and evict from cache."""
        entry = self.cache.evict(name)
        if entry is None:
            return
        node = dag.node(name)
        size_bytes = entry.size_bytes
        load_estimate = self.cost_model.estimate_io_cost(size_bytes)
        decision = self.policy.decide(
            name,
            dag,
            stats.node_times,
            load_estimate,
            size_bytes,
            self.store.remaining_budget(),
        )
        stats.decisions.append(decision)
        mandatory = node.is_output and self.materialize_outputs
        should_materialize = decision.materialize or mandatory
        if not should_materialize or self.store.has(signature):
            # Record compute-time/size statistics even when not materializing so
            # that future iterations can still estimate costs.
            self.stats.record(
                signature,
                compute_time=stats.node_times.get(name),
                storage_bytes=size_bytes,
            )
            return
        try:
            artifact = self.store.put(name, signature, entry.value, iteration=iteration)
        except BudgetExceededError:
            self.stats.record(
                signature,
                compute_time=stats.node_times.get(name),
                storage_bytes=size_bytes,
            )
            return
        write_charged = self.cost_model.io_cost(artifact.record.size_bytes, artifact.write_time)
        stats.materialization_time += write_charged
        stats.materialized_nodes.append(name)
        self.stats.record(
            signature,
            compute_time=stats.node_times.get(name),
            load_time=self.cost_model.estimate_io_cost(artifact.record.size_bytes),
            storage_bytes=artifact.record.size_bytes,
        )

