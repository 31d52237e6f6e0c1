"""OPT-EXEC-PLAN: the optimal execution (reuse) plan.

Problem 1 of the paper: given the Workflow DAG, per-node compute times
``c_i``, load times ``l_i`` (infinite when no equivalent materialization
exists) and the set of *original* nodes that must be recomputed (Constraint
1), assign each node one of three states

* ``Sc`` (compute from inputs),
* ``Sl`` (load the materialized result from disk),
* ``Sp`` (prune — neither computed nor loaded),

minimizing total run time subject to the execution-state constraint
(Constraint 2: a computed node's parents may not be pruned).

The problem is solved exactly by the reduction of Algorithm 1 to the Project
Selection Problem:

* for every node ``n_i`` create project ``a_i`` with profit ``-l_i`` and
  project ``b_i`` with profit ``l_i - c_i``;
* ``a_i`` is a prerequisite of ``b_i`` (computing implies not pruning);
* for every DAG edge ``(n_i, n_j)``, ``a_i`` is a prerequisite of ``b_j``
  (computing a child requires every parent to be loaded or computed).

Selecting ``{a_i, b_i}`` maps to ``Sc``, selecting only ``a_i`` maps to
``Sl``, and selecting neither maps to ``Sp``.  Of all optimal selections the
minimum cut yields the smallest, so ties go to the lesser state: never ``Sc``
where ``Sl`` costs the same, never ``Sl`` where ``Sp`` does.

Most of that selection is settled by the DAG's structure, and a linear
*presolve* (one sweep, children before parents) settles it before any
network is built:

* ``forced`` — an original node is computed (Constraint 1), which makes its
  parents *must-produce*; so is every ``required`` node;
* ``no_materialization`` — a must-produce node with ``l = inf`` is computed,
  which passes must-produce on to its parents;
* ``dominated_load`` — ``b_i`` has no dependants, so with ``c_i >= l_i`` it
  is never selected: such a node is loaded if must-produce, and otherwise
  loaded or pruned; either way it asks nothing of its parents;
* ``unreachable_prune`` — a node that no must-produce node reaches upward
  through nodes that may be computed (``c < l``) is in no minimal optimal
  selection: it is pruned.

Only the residue (``min_cut``) goes through the reduction, with the settled
projects left out, so neither Constraint 1 nor an infinite load cost needs a
big-M stand-in, and a rerun solves the cone above its change rather than the
whole DAG: ``O(V + E)`` for the sweep plus Dinic's algorithm on the residue
(see :mod:`repro.optimizer.maxflow`).  :class:`ExecutionPlan` reports how many
nodes each rule decided and how large the network was.  A brute-force
reference solver is provided for testing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from ..core.dag import Node, WorkflowDAG
from ..exceptions import OptimizationError
from .maxflow import INFINITY, FlowNetwork

__all__ = ["NodeState", "ExecutionPlan", "solve_oep", "brute_force_oep", "plan_run_time"]


class NodeState(str, Enum):
    """Execution state of a node (Section 5.1)."""

    COMPUTE = "Sc"
    LOAD = "Sl"
    PRUNE = "Sp"


@dataclass(frozen=True)
class ExecutionPlan:
    """A state assignment for every node plus its estimated run time.

    ``decided_by`` counts the nodes each rule of the solver settled
    (``forced``, ``no_materialization``, ``dominated_load``,
    ``unreachable_prune``, ``min_cut``; see the module docstring) and
    ``flow_nodes`` / ``flow_edges`` give the size of the min-cut network that
    was built, 0 when the presolve settled everything.  They describe how the
    plan was found, not the plan: two plans with the same states are equal.
    """

    states: Mapping[str, NodeState]
    estimated_time: float
    forced: FrozenSet[str] = frozenset()
    decided_by: Mapping[str, int] = field(default_factory=dict, compare=False)
    flow_nodes: int = field(default=0, compare=False)
    flow_edges: int = field(default=0, compare=False)

    def state_fractions(self) -> Dict[str, float]:
        """Fraction of nodes in each state (Figure 8 of the paper)."""
        total = max(len(self.states), 1)
        return {
            state.value: sum(1 for s in self.states.values() if s is state) / total
            for state in NodeState
        }


def plan_run_time(
    states: Mapping[str, NodeState],
    compute_time: Mapping[str, float],
    load_time: Mapping[str, float],
) -> float:
    """Total run time of a plan under the true cost estimates (Equation 1)."""
    total = 0.0
    for name, state in states.items():
        if state is NodeState.COMPUTE:
            total += compute_time[name]
        elif state is NodeState.LOAD:
            total += load_time[name]
    return total


def _validate_inputs(
    dag: WorkflowDAG,
    compute_time: Mapping[str, float],
    load_time: Mapping[str, float],
    forced_compute: Iterable[str],
    required: Iterable[str] = (),
) -> Tuple[Set[str], Set[str]]:
    forced = set(forced_compute)
    needed = set(required)
    names = dag.node_names
    for kind, times in (("compute", compute_time), ("load", load_time)):
        try:
            lowest = min(map(times.__getitem__, names), default=0.0)
        except KeyError as error:
            raise OptimizationError(f"missing {kind} time for node {error.args[0]!r}") from None
        if lowest < 0:
            name = next(name for name in names if times[name] < 0)
            raise OptimizationError(f"negative {kind} time for node {name!r}")
    if max(map(compute_time.__getitem__, names), default=0.0) == INFINITY:
        name = next(name for name in names if compute_time[name] == INFINITY)
        raise OptimizationError(f"infinite compute time for node {name!r}")
    unknown = sorted(name for name in forced | needed if name not in dag)
    if unknown:
        raise OptimizationError(f"forced/required nodes not in DAG: {unknown}")
    return forced, needed


def solve_oep(
    dag: WorkflowDAG,
    compute_time: Mapping[str, float],
    load_time: Mapping[str, float],
    forced_compute: Iterable[str] = (),
    required: Iterable[str] = (),
) -> ExecutionPlan:
    """Solve OPT-EXEC-PLAN exactly: linear presolve, then Algorithm 1 on the rest.

    Parameters
    ----------
    dag:
        The (already sliced) Workflow DAG.
    compute_time / load_time:
        Estimated ``c_i`` and ``l_i`` per node name; ``l_i`` may be infinite
        when no equivalent materialization exists.
    forced_compute:
        Names of original nodes that must be recomputed (Constraint 1).
    required:
        Names of nodes that must be *produced* (loaded or computed, not
        pruned), regardless of cost.  Helix itself only uses Constraint 1 —
        unchanged outputs stay on disk — but the exact OPT-MAT-PLAN solver
        and what-if analyses need to model "the next iteration must produce
        its outputs".
    """
    forced, needed = _validate_inputs(dag, compute_time, load_time, forced_compute, required)
    computed, loaded = NodeState.COMPUTE, NodeState.LOAD

    # Presolve, children before parents, so that by the time a node is visited
    # every computed child has already put it in ``must``.
    states: Dict[str, NodeState] = dict.fromkeys(dag.node_names, NodeState.PRUNE)
    must = forced | needed  # produced (Sc or Sl) in every feasible plan
    reach: Set[str] = set()  # produced only if the cut computes a descendant
    residue: List[Node] = []
    unloadable = dominated = 0
    for node in reversed(list(dag)):
        name = node.name
        if name in forced:
            states[name] = computed
            must.update(node.parents)
        elif name in must:
            if load_time[name] == INFINITY:
                states[name] = computed
                unloadable += 1
                must.update(node.parents)
            elif compute_time[name] >= load_time[name]:
                states[name] = loaded
                dominated += 1
            else:
                residue.append(node)
                reach.update(node.parents)
        elif name in reach:
            residue.append(node)
            if compute_time[name] < load_time[name]:
                reach.update(node.parents)

    flow_nodes = flow_edges = 0
    if residue:
        flow_nodes, flow_edges = _cut_residue(residue, must, compute_time, load_time, states)
    decided_by = {
        "forced": len(forced),
        "no_materialization": unloadable,
        "dominated_load": dominated,
        "unreachable_prune": len(states) - len(forced) - unloadable - dominated - len(residue),
        "min_cut": len(residue),
    }
    return ExecutionPlan(
        states=states,
        estimated_time=plan_run_time(states, compute_time, load_time),
        forced=frozenset(forced),
        decided_by=decided_by,
        flow_nodes=flow_nodes,
        flow_edges=flow_edges,
    )


def _cut_residue(
    residue: List[Node],
    must: Set[str],
    compute_time: Mapping[str, float],
    load_time: Mapping[str, float],
    states: Dict[str, NodeState],
) -> Tuple[int, int]:
    """Algorithm 1 on the nodes the presolve left open; fills in ``states``.

    Node ``k`` of the residue owns network node ``2k + 2`` for its project
    ``a`` (produce it) and ``2k + 3`` for ``b`` (compute it); 0 is the source
    and 1 the sink.  A project the presolve settled is left out: ``a`` of a
    ``must`` node is selected, ``b`` of a node with ``c >= l`` is not.  A node
    that cannot be loaded has the single project ``b``, worth ``-c``, which
    stands for both.  Returns the network's node and edge counts.
    """
    source, sink = 0, 1
    network = FlowNetwork()
    network.add_node(source)
    network.add_node(sink)
    add_edge = network.add_edge
    # Network node whose selection means "this node is produced", for the
    # nodes where that is still open.
    produced: Dict[str, int] = {}
    for k, node in enumerate(residue):
        if node.name not in must:
            produced[node.name] = 2 * k + 2 + (load_time[node.name] == INFINITY)
    for k, node in enumerate(residue):
        name = node.name
        c, l = compute_time[name], load_time[name]
        a = 2 * k + 2
        b = a + 1
        if c >= l:
            add_edge(a, sink, l)
            continue
        if l == INFINITY:
            add_edge(b, sink, c)
        else:
            add_edge(source, b, l - c)
            if name not in must:
                add_edge(b, a, INFINITY)
                add_edge(a, sink, l)
        for parent in node.parents:
            target = produced.get(parent)
            if target is not None:
                add_edge(b, target, INFINITY)

    _value, selected, _rest = network.min_cut(source, sink)
    for k, node in enumerate(residue):
        a = 2 * k + 2
        if a + 1 in selected:
            states[node.name] = NodeState.COMPUTE
        elif a in selected or node.name in must:
            states[node.name] = NodeState.LOAD
    return len(network.nodes), network.num_edges


def brute_force_oep(
    dag: WorkflowDAG,
    compute_time: Mapping[str, float],
    load_time: Mapping[str, float],
    forced_compute: Iterable[str] = (),
    required: Iterable[str] = (),
    max_nodes: int = 12,
) -> ExecutionPlan:
    """Exhaustive reference solver for testing (exponential in the node count)."""
    forced, needed = _validate_inputs(dag, compute_time, load_time, forced_compute, required)
    names = list(dag.node_names)
    if len(names) > max_nodes:
        raise OptimizationError(
            f"brute-force OEP limited to {max_nodes} nodes, got {len(names)}"
        )
    best_states: Optional[Dict[str, NodeState]] = None
    best_time = float("inf")
    for assignment in itertools.product(list(NodeState), repeat=len(names)):
        states = dict(zip(names, assignment))
        if not _is_feasible(dag, states, load_time, forced, needed):
            continue
        total = plan_run_time(states, compute_time, load_time)
        if total < best_time - 1e-15:
            best_time = total
            best_states = states
    if best_states is None:
        raise OptimizationError("no feasible execution plan exists")
    return ExecutionPlan(states=best_states, estimated_time=best_time, forced=frozenset(forced))


def _is_feasible(
    dag: WorkflowDAG,
    states: Mapping[str, NodeState],
    load_time: Mapping[str, float],
    forced: Set[str],
    required: Set[str] = frozenset(),
) -> bool:
    for name in forced:
        if states[name] is not NodeState.COMPUTE:
            return False
    for name in required:
        if states[name] is NodeState.PRUNE:
            return False
    for name, state in states.items():
        if state is NodeState.LOAD and load_time[name] == float("inf"):
            return False
        if state is NodeState.COMPUTE:
            for parent in dag.parents(name):
                if states[parent] is NodeState.PRUNE:
                    return False
    return True
