"""Synthetic DAG generators for the scalability benchmarks and the
engine-equivalence harness.

Three families of DAGs are produced:

* :func:`make_wide_dag` — the Figure 7-style scalability shape: one source
  fanning out into ``branches`` independent operator chains that join into a
  single output.  With ``node_seconds > 0`` every node carries a modelled
  latency (a real ``time.sleep``), which is what the latency-bound executor
  benchmark uses: such work overlaps across threads even on a single core,
  exactly like the store loads and external calls it stands in for.
* :func:`make_cpu_dag` — the same wide topology built from
  :class:`CpuBoundOperator` nodes: pure-Python arithmetic that holds the GIL
  for its entire duration.  This is the workload shape where the thread
  executor provably does *not* scale (its workers serialize on the GIL)
  while the process executor does — the CPU-bound half of the Figure 7c
  comparison.
* :func:`make_random_dag` — seeded random layered DAGs with configurable
  width/depth and edge density, used by the equivalence suite to exercise
  many LOAD/COMPUTE/PRUNE mixes and materialization policies.

All operators are deterministic pure functions of their inputs and
configuration (and encodable), so any two executors (or repeated runs) must
produce identical values — the property the equivalence tests pin down.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.dag import Node, WorkflowDAG
from ..core.operators import Component, Operator, RunContext

__all__ = [
    "LatencyOperator",
    "CpuBoundOperator",
    "make_wide_dag",
    "make_cpu_dag",
    "make_random_dag",
]

_COMPONENTS = (Component.DPR, Component.LI, Component.PPR)


class LatencyOperator(Operator):
    """Deterministic arithmetic over float inputs with an optional modelled latency.

    Computes ``offset + scale * sum(inputs)`` (roots simply return
    ``offset``), optionally sleeping ``sleep_seconds`` first to emulate
    latency-bound work (I/O, network, an external service).  ``cost`` is the
    declared cost used by the simulated clock, keeping charged times
    deterministic regardless of the real sleep.
    """

    def __init__(
        self,
        offset: float = 0.0,
        scale: float = 1.0,
        sleep_seconds: float = 0.0,
        cost: float = 1.0,
        tag: str = "",
        component: Component = Component.DPR,
    ):
        self.offset = float(offset)
        self.scale = float(scale)
        self.sleep_seconds = float(sleep_seconds)
        self.cost = float(cost)
        self.tag = tag
        self.component = component

    def config(self) -> Dict[str, Any]:
        return {
            "offset": self.offset,
            "scale": self.scale,
            "sleep_seconds": self.sleep_seconds,
            "cost": self.cost,
            "tag": self.tag,
        }

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        return self.cost

    def run(self, inputs: Sequence[Any], context: RunContext) -> Any:
        if self.sleep_seconds > 0.0:
            time.sleep(self.sleep_seconds)
        total = self.offset
        for value in inputs:
            total += self.scale * float(value)
        return total


class CpuBoundOperator(Operator):
    """Deterministic pure-Python CPU-bound work (GIL-bound under threads).

    Iterates a 31-bit linear congruential generator ``spin`` times in a plain
    Python loop — work that never releases the GIL, so a thread pool cannot
    scale it while a process pool can.  The result deterministically mixes
    the final LCG state with ``offset + scale * sum(inputs)``, so every
    executor must produce bit-identical values.  ``cost`` is the declared
    cost used by the simulated clock, keeping charged times deterministic
    regardless of real CPU time.
    """

    def __init__(
        self,
        spin: int = 100_000,
        offset: float = 0.0,
        scale: float = 1.0,
        cost: float = 1.0,
        tag: str = "",
        component: Component = Component.DPR,
    ):
        self.spin = int(spin)
        self.offset = float(offset)
        self.scale = float(scale)
        self.cost = float(cost)
        self.tag = tag
        self.component = component

    def config(self) -> Dict[str, Any]:
        return {
            "spin": self.spin,
            "offset": self.offset,
            "scale": self.scale,
            "cost": self.cost,
            "tag": self.tag,
        }

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        return self.cost

    def run(self, inputs: Sequence[Any], context: RunContext) -> Any:
        state = (int(self.offset * 1000.0) * 2654435761 + 12345) & 0x7FFFFFFF
        for _ in range(self.spin):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        total = self.offset
        for value in inputs:
            total += self.scale * float(value)
        return total + (state % 997) * 1e-9


def make_wide_dag(
    branches: int = 8,
    depth: int = 3,
    node_seconds: float = 0.0,
    cost: float = 1.0,
    name: str = "wide",
) -> WorkflowDAG:
    """A source fanning into ``branches`` chains of ``depth`` nodes, joined at a sink.

    The resulting DAG has ``branches * depth + 2`` nodes; the sink is the
    single declared output.  This is the wide shape of the Figure 7
    scalability experiments where DAG-level parallelism pays off most.
    """
    if branches < 1 or depth < 1:
        raise ValueError("branches and depth must be at least 1")
    nodes: List[Node] = [
        Node.create(
            "source",
            LatencyOperator(offset=1.0, sleep_seconds=node_seconds, cost=cost, tag="source"),
        )
    ]
    tails: List[str] = []
    for branch in range(branches):
        previous = "source"
        for level in range(depth):
            node_name = f"b{branch}_n{level}"
            nodes.append(
                Node.create(
                    node_name,
                    LatencyOperator(
                        offset=float(branch + 1),
                        scale=1.0 + 0.1 * level,
                        sleep_seconds=node_seconds,
                        cost=cost,
                        tag=node_name,
                        component=_COMPONENTS[branch % len(_COMPONENTS)],
                    ),
                    parents=[previous],
                )
            )
            previous = node_name
        tails.append(previous)
    nodes.append(
        Node.create(
            "sink",
            LatencyOperator(offset=0.0, sleep_seconds=node_seconds, cost=cost, tag="sink"),
            parents=tails,
            is_output=True,
        )
    )
    return WorkflowDAG(nodes, name=name)


def make_cpu_dag(
    branches: int = 8,
    depth: int = 2,
    spin: int = 100_000,
    cost: float = 1.0,
    name: str = "cpu",
) -> WorkflowDAG:
    """The wide Figure 7 topology built from CPU-bound pure-Python operators.

    ``spin`` LCG iterations per branch node (the source and sink spin 1/20th
    of that, keeping the unavoidably serial critical path cheap).  With a
    thread executor this shape shows < 1.3x speedup regardless of
    ``max_workers`` — the workers serialize on the GIL — while a process
    executor scales with ``min(max_workers, cores)``.
    """
    if branches < 1 or depth < 1:
        raise ValueError("branches and depth must be at least 1")
    endpoint_spin = max(1, spin // 20)
    nodes: List[Node] = [
        Node.create(
            "source",
            CpuBoundOperator(spin=endpoint_spin, offset=1.0, cost=cost, tag="source"),
        )
    ]
    tails: List[str] = []
    for branch in range(branches):
        previous = "source"
        for level in range(depth):
            node_name = f"b{branch}_n{level}"
            nodes.append(
                Node.create(
                    node_name,
                    CpuBoundOperator(
                        spin=spin,
                        offset=float(branch + 1),
                        scale=1.0 + 0.1 * level,
                        cost=cost,
                        tag=node_name,
                        component=_COMPONENTS[branch % len(_COMPONENTS)],
                    ),
                    parents=[previous],
                )
            )
            previous = node_name
        tails.append(previous)
    nodes.append(
        Node.create(
            "sink",
            CpuBoundOperator(spin=endpoint_spin, offset=0.0, cost=cost, tag="sink"),
            parents=tails,
            is_output=True,
        )
    )
    return WorkflowDAG(nodes, name=name)


def make_random_dag(
    seed: int,
    max_width: int = 4,
    max_depth: int = 5,
    edge_probability: float = 0.5,
    node_seconds: float = 0.0,
    name: Optional[str] = None,
) -> WorkflowDAG:
    """A seeded random layered DAG for the equivalence suite.

    Layers have random widths in ``[1, max_width]``; every non-root node gets
    at least one parent in the previous layer plus random extra edges into
    earlier layers with ``edge_probability``.  Costs, offsets and components
    vary per node (driving different cost-model charges and component
    breakdowns); every sink is a declared output so output-driven slicing
    keeps the whole DAG and mandatory materialization paths are exercised.
    """
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(2, max_depth + 1))
    layers: List[List[str]] = []
    nodes: List[Node] = []
    counter = 0
    for level in range(depth):
        width = int(rng.integers(1, max_width + 1))
        layer: List[str] = []
        for _ in range(width):
            node_name = f"n{counter}"
            counter += 1
            parents: List[str] = []
            if level > 0:
                previous_layer = layers[level - 1]
                anchor = previous_layer[int(rng.integers(0, len(previous_layer)))]
                parents.append(anchor)
                earlier = [
                    candidate
                    for earlier_layer in layers
                    for candidate in earlier_layer
                    if candidate != anchor
                ]
                for candidate in earlier:
                    if rng.random() < edge_probability:
                        parents.append(candidate)
            operator = LatencyOperator(
                offset=float(rng.integers(1, 6)),
                scale=float(rng.choice([0.5, 1.0, 2.0])),
                sleep_seconds=node_seconds,
                cost=float(np.round(rng.uniform(0.5, 4.0), 3)),
                tag=node_name,
                component=_COMPONENTS[int(rng.integers(0, len(_COMPONENTS)))],
            )
            nodes.append(Node.create(node_name, operator, parents=parents))
            layer.append(node_name)
        layers.append(layer)
    dag = WorkflowDAG(nodes, name=name or f"random-{seed}")
    return dag.relabel_outputs(dag.sinks())
