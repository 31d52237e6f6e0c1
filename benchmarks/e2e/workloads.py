"""The four benchmark workloads and the two benchmark-local synthetic DAGs.

Two paper lifecycles stress the store/canonical layer in opposite ways
(``census_reuse`` reads back what it wrote, ``mnist_churn`` mostly does
not); two synthetic ones take the store out of the picture and load the
optimizer (``synth1k_optimizer``) and the distributed dispatch path
(``wide_distributed``).  See ``README.md`` for the full rationale.

What ``--seed`` drives.  A different iteration plan or modification choice
is a different *amount* of work (a Census DPR edit costs 3x a PPR edit;
measured lifecycle spread across seed-drawn plans was 9-16 %), so the paper
lifecycles pin both at the repository's default plan seed and let the seed
generate the *data*.  The synthetic DAGs are regular — every node of a
layer has the same descendant cone — so there the seed also draws which
nodes change, at constant work.

The synthetic workloads are built only from :meth:`Workflow.node` and the
operators of :mod:`repro.workloads.synthetic`, which spawned workers can
import; nothing defined in this file is ever pickled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.workflow import Workflow
from repro.workloads.base import Workload, WorkloadCharacteristics, get_workload
from repro.workloads.iterations import IterationSpec, IterationType, build_iteration_plan
from repro.workloads.synthetic import CpuBoundOperator, LatencyOperator

__all__ = ["Scenario", "SCENARIOS", "PLAN_SEED"]

#: The repository's default lifecycle seed (``run_lifecycle(seed=7)``,
#: ``benchmarks/_bench_helpers.SEED``): the paper lifecycles use its plan.
PLAN_SEED = 7


def _synthetic_characteristics(name: str) -> WorkloadCharacteristics:
    return WorkloadCharacteristics(
        name=name,
        domain="synthetic",
        application_domain="Benchmark",
        num_data_sources="Single",
        input_to_example="n/a",
        feature_granularity="n/a",
        learning_task="n/a",
    )


# --------------------------------------------------------------------------
# synth1k_optimizer: ~1000 live microsecond nodes, one mid-layer edit per rerun
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class LayeredConfig:
    """Per-node offsets of the layered DAG; an edit replaces one of them."""

    layers: int
    width: int
    base: float
    #: ``(layer, column) -> offset`` overrides accumulated by the edits so far.
    edits: Tuple[Tuple[Tuple[int, int], float], ...] = ()


class LayeredWorkload(Workload):
    """``layers x width`` ring-connected grid joined by one output sink.

    Node ``(l, j)`` reads ``(l-1, j)`` and ``(l-1, j+1 mod width)``, so every
    node reaches the sink (all survive ``sliced_to_outputs``) and every node
    of a layer has a descendant cone of the same size: which mid-layer node
    an iteration edits changes the values, never the amount of work.
    """

    name = "synth1k"
    domain = "synthetic"
    LAYERS = 15
    WIDTH = 50
    #: Declared (simulated-clock) seconds per node, against a modelled store
    #: load of 100 us: loading a node is dearer than computing it but cheaper
    #: than computing its ancestors, so OPT-EXEC-PLAN has a real cut to find.
    #: (With the default 1 s the same plan falls out of a trivial flow, 25x
    #: faster, and the reruns would no longer load the optimizer.)
    COST = 5e-5

    def characteristics(self) -> WorkloadCharacteristics:
        return _synthetic_characteristics(self.name)

    def initial_config(self, scale: float = 1.0, seed: int = 0) -> LayeredConfig:
        del scale
        return LayeredConfig(self.LAYERS, self.WIDTH, base=1.0 + (seed % 997) / 997.0)

    def apply_iteration(
        self, config: LayeredConfig, spec: IterationSpec, rng: np.random.Generator
    ) -> LayeredConfig:
        if spec.index == 0:
            return config
        column = int(rng.integers(config.width))
        edit = ((config.layers // 2, column), config.base + float(spec.index))
        return replace(config, edits=config.edits + (edit,))

    def build(self, config: LayeredConfig) -> Workflow:
        offsets = dict(config.edits)
        wf = Workflow(self.name)
        for layer in range(config.layers):
            for column in range(config.width):
                name = f"n{layer}_{column}"
                parents = (
                    [f"n{layer - 1}_{column}", f"n{layer - 1}_{(column + 1) % config.width}"]
                    if layer
                    else []
                )
                offset = offsets.get((layer, column), config.base + 0.001 * column)
                wf.node(name, LatencyOperator(offset=offset, scale=0.5, cost=self.COST, tag=name),
                        parents)
        tails = [f"n{config.layers - 1}_{column}" for column in range(config.width)]
        wf.node("sink", LatencyOperator(scale=1.0 / config.width, cost=self.COST, tag="sink"),
                tails, is_output=True)
        return wf

    def expected_nodes(self, config: LayeredConfig) -> int:
        return config.layers * config.width + 1

    def expected_tasks(self, config: LayeredConfig, reuse: bool) -> int:
        """Executed (computed + loaded) nodes of the iteration that made ``config``."""
        if not config.edits or not reuse:
            return self.expected_nodes(config)
        below = config.layers - 1 - config.layers // 2  # layers under the edited one
        # The cone widens by one column per layer (width is never reached).
        cone = sum(k + 1 for k in range(below + 1))
        # Loaded frontier: the two outside parents of every cone layer (the
        # edited node's included) plus the sink's untouched tails.
        frontier = 2 * (below + 1) + (config.width - (below + 1))
        return cone + 1 + frontier


# --------------------------------------------------------------------------
# wide_distributed: 64 short CPU-bound chains, half of them edited per rerun
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class WideConfig:
    branches: int
    depth: int
    spin: int
    base: float
    #: Version of each branch's level-0 node; an edit bumps half of them.
    versions: Tuple[int, ...] = ()
    edited: int = 0


class WideWorkload(Workload):
    """Source -> ``branches`` chains of ``depth`` CPU-bound nodes -> sink."""

    name = "wide"
    domain = "synthetic"
    BRANCHES = 64
    DEPTH = 4
    SPIN = 12000

    def characteristics(self) -> WorkloadCharacteristics:
        return _synthetic_characteristics(self.name)

    def initial_config(self, scale: float = 1.0, seed: int = 0) -> WideConfig:
        del scale
        return WideConfig(
            self.BRANCHES, self.DEPTH, self.SPIN,
            base=1.0 + (seed % 997) / 997.0, versions=(0,) * self.BRANCHES,
        )

    def apply_iteration(
        self, config: WideConfig, spec: IterationSpec, rng: np.random.Generator
    ) -> WideConfig:
        if spec.index == 0:
            return config
        chosen = set(rng.choice(config.branches, size=config.branches // 2, replace=False).tolist())
        versions = tuple(
            version + 1 if branch in chosen else version
            for branch, version in enumerate(config.versions)
        )
        return replace(config, versions=versions, edited=len(chosen))

    def build(self, config: WideConfig) -> Workflow:
        wf = Workflow(self.name)
        wf.node("source", CpuBoundOperator(spin=config.spin, offset=config.base, tag="source"))
        tails: List[str] = []
        for branch, version in enumerate(config.versions):
            previous = "source"
            for level in range(config.depth):
                name = f"b{branch}_n{level}"
                offset = float(branch + 1) + (float(version) if level == 0 else 0.0)
                wf.node(
                    name,
                    CpuBoundOperator(spin=config.spin, offset=offset, scale=1.0 + 0.1 * level,
                                     tag=name),
                    [previous],
                )
                previous = name
            tails.append(previous)
        wf.node("sink", CpuBoundOperator(spin=config.spin, tag="sink"), tails, is_output=True)
        return wf

    def expected_nodes(self, config: WideConfig) -> int:
        return config.branches * config.depth + 2

    def expected_tasks(self, config: WideConfig, reuse: bool) -> int:
        if not config.edited or not reuse:
            return self.expected_nodes(config)
        # Edited chains and the sink recompute; the source and the untouched
        # chains' tails are loaded for them.
        return config.edited * config.depth + 1 + 1 + (config.branches - config.edited)


# --------------------------------------------------------------------------
# Scenario table
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One benchmark workload: what runs, on which store and executor."""

    name: str
    workload: Workload
    iterations: int
    scale: float = 1.0
    #: ``"disk"`` = :class:`DiskStore` on a tmpdir (measured I/O), ``"memory"``
    #: = :class:`InMemoryStore`.
    store: str = "memory"
    executor: str = "inline"
    #: Whether plan and modification choices are pinned to ``PLAN_SEED``
    #: (module docstring).
    pinned_plan: bool = False

    def plan(self, seed: int) -> List[IterationSpec]:
        if self.pinned_plan:
            return build_iteration_plan(self.workload.domain, self.iterations, seed=PLAN_SEED)
        return [
            IterationSpec(index, IterationType.DPR, "initial run" if index == 0 else "node edit")
            for index in range(self.iterations)
        ]

    def change_rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng((PLAN_SEED if self.pinned_plan else seed) + 1)

    def expected_counts(self, config: Any, reuse: bool) -> Dict[str, int]:
        """Node and task counts the run must reproduce (synthetic DAGs only)."""
        if not hasattr(self.workload, "expected_tasks"):
            return {}
        return {
            "nodes": self.workload.expected_nodes(config),
            "tasks": self.workload.expected_tasks(config, reuse),
        }


#: Name -> scenario; ``BENCHMARK.json`` records why each was chosen.  Scales and
#: iteration counts are sized so that one ``opt`` + baseline round takes 2-3.5 s
#: and a 20 s run fits at least five rounds.
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario("census_reuse", get_workload("census"), iterations=10, scale=0.5,
                 store="disk", pinned_plan=True),
        Scenario("mnist_churn", get_workload("mnist"), iterations=10, scale=0.25,
                 store="disk", pinned_plan=True),
        Scenario("synth1k_optimizer", LayeredWorkload(), iterations=3),
        Scenario("wide_distributed", WideWorkload(), iterations=5, executor="distributed"),
    )
}
