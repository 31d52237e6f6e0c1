"""Workflow DAG pruning (Section 5.4 of the paper).

Output-driven pruning (program slicing: traverse backwards from the declared
outputs and drop every node not visited, which is what removes ``raceExt`` in
the paper's census example) is :meth:`WorkflowDAG.sliced_to_outputs`.  This
module holds the other two mechanisms:

* **Data-driven pruning** — use provenance bookkeeping (feature name ->
  producing extractor, recorded on every example) together with the learned
  model's feature weights to find extractors whose features all received
  zero weight; such operators can be pruned without changing predictions.
* **Cache-eviction planning** — compute, for each node, the point in the
  execution order after which it goes *out of scope* (all consumers done),
  which fixes the execution engine's retirement order: eager uncaching and
  the streaming materialization decisions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.dag import WorkflowDAG
from ..core.operators import PredictionsResult

__all__ = ["zero_weight_extractors", "out_of_scope_after"]


def zero_weight_extractors(
    result: PredictionsResult,
    weight_threshold: float = 0.0,
    protected: Iterable[str] = (),
) -> FrozenSet[str]:
    """Extractor sources whose features all have |weight| <= threshold.

    Requires a linear model exposing ``feature_weights()`` (a mapping from
    feature name to coefficient) or a ``weights_`` array aligned with the
    learner's feature index.  Sources listed in ``protected`` (e.g. the label
    extractor) are never returned.  When weights are unavailable the function
    returns an empty set — pruning must never be speculative.
    """
    model = result.model
    weights: Optional[Mapping[str, float]] = None
    if hasattr(model, "feature_weights"):
        weights = model.feature_weights()
    elif hasattr(model, "weights_") and result.feature_index:
        array = np.asarray(model.weights_, dtype=float).ravel()
        weights = {
            name: float(array[pos])
            for name, pos in result.feature_index.items()
            if pos < array.size
        }
    if not weights:
        return frozenset()

    # Group features by the extractor that produced them using provenance.
    produced_by: Dict[str, Set[str]] = {}
    for example in result.predictions:
        for feature_name, source in getattr(example, "provenance", {}).items():
            produced_by.setdefault(source, set()).add(feature_name)

    protected_set = set(protected)
    prunable: Set[str] = set()
    for source, feature_names in produced_by.items():
        if source in protected_set:
            continue
        if all(abs(weights.get(name, 0.0)) <= weight_threshold for name in feature_names):
            prunable.add(source)
    return frozenset(prunable)


def out_of_scope_after(dag: WorkflowDAG, execution_order: Sequence[str]) -> Dict[str, int]:
    """For each node, the index in ``execution_order`` after which it is out of scope.

    A node is out of scope once all of its children (among the nodes actually
    being executed) have run (Definition 5).  Nodes with no executing children
    go out of scope immediately after their own execution.  Nodes that are not
    in ``execution_order`` (pruned or loaded-and-unused) are omitted.
    """
    positions = {name: index for index, name in enumerate(execution_order)}
    schedule: Dict[str, int] = {}
    for name in execution_order:
        last = positions[name]
        for child in dag.children(name):
            child_position = positions.get(child)
            if child_position is not None and child_position > last:
                last = child_position
        schedule[name] = last
    return schedule
