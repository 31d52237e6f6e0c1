"""Workflow DAG pruning and cache-eviction planning (Section 5.4 of the paper).

Output-driven pruning (program slicing: traverse backwards from the declared
outputs and drop every node not visited, which is what removes ``raceExt`` in
the paper's census example) is :meth:`WorkflowDAG.sliced_to_outputs`.  This
module computes, for each node, the point in the execution order after which
it goes *out of scope* (all consumers done), which fixes the execution
engine's retirement order: eager uncaching and the streaming materialization
decisions.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..core.dag import WorkflowDAG

__all__ = ["out_of_scope_after"]


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
