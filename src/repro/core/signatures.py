"""Change tracking across workflow iterations (Section 4.2 of the paper).

Helix decides which intermediate results can be safely reused by determining
*equivalence* between nodes of the DAG at iteration ``t`` and ``t+1``
(Definition 2): a node is equivalent to a previous node if its operator
computes identical results on the same inputs and all of its parents are
equivalent.  Because verifying semantic equivalence of arbitrary programs is
undecidable (Rice's theorem), Helix uses *representational* equivalence: an
operator is unchanged if its declaration is unchanged and all ancestors are
unchanged.

This module computes a recursive **node signature** for every node:

    signature(n) = H(operator configuration signature, signatures of parents)

Two nodes with equal signatures are equivalent under representational
equivalence, regardless of their names, which also handles node renames and
workflow restructurings.  :func:`diff_signatures` classifies the nodes of the
next iteration against the previous iteration's signatures and the stored
ones as *original* (must be recomputed, Constraint 1) or reusable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set

from .dag import WorkflowDAG

__all__ = ["compute_node_signatures", "diff_signatures", "SignatureDiff"]


def compute_node_signatures(dag: WorkflowDAG) -> Dict[str, str]:
    """Compute the recursive signature of every node in topological order.

    The signature of a node depends on its operator configuration and the
    signatures of its parents (order-insensitive: parents are sorted so that
    declaring the same dependencies in a different order does not spuriously
    deprecate results).  An operator whose configuration has no canonical
    encoding raises ``TypeError`` naming the node and its operator class.
    """
    signatures: Dict[str, str] = {}
    for name in dag.topological_order():
        node = dag.node(name)
        try:
            config_signature = node.operator.config_signature()
        except TypeError as exc:
            raise TypeError(
                f"node {name!r} ({type(node.operator).__name__}) has no signature: {exc}"
            ) from exc
        parent_signatures = sorted(signatures[parent] for parent in node.parents)
        payload = "|".join([config_signature, *parent_signatures])
        signatures[name] = hashlib.sha256(payload.encode()).hexdigest()
    return signatures


@dataclass(frozen=True)
class SignatureDiff:
    """The result of comparing one iteration's signatures against history.

    Attributes
    ----------
    original:
        Nodes whose signature has never been seen before; by Constraint 1
        they must be recomputed.
    reusable:
        Nodes whose signature matches a previously seen signature; their
        results *may* be reused if a materialization exists.
    added / removed:
        Node names present only in the new / only in the previous iteration
        (useful for reporting; removed nodes have no effect on execution).
    """

    original: FrozenSet[str]
    reusable: FrozenSet[str]
    added: FrozenSet[str]
    removed: FrozenSet[str]


def diff_signatures(
    current: Mapping[str, str],
    previous: Mapping[str, str],
    known_signatures: Optional[Iterable[str]] = None,
) -> SignatureDiff:
    """Classify nodes of the current iteration against previous signatures.

    ``known_signatures`` may extend the set of signatures considered "seen"
    beyond the immediately preceding iteration (e.g. everything ever
    materialized), mirroring Definition 3 where a materialization from any
    ``t' <= t`` can be equivalent.
    """
    seen: Set[str] = set(previous.values())
    if known_signatures is not None:
        seen.update(known_signatures)
    original = frozenset(name for name, sig in current.items() if sig not in seen)
    reusable = frozenset(current) - original
    added = frozenset(current) - frozenset(previous)
    removed = frozenset(previous) - frozenset(current)
    return SignatureDiff(original=original, reusable=reusable, added=added, removed=removed)
