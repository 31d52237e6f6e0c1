"""The Workflow builder: a Python rendering of the paper's HML DSL.

HML is an embedded DSL in Scala; here the same declarations are expressed
through a builder object.  Each HML statement maps onto a builder method:

===============================================  =====================================
HML statement                                     Builder call
===============================================  =====================================
``data refers_to FileSource(...)``                ``wf.data_source("data", source)``
``data is_read_into rows using CSVScanner(...)``  ``wf.scan("rows", "data", scanner)``
``ageExt refers_to FieldExtractor("age")``        ``wf.extractor("ageExt", "rows", op)``
``rows has_extractors(eduExt, ...)``              ``wf.has_extractors("rows", [...])``
``income results_from rows with_labels target``   ``wf.examples("income", "rows", label="target")``
``predictions results_from incPred on income``    ``wf.learner("predictions", "income", op)``
``checked results_from checkResults on ...``      ``wf.reducer("checked", "predictions", op)``
``checkResults uses extractorName(rows, target)``  ``uses=["target"]`` argument
``checked is_output()``                           ``wf.output("checked")``
===============================================  =====================================

Arbitrary operators can be declared with :meth:`Workflow.node`, which is what
the higher-level helpers use internally.  :meth:`Workflow.compile` produces
the :class:`~repro.core.dag.WorkflowDAG` used by the optimizer and execution
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..exceptions import WorkflowSpecError
from .dag import Node, WorkflowDAG
from .operators import (
    Component,
    DataSource,
    ExampleSynthesizer,
    Extractor,
    Learner,
    Operator,
    Reducer,
    Scanner,
    Synthesizer,
)

__all__ = ["Workflow"]


@dataclass
class _Declaration:
    """One declared node: operator, parents, output flag, component override."""

    name: str
    operator: Operator
    parents: List[str] = field(default_factory=list)
    is_output: bool = False
    component: Optional[Component] = None


class Workflow:
    """Declarative builder for a Helix workflow.

    A workflow is a set of named declarations plus linking statements; it is
    compiled into a :class:`WorkflowDAG` with :meth:`compile`.  Builders are
    mutable and cheap — the iteration simulators construct a fresh workflow
    object per iteration from a configuration object.
    """

    def __init__(self, name: str = "workflow"):
        self.name = name
        self._declarations: Dict[str, _Declaration] = {}
        self._order: List[str] = []
        self._attached_extractors: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------ basics
    def __contains__(self, name: str) -> bool:
        return name in self._declarations

    def _declare(
        self,
        name: str,
        operator: Operator,
        parents: Sequence[str],
        is_output: bool = False,
        component: Optional[Component] = None,
    ) -> str:
        if not name or not isinstance(name, str):
            raise WorkflowSpecError("node names must be non-empty strings")
        if name in self._declarations:
            raise WorkflowSpecError(f"name {name!r} is already declared")
        for parent in parents:
            if parent not in self._declarations:
                raise WorkflowSpecError(
                    f"declaration of {name!r} references undeclared name {parent!r}"
                )
        self._declarations[name] = _Declaration(
            name=name,
            operator=operator,
            parents=list(parents),
            is_output=is_output,
            component=component,
        )
        self._order.append(name)
        return name

    # ------------------------------------------------------------------ generic
    def node(
        self,
        name: str,
        operator: Operator,
        parents: Sequence[str] = (),
        component: Optional[Component] = None,
        is_output: bool = False,
    ) -> str:
        """Declare an arbitrary operator node (escape hatch for custom operators)."""
        return self._declare(name, operator, parents, is_output=is_output, component=component)

    # ------------------------------------------------------------------ DPR
    def data_source(self, name: str, source: DataSource) -> str:
        """``name refers_to FileSource(...)`` — declare a root data source."""
        if not isinstance(source, DataSource):
            raise WorkflowSpecError("data_source requires a DataSource operator")
        return self._declare(name, source, parents=())

    def scan(self, name: str, source: str, scanner: Scanner) -> str:
        """``source is_read_into name using scanner`` — parse raw records."""
        if not isinstance(scanner, Scanner):
            raise WorkflowSpecError("scan requires a Scanner operator")
        return self._declare(name, scanner, parents=[source])

    def extractor(
        self,
        name: str,
        inputs: Union[str, Sequence[str]],
        operator: Extractor,
        attach_to: Optional[str] = None,
    ) -> str:
        """Declare a feature extractor over one or more upstream collections.

        ``attach_to`` (defaulting to the first input when it is a scanned
        record collection) registers the extractor for automatic inclusion in
        example assembly — the paper's ``has_extractors`` bookkeeping.
        """
        parent_list = [inputs] if isinstance(inputs, str) else list(inputs)
        if not parent_list:
            raise WorkflowSpecError("extractor requires at least one input")
        declared = self._declare(name, operator, parents=parent_list)
        target = attach_to or parent_list[0]
        if target in self._declarations:
            self._attached_extractors.setdefault(target, []).append(name)
        return declared

    def has_extractors(self, dc_name: str, extractor_names: Sequence[str]) -> None:
        """``dc has_extractors(e1, e2, ...)`` — explicitly set the attached extractors.

        Overrides any previous attachment for ``dc_name``: extractors omitted
        here are *not* included in example assembly and become candidates for
        output-driven pruning, which is how users perform manual feature
        selection in the paper's census example.
        """
        if dc_name not in self._declarations:
            raise WorkflowSpecError(f"unknown data collection {dc_name!r}")
        for extractor_name in extractor_names:
            if extractor_name not in self._declarations:
                raise WorkflowSpecError(f"unknown extractor {extractor_name!r}")
        self._attached_extractors[dc_name] = list(extractor_names)

    def attached_extractors(self, dc_name: str) -> List[str]:
        """The extractors currently attached to a data collection."""
        return list(self._attached_extractors.get(dc_name, []))

    def examples(
        self,
        name: str,
        base: str,
        extractors: Optional[Sequence[str]] = None,
        label: Optional[str] = None,
        synthesizer: Optional[Synthesizer] = None,
    ) -> str:
        """``name results_from base with_labels label`` — assemble examples.

        The example node's parents are the base collection plus all attached
        (or explicitly listed) extractors; these are the "dotted" edges the
        intermediate code generator adds in Figure 3b of the paper.
        """
        extractor_list = list(extractors) if extractors is not None else self.attached_extractors(base)
        label_source = None
        if label is not None:
            if label not in self._declarations:
                raise WorkflowSpecError(f"unknown label extractor {label!r}")
            declaration = self._declarations[label]
            label_source = getattr(declaration.operator, "feature_name", label)
            if label not in extractor_list:
                extractor_list = extractor_list + [label]
        operator = synthesizer or ExampleSynthesizer(label_source=label_source)
        return self._declare(name, operator, parents=[base, *extractor_list])

    def synthesize(self, name: str, inputs: Sequence[str], synthesizer: Synthesizer) -> str:
        """``name results_from synthesizer on (a, b, ...)`` — generic join/assembly."""
        if not isinstance(synthesizer, Synthesizer):
            raise WorkflowSpecError("synthesize requires a Synthesizer operator")
        return self._declare(name, synthesizer, parents=list(inputs))

    # ------------------------------------------------------------------ L/I & PPR
    def learner(self, name: str, examples: str, operator: Learner) -> str:
        """``name results_from learner on examples`` — train and infer."""
        if not isinstance(operator, Learner):
            raise WorkflowSpecError("learner requires a Learner operator")
        return self._declare(name, operator, parents=[examples], component=Component.LI)

    def reducer(
        self,
        name: str,
        inputs: Union[str, Sequence[str]],
        operator: Reducer,
        uses: Sequence[str] = (),
    ) -> str:
        """``name results_from reducer on inputs`` with explicit UDF dependencies.

        ``uses`` adds extra parent edges for dependencies that are opaque to
        the optimizer because they only appear inside the reducer's UDF
        (the ``uses`` keyword in HML) — they prevent both pruning and
        premature cache eviction of those nodes.
        """
        parent_list = [inputs] if isinstance(inputs, str) else list(inputs)
        extra = [u for u in uses if u not in parent_list]
        for dependency in extra:
            if dependency not in self._declarations:
                raise WorkflowSpecError(f"'uses' references undeclared name {dependency!r}")
        return self._declare(
            name, operator, parents=parent_list + extra, component=Component.PPR
        )

    def uses(self, name: str, dependencies: Sequence[str]) -> None:
        """``name uses (a, b)`` — add explicit dependencies to an existing node."""
        if name not in self._declarations:
            raise WorkflowSpecError(f"unknown name {name!r}")
        declaration = self._declarations[name]
        for dependency in dependencies:
            if dependency not in self._declarations:
                raise WorkflowSpecError(f"'uses' references undeclared name {dependency!r}")
            if dependency not in declaration.parents:
                declaration.parents.append(dependency)

    def output(self, *names: str) -> None:
        """``name is_output()`` — mark one or more nodes as mandatory outputs."""
        for name in names:
            if name not in self._declarations:
                raise WorkflowSpecError(f"cannot mark unknown name {name!r} as output")
            self._declarations[name].is_output = True

    # ------------------------------------------------------------------ compile
    def compile(self) -> WorkflowDAG:
        """Compile the declarations into a Workflow DAG.

        The DAG contains *all* declared nodes, including ones that do not
        contribute to any output; pruning those is the optimizer's job
        (mirroring the compiler/optimizer split in the paper, Figure 3b).
        """
        if not self._declarations:
            raise WorkflowSpecError("cannot compile an empty workflow")
        nodes = [
            Node.create(
                name=decl.name,
                operator=decl.operator,
                parents=decl.parents,
                is_output=decl.is_output,
                component=decl.component,
            )
            for decl in (self._declarations[name] for name in self._order)
        ]
        return WorkflowDAG(nodes, name=self.name)
