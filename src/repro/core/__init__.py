"""Core data model, operators, DSL and DAG representation."""

from .data import (
    DataCollection,
    ElementKind,
    Example,
    FeatureVector,
    Record,
    SemanticUnit,
    Split,
)
from .dag import Node, WorkflowDAG
from .hml import HML, HMLName
from .operators import (
    Bucketizer,
    Component,
    CSVScanner,
    DataSource,
    ExampleSynthesizer,
    Extractor,
    FieldExtractor,
    FunctionExtractor,
    InteractionFeature,
    Learner,
    Operator,
    PredictionsResult,
    Reducer,
    RunContext,
    Scanner,
    Synthesizer,
)
from .signatures import SignatureDiff, compute_node_signatures, diff_signatures
from .workflow import Workflow

__all__ = [
    "HML",
    "HMLName",
    "DataCollection",
    "ElementKind",
    "Example",
    "FeatureVector",
    "Record",
    "SemanticUnit",
    "Split",
    "Node",
    "WorkflowDAG",
    "Bucketizer",
    "Component",
    "CSVScanner",
    "DataSource",
    "ExampleSynthesizer",
    "Extractor",
    "FieldExtractor",
    "FunctionExtractor",
    "InteractionFeature",
    "Learner",
    "Operator",
    "PredictionsResult",
    "Reducer",
    "RunContext",
    "Scanner",
    "Synthesizer",
    "SignatureDiff",
    "compute_node_signatures",
    "diff_signatures",
    "Workflow",
]
