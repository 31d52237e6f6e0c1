"""Operator interfaces for Helix workflows.

Section 3.1 of the paper argues that ML workflow operations decompose into a
small set of basis functions (parsing, join, feature extraction, feature
transformation, feature concatenation, learning, inference, reduce).  Section
3.2.2 exposes these through five operator interfaces which this module
implements:

* :class:`DataSource` — reads/creates raw records (root nodes of the DAG).
* :class:`Scanner` — parsing; a flatMap from records to records/semantic units.
* :class:`Extractor` — feature extraction and (possibly learned) feature
  transformation; operates on semantic units.
* :class:`Synthesizer` — join / example assembly; gathers SU outputs into
  :class:`~repro.core.data.Example` elements with optional labels.
* :class:`Learner` — learning + inference in a single operator.
* :class:`Reducer` — PPR; reduces a DC (and an optional scalar) to a scalar.

Every operator carries a *configuration signature* used for representational
equivalence checking across iterations (Section 4.2): an operator is
considered unchanged if its declaration — class, parameters, and UDF code —
is unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import types
import zlib
from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ExecutionError, OperatorError, WorkflowSpecError
from ..storage.canonical import (
    CANONICAL_MAGIC,
    CANONICAL_VERSION,
    _build_codec,
    _compile,
    _Encoder,
    _put_str,
)
from .data import (
    DataCollection,
    ElementKind,
    Example,
    FeatureVector,
    Record,
    SemanticUnit,
    Split,
    _column,
    _dicts,
    _is_dense,
    _shapes,
    _state,
    _vector,
    _widths,
    _with_columns,
)

__all__ = [
    "Component",
    "RunContext",
    "Operator",
    "ensure_process_safe",
    "DataSource",
    "Scanner",
    "CSVScanner",
    "Extractor",
    "FieldExtractor",
    "Bucketizer",
    "InteractionFeature",
    "FunctionExtractor",
    "Synthesizer",
    "ExampleSynthesizer",
    "Learner",
    "PredictionsResult",
    "Reducer",
]


class Component(str, Enum):
    """Workflow component a node belongs to (used for run-time breakdowns)."""

    DPR = "DPR"
    LI = "L/I"
    PPR = "PPR"


@dataclass
class RunContext:
    """Ambient state passed to every operator invocation.

    Attributes
    ----------
    seed:
        Seed for any randomized operator (learners, samplers).  The execution
        engine derives a per-node seed from this value so results are
        reproducible.
    num_workers:
        Number of (simulated) workers; operators that model parallel work can
        divide their cost by this value.
    extras:
        Free-form bag for application-specific configuration.
    """

    seed: int = 0
    num_workers: int = 1
    extras: Dict[str, Any] = field(default_factory=dict)


#: Tags of values only a signature encodes: nothing decodes these bytes.
_T_CALLABLE = b"C"
_T_CODE = b"B"
_T_ELLIPSIS = b"."
#: Opens every signature's hashed bytes, as it opens a canonical payload.
_SIGNATURE_PREFIX = CANONICAL_MAGIC + bytes((CANONICAL_VERSION,))


class _SignatureEncoder(_Encoder):
    """The canonical encoding with every callable as its :func:`_callable_token`."""

    __slots__ = ()

    def compile(self, kind: type) -> Callable[[_Encoder, Any], None]:
        callable_kind = any("__call__" in vars(klass) for klass in kind.__mro__)
        codec = self.codecs[kind] = _enc_callable if callable_kind else _compile(kind)
        return codec


def _enc_callable(enc: _Encoder, fn: Callable[..., Any]) -> None:
    out = enc.out
    out += _T_CALLABLE
    _put_str(out, enc.strings, _callable_token(fn, enc.stack))


def _enc_code(enc: _Encoder, code: types.CodeType) -> None:
    """Bytecode, the global and attribute names it loads, and its constants
    (nested functions' code objects among them, walked the same way)."""
    enc.out += _T_CODE
    enc.value((code.co_code, code.co_names, code.co_consts))


def _enc_ellipsis(enc: _Encoder, value: Any) -> None:
    enc.out += _T_ELLIPSIS


_SignatureEncoder.codecs = {types.CodeType: _enc_code, type(Ellipsis): _enc_ellipsis}


def _callable_token(fn: Callable[..., Any], stack: Optional[set] = None) -> str:
    """A callable's code identity: its module-qualified name, then the sha256
    of whatever else defines it, when there is any:

    * an explicit ``_version`` attribute, which user code can bump to signal
      a semantic change the rest does not show;
    * a Python function's bytecode, the names it loads and its constants
      (nested functions' code included), then its defaults, keyword
      defaults and closure cells;
    * a bound method's receiver (unless a module or a class), so ``A(1).f``
      and ``A(2).f`` never share a token;
    * a ``functools.partial``'s function, arguments and keywords;
    * a callable instance's ``__call__`` and its state, through canonical's
      object codec (its class need not be importable).

    C functions (builtins, ufuncs) are their name only, so ``numpy.log`` and
    ``math.log`` still differ; classes are their name and ``_version``.  A
    part without a canonical encoding raises ``TypeError`` naming ``fn``.
    ``stack`` is the enclosing encoder's cycle guard: a callable reached
    again through its own closure or receiver is its name there.
    """
    receiver = state = None
    parts: Tuple[Any, ...] = ()
    if isinstance(fn, type):
        name = f"{fn.__module__}.{fn.__qualname__}"
    elif isinstance(fn, functools.partial):
        name = "functools.partial"
        parts = (fn.func, fn.args, fn.keywords)
    else:
        qualname = getattr(fn, "__qualname__", None)
        if qualname is None:  # a callable instance
            cls = type(fn)
            name = f"{cls.__module__}.{cls.__qualname__}"
            parts = (cls.__call__,)
            state = _build_codec(cls, decodable=False)
        else:
            module = getattr(fn, "__module__", None)
            if module is None:  # a method descriptor such as ``str.upper``
                module = getattr(getattr(fn, "__objclass__", None), "__module__", None)
            name = f"{module}.{qualname}"
            receiver = getattr(fn, "__self__", None)
            if isinstance(receiver, (types.ModuleType, type)):
                receiver = None
            code = getattr(fn, "__code__", None)
            if code is not None:
                cells = tuple(cell.cell_contents for cell in fn.__closure__ or ())
                parts = (code, fn.__defaults__, fn.__kwdefaults__, cells)
    version = getattr(fn, "_version", None)
    if (version is None and not parts and receiver is None) or (stack is not None and id(fn) in stack):
        return name
    scratch = _SignatureEncoder(allow_oob=False)
    if stack is not None:
        scratch.stack = stack
    try:
        if state is not None:
            state(scratch, fn)
        marker = scratch.enter(fn)
        scratch.value((version, parts, receiver))
    except TypeError as exc:
        raise TypeError(f"callable {name} has no signature: {exc}") from exc
    scratch.stack.discard(marker)
    return f"{name}:{hashlib.sha256(scratch.out).hexdigest()}"


class Operator(ABC):
    """Base class for all Helix operators.

    Subclasses implement :meth:`run` (the actual computation) and
    :meth:`config` (the declaration parameters that define the operator's
    behaviour for equivalence checking).

    Execution contract
    ------------------
    The executor strategies place two progressively stronger requirements on
    :meth:`run`:

    * **Thread safety** (thread executor): ``run`` may be invoked
      concurrently with *other* operators' ``run`` (each node still runs at
      most once per iteration), so it must not mutate shared global state
      without synchronizing and must not rely on any ordering beyond its
      declared DAG edges.
    * **Process safety** (distributed executor): ``run`` must additionally be a
      *pure, encodable* function of ``(inputs, context)`` — the operator and
      its inputs are serialized to a worker process and only the returned
      value travels back, so mutations of inputs or of in-process globals are
      silently lost.  UDF-style configuration must be encodable by
      reference: module-level functions and classes travel as their
      ``module.qualname``, callable instances as their attributes; closures,
      lambdas and bound methods have no encoding.

    Reuse assumes ``run`` is a function of its inputs and :meth:`config`
    alone: a step that draws random numbers carries its seed in
    ``config()``, as MNIST's random-feature featurizer does, so a fresh
    draw is a new seed and therefore a new signature.
    """

    #: Which workflow component this operator belongs to.
    component: Component = Component.DPR

    #: Whether this operator may run inside a worker *process*.  The
    #: distributed executor validates encodability with a serialize/deserialize round
    #: trip before dispatching any work (see :func:`ensure_process_safe`);
    #: set this to ``False`` to opt out explicitly — e.g. an operator that
    #: would encode fine but depends on shared in-process state (open
    #: handles, module-level caches it mutates, monkeypatched hooks).
    supports_processes: bool = True

    @abstractmethod
    def run(self, inputs: Sequence[Any], context: RunContext) -> Any:
        """Execute the operator on already-computed input values."""

    def config(self) -> Dict[str, Any]:
        """Parameters defining the operator's behaviour (default: none)."""
        return {}

    def config_signature(self) -> str:
        """The sha256 of the canonical encoding of ``(class, config())``.

        Two operators with the same class and configuration are assumed to
        compute identical results on identical inputs (representational
        equivalence, Section 4.2).  The class and every callable encode as
        their code identity (:func:`_callable_token`); every other value as
        :mod:`~repro.storage.canonical` encodes it, so two configurations
        share a signature exactly when their canonical bytes are equal.  A
        value canonical refuses raises ``TypeError``.
        """
        enc = _SignatureEncoder(allow_oob=False)
        enc.value((type(self), self.config()))
        return hashlib.sha256(_SIGNATURE_PREFIX + enc.out).hexdigest()

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        """Simulated compute cost (seconds) used by the simulated clock.

        The default is proportional to total input size; operators with
        markedly different cost profiles override this.
        """
        return 1e-6 * (sum(input_sizes) + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.config()})"


def ensure_process_safe(operator: Operator, node_name: Optional[str] = None) -> None:
    """Validate that ``operator`` can run in an out-of-process worker.

    Checks the :attr:`Operator.supports_processes` capability flag, then
    performs a full ``serialize``/``deserialize`` round trip of the operator
    (the same codec the engine uses to ship task payloads), raising a clear
    :class:`~repro.exceptions.ExecutionError` that names the node and
    operator class when either check fails.  The engine calls this
    for every COMPUTE node *before* dispatching any work, so a workflow that
    is not encodable by reference fails fast instead of mid-run.
    """
    label = (
        f"node {node_name!r} ({type(operator).__name__})"
        if node_name is not None
        else f"operator {type(operator).__name__}"
    )
    if not getattr(operator, "supports_processes", True):
        raise ExecutionError(
            f"{label} declares supports_processes=False and cannot run on the "
            f"distributed executor; run this workflow on the inline or thread executor"
        )
    # Imported here: storage.serialization is dependency-free, but importing it
    # at module load would invert the core -> storage layering.
    from ..storage.serialization import deserialize, serialize

    try:
        deserialize(serialize(operator))
    except Exception as exc:
        raise ExecutionError(
            f"{label} is not encodable by reference and cannot run on the distributed executor: "
            f"{exc}; move UDFs to module level (functions or callable classes) "
            f"or set supports_processes=False to fail fast"
        ) from exc


# ---------------------------------------------------------------------------
# Data sources
# ---------------------------------------------------------------------------
class DataSource(Operator):
    """Root operator producing a collection of raw :class:`Record` elements.

    A data source calls a ``generator`` function returning ``(train_rows,
    test_rows)``; the workloads' generators synthesize their datasets.  The
    train and test records are concatenated into a single DC with per-record
    split tags, implementing the paper's unified train/test handling.
    """

    component = Component.DPR

    def __init__(
        self,
        generator: Optional[Callable[[RunContext], Tuple[List[Mapping[str, Any]], List[Mapping[str, Any]]]]] = None,
        params: Optional[Dict[str, Any]] = None,
        cost: Optional[float] = None,
    ):
        if generator is None:
            raise WorkflowSpecError("DataSource requires a generator")
        self.generator = generator
        self.params = dict(params or {})
        self._cost = cost

    def config(self) -> Dict[str, Any]:
        return {"generator": self.generator, "params": self.params}

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        if self._cost is not None:
            return self._cost
        return super().estimated_cost(input_sizes)

    def run(self, inputs: Sequence[Any], context: RunContext) -> DataCollection:
        train_rows, test_rows = self.generator(context, **self.params)
        records = [Record(fields=row, split=Split.TRAIN) for row in train_rows]
        records += [Record(fields=row, split=Split.TEST) for row in test_rows]
        return DataCollection("source", records, kind=ElementKind.RECORD)


# ---------------------------------------------------------------------------
# Scanners (parsing)
# ---------------------------------------------------------------------------
class Scanner(Operator):
    """Parsing operator: a flatMap from each input element to zero or more.

    ``fn`` receives one element and returns an iterable of output elements
    (records or semantic units).  Because it may return zero elements it also
    doubles as a filter.  A subclass parses in :meth:`scan` instead and
    passes no ``fn``: holding its own bound method would make the operator
    contain itself, which has no encoding.
    """

    component = Component.DPR

    def __init__(self, fn: Optional[Callable[[Any], Iterable[Any]]], name: Optional[str] = None,
                 cost_per_element: float = 0.0):
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "scanner")
        self.cost_per_element = cost_per_element

    def config(self) -> Dict[str, Any]:
        return {"fn": self.fn, "name": self.name}

    def run(self, inputs: Sequence[Any], context: RunContext) -> DataCollection:
        (source,) = inputs
        if not isinstance(source, DataCollection):
            raise OperatorError(self.name, "Scanner input must be a DataCollection")
        produced: List[Any] = []
        scan = self.scan
        for element in source:
            produced.extend(scan(element))
        kind = ElementKind.RECORD if produced and isinstance(produced[0], Record) else ElementKind.SEMANTIC_UNIT
        return DataCollection(self.name, produced, kind=kind)

    def scan(self, element: Any) -> Iterable[Any]:
        """The output elements of one input element."""
        return self.fn(element)


class CSVScanner(Scanner):
    """Scanner that parses a delimited text field of each record into named columns.

    Mirrors ``CSVScanner(Array("age", "education", ...))`` from the paper's
    census example: each record is expected to hold a raw ``line`` field which
    is split on ``delimiter`` and mapped onto ``columns``.  Records whose raw
    line already parsed into fields pass through with the column subset.
    """

    def __init__(self, columns: Sequence[str], delimiter: str = ",", line_field: str = "line"):
        self.columns = list(columns)
        self.delimiter = delimiter
        self.line_field = line_field
        super().__init__(None, name="csv_scanner")

    def config(self) -> Dict[str, Any]:
        return {
            "columns": self.columns,
            "delimiter": self.delimiter,
            "line_field": self.line_field,
        }

    def scan(self, record: Record) -> Iterable[Record]:
        if self.line_field in record:
            values = str(record[self.line_field]).split(self.delimiter)
            fields = dict(zip(self.columns, (v.strip() for v in values)))
        else:
            fields = {c: record.get(c) for c in self.columns if c in record}
        if not fields:
            return []
        return [Record(fields=fields, split=record.split)]


# ---------------------------------------------------------------------------
# Extractors (feature extraction / transformation)
# ---------------------------------------------------------------------------
class Extractor(Operator):
    """Base class for feature extraction and transformation operators.

    Extractors map a DC of records or semantic units to a DC of semantic
    units whose outputs are :class:`FeatureVector` values.  Extractors whose
    function must be *learned* from the data (e.g. discretization boundaries)
    perform that learning inside :meth:`run`, as Helix's Learner/Extractor
    interplay does.
    """

    component = Component.DPR

    #: name used as the SU ``source`` tag; set by subclasses.
    feature_name: str = "feature"

    def _iter_inputs(self, collection: DataCollection) -> Iterable[Tuple[Any, Split, Any]]:
        """Yield ``(raw_value, split, carrier)`` triples from records or SUs."""
        for element in collection:
            if isinstance(element, Record):
                yield element, element.split, element
            elif isinstance(element, SemanticUnit):
                yield element.output, element.split, element
            else:
                yield element, Split.ALL, element


class FieldExtractor(Extractor):
    """Extract a single named field from each record as a feature.

    Numeric-looking values become numeric features; other values become
    one-hot categorical indicator features (the raw key-value representation
    described in Section 3.2.1).
    """

    def __init__(self, field_name: str, as_categorical: Optional[bool] = None):
        self.field_name = field_name
        self.as_categorical = as_categorical
        self.feature_name = field_name

    def config(self) -> Dict[str, Any]:
        return {"field": self.field_name, "as_categorical": self.as_categorical}

    @staticmethod
    def _try_float(value: Any) -> Optional[float]:
        try:
            return float(value)
        except (TypeError, ValueError):
            return None

    def _feature(self, value: Any) -> Tuple[str, float]:
        """The one ``(feature name, value)`` of a field value's vector."""
        numeric = self._try_float(value)
        categorical = self.as_categorical if self.as_categorical is not None else numeric is None
        if categorical:
            return f"{self.field_name}={value}", 1.0
        return self.field_name, 0.0 if numeric is None else numeric

    def run(self, inputs: Sequence[Any], context: RunContext) -> DataCollection:
        (collection,) = inputs
        state = collection._columns() if isinstance(collection, DataCollection) else None
        if state is None or state[0] != "Record" or type(self.field_name) is not str:
            return self._extract_rows(collection)
        ids, values = _column(state, "fields")
        if ids.count(ids[0]) != len(ids):  # records of more than one field shape
            return self._extract_rows(collection)
        shape = _shapes(state)[ids[0]]
        if self.field_name in shape:
            column = tuple(values[shape.index(self.field_name)::len(shape)])
        else:
            column = (None,) * len(ids)
        if set(map(type, column)) == {str}:  # one _feature call per distinct string
            features = {value: self._feature(value) for value in set(column)}
            pairs = list(map(features.__getitem__, column))
        else:
            pairs = list(map(self._feature, column))
        names, numbers = zip(*pairs)
        shape_ids = {name: position for position, name in enumerate(dict.fromkeys(names))}
        units = _state(
            SemanticUnit,
            [(name,) for name in shape_ids],
            input=column,
            source=(self.field_name,) * len(column),
            output=(tuple(map(shape_ids.__getitem__, names)), numbers),
            split=tuple(_column(state, "split")),
        )
        return DataCollection._of_columns(self.field_name, units, ElementKind.SEMANTIC_UNIT)

    def _extract_rows(self, collection: Any) -> DataCollection:
        """The row loop, for inputs without one columnar field shape."""
        units: List[SemanticUnit] = []
        for raw, split, _carrier in self._iter_inputs(collection):
            value = raw.get(self.field_name) if isinstance(raw, Record) else raw
            name, number = self._feature(value)
            units.append(SemanticUnit(input=value, source=self.field_name,
                                      output=FeatureVector({name: number}), split=split))
        return DataCollection(self.field_name, units, kind=ElementKind.SEMANTIC_UNIT)


class Bucketizer(Extractor):
    """Discretize a numeric feature into equal-frequency buckets.

    The bucket boundaries are *learned* from the full data distribution
    (requiring a complete pass), which is the paper's canonical example of a
    DPR function that must be fit before it can be applied.
    """

    def __init__(self, source_feature: str, bins: int = 10):
        if bins < 1:
            raise WorkflowSpecError("Bucketizer requires at least one bin")
        self.source_feature = source_feature
        self.bins = bins
        self.feature_name = f"{source_feature}_bucket"

    def config(self) -> Dict[str, Any]:
        return {"source_feature": self.source_feature, "bins": self.bins}

    def run(self, inputs: Sequence[Any], context: RunContext) -> DataCollection:
        (collection,) = inputs
        values: List[float] = []
        carriers: List[Tuple[float, Split]] = []
        for raw, split, _carrier in self._iter_inputs(collection):
            if isinstance(raw, FeatureVector):
                value = raw.get(self.source_feature)
            elif isinstance(raw, Record):
                value = float(raw.get(self.source_feature, 0.0) or 0.0)
            else:
                value = float(raw or 0.0)
            values.append(float(value))
            carriers.append((float(value), split))
        array = np.asarray(values, dtype=float)
        buckets = np.searchsorted(self._fit_boundaries(array), array).tolist()
        units = [
            SemanticUnit(
                input=value,
                source=self.feature_name,
                output=FeatureVector.one_hot(self.feature_name, bucket),
                split=split,
            )
            for (value, split), bucket in zip(carriers, buckets)
        ]
        return DataCollection(self.feature_name, units, kind=ElementKind.SEMANTIC_UNIT)

    def _fit_boundaries(self, values: np.ndarray) -> np.ndarray:
        if values.size == 0:
            return np.zeros(0)
        quantiles = np.linspace(0.0, 1.0, self.bins + 1)[1:-1]
        return np.unique(np.quantile(values, quantiles))

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        # Requires a full scan plus a sort for quantiles.
        n = sum(input_sizes) + 1
        return 2e-6 * n


class InteractionFeature(Extractor):
    """Concatenate (cross) two or more extractor outputs into interaction features.

    For categorical features this produces the cartesian indicator
    ``a=x&b=y``; for numeric features it produces products.
    """

    def __init__(self, feature_names: Sequence[str]):
        if len(feature_names) < 2:
            raise WorkflowSpecError("InteractionFeature requires at least two inputs")
        self.feature_names = list(feature_names)
        self.feature_name = "x".join(self.feature_names)

    def config(self) -> Dict[str, Any]:
        return {"feature_names": self.feature_names}

    def run(self, inputs: Sequence[Any], context: RunContext) -> DataCollection:
        collections = [c for c in inputs if isinstance(c, DataCollection)]
        if len(collections) < 2:
            raise OperatorError(self.feature_name, "InteractionFeature needs >= 2 input DCs")
        length = min(len(c) for c in collections)
        units: List[SemanticUnit] = []
        for i in range(length):
            parts: List[str] = []
            product = 1.0
            numeric = True
            split = Split.ALL
            for collection in collections:
                su = collection[i]
                split = su.split
                fv = su.output if isinstance(su, SemanticUnit) else su
                if not isinstance(fv, FeatureVector):
                    continue
                for name, value in sorted(fv.items()):
                    parts.append(f"{name}" if value == 1.0 and "=" in name else f"{name}:{value:g}")
                    product *= value
                    if "=" in name:
                        numeric = False
            if numeric:
                out = FeatureVector.scalar(self.feature_name, product)
            else:
                out = FeatureVector.one_hot(self.feature_name, "&".join(parts))
            units.append(SemanticUnit(input=parts, source=self.feature_name, output=out, split=split))
        return DataCollection(self.feature_name, units, kind=ElementKind.SEMANTIC_UNIT)


class FunctionExtractor(Extractor):
    """Wrap an arbitrary UDF ``element -> FeatureVector`` as an extractor."""

    def __init__(self, name: str, fn: Callable[[Any], FeatureVector], cost_per_element: float = 0.0):
        self.feature_name = name
        self.fn = fn
        self.cost_per_element = cost_per_element

    def config(self) -> Dict[str, Any]:
        return {"name": self.feature_name, "fn": self.fn}

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        if self.cost_per_element:
            return self.cost_per_element * (sum(input_sizes) + 1)
        return super().estimated_cost(input_sizes)

    def run(self, inputs: Sequence[Any], context: RunContext) -> DataCollection:
        (collection,) = inputs
        units: List[SemanticUnit] = []
        for raw, split, carrier in self._iter_inputs(collection):
            source_value = carrier if isinstance(carrier, Record) else raw
            fv = self.fn(source_value)
            if not isinstance(fv, FeatureVector):
                fv = FeatureVector.scalar(self.feature_name, float(fv))
            units.append(SemanticUnit(input=source_value, source=self.feature_name, output=fv, split=split))
        return DataCollection(self.feature_name, units, kind=ElementKind.SEMANTIC_UNIT)


# ---------------------------------------------------------------------------
# Synthesizers (join / example assembly)
# ---------------------------------------------------------------------------
class Synthesizer(Operator):
    """Base class for join / example-assembly operators."""

    component = Component.DPR


class ExampleSynthesizer(Synthesizer):
    """Assemble examples from a base DC and the outputs of attached extractors.

    This is the pass-through synthesizer implicitly declared by
    ``income results_from rows with_labels target`` in HML.  The first input
    is the base collection (used for element count and split tags), followed
    by one DC per attached extractor; the extractor named ``label_source``
    provides labels instead of features.
    """

    def __init__(self, label_source: Optional[str] = None, dense: bool = False):
        self.label_source = label_source
        self.dense = dense

    def config(self) -> Dict[str, Any]:
        return {"label_source": self.label_source, "dense": self.dense}

    @staticmethod
    def _label_from(fv: FeatureVector) -> float:
        # A label SU is either a scalar feature or a one-hot indicator; for
        # indicators we map the category deterministically to {0, 1, 2, ...}
        # (CRC-32, not the builtin hash, which differs between processes).
        if len(fv) == 1:
            ((name, value),) = list(fv.items())
            if "=" in name:
                category = name.split("=", 1)[1]
                try:
                    return float(category)
                except ValueError:
                    return float(zlib.crc32(category.encode("utf-8", "surrogatepass")) % 2)
            return float(value)
        return float(fv.norm() > 0)

    def run(self, inputs: Sequence[Any], context: RunContext) -> DataCollection:
        if not inputs:
            raise OperatorError("synthesizer", "ExampleSynthesizer requires at least a base DC")
        base, *feature_collections = inputs
        if not isinstance(base, DataCollection):
            raise OperatorError("synthesizer", "first input must be the base DataCollection")
        examples = self._assemble_columns(base, feature_collections)
        if examples is None:
            return self._assemble_rows(base, feature_collections)
        return examples

    def _assemble_columns(
        self, base: DataCollection, feature_collections: Sequence[Any]
    ) -> Optional[DataCollection]:
        """The examples as columns merged from the inputs' sparse output
        columns; None when an input has none (or is dense), or when a row
        would repeat a feature name."""
        state = base._columns()
        if state is None:
            return None
        n = len(base)
        labels: Tuple[Optional[float], ...] = (None,) * n
        parts = []
        for collection in feature_collections:
            if not isinstance(collection, DataCollection) or not len(collection):
                continue
            units = collection._columns()
            if units is None:
                return None
            if units[0] != "SemanticUnit":
                continue  # records or examples: no element is a feature vector
            outputs, sources = _column(units, "output"), _column(units, "source")
            if _is_dense(outputs) or sources.count(sources[0]) != len(sources):
                return None
            ids = outputs[0][:n]
            if self.label_source is not None and sources[0] == self.label_source:
                labels = self._column_labels(_shapes(units), ids, outputs[1]) + labels[len(ids):]
            else:
                parts.append((_shapes(units), ids, outputs[1]))
        merged = _merge_columns(parts, n)
        if merged is None:
            return None
        shapes, features = merged
        examples = _state(
            Example, shapes, features=features, label=labels, split=tuple(_column(state, "split")),
            prediction=(None,) * n, score=(None,) * n,
        )
        return DataCollection._of_columns("examples", examples, ElementKind.EXAMPLE)

    def _column_labels(
        self, shapes: Sequence[Tuple[str, ...]], ids: Sequence[int], values: Sequence[Any]
    ) -> Tuple[float, ...]:
        """:meth:`_label_from` of each row of a sparse output column."""
        names = {shape_id: shapes[shape_id] for shape_id in set(ids)}
        if set(map(len, names.values())) != {1}:
            return tuple(map(self._label_from, map(_vector, _dicts(shapes, ids, values))))
        # One feature per row: an indicator's label depends on its name only.
        fixed = {
            shape_id: self._label_from(FeatureVector({name: 1.0})) if "=" in name else None
            for shape_id, (name,) in names.items()
        }
        return tuple([
            float(value) if fixed[shape_id] is None else fixed[shape_id]
            for shape_id, value in zip(ids, values)
        ])

    def _assemble_rows(self, base: DataCollection, feature_collections: Sequence[Any]) -> DataCollection:
        """The row loop, for inputs without sparse columns."""
        examples: List[Example] = []
        n = len(base)
        for i in range(n):
            base_element = base[i]
            split = getattr(base_element, "split", Split.ALL)
            features = FeatureVector()
            label: Optional[float] = None
            for collection in feature_collections:
                if not isinstance(collection, DataCollection) or i >= len(collection):
                    continue
                su = collection[i]
                fv = su.output if isinstance(su, SemanticUnit) else su
                source = su.source if isinstance(su, SemanticUnit) else collection.name
                if not isinstance(fv, FeatureVector):
                    continue
                if self.label_source is not None and source == self.label_source:
                    label = self._label_from(fv)
                    continue
                features = features.concat(fv)
            examples.append(Example(features=features, label=label, split=split))
        return DataCollection("examples", examples, kind=ElementKind.EXAMPLE)


def _merge_columns(
    parts: Sequence[Tuple[Sequence[Tuple[str, ...]], Sequence[int], Sequence[Any]]], n: int
) -> Optional[Tuple[Iterable[Tuple[str, ...]], Tuple[Tuple[int, ...], Tuple[Any, ...]]]]:
    """The shape table and the ``(shape ids, values)`` column of ``n`` rows
    whose features are the union of each part's first rows; None when a row
    would carry one name twice.

    A part is the shape table, shape ids and values of a sparse output
    column.  One stable sort over every part's ``(row, name)`` puts each
    row's values in its sorted key order.
    """
    rows: List[np.ndarray] = []
    names: List[str] = []
    values: List[Any] = []
    for shapes, ids, part_values in parts:
        widths = _widths(list(map(len, shapes)), ids)
        rows.append(np.repeat(np.arange(len(ids)), widths))
        names.extend(chain.from_iterable(map(shapes.__getitem__, ids)))
        values.extend(part_values[: int(widths.sum())])
    vocabulary = sorted(set(names))
    rank = {name: position for position, name in enumerate(vocabulary)}
    row_of = np.concatenate([np.zeros(0, dtype=np.intp), *rows])
    ranks = np.fromiter(map(rank.__getitem__, names), dtype=np.intp, count=len(names))
    order = np.lexsort((ranks, row_of))
    row_of, ranks = row_of[order], ranks[order]
    if np.any((row_of[1:] == row_of[:-1]) & (ranks[1:] == ranks[:-1])):
        return None
    sorted_names = iter(list(map(vocabulary.__getitem__, ranks.tolist())))
    keys = [tuple(islice(sorted_names, width)) for width in np.bincount(row_of, minlength=n).tolist()]
    shapes = {shape: position for position, shape in enumerate(dict.fromkeys(keys))}
    return shapes, (tuple(map(shapes.__getitem__, keys)), tuple(map(values.__getitem__, order.tolist())))


# ---------------------------------------------------------------------------
# Learners (learning + inference)
# ---------------------------------------------------------------------------
@dataclass
class PredictionsResult:
    """Output of a :class:`Learner`: predictions plus the fitted model.

    ``predictions`` is a DC of examples annotated with ``prediction`` (and
    ``score`` where meaningful); ``model`` is the fitted estimator exposing at
    least ``predict``.
    """

    predictions: DataCollection
    model: Any

    def __len__(self) -> int:
        return len(self.predictions)

    def __iter__(self):
        return iter(self.predictions)

    def estimated_size_bytes(self) -> int:
        size = self.predictions.estimated_size_bytes()
        weights = getattr(self.model, "weights_", None)
        if isinstance(weights, np.ndarray):
            size += int(weights.nbytes)
        return size


class Learner(Operator):
    """Learning + inference in a single operator (Section 3.2.2).

    ``model_factory`` builds a fresh estimator (any object implementing
    ``fit(X, y)`` and ``predict(X)``); the learner fits it on the training
    split of the input example DC and runs inference on all examples,
    producing a :class:`PredictionsResult`.  For unsupervised estimators the
    full collection is used for fitting.
    """

    component = Component.LI

    def __init__(self, model_factory: Callable[..., Any], params: Optional[Dict[str, Any]] = None,
                 supervised: bool = True, name: str = "learner"):
        self.model_factory = model_factory
        self.params = dict(params or {})
        self.supervised = supervised
        self.name = name

    def config(self) -> Dict[str, Any]:
        return {"model_factory": self.model_factory, "params": self.params,
                "supervised": self.supervised, "name": self.name}

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        # Iterative training is markedly more expensive per element than DPR.
        return 1e-5 * (sum(input_sizes) + 1)

    def run(self, inputs: Sequence[Any], context: RunContext) -> PredictionsResult:
        (examples,) = inputs
        if not isinstance(examples, DataCollection):
            raise OperatorError(self.name, "Learner input must be a DataCollection of examples")
        X_all, y_all, _ = examples.to_matrix()
        state = examples._columns()
        model = self.model_factory(**self.params)
        if hasattr(model, "set_seed"):
            model.set_seed(context.seed)
        if self.supervised:
            if state is None:
                train_mask = self._train_mask_rows(examples)
            else:
                splits = _column(state, "split")
                train_mask = np.fromiter(map(_TRAINED.__contains__, splits), dtype=bool, count=len(splits))
            labelled = train_mask & ~np.isnan(y_all)
            model.fit(X_all[labelled], y_all[labelled])
        else:
            model.fit(X_all, None)
        predictions = model.predict(X_all)
        scores = None
        if hasattr(model, "predict_proba"):
            proba = model.predict_proba(X_all)
            scores = proba[:, -1] if proba.ndim == 2 else proba
        if state is None:
            annotated = self._annotate_rows(examples, predictions, scores)
        else:
            annotated = DataCollection._of_columns("predictions", _with_columns(
                state,
                prediction=tuple(map(float, predictions)),
                score=(None,) * len(examples) if scores is None else tuple(map(float, scores)),
            ), ElementKind.EXAMPLE)
        return PredictionsResult(predictions=annotated, model=model)

    @staticmethod
    def _train_mask_rows(examples: DataCollection) -> np.ndarray:
        """The train mask of example rows without a columnar state."""
        return np.array(
            [getattr(e, "split", Split.ALL) in (Split.TRAIN, Split.ALL) for e in examples],
            dtype=bool,
        )

    @staticmethod
    def _annotate_rows(examples: DataCollection, predictions: Any, scores: Any) -> DataCollection:
        """The predictions of example rows without a columnar state."""
        annotated = [
            example.with_prediction(
                float(predictions[i]),
                None if scores is None else float(scores[i]),
            )
            for i, example in enumerate(examples)
        ]
        return DataCollection("predictions", annotated, kind=ElementKind.EXAMPLE)


#: The split values a learner fits on.
_TRAINED = {Split.TRAIN.value, Split.ALL.value}


# ---------------------------------------------------------------------------
# Reducers (postprocessing)
# ---------------------------------------------------------------------------
class Reducer(Operator):
    """PPR operator: reduce a DC (and optional scalar) to a scalar result.

    ``fn`` receives the input DC (by default restricted to the test split, as
    in ``checked results_from checkResults on testData(predictions)``) and an
    optional scalar from a second input, returning any non-dataset object.
    """

    component = Component.PPR

    def __init__(self, fn: Callable[..., Any], on_test_only: bool = True, name: str = "reducer",
                 params: Optional[Dict[str, Any]] = None):
        self.fn = fn
        self.on_test_only = on_test_only
        self.name = name
        self.params = dict(params or {})

    def config(self) -> Dict[str, Any]:
        return {"fn": self.fn, "on_test_only": self.on_test_only,
                "name": self.name, "params": self.params}

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        return 5e-7 * (sum(input_sizes) + 1)

    def run(self, inputs: Sequence[Any], context: RunContext) -> Any:
        if not inputs:
            raise OperatorError(self.name, "Reducer requires at least one input")
        primary, *rest = inputs
        if isinstance(primary, PredictionsResult):
            collection = primary.predictions
        elif isinstance(primary, DataCollection):
            collection = primary
        else:
            collection = DataCollection("scalar_input", [primary])
        if self.on_test_only:
            collection = collection.test()
        scalar = rest[0] if rest else None
        kwargs = dict(self.params)
        signature = inspect.signature(self.fn)
        if "scalar" in signature.parameters:
            kwargs["scalar"] = scalar
        return self.fn(collection, **kwargs)
