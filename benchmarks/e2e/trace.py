"""In-memory span tracing for the traced benchmark repetition.

Nothing in ``src/`` records spans yet, so the spans are taken from here,
around the calls into each layer: timing proxies for the pieces a system
accepts by injection (store, policy, cost model) and wrappers installed
where the layer functions are *bound* (``repro.systems.helix.solve_oep``,
``Workflow.compile``, ``repro.execution.executors.send_message`` ...).
Everything is installed for one traced lifecycle and removed afterwards;
untraced repetitions never import this module.

A span is ``(name, start, end, parent, id)`` with ``name = "<layer>.<what>"``
and ``id = workload/rep/iteration``.  Spans nest per thread; a layer's
*self time* is its spans' duration minus the part their child spans cover.
Worker-side compute is known only from the seconds a result frame carries,
so it is recorded as detached ``operators.compute`` spans (no parent, not
on any thread's stack).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "Instrumentation", "layer_metrics"]

#: Bytes of frame header that precede every canonical payload on the wire.
_FRAME_HEADER_BYTES = 8


class Span:
    """One timed interval; a context manager that files itself with its tracer."""

    __slots__ = ("name", "start", "end", "parent", "ident", "thread", "amount", "_tracer")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self.name = name
        self.ident = tracer.ident
        self.parent: Optional["Span"] = None
        self.thread = 0
        self.start = self.end = 0.0
        #: Bytes (or items) the call handled, when the wrapper can tell.
        self.amount = 0

    def __enter__(self) -> "Span":
        stack = self._tracer.stack()
        if stack:
            self.parent = stack[-1]
        stack.append(self)
        self.thread = threading.get_ident()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.end = time.perf_counter()
        self._tracer.stack().pop()
        self._tracer.spans.append(self)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; flushed once, when the benchmark ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``workload/rep/iteration`` stamped on every span opened from now on.
        self.ident = ""
        self._stacks = threading.local()

    def stack(self) -> List[Span]:
        """The calling thread's open spans, innermost last."""
        try:
            return self._stacks.open
        except AttributeError:
            self._stacks.open = []
            return self._stacks.open

    def span(self, name: str) -> Span:
        return Span(self, name)

    def add_finished(self, name: str, seconds: float, nested: bool) -> None:
        """Record work that just ended and took ``seconds`` (measured elsewhere).

        ``nested`` attaches it under the calling thread's open span; detached
        spans stand for work done in another process.
        """
        span = Span(self, name)
        span.end = time.perf_counter()
        span.start = span.end - seconds
        if nested:
            stack = self.stack()
            span.parent = stack[-1] if stack else None
            span.thread = threading.get_ident()
        self.spans.append(span)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        amount: Optional[Callable[[Any, tuple], int]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``amount(result, args)`` sizes the call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if amount is not None:
                    span.amount = amount(result, args)
                return result

        return traced

    # ------------------------------------------------------------------ analysis
    @staticmethod
    def totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total`` seconds, ``self`` seconds, ``amount``.

        Child coverage is the union of the direct children's intervals, so
        overlapping or back-to-back children are never subtracted twice.
        """
        children: Dict[int, List[Span]] = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        totals: Dict[str, Dict[str, float]] = {}
        for span in spans:
            covered, edge = 0.0, span.start
            for child in sorted(children.get(id(span), ()), key=lambda c: c.start):
                start, end = max(child.start, edge), min(child.end, span.end)
                if end > start:
                    covered += end - start
                    edge = end
            row = totals.setdefault(span.name, {"calls": 0, "total": 0.0, "self": 0.0, "amount": 0})
            row["calls"] += 1
            row["total"] += span.duration
            row["self"] += span.duration - covered
            row["amount"] += span.amount
        return totals

    def write_chrome_trace(self, path: str) -> None:
        """Flush every span as Chrome-trace "complete" events (``chrome://tracing``)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.thread,
                "args": {
                    "id": span.ident,
                    "parent": span.parent.name if span.parent is not None else None,
                    "amount": span.amount,
                },
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class _Proxy:
    """Forwards everything it does not time to the wrapped object."""

    def __init__(self, inner: Any, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TracedStore(_Proxy):
    def put(self, node_name: str, signature: str, value: Any, iteration: int = 0) -> Any:
        with self._tracer.span("store.put") as span:
            artifact = self._inner.put(node_name, signature, value, iteration=iteration)
            # A re-put of an existing signature writes nothing (write_time 0).
            span.amount = artifact.record.size_bytes if artifact.write_time else 0
            return artifact

    def load(self, signature: str) -> Any:
        with self._tracer.span("store.load") as span:
            record = self._inner.catalog.get(signature)
            span.amount = record.size_bytes if record is not None else 0
            return self._inner.load(signature)

    def purge_node(self, node_name: str, keep_signature: Optional[str] = None) -> List[str]:
        with self._tracer.span("store.purge") as span:
            removed = self._inner.purge_node(node_name, keep_signature=keep_signature)
            span.amount = len(removed)
            return removed


class TracedPolicy(_Proxy):
    def decide(self, *args: Any, **kwargs: Any) -> Any:
        with self._tracer.span("optimizer.omp"):
            return self._inner.decide(*args, **kwargs)


class TracedCostModel(_Proxy):
    """Sees every operator's measured seconds, in-process or from a worker."""

    def __init__(self, inner: Any, tracer: Tracer, in_process: bool):
        super().__init__(inner, tracer)
        self._in_process = in_process

    def compute_cost(self, operator: Any, component: Any, input_sizes: Any, measured: float) -> float:
        self._tracer.add_finished("operators.compute", measured, nested=self._in_process)
        return self._inner.compute_cost(operator, component, input_sizes, measured)


def _segments_bytes(segments: Any, _args: tuple) -> int:
    return sum(len(segment) for segment in segments)


def _payload_bytes(_result: Any, args: tuple) -> int:
    return len(args[0])


class Instrumentation:
    """Installs the wrappers and proxies on one system; ``remove`` undoes all."""

    def __init__(self, tracer: Tracer, system: Any, executor: Any = None):
        # Imported here: the modules to patch are the benchmark's subject,
        # and importing them is part of the set-up the caller has timed.
        from repro.core.dag import WorkflowDAG
        from repro.core.workflow import Workflow
        from repro.execution import executors
        from repro.execution.engine import ExecutionEngine
        from repro.storage import serialization
        from repro.systems import helix

        self._undo: List[Callable[[], None]] = []
        wrap = tracer.wrap
        for owner, attribute, name, amount in (
            (Workflow, "compile", "core.compile", None),
            (WorkflowDAG, "sliced_to_outputs", "core.compile", None),
            (helix, "compute_node_signatures", "core.signature", None),
            (helix, "diff_signatures", "core.signature", None),
            (helix, "solve_oep", "optimizer.oep", None),
            (ExecutionEngine, "execute", "engine.execute", None),
            (serialization, "_canonical_segments", "canonical.encode", _segments_bytes),
            (serialization, "_canonical_decode", "canonical.decode", _payload_bytes),
            (executors, "send_message", "serialization.send", None),
            (executors, "recv_message", "serialization.recv", None),
        ):
            self._set(owner, attribute, wrap(name, getattr(owner, attribute), amount))
        self._set(system, "store", TracedStore(system.store, tracer))
        self._set(system, "policy", TracedPolicy(system.policy, tracer))
        self._set(system, "cost_model",
                  TracedCostModel(system.cost_model, tracer, in_process=executor is None))
        if executor is not None:
            # The scheduler blocks here while workers compute: without this
            # span the wait would read as engine self time.
            self._set(executor, "next_completion", wrap("executors.wait", executor.next_completion))

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        if attribute in vars(owner):
            original = vars(owner)[attribute]
            self._undo.append(lambda: setattr(owner, attribute, original))
        else:  # a method shadowed on one instance: unshadow it
            self._undo.append(lambda: delattr(owner, attribute))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def layer_metrics(tracer: Tracer, ident: str, lifecycle: Any, workers: int) -> Dict[str, float]:
    """The per-layer metrics of one traced lifecycle (``BENCHMARK.json`` names).

    Times and byte counts come from the spans stamped ``ident``; node, task
    and plan counts from the lifecycle's own ``RunStats``.  The caller adds
    the three metrics that need a second run to compare with
    (``trace.overhead_share``, ``executors.spawn_s``, ``executors.inline_ratio``).
    """
    spans = [span for span in tracer.spans if span.ident.startswith(ident + "/")]
    totals = tracer.totals(spans)

    def of(name: str, field: str = "total") -> float:
        return totals.get(name, {}).get(field, 0)

    def per_second(amount: float, seconds: float) -> float:
        return amount / seconds if seconds else 0.0

    def wire_bytes(codec: str, direction: str) -> int:
        """Canonical payload bytes framed by ``direction`` spans, plus their headers."""
        payload = sum(
            span.amount for span in spans
            if span.name == codec and span.parent is not None and span.parent.name == direction
        )
        return payload + _FRAME_HEADER_BYTES * of(direction, "calls")

    states = Counter(state.value for stats in lifecycle.stats for state in stats.node_states.values())
    busy = of("operators.compute") if workers else 0.0
    return {
        "workloads.build_s": of("workloads.build"),
        "core.compile_s": of("core.compile"),
        "core.signature_s": of("core.signature"),
        "core.dag_nodes": sum(len(stats.node_states) for stats in lifecycle.stats),
        "core.changed_nodes": sum(len(stats.original_nodes) for stats in lifecycle.stats),
        "optimizer.oep_s": of("optimizer.oep"),
        "optimizer.oep_calls": of("optimizer.oep", "calls"),
        "optimizer.omp_s": of("optimizer.omp"),
        "optimizer.omp_decisions": of("optimizer.omp", "calls"),
        "optimizer.omp_materialized": sum(len(stats.materialized_nodes) for stats in lifecycle.stats),
        "optimizer.plan_compute": states["Sc"],
        "optimizer.plan_load": states["Sl"],
        "optimizer.plan_prune": states["Sp"],
        "engine.execute_s": of("engine.execute"),
        "engine.self_s": of("engine.execute", "self"),
        "engine.tasks": sum(len(stats.node_times) for stats in lifecycle.stats),
        "executors.worker_busy_s": busy,
        "executors.utilization": per_second(busy, of("engine.execute") * workers),
        "serialization.frames_sent": of("serialization.send", "calls"),
        "serialization.bytes_sent": wire_bytes("canonical.encode", "serialization.send"),
        "serialization.send_s": of("serialization.send"),
        "serialization.frames_recv": of("serialization.recv", "calls"),
        "serialization.bytes_recv": wire_bytes("canonical.decode", "serialization.recv"),
        "canonical.encode_s": of("canonical.encode"),
        "canonical.encode_bytes": of("canonical.encode", "amount"),
        "canonical.encode_mb_per_s": per_second(of("canonical.encode", "amount") / 1e6, of("canonical.encode")),
        "canonical.decode_s": of("canonical.decode"),
        "canonical.decode_bytes": of("canonical.decode", "amount"),
        "canonical.decode_mb_per_s": per_second(of("canonical.decode", "amount") / 1e6, of("canonical.decode")),
        "store.put_s": of("store.put"),
        "store.put_calls": of("store.put", "calls"),
        "store.put_bytes": of("store.put", "amount"),
        "store.load_s": of("store.load"),
        "store.load_calls": of("store.load", "calls"),
        "store.load_bytes": of("store.load", "amount"),
        "store.self_s": of("store.put", "self") + of("store.load", "self"),
        "store.purged": of("store.purge", "amount"),
        "store.read_back_ratio": per_second(of("store.load", "amount"), of("store.put", "amount")),
        "operators.compute_s": of("operators.compute"),
        "trace.lifecycle_wall_s": lifecycle.wall,
        "trace.unattributed_share": per_second(of("iteration", "self"), of("iteration")),
    }
