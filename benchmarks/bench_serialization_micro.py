"""Micro-benchmark for the canonical wire serialization layer.

Measures four quantities against a plain ``pickle.dumps``/``loads``
baseline (protocol 5):

* **bytes on the wire** for a numpy-backed artifact — canonical encoding
  must be no larger than pickle for the payloads the executors actually
  ship (the array body dominates both formats; canonical's explicit type
  tags cost a few header bytes, out-of-band buffers save the pickle frame
  opcodes);
* **zero-copy sends** — the artifact's array bytes must appear in
  ``encode_segments`` as out-of-band memoryviews sharing the source arrays'
  memory (the gather-write dispatch path never copies them);
* **round-trip throughput** for the small control messages the coordinator
  and workers exchange per task (encode + decode, messages/second);
* **the data model** — the six artifact kinds the paper workloads store
  (census ``predictions``, ``income``, ``eduExt`` and ``rows``; mnist
  ``digits`` and ``rffFeatures``), built deterministically by running the
  first iteration of each workload with every node materialized: canonical
  vs pickle bytes and best-of-N encode/decode milliseconds per artifact,
  plus ``rows_ms``: a decode and the first full iteration, which builds
  the rows a decoded collection holds only as columns.  Both formats serialize a ``DataCollection`` through its
  ``__getstate__``/``__setstate__`` pair, so pickle also sees the columnar
  state.

Running this file as a script (``python benchmarks/bench_serialization_micro.py
[--smoke] [--json PATH]``) executes all sections standalone, without
pytest-benchmark, and enforces the size and zero-copy bars — including
canonical <= 1.10x pickle bytes on every data-model artifact, and two
structural checks: every data-model artifact's ``DataCollection`` took
the columnar state rather than falling back to rows, and each mnist
artifact's dense feature-vector column travels as exactly one out-of-band
array segment (:data:`DENSE_ARTIFACTS`); throughput and the
data-model speed ratios are report-only (absolute rates are
machine-specific).  ``--json`` dumps every section's measurements for the
CI artifact upload; CI runs the smoke variant on every push (see
``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.data import DataCollection, _to_columns
from repro.core.operators import PredictionsResult
from repro.execution.clock import SimulatedCostModel
from repro.storage.canonical import decode, encode, encode_segments
from repro.storage.serialization import deserialize, serialize
from repro.storage.store import InMemoryStore
from repro.systems import HelixSystem
from repro.workloads.base import get_workload

from _bench_helpers import SEED, emit, run_once

#: The canonical header/tag overhead allowance vs pickle: the acceptance bar
#: is "no worse than pickle" on array-dominated artifacts, with 1% slack for
#: payloads small enough that header bytes are visible at all.
SIZE_RATIO_BAR = 1.01

#: Bytes bar on every data-model artifact: canonical <= 1.10x pickle.
DATA_MODEL_SIZE_BAR = 1.10

#: Stored artifact kinds measured by the data-model section, per workload.
DATA_MODEL_ARTIFACTS: Dict[str, Tuple[str, ...]] = {
    "census": ("predictions", "income", "eduExt", "rows"),
    "mnist": ("digits", "rffFeatures"),
}

#: Artifacts whose feature vectors are dense (random-Fourier rows): each
#: must encode with exactly one out-of-band segment, the vector column as one
#: float64 array, rather than a flat tuple of per-feature floats.
DENSE_ARTIFACTS = ("mnist.digits", "mnist.rffFeatures")

#: Workload scales of the full run: those of the ``census_reuse`` and
#: ``mnist_churn`` lifecycles in ``benchmarks/e2e``.
DATA_MODEL_SCALES = {"census": 0.5, "mnist": 0.25}


def _numpy_artifact(scale: int) -> Dict[str, Any]:
    """A model-checkpoint-shaped artifact: large arrays + small metadata."""
    rng = np.random.default_rng(7)
    return {
        "weights": rng.standard_normal((scale, scale)),
        "bias": rng.standard_normal(scale),
        "labels": rng.integers(0, 10, size=scale * 4, dtype=np.int32),
        "meta": {"epoch": 3, "loss": 0.125, "tags": ("census", "dpr")},
    }


def _control_messages(count: int) -> List[Tuple[Any, ...]]:
    """The small per-task frames the dispatch path batches."""
    return [
        ("task", "session-0", f"node-{index}", b"x" * 64) for index in range(count)
    ]


def _artifacts_equal(left: Dict[str, Any], right: Dict[str, Any]) -> bool:
    return (
        np.array_equal(left["weights"], right["weights"])
        and np.array_equal(left["bias"], right["bias"])
        and np.array_equal(left["labels"], right["labels"])
        and left["meta"] == right["meta"]
    )


def measure_artifact_size(scale: int) -> Dict[str, float]:
    """Bytes-on-wire and zero-copy segment counts for the numpy artifact."""
    artifact = _numpy_artifact(scale)
    canonical_payload = serialize(artifact)
    pickle_payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
    segments = encode_segments(artifact)
    arrays = (artifact["weights"], artifact["bias"], artifact["labels"])
    zero_copy = sum(
        1
        for segment in segments
        if isinstance(segment, memoryview)
        and any(
            np.shares_memory(np.frombuffer(segment, dtype=np.uint8), array)
            for array in arrays
        )
    )
    round_trip = _artifacts_equal(deserialize(canonical_payload), artifact)
    return {
        "scale": scale,
        "canonical_bytes": len(canonical_payload),
        "pickle_bytes": len(pickle_payload),
        "size_ratio": len(canonical_payload) / len(pickle_payload),
        "zero_copy_segments": zero_copy,
        "segment_count": len(segments),
        "round_trip_exact": bool(round_trip),
    }


def measure_throughput(message_count: int, repeats: int = 3) -> Dict[str, float]:
    """Best-of-N encode+decode rates for small control messages."""
    messages = _control_messages(message_count)
    best: Dict[str, float] = {"canonical": float("inf"), "pickle": float("inf")}
    for _ in range(repeats):
        started = time.perf_counter()
        for message in messages:
            decode(encode(message))
        best["canonical"] = min(best["canonical"], time.perf_counter() - started)
        started = time.perf_counter()
        for message in messages:
            pickle.loads(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
        best["pickle"] = min(best["pickle"], time.perf_counter() - started)
    return {
        "messages": message_count,
        "canonical_msgs_per_s": message_count / best["canonical"],
        "pickle_msgs_per_s": message_count / best["pickle"],
        "relative_throughput": best["pickle"] / best["canonical"],
    }


class _RecordingStore(InMemoryStore):
    """An in-memory store that also keeps each value as its producer built it."""

    def __init__(self) -> None:
        super().__init__()
        self.values: Dict[str, Any] = {}

    def put(self, node_name: str, signature: str, value: Any, iteration: int = 0):
        self.values[node_name] = value
        return super().put(node_name, signature, value, iteration=iteration)


def data_model_artifacts(scale: float) -> Dict[str, Any]:
    """The six stored artifact kinds, from one fully materialized iteration 0.

    ``scale`` multiplies :data:`DATA_MODEL_SCALES`; the data seed is fixed,
    so the artifacts are the same on every run.
    """
    artifacts: Dict[str, Any] = {}
    for workload, nodes in DATA_MODEL_ARTIFACTS.items():
        store = _RecordingStore()
        system = HelixSystem.always_materialize(store=store, cost_model=SimulatedCostModel())
        spec = get_workload(workload)
        config = spec.initial_config(scale=DATA_MODEL_SCALES[workload] * scale, seed=SEED)
        system.run_iteration(spec.build(config), iteration=0)
        for node in nodes:
            artifacts[f"{workload}.{node}"] = store.values[node]
    return artifacts


def _best_ms(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def measure_data_model(scale: float, repeats: int = 7) -> Dict[str, Dict[str, float]]:
    """Per artifact: canonical vs pickle-5 bytes and best-of-N milliseconds."""
    rows: Dict[str, Dict[str, float]] = {}
    for name, value in data_model_artifacts(scale).items():
        payload = encode(value)
        pickled = pickle.dumps(value, protocol=5)
        # encode_segments is [prefix, body, *out-of-band buffers]
        buffers = encode_segments(value)[2:]
        rows[name] = {
            "canonical_bytes": len(payload),
            "pickle_bytes": len(pickled),
            "size_ratio": len(payload) / len(pickled),
            "encode_ms": _best_ms(lambda: encode(value), repeats),
            "decode_ms": _best_ms(lambda: decode(payload), repeats),
            "rows_ms": _best_ms(lambda: list(_collection(decode(payload))), repeats),
            "pickle_dumps_ms": _best_ms(lambda: pickle.dumps(value, protocol=5), repeats),
            "pickle_loads_ms": _best_ms(lambda: pickle.loads(pickled), repeats),
            "round_trip_exact": _round_trip_exact(payload),
            "columnar": _columnar(value),
            "oob_segments": len(buffers),
        }
    return rows


def _collection(value: Any) -> Any:
    return value.predictions if isinstance(value, PredictionsResult) else value


def _round_trip_exact(payload: bytes) -> bool:
    """Whether the decoded artifact re-encodes to ``payload`` before and after
    its rows are built, and those rows have exactly the columns it holds.

    A decoded collection re-encodes the columns it holds, so the first check
    alone would pass without ever building a row.
    """
    decoded = decode(payload)
    if encode(decoded) != payload:
        return False
    collection = _collection(decoded)
    held = collection._columns()
    rows = tuple(collection)
    return encode(_to_columns(rows)) == encode(held) and encode(decoded) == payload


def _columnar(value: Any) -> bool:
    """Whether the artifact's collection states itself as columns.

    The row form is the three-tuple ``(name, kind, elements)``.
    """
    collection = _collection(value)
    return isinstance(collection, DataCollection) and len(collection.__getstate__()) != 3


def _format_data_model(rows: Dict[str, Dict[str, float]]) -> List[str]:
    lines = [
        "data model (canonical / pickle-5):",
        f"  {'artifact':<20} {'bytes':>17} {'ratio':>6} "
        f"{'encode ms':>16} {'decode ms':>16} {'rows ms':>8}",
    ]
    for name, row in rows.items():
        lines.append(
            f"  {name:<20} {int(row['canonical_bytes']):>8}/{int(row['pickle_bytes']):<8} "
            f"{row['size_ratio']:>6.2f} "
            f"{row['encode_ms']:>7.2f}/{row['pickle_dumps_ms']:<8.2f} "
            f"{row['decode_ms']:>7.2f}/{row['pickle_loads_ms']:<8.2f} "
            f"{row['rows_ms']:>8.2f}"
        )
    return lines


def _data_model_failures(rows: Dict[str, Dict[str, float]]) -> List[str]:
    failures = []
    for name, row in rows.items():
        if not row["round_trip_exact"]:
            failures.append(
                f"{name}: decode does not re-encode to the same bytes, or its rows "
                f"do not have the columns it holds"
            )
        if not row["columnar"]:
            failures.append(f"{name}: its DataCollection fell back to the row state")
        if name in DENSE_ARTIFACTS and row["oob_segments"] != 1:
            failures.append(
                f"{name}: {int(row['oob_segments'])} out-of-band segments — its dense "
                f"feature vectors must travel as one array"
            )
        if row["size_ratio"] > DATA_MODEL_SIZE_BAR:
            failures.append(
                f"{name}: canonical payload is {row['size_ratio']:.2f}x pickle — above "
                f"the {DATA_MODEL_SIZE_BAR:g}x data-model bytes bar"
            )
    return failures


def _format_sections(sections: Dict[str, Any]) -> str:
    size = sections["artifact_size"]
    rate = sections["throughput"]
    return "\n".join(
        [
            f"artifact ({int(size['scale'])}x{int(size['scale'])} f64 + extras):",
            f"  canonical: {int(size['canonical_bytes'])} bytes, "
            f"pickle: {int(size['pickle_bytes'])} bytes "
            f"(ratio {size['size_ratio']:.4f})",
            f"  zero-copy segments: {int(size['zero_copy_segments'])} "
            f"of {int(size['segment_count'])}",
            f"control messages ({int(rate['messages'])} per round):",
            f"  canonical: {rate['canonical_msgs_per_s']:.0f} msg/s, "
            f"pickle: {rate['pickle_msgs_per_s']:.0f} msg/s "
            f"({rate['relative_throughput']:.2f}x relative)",
            *_format_data_model(sections["data_model"]),
        ]
    )


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (same measurements, harness-managed timing)
# ---------------------------------------------------------------------------
def test_bench_canonical_artifact_round_trip(benchmark):
    """Encode+decode of the numpy artifact; asserts the size and zero-copy bars."""
    artifact = _numpy_artifact(128)
    payload = benchmark(lambda: serialize(artifact))
    assert _artifacts_equal(deserialize(payload), artifact)
    size = measure_artifact_size(128)
    assert size["size_ratio"] <= SIZE_RATIO_BAR
    assert size["zero_copy_segments"] >= 3  # weights, bias, labels


def test_bench_control_message_round_trip(benchmark):
    """Per-message encode+decode cost on the small-task dispatch shape."""
    message = _control_messages(1)[0]
    result = benchmark(lambda: decode(encode(message)))
    assert result == message


def test_serialization_micro_report(benchmark):
    sections = run_once(
        benchmark,
        lambda: {
            "artifact_size": measure_artifact_size(128),
            "throughput": measure_throughput(500),
            "data_model": measure_data_model(0.2, repeats=3),
        },
    )
    emit("Serialization micro — canonical vs pickle", _format_sections(sections))
    assert sections["artifact_size"]["round_trip_exact"]
    assert not _data_model_failures(sections["data_model"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Canonical serialization vs pickle: size, zero-copy, throughput"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller artifact and fewer messages; used by CI on every push",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write every section's measurements to PATH as JSON "
        "(uploaded as a CI artifact by the serialization smoke job)",
    )
    args = parser.parse_args(argv)
    scale = 64 if args.smoke else 256
    message_count = 200 if args.smoke else 2000

    failures: List[str] = []
    sections: Dict[str, Any] = {
        "artifact_size": measure_artifact_size(scale),
        "throughput": measure_throughput(message_count),
        "data_model": measure_data_model(0.2 if args.smoke else 1.0),
    }
    print(_format_sections(sections))

    size = sections["artifact_size"]
    if not size["round_trip_exact"]:
        failures.append("canonical round trip did not reproduce the artifact")
    if size["size_ratio"] > SIZE_RATIO_BAR:
        failures.append(
            f"canonical payload is {size['size_ratio']:.4f}x pickle — above the "
            f"{SIZE_RATIO_BAR:g}x bytes-on-wire bar"
        )
    else:
        print(
            f"OK: canonical bytes-on-wire {size['size_ratio']:.4f}x pickle "
            f"(bar {SIZE_RATIO_BAR:g}x)"
        )
    if size["zero_copy_segments"] < 3:
        failures.append(
            f"only {int(size['zero_copy_segments'])} zero-copy segments — the "
            f"artifact's three arrays must all ship out of band"
        )
    else:
        print(
            f"OK: {int(size['zero_copy_segments'])} zero-copy segments "
            f"(weights, bias, labels ship without copies)"
        )
    print(
        f"INFO: control-message throughput {sections['throughput']['relative_throughput']:.2f}x "
        f"relative to pickle (report-only)"
    )
    model_failures = _data_model_failures(sections["data_model"])
    failures.extend(model_failures)
    if not model_failures:
        worst = max(row["size_ratio"] for row in sections["data_model"].values())
        print(
            f"OK: data-model artifacts at most {worst:.2f}x pickle bytes "
            f"(bar {DATA_MODEL_SIZE_BAR:g}x), every collection columnar, "
            f"{' and '.join(DENSE_ARTIFACTS)} dense vectors as one array each; "
            f"speed ratios are report-only"
        )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(
                {
                    "smoke": bool(args.smoke),
                    "sections": sections,
                    "failures": failures,
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"wrote measurements to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
