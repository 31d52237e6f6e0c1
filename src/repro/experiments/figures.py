"""Figure-level helpers shared by the benchmark scripts.

Each paper figure is reproduced by a ``benchmarks/bench_*.py`` script that
runs its own lifecycles.  Two pieces are shared: :func:`speedup`, the paper's
headline ratio, and :func:`figure7b`, the modelled 2/4/8-worker cluster
scalability run of Figure 7(b).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..execution.clock import ClusterModel, MeasuredCostModel
from ..systems.helix import HelixSystem
from ..systems.keystoneml import KeystoneMLSystem
from .runner import LifecycleResult, run_comparison

__all__ = ["figure7b", "speedup"]


def speedup(results: Dict[str, LifecycleResult], baseline: str, target: str = "helix-opt") -> float:
    """Cumulative run-time ratio ``baseline / target`` (the paper's headline metric)."""
    if baseline not in results or target not in results:
        return float("nan")
    target_time = results[target].total_time()
    if target_time <= 0:
        return float("inf")
    return results[baseline].total_time() / target_time


def figure7b(
    n_iterations: int = 0,
    seed: int = 7,
    worker_counts: Sequence[int] = (2, 4, 8),
    scale: float = 2.0,
) -> Dict[str, Dict[str, List[float]]]:
    """Cluster scalability: cumulative run time on 2/4/8 simulated workers.

    Helix's semantic-unit loop fusion lets DPR scale super-linearly for small
    clusters but its tiny PPR reducers pay per-worker communication overhead;
    KeystoneML scales roughly linearly with a lower efficiency.
    """
    output: Dict[str, Dict[str, List[float]]] = {}
    for workers in worker_counts:
        helix_cluster = ClusterModel(
            num_workers=workers,
            parallel_efficiency={"DPR": 1.35, "L/I": 0.9, "PPR": 0.0},
            communication_overhead=0.004,
        )
        keystone_cluster = ClusterModel(
            num_workers=workers,
            parallel_efficiency={"DPR": 0.8, "L/I": 0.8, "PPR": 0.0},
            communication_overhead=0.002,
        )
        helix = HelixSystem.opt(seed=seed, cost_model=MeasuredCostModel(cluster=helix_cluster))
        keystone = KeystoneMLSystem(seed=seed, cost_model=MeasuredCostModel(cluster=keystone_cluster))
        results = run_comparison(
            [helix, keystone], "census", n_iterations=n_iterations, seed=seed, scale=scale
        )
        for name, result in results.items():
            output[f"{name}-{workers}w"] = {"cumulative": result.cumulative_times()}
    return output
