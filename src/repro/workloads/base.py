"""Workload adapter interface and registry.

A *workload* packages everything an experiment needs for one of the paper's
four applications:

* a configuration dataclass describing the current version of the workflow,
* a deterministic synthetic data generator,
* a :func:`build` function turning a configuration into a
  :class:`~repro.core.workflow.Workflow`,
* an :func:`apply_iteration` function that mutates the configuration the way
  a developer of that domain would for a given iteration type (DPR / L/I /
  PPR), and
* the Table-2 characteristics used by the use-case-support experiment.

Workloads register themselves in :data:`WORKLOADS` so the experiment runner
and benchmarks can enumerate them by name.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.workflow import Workflow
from .iterations import IterationSpec

__all__ = ["WorkloadCharacteristics", "Workload", "WORKLOADS", "register", "get_workload"]


@dataclass(frozen=True)
class WorkloadCharacteristics:
    """The Table 2 row for a workload."""

    name: str
    domain: str
    application_domain: str
    num_data_sources: str
    input_to_example: str
    feature_granularity: str
    learning_task: str
    supported_by_helix: bool = True
    supported_by_keystoneml: bool = False
    supported_by_deepdive: bool = False


class Workload(ABC):
    """Base class for the four evaluation workloads."""

    #: Short identifier used by benchmarks and the registry.
    name: str = "workload"
    #: Domain key into :data:`~repro.workloads.iterations.DOMAIN_FREQUENCIES`.
    domain: str = "social_sciences"

    @abstractmethod
    def characteristics(self) -> WorkloadCharacteristics:
        """The workload's Table 2 characteristics."""

    @abstractmethod
    def initial_config(self, scale: float = 1.0, seed: int = 0) -> Any:
        """The configuration for iteration 0 (``scale`` multiplies dataset size)."""

    @abstractmethod
    def apply_iteration(self, config: Any, spec: IterationSpec, rng: np.random.Generator) -> Any:
        """Return a new configuration reflecting one developer modification."""

    @abstractmethod
    def build(self, config: Any) -> Workflow:
        """Build the workflow for a configuration."""


#: Registry of available workloads by name.
WORKLOADS: Dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    """Register a workload instance under its name (idempotent)."""
    WORKLOADS[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; available: {sorted(WORKLOADS)}") from None
