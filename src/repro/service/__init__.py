"""Helix-as-a-service: a long-lived daemon serving workflow runs.

:mod:`repro.service.daemon`
    :class:`ServeDaemon` — owns a :class:`DistributedExecutor` worker
    fleet, accepts run submissions over the framed wire protocol, and
    runs them in arrival order across ``max_concurrent_runs`` runner
    threads, one :class:`DistributedSession` per run.
:mod:`repro.service.client`
    :class:`ServiceClient` / :class:`RunHandle` — submit specs, stream
    progress, collect canonical run stats; ``inline_reference`` +
    ``assert_payloads_equivalent`` tie served runs back to the
    equivalence harness.
:mod:`repro.service.cli`
    The ``repro serve`` and ``repro submit`` command line entry points.
"""

from .client import (
    RunHandle,
    ServiceClient,
    assert_payloads_equivalent,
    inline_reference,
    submit_run,
)
from .daemon import ServeDaemon, build_system, lifecycle_payload, run_spec, validate_spec

__all__ = [
    "ServeDaemon",
    "ServiceClient",
    "RunHandle",
    "submit_run",
    "inline_reference",
    "assert_payloads_equivalent",
    "validate_spec",
    "build_system",
    "run_spec",
    "lifecycle_payload",
]
