"""repro.obs — observability layer.

Structured tracing (:mod:`repro.obs.record`), the always-on flight
recorder, the NACK causality audit (:mod:`repro.obs.nacks`),
Perfetto export (:mod:`repro.obs.perfetto`), engine profiling
(:mod:`repro.obs.profile`), windowed counters
(:mod:`repro.obs.timeseries`), and the CLI console helper
(:mod:`repro.obs.console`).  Per-hop packet capture is the recorder's
``PACKET`` category, retained and read through ``records(PACKET)``.

Only dependency-light modules are imported eagerly; ``nacks`` and
``perfetto`` (which pull in the network stack) load
lazily via module ``__getattr__`` so importing :mod:`repro.obs` from
low-level packages can never create an import cycle.
"""

from repro.obs.console import Console
from repro.obs.profile import Profiler
from repro.obs.record import (ALL_CATEGORIES, CC, DROP, ECN, FAULT, NACK,
                              PACKET, PFC, QP, QUEUE, InvariantError,
                              Recorder, active_recorder, check_invariant,
                              dump_active_flight, set_active)
from repro.obs.timeseries import RateMeter, WindowedCounter

__all__ = [
    "ALL_CATEGORIES", "PACKET", "QUEUE", "ECN", "DROP", "NACK", "PFC",
    "QP", "CC", "FAULT",
    "Recorder", "InvariantError", "check_invariant", "set_active",
    "active_recorder", "dump_active_flight",
    "Console", "Profiler",
    "WindowedCounter", "RateMeter",
    # Lazily loaded:
    "build_audit", "format_report", "NackAudit", "NackDecision",
    "export_chrome_trace", "write_chrome_trace", "validate_chrome_trace",
]

_LAZY = {
    "build_audit": ("repro.obs.nacks", "build_audit"),
    "format_report": ("repro.obs.nacks", "format_report"),
    "NackAudit": ("repro.obs.nacks", "NackAudit"),
    "NackDecision": ("repro.obs.nacks", "NackDecision"),
    "export_chrome_trace": ("repro.obs.perfetto", "export_chrome_trace"),
    "write_chrome_trace": ("repro.obs.perfetto", "write_chrome_trace"),
    "validate_chrome_trace": ("repro.obs.perfetto",
                              "validate_chrome_trace"),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value
    return value
