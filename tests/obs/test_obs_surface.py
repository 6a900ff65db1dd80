"""The observability package surface, post shim removal.

The ``repro.sim.trace`` and ``repro.harness.tracer`` deprecation shims
have been deleted after their deprecation window; the windowed counters
live in ``repro.obs.timeseries``, and per-hop packet capture is the
recorder's ``packet`` category.
"""

import importlib

import pytest


class TestShimsRemoved:
    @pytest.mark.parametrize("module", ["repro.sim.trace",
                                        "repro.harness.tracer",
                                        "repro.obs.capture",
                                        "repro.harness.export",
                                        "repro.harness.figures"])
    def test_old_path_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_canonical_homes_export_the_types(self):
        import repro.obs as obs
        from repro.obs.timeseries import RateMeter, WindowedCounter
        assert obs.RateMeter is RateMeter
        assert obs.WindowedCounter is WindowedCounter


class TestObsPackageSurface:
    def test_lazy_exports_resolve(self):
        import repro.obs as obs
        for name in ("build_audit", "format_report", "NackAudit",
                     "NackDecision", "export_chrome_trace",
                     "write_chrome_trace", "validate_chrome_trace"):
            assert getattr(obs, name) is not None

    def test_unknown_attribute_raises(self):
        import repro.obs as obs
        with pytest.raises(AttributeError):
            obs.does_not_exist
