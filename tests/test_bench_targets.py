"""The benchmark's tracer still finds every function it names in the package.

`bench/tracing.py` wraps functions by name, so a rename in `src/` breaks the
benchmark; this check enters the tracer without running anything.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _binding(module, attr):
    """The object a trace target names: a module function, or a method as
    stored in its class."""
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, attr)


def test_every_trace_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    modules = {t.module: importlib.import_module("%s.%s" % (tracing.PACKAGE, t.module)) for t in tracing.TARGETS}

    with tracing.Tracer():
        unwrapped = [t.attr for t in tracing.TARGETS if not hasattr(_binding(modules[t.module], t.attr), "__wrapped__")]
    assert unwrapped == []
    # leaving the tracer restores every binding
    assert not any(hasattr(_binding(modules[t.module], t.attr), "__wrapped__") for t in tracing.TARGETS)
