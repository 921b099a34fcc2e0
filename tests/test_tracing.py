"""The benchmark's tracer against the package: every name it wraps exists."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    # a traced benchmark run fails before its first query when a name it
    # wraps (each WRAPS entry, and cli._map) is renamed or removed
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _, _ in tracing.WRAPS]
    for module, attr in names + [("geothermo.cli", "_map")]:
        owner, key = tracing._resolve(module, attr)
        assert callable(getattr(owner, key, None)), f"{module}.{attr}"
