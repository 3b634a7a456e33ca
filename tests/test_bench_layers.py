"""The per-layer tracer in bench/ finds every function it wraps.

``bench/layers.py`` looks its targets up by module and attribute name, so
renaming or moving one of them would break ``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in layers.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
