"""The benchmark's tracer must find every binding it wraps.

perfbench/tracing.py wraps patchgrid functions by name from outside; a
renamed or deleted binding makes its per-layer metrics read null.
"""

import importlib.util
from pathlib import Path

from patchgrid import grid, preprocess

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_traced_binding():
    tracing = load_tracing()
    originals = (preprocess._patch_entries, grid._chunk_records, grid.morton_encode)
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        assert tracer.absent == {}
        assert preprocess._patch_entries is not originals[0]
    finally:
        tracer.uninstall()
    assert (preprocess._patch_entries, grid._chunk_records, grid.morton_encode) == originals
