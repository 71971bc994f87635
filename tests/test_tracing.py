"""The benchmark reads patchgrid from outside, and these tests hold its contract.

perfbench/tracing.py wraps patchgrid functions by name; a renamed or deleted
binding makes its per-layer metrics read null, and a traced counter must count
what the program counts. perfbench/run.py prints its result as the last stdout
line, so the library itself must print nothing.
"""

import importlib.util
import random
from pathlib import Path
from unittest import mock

from conftest import add_cells, sparse_cells
from patchgrid import grid, matcher, preprocess
from patchgrid.matcher import match_query
from patchgrid.preprocess import add_patches, build_patch_database, compact
from patchgrid.synthetic import planted_instance

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


def test_tracer_counts_frame_and_morton_kernel_calls(tmp_path):
    # the engine builds frames and Morton codes through the very functions
    # the bench's geometry.frame_from_triple and grid.morton_encode metrics wrap
    instance = planted_instance(seed=82, n_patches=6)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        db = build_patch_database(instance.patches, instance.params, tmp_path / "db")
        built = {name: tracer.n_calls(name) for name in ("geometry.frame_from_triple", "grid.morton_encode")}
        match_query(instance.query, db, 0.0, tmp_dir=tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.absent == {}
    for name, calls in built.items():
        assert 0 < calls < tracer.n_calls(name)


def test_tracer_counts_score_table_reductions_like_the_program():
    # sparse batches, whose rows the table buffers and reduces in spills;
    # the table sums a dense batch directly and never spills it
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        table = matcher.ScoreTable(budget=3)
        rng = random.Random(78)
        for _ in range(10):
            add_cells(table, sparse_cells(rng))
    finally:
        tracer.uninstall()
    assert tracer.n_calls("matcher.score_spills") == table.spills > 0
    assert tracer.n_calls("matcher.score_adds") == 10


def test_tracer_counts_each_stored_cell_read_once(tmp_path):
    # The bench's exact-count check: cells read through the run reader equal
    # the stored cells of every grid scanned (both grids of the query over
    # the two-run database) and merged (by compact).
    instance = planted_instance(seed=80, n_patches=8)
    half = len(instance.patches) // 2
    db = build_patch_database(instance.patches[:half], instance.params, tmp_path / "db")
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        db = add_patches(db, instance.patches[half:])
        assert len(db.grid.runs) == 2
        assert match_query(instance.query, db, 0.0, tmp_dir=tmp_path)
        merged = compact(db)
    finally:
        tracer.uninstall()
    assert tracer.absent == {}
    assert tracer.n_calls("grid.merge_runs") == 1 and len(merged.grid.runs) == 1
    counts = tracer.counts
    assert counts["grid.cells_read"] == counts["grid.cells_stored_scanned"] > 2 * db.grid.total_cells


def test_library_writes_nothing_to_stdout(tmp_path, capsys):
    instance = planted_instance(seed=79, n_patches=8)
    half = len(instance.patches) // 2
    # A budget of 7 entries makes the external sort spill chunks in both writes.
    db = build_patch_database(instance.patches[:half], instance.params, tmp_path / "db",
                              memory_budget_entries=7, tmp_dir=tmp_path)
    db = add_patches(db, instance.patches[half:], memory_budget_entries=7, tmp_dir=tmp_path)
    assert len(db.grid.runs) == 2
    db = compact(db)
    with mock.patch.object(matcher, "DEFAULT_SCORE_BUDGET", 3):
        results = match_query(instance.query, db, 0.0, tmp_dir=tmp_path)
    # the score table's spills, which the query's dense batches do not take
    table = matcher.ScoreTable(budget=3)
    add_cells(table, sparse_cells(random.Random(79)))
    assert results and table.spills > 0 and list(table.items())
    assert capsys.readouterr().out == ""
