import hashlib
import io
import itertools
import math
import random
import re
import struct
import tempfile
import tracemalloc
from contextlib import closing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    CellIndex,
    ReferenceRunReader,
    deinterleave_bits,
    interleave_bits,
    lexsorted,
    morton_decode,
    opened_readers,
    reference_morton,
    reference_run_bytes,
    z_records,
)
from patchgrid import grid as grid_module
from patchgrid.errors import CorruptDatabase, OutOfExtent
from patchgrid.grid import (
    BOUNDARY_SNAP,
    DEFAULT_MEMORY_BUDGET,
    RUN_RECORD,
    Cell,
    DiskGrid,
    GridCursor,
    GridParams,
    MemoryGrid,
    RunInfo,
    build_sorted_run,
    cells_of_points,
    merge_runs,
    morton_encode,
    sort_grid,
)

P1 = GridParams(delta=1.0)


def interleave_oracle(x: int, y: int, z: int) -> int:
    code = 0
    for i in range(21):
        code |= ((x >> i) & 1) << (3 * i)
        code |= ((y >> i) & 1) << (3 * i + 1)
        code |= ((z >> i) & 1) << (3 * i + 2)
    return code


def quantize_oracle(p, params: GridParams) -> CellIndex:
    # One point in plain Python floats: floor(x / delta) per axis, snapped
    # onto a boundary within BOUNDARY_SNAP of it.
    h = params.half_extent_cells
    idx = []
    for x in p:
        q = x / params.delta
        k = round(q)
        c = k if abs(x - k * params.delta) < BOUNDARY_SNAP else math.floor(q)
        if not (-h <= c <= h - 1):
            raise OutOfExtent(f"coordinate {x} maps to cell {c}")
        idx.append(c)
    return CellIndex(*idx)


def entry(sk, ro, ao):
    return (sk, ro, ao)


def make_run(tmp_path, name, items, params=P1, budget=10**6):
    return build_sorted_run(z_records(items, params), tmp_path / name, memory_budget_entries=budget)


def read_cells(grid):
    with GridCursor(grid) as cursor:
        return list(cursor)


def quantized(points, params=P1):
    """The cell of each point, or None where it falls outside the extent."""
    cells, in_extent = cells_of_points(np.array(points, dtype=np.float64), params)
    return [CellIndex(*c) if ok else None for c, ok in zip(cells.tolist(), in_extent.tolist())]


def entry_tuples(cell):
    """A cell's entries as (structure key, residue ordinal, atom ordinal) tuples."""
    return [tuple(e) for e in cell.entries.tolist()]


# ---------------------------------------------------------------------------
# quantization


def test_cell_of_origin():
    assert quantized([(0.0, 0.0, 0.0)]) == [CellIndex(0, 0, 0)]


def test_cell_of_floor_example():
    # floor arithmetic checked against the scalar oracle below
    assert quantized([(2.5, -1.2, 0.0)]) == [CellIndex(2, -2, 0)]
    assert math.floor(2.5 / 1.0) == 2 and math.floor(-1.2 / 1.0) == -2


def test_cell_of_out_of_extent():
    assert quantized([(1e12, 0.0, 0.0), (1.0, 0.0, 0.0)]) == [None, CellIndex(1, 0, 0)]


def test_cell_of_matches_floor_oracle_away_from_boundaries():
    rng = random.Random(2)
    for _ in range(2000):
        delta = rng.choice([0.5, 1.0, 2.0])
        params = GridParams(delta=delta)
        p = []
        for _ in range(3):
            x = rng.uniform(-500, 500)
            if abs(x / delta - round(x / delta)) * delta < 1e-6:
                x += 0.3 * delta
            p.append(x)
        assert quantized([p], params) == [CellIndex(*(math.floor(x / delta) for x in p))]


def test_boundary_snap_is_stable():
    # values a hair below a boundary land in the boundary's upper cell
    assert quantized([(-1e-12, 1.0 - 1e-12, 2.0 + 1e-12), (0.0, 1.0, -3.0)]) == [
        CellIndex(0, 1, 2), CellIndex(0, 1, -3)
    ]


def test_batch_quantization_matches_scalar():
    rng = random.Random(9)
    params = GridParams(delta=0.5)
    pts = []
    for _ in range(500):
        pts.append([rng.uniform(-40, 40) for _ in range(3)])
    pts += [[0.0, -1e-12, 0.25], [1e12, 0, 0]]
    cells, in_extent = cells_of_points(np.array(pts), params)
    for i, p in enumerate(pts):
        try:
            expected = quantize_oracle(p, params)
            assert in_extent[i]
            assert CellIndex(*cells[i]) == expected
        except OutOfExtent:
            assert not in_extent[i]


# ---------------------------------------------------------------------------
# Morton codes


def test_interleave_documented_values():
    assert interleave_bits(0, 0, 0) == 0
    assert interleave_bits(1, 1, 1) == 7
    assert interleave_bits(1, 2, 3) == 53


def test_interleave_matches_bit_oracle():
    rng = random.Random(4)
    for _ in range(5000):
        x, y, z = (rng.randrange(1 << 21) for _ in range(3))
        code = interleave_bits(x, y, z)
        assert code == interleave_oracle(x, y, z)
        assert deinterleave_bits(code) == (x, y, z)


def test_morton_round_trip_exhaustive_small_offsets():
    h = P1.half_extent_cells
    offsets = list(itertools.product(range(8), repeat=3))
    cells = [CellIndex(ox - h, oy - h, oz - h) for ox, oy, oz in offsets]
    for (ox, oy, oz), c, code in zip(offsets, cells, morton_encode(cells, P1).tolist()):
        assert code == interleave_oracle(ox, oy, oz)
        assert morton_decode(code, P1) == c


def test_morton_round_trip_random():
    rng = random.Random(8)
    h = P1.half_extent_cells
    cells = [CellIndex(*(rng.randrange(-h, h) for _ in range(3))) for _ in range(5000)]
    for c, code in zip(cells, morton_encode(cells, P1).tolist()):
        assert morton_decode(code, P1) == c


def test_morton_code_fits_bit_budget():
    params = GridParams(delta=1.0, bits_per_axis=5)
    h = params.half_extent_cells
    (code,) = morton_encode([CellIndex(h - 1, h - 1, h - 1)], params).tolist()
    assert code < (1 << (3 * params.bits_per_axis))


@pytest.mark.parametrize("bits", [1, 5, 21])
def test_morton_encode_extent_corners(bits):
    params = GridParams(delta=1.0, bits_per_axis=bits)
    h = params.half_extent_cells
    corners = [CellIndex(-h, -h, -h), CellIndex(h - 1, h - 1, h - 1), CellIndex(-h, h - 1, 0)]
    codes = morton_encode(corners, params)
    assert codes.dtype == np.uint64
    assert codes.tolist() == [reference_morton(c, params) for c in corners]
    assert [morton_decode(code, params) for code in codes.tolist()] == corners
    assert codes[1] == (1 << (3 * bits)) - 1
    # one cell past the extent fails the whole array
    for c in (CellIndex(h, 0, 0), CellIndex(0, -h - 1, 0), CellIndex(-1, -1, -h - 1)):
        with pytest.raises(OutOfExtent, match=f"outside extent for {bits} bits"):
            morton_encode([corners[0], c], params)


def test_z_equality_iff_same_cell():
    rng = random.Random(6)
    points = [[rng.uniform(-20, 20) for _ in range(3)] for _ in range(2000)]
    cells = quantized(points)
    codes = morton_encode(cells, P1).tolist()
    for cp, cq, zp, zq in zip(cells[::2], cells[1::2], codes[::2], codes[1::2]):
        assert (zp == zq) == (cp == cq)


def test_params_validation():
    with pytest.raises(ValueError):
        GridParams(delta=0.0)
    with pytest.raises(ValueError):
        GridParams(delta=1.0, bits_per_axis=22)


# ---------------------------------------------------------------------------
# sorted runs


def test_build_sorted_run_groups_cells(tmp_path):
    items = [
        (CellIndex(1, 0, 0), entry(0, 0, 1)),
        (CellIndex(0, 0, 0), entry(0, 0, 0)),
        (CellIndex(1, 0, 0), entry(0, 1, 2)),
    ]
    info = make_run(tmp_path, "r.bin", items)
    assert (info.n_cells, info.n_entries) == (2, 3)
    grid = DiskGrid(P1, tmp_path, [info])
    cells = read_cells(grid)
    assert [len(c.entries) for c in cells] == [1, 2]
    assert cells[0].z < cells[1].z


def test_build_sorted_run_idempotent_on_sorted_input(tmp_path):
    rng = random.Random(1)
    items = [
        (CellIndex(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)),
         entry(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 9)))
        for _ in range(200)
    ]
    info1 = make_run(tmp_path, "a.bin", items)
    grid1 = DiskGrid(P1, tmp_path, [info1])
    sorted_stream = [
        (morton_decode(c.z, P1), entry(*e)) for c in read_cells(grid1) for e in entry_tuples(c)
    ]
    info2 = make_run(tmp_path, "b.bin", sorted_stream)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert info2 == type(info2)("b.bin", info1.n_cells, info1.n_entries)


def four_key_sorts():
    """Spies on the four-key sorts the grid falls back to: the lexsort of
    unordered records and the structured sort of a merge round."""
    return mock.patch.object(np, "lexsort", wraps=np.lexsort), mock.patch.object(np, "sort", wraps=np.sort)


@pytest.mark.parametrize("budget, ordered", [
    *(pytest.param(budget, False, id=f"{budget}") for budget in (2, 17, 100)),
    *(pytest.param(budget, True, id=f"{budget}-minor-ordered") for budget in (2, 17, 100)),
])
def test_build_sorted_run_budget_matches_in_memory(tmp_path, budget, ordered):
    # A stream whose (sk, ro, ao) ascend, as the indexer emits it, is sorted
    # and merged on z alone; any other stream takes the four-key sorts.
    rng = random.Random(7)
    n = 2_000 if budget == 2 else 20_000
    items = [
        (CellIndex(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)),
         entry(rng.randint(0, 30), rng.randint(0, 10), rng.randint(0, 60)))
        for _ in range(n)
    ]
    if ordered:
        cells, entries = zip(*items)
        items = zip(cells, sorted(entries))
    records = list(z_records(items, P1))
    lexsort, sort = four_key_sorts()
    with lexsort as lexsorts, sort as sorts:
        small = build_sorted_run(records, tmp_path / "small.bin", memory_budget_entries=budget, tmp_dir=tmp_path)
        big = build_sorted_run(records, tmp_path / "big.bin", memory_budget_entries=10**7)
    if ordered:
        assert lexsorts.call_count == sorts.call_count == 0
    else:  # the chunks are lexsorted, and merge rounds whose ties interleave fall back
        assert lexsorts.call_count > 0 and sorts.call_count > 0
    assert (tmp_path / "small.bin").read_bytes() == (tmp_path / "big.bin").read_bytes()
    assert (tmp_path / "big.bin").read_bytes() == reference_run_bytes(records)
    assert (small.n_cells, small.n_entries) == (big.n_cells, big.n_entries)


@pytest.mark.parametrize("block_records", [2, 1 << 12])
def test_sort_run_merges_many_chunks_with_straddling_duplicates(tmp_path, monkeypatch, block_records):
    # budget 3 cuts the records into chunks 3k..3k+2; each chunk starts with
    # a copy of the previous chunk's last record, so a duplicate straddles
    # every chunk boundary, and the small key space repeats records across
    # chunks as well. Two-record blocks make the merge read each chunk in
    # two blocks.
    monkeypatch.setattr(grid_module, "_WRITE_BLOCK_RECORDS", block_records)
    budget, n = 3, 3 * 1_100 + 1
    rng = np.random.default_rng(5)
    records = np.empty(n, dtype=grid_module.RUN_RECORD)
    records["z"] = rng.integers(0, 40, n)
    for name in ("sk", "ro", "ao"):
        records[name] = rng.integers(0, 3, n)
    records[budget::budget] = records[budget - 1:-1:budget]
    chunks = []
    reader = grid_module._chunk_records
    monkeypatch.setattr(grid_module, "_chunk_records", lambda path: chunks.append(path) or reader(path))
    spill = tmp_path / "spill"
    spill.mkdir()
    small = grid_module.sort_run(iter(np.array_split(records, 37)), tmp_path / "small.bin", budget, spill)
    big = grid_module.sort_run(iter([records]), tmp_path / "big.bin", 10**7)
    assert len(chunks) == 1_100
    assert (tmp_path / "small.bin").read_bytes() == (tmp_path / "big.bin").read_bytes()
    assert (small.n_cells, small.n_entries) == (big.n_cells, big.n_entries)
    assert list(spill.iterdir()) == []


@pytest.mark.parametrize("block_records", [1, 2, 1 << 12])
@pytest.mark.parametrize("n", [5, 6, 15, 16])
def test_sort_run_and_sort_grid_spill_only_past_the_budget(tmp_path, monkeypatch, n, block_records):
    # One fit rule: n records spill ceil(n / budget) - 1 chunks through
    # either sort however the stream is cut, so exactly the budget spills
    # none and one record more spills one chunk.
    budget = 5
    rng = np.random.default_rng(n)
    records = np.empty(n, dtype=RUN_RECORD)
    records["z"] = rng.integers(0, 4, n)
    for name in ("sk", "ro", "ao"):
        records[name] = rng.integers(0, 2, n)
    expected_info = grid_module.sort_run(iter([records]), tmp_path / "expected.bin", 10**7)
    expected = (tmp_path / "expected.bin").read_bytes()
    assert expected == reference_run_bytes(records.tolist())
    chunks = []
    reader = grid_module._chunk_records
    monkeypatch.setattr(grid_module, "_chunk_records", lambda path: chunks.append(path) or reader(path))

    def blocks():
        return (records[i:i + block_records] for i in range(0, n, block_records))

    info = grid_module.sort_run(blocks(), tmp_path / "run.bin", budget, tmp_path)
    assert (len(chunks), (tmp_path / "run.bin").read_bytes(), info) == (
        math.ceil(n / budget) - 1, expected, RunInfo("run.bin", expected_info.n_cells, expected_info.n_entries))
    chunks.clear()
    grid = sort_grid(blocks(), P1, tmp_path / "gq", budget, tmp_path)
    assert len(chunks) == math.ceil(n / budget) - 1
    assert isinstance(grid, MemoryGrid) == (n <= budget)
    run = bytes(grid.run) if n <= budget else grid.run_path(grid.runs[0]).read_bytes()
    assert run == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["expected.bin", "run.bin", *(["gq"] if n > budget else [])])


@pytest.mark.parametrize("sort", ["sort_run", "sort_grid"])
def test_fitting_sort_holds_few_copies_of_its_records(tmp_path, sort):
    # 300,000 distinct records streamed in writer-sized blocks, with (sk,
    # ro, ao) ascending as the indexer's and the query grid's do, fit the
    # default budget. The sort holds its records once and takes one sorted
    # copy, and the writer and the in-memory grid encode that copy without
    # another one: the traced peak stays below 2.7 times the records' bytes
    # (2.62 measured), where a sort that keeps the caller's blocks through
    # the write or copies a block without duplicates reaches 3.5 to 5
    # times, one that sorts a buffer grown past its records 3.1, and an
    # encoder that stacks the entry fields into one copy 2.8.
    n = 300_000
    records = _ascending_records(n)
    info, peak = _traced_sort(sort, records, tmp_path)
    assert (info.n_entries if sort == "sort_run" else info.total_entries) == n
    assert isinstance(info, RunInfo if sort == "sort_run" else MemoryGrid)
    assert peak < 2.7 * records.nbytes


@pytest.mark.parametrize("sort", ["sort_run", "sort_grid"])
def test_spilling_sort_holds_its_budget_once(tmp_path, monkeypatch, sort):
    # 250,000 records past a budget of 100,000 spill two chunks. The sort
    # holds the budget's records once, their order and one slice of them:
    # the traced peak stays at most 2.0 times the budget's record bytes
    # (1.87 measured), where a sort that joins the held blocks into a copy
    # and sorts a full copy of that reaches 3.
    n, budget = 250_000, 100_000
    chunks = []
    reader = grid_module._chunk_records
    monkeypatch.setattr(grid_module, "_chunk_records", lambda path: chunks.append(path) or reader(path))
    info, peak = _traced_sort(sort, _ascending_records(n), tmp_path, budget)
    assert len(chunks) == 2
    assert (info.n_entries if sort == "sort_run" else info.total_entries) == n
    assert isinstance(info, RunInfo if sort == "sort_run" else DiskGrid)
    assert peak <= 2.0 * budget * RUN_RECORD.itemsize


def _ascending_records(n: int) -> np.ndarray:
    """``n`` distinct records whose (sk, ro, ao) ascend, as the indexer's
    and the query grid's do."""
    rng = np.random.default_rng(11)
    records = np.empty(n, dtype=RUN_RECORD)
    records["z"] = rng.integers(0, 30_000, n)
    records["sk"], records["ro"] = np.divmod(np.arange(n), 1_000)
    records["ao"] = 7
    return records


def _traced_sort(sort, records, tmp_path, budget=grid_module.DEFAULT_MEMORY_BUDGET):
    """The run info or grid of ``records`` streamed through ``sort`` in
    writer-sized blocks, and the sort's traced peak memory."""
    step = grid_module._WRITE_BLOCK_RECORDS
    blocks = (records[i:i + step].copy() for i in range(0, len(records), step))
    tracemalloc.start()
    try:
        if sort == "sort_run":
            info = grid_module.sort_run(blocks, tmp_path / "run.bin", budget, tmp_path)
        else:
            info = sort_grid(blocks, P1, tmp_path / "gq", budget, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return info, peak


def test_build_sorted_run_collapses_duplicates(tmp_path):
    items = [(CellIndex(0, 0, 0), entry(1, 2, 3))] * 5
    info = make_run(tmp_path, "dup.bin", items)
    assert (info.n_cells, info.n_entries) == (1, 1)


def test_build_sorted_run_budget_validation(tmp_path):
    with pytest.raises(ValueError):
        build_sorted_run(iter([]), tmp_path / "x.bin", memory_budget_entries=1)


def test_run_file_golden_bytes(tmp_path):
    h = P1.half_extent_cells
    items = [
        (CellIndex(-h, -h, -h), entry(1, 2, 3)),        # z = 0
        (CellIndex(-h + 1, -h, -h), entry(0, 0, 0)),    # z = 1
        (CellIndex(-h + 1, -h, -h), entry(4, 5, 6)),
    ]
    make_run(tmp_path, "golden.bin", items)
    expected = (
        struct.pack("<QI", 0, 1) + struct.pack("<III", 1, 2, 3)
        + struct.pack("<QI", 1, 2) + struct.pack("<III", 0, 0, 0) + struct.pack("<III", 4, 5, 6)
    )
    blob = (tmp_path / "golden.bin").read_bytes()
    assert blob == expected
    assert hashlib.sha256(blob).hexdigest() == (
        "6cf5b271f410bdaf31fa0e26d82706014c6d9debc0d69ca3c724113685300d17"
    )


# ---------------------------------------------------------------------------
# scan and merge


def union_oracle(grids):
    """Nested-loop union of the logical cells of several grids."""
    merged: dict[int, set] = {}
    for grid in grids:
        for cell in read_cells(grid):
            merged.setdefault(cell.z, set()).update(entry_tuples(cell))
    return {z: sorted(entries) for z, entries in merged.items()}


def test_scan_empty_grid(tmp_path):
    info = make_run(tmp_path, "empty.bin", [])
    grid = DiskGrid(P1, tmp_path, [info])
    with GridCursor(grid) as cursor:
        assert list(cursor) == []
        assert cursor.physical_cells_read == 0


def test_scan_counts_physical_reads(tmp_path):
    items = [(CellIndex(i, 0, 0), entry(0, 0, i)) for i in range(5)]
    grid = DiskGrid(P1, tmp_path, [make_run(tmp_path, "five.bin", items)])
    with GridCursor(grid) as cursor:
        cells = list(cursor)
        assert len(cells) == 5
        assert cursor.physical_cells_read == 5
    zs = [c.z for c in cells]
    assert zs == sorted(zs) and len(set(zs)) == 5


def test_scan_merges_shared_z_across_runs(tmp_path):
    a = make_run(tmp_path, "a.bin", [
        (CellIndex(0, 0, 0), entry(0, 0, 0)),
        (CellIndex(1, 0, 0), entry(0, 0, 1)),
    ])
    b = make_run(tmp_path, "b.bin", [
        (CellIndex(1, 0, 0), entry(1, 0, 0)),
        (CellIndex(2, 0, 0), entry(1, 0, 1)),
    ])
    grid = DiskGrid(P1, tmp_path, [a, b])
    with GridCursor(grid) as cursor:
        cells = list(cursor)
        assert cursor.physical_cells_read == 4
    assert len(cells) == 3
    shared = [c for c in cells if len(c.entries) == 2]
    assert len(shared) == 1
    assert entry_tuples(shared[0]) == sorted(
        [(0, 0, 1), (1, 0, 0)]
    )
    assert union_oracle([DiskGrid(P1, tmp_path, [a]), DiskGrid(P1, tmp_path, [b])]) == {
        c.z: sorted(entry_tuples(c)) for c in cells
    }
    # A third run repeats entries of both and ties them on z, on (z, sk)
    # and on (z, sk, ro); scanning and compacting give the same cells.
    c = make_run(tmp_path, "c.bin", [
        (CellIndex(1, 0, 0), entry(0, 0, 1)),
        (CellIndex(1, 0, 0), entry(1, 0, 0)),
        (CellIndex(1, 0, 0), entry(0, 5, 0)),
        (CellIndex(1, 0, 0), entry(1, 0, 7)),
        (CellIndex(2, 0, 0), entry(0, 0, 0)),
    ])
    grid = DiskGrid(P1, tmp_path, [a, b, c])
    with GridCursor(grid) as cursor:
        cells = [(cell.z, entry_tuples(cell)) for cell in cursor]
        assert cursor.physical_cells_read == grid.total_cells == 6
    assert cells == sorted(union_oracle([DiskGrid(P1, tmp_path, [r]) for r in (a, b, c)]).items())
    assert cells[1][1] == [(0, 0, 1), (0, 5, 0), (1, 0, 0), (1, 0, 7)]
    merged = merge_runs(grid)
    assert [(cell.z, entry_tuples(cell)) for cell in read_cells(merged)] == cells
    assert (merged.total_cells, merged.total_entries) == (3, 7)


def test_merge_runs_single_run_unchanged(tmp_path):
    info = make_run(tmp_path, "one.bin", [(CellIndex(0, 0, 0), entry(0, 0, 0))])
    grid = DiskGrid(P1, tmp_path, [info])
    assert merge_runs(grid) is grid


def test_merge_runs_disjoint_and_shared(tmp_path):
    rng = random.Random(12)

    def items(seed, n):
        r = random.Random(seed)
        return [
            (CellIndex(r.randint(-2, 2), r.randint(-2, 2), r.randint(-2, 2)),
             entry(r.randint(0, 3), r.randint(0, 3), r.randint(0, 9)))
            for _ in range(n)
        ]

    a = make_run(tmp_path, "a.bin", items(1, 40))
    b = make_run(tmp_path, "b.bin", items(2, 40))
    oracle = union_oracle([DiskGrid(P1, tmp_path, [a]), DiskGrid(P1, tmp_path, [b])])
    grid = DiskGrid(P1, tmp_path, [a, b])
    merged = merge_runs(grid)
    assert len(merged.runs) == 1
    cells = read_cells(merged)
    assert {c.z: sorted(entry_tuples(c)) for c in cells} == oracle
    assert merged.total_entries == sum(len(v) for v in oracle.values())
    # the old runs stay until the caller has committed the merged grid
    assert (tmp_path / "a.bin").exists() and (tmp_path / "b.bin").exists()
    # disjoint-z case: cell count adds up
    c_ = make_run(tmp_path, "c.bin", [(CellIndex(5, 5, 5), entry(9, 9, 9))])
    grid2 = DiskGrid(P1, tmp_path, [merged.runs[0], c_])
    merged2 = merge_runs(grid2)
    assert merged2.total_cells == len(cells) + 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
                          st.integers(0, 3), st.integers(0, 3), st.integers(0, 9)),
                max_size=60))
def test_property_run_is_sorted_dedup(tmp_path_factory, raw):
    tmp_path = tmp_path_factory.mktemp("prop")
    items = [(CellIndex(a, b, c), entry(d, e, f)) for a, b, c, d, e, f in raw]
    info = make_run(tmp_path, "p.bin", items)
    grid = DiskGrid(P1, tmp_path, [info])
    cells = read_cells(grid)
    zs = [c.z for c in cells]
    assert zs == sorted(zs) and len(set(zs)) == len(zs)
    seen = set()
    for cell in cells:
        entries = entry_tuples(cell)
        assert entries == sorted(entries)
        assert len(set(entries)) == len(entries)
        seen.update((cell.z, e) for e in entries)
    expected = {(reference_morton(ci, P1), e) for ci, e in items}
    assert seen == expected


def test_scan_union_equals_set_union_oracle_on_wide_keys(tmp_path, monkeypatch):
    # keys above 2**16 up to 2**32 - 1, the same entries repeated across runs
    rng = random.Random(21)
    wide = [0, 1, 2**16, 2**16 + 1, 2**31, 2**32 - 2, 2**32 - 1]
    pool = [entry(rng.choice(wide), rng.choice(wide), rng.choice(wide)) for _ in range(40)]
    cells = [CellIndex(x, 0, 0) for x in range(-2, 3)]
    runs = []
    for k in range(4):
        items = [(rng.choice(cells), rng.choice(pool)) for _ in range(60)]
        items += [(cells[0], pool[0]), (cells[1], pool[1])]  # in every run
        runs.append(make_run(tmp_path, f"w{k}.bin", items))
    per_run = [read_cells(DiskGrid(P1, tmp_path, [info])) for info in runs]
    by_z: dict[int, list] = {}
    for run_cells in per_run:
        for cell in run_cells:
            by_z.setdefault(cell.z, []).append(entry_tuples(cell))
    expected = [(z, sorted(set().union(*lists))) for z, lists in sorted(by_z.items())]
    assert any(len(lists) > 1 for lists in by_z.values())
    merge = grid_module._merge_blocks
    grid = DiskGrid(P1, tmp_path, runs)
    # two-record blocks make the merge take many more, shorter rounds
    for block_records in (2, 1 << 12):
        monkeypatch.setattr(grid_module, "_WRITE_BLOCK_RECORDS", block_records)
        rounds = []
        monkeypatch.setattr(grid_module, "_merge_blocks", lambda streams: (
            rounds.append(set(block["z"].tolist())) or block for block in merge(streams)))
        with GridCursor(grid) as cursor:
            got = [(cell.z, entry_tuples(cell)) for cell in cursor]
            assert cursor.physical_cells_read == grid.total_cells == sum(len(c) for c in per_run)
        assert got == expected
        assert any(a & b for a, b in zip(rounds, rounds[1:]))  # a cell straddles two rounds
        merged = merge_runs(grid)
        assert [(cell.z, entry_tuples(cell)) for cell in read_cells(merged)] == expected
        merged.run_path(merged.runs[0]).unlink()


RECORD_ROWS = st.lists(st.tuples(st.sampled_from([0, 1, 2**32, 2**63, 2**64 - 1]),
                                 st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), max_size=12)


INTERLEAVED_TIES = [([(1, 0, 0, 0), (2, 0, 0, 0), (5, 2, 0, 0), (6, 0, 0, 0)], 2),
                    ([(1, 1, 0, 0), (2, 1, 0, 0), (5, 1, 0, 0), (6, 1, 0, 0)], 2)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(RECORD_ROWS, st.integers(1, 5)), max_size=5), st.booleans())
@example(INTERLEAVED_TIES, False)
def test_property_merge_blocks_equals_one_lexsort(streams, ordered):
    # each stream is presorted and cut into 1-5 blocks, some of them empty;
    # ordered streams hold structure keys above the earlier streams', so
    # every round merges on z alone; INTERLEAVED_TIES falls back in its
    # third round only
    if ordered:
        streams = [([(z, sk + 3 * i, ro, ao) for z, sk, ro, ao in rows], n) for i, (rows, n) in enumerate(streams)]
    sorted_streams = [np.array(sorted(rows), dtype=grid_module.RUN_RECORD) for rows, _ in streams]
    lexsort, sort = four_key_sorts()
    with lexsort, sort as sorts:
        blocks = list(grid_module._merge_blocks(
            [iter(np.array_split(records, n)) for records, (_, n) in zip(sorted_streams, streams)]))
    if ordered:
        assert sorts.call_count == 0
    empty = np.empty(0, dtype=grid_module.RUN_RECORD)
    expected = lexsorted(np.concatenate([empty, *sorted_streams]))
    assert np.concatenate([empty, *blocks]).tobytes() == expected.tobytes()


def test_merge_blocks_falls_back_in_the_round_whose_ties_interleave():
    # Round 1 ties z 1 across the streams in key order and merges on z;
    # round 3 ties z 5 with the first stream's larger key first, so that
    # round alone takes the structured sort.
    first, second = (np.array(rows, dtype=grid_module.RUN_RECORD) for rows, _ in INTERLEAVED_TIES)
    lexsort, sort = four_key_sorts()
    with lexsort, sort as sorts:
        blocks = list(grid_module._merge_blocks([iter(np.split(first, 2)), iter(np.split(second, 2))]))
    assert [block["z"].tolist() for block in blocks] == [[1, 1, 2], [2], [5, 5, 6], [6]]
    assert sorts.call_count == 1
    assert np.concatenate(blocks).tobytes() == lexsorted(np.concatenate([first, second])).tobytes()


def _run_bytes(cells):
    return b"".join(
        struct.pack("<QI", z, len(entries)) + b"".join(struct.pack("<III", *e) for e in entries)
        for z, entries in cells
    )


def _scan_bytes(tmp_path, blob):
    (tmp_path / "damaged.bin").write_bytes(blob)
    grid = DiskGrid(P1, tmp_path, [RunInfo("damaged.bin", 1, 0)])
    with GridCursor(grid) as cursor:
        return [(cell.z, entry_tuples(cell)) for cell in cursor]


WIDE_CELLS = [(3, [(0, 1, 2), (2**32 - 1, 5, 6)]), (9, [(1, 1, 1)]), (2**62, [(7, 8, 9)])]


@pytest.mark.parametrize("block", [1, 5, 12, 13, 16, 1 << 20])
def test_run_reader_blocks_cut_anywhere(tmp_path, monkeypatch, block):
    # cell headers and bodies straddle the reader's block boundaries
    monkeypatch.setattr(grid_module, "_READ_BLOCK_BYTES", block)
    assert _scan_bytes(tmp_path, _run_bytes(WIDE_CELLS)) == WIDE_CELLS


@pytest.mark.parametrize("block", [16, 1 << 20])
@pytest.mark.parametrize("damage, message", [
    ("cut header", "cut cell header"),
    ("cut body", "cut body"),
    ("repeated z", "does not increase"),
    ("falling z", "does not increase"),
])
def test_damaged_run_raises_corrupt_database(tmp_path, monkeypatch, block, damage, message):
    monkeypatch.setattr(grid_module, "_READ_BLOCK_BYTES", block)
    blob = _run_bytes(WIDE_CELLS)
    if damage == "cut header":  # bytes 60-66 hold 7 of 12 header bytes; block 16 ends at 64
        blob = _run_bytes(WIDE_CELLS[:2]) + struct.pack("<QI", 10, 1)[:7]
    elif damage == "cut body":
        blob = blob[:-5]
    elif damage == "repeated z":
        blob = _run_bytes([WIDE_CELLS[0], WIDE_CELLS[0]])
    else:
        blob = _run_bytes([WIDE_CELLS[1], WIDE_CELLS[0]])
    with pytest.raises(CorruptDatabase, match=message):
        _scan_bytes(tmp_path, blob)


def test_entry_count_past_the_file_raises_before_reading(tmp_path, monkeypatch):
    # a 40-byte run whose second cell header claims 0xFFFFFFF0 entries, a
    # body of about 51 GB: the reader compares it with the 4 bytes left and
    # never asks the file for more bytes than remain
    blob = _run_bytes(WIDE_CELLS[1:2]) + struct.pack("<QI", 10, 0xFFFFFFF0) + bytes(4)
    assert len(blob) == 40
    asked = []

    class Spied(io.BufferedReader):
        def read(self, size=-1):
            asked.append((self.tell(), size))
            return super().read(size)

    monkeypatch.setattr(grid_module, "open", lambda path, mode: Spied(io.FileIO(path, "r")), raising=False)
    with pytest.raises(CorruptDatabase, match=r"damaged\.bin: cut body of the 4294967280-entry cell z 10 at byte 24: 4 bytes"):
        _scan_bytes(tmp_path, blob)
    assert asked and all(0 <= size <= len(blob) - at for at, size in asked)


def _read_all(reader) -> tuple[list, str | None]:
    """A reader's cells as (z, entry tuples, shape), then the message of the
    CorruptDatabase that ended it, or None."""
    cells = []
    try:
        for cell in reader:
            assert cell.entries.dtype == np.dtype("<u4") and not cell.entries.flags.writeable
            cells.append((cell.z, entry_tuples(cell), cell.entries.shape))
    except CorruptDatabase as error:
        return cells, str(error)
    return cells, None


DAMAGES = [None, "cut header", "cut body", "repeated z", "falling z", "count past the file"]


@st.composite
def runs(draw):
    """Cells of a run (z up to 2**62, keys up to 2**32 - 1, empty cells
    included), possibly damaged in one of the ways DAMAGES names."""
    key = st.integers(0, 2**32 - 1)
    zs = sorted(draw(st.sets(st.integers(0, 2**62), max_size=10)))
    cells = [(z, draw(st.lists(st.tuples(key, key, key), max_size=4))) for z in zs]
    damage = draw(st.sampled_from(DAMAGES))
    if damage in ("repeated z", "falling z") and cells:
        i = draw(st.integers(0, len(cells) - 1))
        if damage == "repeated z":
            cells.insert(i + 1, (cells[i][0], draw(st.lists(st.tuples(key, key, key), max_size=2))))
        elif i + 1 < len(cells):
            cells[i], cells[i + 1] = cells[i + 1], cells[i]
    blob = _run_bytes(cells)
    if damage == "cut header":
        blob += struct.pack("<QI", 2**62 + 1, 1)[:draw(st.integers(1, 11))]
    elif damage == "cut body" and cells and cells[-1][1]:
        blob = blob[:-draw(st.integers(1, 12 * len(cells[-1][1])))]
    elif damage == "count past the file":
        blob += struct.pack("<QI", 2**62 + 1, draw(st.sampled_from([2, 0xFFFFFFF0]))) + bytes(draw(st.integers(0, 20)))
    return blob


@settings(max_examples=300, deadline=None)
@given(blob=runs(), block=st.sampled_from([1, 5, 12, 13, 16, 1 << 20]),
       step=st.sampled_from([1, grid_module._HEADER_STEP]))
def test_run_reader_equals_per_cell_reference(blob, block, step):
    # The same cells as the reader that decodes one header per call, then
    # the same CorruptDatabase message, whatever the block and step sizes,
    # from the run's file and from its bytes in memory; the message of the
    # bytes in memory is led by their label in place of the path.
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "run.bin"
        path.write_bytes(blob)
        with closing(ReferenceRunReader(path)) as reference:
            cells, message = _read_all(reference)
        held = np.frombuffer(blob, dtype=np.uint8)
        for source, label in ((path, str(path)), (held, "in-memory run")):
            expected = (cells, message and label + message.removeprefix(str(path)))
            with mock.patch.object(grid_module, "_READ_BLOCK_BYTES", block), \
                    mock.patch.object(grid_module, "_HEADER_STEP", step), \
                    closing(grid_module._RunReader(source)) as reader:
                assert reader.label == label
                assert _read_all(reader) == expected
                assert reader.cells_read == len(cells)
                # an ended reader keeps ending the same way
                if message is None:
                    assert next(reader, None) is None
                else:
                    with pytest.raises(CorruptDatabase, match="^" + re.escape(expected[1]) + "$"):
                        next(reader)


@st.composite
def query_blocks(draw):
    """Query-like record blocks: structure key 0, small and wide z, exact
    duplicates included, and (residue, atom) ordinals that either ascend
    along the stream, as a query grid's do, or come in any order."""
    small = st.integers(0, 2**32 - 1) if draw(st.booleans()) else st.integers(0, 5)
    z = st.one_of(st.integers(0, 40), st.integers(0, 2**64 - 1))
    blocks = draw(st.lists(st.lists(st.tuples(z, st.just(0), small, small), max_size=20), max_size=6))
    if draw(st.booleans()):
        flat = iter(sorted((r for block in blocks for r in block), key=lambda r: r[1:]))
        blocks = [[next(flat) for _ in block] for block in blocks]
    return blocks


@settings(max_examples=200, deadline=None)
@given(blocks=query_blocks(), budget=st.sampled_from([2, 25, DEFAULT_MEMORY_BUDGET]))
def test_grid_in_memory_holds_the_run_file_bytes(blocks, budget):
    # Within the budget the grid's run is held in memory, byte for byte the
    # run file of the same records, and nothing is made on disk; past it the
    # run is that file, and the spilled chunks are gone.
    records = [record for block in blocks for record in block]
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        spill = work / "spill"
        spill.mkdir()
        info = build_sorted_run(records, work / "expected.bin")
        expected = (work / "expected.bin").read_bytes()
        assert expected == reference_run_bytes(records)
        with pytest.raises(ValueError, match="memory budget"):
            sort_grid([], P1, work / "rejected", 1)
        made = []
        grid = sort_grid(
            (np.array(block, dtype=RUN_RECORD) for block in blocks), P1,
            lambda: made.append(work / "gq") or made[-1], budget, spill,
        )
        assert isinstance(grid, MemoryGrid) == (len(records) <= budget)
        assert made == ([] if len(records) <= budget else [work / "gq"])
        if isinstance(grid, MemoryGrid):
            assert bytes(grid.run) == expected and not grid.run.flags.writeable
        else:
            assert grid.run_path(grid.runs[0]).read_bytes() == expected
        assert (grid.total_cells, grid.total_entries) == (info.n_cells, info.n_entries)
        with closing(ReferenceRunReader(work / "expected.bin")) as reference, GridCursor(grid) as cursor:
            assert _read_all(cursor) == _read_all(reference)
        assert list(spill.iterdir()) == []
        assert sorted(p.name for p in work.iterdir()) == sorted(["expected.bin", "spill", *(p.name for p in made)])


@pytest.mark.parametrize("held", [1, 2, 3, 1 << 16])
def test_run_writer_blocks_match_one_block(tmp_path, monkeypatch, held):
    # cells and duplicates that cross the writer's block and hold boundaries
    monkeypatch.setattr(grid_module, "_WRITE_BLOCK_RECORDS", held)
    rng = random.Random(held)
    rows = sorted((rng.randint(0, 6), 2**32 - 1 - rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3))
                  for _ in range(80))
    records = np.array(rows, dtype=grid_module.RUN_RECORD)
    one = grid_module._RunWriter(tmp_path / "one.bin")
    one.add(records)
    expected = one.close()
    writer = grid_module._RunWriter(tmp_path / "many.bin")
    at = 0
    while at < len(records):
        step = rng.randint(0, 5)
        writer.add(records[at:at + step])
        at += step
    assert writer.close() == type(expected)("many.bin", expected.n_cells, expected.n_entries)
    assert (tmp_path / "many.bin").read_bytes() == (tmp_path / "one.bin").read_bytes()
    assert expected.n_entries == len(set(rows))
    backwards = grid_module._RunWriter(tmp_path / "bad.bin")
    backwards.add(np.array([(5, 0, 0, 1)], dtype=grid_module.RUN_RECORD))
    with pytest.raises(ValueError, match="out-of-order"):
        backwards.add(np.array([(5, 0, 0, 0)], dtype=grid_module.RUN_RECORD))
    backwards.abort()


def test_exhausted_reader_and_cursors_keep_stopping(tmp_path):
    a = make_run(tmp_path, "a.bin", [(CellIndex(0, 0, 0), entry(0, 0, 0)), (CellIndex(1, 0, 0), entry(0, 1, 0))])
    b = make_run(tmp_path, "b.bin", [(CellIndex(0, 0, 0), entry(1, 0, 0))])
    reader = grid_module._RunReader(tmp_path / "a.bin")
    with GridCursor(DiskGrid(P1, tmp_path, [a])) as single, GridCursor(DiskGrid(P1, tmp_path, [a, b])) as multi:
        for cells in (reader, single, multi):
            assert len(list(cells)) == 2
            assert next(cells, None) is None
            assert next(cells, None) is None


@pytest.mark.parametrize("op", ["cursor", "merge_runs"])
def test_missing_run_closes_the_runs_opened_before_it(tmp_path, monkeypatch, op):
    runs = [make_run(tmp_path, f"r{i}.bin", [(CellIndex(i, 0, 0), entry(0, i, 0))]) for i in range(3)]
    (tmp_path / "r2.bin").unlink()
    grid = DiskGrid(P1, tmp_path, runs)
    opened = opened_readers(monkeypatch)
    with pytest.raises(FileNotFoundError, match="r2.bin"):
        GridCursor(grid) if op == "cursor" else merge_runs(grid)
    assert len(opened) == 2 and all(reader._fh.closed for reader in opened)


@pytest.mark.parametrize("op", ["sort_run", "merge_runs"])
def test_failed_final_flush_leaves_no_temp_file(tmp_path, monkeypatch, op):
    items = [(CellIndex(i, 0, 0), entry(0, i, 0)) for i in range(5)]
    grid = DiskGrid(P1, tmp_path, [make_run(tmp_path, "a.bin", items[:3]), make_run(tmp_path, "b.bin", items[2:])])
    spill = tmp_path / "spill"
    spill.mkdir()
    flushes = []

    def full_disk(writer, records):
        flushes.append(len(records))
        raise OSError("no space left on device")

    # Small runs hold every record until close(), so its flush is the only write.
    monkeypatch.setattr(grid_module._RunWriter, "_write_cells", full_disk)
    with pytest.raises(OSError, match="no space"):
        if op == "sort_run":
            build_sorted_run(z_records(items, P1), tmp_path / "c.bin", memory_budget_entries=2, tmp_dir=spill)
        else:
            merge_runs(grid)
    assert flushes == [5]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.bin", "spill"]
    assert list(spill.iterdir()) == []
