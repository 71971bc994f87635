import hashlib
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchgrid.errors import OutOfExtent
from patchgrid.grid import (
    BOUNDARY_SNAP,
    Cell,
    CellEntry,
    CellIndex,
    DiskGrid,
    GridParams,
    RefId,
    build_sorted_run,
    cell_of,
    cells_of_points,
    deinterleave_bits,
    interleave_bits,
    merge_runs,
    morton_decode,
    morton_encode,
    scan,
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
    return CellEntry(RefId(sk, ro), ao)


def make_run(tmp_path, name, items, params=P1, budget=10**6):
    return build_sorted_run(iter(items), params, tmp_path / name, memory_budget_entries=budget)


def read_cells(grid):
    with scan(grid) as cursor:
        return list(cursor)


# ---------------------------------------------------------------------------
# quantization


def test_cell_of_origin():
    assert cell_of((0.0, 0.0, 0.0), P1) == CellIndex(0, 0, 0)


def test_cell_of_floor_example():
    # floor arithmetic checked against the scalar oracle below
    assert cell_of((2.5, -1.2, 0.0), P1) == CellIndex(2, -2, 0)
    assert math.floor(2.5 / 1.0) == 2 and math.floor(-1.2 / 1.0) == -2


def test_cell_of_out_of_extent():
    with pytest.raises(OutOfExtent):
        cell_of((1e12, 0.0, 0.0), P1)


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
        assert cell_of(p, params) == CellIndex(*(math.floor(x / delta) for x in p))


def test_boundary_snap_is_stable():
    # values a hair below a boundary land in the boundary's upper cell
    assert cell_of((-1e-12, 1.0 - 1e-12, 2.0 + 1e-12), P1) == CellIndex(0, 1, 2)
    assert cell_of((0.0, 1.0, -3.0), P1) == CellIndex(0, 1, -3)


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
    for ox in range(8):
        for oy in range(8):
            for oz in range(8):
                c = CellIndex(ox - h, oy - h, oz - h)
                code = morton_encode(c, P1)
                assert code == interleave_oracle(ox, oy, oz)
                assert morton_decode(code, P1) == c


def test_morton_round_trip_random():
    rng = random.Random(8)
    h = P1.half_extent_cells
    for _ in range(5000):
        c = CellIndex(*(rng.randrange(-h, h) for _ in range(3)))
        assert morton_decode(morton_encode(c, P1), P1) == c


def test_morton_code_fits_bit_budget():
    params = GridParams(delta=1.0, bits_per_axis=5)
    h = params.half_extent_cells
    code = morton_encode(CellIndex(h - 1, h - 1, h - 1), params)
    assert code < (1 << (3 * params.bits_per_axis))


def test_z_equality_iff_same_cell():
    rng = random.Random(6)
    for _ in range(1000):
        p = [rng.uniform(-20, 20) for _ in range(3)]
        q = [rng.uniform(-20, 20) for _ in range(3)]
        cp, cq = cell_of(p, P1), cell_of(q, P1)
        same_code = morton_encode(cp, P1) == morton_encode(cq, P1)
        assert same_code == (cp == cq)


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
        (morton_decode(c.z, P1), e) for c in read_cells(grid1) for e in c.entries
    ]
    info2 = make_run(tmp_path, "b.bin", sorted_stream)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert info2 == type(info2)("b.bin", info1.n_cells, info1.n_entries)


@pytest.mark.parametrize("budget", [2, 17, 100])
def test_build_sorted_run_budget_matches_in_memory(tmp_path, budget):
    def stream(seed, n):
        rng = random.Random(seed)
        for _ in range(n):
            yield (
                CellIndex(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)),
                entry(rng.randint(0, 30), rng.randint(0, 10), rng.randint(0, 60)),
            )

    n = 2_000 if budget == 2 else 20_000
    small = build_sorted_run(stream(7, n), P1, tmp_path / "small.bin",
                             memory_budget_entries=budget, tmp_dir=tmp_path)
    big = build_sorted_run(stream(7, n), P1, tmp_path / "big.bin",
                           memory_budget_entries=10**7)
    assert (tmp_path / "small.bin").read_bytes() == (tmp_path / "big.bin").read_bytes()
    assert (small.n_cells, small.n_entries) == (big.n_cells, big.n_entries)


def test_build_sorted_run_collapses_duplicates(tmp_path):
    items = [(CellIndex(0, 0, 0), entry(1, 2, 3))] * 5
    info = make_run(tmp_path, "dup.bin", items)
    assert (info.n_cells, info.n_entries) == (1, 1)


def test_build_sorted_run_budget_validation(tmp_path):
    with pytest.raises(ValueError):
        build_sorted_run(iter([]), P1, tmp_path / "x.bin", memory_budget_entries=1)


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
            merged.setdefault(cell.z, set()).update(cell.entries)
    return {z: sorted(entries) for z, entries in merged.items()}


def test_scan_empty_grid(tmp_path):
    info = make_run(tmp_path, "empty.bin", [])
    grid = DiskGrid(P1, tmp_path, [info])
    with scan(grid) as cursor:
        assert list(cursor) == []
        assert cursor.physical_cells_read == 0


def test_scan_counts_physical_reads(tmp_path):
    items = [(CellIndex(i, 0, 0), entry(0, 0, i)) for i in range(5)]
    grid = DiskGrid(P1, tmp_path, [make_run(tmp_path, "five.bin", items)])
    with scan(grid) as cursor:
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
    with scan(grid) as cursor:
        cells = list(cursor)
        assert cursor.physical_cells_read == 4
    assert len(cells) == 3
    shared = [c for c in cells if len(c.entries) == 2]
    assert len(shared) == 1
    assert shared[0].entries == sorted(
        [entry(0, 0, 1), entry(1, 0, 0)]
    )
    assert union_oracle([DiskGrid(P1, tmp_path, [a]), DiskGrid(P1, tmp_path, [b])]) == {
        c.z: sorted(c.entries) for c in cells
    }


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
    grid.save_manifest()
    merged = merge_runs(grid)
    assert len(merged.runs) == 1
    cells = read_cells(merged)
    assert {c.z: sorted(c.entries) for c in cells} == oracle
    assert merged.total_entries == sum(len(v) for v in oracle.values())
    assert not (tmp_path / "a.bin").exists() and not (tmp_path / "b.bin").exists()
    # disjoint-z case: cell count adds up
    c_ = make_run(tmp_path, "c.bin", [(CellIndex(5, 5, 5), entry(9, 9, 9))])
    grid2 = DiskGrid(P1, tmp_path, [merged.runs[0], c_])
    merged2 = merge_runs(grid2)
    assert merged2.total_cells == len(cells) + 1


def test_manifest_round_trip(tmp_path):
    info = make_run(tmp_path, "m.bin", [(CellIndex(0, 0, 0), entry(0, 0, 0))])
    grid = DiskGrid(P1, tmp_path, [info])
    grid.save_manifest()
    loaded = DiskGrid.load(tmp_path, P1)
    assert loaded.runs == grid.runs
    assert loaded.total_cells == 1 and loaded.total_entries == 1


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
        assert cell.entries == sorted(cell.entries)
        assert len(set(cell.entries)) == len(cell.entries)
        seen.update((cell.z, e) for e in cell.entries)
    expected = {(morton_encode(ci, P1), e) for ci, e in items}
    assert seen == expected
