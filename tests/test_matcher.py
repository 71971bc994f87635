import random
import tempfile
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    CellIndex,
    add_cells,
    corpus,
    morton_decode,
    opened_readers,
    reference_morton,
    reference_norms,
    reference_run_bytes,
    score_items,
    sparse_cells,
    z_records,
)
from patchgrid import matcher
from patchgrid.baseline import FrameMode, naive_match
from patchgrid.errors import NoValidFrame, ParamsMismatch, UnknownRefId
from patchgrid import grid as grid_module
from patchgrid.geometry import transform_points
from patchgrid.grid import (
    DiskGrid,
    GridCursor,
    GridParams,
    MemoryGrid,
    RefId,
    build_sorted_run,
    cells_of_points,
)
from patchgrid.ingest import Protein
from patchgrid.matcher import (
    DEFAULT_SCORE_BUDGET,
    MatchResult,
    ScoreTable,
    build_query_grid,
    finalize_scores,
    match_query,
    merge_scan_match,
    structural_identity,
    threshold_filter,
)
from patchgrid.preprocess import PatchMeta, add_patches, build_patch_database, compact, residue_frames
from patchgrid.synthetic import (
    lattice_patch,
    move_atoms,
    move_protein,
    planted_instance,
    random_protein,
    rigid_motion,
)

P1 = GridParams(delta=1.0)


def run_from_z(tmp_path, name, z_to_entries, params=P1):
    """Build a single-run grid holding given entries at given z-values."""
    items = []
    for z, entries in z_to_entries.items():
        cell_index = morton_decode(z, params)
        for sk, ro, ao in entries:
            items.append((cell_index, (sk, ro, ao)))
    info = build_sorted_run(z_records(items, params), tmp_path / name)
    return DiskGrid(params, tmp_path, [info])


def join_oracle(gp, gq):
    """Nested-loop cell join over all (cell_p, cell_q) pairs with equal z."""
    with GridCursor(gp) as cp:
        p_cells = list(cp)
    with GridCursor(gq) as cq:
        q_cells = list(cq)
    table: dict[tuple, int] = {}
    for cell_p in p_cells:
        for cell_q in q_cells:
            if cell_p.z != cell_q.z:
                continue
            counts: dict[tuple, int] = {}
            for sk, ro, _ in cell_p.entries.tolist():
                counts[sk, ro] = counts.get((sk, ro), 0) + 1
            for q_ref in {(sk, ro) for sk, ro, _ in cell_q.entries.tolist()}:
                for db_ref, c in counts.items():
                    key = (*db_ref, *q_ref)
                    table[key] = table.get(key, 0) + c
    return table


def add_cell(target, db_refs, query_refs, counts):
    """Add one matched cell to a ScoreTable or its hot cells: counts[i] to the
    pair (db_refs[i], q) for every q in query_refs."""
    add_cells(target, [(db_refs, query_refs, counts)])


def joined(cells) -> dict:
    """The dict oracle of matched cells given as ``add_cells`` takes them."""
    expected: dict = {}
    for db_refs, query_refs, counts in cells:
        for query_ref in query_refs:
            for db_ref, count in zip(db_refs, counts):
                key = (*db_ref, *query_ref)
                expected[key] = expected.get(key, 0) + count
    return expected


# ---------------------------------------------------------------------------
# query grid


def test_query_grid_mps_zero_keeps_only_anchors(tmp_path):
    rng = random.Random(1)
    query = random_protein(rng, "Q", 4)
    grid = build_query_grid(query, P1, 0.0, tmp_path / "gq")
    assert grid.total_entries == 4  # one CA per frame, exactly at each origin
    with GridCursor(grid) as cursor:
        cells = list(cursor)
    assert len(cells) == 1
    assert cells[0].z == reference_morton(CellIndex(0, 0, 0), P1)


def test_query_grid_no_clip_counts_n_times_m(tmp_path):
    rng = random.Random(2)
    query = random_protein(rng, "Q", 3)
    grid = build_query_grid(query, P1, float("inf"), tmp_path / "gq")
    n = len(query.atoms)
    m = len(residue_frames(query.atoms))
    assert grid.total_entries == n * m


def test_query_grid_requires_frames(tmp_path):
    from patchgrid.geometry import AtomRecord, Point3
    from patchgrid.ingest import Protein

    atoms = (AtomRecord(0, "C", "CB", 0, "ALA", Point3(0, 0, 0), "A", 1),)
    with pytest.raises(NoValidFrame):
        build_query_grid(Protein("X", atoms), P1, 1.0, tmp_path / "gq")


def test_query_grid_matches_patch_grid_cells(tmp_path):
    # a patch used as its own query occupies exactly the db cells of that patch
    _, patches = corpus(seed=4, n_proteins=2)
    patch = patches[0]
    db = build_patch_database([patch], P1, tmp_path / "db")
    from patchgrid.ingest import Protein

    query = Protein(patch.source_protein_id, patch.atoms)
    gq = build_query_grid(query, P1, db.mps, tmp_path / "gq")
    with GridCursor(db.grid) as cursor:
        db_cells = {c.z for c in cursor}
    with GridCursor(gq) as cursor:
        q_cells = {c.z for c in cursor}
    assert db_cells == q_cells
    # independent recomputation, one frame at a time, with the reference Morton coder
    points = patch.atoms.positions
    expected = set()
    for _, frame in residue_frames(patch.atoms):
        cells, _ = cells_of_points(transform_points(frame, points), P1)
        expected.update(reference_morton(cell, P1) for cell in cells.tolist())
    assert db_cells == expected


def test_query_grid_drops_out_of_extent(tmp_path):
    params = GridParams(delta=1.0, bits_per_axis=4)
    rng = random.Random(3)
    query = random_protein(rng, "Q", 2, spacing=40.0)
    counters: dict[str, int] = {}
    grid = build_query_grid(query, params, float("inf"), tmp_path / "gq", counters=counters)
    n = len(query.atoms)
    m = len(residue_frames(query.atoms))
    assert counters.get("entries_out_of_extent", 0) > 0
    assert grid.total_entries + counters["entries_out_of_extent"] == n * m


@pytest.mark.parametrize("budget, rows", [
    pytest.param(budget, rows, id=f"{budget}" if rows == "file-order" else f"{budget}-{rows}")
    for rows in ("file-order", "shuffled-atoms", "residues-out-of-order")
    for budget in (None, 2, 37)
])
def test_query_grid_bytes_equal_build_sorted_run(tmp_path, monkeypatch, budget, rows):
    # the columnar query grid against the entry-at-a-time external sort; a
    # query whose atom or residue ordinals do not ascend in row order makes
    # its entries' (sk, ro, ao) descend, so the sort takes the lexsort
    rng = random.Random(6)
    query = random_protein(rng, "Q", 5)
    residues = query.atoms.residue_ordinals
    order = {
        "file-order": np.arange(len(residues)),
        "shuffled-atoms": np.random.default_rng(6).permutation(len(residues)),
        "residues-out-of-order": np.argsort(-residues, kind="stable"),
    }[rows]
    query = Protein("Q", query.atoms[order])
    mps = 5.0

    def entries():
        points = query.atoms.positions
        for residue_ordinal, frame in residue_frames(query.atoms):
            coords = transform_points(frame, points)
            cells, in_extent = cells_of_points(coords, P1)
            for i in np.flatnonzero((reference_norms(coords) <= mps) & in_extent):
                yield (CellIndex(*cells[i].tolist()), (0, residue_ordinal, query.atoms[i].atom_ordinal))

    expected = build_sorted_run(z_records(entries(), P1), tmp_path / "expected.bin")
    assert (tmp_path / "expected.bin").read_bytes() == reference_run_bytes(z_records(entries(), P1))
    chunks_read = []
    chunk_records = grid_module._chunk_records
    monkeypatch.setattr(grid_module, "_chunk_records",
                        lambda path: chunks_read.append(path) or chunk_records(path))
    spill = tmp_path / "spill"
    spill.mkdir()
    budget_option = {} if budget is None else {"memory_budget_entries": budget}
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsorts:
        gq = build_query_grid(query, P1, mps, tmp_path / "gq", tmp_dir=spill, **budget_option)
    if rows == "file-order" or budget is None:
        assert lexsorts.call_count == (rows != "file-order")
    # a query within the default budget is held in memory, past 2 or 37 entries it spills
    assert isinstance(gq, MemoryGrid) == (budget is None)
    if budget is None:
        assert bytes(gq.run) == (tmp_path / "expected.bin").read_bytes()
        assert (gq.total_cells, gq.total_entries) == (expected.n_cells, expected.n_entries)
        assert not (tmp_path / "gq").exists()
    else:
        assert gq.run_path(gq.runs[0]).read_bytes() == (tmp_path / "expected.bin").read_bytes()
        assert gq.runs == [type(expected)("run_000000.bin", expected.n_cells, expected.n_entries)]
    assert (len(chunks_read) > 0) == (budget is not None)
    assert list(spill.iterdir()) == []


# ---------------------------------------------------------------------------
# merge scan


def test_merge_scan_shared_cells_only(tmp_path):
    gp = run_from_z(tmp_path, "gp.bin", {1: [(0, 0, 0)], 4: [(0, 1, 0)], 9: [(0, 2, 0)]})
    gq = run_from_z(tmp_path, "gq.bin", {2: [(0, 0, 0)], 4: [(0, 5, 1)], 9: [(0, 6, 2)]})
    table = ScoreTable()
    merge_scan_match(gp, gq, table)
    assert dict(score_items(table)) == {
        (0, 1, 0, 5): 1,
        (0, 2, 0, 6): 1,
    }
    assert dict(score_items(table)) == join_oracle(gp, gq)


def test_merge_scan_disjoint_is_empty(tmp_path):
    gp = run_from_z(tmp_path, "gp.bin", {1: [(0, 0, 0)]})
    gq = run_from_z(tmp_path, "gq.bin", {2: [(0, 0, 0)]})
    table = merge_scan_match(gp, gq, ScoreTable())
    assert dict(score_items(table)) == {}


def test_merge_scan_increment_rule(tmp_path):
    # one shared cell: 3 db entries of one ref, 2 query refs -> both pairs get 3
    gp = run_from_z(tmp_path, "gp.bin", {5: [(7, 1, 0), (7, 1, 1), (7, 1, 2)]})
    gq = run_from_z(tmp_path, "gq.bin", {5: [(0, 10, 0), (0, 11, 4)]})
    table = merge_scan_match(gp, gq, ScoreTable())
    assert dict(score_items(table)) == {
        (7, 1, 0, 10): 3,
        (7, 1, 0, 11): 3,
    }


def test_merge_scan_counts_every_stored_cell(tmp_path):
    gp = run_from_z(tmp_path, "gp.bin", {z: [(0, 0, z)] for z in (1, 3, 5, 7, 11)})
    gq = run_from_z(tmp_path, "gq.bin", {z: [(0, 0, z)] for z in (2, 3)})
    stats: dict = {}
    merge_scan_match(gp, gq, ScoreTable(), stats=stats)
    assert stats["gp_cells_read"] == stats["gp_cells_stored"] == 5
    assert stats["gq_cells_read"] == stats["gq_cells_stored"] == 2


@pytest.mark.parametrize("missing", ["database run", "query run"])
def test_missing_run_file_leaves_no_run_open(tmp_path, monkeypatch, missing):
    # a run file deleted after the database was loaded: the scan fails
    # without leaving the runs it had opened open
    instance = planted_instance(seed=81, n_patches=6)
    db = build_patch_database(instance.patches[:3], instance.params, tmp_path / "db")
    db = add_patches(db, instance.patches[3:])
    # a budget of 10 entries spills the query grid to a run file
    gq = build_query_grid(instance.query, instance.params, db.mps, tmp_path / "gq", memory_budget_entries=10)
    gone = db.grid.run_path(db.grid.runs[1]) if missing == "database run" else gq.run_path(gq.runs[0])
    gone.unlink()
    opened = opened_readers(monkeypatch)
    with pytest.raises(FileNotFoundError, match=gone.name):
        if missing == "database run":
            match_query(instance.query, db, 0.5, tmp_dir=tmp_path)
        else:
            merge_scan_match(db.grid, gq, ScoreTable())
    assert len(opened) == (1 if missing == "database run" else 2)
    assert all(reader._fh.closed for reader in opened)


def test_merge_scan_equals_join_oracle_random(tmp_path):
    rng = random.Random(15)
    for trial in range(60):
        z_pool = [rng.randrange(0, 40) for _ in range(rng.randint(1, 12))]
        gp = run_from_z(
            tmp_path, f"gp{trial}.bin",
            {z: [(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 5))
                 for _ in range(rng.randint(1, 4))] for z in z_pool},
        )
        z_pool_q = [rng.randrange(0, 40) for _ in range(rng.randint(1, 12))]
        gq = run_from_z(
            tmp_path, f"gq{trial}.bin",
            {z: [(0, rng.randint(0, 6), rng.randint(0, 5))
                 for _ in range(rng.randint(1, 4))] for z in z_pool_q},
        )
        assert dict(score_items(merge_scan_match(gp, gq, ScoreTable()))) == join_oracle(gp, gq)


@pytest.mark.parametrize("scan_batch", [1, 3, 1024])
@pytest.mark.parametrize("budget", [1, 7, 50, 10**6])
def test_merge_scan_closes_batches_where_the_budget_is_reached(tmp_path, monkeypatch, scan_batch, budget):
    # Matched in batches of cells, the scan still scores the matched cells
    # in the batches a walk over them one by one makes: each batch ends
    # with the cell that brings its entries to the budget.
    instance = planted_instance(seed=86, n_patches=6)
    db = build_patch_database(instance.patches, instance.params, tmp_path / "db")
    gq = build_query_grid(instance.query, db.params, db.mps, tmp_path / "gq")
    with GridCursor(db.grid) as cursor:
        p_sizes = {cell.z: len(cell.entries) for cell in cursor}
    with GridCursor(gq) as cursor:
        q_sizes = {cell.z: len(cell.entries) for cell in cursor}
    expected, held, cells = [], 0, 0
    for z in sorted(p_sizes.keys() & q_sizes.keys()):
        cells += 1
        held += p_sizes[z] + q_sizes[z]
        if held >= budget:
            expected.append(cells)
            held = cells = 0
    expected += [cells] if cells else []
    batches = []
    join = matcher._join_cells
    monkeypatch.setattr(matcher, "_join_cells", lambda p, q, table: batches.append(len(p)) or join(p, q, table))
    monkeypatch.setattr(matcher, "_SCAN_BATCH", scan_batch)
    table = merge_scan_match(db.grid, gq, ScoreTable(budget=budget))
    assert batches == expected and len(expected) > (budget < 10**6)
    assert dict(score_items(table)) == join_oracle(db.grid, gq)


def test_merge_scan_params_mismatch(tmp_path):
    gp = run_from_z(tmp_path, "gp.bin", {1: [(0, 0, 0)]})
    gq = run_from_z(tmp_path, "gq.bin", {1: [(0, 0, 0)]}, params=GridParams(delta=2.0))
    with pytest.raises(ParamsMismatch):
        merge_scan_match(gp, gq, ScoreTable())


# ---------------------------------------------------------------------------
# scoring


def _db_with_patch(tmp_path):
    _, patches = corpus(seed=30, n_proteins=1, patches_per_protein=1)
    return build_patch_database(patches[:1], P1, tmp_path / "db"), patches[0]


def _lattice_db(tmp_path, n_atoms):
    """A database of one single-residue patch with exactly ``n_atoms`` atoms."""
    patch = lattice_patch("T_0", "T", 1.0, random.Random(n_atoms), n_extra_atoms=n_atoms - 3)
    db = build_patch_database([patch], P1, tmp_path / f"db{n_atoms}")
    assert db.patch_meta[0].n_atoms == n_atoms
    return db, patch


def _scored(db, counts):
    """Scored pairs where database frame i matched ``counts[i]`` atoms of query frame 0."""
    table = ScoreTable()
    add_cell(table, [RefId(0, i) for i in range(len(counts))], [RefId(0, 0)], counts)
    return finalize_scores(table, db)


def test_finalize_scores_division(tmp_path):
    db, patch = _db_with_patch(tmp_path)
    n = db.patch_meta[0].n_atoms
    scored = _scored(db, [n, 1])  # a full match and a single atom
    assert len(scored) == 2
    results = threshold_filter(scored, 0.0)
    assert results[0].score == 1.0
    assert results[1].score == 1 / n
    assert type(results[1].score) is float
    assert results[0].patch_id == patch.patch_id


def test_finalize_scores_seven_tenths():
    # matched_count 7 over a 10-atom patch scores exactly 0.7
    assert 7 / 10 == 0.7


def test_finalize_unknown_ref(tmp_path):
    db, _ = _db_with_patch(tmp_path)
    table = ScoreTable()
    add_cell(table, [RefId(99, 0)], [RefId(0, 0)], [1])
    with pytest.raises(UnknownRefId):
        finalize_scores(table, db)


def test_score_table_spilled_items_sorted_and_summed():
    # sparse batches: each spreads 8 rows over 64 pair keys, so the rows are
    # buffered and reduced in budget-sized spills
    rng = random.Random(41)
    for budget in (1, 2, 3):
        table = ScoreTable(budget=budget)
        cells = []
        for _ in range(40):
            batch = sparse_cells(rng)
            add_cells(table, batch)
            cells += batch
        assert list(score_items(table)) == sorted(joined(cells).items())
        assert table.spills > 0


def test_score_table_dense_batch_holds_its_pairs_once():
    # 2,500 cells crossing 20 of 200 database frames with 10 of 100 query
    # frames: 500,000 increment rows over 20,000 pair keys. Row blocks would
    # retain a pair key and a count, 16 bytes, per row; the dense sum holds
    # one count per pair key instead. Narrow columns hold each kept pair in
    # an int32 key and a uint16 count (no frame totals more than 65,535), and
    # the join's per-row columns in 4 bytes or less: 6 bytes per kept pair
    # and a peak near 8.3 bytes per row, where int64 keys and row columns
    # with uint32 counts hold 12 and peak near 10.5.
    rng = np.random.default_rng(7)
    n_cells, db_per_cell, q_per_cell = 2500, 20, 10
    db = np.sort(rng.random((n_cells, 200)).argsort(axis=1)[:, :db_per_cell], axis=1).ravel()
    q = np.sort(rng.random((n_cells, 100)).argsort(axis=1)[:, :q_per_cell], axis=1).ravel()
    counts = rng.integers(1, 4, n_cells * db_per_cell).astype(np.uint64)
    rows = n_cells * db_per_cell * q_per_cell
    args = (db.astype(np.uint64), counts, np.repeat(np.arange(n_cells), db_per_cell),
            (q.astype(np.uint64) | 1 << 32), np.repeat(np.arange(n_cells), q_per_cell))
    table = ScoreTable()
    tracemalloc.start()
    try:
        table.add(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.rows == rows == 500_000
    assert peak < 16 * rows
    n_pairs = len(table.reduced().pair)
    assert held < 8 * n_pairs and peak < 9 * rows
    expected = np.zeros((200, 100), dtype=np.uint64)
    np.add.at(expected, (np.repeat(db, q_per_cell).reshape(n_cells, -1),
                         np.tile(q.reshape(n_cells, q_per_cell), db_per_cell)),
              np.repeat(counts, q_per_cell).reshape(n_cells, -1))
    db_keys, q_keys, sums = matcher._decode(table.reduced())
    assert np.array_equal(sums, expected[db_keys.astype(np.int64), (q_keys & 0xFFFFFFFF).astype(np.int64)])
    assert len(sums) == np.count_nonzero(expected) and table.spills == 0


def _meta_db(n_atoms):
    """A stand-in database whose structure key 0 is a patch of ``n_atoms`` atoms."""
    return SimpleNamespace(patch_meta={0: PatchMeta(0, "T_0", "T", n_atoms, 1)})


# Per-frame totals on both sides of the uint8, uint16 and uint32 limits.
_TOTALS = [255, 256, 65_535, 65_536, 2**32 - 1, 2**32]
_U32 = 2**32 - 1


@st.composite
def _width_batch(draw):
    """One batch of matched cells in which database frame (0, 0) meets query
    frame (1, 0) with entry counts totalling one of ``_TOTALS``, split over
    cells, each count at most a cell's u32 entry count. A dense batch gives
    every cell the same query frames; a sparse one pads with cells that
    cross distinct frames once."""
    total = draw(st.sampled_from(_TOTALS), label="total")
    n_cells = draw(st.integers(1 if total <= _U32 else 2, 4))
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), min_size=n_cells - 1, max_size=n_cells - 1)))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    count = st.integers(1, _U32)
    if draw(st.booleans(), label="dense"):
        query_refs = [RefId(1, 0), RefId(1, 1)]
        return [([RefId(0, 0), RefId(0, 1)], query_refs, [part, draw(count)]) for part in parts]
    pad = [([RefId(0, 2 + k)], [RefId(1, 2 + k)], [draw(count)]) for k in range(8)]
    return [([RefId(0, 0)], [RefId(1, 0)], [part]) for part in parts] + pad


@settings(max_examples=120, deadline=None)
@given(batches=st.lists(st.tuples(_width_batch(), st.booleans()), min_size=1, max_size=4),
       budget=st.sampled_from([1, 3, DEFAULT_SCORE_BUDGET]),
       n_atoms=st.sampled_from([2 * t + d for t in _TOTALS for d in (-1, 0, 1)]))
def test_score_table_counts_never_wrap(batches, budget, n_atoms):
    # numpy integer columns wrap silently: every count type is chosen from a
    # bound, so the table and the hot-cell recount must equal Python ints
    table = ScoreTable(budget=budget)
    cold, hot = [], []
    for cells, is_hot in batches:
        add_cells(table.hot if is_hot else table, cells)
        (hot if is_hot else cold).extend(cells)
    assert list(score_items(table)) == sorted(joined(cold).items())
    if not hot:
        return
    full = joined(cold + hot)
    for tau in (0.0, 0.5):
        block = matcher._hot_candidates(table.reduced(), table.hot, _meta_db(n_atoms), tau, 7)
        found = {(d >> 32, d & 0xFFFFFFFF, q >> 32, q & 0xFFFFFFFF): c
                 for d, q, c in zip(*(column.tolist() for column in matcher._decode(block)))}
        assert all(full[key] == c for key, c in found.items())
        passing = {key: c for key, c in full.items() if c / n_atoms >= tau}
        assert passing.items() <= found.items()
        if tau == 0.0:
            assert found == full


def test_join_cells_takes_cells_without_database_entries():
    # a damaged run can hold a cell of 0 entries; matched, it scores nothing
    q = np.array([[0, 5, 1]], dtype=np.uint32)
    empty = np.empty((0, 3), dtype=np.uint32)
    table = ScoreTable()
    matcher._join_cells([np.array([[0, 1, 0]], dtype=np.uint32), empty], [q, q], table)
    assert dict(score_items(table)) == {(0, 1, 0, 5): 1}
    table = ScoreTable()
    matcher._join_cells([empty], [q], table)
    assert dict(score_items(table)) == {} and table.rows == 0


_FIELD = st.one_of(st.integers(0, 3), st.just(2**32 - 1))
_REF = st.builds(RefId, _FIELD, _FIELD)
_CELL = st.tuples(
    st.dictionaries(_REF, st.integers(1, 5), min_size=1, max_size=4),
    st.lists(_REF, min_size=1, max_size=3, unique=True),
).map(lambda cell: (list(cell[0]), cell[1], list(cell[0].values())))
# Eight cells crossing eight distinct database frames with eight distinct
# query frames: 8 rows over 64 pair keys, a sparse batch.
_SPARSE = [([RefId(k // 4, k)], [RefId(1, 2**32 - 1 - k)], [k + 1]) for k in range(8)]
# Three cells crossing the same two database frames with the same three
# query frames: 18 rows over 6 pair keys, a dense batch.
_DENSE = [([RefId(0, 1), RefId(3, 2)], [RefId(0, 0), RefId(2, 1), RefId(2**32 - 1, 0)], [k + 1, 2]) for k in range(3)]


@settings(max_examples=150, deadline=None)
@given(batches=st.lists(st.lists(_CELL, min_size=1, max_size=6), max_size=6),
       budget=st.sampled_from([1, 2, 3, 4, 5, DEFAULT_SCORE_BUDGET]))
@example(batches=[_SPARSE, _DENSE], budget=3)
@example(batches=[_DENSE, _SPARSE, _DENSE], budget=8)
@example(batches=[_DENSE, _DENSE], budget=1)
def test_score_table_equals_dict_oracle(batches, budget):
    # batches of matched cells, as merge_scan_match adds them, against a
    # plain dict; a batch over at most 4 pair keys per row is summed densely
    # and never spills, the rows of a sparser one spill past the budget
    table = ScoreTable(budget=budget)
    sparse_rows = 0
    for cells in batches:
        add_cells(table, cells)
        rows = sum(len(db_refs) * len(query_refs) for db_refs, query_refs, _ in cells)
        keys = len({r for c in cells for r in c[0]}) * len({r for c in cells for r in c[1]})
        if keys > 4 * rows:
            sparse_rows += rows
    expected = joined([cell for cells in batches for cell in cells])
    first = list(score_items(table))
    assert first == sorted(expected.items())
    assert list(score_items(table)) == first  # reading the pairs does not consume the table
    assert len(table.reduced().pair) == len(expected)
    assert (table.spills > 0) == (sparse_rows > budget)


def test_threshold_filter_bounds(tmp_path):
    db, _ = _lattice_db(tmp_path, 20)
    scored = _scored(db, [19, 17, 16, 15])
    assert [r.score for r in threshold_filter(scored, 0.0)] == [0.95, 0.85, 0.8, 0.75]
    assert threshold_filter(scored, 1.0) == []
    assert len(threshold_filter(_scored(db, [19, 17, 15]), 0.8)) == 2
    assert len(threshold_filter(scored, 0.8)) == 3  # boundary inclusive
    with pytest.raises(ValueError):
        threshold_filter(scored, 1.5)


def test_threshold_monotonicity(tmp_path):
    rng = random.Random(40)
    db, _ = _lattice_db(tmp_path, 20)
    scored = _scored(db, [rng.randint(1, 20) for _ in range(50)])
    taus = sorted([rng.random() for _ in range(5)] + [0.5, 0.7])
    kept = [set((r.db_ref_id, r.score) for r in threshold_filter(scored, t)) for t in taus]
    for lower, higher in zip(kept, kept[1:]):
        assert higher <= lower


def match_reference(query, db, tau_pp, tmp_path):
    """The pipeline before threshold pushdown, over the nested-loop join oracle:
    a MatchResult for every scored pair, all sorted, then filtered."""
    gq = build_query_grid(query, db.params, db.mps, tmp_path / "gq_reference")
    results = []
    for (db_key, db_residue, q_key, q_residue), count in join_oracle(db.grid, gq).items():
        meta = db.patch_meta[db_key]
        results.append(
            MatchResult(RefId(db_key, db_residue), RefId(q_key, q_residue),
                        count / meta.n_atoms, meta.patch_id, meta.source_protein_id)
        )
    results.sort(
        key=lambda r: (-r.score, r.patch_id, r.query_ref_id, r.db_ref_id.residue_ordinal)
    )
    return [r for r in results if r.score >= tau_pp]


@pytest.mark.parametrize("seed", [78, 79])
def test_threshold_pushdown_equals_reference(tmp_path, seed):
    instance = planted_instance(seed=seed, n_patches=6)
    db = build_patch_database(instance.patches, instance.params, tmp_path / "db")
    everything = match_reference(instance.query, db, 0.0, tmp_path)
    scores = sorted({r.score for r in everything})
    assert len(scores) > 2
    for tau in (0.0, 0.5, 1.0, scores[len(scores) // 2]):  # the last one is an exact score
        expected = match_reference(instance.query, db, tau, tmp_path)
        for budget in (3, DEFAULT_SCORE_BUDGET):
            with mock.patch.object(matcher, "DEFAULT_SCORE_BUDGET", budget):
                results = match_query(instance.query, db, tau, tmp_dir=tmp_path)
            assert results == expected
            assert all(type(r.score) is float for r in results)


def test_threshold_pushdown_exact_boundary(tmp_path):
    # 7 of a 10-atom patch's atoms score exactly 7/10, kept at tau 0.7 only
    rng = random.Random(8)
    db, patch = _lattice_db(tmp_path, 10)
    query = Protein("A", move_atoms(patch.atoms[:7], *rigid_motion(rng)))  # anchors + 4
    expected = match_reference(query, db, 0.7, tmp_path)
    results = match_query(query, db, 0.7, tmp_dir=tmp_path)
    assert results == expected
    assert [r.score for r in results] == [0.7]
    assert type(results[0].score) is float
    assert match_query(query, db, 0.7000000000000001, tmp_dir=tmp_path) == []


# ---------------------------------------------------------------------------
# hot-cell pruning: every cutoff must give the unpruned results

# Every matched cell hot, some hot, the default cutoff, no cell hot.
CUTOFFS = [0, 4, None, 2**62]


def hot_fanin(cutoff):
    """Set the hot-cell cutoff match_query reads; None keeps the default."""
    return nullcontext() if cutoff is None else mock.patch.object(matcher, "_HOT_FANIN", cutoff)


def _oracle(instance, tau):
    return naive_match(instance.query, instance.patches, instance.params, FrameMode.PerResidue, tau)


def test_merge_scan_hot_cells_partition_the_join(tmp_path):
    instance = planted_instance(seed=84, n_patches=6)
    db = build_patch_database(instance.patches, instance.params, tmp_path / "db")
    gq = build_query_grid(instance.query, db.params, db.mps, tmp_path / "gq")
    expected = join_oracle(db.grid, gq)
    for cutoff in (0, 2, 4, 2**62):
        table = merge_scan_match(db.grid, gq, ScoreTable(fanin=cutoff))
        hot = table.hot
        joined = dict(score_items(table))
        cells = []
        if hot.n_cells:
            db_keys, counts, db_cells, q_keys, q_cells = hot.columns()
            cells = [(db_keys[db_cells == i], counts[db_cells == i], q_keys[q_cells == i])
                     for i in range(hot.n_cells)]
        for db_keys, counts, query_keys in cells:
            for d, c in zip(db_keys.tolist(), counts.tolist()):
                for q in query_keys.tolist():
                    key = (d >> 32, d & 0xFFFFFFFF, q >> 32, q & 0xFFFFFFFF)
                    joined[key] = joined.get(key, 0) + c
        assert joined == expected
        assert (len(cells) > 0) == (cutoff < 2**62)
        assert all(len(db_keys) * len(q_keys) > cutoff for db_keys, _, q_keys in cells)


def test_hot_cells_per_run_equal_the_compacted_database(tmp_path, monkeypatch):
    # Each run of a database is scanned with its own cursor, so fan-in is
    # per run cell: with the cutoff between two runs' fan-ins in one matched
    # cell, that cell is hot in one run and cold in the other.
    instance = planted_instance(seed=87, n_patches=6)
    db = build_patch_database(instance.patches[:2], instance.params, tmp_path / "db")
    db = add_patches(add_patches(db, instance.patches[2:4]), instance.patches[4:])
    assert len(db.grid.runs) == 3
    gq = build_query_grid(instance.query, db.params, db.mps, tmp_path / "gq")

    def frames(cell):
        return len({tuple(row) for row in cell.entries[:, :2].tolist()})

    with GridCursor(gq) as cursor:
        q_frames = {cell.z: frames(cell) for cell in cursor}
    fanins: dict[int, list] = {}
    for run in db.grid.runs:
        with GridCursor(DiskGrid(db.params, db.grid.directory, [run])) as cursor:
            for cell in cursor:
                if cell.z in q_frames:
                    fanins.setdefault(cell.z, []).append(frames(cell) * q_frames[cell.z])
    cutoff = max(min(f) for f in fanins.values() if min(f) < max(f))
    monkeypatch.setattr(matcher, "_HOT_FANIN", cutoff)
    expected = {}
    for tau in (0.0, 0.5):
        stats: dict = {}
        expected[tau] = match_query(instance.query, db, tau, tmp_dir=tmp_path, stats=stats)
        assert stats["hot_cells"] > 0
        assert expected[tau] == _oracle(instance, tau)
    compacted = compact(db)
    assert len(compacted.grid.runs) == 1
    for tau in (0.0, 0.5):
        assert match_query(instance.query, compacted, tau, tmp_dir=tmp_path) == expected[tau]


def _pair_rows(scored):
    """The scored pairs as (packed db ref, packed query ref, count) tuples, in key order."""
    return list(zip(*(column.tolist() for column in matcher._decode(scored.pairs))))


def test_finalize_hot_candidates_exact_and_nonzero(tmp_path):
    db, _ = _lattice_db(tmp_path, 10)
    table = ScoreTable(fanin=0)
    hot = table.hot
    add_cell(table, [RefId(0, 1)], [RefId(0, 8)], [1])
    add_cell(hot, [RefId(0, 1)], [RefId(0, 7)], [3])  # hot cell A: db frame 1, query frame 7
    add_cell(hot, [RefId(0, 2)], [RefId(0, 8)], [2])  # hot cell B: db frame 2, query frame 8
    # tau 0: every pair that met, none of the crossed pairs that did not, e.g. (2, 7)
    assert _pair_rows(finalize_scores(table, db, 0.0)) == [(1, 7, 3), (1, 8, 1), (2, 8, 2)]
    # tau 0.3: frame 1's bound 3/10 passes exactly, frame 2's 2/10 does not
    assert _pair_rows(finalize_scores(table, db, 0.3)) == [(1, 7, 3), (1, 8, 1)]


def test_hot_candidates_equal_for_any_recount_chunk(tmp_path):
    # every matched cell hot: the recount sums each chunk into the
    # candidates' counts, so the chunk size changes nothing, and at tau 0
    # the candidates are the full join, many of them met in several cells
    instance = planted_instance(seed=85, n_patches=6)
    db = build_patch_database(instance.patches, instance.params, tmp_path / "db")
    gq = build_query_grid(instance.query, db.params, db.mps, tmp_path / "gq")
    table = merge_scan_match(db.grid, gq, ScoreTable(fanin=0))
    assert table.hot.n_cells > 1 and not len(table.reduced().pair)
    for tau in (0.0, 0.3):
        blocks = [matcher._hot_candidates(table.reduced(), table.hot, db, tau, chunk)
                  for chunk in (1, 7, 10**6)]
        assert len(blocks[0].pair) > 0
        if tau == 0.0:
            joined = {(d >> 32, d & 0xFFFFFFFF, q >> 32, q & 0xFFFFFFFF): c
                      for d, q, c in zip(*(column.tolist() for column in matcher._decode(blocks[0])))}
            assert joined == join_oracle(db.grid, gq) and max(joined.values()) > 2
        for block in blocks[1:]:
            for column, expected in zip(block, blocks[0]):
                assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes()


def test_hot_bound_does_not_wrap_in_a_narrow_count_type():
    # a 520-atom patch needs 260 matched atoms at tau 0.5, more than a uint8
    # count can hold: no pair of a uint8 block is a candidate, just as none
    # of the same pairs held as uint64 is
    db = _meta_db(520)
    hot = ScoreTable(fanin=0).hot
    add_cell(hot, [RefId(0, 5)], [RefId(0, 9)], [1])
    packed = np.array([1, 2], dtype=np.uint64)
    scored = []
    for count_type in (np.uint8, np.uint64):
        cold = matcher._Block(packed, packed + 10, np.arange(4, dtype=np.int32),
                              np.array([100, 200, 4, 255], dtype=count_type))
        scored.append(len(matcher._hot_candidates(cold, hot, db, 0.5, 7).pair))
    assert scored == [0, 0]


def test_all_hot_finalize_holds_narrow_candidates():
    # every matched cell hot at tau 0: all 168,480 joined pairs are hot-cell
    # candidates. Each candidate's key, count, run bounds and atom count are
    # held narrow, so the finalize peak stays under 64 bytes per candidate;
    # int64 keys and bounds and uint64 counts reach about 90
    instance = planted_instance(seed=86, n_patches=120, patch_residues=(3, 6), query_noise_residues=100)
    with tempfile.TemporaryDirectory() as tmp:
        db = build_patch_database(instance.patches, instance.params, Path(tmp) / "db")
        gq = build_query_grid(instance.query, db.params, db.mps, Path(tmp) / "gq")
        table = merge_scan_match(db.grid, gq, ScoreTable(fanin=0))
        tracemalloc.start()
        try:
            scored = finalize_scores(table, db, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert table.rows == 0 and len(scored) == 168_480
    assert peak < 64 * len(scored)


def test_passing_count_is_the_smallest_count_the_threshold_keeps():
    # the threshold's own float64 test, count by count, against the one-step fix
    rng = random.Random(9)
    taus = [0.0, 0.1, 0.3, 1 / 3, 0.5, 0.7, 0.7000000000000001, 2 / 3, 0.9, 1.0]
    taus += [rng.random() for _ in range(40)]
    n_atoms = np.arange(1, 400, dtype=np.uint64)
    for tau in taus:
        expected = [next(c for c in range(n + 1) if c / n >= tau) for n in n_atoms.tolist()]
        assert matcher._passing_count(n_atoms, tau).tolist() == expected


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_pruned_match_equals_oracle(tmp_path, cutoff):
    for seed in (80, 81, 82):
        instance = planted_instance(seed=seed, n_patches=6)
        db = build_patch_database(instance.patches, instance.params, tmp_path / f"db{seed}")
        for tau in (0.0, 0.5, 0.9, 1.0):
            stats: dict = {}
            with hot_fanin(cutoff):
                results = match_query(instance.query, db, tau, tmp_dir=tmp_path, stats=stats)
            assert results == _oracle(instance, tau)
            if cutoff == 0:
                assert stats["hot_cells"] > 0 and stats["score_rows"] == 0
            elif cutoff == 4:
                assert stats["hot_cells"] > 0 and stats["score_rows"] > 0
            else:
                assert stats["hot_cells"] == 0 and stats["score_rows"] > 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cutoff=st.sampled_from([0, 2, 8, None]), data=st.data())
def test_pruned_match_equals_oracle_property(seed, cutoff, data):
    # planted_instance places each planted patch under a random rigid motion
    instance = planted_instance(seed=seed, n_patches=4)
    scores = sorted({r.score for r in _oracle(instance, 0.0)})
    exact = data.draw(st.sampled_from(scores), label="exact score") if scores else 0.5
    with tempfile.TemporaryDirectory() as tmp:
        db = build_patch_database(instance.patches, instance.params, Path(tmp) / "db")
        for tau in (0.0, 0.5, 1.0, exact):
            with hot_fanin(cutoff):
                results = match_query(instance.query, db, tau, tmp_dir=tmp)
            assert results == _oracle(instance, tau)


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_pruned_match_exact_boundary(tmp_path, cutoff):
    # the bound uses the threshold's own division: 7/10 passes tau 0.7 exactly
    rng = random.Random(8)
    db, patch = _lattice_db(tmp_path, 10)
    query = Protein("A", move_atoms(patch.atoms[:7], *rigid_motion(rng)))
    with hot_fanin(cutoff):
        results = match_query(query, db, 0.7, tmp_dir=tmp_path)
        assert [r.score for r in results] == [0.7]
        assert match_query(query, db, 0.7000000000000001, tmp_dir=tmp_path) == []


def test_all_hot_tau_zero_reports_no_zero_count_pair(tmp_path):
    instance = planted_instance(seed=83, n_patches=6)
    db = build_patch_database(instance.patches, instance.params, tmp_path / "db")
    stats: dict = {}
    with hot_fanin(0):
        results = match_query(instance.query, db, 0.0, tmp_dir=tmp_path, stats=stats)
    assert results == _oracle(instance, 0.0)
    assert all(r.score > 0.0 for r in results)
    assert stats["pairs_scored"] == len(results)


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_pairs_scored_is_length_of_finalized_pairs(tmp_path, monkeypatch, cutoff):
    lengths = []
    finalize = matcher.finalize_scores

    def recording(*args, **kwargs):
        scored = finalize(*args, **kwargs)
        lengths.append(len(scored))
        return scored

    monkeypatch.setattr(matcher, "finalize_scores", recording)
    instance = planted_instance(seed=85, n_patches=6)
    db = build_patch_database(instance.patches, instance.params, tmp_path / "db")
    stats: dict = {}
    with hot_fanin(cutoff):
        match_query(instance.query, db, 0.5, tmp_dir=tmp_path, stats=stats)
    assert lengths == [stats["pairs_scored"]]


def test_structural_identity_unchanged_by_pruning(tmp_path):
    rng = random.Random(12)
    b = random_protein(rng, "B", 4)
    pairs = [
        (random_protein(rng, "A", 3), b),
        (move_protein(b, *rigid_motion(rng), new_id="M"), b),
        (Protein("P", move_atoms(b.atoms[: len(b.atoms) // 2], *rigid_motion(rng))), b),
    ]
    with hot_fanin(2**62):
        unpruned = [structural_identity(a, {"B": b}, P1, tmp_dir=tmp_path)["B"] for a, b in pairs]
    assert 0.0 < min(unpruned) and max(unpruned) == 1.0
    for cutoff in (0, 4):
        with hot_fanin(cutoff):
            assert [structural_identity(a, {"B": b}, P1, tmp_dir=tmp_path)["B"] for a, b in pairs] == unpruned


# ---------------------------------------------------------------------------
# match_query end to end


def test_self_match_scores_one(tmp_path):
    proteins, patches = corpus(seed=50, n_proteins=3)
    db = build_patch_database(patches, P1, tmp_path / "db")
    by_source = {p.protein_id: p for p in proteins}
    patch = patches[0]
    results = match_query(by_source[patch.source_protein_id], db, 1.0, tmp_dir=tmp_path)
    assert any(r.patch_id == patch.patch_id and r.score == 1.0 for r in results)


def test_disjoint_query_empty(tmp_path):
    _, patches = corpus(seed=51, n_proteins=1, patches_per_protein=1)
    db = build_patch_database(patches[:1], P1, tmp_path / "db")
    rng = random.Random(0)
    far = random_protein(rng, "FAR", 2)
    far = move_protein(far, *rigid_motion(rng, max_translation=0.0))
    # a tiny mps-distant structure may or may not share cells; force disjoint
    # by shifting every atom far beyond mps in frame space is not possible
    # directly, so just assert scores stay within bounds and threshold works
    results = match_query(far, db, 0.0, tmp_dir=tmp_path)
    for r in results:
        assert 0.0 <= r.score <= 1.0


def test_match_query_single_access_counters(tmp_path):
    instance = planted_instance(seed=77, n_patches=5)
    db = build_patch_database(instance.patches, instance.params, tmp_path / "db")
    stats: dict = {}
    match_query(instance.query, db, 0.0, tmp_dir=tmp_path, stats=stats)
    assert stats["gp_cells_read"] == db.grid.total_cells
    assert stats["gq_cells_read"] == stats["gq_cells_stored"]


def test_match_query_spill_equals_in_memory(tmp_path):
    instance = planted_instance(seed=78, n_patches=6)
    db = build_patch_database(instance.patches, instance.params, tmp_path / "db")
    with mock.patch.object(matcher, "DEFAULT_SCORE_BUDGET", 3):
        spilled = match_query(instance.query, db, 0.0, tmp_dir=tmp_path)
    in_memory = match_query(instance.query, db, 0.0, tmp_dir=tmp_path)
    assert spilled == in_memory


def spy_mkdtemp(monkeypatch) -> list[Path]:
    """Every directory tempfile makes from now on, TemporaryDirectory's included."""
    made = []
    mkdtemp = tempfile.mkdtemp
    monkeypatch.setattr(tempfile, "mkdtemp", lambda *args, **kwargs: made.append(Path(mkdtemp(*args, **kwargs))) or str(made[-1]))
    return made


def test_fitting_query_makes_nothing_under_tmp_dir(tmp_path, monkeypatch):
    # a query grid within the budget is held in memory: no directory, no run file
    instance = planted_instance(seed=79, n_patches=5)
    db = build_patch_database(instance.patches, instance.params, tmp_path / "db")
    work = tmp_path / "work"
    work.mkdir()
    made = spy_mkdtemp(monkeypatch)
    writers = []

    class Recorded(grid_module._RunWriter):
        def __init__(self, path):
            writers.append(path)
            super().__init__(path)

    monkeypatch.setattr(grid_module, "_RunWriter", Recorded)
    stats: dict = {}
    results = match_query(instance.query, db, 0.0, tmp_dir=work, stats=stats)
    assert results and stats["gq_cells_read"] == stats["gq_cells_stored"] > 0
    assert made == [] and writers == [] and list(work.iterdir()) == []


@pytest.mark.parametrize("ending", ["returns", "scan raises"])
def test_spilled_query_leaves_tmp_dir_empty(tmp_path, monkeypatch, ending):
    # past a budget of 10 entries the query grid's sorted chunks and run are
    # written under tmp_dir, and removed however the query ends
    instance = planted_instance(seed=79, n_patches=5)
    db = build_patch_database(instance.patches, instance.params, tmp_path / "db")
    work = tmp_path / "work"
    work.mkdir()
    fitting = match_query(instance.query, db, 0.0, tmp_dir=work)
    made = spy_mkdtemp(monkeypatch)
    if ending == "returns":
        assert match_query(instance.query, db, 0.0, tmp_dir=work, memory_budget_entries=10) == fitting
    else:
        scanned = []

        def fail(*args):
            # the sort's rgsort- directory is made before the query- one
            query_dir = next(p for p in made if p.name.startswith("query-"))
            scanned.append(sorted(p.name for p in (query_dir / "gq").iterdir()))
            raise RuntimeError("scan failed")

        monkeypatch.setattr(matcher, "_join_cells", fail)
        with pytest.raises(RuntimeError, match="scan failed"):
            match_query(instance.query, db, 0.0, tmp_dir=work, memory_budget_entries=10)
        assert scanned == [["run_000000.bin"]]
    assert sorted(p.name.split("-")[0] for p in made) == ["query", "rgsort"]
    assert all(p.parent == work for p in made)
    assert list(work.iterdir()) == []


def test_structural_identity_self_is_one(tmp_path):
    rng = random.Random(7)
    protein = random_protein(rng, "SELF", 3)
    assert structural_identity(protein, {"SELF": protein}, P1, tmp_dir=tmp_path) == {"SELF": 1.0}


def test_structural_identity_partial_overlap_is_exact_ratio(tmp_path):
    # a query carrying k of b's n atoms (anchors included) scores exactly k/n;
    # no-shared-cells -> 0 is unreachable for per-residue frames because every
    # frame holds its own CA in the origin cell, so the zero path is covered
    # at the merge-scan level instead (disjoint grids -> empty table).
    rng = random.Random(8)
    from patchgrid.ingest import Protein

    patch = lattice_patch("B_0", "B", 1.0, rng, n_extra_atoms=7)  # n = 10 atoms
    b = Protein("B", patch.atoms)
    kept = patch.atoms[:7]  # anchors + 4 extras
    rotation, translation = rigid_motion(rng)
    from patchgrid.synthetic import move_atoms

    a = Protein("A", move_atoms(kept, rotation, translation))
    assert structural_identity(a, {"B": b}, P1, tmp_dir=tmp_path) == {"B": 0.7}


def test_structural_identity_moved_copy_is_one(tmp_path):
    rng = random.Random(9)
    from patchgrid.ingest import Protein

    patch = lattice_patch("L_0", "L", 1.0, rng, n_extra_atoms=4)
    base = Protein("L", patch.atoms)
    moved = move_protein(base, *rigid_motion(rng), new_id="M")
    assert structural_identity(moved, {"L": base}, P1, tmp_dir=tmp_path) == {"L": 1.0}


def test_structural_identity_of_many_sources_equals_one_source_each(tmp_path):
    # one pseudo-database of every source gives each source the identity it
    # gets alone, to the bit: the random sources, a moved copy of the query
    # (1.0) and a source holding half of the query's atoms
    rng = random.Random(13)
    query = random_protein(rng, "Q", 5)
    sources = {f"R{i}": random_protein(rng, f"R{i}", rng.randint(2, 6)) for i in range(4)}
    sources["M"] = move_protein(query, *rigid_motion(rng), new_id="M")
    sources["H"] = Protein("H", move_atoms(query.atoms[: len(query.atoms) // 2], *rigid_motion(rng)))
    work = tmp_path / "work"
    work.mkdir()
    alone = {sid: structural_identity(query, {sid: s}, P1, tmp_dir=work)[sid] for sid, s in sources.items()}
    for cutoff in (None, 0):
        with hot_fanin(cutoff):
            many = structural_identity(query, sources, P1, tmp_dir=work)
        assert many == alone
        assert list(many) == list(sources)
    assert many["M"] == 1.0 and 0.0 < min(many.values())
    assert list(work.iterdir()) == []


def test_structural_identity_requires_frames_of_every_source(tmp_path):
    from patchgrid.geometry import AtomRecord, Point3

    rng = random.Random(14)
    framed = random_protein(rng, "A", 3)
    unframed = Protein("X", (AtomRecord(0, "C", "CB", 0, "ALA", Point3(0, 0, 0), "A", 1),))
    with pytest.raises(NoValidFrame, match="source X"):
        structural_identity(framed, {"A": framed, "X": unframed}, P1, tmp_dir=tmp_path)
    with pytest.raises(NoValidFrame):
        structural_identity(unframed, {"A": framed}, P1, tmp_dir=tmp_path)


def test_scores_bounded_on_random_instances(tmp_path):
    for seed in (100, 101):
        instance = planted_instance(seed=seed, n_patches=4)
        db = build_patch_database(instance.patches, instance.params, tmp_path / f"db{seed}")
        for r in match_query(instance.query, db, 0.0, tmp_dir=tmp_path):
            assert 0.0 <= r.score <= 1.0


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
@pytest.mark.parametrize("ordered", [True, False])
@pytest.mark.parametrize("sizes", [(0, 0), (0, 5), (7, 0), (40, 25), (1, 1)])
def test_distinct_equals_numpy_union_and_unique(dtype, ordered, sizes):
    # the sort-based union keeps numpy's values and type, sorted or not, empty or not
    rng = np.random.default_rng(sum(sizes) + ordered)
    a, b = (rng.integers(0, 30, size=n).astype(dtype) for n in sizes)
    if ordered:
        a, b = np.sort(a), np.sort(b)
    union = matcher._distinct(a, b)
    assert union.dtype == np.union1d(a, b).dtype and np.array_equal(union, np.union1d(a, b))
    assert matcher._distinct(a).dtype == dtype and np.array_equal(matcher._distinct(a), np.unique(a))
