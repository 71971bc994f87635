import os
import random
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CellIndex, corpus, reference_morton, reference_norms, reference_run_bytes
from patchgrid import grid, preprocess
from patchgrid.cli import main
from patchgrid.errors import CorruptDatabase, DuplicatePatchId, NoValidFrame, PatchGridError
from patchgrid.geometry import (
    AtomRecord,
    Atoms,
    Point3,
    RigidFrame,
    frame_from_triple,
    transform_points,
)
from patchgrid.grid import GridCursor, GridParams
from patchgrid.ingest import OriginTag, Patch
from patchgrid.matcher import match_query
from patchgrid.preprocess import (
    PatchDatabase,
    add_patches,
    build_patch_database,
    compact,
    residue_frames,
)
from patchgrid.synthetic import lattice_patch, planted_instance, random_protein

P1 = GridParams(delta=1.0)


def residue(atom_defs, residue_ordinal=0, base=0):
    return [
        AtomRecord(base + i, name[:1], name, residue_ordinal, "ALA", Point3(*pos), "A", residue_ordinal + 1)
        for i, (name, pos) in enumerate(atom_defs)
    ]


COMPLETE = [("CA", (0, 0, 0)), ("N", (1.5, 0, 0)), ("C", (0, 1.5, 0)), ("CB", (1, 1, 1))]


def two_frame_patch() -> Patch:
    atoms = residue(COMPLETE, 0) + residue(
        [(n, (x + 5, y, z)) for n, (x, y, z) in COMPLETE], 1, base=4
    )
    # drop one CB so the patch has n=7 atoms, m=2 frames
    return Patch("PP_0", "PP", tuple(atoms[:-1]), OriginTag.SiteRecord)


def test_residue_frames_complete_residue():
    frames = residue_frames(Atoms.from_records(residue(COMPLETE)))
    assert len(frames) == 1
    assert frames[0][0] == 0


def test_residue_frames_missing_anchor_counted():
    counters: dict[str, int] = {}
    frames = residue_frames(Atoms.from_records(residue(COMPLETE[:1] + COMPLETE[2:])), counters=counters)
    assert len(frames) == 0
    assert counters["residues_missing_anchor"] == 1


def test_residue_frames_collinear_counted():
    counters: dict[str, int] = {}
    collinear = [("CA", (0, 0, 0)), ("N", (1, 0, 0)), ("C", (2, 0, 0))]
    assert len(residue_frames(Atoms.from_records(residue(collinear)), counters=counters)) == 0
    assert counters["residues_collinear"] == 1


def test_residue_frames_five_residues():
    rng = random.Random(1)
    protein = random_protein(rng, "FIVE", 5)
    assert len(residue_frames(protein.atoms)) == 5


def residue_frames_oracle(atoms, counters):
    """Per-residue dictionaries and one one-row frame_from_triple call per residue."""
    residues, order = {}, []
    for atom in atoms:
        slot = residues.get(atom.residue_ordinal)
        if slot is None:
            slot = residues[atom.residue_ordinal] = {}
            order.append(atom.residue_ordinal)
        if atom.atom_name in ("CA", "N", "C") and atom.atom_name not in slot:
            slot[atom.atom_name] = atom
    frames = []
    for residue_ordinal in order:
        slot = residues[residue_ordinal]
        if any(name not in slot for name in ("CA", "N", "C")):
            counters["residues_missing_anchor"] = counters.get("residues_missing_anchor", 0) + 1
            continue
        origins, bases, valid = frame_from_triple(slot["CA"].position, slot["N"].position, slot["C"].position)
        if not valid[0]:
            counters["residues_collinear"] = counters.get("residues_collinear", 0) + 1
            continue
        frames.append((residue_ordinal, RigidFrame(origins[0], bases[0])))
    return frames


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(["CA", "N", "C", "CB"]),
              st.tuples(*[st.integers(-2, 2) for _ in range(3)])),
    max_size=25,
))
def test_residue_frames_equal_per_residue_oracle(raw):
    # residues in any order, repeated anchor names, and small integer
    # coordinates that make many triples collinear or coincident
    atoms = [
        AtomRecord(i, name[:1], name, residue, "ALA", Point3(*map(float, xyz)), "A", residue + 1)
        for i, (residue, name, xyz) in enumerate(raw)
    ]
    counters, expected_counters = {}, {}
    frames = residue_frames(Atoms.from_records(atoms), counters=counters)
    expected = residue_frames_oracle(atoms, expected_counters)
    assert counters == expected_counters
    assert [ro for ro, _ in frames] == [ro for ro, _ in expected]
    for (_, frame), (_, oracle) in zip(frames, expected):
        assert np.array_equal(frame.origin, oracle.origin)
        assert np.array_equal(frame.basis, oracle.basis)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(["CA", "N", "C", "CB"]),
                  st.tuples(*[st.integers(-2, 2) for _ in range(3)])),
        max_size=12,
    ),
    min_size=1, max_size=5,
))
def test_residue_frames_of_several_structures_equal_one_call_each(structures):
    # equal residue ordinals in different structures are different residues
    parts = [
        Atoms.from_records(
            AtomRecord(i, name[:1], name, residue, "ALA", Point3(*map(float, xyz)), "A", residue + 1)
            for i, (residue, name, xyz) in enumerate(raw)
        )
        for raw in structures
    ]
    counters, expected_counters = {}, {}
    frames = residue_frames(parts, counters=counters)
    singles = [residue_frames(part, counters=expected_counters) for part in parts]
    assert counters == expected_counters
    assert frames.structures.tolist() == [k for k, single in enumerate(singles) for _ in range(len(single))]
    assert np.array_equal(frames.residue_ordinals, np.concatenate([f.residue_ordinals for f in singles]))
    assert np.array_equal(frames.origins, np.concatenate([f.origins for f in singles]).reshape(-1, 3))
    assert np.array_equal(frames.bases, np.concatenate([f.bases for f in singles]).reshape(-1, 3, 3))


def test_residue_frames_keep_order_of_first_appearance():
    atoms = residue(COMPLETE, residue_ordinal=7) + residue(COMPLETE, residue_ordinal=2, base=4)
    atoms += residue(COMPLETE[:1], residue_ordinal=7, base=8)
    assert [ro for ro, _ in residue_frames(Atoms.from_records(atoms))] == [7, 2]


def test_build_without_a_valid_frame_creates_no_directory(tmp_path):
    atoms = tuple(residue(COMPLETE[:2]))
    patch = Patch("BAD_0", "BAD", atoms, OriginTag.SiteRecord)
    with pytest.raises(NoValidFrame):
        build_patch_database([patch], P1, tmp_path / "db")
    assert not (tmp_path / "db").exists()


def test_built_patch_anchor_lands_in_origin_cell(tmp_path):
    # the second patch is indexed under structure key 1
    one = Patch("ONE_0", "ONE", tuple(residue(COMPLETE)), OriginTag.SiteRecord)
    db = build_patch_database([two_frame_patch(), one], P1, tmp_path / "db")
    with GridCursor(db.grid) as cursor:
        entries = [(cell.z, *row) for cell in cursor for row in cell.entries.tolist()]
    ca_cells = [z for z, sk, _, ao in entries if sk == 1 and ao == 0]
    assert ca_cells == [reference_morton(CellIndex(0, 0, 0), P1)]
    assert sum(sk == 1 for _, sk, _, _ in entries) == len(one.atoms)


def test_build_database_entry_exactness(tmp_path):
    patch = two_frame_patch()
    db = build_patch_database([patch], P1, tmp_path / "db")
    assert db.grid.total_entries == 14
    assert db.expected_entries == 14
    meta = db.patch_meta[0]
    assert (meta.n_atoms, meta.n_frames) == (7, 2)


def test_build_database_two_patches(tmp_path):
    a = two_frame_patch()
    b = Patch("Q_0", "Q", tuple(residue([(n, (x + 40, y, z)) for n, (x, y, z) in COMPLETE])),
              OriginTag.SiteRecord)
    db = build_patch_database([a, b], P1, tmp_path / "db")
    assert len(db.patch_meta) == 2
    assert db.grid.total_entries == 14 + 4


def test_build_database_excludes_frameless(tmp_path):
    good = two_frame_patch()
    bad = Patch("BAD_0", "BAD", tuple(residue(COMPLETE[:2])), OriginTag.SiteRecord)
    counters: dict[str, int] = {}
    db = build_patch_database([bad, good], P1, tmp_path / "db", counters=counters)
    assert counters["patches_excluded"] == 1
    assert list(db.patch_meta) == [0]
    assert db.patch_meta[0].patch_id == "PP_0"


def test_build_database_duplicate_id_rejected(tmp_path):
    patch = two_frame_patch()
    with pytest.raises(DuplicatePatchId):
        build_patch_database([patch, patch], P1, tmp_path / "db")


def test_ppd_scale_metadata(tmp_path):
    # 9206 site patches + 113 template survivors registered as metadata rows
    rng = random.Random(0)
    patches = []
    for i in range(9206):
        patches.append(
            Patch(f"S{i:05d}_0", f"S{i:05d}", tuple(residue(COMPLETE[:3])), OriginTag.SiteRecord)
        )
    for i in range(113):
        patches.append(
            Patch(f"T{i:04d}", f"T{i:04d}", tuple(residue(COMPLETE[:3])), OriginTag.Template)
        )
    db = build_patch_database(patches, P1, tmp_path / "db")
    assert len(db.patch_meta) == 9319
    assert db.grid.total_entries == 9319 * 3


def test_database_load_round_trip(tmp_path):
    db = build_patch_database([two_frame_patch()], P1, tmp_path / "db")
    loaded = PatchDatabase.load(tmp_path / "db")
    assert loaded.params == db.params
    assert loaded.mps == db.mps
    assert loaded.patch_meta == db.patch_meta
    assert loaded.grid.runs == db.grid.runs


def test_mps_is_max_frame_radius(tmp_path):
    _, patches = corpus(seed=21, n_proteins=3)
    db = build_patch_database(patches, P1, tmp_path / "db")
    expected = 0.0
    for patch in patches:
        points = patch.atoms.positions
        for _, frame in residue_frames(patch.atoms):
            expected = max(expected, float(reference_norms(transform_points(frame, points)).max()))
    assert db.mps == expected
    # dominance: every patch/frame/atom radius is within mps
    for patch in patches:
        points = patch.atoms.positions
        for _, frame in residue_frames(patch.atoms):
            assert float(reference_norms(transform_points(frame, points)).max()) <= db.mps + 1e-9


def test_build_is_deterministic(tmp_path):
    _, patches = corpus(seed=5, n_proteins=4)
    db1 = build_patch_database(patches, P1, tmp_path / "db1")
    db2 = build_patch_database(patches, P1, tmp_path / "db2")
    blob1 = (db1.grid.directory / db1.grid.runs[0].file_name).read_bytes()
    blob2 = (db2.grid.directory / db2.grid.runs[0].file_name).read_bytes()
    assert blob1 == blob2
    assert (tmp_path / "db1" / "manifest.tsv").read_text() == (
        tmp_path / "db2" / "manifest.tsv"
    ).read_text()


def test_manifest_golden_bytes(tmp_path):
    # settings, runs in grid order, then patches by structure key
    db = PatchDatabase(
        grid=grid.DiskGrid(
            params=GridParams(delta=0.7, bits_per_axis=10),
            directory=tmp_path / "grid",
            runs=[grid.RunInfo("run_000000.bin", 3, 7), grid.RunInfo("run_000001.bin", 1, 3)],
        ),
        patch_meta={
            1: preprocess.PatchMeta(1, "1ABC_1", "1ABC", 2, 1),
            0: preprocess.PatchMeta(0, "1ABC_0", "1ABC", 4, 2),
        },
        mps=1 / 3,
        directory=tmp_path,
    )
    db.save()
    assert (tmp_path / "manifest.tsv").read_bytes() == (
        b"delta\t0.7\nbits_per_axis\t10\nmps\t0.3333333333333333\n"
        b"run\trun_000000.bin\t3\t7\nrun\trun_000001.bin\t1\t3\n"
        b"patch\t0\t1ABC_0\t1ABC\t4\t2\npatch\t1\t1ABC_1\t1ABC\t2\t1\n"
    )


def test_add_patches_empty_is_noop(tmp_path):
    db = build_patch_database([two_frame_patch()], P1, tmp_path / "db")
    assert add_patches(db, []) is db


def test_add_patches_duplicate_id_rejected(tmp_path):
    patch = two_frame_patch()
    db = build_patch_database([patch], P1, tmp_path / "db")
    with pytest.raises(DuplicatePatchId):
        add_patches(db, [patch])


def test_add_patches_equals_full_rebuild(tmp_path):
    proteins, patches = corpus(seed=8, n_proteins=6)
    group_a, group_b = patches[:7], patches[7:]
    db_full = build_patch_database(group_a + group_b, P1, tmp_path / "full")
    db_incr = add_patches(
        build_patch_database(group_a, P1, tmp_path / "incr"), group_b
    )
    assert len(db_incr.grid.runs) == 2
    assert db_incr.mps == db_full.mps
    assert db_incr.patch_meta == db_full.patch_meta
    for protein in proteins[:3]:
        full = match_query(protein, db_full, 0.0, tmp_dir=tmp_path)
        incr = match_query(protein, db_incr, 0.0, tmp_dir=tmp_path)
        assert full == incr


def test_add_patches_mps_grows(tmp_path):
    rng = random.Random(2)
    small = lattice_patch("SMALL_0", "SMALL", 1.0, rng, n_extra_atoms=2)
    big = lattice_patch("BIG_0", "BIG", 1.0, rng, n_extra_atoms=2, radius_bump=10.0)
    db = build_patch_database([small], P1, tmp_path / "db")
    grown = add_patches(db, [big])
    assert grown.mps > db.mps


def test_out_of_extent_patch_rejected(tmp_path):
    params = GridParams(delta=1.0, bits_per_axis=4)
    spread = [("CA", (0, 0, 0)), ("N", (1.5, 0, 0)), ("C", (0, 1.5, 0)), ("FAR", (100, 0, 0))]
    patch = Patch("FAR_0", "FAR", tuple(residue(spread)), OriginTag.SiteRecord)
    from patchgrid.errors import OutOfExtent

    with pytest.raises(OutOfExtent):
        build_patch_database([patch], params, tmp_path / "db")


# ---------------------------------------------------------------------------
# grouped indexing: groups of patches give what one patch at a time gave


def reference_index(patches, params, counters):
    """Reference: index one patch at a time, with one one-row
    frame_from_triple and one transform_points call per residue, and give
    the run bytes of the entries."""
    records = []
    key = 0
    for patch in patches:
        frames = residue_frames_oracle(list(patch.atoms), counters)
        if not frames:
            counters["patches_excluded"] = counters.get("patches_excluded", 0) + 1
            continue
        for residue_ordinal, frame in frames:
            cells, in_extent = grid.cells_of_points(transform_points(frame, patch.atoms.positions), params)
            assert in_extent.all()
            for cell, atom_ordinal in zip(cells.tolist(), patch.atoms.atom_ordinals.tolist()):
                records.append((reference_morton(cell, params), key, residue_ordinal, atom_ordinal))
        key += 1
    return reference_run_bytes(records)


def mixed_patches():
    """Corpus patches, plus patches with a frameless, a collinear and an
    anchorless residue, and one with no frame at all."""
    _, patches = corpus(seed=13, n_proteins=6)
    collinear = [("CA", (0, 0, 0)), ("N", (1, 0, 0)), ("C", (2, 0, 0)), ("CB", (0, 1, 0))]
    patches.insert(3, Patch("COL_0", "COL", tuple(residue(collinear) + residue(COMPLETE, 1, base=4)),
                            OriginTag.SiteRecord))
    patches.insert(5, Patch("NONE_0", "NONE", tuple(residue(COMPLETE[:2])), OriginTag.SiteRecord))
    patches.append(Patch("HALF_0", "HALF", tuple(residue(COMPLETE[1:], 0) + residue(COMPLETE, 1, base=3)),
                         OriginTag.Template))
    return patches


def shuffled_atoms_patch():
    """Two residues whose atoms are listed in shuffled order, so the atom
    ordinals of a frame's entries do not ascend."""
    atoms = residue(COMPLETE, 0) + residue([(n, (x + 5, y, z)) for n, (x, y, z) in COMPLETE], 1, base=4)
    random.Random(8).shuffle(atoms)
    return Patch("SHUF_0", "SHUF", tuple(atoms), OriginTag.SiteRecord)


def residues_out_of_order_patch():
    """Residue 1's atoms listed before residue 0's, so the frames' residue
    ordinals do not follow first appearance."""
    atoms = residue([(n, (x + 5, y, z)) for n, (x, y, z) in COMPLETE], 1, base=4) + residue(COMPLETE, 0)
    return Patch("BACK_0", "BACK", tuple(atoms), OriginTag.SiteRecord)


@pytest.mark.parametrize("budget, extra", [
    pytest.param(budget, extra, id=f"{budget}{name}")
    for name, extra in (("", None), ("-shuffled-atoms", shuffled_atoms_patch),
                        ("-residues-out-of-order", residues_out_of_order_patch))
    for budget in (2, 60, 1000, grid.DEFAULT_MEMORY_BUDGET)
])
def test_grouped_indexing_writes_the_reference_run(tmp_path, monkeypatch, budget, extra):
    # The indexer's entries ascend in (sk, ro, ao), so they are sorted on z
    # alone; an extra patch whose atoms or residues come out of order makes
    # the single sort at the default budget take the four-key lexsort. Each
    # group's tuples are built 7 entries at a time.
    monkeypatch.setattr(preprocess, "_TUPLE_SLICE", 7)
    patches = mixed_patches()
    if extra is not None:
        patches.insert(4, extra())
    expected_counters: dict[str, int] = {}
    expected = reference_index(patches, P1, expected_counters)
    counters: dict[str, int] = {}
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsorts:
        db = build_patch_database(patches, P1, tmp_path / "db", memory_budget_entries=budget, counters=counters)
    if extra is None:
        assert lexsorts.call_count == 0
    elif budget == grid.DEFAULT_MEMORY_BUDGET:
        assert lexsorts.call_count == 1
    (run,) = db.grid.runs
    assert db.grid.run_path(run).read_bytes() == expected
    for key in ("residues_missing_anchor", "residues_collinear", "patches_excluded"):
        assert counters[key] == expected_counters[key] > 0


def far_patch(patch_id):
    """Two residues with identity frames at x = 0 and x = 6; CG (atom 4) is
    out of a 4-bit extent only in the second frame, CD (atom 9) only in the
    first, so the first bad atom depends on the frame order."""
    first = residue(COMPLETE, 0) + residue([("CG", (-3, 0, 0))], 0, base=4)
    second = residue([(n, (x + 6, y, z)) for n, (x, y, z) in COMPLETE], 1, base=5)
    return Patch(patch_id, patch_id[:-2], tuple(first + second + residue([("CD", (10, 0, 0))], 1, base=9)),
                 OriginTag.SiteRecord)


@pytest.mark.parametrize("budget", [2, 60, 1000, grid.DEFAULT_MEMORY_BUDGET])
def test_out_of_extent_names_the_first_bad_patch_and_atom(tmp_path, budget):
    from patchgrid.errors import OutOfExtent

    params = GridParams(delta=1.0, bits_per_axis=4)
    good = Patch("GOOD_0", "GOOD", tuple(residue(COMPLETE)), OriginTag.SiteRecord)
    patches = [good, far_patch("FAR1_0"), Patch("GOOD_1", "GOOD", good.atoms, good.origin_tag), far_patch("FAR2_0")]
    with pytest.raises(OutOfExtent, match=r"^patch FAR1_0: atom 9 quantizes outside the grid extent$"):
        build_patch_database(patches, params, tmp_path / "db", memory_budget_entries=budget)


# ---------------------------------------------------------------------------
# crash safety: the manifest is the single commit point


class Crash(Exception):
    """Stands in for the process dying at an injected write step."""


WRITE_STEPS = ("run write", "run rename", "manifest replace")


def hook_write_steps(monkeypatch, log, crash=None):
    """Append each write step reached to ``log``; the first time step
    ``crash`` is reached, raise Crash. The clean-up of a half-written run
    file, which a killed process never runs, is off."""
    real_replace, real_flush, real_unlink = os.replace, grid._RunWriter._write_cells, Path.unlink

    def reach(step):
        log.append(step)
        if step == crash:
            raise Crash(step)

    def replace(src, dst):
        name = Path(dst).name
        if name == "manifest.tsv":
            reach("manifest replace")
        elif name.endswith(".bin"):
            reach("run rename")
        real_replace(src, dst)

    def flush(writer, *args):
        real_flush(writer, *args)
        reach("run write")

    def unlink(path, *args, **kwargs):
        if path.parent.name == "grid":
            reach("run delete")
        real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(grid._RunWriter, "_write_cells", flush)
    monkeypatch.setattr(grid._RunWriter, "abort", lambda writer: writer._fh.close())
    monkeypatch.setattr(Path, "unlink", unlink)


def prepare(kind, db_dir, a, b):
    """The database before the operation under test; None before a build."""
    if kind == "build":
        return None
    db = build_patch_database(a, P1, db_dir)
    return db if kind == "add" else add_patches(db, b)


def operate(kind, db_dir, a, b):
    if kind == "build":
        return build_patch_database(a + b, P1, db_dir)
    db = PatchDatabase.load(db_dir)
    return add_patches(db, b) if kind == "add" else compact(db)


def state(db):
    return db.patch_meta, db.grid.runs, db.mps


@pytest.mark.parametrize("kind", ["build", "add", "compact"])
def test_manifest_replace_is_the_last_write(tmp_path, monkeypatch, kind):
    _, patches = corpus(seed=8, n_proteins=6)
    a, b = patches[:7], patches[7:]
    prepare(kind, tmp_path / "db", a, b)
    log: list[str] = []
    with monkeypatch.context() as patched:
        hook_write_steps(patched, log)
        operate(kind, tmp_path / "db", a, b)
    assert log.count("manifest replace") == 1
    after = log[log.index("manifest replace") + 1:]
    assert after == (["run delete", "run delete"] if kind == "compact" else [])


@pytest.mark.parametrize(
    "kind, step",
    [(kind, step) for kind in ("build", "add", "compact") for step in WRITE_STEPS]
    + [("compact", "run delete")],
)
def test_crash_leaves_old_or_new_database_and_retry_succeeds(tmp_path, monkeypatch, kind, step):
    _, patches = corpus(seed=8, n_proteins=6)
    a, b = patches[:7], patches[7:]
    full = build_patch_database(a + b, P1, tmp_path / "full")
    prepare(kind, tmp_path / "ref", a, b)
    new = operate(kind, tmp_path / "ref", a, b)
    db_dir = tmp_path / "db"
    old = prepare(kind, db_dir, a, b)

    with monkeypatch.context() as patched:
        hook_write_steps(patched, [], crash=step)
        with pytest.raises(Crash):
            operate(kind, db_dir, a, b)

    if old is None:  # a build that never committed leaves no database
        with pytest.raises(FileNotFoundError):
            PatchDatabase.load(db_dir)
    else:
        loaded = PatchDatabase.load(db_dir)
        assert state(loaded) == state(new if step == "run delete" else old)
        assert loaded.expected_entries == loaded.grid.total_entries

    retried = operate(kind, db_dir, a, b)
    assert state(retried) == state(PatchDatabase.load(db_dir)) == state(new)
    listed = {"manifest.tsv", "grid"} | {f"grid/{r.file_name}" for r in retried.grid.runs}
    on_disk = {path.relative_to(db_dir).as_posix() for path in db_dir.rglob("*")}
    # orphaned and half-written files were overwritten, or deleted by the retried compact
    assert on_disk == listed

    final = compact(retried)
    assert (final.patch_meta, final.mps) == (full.patch_meta, full.mps)
    (run,) = final.grid.runs
    assert final.grid.run_path(run).read_bytes() == full.grid.run_path(full.grid.runs[0]).read_bytes()


def test_compact_deletes_only_unlisted_run_files(tmp_path):
    _, patches = corpus(seed=8, n_proteins=6)
    db = build_patch_database(patches, P1, tmp_path / "db")
    grid_dir = db.grid.directory
    (listed,) = db.grid.runs
    kept = ["run_000000.bin.tmp", "notes.txt", "run_000007.bin.part"]
    for name in ["run_000005.bin", "run_000009.bin", *kept]:
        (grid_dir / name).write_bytes(b"x")
    assert compact(db) is db  # a single run is not rewritten
    assert sorted(p.name for p in grid_dir.iterdir()) == sorted([listed.file_name, *kept])
    assert PatchDatabase.load(db.directory).grid.runs == [listed]


# Rows save() never writes, appended to a valid manifest.
EXTRA_ROWS = {
    "unknown row kind": "bogus\t1\n",
    "repeated delta": "delta\t1.0\n",
    "repeated bits_per_axis": "bits_per_axis\t21\n",
    "repeated mps": "mps\t0.1\n",
    "repeated patch": None,  # the manifest's last patch row again
}


@pytest.mark.parametrize("damage", [
    "drop run row", "truncate run file", "drop mps row", "run row missing field",
    "non-integer count", "negative mps", *EXTRA_ROWS,
])
def test_load_rejects_corrupt_database(tmp_path, capsys, damage):
    _, patches = corpus(seed=8, n_proteins=6)
    db_dir = tmp_path / "db"
    db = add_patches(build_patch_database(patches[:7], P1, db_dir), patches[7:])
    manifest = db_dir / "manifest.tsv"
    rows = manifest.read_text().splitlines(keepends=True)
    if damage == "drop run row":
        manifest.write_text("".join(row for row in rows if not row.startswith("run\trun_000001")))
    elif damage == "drop mps row":
        manifest.write_text("".join(row for row in rows if not row.startswith("mps\t")))
    elif damage == "run row missing field":
        manifest.write_text("".join(
            row.rsplit("\t", 1)[0] + "\n" if row.startswith("run\t") else row for row in rows
        ))
    elif damage == "non-integer count":  # n_atoms of every patch row
        manifest.write_text("".join(
            "\t".join([*row.split("\t")[:4], "7.5", row.split("\t")[5]])
            if row.startswith("patch\t") else row
            for row in rows
        ))
    elif damage == "negative mps":  # one byte: the first digit becomes a minus sign
        manifest.write_text("".join("mps\t-" + row[5:] if row.startswith("mps\t") else row for row in rows))
    elif damage in EXTRA_ROWS:
        manifest.write_text("".join(rows) + (EXTRA_ROWS[damage] or rows[-1]))
    else:
        path = db.grid.run_path(db.grid.runs[0])
        path.write_bytes(path.read_bytes()[:-12])
    with pytest.raises(CorruptDatabase):
        PatchDatabase.load(db_dir)
    assert main(["add", "--db", str(db_dir)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    if damage in EXTRA_ROWS:
        assert f"{manifest}: " in err


def test_load_rejects_a_repeated_patch_id(tmp_path, capsys):
    rng = random.Random(3)
    db_dir = tmp_path / "db"
    build_patch_database([lattice_patch(f"{sid}_0", sid, 1.0, rng) for sid in "AB"], P1, db_dir)
    manifest = db_dir / "manifest.tsv"
    manifest.write_text(manifest.read_text().replace("\tB_0\t", "\tA_0\t"))
    with pytest.raises(CorruptDatabase, match="repeated patch id 'A_0'"):
        PatchDatabase.load(db_dir)
    assert main(["add", "--db", str(db_dir)]) == 1
    err = capsys.readouterr().err
    assert f"{manifest}: repeated patch id 'A_0'" in err


@pytest.mark.parametrize("name", ["../x.bin", "sub/run_000000.bin"])
def test_load_rejects_a_run_name_outside_the_grid_directory(tmp_path, capsys, name):
    # the named file exists with the listed size, so only its name is wrong
    _, patches = corpus(seed=8, n_proteins=6)
    db_dir = tmp_path / "db"
    db = build_patch_database(patches, P1, db_dir)
    (run,) = db.grid.runs
    target = db.grid.directory / name
    target.parent.mkdir(exist_ok=True)
    target.write_bytes(db.grid.run_path(run).read_bytes())
    manifest = db_dir / "manifest.tsv"
    manifest.write_text(manifest.read_text().replace(f"run\t{run.file_name}\t", f"run\t{name}\t"))
    with pytest.raises(CorruptDatabase, match="is not a file name"):
        PatchDatabase.load(db_dir)
    assert main(["add", "--db", str(db_dir)]) == 1
    assert f"{manifest}: run name {name!r} is not a file name" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_database(tmp_path_factory):
    """A small database of one run, and a query planted from its patches."""
    instance = planted_instance(seed=5, n_patches=6)
    directory = tmp_path_factory.mktemp("damaged") / "db"
    build_patch_database(instance.patches, instance.params, directory)
    return directory, instance.query


@settings(max_examples=80, deadline=None)
@given(target=st.sampled_from(["grid/run_000000.bin", "manifest.tsv"]), data=st.data())
def test_damaged_bytes_load_and_query_or_raise_a_patchgrid_error(small_database, target, data):
    # 1-4 bytes of the run file or the manifest changed: the load and a query
    # either run to the end or raise a named error, never another exception
    source, query = small_database
    with tempfile.TemporaryDirectory() as work:
        db_dir = Path(work) / "db"
        shutil.copytree(source, db_dir)
        path = db_dir / target
        blob = bytearray(path.read_bytes())
        flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255))
        for at, bits in data.draw(st.lists(flips, min_size=1, max_size=4, unique_by=lambda f: f[0])):
            blob[at] ^= bits
        path.write_bytes(bytes(blob))
        try:
            match_query(query, PatchDatabase.load(db_dir), 0.5, tmp_dir=Path(work))
        except PatchGridError:
            pass


@pytest.mark.parametrize("budget", [0, 1])
def test_memory_budget_below_two_entries_is_rejected(tmp_path, budget):
    proteins, patches = corpus(3, n_proteins=2)
    with pytest.raises(ValueError, match="memory budget"):
        build_patch_database(patches, P1, tmp_path / "rejected", memory_budget_entries=budget)
    db = build_patch_database(patches, P1, tmp_path / "db")
    with pytest.raises(ValueError, match="memory budget"):
        match_query(proteins[0], db, 0.5, tmp_dir=tmp_path, memory_budget_entries=budget)
