import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus
from patchgrid import grid
from patchgrid.cli import main
from patchgrid.errors import CollinearAtoms, CorruptDatabase, DuplicatePatchId, NoValidFrame
from patchgrid.geometry import (
    AtomRecord,
    Point3,
    frame_from_triple,
    point_norms,
    positions_array,
    transform_points,
)
from patchgrid.grid import CellIndex, GridParams, morton_encode
from patchgrid.ingest import OriginTag, Patch
from patchgrid.matcher import match_query
from patchgrid.preprocess import (
    PatchDatabase,
    add_patches,
    build_patch_database,
    compact,
    insert_patch,
    residue_frames,
)
from patchgrid.synthetic import lattice_patch, random_protein

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
    frames = residue_frames(residue(COMPLETE))
    assert len(frames) == 1
    assert frames[0][0] == 0


def test_residue_frames_missing_anchor_counted():
    counters: dict[str, int] = {}
    frames = residue_frames(residue(COMPLETE[:1] + COMPLETE[2:]), counters=counters)
    assert len(frames) == 0
    assert counters["residues_missing_anchor"] == 1


def test_residue_frames_collinear_counted():
    counters: dict[str, int] = {}
    collinear = [("CA", (0, 0, 0)), ("N", (1, 0, 0)), ("C", (2, 0, 0))]
    assert len(residue_frames(residue(collinear), counters=counters)) == 0
    assert counters["residues_collinear"] == 1


def test_residue_frames_five_residues():
    rng = random.Random(1)
    protein = random_protein(rng, "FIVE", 5)
    assert len(residue_frames(protein.atoms)) == 5


def residue_frames_oracle(atoms, counters):
    """Per-residue dictionaries and one frame_from_triple call per residue."""
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
        try:
            frame = frame_from_triple(slot["CA"].position, slot["N"].position, slot["C"].position)
        except CollinearAtoms:
            counters["residues_collinear"] = counters.get("residues_collinear", 0) + 1
            continue
        frames.append((residue_ordinal, frame))
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
    frames = residue_frames(atoms, counters=counters)
    expected = residue_frames_oracle(atoms, expected_counters)
    assert counters == expected_counters
    assert [ro for ro, _ in frames] == [ro for ro, _ in expected]
    for (_, frame), (_, oracle) in zip(frames, expected):
        assert np.array_equal(frame.origin, oracle.origin)
        assert np.array_equal(frame.basis, oracle.basis)


def test_residue_frames_keep_order_of_first_appearance():
    atoms = residue(COMPLETE, residue_ordinal=7) + residue(COMPLETE, residue_ordinal=2, base=4)
    atoms += residue(COMPLETE[:1], residue_ordinal=7, base=8)
    assert [ro for ro, _ in residue_frames(atoms)] == [7, 2]


def test_insert_patch_counts_n_times_m():
    patch = two_frame_patch()
    entries = list(insert_patch(patch, P1))
    assert len(entries) == 7 * 2


def test_insert_patch_no_valid_frame_is_eager():
    atoms = tuple(residue(COMPLETE[:2]))
    patch = Patch("BAD_0", "BAD", atoms, OriginTag.SiteRecord)
    with pytest.raises(NoValidFrame):
        insert_patch(patch, P1)


def test_insert_patch_anchor_lands_in_origin_cell():
    patch = Patch("ONE_0", "ONE", tuple(residue(COMPLETE)), OriginTag.SiteRecord)
    entries = list(insert_patch(patch, P1, structure_key=3))
    ca_cells = [z for z, _, _, ao in entries if ao == 0]
    assert ca_cells == [morton_encode(CellIndex(0, 0, 0), P1)]
    assert all(sk == 3 for _, sk, _, _ in entries)


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
        points = positions_array(patch.atoms)
        for _, frame in residue_frames(patch.atoms):
            expected = max(expected, float(point_norms(transform_points(frame, points)).max()))
    assert db.mps == expected
    # dominance: every patch/frame/atom radius is within mps
    for patch in patches:
        points = positions_array(patch.atoms)
        for _, frame in residue_frames(patch.atoms):
            assert float(point_norms(transform_points(frame, points)).max()) <= db.mps + 1e-9


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
        list(insert_patch(patch, params))


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


@pytest.mark.parametrize("damage", [
    "drop run row", "truncate run file", "drop mps row", "run row missing field",
    "non-integer count",
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
    else:
        path = db.grid.run_path(db.grid.runs[0])
        path.write_bytes(path.read_bytes()[:-12])
    with pytest.raises(CorruptDatabase):
        PatchDatabase.load(db_dir)
    assert main(["add", "--db", str(db_dir)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [0, 1])
def test_memory_budget_below_two_entries_is_rejected(tmp_path, budget):
    proteins, patches = corpus(3, n_proteins=2)
    with pytest.raises(ValueError, match="memory budget"):
        build_patch_database(patches, P1, tmp_path / "rejected", memory_budget_entries=budget)
    db = build_patch_database(patches, P1, tmp_path / "db")
    with pytest.raises(ValueError, match="memory budget"):
        match_query(proteins[0], db, 0.5, tmp_dir=tmp_path, memory_budget_entries=budget)
