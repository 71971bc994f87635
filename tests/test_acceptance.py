"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import random
import struct
import time

import numpy as np
import pytest

from conftest import CellIndex, corpus, interleave_bits, morton_decode, score_items, z_records
from patchgrid import reliability
from patchgrid.baseline import FrameMode, naive_frames, naive_match
from patchgrid.geometry import AtomRecord, Atoms, Point3, transform_points
from patchgrid.grid import (
    DiskGrid,
    GridCursor,
    GridParams,
    RefId,
    build_sorted_run,
    morton_encode,
)
from patchgrid.ingest import KeywordAnnotation, Protein
from patchgrid.matcher import ScoreTable, match_query, merge_scan_match
from patchgrid.preprocess import (
    add_patches,
    build_patch_database,
    compact,
    residue_frames,
)
from patchgrid.reliability import EvalConfig, EvalPair, pair_identities, redundancy_filter, sweep, tp_rate
from patchgrid.matcher import MatchResult
from patchgrid.synthetic import (
    lattice_patch,
    lattice_query,
    margin_violations,
    move_atoms,
    move_protein,
    planted_instance,
    random_protein,
    rigid_motion,
)


def test_acceptance_01_oracle_equivalence(tmp_path):
    """match_query and naive_match (PerResidue) agree exactly on 100 seeded
    instances across delta in {0.5, 1.0, 2.0}, in under 60 s."""
    deltas = (0.5, 1.0, 2.0)
    taus = (0.0, 0.5, 1.0)
    started = time.monotonic()
    checked_pairs = 0
    for i in range(100):
        rng = random.Random(10_000 + i)
        large = i % 10 == 0
        instance = planted_instance(
            seed=20_000 + i,
            n_patches=rng.randint(8, 20) if large else rng.randint(3, 8),
            patch_residues=(2, 3) if large else (1, 3),
            extra_atoms=(5, 17) if large else (1, 5),
            query_noise_residues=rng.randint(8, 20) if large else rng.randint(2, 6),
            n_planted=rng.randint(1, 3),
            delta=deltas[i % 3],
        )
        assert all(len(p.atoms) <= 60 for p in instance.patches)
        assert instance.query.residue_count <= 30
        db = build_patch_database(instance.patches, instance.params, tmp_path / f"db{i}")
        tau = taus[i % 3]
        engine = match_query(instance.query, db, tau, tmp_dir=tmp_path)
        naive = naive_match(instance.query, instance.patches, instance.params,
                            FrameMode.PerResidue, tau)
        assert engine == naive  # identical sets, ordering and bit-exact scores
        checked_pairs += len(engine)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 01 PASS — oracle equivalence on 100 instances "
          f"({checked_pairs} result pairs, {elapsed:.1f}s < 60s)")


def test_acceptance_02_self_match(tmp_path):
    """Every indexed patch is recovered at score exactly 1.0 when its source
    structure is the query, tau_pp = 1.0, in under 10 s."""
    proteins, patches = corpus(seed=60, n_proteins=8, residues=(5, 10), patches_per_protein=3)
    db = build_patch_database(patches, GridParams(delta=1.0), tmp_path / "db")
    by_source = {p.protein_id: p for p in proteins}
    started = time.monotonic()
    for patch in patches:
        results = match_query(by_source[patch.source_protein_id], db, 1.0, tmp_dir=tmp_path)
        hits = [r for r in results if r.patch_id == patch.patch_id]
        assert hits, f"patch {patch.patch_id} not recovered"
        assert any(r.score == 1.0 for r in hits)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 02 PASS — self-match at 1.0 for {len(patches)} patches "
          f"({elapsed:.1f}s < 10s)")


def test_acceptance_03_rigid_motion_invariance(tmp_path):
    """With >= 0.1*delta margin from all cell boundaries, results under 50
    random rigid motions are identical with identical scores, and frame
    coordinates agree within 1e-6 A."""
    rng = random.Random(42)
    delta = 1.0
    params = GridParams(delta=delta)
    patches = [lattice_patch(f"L{i}_0", f"L{i}", delta, rng, n_extra_atoms=4) for i in range(3)]
    patches.append(lattice_patch("BIG_0", "BIG", delta, rng, n_extra_atoms=2, radius_bump=3.0))
    db = build_patch_database(patches, params, tmp_path / "db")
    query = lattice_query(patches[:3], rng, separation=40.0 * db.mps)
    assert margin_violations(query, params, db.mps) == 0
    base = match_query(query, db, 0.0, tmp_dir=tmp_path)
    assert sum(1 for r in base if r.score == 1.0) >= 3
    base_frames = residue_frames(query.atoms)
    base_points = query.atoms.positions
    base_coords = [transform_points(frame, base_points) for _, frame in base_frames]
    worst = 0.0
    for k in range(50):
        motion_rng = random.Random(5_000 + k)
        rotation, translation = rigid_motion(motion_rng)
        moved = move_protein(query, rotation, translation)
        results = match_query(moved, db, 0.0, tmp_dir=tmp_path)
        assert results == base
        moved_points = moved.atoms.positions
        for (_, frame), reference in zip(residue_frames(moved.atoms), base_coords):
            deviation = np.abs(transform_points(frame, moved_points) - reference).max()
            worst = max(worst, float(deviation))
    assert worst < 1e-6
    print(f"ACCEPTANCE 03 PASS — 50 rigid motions, identical results, "
          f"max frame-coordinate deviation {worst:.2e} < 1e-6 A")


def test_acceptance_04_storage_exactness(tmp_path):
    """Manifest entry count equals sum(n_i * m_i) exactly; AllTriples over 20
    non-collinear atoms enumerates exactly 6840 frames."""
    _, patches = corpus(seed=61, n_proteins=6, patches_per_protein=3)
    db = build_patch_database(patches, GridParams(delta=1.0), tmp_path / "db")
    expected = sum(meta.n_atoms * meta.n_frames for meta in db.patch_meta.values())
    assert db.grid.total_entries == expected
    with GridCursor(db.grid) as cursor:
        stored = sum(len(cell.entries) for cell in cursor)
    assert stored == expected

    rng = random.Random(7)
    atoms = Atoms.from_records(
        AtomRecord(i, "C", "CB", 0, "GLY",
                   Point3(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)),
                   "A", 1)
        for i in range(20)
    )
    frames = naive_frames(atoms, FrameMode.AllTriples)
    assert len(frames) == 6840
    print(f"ACCEPTANCE 04 PASS — stored entries {stored} == sum(n*m) == {expected}; "
          f"AllTriples(n=20) == 6840 frames")


def test_acceptance_05_single_access_merge_scan(tmp_path):
    """Physical reads equal stored cell counts, and the merge scan equals a
    nested-loop cell join on 1000 random grid pairs."""
    instance = planted_instance(seed=99, n_patches=6)
    db = build_patch_database(instance.patches, instance.params, tmp_path / "db")
    stats: dict = {}
    match_query(instance.query, db, 0.0, tmp_dir=tmp_path, stats=stats)
    assert stats["gp_cells_read"] == stats["gp_cells_stored"] == db.grid.total_cells
    assert stats["gq_cells_read"] == stats["gq_cells_stored"]

    params = GridParams(delta=1.0)

    def random_grid(rng, name):
        items = [
            (CellIndex(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)),
             (rng.randint(0, 3), rng.randint(0, 5), rng.randint(0, 6)))
            for _ in range(rng.randint(1, 25))
        ]
        info = build_sorted_run(z_records(items, params), tmp_path / name)
        return DiskGrid(params, tmp_path, [info])

    def join_oracle(gp, gq):
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

    rng = random.Random(123)
    for trial in range(1000):
        gp = random_grid(rng, "gp.bin")
        gq = random_grid(rng, "gq.bin")
        merged = dict(score_items(merge_scan_match(gp, gq, ScoreTable())))
        assert merged == join_oracle(gp, gq)
    print("ACCEPTANCE 05 PASS — single access per stored cell; merge scan == "
          "nested-loop join on 1000 random grid pairs")


def _query_against(rng, patches, n_plant, noise_residues):
    atoms = []
    residue_base = 0
    for patch in rng.sample(patches, k=n_plant):
        moved = move_atoms(patch.atoms, *rigid_motion(rng))
        residue_map: dict[int, int] = {}
        for atom in moved:
            if atom.residue_ordinal not in residue_map:
                residue_map[atom.residue_ordinal] = residue_base + len(residue_map)
            atoms.append(AtomRecord(len(atoms), atom.element, atom.atom_name,
                                    residue_map[atom.residue_ordinal], atom.residue_name,
                                    atom.position, "Q", residue_map[atom.residue_ordinal] + 1))
        residue_base += len(residue_map)
    noise = random_protein(rng, "N", noise_residues)
    for atom in noise.atoms:
        atoms.append(AtomRecord(len(atoms), atom.element, atom.atom_name,
                                residue_base + atom.residue_ordinal, atom.residue_name,
                                Point3(atom.position.x + 120, atom.position.y, atom.position.z),
                                "Q", residue_base + atom.residue_ordinal + 1))
    return Protein("QINC", tuple(atoms))


def test_acceptance_06_incremental_maintenance(tmp_path):
    """build(A+B) and add_patches(build(A), B) answer 20 random queries
    identically, before and after compaction; compaction leaves one run."""
    _, patches = corpus(seed=62, n_proteins=5, patches_per_protein=2)
    group_a, group_b = patches[:6], patches[6:]
    db_full = build_patch_database(group_a + group_b, GridParams(delta=1.0), tmp_path / "full")
    db_incr = add_patches(build_patch_database(group_a, GridParams(delta=1.0), tmp_path / "incr"),
                          group_b)
    assert len(db_incr.grid.runs) == 2
    queries = [_query_against(random.Random(70_000 + i), patches, n_plant=2, noise_residues=3)
               for i in range(20)]
    for query in queries:
        assert match_query(query, db_full, 0.0, tmp_dir=tmp_path) == \
            match_query(query, db_incr, 0.0, tmp_dir=tmp_path)
    db_compacted = compact(db_incr)
    assert len(db_compacted.grid.runs) == 1
    for query in queries:
        assert match_query(query, db_full, 0.0, tmp_dir=tmp_path) == \
            match_query(query, db_compacted, 0.0, tmp_dir=tmp_path)
    print("ACCEPTANCE 06 PASS — incremental add == full rebuild on 20 queries, "
          "before and after compaction (1 run after compaction)")


N_EXTERNAL = 1_000_000


def _entry_stream(seed, n):
    rng = random.Random(seed)
    previous = None
    for i in range(n):
        if previous is not None and rng.random() < 0.01:
            yield previous  # planted duplicate
            continue
        item = (
            CellIndex(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(-30, 30)),
            (rng.randint(0, 999), rng.randint(0, 499), rng.randint(0, 4999)),
        )
        previous = item
        yield item


def test_acceptance_07_external_sort_fidelity(tmp_path):
    """External sort of 1e6 entries under a 1e4-entry budget is byte-for-byte
    identical to an in-memory sort, in under 120 s."""
    params = GridParams(delta=1.0)
    started = time.monotonic()
    info = build_sorted_run(z_records(_entry_stream(8_800, N_EXTERNAL), params),
                            tmp_path / "external.bin",
                            memory_budget_entries=10_000, tmp_dir=tmp_path)

    # In-memory oracle: one packed integer per record sorts like the tuple
    # (z, structure_key, residue_ordinal, atom_ordinal); grouping, dedup and
    # byte layout are reproduced here independently of the run writer.
    packed = set()
    h = params.half_extent_cells
    for (cx, cy, cz), (sk, ro, ao) in _entry_stream(8_800, N_EXTERNAL):
        z = interleave_bits(cx + h, cy + h, cz + h)
        packed.add((((z << 20 | sk) << 20 | ro) << 20) | ao)
    mask = (1 << 20) - 1
    blob = bytearray()
    for z, group in itertools.groupby(sorted(packed), key=lambda k: k >> 60):
        records = list(group)
        blob += struct.pack("<QI", z, len(records))
        for key in records:
            blob += struct.pack("<III", (key >> 40) & mask, (key >> 20) & mask, key & mask)
    elapsed = time.monotonic() - started

    external = (tmp_path / "external.bin").read_bytes()
    assert external == bytes(blob)
    assert info.n_entries == len(packed)
    assert elapsed < 120.0
    print(f"ACCEPTANCE 07 PASS — external sort of {N_EXTERNAL} entries "
          f"(budget 10_000) byte-identical to in-memory sort; "
          f"{info.n_cells} cells, {info.n_entries} entries, {elapsed:.1f}s < 120s")


def test_acceptance_08_morton_correctness():
    """Round trip exhaustively on offset indices [0,7]^3 and on 1e5 random
    in-extent indices through the reference decoder; documented code values
    0, 7 and 53 reproduced by the reference coder."""
    params = GridParams(delta=1.0)
    h = params.half_extent_cells

    def bit_oracle(x, y, z):
        code = 0
        for i in range(21):
            code |= ((x >> i) & 1) << (3 * i)
            code |= ((y >> i) & 1) << (3 * i + 1)
            code |= ((z >> i) & 1) << (3 * i + 2)
        return code

    assert interleave_bits(0, 0, 0) == 0
    assert interleave_bits(1, 1, 1) == 7
    assert interleave_bits(1, 2, 3) == 53
    offsets = list(itertools.product(range(8), repeat=3))
    cells = [CellIndex(ox - h, oy - h, oz - h) for ox, oy, oz in offsets]
    for (ox, oy, oz), cell, code in zip(offsets, cells, morton_encode(cells, params).tolist()):
        assert code == bit_oracle(ox, oy, oz)
        assert morton_decode(code, params) == cell
    rng = random.Random(88)
    cells = [CellIndex(*(rng.randrange(-h, h) for _ in range(3))) for _ in range(100_000)]
    for cell, code in zip(cells, morton_encode(cells, params).tolist()):
        assert morton_decode(code, params) == cell
    print("ACCEPTANCE 08 PASS — Morton round trip exhaustive on [0,7]^3 and "
          "100000 random indices; documented values 0/7/53 reproduced")


def test_acceptance_09_tp_rate_machinery(tmp_path, monkeypatch):
    """tp_rate reference points; sweep TSV matches hand-computed D/R/TP within
    1e-12 on a planted annotation set; TP non-decreasing in tau_pp."""
    assert tp_rate(1.0, 0.0, 1.0) == 1.0
    for value in (0.0, 0.4, 0.9):
        assert tp_rate(value, value, 1.0) == 0.0
    assert abs(tp_rate(0.85, 0.25, 1.0) - 0.8) < 1e-12

    def ann(entity, *keywords):
        return KeywordAnnotation(entity, frozenset(keywords))

    annotations = {
        "Q1": ann("Q1", "a"), "Q2": ann("Q2", "b"),
        "S1": ann("S1", "a"), "S2": ann("S2", "b"),
        "S3": ann("S3", "a", "b"), "S4": ann("S4", "z"),
    }
    rng = random.Random(3)
    db = build_patch_database(
        [lattice_patch(f"S{i}_0", f"S{i}", 1.0, rng, n_extra_atoms=2) for i in range(1, 5)],
        GridParams(delta=1.0), tmp_path / "db",
    )

    def pair(query_id, source_id, score):
        return EvalPair(query_id, MatchResult(RefId(0, 0), RefId(0, 0), score,
                                              f"{source_id}_0", source_id))

    pairs = [
        pair("Q1", "S1", 0.96), pair("Q2", "S2", 0.96),
        pair("Q1", "S3", 0.92), pair("Q2", "S1", 0.92),
        pair("Q2", "S3", 0.87), pair("Q1", "S2", 0.87),
        pair("Q1", "S4", 0.82), pair("Q2", "S4", 0.82),
    ]
    identities = {(q, s): 0.0 for q in ("Q1", "Q2") for s in ("S1", "S2", "S3", "S4")}
    monkeypatch.setattr(reliability, "pair_identities", lambda *args, **kwargs: identities)
    report = sweep(pairs, EvalConfig(), annotations, {"Q1": None, "Q2": None}, {}, db)
    # hand computation: R = 4/8; D per tau_pp tier; TP = (D - R) / (1 - R)
    expected_d = {0.80: 4 / 8, 0.85: 4 / 6, 0.90: 3 / 4, 0.95: 2 / 2}
    parsed = [line.split("\t") for line in report.to_tsv().splitlines()[1:]]
    assert len(parsed) == 40
    for tau_pp_s, tau_prot_s, d_s, r_s, tp_s, count_s in parsed:
        tau_pp = float(tau_pp_s)
        assert abs(float(r_s) - 0.5) < 1e-12
        assert abs(float(d_s) - expected_d[tau_pp]) < 1e-12
        assert abs(float(tp_s) - (expected_d[tau_pp] - 0.5) / 0.5) < 1e-12
    by_prot: dict[str, list[float]] = {}
    for tau_pp_s, tau_prot_s, d_s, r_s, tp_s, count_s in parsed:
        by_prot.setdefault(tau_prot_s, []).append(float(tp_s))
    for values in by_prot.values():
        assert values == sorted(values)  # construction makes TP non-decreasing
    print("ACCEPTANCE 09 PASS — tp_rate reference points exact/1e-12; sweep TSV "
          "matches hand-computed D/R/TP within 1e-12; TP non-decreasing in tau_pp")


def test_acceptance_10_threshold_semantics(tmp_path):
    """Sweep emits the full 4x10 grid of (tau_pp in {0.8..0.95}, tau_prot in
    {0.1..1.0}); redundancy_filter removes exactly the planted pairs with
    identity > tau_prot."""
    rng = random.Random(5)
    patch_a = lattice_patch("A_0", "A", 1.0, rng, n_extra_atoms=7)   # 10 atoms
    patch_b = lattice_patch("B_0", "B", 1.0, rng, n_extra_atoms=7)
    source_a, source_b = Protein("A", patch_a.atoms), Protein("B", patch_b.atoms)
    atoms = list(move_atoms(patch_a.atoms[:7], *rigid_motion(rng)))   # identity 0.7
    offset = len(atoms)
    for atom in move_atoms(patch_b.atoms[:3], *rigid_motion(rng)):    # identity 0.3
        atoms.append(AtomRecord(offset + atom.atom_ordinal, atom.element, atom.atom_name,
                                1, atom.residue_name,
                                Point3(atom.position.x + 300, atom.position.y, atom.position.z),
                                "Q", 2))
    query = Protein("Q", tuple(atoms))
    query_proteins = {"Q": query}
    source_proteins = {"A": source_a, "B": source_b}

    def pair(source_id):
        return EvalPair("Q", MatchResult(RefId(0, 0), RefId(0, 0), 0.96,
                                         f"{source_id}_0", source_id))

    pairs = [pair("A"), pair("B")]
    params = GridParams(delta=1.0)
    identities = pair_identities(pairs, query_proteins, source_proteins, params, tmp_dir=tmp_path)
    config = EvalConfig()
    removed_by_tau = {}
    for tau_prot in config.tau_prot_values:
        kept = redundancy_filter(pairs, identities, tau_prot)
        removed_by_tau[tau_prot] = {p.result.source_protein_id for p in pairs} - {
            p.result.source_protein_id for p in kept
        }
    assert identities == {("Q", "A"): 0.7, ("Q", "B"): 0.3}
    for tau_prot, removed in removed_by_tau.items():
        expected = {sid for sid, identity in (("A", 0.7), ("B", 0.3)) if identity > tau_prot}
        assert removed == expected, f"tau_prot={tau_prot}"

    db = build_patch_database([patch_a, patch_b], params, tmp_path / "db")
    annotations = {
        "Q": KeywordAnnotation("Q", frozenset({"k"})),
        "A": KeywordAnnotation("A", frozenset({"k"})),
        "B": KeywordAnnotation("B", frozenset({"k"})),
    }
    report = sweep(pairs, config, annotations, query_proteins, source_proteins,
                   db, tmp_dir=tmp_path)
    rows = {(row.tau_pp, row.tau_prot) for row in report.rows}
    assert rows == set(itertools.product((0.80, 0.85, 0.90, 0.95),
                                         tuple(round(0.1 * i, 10) for i in range(1, 11))))
    assert len(report.rows) == 40
    for row in report.rows:
        expected_removed = sum(1 for identity in (0.7, 0.3) if identity > row.tau_prot)
        assert row.pair_count == 2 - expected_removed
    print("ACCEPTANCE 10 PASS — full 4x10 sweep grid emitted; redundancy filter "
          "removes exactly the planted identities (0.7, 0.3) above each tau_prot")
