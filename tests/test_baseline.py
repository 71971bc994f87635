import random

import numpy as np
import pytest

from patchgrid.baseline import (
    DEFAULT_TRIPLE_CAP,
    FrameMode,
    TripleFrameId,
    naive_frames,
    naive_match,
)
from patchgrid.errors import CapExceeded
from patchgrid.geometry import AtomRecord, Atoms, Point3, frame_from_triple
from patchgrid.grid import GridParams, RefId
from patchgrid.ingest import OriginTag, Patch, Protein
from patchgrid.matcher import match_query
from patchgrid.preprocess import build_patch_database, residue_frames
from patchgrid.synthetic import planted_instance, random_protein

P1 = GridParams(delta=1.0)


def point_atoms(points):
    return Atoms.from_records(
        AtomRecord(i, "C", "CB", 0, "GLY", Point3(*p), "A", 1) for i, p in enumerate(points)
    )


def test_all_triples_three_atoms_gives_six_frames():
    atoms = point_atoms([(0, 0, 0), (2, 0, 0), (0, 3, 0)])
    frames = naive_frames(atoms, FrameMode.AllTriples)
    assert len(frames) == 6  # 3*2*1 ordered triples, all non-collinear
    ids = {fid for fid, _ in frames}
    assert all(isinstance(fid, TripleFrameId) for fid in ids)
    assert len(ids) == 6


def test_all_triples_twenty_atoms_enumeration():
    rng = random.Random(20)
    atoms = point_atoms([(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10))
                         for _ in range(20)])
    frames = naive_frames(atoms, FrameMode.AllTriples)
    assert len(frames) == 20 * 19 * 18  # == 6840, no collinear skips at random positions


def test_all_triples_collinear_atoms_give_no_frames():
    atoms = point_atoms([(float(i), 0.0, 0.0) for i in range(4)])
    assert naive_frames(atoms, FrameMode.AllTriples) == []


def test_all_triples_equal_one_kernel_call_per_triple():
    # the one batched call gives the frames, the order and the skips of a
    # (i, j, k) loop with a one-row call per triple
    rng = random.Random(31)
    points = [(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(6)]
    points += [points[0], tuple(2 * b - a for a, b in zip(points[0], points[1]))]  # coincident, collinear
    expected = []
    for i in range(len(points)):
        for j in range(len(points)):
            for k in range(len(points)):
                if len({i, j, k}) == 3:
                    origins, bases, valid = frame_from_triple(points[i], points[j], points[k])
                    if valid[0]:
                        expected.append(((i, j, k), origins[0], bases[0]))
    frames = naive_frames(point_atoms(points), FrameMode.AllTriples, structure_key=4)
    assert [fid for fid, _ in frames] == [TripleFrameId(4, triple) for triple, _, _ in expected]
    assert len(frames) < 8 * 7 * 6
    for (_, frame), (_, origin, basis) in zip(frames, expected):
        assert np.array_equal(frame.origin, origin) and np.array_equal(frame.basis, basis)


def test_all_triples_cap():
    atoms = point_atoms([(float(i), float(i % 3), 0.1 * i * i) for i in range(60)])
    with pytest.raises(CapExceeded):
        naive_frames(atoms, FrameMode.AllTriples)
    assert DEFAULT_TRIPLE_CAP == 50


def test_per_residue_mode_delegates():
    rng = random.Random(5)
    protein = random_protein(rng, "X", 4)
    frames = naive_frames(protein.atoms, FrameMode.PerResidue, structure_key=9)
    expected = residue_frames(protein.atoms)
    assert [fid for fid, _ in frames] == [RefId(9, ro) for ro, _ in expected]


def test_naive_match_empty_patch_list():
    rng = random.Random(1)
    query = random_protein(rng, "Q", 2)
    assert naive_match(query, [], P1, FrameMode.PerResidue, 0.0) == []


def test_naive_match_self_match():
    rng = random.Random(2)
    protein = random_protein(rng, "S", 2)
    patch = Patch("S_0", "S", protein.atoms, OriginTag.SiteRecord)
    results = naive_match(protein, [patch], P1, FrameMode.PerResidue, 1.0)
    assert any(r.score == 1.0 and r.patch_id == "S_0" for r in results)


def test_naive_match_equals_engine(tmp_path):
    for seed in (300, 301, 302):
        instance = planted_instance(seed=seed, n_patches=5, query_noise_residues=4)
        db = build_patch_database(instance.patches, instance.params, tmp_path / f"db{seed}")
        for tau in (0.0, 0.5, 1.0):
            engine = match_query(instance.query, db, tau, tmp_dir=tmp_path)
            naive = naive_match(instance.query, instance.patches, instance.params,
                                FrameMode.PerResidue, tau)
            assert engine == naive


def test_naive_match_entry_cap():
    rng = random.Random(3)
    query = random_protein(rng, "Q", 2)
    patch = Patch("P_0", "P", random_protein(rng, "P", 3).atoms, OriginTag.SiteRecord)
    with pytest.raises(CapExceeded):
        naive_match(query, [patch], P1, FrameMode.PerResidue, 0.0, entry_cap=10)


def anchor_triples(atoms):
    """residue_ordinal -> (CA, N, C) atom ordinals, mirroring the frame rule."""
    result = {}
    per_residue: dict[int, dict[str, int]] = {}
    for atom in atoms:
        slot = per_residue.setdefault(atom.residue_ordinal, {})
        if atom.atom_name in ("CA", "N", "C") and atom.atom_name not in slot:
            slot[atom.atom_name] = atom.atom_ordinal
    for residue, slot in per_residue.items():
        if all(k in slot for k in ("CA", "N", "C")):
            result[residue] = (slot["CA"], slot["N"], slot["C"])
    return result


def test_all_triples_contains_per_residue_results():
    # small instance so the full enumeration stays tractable
    rng = random.Random(8)
    source = random_protein(rng, "P", 1, extra_atoms=(1, 2))
    patch = Patch("P_0", "P", source.atoms, OriginTag.SiteRecord)
    query_atoms = list(source.atoms)
    noise = random_protein(rng, "N", 1, extra_atoms=(1, 1))
    base = len(query_atoms)
    for atom in noise.atoms:
        query_atoms.append(
            AtomRecord(base + atom.atom_ordinal, atom.element, atom.atom_name,
                       1, atom.residue_name,
                       Point3(atom.position.x + 30, atom.position.y, atom.position.z),
                       "Q", 2)
        )
    query = Protein("Q", tuple(query_atoms))
    tau = 0.5
    per_residue = naive_match(query, [patch], P1, FrameMode.PerResidue, tau)
    all_triples = naive_match(query, [patch], P1, FrameMode.AllTriples, tau)
    patch_anchors = anchor_triples(patch.atoms)
    query_anchors = anchor_triples(query.atoms)
    triple_keys = {(r.db_ref_id, r.query_ref_id) for r in all_triples}
    for r in per_residue:
        db_triple = TripleFrameId(r.db_ref_id.structure_key, patch_anchors[r.db_ref_id.residue_ordinal])
        q_triple = TripleFrameId(0, query_anchors[r.query_ref_id.residue_ordinal])
        assert (db_triple, q_triple) in triple_keys
