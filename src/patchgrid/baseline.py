"""Naive in-memory geometric hashing at desk scale: the correctness oracle.

``AllTriples`` mode enumerates every ordered non-collinear atom triple as a
frame, which is the faithful n(n-1)(n-2) enumeration and explodes quickly;
hard caps guard against accidental large inputs. ``PerResidue`` mode uses
the same one-frame-per-residue rule as the disk engine (including the mps
clip on the query side) so its output must equal ``match_query`` exactly,
set and scores: that equality is the engine's master correctness check.

The cell join here runs over an in-memory hash of raw cell indices, never
touching Morton codes, sorted runs or the merge scan, so it exercises a
genuinely independent path.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CapExceeded, OutOfExtent
from .geometry import (
    Atoms,
    RigidFrame,
    frame_from_triple,
    point_norms,
    transform_points,
)
from .grid import GridParams, RefId, cells_of_points
from .ingest import Patch, Protein
from .matcher import MatchResult
from .preprocess import residue_frames

DEFAULT_TRIPLE_CAP = 50
DEFAULT_ENTRY_CAP = 10_000_000


class FrameMode(Enum):
    AllTriples = "all-triples"
    PerResidue = "per-residue"


class TripleFrameId(NamedTuple):
    """Frame identifier in AllTriples mode: structure key plus the ordered
    atom-ordinal triple the frame was built from."""

    structure_key: int
    atom_triple: tuple[int, int, int]


def naive_frames(
    atoms: Atoms,
    mode: FrameMode,
    structure_key: int = 0,
    triple_cap: int = DEFAULT_TRIPLE_CAP,
) -> list[tuple[RefId | TripleFrameId, RigidFrame]]:
    """Enumerate frames for one structure.

    AllTriples yields one frame per ordered non-collinear triple of distinct
    atoms, in (i, j, k) order of their rows, all built by one
    ``frame_from_triple`` call (collinear triples are skipped); PerResidue
    delegates to the engine's per-residue rule. Raises CapExceeded when
    AllTriples would enumerate more than triple_cap**3 combinations.
    """
    if mode is FrameMode.PerResidue:
        return [
            (RefId(structure_key, residue_ordinal), frame)
            for residue_ordinal, frame in residue_frames(atoms)
        ]
    n = len(atoms)
    if n > triple_cap:
        raise CapExceeded(f"AllTriples over {n} atoms exceeds cap {triple_cap}")
    triples = np.array(list(itertools.permutations(range(n), 3)), dtype=np.int64).reshape(-1, 3)
    origins, bases, valid = frame_from_triple(*atoms.positions[triples.T])
    ordinals = atoms.atom_ordinals[triples].tolist()
    return [
        (TripleFrameId(structure_key, tuple(ordinals[t])), RigidFrame(origins[t], bases[t]))
        for t in np.flatnonzero(valid).tolist()
    ]


def naive_match(
    query: Protein,
    patches: Sequence[Patch],
    params: GridParams,
    mode: FrameMode,
    tau: float,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> list[MatchResult]:
    """Match a query against patches entirely in memory.

    PerResidue mode mirrors the engine bit for bit: same frames, same
    transform kernel, same quantization, same mps clip, same increment rule,
    same normalization and ordering. AllTriples mode enumerates every triple
    frame, up to ``DEFAULT_TRIPLE_CAP`` atoms per structure, and applies no
    clipping.
    """
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must be in [0, 1]")
    per_residue = mode is FrameMode.PerResidue

    # Index the patches: cell -> frame id -> entry count. Structure keys are
    # assigned densely over patches that yield at least one frame, matching
    # the database build exactly.
    cell_counts: dict[tuple[int, int, int], dict] = {}
    patch_of_key: dict[int, Patch] = {}
    mps = 0.0
    entries_budget = entry_cap
    for patch in patches:
        key = len(patch_of_key)
        frames = naive_frames(patch.atoms, mode, structure_key=key)
        if not frames:
            continue
        patch_of_key[key] = patch
        points = patch.atoms.positions
        for frame_id, frame in frames:
            coords = transform_points(frame, points)
            radius = float(point_norms(coords).max())
            if radius > mps:
                mps = radius
            cells, in_extent = cells_of_points(coords, params)
            if not bool(in_extent.all()):
                raise OutOfExtent(f"patch {patch.patch_id} atom outside the grid extent")
            entries_budget -= len(coords)
            if entries_budget < 0:
                raise CapExceeded(f"naive index exceeds {entry_cap} entries")
            for row in range(len(coords)):
                cell = (int(cells[row, 0]), int(cells[row, 1]), int(cells[row, 2]))
                per_frame = cell_counts.setdefault(cell, {})
                per_frame[frame_id] = per_frame.get(frame_id, 0) + 1

    # Walk the query frames and accumulate the same increment rule as the
    # merge scan: each database frame's cell count is added once per query
    # frame that occupies the cell.
    query_frames = naive_frames(query.atoms, mode, structure_key=0)
    points = query.atoms.positions
    scores: dict[tuple, int] = {}
    for frame_id, frame in query_frames:
        coords = transform_points(frame, points)
        cells, in_extent = cells_of_points(coords, params)
        if per_residue:
            keep = (point_norms(coords) <= mps) & in_extent
        else:
            keep = in_extent
        occupied = {
            (int(cells[row, 0]), int(cells[row, 1]), int(cells[row, 2]))
            for row in keep.nonzero()[0]
        }
        for cell in occupied:
            per_frame = cell_counts.get(cell)
            if per_frame is None:
                continue
            for db_frame_id, count in per_frame.items():
                pair = (db_frame_id, frame_id)
                scores[pair] = scores.get(pair, 0) + count

    results = []
    for (db_frame_id, query_frame_id), count in scores.items():
        patch = patch_of_key[db_frame_id.structure_key]
        results.append(
            MatchResult(
                db_ref_id=db_frame_id,
                query_ref_id=query_frame_id,
                score=count / len(patch.atoms),
                patch_id=patch.patch_id,
                source_protein_id=patch.source_protein_id,
            )
        )
    results.sort(
        key=lambda r: (-r.score, r.patch_id, r.query_ref_id, r.db_ref_id[1])
    )
    return [r for r in results if r.score >= tau]
