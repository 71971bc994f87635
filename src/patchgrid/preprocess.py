"""Database preprocessing: per-residue frames, entry streams, patch database.

For every residue owning a complete (CA, N, C) backbone triple, one
reference frame is generated and all patch atoms are expressed in it, so a
patch with n atoms and m usable residues contributes exactly n*m grid
entries. The database directory holds the grid runs plus two TSV sidecars::

    db_params.tsv   delta / bits_per_axis / mps, one "key<TAB>value" per line
    patch_meta.tsv  structure_key, patch_id, source_protein_id, n_atoms, n_frames

``mps`` is the maximum frame-origin-to-atom radius over all patches and
frames; the matcher clips query entries to that radius, and this definition
guarantees the clip never loses a true match.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .errors import CollinearAtoms, DuplicatePatchId, NoValidFrame, OutOfExtent
from .geometry import AtomRecord, RigidFrame, frame_from_triple, point_norms, positions_array, transform_points
from .grid import (
    DEFAULT_MEMORY_BUDGET,
    CellEntry,
    CellIndex,
    DiskGrid,
    GridParams,
    RefId,
    atomic_write_text,
    build_sorted_run,
    cells_of_points,
)
from .ingest import Patch, _count

ANCHOR_ATOM_NAMES = ("CA", "N", "C")

GRID_SUBDIR = "grid"
PARAMS_FILE = "db_params.tsv"
META_FILE = "patch_meta.tsv"


class PatchMeta(NamedTuple):
    structure_key: int
    patch_id: str
    source_protein_id: str
    n_atoms: int
    n_frames: int


def residue_frames(
    atoms: Sequence[AtomRecord],
    counters: dict[str, int] | None = None,
) -> list[tuple[int, RigidFrame]]:
    """One frame per residue possessing CA, N and C atoms (first occurrence
    each), anchored in that order. Residues missing an anchor or with
    collinear anchors are skipped and counted."""
    residues: dict[int, dict[str, AtomRecord]] = {}
    order: list[int] = []
    for atom in atoms:
        slot = residues.get(atom.residue_ordinal)
        if slot is None:
            slot = residues[atom.residue_ordinal] = {}
            order.append(atom.residue_ordinal)
        if atom.atom_name in ANCHOR_ATOM_NAMES and atom.atom_name not in slot:
            slot[atom.atom_name] = atom
    frames: list[tuple[int, RigidFrame]] = []
    for residue_ordinal in order:
        slot = residues[residue_ordinal]
        if any(name not in slot for name in ANCHOR_ATOM_NAMES):
            _count(counters, "residues_missing_anchor")
            continue
        try:
            frame = frame_from_triple(
                slot["CA"].position, slot["N"].position, slot["C"].position
            )
        except CollinearAtoms:
            _count(counters, "residues_collinear")
            continue
        frames.append((residue_ordinal, frame))
    return frames


def insert_patch(
    patch: Patch,
    params: GridParams,
    structure_key: int = 0,
    stats: dict | None = None,
) -> Iterator[tuple[CellIndex, CellEntry]]:
    """Emit one grid entry per (frame, atom) pair of the patch.

    The entry's cell is the quantized frame coordinate of the atom and its
    payload is (RefId(structure_key, residue_ordinal), atom_ordinal); a
    patch with n atoms and m frames yields exactly n*m entries. Raises
    NoValidFrame when no residue yields a frame (before any entry is
    produced); out-of-extent atoms raise OutOfExtent since database patches
    are small by construction. ``stats['max_radius']`` accumulates the
    largest frame-coordinate norm seen.
    """
    frames = residue_frames(patch.atoms)
    if not frames:
        raise NoValidFrame(f"patch {patch.patch_id}: no residue yields a frame")
    return _patch_entries(patch, frames, params, structure_key, stats)


def _patch_entries(patch, frames, params, structure_key, stats):
    points = positions_array(patch.atoms)
    ordinals = [atom.atom_ordinal for atom in patch.atoms]
    for residue_ordinal, frame in frames:
        coords = transform_points(frame, points)
        if stats is not None:
            radius = float(point_norms(coords).max())
            if radius > stats.get("max_radius", 0.0):
                stats["max_radius"] = radius
        cells, in_extent = cells_of_points(coords, params)
        if not bool(in_extent.all()):
            bad = int((~in_extent).argmax())
            raise OutOfExtent(
                f"patch {patch.patch_id}: atom {ordinals[bad]} quantizes outside the grid extent"
            )
        ref = RefId(structure_key, residue_ordinal)
        for i, ao in enumerate(ordinals):
            yield (
                CellIndex(int(cells[i, 0]), int(cells[i, 1]), int(cells[i, 2])),
                CellEntry(ref, ao),
            )


@dataclass
class PatchDatabase:
    """An indexed patch collection: disk grid plus per-patch metadata."""

    params: GridParams
    grid: DiskGrid
    patch_meta: dict[int, PatchMeta]
    mps: float
    directory: Path

    @property
    def patch_ids(self) -> set[str]:
        return {meta.patch_id for meta in self.patch_meta.values()}

    @property
    def expected_entries(self) -> int:
        return sum(meta.n_atoms * meta.n_frames for meta in self.patch_meta.values())

    def source_protein_ids(self) -> set[str]:
        return {meta.source_protein_id for meta in self.patch_meta.values()}

    def save_metadata(self) -> None:
        lines = ["#structure_key\tpatch_id\tsource_protein_id\tn_atoms\tn_frames"]
        for key in sorted(self.patch_meta):
            m = self.patch_meta[key]
            lines.append(
                f"{m.structure_key}\t{m.patch_id}\t{m.source_protein_id}\t{m.n_atoms}\t{m.n_frames}"
            )
        atomic_write_text(Path(self.directory) / META_FILE, "\n".join(lines) + "\n")
        params_text = (
            f"delta\t{self.params.delta!r}\n"
            f"bits_per_axis\t{self.params.bits_per_axis}\n"
            f"mps\t{self.mps!r}\n"
        )
        atomic_write_text(Path(self.directory) / PARAMS_FILE, params_text)

    @classmethod
    def load(cls, directory: Path) -> "PatchDatabase":
        directory = Path(directory)
        values: dict[str, str] = {}
        with open(directory / PARAMS_FILE, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                key, value = line.split("\t")
                values[key] = value
        params = GridParams(delta=float(values["delta"]), bits_per_axis=int(values["bits_per_axis"]))
        meta: dict[int, PatchMeta] = {}
        with open(directory / META_FILE, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                key, patch_id, source_id, n_atoms, n_frames = line.split("\t")
                meta[int(key)] = PatchMeta(int(key), patch_id, source_id, int(n_atoms), int(n_frames))
        grid = DiskGrid.load(directory / GRID_SUBDIR, params)
        return cls(
            params=params,
            grid=grid,
            patch_meta=meta,
            mps=float(values["mps"]),
            directory=directory,
        )


def build_patch_database(
    patches: Sequence[Patch],
    params: GridParams,
    db_dir: Path,
    memory_budget_entries: int | None = None,
    tmp_dir: Path | None = None,
    counters: dict[str, int] | None = None,
) -> PatchDatabase:
    """Index a patch collection into a fresh database directory.

    Appends the patches to an empty database as its first run (see
    add_patches): structure keys are assigned densely in input order, and
    the manifest entry total equals the sum of n*m over the indexed patches,
    exactly. Raises NoValidFrame when no patch yields a frame.
    """
    if not patches:
        raise ValueError("at least one patch is required")
    db_dir = Path(db_dir)
    empty = PatchDatabase(
        params=params,
        grid=DiskGrid(params=params, directory=db_dir / GRID_SUBDIR),
        patch_meta={},
        mps=0.0,
        directory=db_dir,
    )
    db = _append_run(empty, patches, memory_budget_entries, tmp_dir, counters)
    if db is None:
        raise NoValidFrame("no patch yields a frame")
    return db


def add_patches(
    db: PatchDatabase,
    patches: Sequence[Patch],
    memory_budget_entries: int | None = None,
    tmp_dir: Path | None = None,
    counters: dict[str, int] | None = None,
) -> PatchDatabase:
    """Append new patches as one fresh sorted run.

    Query results over the resulting multi-run grid equal results over a
    full rebuild with the combined patch list. Raises DuplicatePatchId if a
    patch id is already registered. Returns ``db`` unchanged when no patch
    yields a frame.
    """
    if not patches:
        return db
    return _append_run(db, patches, memory_budget_entries, tmp_dir, counters) or db


def _append_run(
    db: PatchDatabase,
    patches: Sequence[Patch],
    memory_budget_entries: int | None,
    tmp_dir: Path | None,
    counters: dict[str, int] | None,
) -> PatchDatabase | None:
    """Index patches into one new sorted run of ``db`` and commit it.

    Structure keys continue after the largest existing key. Patches without
    a single valid frame are excluded and counted under
    ``counters['patches_excluded']``; None is returned, and nothing written,
    when no patch is left. Write order is run file, patch_meta, db_params,
    then the grid manifest as commit point.
    """
    existing = db.patch_ids
    new_ids: set[str] = set()
    for patch in patches:
        if patch.patch_id in existing or patch.patch_id in new_ids:
            raise DuplicatePatchId(patch.patch_id)
        new_ids.add(patch.patch_id)

    streams = []
    meta = dict(db.patch_meta)
    build_stats: dict = {}
    next_key = max(meta) + 1 if meta else 0
    for patch in patches:
        frames = residue_frames(patch.atoms, counters=counters)
        if not frames:
            _count(counters, "patches_excluded")
            continue
        meta[next_key] = PatchMeta(
            next_key, patch.patch_id, patch.source_protein_id, len(patch.atoms), len(frames)
        )
        streams.append(_patch_entries(patch, frames, db.params, next_key, build_stats))
        next_key += 1
    if not streams:
        return None

    grid = DiskGrid(params=db.params, directory=db.grid.directory, runs=list(db.grid.runs))
    grid.directory.mkdir(parents=True, exist_ok=True)
    run_name = grid.next_run_name()
    info = build_sorted_run(
        itertools.chain.from_iterable(streams),
        db.params,
        grid.directory / run_name,
        memory_budget_entries=memory_budget_entries or DEFAULT_MEMORY_BUDGET,
        tmp_dir=tmp_dir,
    )
    grid.runs.append(info)
    updated = PatchDatabase(
        params=db.params,
        grid=grid,
        patch_meta=meta,
        mps=max(db.mps, build_stats.get("max_radius", 0.0)),
        directory=db.directory,
    )
    updated.save_metadata()
    grid.save_manifest()
    if counters is not None:
        counters["patches_indexed"] = len(meta) - len(db.patch_meta)
    return updated


def compact(db: PatchDatabase) -> PatchDatabase:
    """Merge all grid runs into one; metadata is unchanged."""
    from .grid import merge_runs

    merged = merge_runs(db.grid)
    return PatchDatabase(
        params=db.params,
        grid=merged,
        patch_meta=db.patch_meta,
        mps=db.mps,
        directory=db.directory,
    )
