"""Database preprocessing: per-residue frames, entry streams, patch database.

For every residue owning a complete (CA, N, C) backbone triple, one
reference frame is generated and all patch atoms are expressed in it, so a
patch with n atoms and m usable residues contributes exactly n*m grid
entries. A structure's frames are built together (``residue_frames``: one
anchor lookup, one ``frames_from_triples`` call), and a patch's entries are
computed as columns (one transform of all its frames, one quantization, one
Morton pass) and streamed as ``(z, structure_key, residue_ordinal,
atom_ordinal)`` tuples into ``build_sorted_run``.

A database directory holds ``manifest.tsv`` and the run files
under ``grid/``. The tab-separated manifest is the database's only root:
``delta``, ``bits_per_axis`` and ``mps`` rows, one ``run`` row per run file
(file_name, n_cells, n_entries) and one ``patch`` row per patch
(structure_key, patch_id, source_protein_id, n_atoms, n_frames). An update
writes its run file first and commits by replacing the manifest in one
atomic rename, so an interrupted update leaves the old database or the new
one. Run files the manifest does not list are never read; an update that
picks the same run name overwrites them.

``mps`` is the maximum frame-origin-to-atom radius over all patches and
frames; the matcher clips query entries to that radius, and this definition
guarantees the clip never loses a true match.
"""

from __future__ import annotations

import itertools
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CorruptDatabase, DuplicatePatchId, NoValidFrame, OutOfExtent
from .geometry import AtomRecord, RigidFrame, frames_from_triples, point_norms, positions_array, transform_frames
from .grid import (
    DEFAULT_MEMORY_BUDGET,
    DiskGrid,
    GridParams,
    RunInfo,
    atomic_write_text,
    build_sorted_run,
    cells_of_points,
    merge_runs,
    morton_codes,
)
from .ingest import Patch, _count

ANCHOR_ATOM_NAMES = ("CA", "N", "C")

GRID_SUBDIR = "grid"
MANIFEST_FILE = "manifest.tsv"


class PatchMeta(NamedTuple):
    structure_key: int
    patch_id: str
    source_protein_id: str
    n_atoms: int
    n_frames: int


@dataclass(frozen=True, eq=False)
class ResidueFrames:
    """The frames of one structure, one per usable residue, as columns.

    ``residue_ordinals`` (m,), ``origins`` (m, 3) and ``bases`` (m, 3, 3)
    hold frame i's residue, origin and basis rows. Indexing and iteration
    give ``(residue_ordinal, RigidFrame)`` pairs, in residue order of first
    appearance.
    """

    residue_ordinals: np.ndarray
    origins: np.ndarray
    bases: np.ndarray

    def __len__(self) -> int:
        return len(self.residue_ordinals)

    def __getitem__(self, i: int) -> tuple[int, RigidFrame]:
        return int(self.residue_ordinals[i]), RigidFrame(self.origins[i], self.bases[i])


# Column of each anchor in a residue's anchor row; any other atom name maps
# to the spare column 3.
_ANCHOR_COLUMN = {name: i for i, name in enumerate(ANCHOR_ATOM_NAMES)}


def residue_frames(
    atoms: Sequence[AtomRecord],
    counters: dict[str, int] | None = None,
) -> ResidueFrames:
    """One frame per residue possessing CA, N and C atoms (first occurrence
    each), anchored in that order. Residues missing an anchor or with
    collinear anchors are skipped and counted.

    The anchors of every residue are looked up at once and all frames come
    from one ``frames_from_triples`` call.
    """
    n = len(atoms)
    residues = np.fromiter((a.residue_ordinal for a in atoms), dtype=np.int64, count=n)
    columns = np.fromiter((_ANCHOR_COLUMN.get(a.atom_name, 3) for a in atoms), dtype=np.int64, count=n)
    ordinals, first_atom = np.unique(residues, return_index=True)
    # anchor[r, k]: index of the first atom of residue r in column k, n if none.
    anchor = np.full((len(ordinals), 4), n)
    np.minimum.at(anchor, (np.searchsorted(ordinals, residues), columns), np.arange(n))
    order = np.argsort(first_atom)
    anchor, ordinals = anchor[order, :3], ordinals[order]
    complete = (anchor < n).all(axis=1)
    anchor, ordinals = anchor[complete], ordinals[complete]
    origins, bases, valid = frames_from_triples(*positions_array(atoms)[anchor.T])
    for key, kept in (("residues_missing_anchor", complete), ("residues_collinear", valid)):
        if not kept.all():
            _count(counters, key, int(len(kept) - kept.sum()))
    return ResidueFrames(ordinals[valid], origins[valid], bases[valid])


def insert_patch(
    patch: Patch,
    params: GridParams,
    structure_key: int = 0,
) -> Iterator[tuple[int, int, int, int]]:
    """Emit one grid entry per (frame, atom) pair of the patch.

    An entry is the tuple (z, structure_key, residue_ordinal, atom_ordinal):
    z is the Morton code of the atom's quantized frame coordinate, and the
    frame is the one of residue ``residue_ordinal``; a patch with n atoms
    and m frames yields exactly n*m entries. Raises NoValidFrame when no
    residue yields a frame (before any entry is produced); out-of-extent
    atoms raise OutOfExtent since database patches are small by
    construction.
    """
    frames = residue_frames(patch.atoms)
    if not frames:
        raise NoValidFrame(f"patch {patch.patch_id}: no residue yields a frame")
    return _patch_entries(patch, frames, params, structure_key, None)


def _patch_entries(patch, frames, params, structure_key, stats):
    # One transform of all frames, then quantization and Morton codes as
    # columns; the entries leave as tuples, one per stored entry.
    points = positions_array(patch.atoms)
    coords = transform_frames(frames.origins, frames.bases, points).reshape(-1, 3)
    if stats is not None:
        stats["max_radius"] = max(stats.get("max_radius", 0.0), float(point_norms(coords).max()))
    cells, in_extent = cells_of_points(coords, params)
    if not bool(in_extent.all()):
        bad = int((~in_extent).argmax()) % len(points)
        raise OutOfExtent(
            f"patch {patch.patch_id}: atom {patch.atoms[bad].atom_ordinal} quantizes outside the grid extent"
        )
    z = morton_codes(cells, params).tolist()
    residues = np.repeat(frames.residue_ordinals, len(points)).tolist()
    atom_ordinals = [atom.atom_ordinal for atom in patch.atoms] * len(frames)
    yield from zip(z, itertools.repeat(structure_key), residues, atom_ordinals)


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

    def save(self) -> None:
        """Commit the database by replacing its manifest in one atomic rename."""
        lines = [
            f"delta\t{self.params.delta!r}",
            f"bits_per_axis\t{self.params.bits_per_axis}",
            f"mps\t{self.mps!r}",
        ]
        lines += [f"run\t{r.file_name}\t{r.n_cells}\t{r.n_entries}" for r in self.grid.runs]
        lines += ["\t".join(map(str, ("patch", *m))) for _, m in sorted(self.patch_meta.items())]
        atomic_write_text(Path(self.directory) / MANIFEST_FILE, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, directory: Path) -> "PatchDatabase":
        """Read a database from its manifest and check it against its runs.

        Raises CorruptDatabase when a manifest row is missing or malformed,
        when the patches' sum of n_atoms*n_frames differs from the runs'
        entry total, or when a listed run file is missing or its size
        disagrees with its cell and entry counts.
        """
        directory = Path(directory)
        values: dict[str, str] = {}
        runs: list[RunInfo] = []
        meta: dict[int, PatchMeta] = {}
        manifest = directory / MANIFEST_FILE
        try:
            with open(manifest, "r", encoding="utf-8") as fh:
                for line in fh:
                    kind, *fields = line.rstrip("\n").split("\t")
                    if kind == "run":
                        name, n_cells, n_entries = fields
                        runs.append(RunInfo(name, int(n_cells), int(n_entries)))
                    elif kind == "patch":
                        key, patch_id, source_id, n_atoms, n_frames = fields
                        meta[int(key)] = PatchMeta(int(key), patch_id, source_id, int(n_atoms), int(n_frames))
                    else:
                        (values[kind],) = fields
            params = GridParams(delta=float(values["delta"]), bits_per_axis=int(values["bits_per_axis"]))
            mps = float(values["mps"])
        except KeyError as exc:
            raise CorruptDatabase(f"{manifest}: no {exc.args[0]} row") from exc
        except ValueError as exc:
            raise CorruptDatabase(f"{manifest}: malformed row: {exc}") from exc
        db = cls(
            params=params,
            grid=DiskGrid(params=params, directory=directory / GRID_SUBDIR, runs=runs),
            patch_meta=meta,
            mps=mps,
            directory=directory,
        )
        if db.expected_entries != db.grid.total_entries:
            raise CorruptDatabase(
                f"{directory}: patches account for {db.expected_entries} entries, "
                f"runs hold {db.grid.total_entries}"
            )
        for run in runs:
            path = db.grid.run_path(run)
            if not path.is_file() or path.stat().st_size != run.n_bytes:
                raise CorruptDatabase(f"{path}: missing or not {run.n_bytes} bytes long")
        return db


def build_patch_database(
    patches: Sequence[Patch],
    params: GridParams,
    db_dir: Path,
    memory_budget_entries: int = DEFAULT_MEMORY_BUDGET,
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
    memory_budget_entries: int = DEFAULT_MEMORY_BUDGET,
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
    memory_budget_entries: int,
    tmp_dir: Path | None,
    counters: dict[str, int] | None,
) -> PatchDatabase | None:
    """Index patches into one new sorted run of ``db`` and commit it.

    Structure keys continue after the largest existing key. Patches without
    a single valid frame are excluded and counted under
    ``counters['patches_excluded']``; None is returned, and nothing written,
    when no patch is left. The run file is written first, then the manifest
    is replaced as the commit point.
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
    info = build_sorted_run(
        itertools.chain.from_iterable(streams),
        grid.directory / grid.next_run_name(),
        memory_budget_entries=memory_budget_entries,
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
    updated.save()
    if counters is not None:
        counters["patches_indexed"] = len(meta) - len(db.patch_meta)
    return updated


def compact(db: PatchDatabase) -> PatchDatabase:
    """Merge all grid runs into one and commit it; metadata is unchanged.

    After the commit, every ``run_*.bin`` file in the grid directory that
    the committed manifest does not list is deleted: the old runs, and any
    left by an earlier compact interrupted before its deletes. A single-run
    database is not rewritten, but its unlisted run files are deleted too.
    """
    merged = merge_runs(db.grid)
    if merged is not db.grid:
        db = replace(db, grid=merged)
        db.save()
    listed = {run.file_name for run in db.grid.runs}
    for path in sorted(db.grid.directory.glob("run_*.bin")):
        if path.name not in listed:
            with suppress(OSError):
                path.unlink()
    return db
