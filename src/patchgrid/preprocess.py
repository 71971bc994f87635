"""Database preprocessing: per-residue frames, entry streams, patch database.

For every residue owning a complete (CA, N, C) backbone triple, one
reference frame is generated and all patch atoms are expressed in it, so a
patch with n atoms and m usable residues contributes exactly n*m grid
entries. Atoms are read only as ``Atoms`` columns. Patches are indexed in
groups whose entries fit the memory budget: a group's frames are built
together (``residue_frames``: one anchor lookup, one ``frame_from_triple``
call), each patch's atoms are transformed into all of its frames in one
call, and the group's entries are quantized and Morton-encoded in one pass,
then streamed as ``(z, structure_key, residue_ordinal, atom_ordinal)``
tuples into ``build_sorted_run``. When a patch lists its residues and
atoms in ordinal order, as parsed files do, the tuples come in (structure
key, residue, atom) order and the sort orders them by z alone.

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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CorruptDatabase, DuplicatePatchId, NoValidFrame, OutOfExtent
from .geometry import Atoms, RigidFrame, frame_from_triple, point_norms, transform_frames
from .grid import (
    DEFAULT_MEMORY_BUDGET,
    DiskGrid,
    GridParams,
    RunInfo,
    atomic_write_text,
    build_sorted_run,
    cells_of_points,
    merge_runs,
    morton_encode,
)
from .ingest import Patch, _count

ANCHOR_ATOM_NAMES = ("CA", "N", "C")

GRID_SUBDIR = "grid"
MANIFEST_FILE = "manifest.tsv"
# The manifest's one-value rows; each appears exactly once.
_SETTING_ROWS = ("delta", "bits_per_axis", "mps")
# Most entries a group of patches may bound (see _groups): the group's
# coordinate, cell and code columns stay a few MB beside the sort's buffer.
_GROUP_ENTRIES = 1 << 16
# Entries turned into tuples at a time (see _patch_entries).
_TUPLE_SLICE = 1 << 12


class PatchMeta(NamedTuple):
    structure_key: int
    patch_id: str
    source_protein_id: str
    n_atoms: int
    n_frames: int


@dataclass(frozen=True, eq=False)
class ResidueFrames:
    """The frames of one or more structures, one per usable residue, as columns.

    ``residue_ordinals`` (m,), ``origins`` (m, 3) and ``bases`` (m, 3, 3)
    hold frame i's residue, origin and basis rows, and ``structures`` (m,)
    the index of the structure it belongs to. Indexing and iteration give
    ``(residue_ordinal, RigidFrame)`` pairs, structure by structure and in
    residue order of first appearance within a structure.
    """

    residue_ordinals: np.ndarray
    origins: np.ndarray
    bases: np.ndarray
    structures: np.ndarray

    def __len__(self) -> int:
        return len(self.residue_ordinals)

    def __getitem__(self, i: int) -> tuple[int, RigidFrame]:
        return int(self.residue_ordinals[i]), RigidFrame(self.origins[i], self.bases[i])


def residue_frames(
    atoms: Atoms | Sequence[Atoms],
    counters: dict[str, int] | None = None,
) -> ResidueFrames:
    """One frame per residue possessing CA, N and C atoms (first occurrence
    each), anchored in that order. Residues missing an anchor or with
    collinear anchors are skipped and counted.

    ``atoms`` is one structure or a sequence of them, whose residues are told
    apart by structure. The anchors of every residue are looked up at once
    and all frames come from one ``frame_from_triple`` call.
    """
    parts = [atoms] if isinstance(atoms, Atoms) else list(atoms)
    sizes = [len(part) for part in parts]
    n = sum(sizes)
    residues = np.concatenate([part.residue_ordinals for part in parts])
    names = np.concatenate([part.atom_names for part in parts])
    columns = np.full(n, 3)
    for k, name in enumerate(ANCHOR_ATOM_NAMES):
        columns[names == name] = k
    # A residue is keyed by its structure and its ordinal within it.
    low = residues.min() if n else 0
    span = residues.max() - low + 1 if n else 1
    keys = np.repeat(np.arange(len(parts)), sizes) * span + (residues - low)
    _, first_atom, residue_of_atom = np.unique(keys, return_index=True, return_inverse=True)
    # anchor[r, k]: index of the first atom of residue r in column k, n if none.
    anchor = np.full((len(first_atom), 4), n)
    np.minimum.at(anchor, (residue_of_atom, columns), np.arange(n))
    order = np.argsort(first_atom)
    anchor, first_atom = anchor[order, :3], first_atom[order]
    complete = (anchor < n).all(axis=1)
    anchor, first_atom = anchor[complete], first_atom[complete]
    positions = np.concatenate([part.positions for part in parts])
    origins, bases, valid = frame_from_triple(*positions[anchor.T])
    for key, kept in (("residues_missing_anchor", complete), ("residues_collinear", valid)):
        if not kept.all():
            _count(counters, key, int(len(kept) - kept.sum()))
    first_atom = first_atom[valid]
    structures = np.searchsorted(np.cumsum(sizes), first_atom, side="right")
    return ResidueFrames(residues[first_atom], origins[valid], bases[valid], structures)


def _groups(patches: Sequence[Patch], limit: int):
    """Consecutive runs of patches, each holding one patch or bounding at
    most ``limit`` entries. A patch of n atoms has at most n // 3 frames,
    as each frame's three anchors are distinct atoms of its own residue, so
    it bounds n * (n // 3) entries."""
    group: list[Patch] = []
    bound = 0
    for patch in patches:
        n = len(patch.atoms)
        if group and bound + n * (n // 3) > limit:
            yield group
            group, bound = [], 0
        group.append(patch)
        bound += n * (n // 3)
    if group:
        yield group


def _patch_entries(patches, frames, params, keys, stats):
    # One group's entries leave as tuples, one per stored entry, built from
    # the group's columns a slice at a time: a whole group as Python ints
    # would hold several MB while the sort runs.
    columns = _entry_columns(patches, frames, params, keys, stats)
    for start in range(0, len(columns[0]), _TUPLE_SLICE):
        yield from zip(*(column[start:start + _TUPLE_SLICE].tolist() for column in columns))


def _entry_columns(patches, frames, params, keys, stats):
    """A group's (z, structure key, residue ordinal, atom ordinal) columns.

    Each patch's atoms are transformed into all its frames in one call,
    then quantized and Morton-encoded over the group's columns. A patch
    with no frame adds none, and keys[j] is patch j's structure key.
    """
    bounds = np.searchsorted(frames.structures, np.arange(len(patches) + 1)).tolist()
    framed = [(patch, lo, hi) for patch, lo, hi in zip(patches, bounds, bounds[1:]) if hi > lo]
    coords = np.concatenate([
        transform_frames(frames.origins[lo:hi], frames.bases[lo:hi], patch.atoms.positions).reshape(-1, 3)
        for patch, lo, hi in framed
    ])
    sizes = np.array([len(patch.atoms) for patch in patches])
    frame_sizes = sizes[frames.structures]
    frame_of = np.repeat(np.arange(len(frames)), frame_sizes)
    # Entry i is atom i - first_entry[f] of its frame f's patch, which is
    # row first_atom[patch] of the group's concatenated atom ordinals.
    first_entry = np.cumsum(frame_sizes) - frame_sizes
    first_atom = np.cumsum(sizes) - sizes
    atom_row = np.arange(len(frame_of)) - (first_entry - first_atom[frames.structures])[frame_of]
    atom_of = np.concatenate([patch.atoms.atom_ordinals for patch in patches])[atom_row]
    if stats is not None:
        stats["max_radius"] = max(stats.get("max_radius", 0.0), float(point_norms(coords).max()))
    cells, in_extent = cells_of_points(coords, params)
    if not bool(in_extent.all()):
        bad = int((~in_extent).argmax())
        patch = patches[frames.structures[frame_of[bad]]]
        raise OutOfExtent(f"patch {patch.patch_id}: atom {atom_of[bad]} quantizes outside the grid extent")
    structure_keys = np.asarray(keys)[frames.structures][frame_of]
    return morton_encode(cells, params), structure_keys, frames.residue_ordinals[frame_of], atom_of


@dataclass
class PatchDatabase:
    """An indexed patch collection: disk grid plus per-patch metadata."""

    grid: DiskGrid
    patch_meta: dict[int, PatchMeta]
    mps: float
    directory: Path

    @property
    def params(self) -> GridParams:
        return self.grid.params

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

        Raises CorruptDatabase when a manifest row is missing, malformed,
        repeated or of unknown kind, when a run name is not a bare file
        name, when two patch rows share a patch id, when the patches' sum of
        n_atoms*n_frames differs from the runs' entry total, or when a
        listed run file is missing or its size disagrees with its cell and
        entry counts.
        """
        directory = Path(directory)
        values: dict[str, str] = {}
        runs: list[RunInfo] = []
        meta: dict[int, PatchMeta] = {}
        patch_ids: set[str] = set()
        manifest = directory / MANIFEST_FILE
        try:
            with open(manifest, "r", encoding="utf-8") as fh:
                for line in fh:
                    kind, *fields = line.rstrip("\n").split("\t")
                    if kind == "run":
                        name, n_cells, n_entries = fields
                        if Path(name).name != name or name in ("", ".."):
                            raise CorruptDatabase(f"{manifest}: run name {name!r} is not a file name")
                        runs.append(RunInfo(name, int(n_cells), int(n_entries)))
                    elif kind == "patch":
                        key, patch_id, source_id, n_atoms, n_frames = fields
                        if int(key) in meta:
                            raise CorruptDatabase(f"{manifest}: repeated patch row for key {key}")
                        if patch_id in patch_ids:
                            raise CorruptDatabase(f"{manifest}: repeated patch id {patch_id!r}")
                        patch_ids.add(patch_id)
                        meta[int(key)] = PatchMeta(int(key), patch_id, source_id, int(n_atoms), int(n_frames))
                    elif kind in _SETTING_ROWS:
                        if kind in values:
                            raise CorruptDatabase(f"{manifest}: repeated {kind} row")
                        (values[kind],) = fields
                    else:
                        raise CorruptDatabase(f"{manifest}: unknown row kind {kind!r}")
            params = GridParams(delta=float(values["delta"]), bits_per_axis=int(values["bits_per_axis"]))
            mps = float(values["mps"])
        except KeyError as exc:
            raise CorruptDatabase(f"{manifest}: no {exc.args[0]} row") from exc
        except ValueError as exc:
            raise CorruptDatabase(f"{manifest}: malformed row: {exc}") from exc
        db = cls(
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
    when no patch is left. Every group's frames are built before any entry
    is generated, and each group's entries are generated as the sort takes
    them. The run file is written first, then the manifest is replaced as
    the commit point.
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
    for group in _groups(patches, min(memory_budget_entries, _GROUP_ENTRIES)):
        frames = residue_frames([patch.atoms for patch in group], counters=counters)
        keys = []
        for patch, m in zip(group, np.bincount(frames.structures, minlength=len(group)).tolist()):
            keys.append(next_key if m else -1)
            if not m:
                _count(counters, "patches_excluded")
                continue
            meta[next_key] = PatchMeta(next_key, patch.patch_id, patch.source_protein_id, len(patch.atoms), m)
            next_key += 1
        if len(frames):
            streams.append(_patch_entries(group, frames, db.params, keys, build_stats))
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
