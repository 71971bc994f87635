"""Query matching: MPS-clipped query grid, merge scan, scoring, thresholds.

The query structure gets one frame per complete residue, exactly like a
database patch, but only atoms within ``mps`` of the frame origin produce
entries. The query grid and database grid are then walked in lockstep by
z-value: each stored cell of either grid is read exactly once, and whenever
the two sides hold the same z, every database frame with c entries in the
cell adds c to its pair score with every query frame present in the cell.
The final score of a (database frame, query frame) pair is its matched-atom
count divided by the atom count of the patch owning the database frame,
which keeps scores in [0, 1].
"""

from __future__ import annotations

import heapq
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import NoValidFrame, ParamsMismatch, PatchGridError, UnknownRefId
from .geometry import point_norms, positions_array, transform_points
from .grid import (
    DEFAULT_MEMORY_BUDGET,
    CellEntry,
    CellIndex,
    DiskGrid,
    GridParams,
    RefId,
    build_sorted_run,
    cells_of_points,
    scan,
)
from .ingest import OriginTag, Patch, Protein, _count
from .preprocess import PatchDatabase, build_patch_database, residue_frames

DEFAULT_SCORE_BUDGET = 1_000_000

_PAIR_RECORD = struct.Struct("<IIIIQ")


@dataclass(frozen=True)
class MatchResult:
    """One thresholded (database frame, query frame) pair with its score."""

    db_ref_id: RefId
    query_ref_id: RefId
    score: float
    patch_id: str
    source_protein_id: str


class ScoreTable:
    """Aggregation map (db ref, query ref) -> matched count, spillable.

    Pairs live in a dict up to ``budget`` entries; beyond that the dict is
    written to disk as one sorted chunk and cleared. ``items()`` merges all
    chunks once, summing the counts of equal keys, and yields keys in
    ascending order whether or not the table spilled.
    """

    def __init__(self, budget: int = DEFAULT_SCORE_BUDGET, tmp_dir: Path | None = None):
        if budget < 1:
            raise ValueError("score table budget must be >= 1")
        self._live: dict[tuple[int, int, int, int], int] = {}
        self._budget = budget
        self._tmp_dir = tmp_dir
        self._spill_dir: str | None = None
        self._chunks: list[Path] = []
        self.spills = 0

    def add(self, db_ref: RefId, query_ref: RefId, count: int) -> None:
        key = (db_ref.structure_key, db_ref.residue_ordinal,
               query_ref.structure_key, query_ref.residue_ordinal)
        live = self._live
        live[key] = live.get(key, 0) + count
        if len(live) > self._budget:
            self._spill()

    def __len__(self) -> int:
        return len(self._live)

    def _spill(self) -> None:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(
                prefix="scoretable-", dir=str(self._tmp_dir) if self._tmp_dir else None
            )
        path = Path(self._spill_dir) / f"chunk_{len(self._chunks):06d}.bin"
        with open(path, "wb") as fh:
            for key, count in sorted(self._live.items()):
                fh.write(_PAIR_RECORD.pack(*key, count))
        self._chunks.append(path)
        self._live.clear()
        self.spills += 1

    @staticmethod
    def _read_chunk(path: Path) -> Iterator[tuple[tuple[int, int, int, int], int]]:
        with open(path, "rb") as fh:
            while True:
                blob = fh.read(_PAIR_RECORD.size * 4096)
                if not blob:
                    return
                for a, b, c, d, count in _PAIR_RECORD.iter_unpack(blob):
                    yield (a, b, c, d), count

    def items(self) -> Iterator[tuple[tuple[int, int, int, int], int]]:
        """Yield each (key, total count) pair exactly once, in ascending key order."""
        if not self._chunks:
            yield from sorted(self._live.items())
            return
        if self._live:
            self._spill()
        merged = heapq.merge(*map(self._read_chunk, self._chunks), key=lambda item: item[0])
        current: tuple[int, int, int, int] | None = None
        total = 0
        for key, count in merged:
            if key == current:
                total += count
            else:
                if current is not None:
                    yield current, total
                current, total = key, count
        if current is not None:
            yield current, total

    def close(self) -> None:
        for p in self._chunks:
            try:
                p.unlink()
            except OSError:
                pass
        if self._spill_dir is not None:
            try:
                os.rmdir(self._spill_dir)
            except OSError:
                pass
        self._chunks.clear()
        self._spill_dir = None


def build_query_grid(
    query: Protein,
    params: GridParams,
    mps: float,
    out_dir: Path,
    memory_budget_entries: int | None = None,
    tmp_dir: Path | None = None,
    structure_key: int = 0,
    counters: dict[str, int] | None = None,
) -> DiskGrid:
    """Build the z-sorted grid of the query, clipped to the mps radius.

    One frame per complete residue; per frame only atoms whose frame
    coordinates have norm <= mps produce entries. Query atoms can
    legitimately sit far from a frame, so out-of-extent entries are dropped
    and counted under ``counters['entries_out_of_extent']`` instead of
    failing. Raises NoValidFrame when the query has no usable residue.
    """
    if mps < 0:
        raise ValueError("mps must be non-negative")
    frames = residue_frames(query.atoms, counters=counters)
    if not frames:
        raise NoValidFrame(f"query {query.protein_id}: no residue yields a frame")
    points = positions_array(query.atoms)
    ordinals = [atom.atom_ordinal for atom in query.atoms]

    def entries() -> Iterator[tuple[CellIndex, CellEntry]]:
        for residue_ordinal, frame in frames:
            coords = transform_points(frame, points)
            keep = point_norms(coords) <= mps
            cells, in_extent = cells_of_points(coords, params)
            dropped = int((keep & ~in_extent).sum())
            if dropped:
                _count(counters, "entries_out_of_extent", dropped)
            keep &= in_extent
            ref = RefId(structure_key, residue_ordinal)
            for i in keep.nonzero()[0]:
                yield (
                    CellIndex(int(cells[i, 0]), int(cells[i, 1]), int(cells[i, 2])),
                    CellEntry(ref, ordinals[i]),
                )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    info = build_sorted_run(
        entries(),
        params,
        out_dir / "run_000000.bin",
        memory_budget_entries=memory_budget_entries or DEFAULT_MEMORY_BUDGET,
        tmp_dir=tmp_dir,
    )
    grid = DiskGrid(params=params, directory=out_dir, runs=[info])
    grid.save_manifest()
    return grid


def merge_scan_match(
    gp: DiskGrid,
    gq: DiskGrid,
    table: ScoreTable,
    stats: dict | None = None,
) -> ScoreTable:
    """Join two z-sorted grids in a single pass, updating the score table.

    When the two cursors sit on equal z, every distinct query ref in the
    query cell receives the per-ref entry counts of the database cell. Both
    cursors are driven to exhaustion so each stored cell of either grid is
    physically read exactly once (asserted via the cursors' read counters).
    """
    if gp.params != gq.params:
        raise ParamsMismatch(f"grid params differ: {gp.params} vs {gq.params}")
    cur_p = scan(gp)
    cur_q = scan(gq)
    try:
        cell_p = next(cur_p, None)
        cell_q = next(cur_q, None)
        while cell_p is not None and cell_q is not None:
            if cell_p.z < cell_q.z:
                cell_p = next(cur_p, None)
            elif cell_p.z > cell_q.z:
                cell_q = next(cur_q, None)
            else:
                counts: dict[RefId, int] = {}
                for entry in cell_p.entries:
                    counts[entry.ref_id] = counts.get(entry.ref_id, 0) + 1
                query_refs = {entry.ref_id for entry in cell_q.entries}
                for query_ref in query_refs:
                    for db_ref, count in counts.items():
                        table.add(db_ref, query_ref, count)
                cell_p = next(cur_p, None)
                cell_q = next(cur_q, None)
        # Drain both sides: a full scan reads every stored cell once.
        while cell_p is not None:
            cell_p = next(cur_p, None)
        while cell_q is not None:
            cell_q = next(cur_q, None)
        if stats is not None:
            stats["gp_cells_read"] = cur_p.physical_cells_read
            stats["gq_cells_read"] = cur_q.physical_cells_read
            stats["gp_cells_stored"] = gp.total_cells
            stats["gq_cells_stored"] = gq.total_cells
    finally:
        cur_p.close()
        cur_q.close()
    return table


def finalize_scores(table: ScoreTable, db: PatchDatabase) -> list[MatchResult]:
    """Normalize matched counts by patch atom count and order the results.

    Results are sorted by score descending; ties break on (patch id, query
    ref, database residue ordinal) so the ordering is total and runs are
    reproducible. Raises UnknownRefId when a table key references a
    structure key absent from the patch metadata.
    """
    results: list[MatchResult] = []
    for (db_key, db_residue, q_key, q_residue), count in table.items():
        meta = db.patch_meta.get(db_key)
        if meta is None:
            raise UnknownRefId(f"structure key {db_key} not in patch metadata")
        if count > meta.n_atoms:
            raise PatchGridError(
                f"corrupt score table: pair count {count} exceeds atom count "
                f"{meta.n_atoms} of patch {meta.patch_id}"
            )
        results.append(
            MatchResult(
                db_ref_id=RefId(db_key, db_residue),
                query_ref_id=RefId(q_key, q_residue),
                score=count / meta.n_atoms,
                patch_id=meta.patch_id,
                source_protein_id=meta.source_protein_id,
            )
        )
    results.sort(
        key=lambda r: (-r.score, r.patch_id, r.query_ref_id, r.db_ref_id.residue_ordinal)
    )
    return results


def threshold_filter(results: Iterable[MatchResult], tau_pp: float) -> list[MatchResult]:
    """Keep results with score >= tau_pp (boundary inclusive)."""
    if not (0.0 <= tau_pp <= 1.0):
        raise ValueError("tau_pp must be in [0, 1]")
    return [r for r in results if r.score >= tau_pp]


def match_query(
    query: Protein,
    db: PatchDatabase,
    tau_pp: float,
    tmp_dir: Path | None = None,
    memory_budget_entries: int | None = None,
    score_budget: int = DEFAULT_SCORE_BUDGET,
    stats: dict | None = None,
) -> list[MatchResult]:
    """Full pipeline: query grid, merge scan, normalization, threshold."""
    if not (0.0 <= tau_pp <= 1.0):
        raise ValueError("tau_pp must be in [0, 1]")
    with tempfile.TemporaryDirectory(
        prefix="query-", dir=str(tmp_dir) if tmp_dir else None
    ) as work:
        gq = build_query_grid(
            query,
            db.params,
            db.mps,
            Path(work) / "gq",
            memory_budget_entries=memory_budget_entries,
            tmp_dir=tmp_dir,
            counters=stats,
        )
        table = ScoreTable(budget=score_budget, tmp_dir=tmp_dir)
        try:
            merge_scan_match(db.grid, gq, table, stats=stats)
            results = finalize_scores(table, db)
        finally:
            table.close()
    if stats is not None:
        stats["pairs_scored"] = len(results)
    return threshold_filter(results, tau_pp)


def structural_identity(
    a: Protein,
    b: Protein,
    params: GridParams,
    tmp_dir: Path | None = None,
) -> float:
    """Whole-structure identity of ``a`` against ``b`` in [0, 1].

    ``b`` is indexed as a single pseudo-patch (all atoms, per-residue
    frames) and ``a`` is matched against it without any mps clipping; the
    identity is the maximum pair score. Raises NoValidFrame when either
    structure has no usable residue.
    """
    pseudo = Patch(
        patch_id=b.protein_id,
        source_protein_id=b.protein_id,
        atoms=b.atoms,
        origin_tag=OriginTag.Template,
    )
    with tempfile.TemporaryDirectory(
        prefix="identity-", dir=str(tmp_dir) if tmp_dir else None
    ) as work:
        db = build_patch_database([pseudo], params, Path(work) / "db", tmp_dir=tmp_dir)
        gq = build_query_grid(
            a, params, float("inf"), Path(work) / "gq", tmp_dir=tmp_dir
        )
        table = ScoreTable(tmp_dir=tmp_dir)
        try:
            merge_scan_match(db.grid, gq, table)
            results = finalize_scores(table, db)
        finally:
            table.close()
    return results[0].score if results else 0.0
