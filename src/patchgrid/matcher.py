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

Scores stay columnar from the merge scan to the threshold: the score table
buffers one increment row per (database frame, query frame, count) and
reduces the rows with numpy, ``budget`` buffered rows at a time, spilling
each reduced block as one sorted chunk; the final merge concatenates and
reduces every chunk row in memory. The threshold is applied to the raw
counts, so a ``MatchResult`` is built only for a pair that is kept.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

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
from .preprocess import PatchDatabase, PatchMeta, build_patch_database, residue_frames

DEFAULT_SCORE_BUDGET = 1_000_000

# One score row: packed database ref, packed query ref, matched count. A ref
# packs as structure_key << 32 | residue_ordinal, both u32 as in run files,
# so ascending packed keys are ascending (db ref, query ref) tuples.
_PAIR_DTYPE = np.dtype([("db", "<u8"), ("q", "<u8"), ("count", "<u8")])
_LOW32 = 0xFFFFFFFF


@dataclass(frozen=True)
class MatchResult:
    """One thresholded (database frame, query frame) pair with its score."""

    db_ref_id: RefId
    query_ref_id: RefId
    score: float
    patch_id: str
    source_protein_id: str


def _reduce_pairs(rows: np.ndarray) -> np.ndarray:
    """Sort score rows by (db, q) and sum the counts of equal keys."""
    if not len(rows):
        return rows
    rows = rows[np.lexsort((rows["q"], rows["db"]))]
    db, q = rows["db"], rows["q"]
    starts = np.flatnonzero(np.concatenate(([True], (db[1:] != db[:-1]) | (q[1:] != q[:-1]))))
    reduced = rows[starts]
    reduced["count"] = np.add.reduceat(rows["count"], starts)
    return reduced


class ScoreTable:
    """Aggregation of (db ref, query ref) -> matched count, spillable.

    ``add`` appends increment rows to flat lists of packed keys; once more
    than ``budget`` rows are buffered, they are sorted and reduced with
    numpy and written to disk as one sorted chunk. ``pairs()`` concatenates
    every chunk with the reduced buffer and reduces them once, so the final
    merge holds every chunk row in memory.
    """

    def __init__(self, budget: int = DEFAULT_SCORE_BUDGET, tmp_dir: Path | None = None):
        if budget < 1:
            raise ValueError("score table budget must be >= 1")
        self._db: list[int] = []
        self._q: list[int] = []
        self._counts: list[int] = []
        self._budget = budget
        self._tmp_dir = tmp_dir
        self._spill_dir: str | None = None
        self._chunks: list[Path] = []
        self.spills = 0

    def add(
        self,
        db_refs: Sequence[RefId],
        query_refs: Sequence[RefId],
        counts: Sequence[int],
    ) -> None:
        """Add ``counts[i]`` to the pair (db_refs[i], q) for every q in query_refs."""
        db_keys = [sk << 32 | ro for sk, ro in db_refs]
        for sk, ro in query_refs:
            self._q.extend([sk << 32 | ro] * len(db_keys))
        self._db.extend(db_keys * len(query_refs))
        self._counts.extend(list(counts) * len(query_refs))
        if len(self._db) > self._budget:
            self._spill()

    def _buffered(self) -> np.ndarray:
        rows = np.empty(len(self._db), dtype=_PAIR_DTYPE)
        rows["db"] = self._db
        rows["q"] = self._q
        rows["count"] = self._counts
        return _reduce_pairs(rows)

    def _spill(self) -> None:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(
                prefix="scoretable-", dir=str(self._tmp_dir) if self._tmp_dir else None
            )
        path = Path(self._spill_dir) / f"chunk_{len(self._chunks):06d}.bin"
        self._buffered().tofile(path)
        self._chunks.append(path)
        self._db.clear()
        self._q.clear()
        self._counts.clear()
        self.spills += 1

    def pairs(self) -> np.ndarray:
        """Every reduced pair once, in ascending (db, q) key order, as ``_PAIR_DTYPE`` rows."""
        if not self._chunks:
            return self._buffered()
        chunks = [np.fromfile(p, dtype=_PAIR_DTYPE) for p in self._chunks]
        return _reduce_pairs(np.concatenate([*chunks, self._buffered()]))

    def items(self) -> Iterator[tuple[tuple[int, int, int, int], int]]:
        """Yield ((db sk, db ro, q sk, q ro), total count) from ``pairs()``, in key order."""
        for db, q, count in self.pairs().tolist():
            yield (db >> 32, db & _LOW32, q >> 32, q & _LOW32), count

    def close(self) -> None:
        for p in self._chunks:
            with suppress(OSError):
                p.unlink()
        if self._spill_dir is not None:
            with suppress(OSError):
                os.rmdir(self._spill_dir)
        self._chunks.clear()
        self._spill_dir = None


@dataclass(frozen=True)
class ScoredPairs:
    """Every scored pair, columnar: reduced score rows plus each row's patch atom count."""

    pairs: np.ndarray
    n_atoms: np.ndarray
    patch_meta: Mapping[int, PatchMeta]

    def __len__(self) -> int:
        return len(self.pairs)


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
    return DiskGrid(params=params, directory=out_dir, runs=[info])


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
                table.add(list(counts), list(query_refs), list(counts.values()))
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


def finalize_scores(table: ScoreTable, db: PatchDatabase) -> ScoredPairs:
    """Attach to every reduced pair the atom count of the patch owning its db frame.

    Raises UnknownRefId when a pair references a structure key absent from
    the patch metadata, and PatchGridError when a pair count exceeds the
    patch's atom count.
    """
    pairs = table.pairs()
    keys, row_key = np.unique(pairs["db"] >> 32, return_inverse=True)
    metas = []
    for key in keys.tolist():
        meta = db.patch_meta.get(key)
        if meta is None:
            raise UnknownRefId(f"structure key {key} not in patch metadata")
        metas.append(meta)
    n_atoms = np.array([m.n_atoms for m in metas], dtype=np.uint64)[row_key]
    over = np.flatnonzero(pairs["count"] > n_atoms)
    if over.size:
        i = over[0]
        raise PatchGridError(
            f"corrupt score table: pair count {pairs['count'][i]} exceeds atom count "
            f"{n_atoms[i]} of patch {metas[row_key[i]].patch_id}"
        )
    return ScoredPairs(pairs, n_atoms, db.patch_meta)


def threshold_filter(scored: ScoredPairs, tau_pp: float) -> list[MatchResult]:
    """Keep pairs with score = count / n_atoms >= tau_pp (boundary inclusive).

    The float64 division is the correctly rounded one Python's ``int / int``
    does, so scores are the same floats. Results are sorted by score
    descending; ties break on (patch id, query ref, database residue
    ordinal) so the ordering is total and runs are reproducible.
    """
    if not (0.0 <= tau_pp <= 1.0):
        raise ValueError("tau_pp must be in [0, 1]")
    scores = scored.pairs["count"] / scored.n_atoms
    kept = np.flatnonzero(scores >= tau_pp)
    results = []
    for (db_key, q_key, _), score in zip(scored.pairs[kept].tolist(), scores[kept].tolist()):
        meta = scored.patch_meta[db_key >> 32]
        results.append(
            MatchResult(
                db_ref_id=RefId(db_key >> 32, db_key & _LOW32),
                query_ref_id=RefId(q_key >> 32, q_key & _LOW32),
                score=score,
                patch_id=meta.patch_id,
                source_protein_id=meta.source_protein_id,
            )
        )
    results.sort(
        key=lambda r: (-r.score, r.patch_id, r.query_ref_id, r.db_ref_id.residue_ordinal)
    )
    return results


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
            scored = finalize_scores(table, db)
        finally:
            table.close()
    if stats is not None:
        stats["pairs_scored"] = len(scored)
        stats["score_spills"] = table.spills
    return threshold_filter(scored, tau_pp)


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
        results = match_query(a, replace(db, mps=float("inf")), 0.0, tmp_dir=tmp_dir)
    return results[0].score if results else 0.0
