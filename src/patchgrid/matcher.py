"""Query matching: MPS-clipped query grid, merge scan, scoring, thresholds.

The query structure gets one frame per complete residue, exactly like a
database patch, but only atoms within ``mps`` of the frame origin produce
entries. The query grid and database grid are then read in batches of
cells, and the batches matched by z: each stored cell of either grid is
read exactly once, and whenever the two sides hold the same z, every
database frame with c entries in the cell adds c to its pair score with
every query frame present in the cell.
The final score of a (database frame, query frame) pair is its matched-atom
count divided by the atom count of the patch owning the database frame,
which keeps scores in [0, 1].

The query grid stays in memory while its entries fit the memory budget:
it is then the bytes of its run, encoded as a run file is but never
written, and the run reader reads them in place, so such a query makes no
directory and writes no file. Only a query grid past the budget is sorted
into a run file, in a temporary directory that lives as long as the query.

The read path is columnar from the run to the threshold. Each cell
arrives as a ``(count, 3)`` uint32 array, and the matched cells' arrays are
collected and scored in batches of about the score table's ``budget``
entries (``DEFAULT_SCORE_BUDGET`` in ``score_query``): a cell's distinct
frames and their entry counts are the runs of equal packed (structure key,
residue ordinal) keys in its sorted entries, and a cold cell's cross product
becomes increment rows built with ``np.repeat``. A row is keyed by one
integer, the dense database index times the number of query frames plus the
dense query index over the batch's sorted distinct keys. When that key space
holds at most four keys per row, as on the benchmark's queries, the batch is
dense: its rows are summed straight into one count per key, at most
``min(budget, _GROUP_ENTRIES)`` rows at a time, and the batch is kept as one
reduced block of its nonzero pairs, so no row outlives its chunk. A sparse
batch buffers its rows, ``budget`` at a time; beyond ``budget`` buffered rows
the buffer is reduced in memory, by one sort of the key, to one block of
distinct pairs. The final merge reduces the blocks with the buffer once, or
takes a lone reduced block as it is. The scored pairs stay that one block
(``_Block``) through the hot-cell recount to the threshold, which is applied
to the raw counts, so a ``MatchResult`` is built only for a pair that is
kept. ``score_query`` ends at that block, as ``ScoredPairs``: ``match_query``
thresholds it, and ``structural_identity`` takes each source's best score
from it without building a ``MatchResult``.

Each column of that path is held at the width an exact bound allows, since
numpy integers wrap silently. A frame's entry count in a cell is uint32 (a
cell's count is a u32) and cell numbers are int32. A pair key is int32
while its key space is below 2^31. A pair (f, q) gains f's count from each
cell that also holds q, so no pair sum in a batch exceeds f's entry total
in it: a batch's counts and sums take the narrowest unsigned type that
holds its largest per-frame total (uint8 on the benchmark's queries). A
reduction widens its counts only as far as its total count needs, and
``_merge`` promotes columns only where blocks of different widths meet.

Hot cells. Every frame puts its own anchor atoms (CA, N, C) in the same few
cells, so those cells cross nearly every database frame with every query
frame, yet none of them can decide a match alone. ``score_query`` therefore
marks a matched cell *hot*, during the scan, when its fan-in (distinct
database frames times distinct query frames) exceeds the internal cutoff
``_HOT_FANIN``. A hot cell adds no rows to the score table; the table's
``hot`` collector keeps it in memory as its database keys, their entry
counts and its query keys, and each database frame f sums its hot-cell
counts into ``hot_max[f]``. A pair
(f, q) then scores at most ``cold(f, q) + hot_max[f]``, where ``cold`` is
its score-table count, because q can gain at most f's own count from each
hot cell. After the scan a cold pair stays a candidate only if that bound
passes the threshold, and a frame whose ``hot_max`` alone passes it is
crossed with every query frame of the hot cells, which covers pairs that
met only in hot cells. Each candidate then gets its exact count, the cold
count plus f's count in every hot cell that also holds q, and pairs with
count 0 are dropped. A candidate visits only the hot cells holding f and
looks q up in a boolean membership row of each, so the recount costs the
candidates' hot-cell memberships, not hot cells times candidates. The
bound uses the threshold's own float64 ``count / n_atoms >= tau_pp`` test,
which is monotone in the count: each frame gets the smallest integer count
that passes it, and a cold pair stays when its count reaches that count
less ``hot_max[f]``. So no pair that reaches the threshold is pruned, and
the results equal the unpruned ones for any choice of hot cells; the cutoff
only trades table rows against recount work.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import NoValidFrame, ParamsMismatch, PatchGridError, UnknownRefId
from .geometry import point_norms, transform_frames
from .grid import (
    DEFAULT_MEMORY_BUDGET,
    RUN_RECORD,
    Cell,
    DiskGrid,
    GridCursor,
    GridParams,
    MemoryGrid,
    RefId,
    cells_of_points,
    morton_encode,
    sort_grid,
)
from .ingest import OriginTag, Patch, Protein, _count
from .preprocess import _GROUP_ENTRIES, PatchDatabase, PatchMeta, build_patch_database, residue_frames

DEFAULT_SCORE_BUDGET = 1_000_000

# A matched cell is hot when its fan-in (distinct database frames times
# distinct query frames) exceeds this. Any value gives the same results; it
# trades score-table rows against hot-cell recount work. On the benchmark's
# M database 3,000 to 30,000 ran at equal speed and 1,000 was slower.
_HOT_FANIN = 10_000

# Cells a merge scan takes from each cursor at a time.
_SCAN_BATCH = 1 << 10

# A ref packs as structure_key << 32 | residue_ordinal, both u32 as in run
# files, so ascending packed keys are ascending (db ref, query ref) tuples.
_LOW32 = 0xFFFFFFFF


@dataclass(frozen=True)
class MatchResult:
    """One thresholded (database frame, query frame) pair with its score."""

    db_ref_id: RefId
    query_ref_id: RefId
    score: float
    patch_id: str
    source_protein_id: str


class _Block(NamedTuple):
    """Score rows keyed by one integer: ``pair = db index * len(q) + q index``
    into the sorted, distinct packed keys ``db`` and ``q``."""

    db: np.ndarray
    q: np.ndarray
    pair: np.ndarray
    count: np.ndarray


def _index_type(bound: int) -> type:
    """int32 while every index below ``bound`` fits it, else int64."""
    return np.int32 if bound < 2**31 else np.int64


def _nonzero(values: np.ndarray, dtype: type) -> np.ndarray:
    """The indices of the nonzero values, ascending, as ``dtype``.

    numpy finds the nonzero items of an integer or float array several
    times slower than those of a bool mask, so each chunk of at most
    ``_GROUP_ENTRIES`` values is compared with 0 first. A mask of every
    value at once would be one more temporary as long as the values.
    """
    found = np.empty(np.count_nonzero(values), dtype=dtype)
    at = 0
    for start in range(0, len(values), _GROUP_ENTRIES):
        chunk = np.flatnonzero(values[start:start + _GROUP_ENTRIES] != 0)
        chunk += start
        found[at:at + len(chunk)] = chunk
        at += len(chunk)
    return found


def _reduce(block: _Block) -> _Block:
    """Sum the counts of equal pair keys; the keys come out ascending.

    Counts must be positive. Small key spaces are summed densely with
    ``np.bincount``, larger ones by sorting the one key column. Keys keep
    their type; counts widen only as far as the block's total count needs.
    """
    pair, count = block.pair, block.count
    size = len(block.db) * len(block.q)
    # No sum exceeds the block's total count.
    width = np.promote_types(count.dtype, np.min_scalar_type(int(count.sum(dtype=np.uint64))))
    if size <= 4 * len(pair):
        sums = np.bincount(pair, weights=count, minlength=size)
        pair = _nonzero(sums, pair.dtype)
        count = sums[pair].astype(width)
    elif len(pair):
        order = np.argsort(pair)  # equal keys' counts are summed in any order
        pair, count = pair[order], count[order]
        starts = np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1])))
        pair, count = pair[starts], np.add.reduceat(count, starts, dtype=width)
    return _Block(block.db, block.q, pair, count)


def _distinct(*arrays: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-D ``arrays``, ascending, in their
    common type: what ``np.union1d`` and a bare ``np.unique`` give, by an
    unstable sort and a drop of equal neighbours, which keeps off the slower
    hash path numpy 2.4 takes for those calls."""
    values = np.sort(np.concatenate(arrays))
    kept = np.ones(len(values), dtype=bool)
    kept[1:] = values[1:] != values[:-1]
    return values[kept]


def _merge(blocks: list[_Block]) -> _Block:
    """One block over the union of the blocks' keys, rows concatenated.

    Keys take the type the union's key space needs, and counts the widest
    of the blocks' count types.
    """
    if len(blocks) == 1:
        return blocks[0]
    db = _distinct(*(b.db for b in blocks))
    q = _distinct(*(b.q for b in blocks))
    key_type = _index_type(len(db) * len(q))
    pair = [
        np.searchsorted(db, b.db).astype(key_type)[b.pair // len(b.q)] * len(q)
        + np.searchsorted(q, b.q).astype(key_type)[b.pair % len(b.q)]
        for b in blocks
    ]
    return _Block(db, q, np.concatenate(pair), np.concatenate([b.count for b in blocks]))


def _decode(block: _Block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block's packed database refs, packed query refs and counts, in pair-key order."""
    n_q = max(len(block.q), 1)
    return block.db[block.pair // n_q], block.q[block.pair % n_q], block.count


def _expand(lo: np.ndarray, width: np.ndarray, limit: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Enumerate ``(i, lo[i] + k)`` for every i and k < width[i], in chunks.

    Yields ``(item, index)`` arrays of about ``limit`` rows each (a single
    item wider than ``limit`` makes a chunk of its own). The running row
    ends are int64, since the rows can pass 2^31, and so are the chunks:
    numpy converts any narrower index array to intp each time it indexes.
    """
    ends = np.cumsum(width, dtype=np.int64)
    first = 0
    while first < len(width):
        base = ends[first] - width[first]
        last = max(int(np.searchsorted(ends, base + limit, "right")), first + 1)
        items = slice(first, last)
        item = np.repeat(np.arange(first, last), width[items])
        # lo[i] + (row - start of i): the row plus its item's shift
        index = np.repeat(lo[items] - (ends[items] - width[items]), width[items])
        index += np.arange(base, base + len(item))
        yield item, index
        first = last


class ScoreTable:
    """In-memory aggregation of (db ref, query ref) -> matched count.

    ``add`` takes one batch of matched cells as numpy columns. Each cell's
    cross product is a set of increment rows keyed by one integer (dense
    database index times dense query index, see ``_Block``). A dense batch,
    whose key space holds at most four keys per row, is summed into one
    count per key, at most ``min(budget, _GROUP_ENTRIES)`` rows at a time,
    and kept as one reduced block. A sparse batch's rows are buffered,
    ``budget`` at a time; once more than ``budget`` rows are buffered,
    ``_spill`` reduces them to one block of distinct pairs, kept in memory,
    and ``spills`` counts those reductions of buffered sparse rows.
    ``reduced()`` merges the reduced blocks with the buffer and reduces them
    once, or returns a lone reduced block as it is, so each block's
    distinct pairs are held until then. Keys and counts are as narrow as
    their bounds allow (see the module docstring): a dense batch's pair
    holds an int32 key and a count of the batch's per-frame total type.

    The table owns the query's hot cells as ``hot``, a ``HotCells``: the
    merge scan sends a matched cell whose fan-in exceeds ``fanin`` there
    instead of to ``add``. The default ``fanin`` makes no cell hot, so
    ``items()`` is then the full join. ``score_query`` builds its table from
    the module constants ``DEFAULT_SCORE_BUDGET`` and ``_HOT_FANIN``; they
    are internal and not options of any entry point.
    """

    def __init__(self, budget: int = DEFAULT_SCORE_BUDGET, fanin: float = math.inf):
        if budget < 1:
            raise ValueError("score table budget must be >= 1")
        self.budget = budget
        self.hot = HotCells(fanin)
        self._blocks: list[_Block] = []
        self._buffered = 0
        self._reduced: list[_Block] = []
        self.spills = 0
        self.rows = 0

    def add(
        self,
        db_keys: np.ndarray,
        counts: np.ndarray,
        db_cells: np.ndarray,
        q_keys: np.ndarray,
        q_cells: np.ndarray,
    ) -> None:
        """Add ``counts[i]`` to the pair (db_keys[i], q_keys[j]) for every j
        with ``q_cells[j] == db_cells[i]``.

        Keys are packed refs; cell numbers are non-negative integers and
        ``q_cells`` ascends; counts are positive.
        """
        db, db_index = np.unique(db_keys, return_inverse=True)
        # A pair (f, q) gains f's count from each cell that also holds q, so
        # no pair's sum in the batch exceeds f's entry total in the batch.
        total = np.bincount(db_index, weights=counts).max(initial=0)
        counts = np.asarray(counts, dtype=np.min_scalar_type(int(total)))
        q, q_index = np.unique(q_keys, return_inverse=True)
        size = len(db) * len(q)
        key_type = _index_type(size)
        db_index, q_index = db_index.astype(key_type), q_index.astype(key_type)
        # Each database row meets its cell's run of query rows.
        per_cell = np.bincount(q_cells, minlength=int(np.max(db_cells, initial=-1)) + 1)
        per_cell = per_cell.astype(_index_type(len(q_cells) + 1))
        width = per_cell[db_cells]
        lo = np.cumsum(per_cell, dtype=per_cell.dtype)
        lo -= per_cell
        lo = lo[db_cells]
        del per_cell
        rows = int(width.sum())
        self.rows += rows
        if size <= 4 * rows:
            # Dense, by _reduce's rule: sum the rows straight into one count
            # per pair, in the counts' type.
            sums = np.zeros(size, dtype=counts.dtype)
            for item, q_item in _expand(lo, width, min(self.budget, _GROUP_ENTRIES)):
                pair = db_index[item]
                pair *= len(q)
                pair += q_index[q_item]
                np.add.at(sums, pair, counts[item])
            del db_index, q_index, lo, width  # freed before the pair keys are listed
            pair = _nonzero(sums, key_type)
            self._reduced.append(_Block(db, q, pair, sums[pair]))
            return
        for item, q_item in _expand(lo, width, self.budget):
            pair = db_index[item]
            pair *= len(q)
            pair += q_index[q_item]
            self._blocks.append(_Block(db, q, pair, counts[item]))
            self._buffered += len(item)
            if self._buffered > self.budget:
                self._spill()

    def _spill(self) -> None:
        self._reduced.append(_reduce(_merge(self._blocks)))
        self._blocks = []
        self._buffered = 0
        self.spills += 1

    def reduced(self) -> _Block:
        """Every pair once with its total count, pair keys ascending."""
        blocks = self._reduced + self._blocks
        if not blocks:
            empty = np.empty(0, dtype=np.uint64)
            return _Block(empty, empty, empty.astype(np.int32), empty.astype(np.uint8))
        if len(self._reduced) == 1 and not self._blocks:
            return self._reduced[0]
        return _reduce(_merge(blocks))

    def items(self) -> Iterator[tuple[tuple[int, int, int, int], int]]:
        """Yield ((db sk, db ro, q sk, q ro), total count) for every reduced pair, in key order."""
        for db, q, count in zip(*(column.tolist() for column in _decode(self.reduced()))):
            yield (db >> 32, db & _LOW32, q >> 32, q & _LOW32), count


class HotCells:
    """The matched cells whose fan-in exceeds ``fanin``, held out of the score table.

    ``add`` takes cells in ``ScoreTable.add``'s columns and renumbers them
    0, 1, ... in arrival order; ``columns()`` returns every hot cell's
    database keys, their counts and cell numbers, then its query keys and
    their cell numbers.
    """

    def __init__(self, fanin: float):
        self.fanin = fanin
        self.n_cells = 0
        self._columns: list[tuple[np.ndarray, ...]] = []

    def add(
        self,
        db_keys: np.ndarray,
        counts: np.ndarray,
        db_cells: np.ndarray,
        q_keys: np.ndarray,
        q_cells: np.ndarray,
    ) -> None:
        cells, db_cells = np.unique(db_cells, return_inverse=True)
        q_cells = np.searchsorted(cells, q_cells)
        cell_type = _index_type(self.n_cells + len(cells))
        self._columns.append((
            np.asarray(db_keys, dtype=np.uint64), np.asarray(counts),
            db_cells.astype(cell_type) + self.n_cells,
            np.asarray(q_keys, dtype=np.uint64), q_cells.astype(cell_type) + self.n_cells,
        ))
        self.n_cells += len(cells)

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(np.concatenate(column) for column in zip(*self._columns))


@dataclass(frozen=True)
class ScoredPairs:
    """Every scored pair, columnar: the reduced pairs as one ``_Block`` plus
    each pair's patch atom count, in pair-key order."""

    pairs: _Block
    n_atoms: np.ndarray
    patch_meta: Mapping[int, PatchMeta]

    def __len__(self) -> int:
        return len(self.pairs.pair)


def build_query_grid(
    query: Protein,
    params: GridParams,
    mps: float,
    out_dir: Path | Callable[[], Path],
    memory_budget_entries: int = DEFAULT_MEMORY_BUDGET,
    tmp_dir: Path | None = None,
    counters: dict[str, int] | None = None,
) -> MemoryGrid | DiskGrid:
    """Build the z-sorted grid of the query, clipped to the mps radius.

    One frame per complete residue, all under structure key 0; per frame
    only atoms whose frame coordinates have norm <= mps produce entries.
    Query atoms can legitimately sit far from a frame, so out-of-extent
    entries are dropped and counted under
    ``counters['entries_out_of_extent']`` instead of failing. The frames
    are taken in groups of at most ``min(memory_budget_entries,
    _GROUP_ENTRIES)`` (frame, atom) pairs, the bound of the indexer's patch
    groups; each group is transformed in one call, then clipped, quantized
    and Morton-encoded as columns.

    ``sort_grid`` sorts the groups' records with the external sort of
    ``sort_run``. While they total at most ``memory_budget_entries`` the
    grid is a ``MemoryGrid``, whose run is byte for byte the run file of
    the same records, and nothing is written. Only records past the budget
    spill, as sorted chunks under ``tmp_dir``; the run is then written
    into ``out_dir``, a directory or a function returning one that is
    called only then, and the grid is a one-run ``DiskGrid``. Raises
    NoValidFrame when the query has no usable residue, and ValueError for
    a budget below 2 entries.
    """
    if mps < 0:
        raise ValueError("mps must be non-negative")
    frames = residue_frames(query.atoms, counters=counters)
    if not frames:
        raise NoValidFrame(f"query {query.protein_id}: no residue yields a frame")
    points = query.atoms.positions
    ordinals = query.atoms.atom_ordinals.astype(np.uint32)
    group = max(1, min(memory_budget_entries, _GROUP_ENTRIES) // len(points))

    def blocks() -> Iterator[np.ndarray]:
        for g in range(0, len(frames), group):
            frame_slice = slice(g, g + group)
            coords = transform_frames(frames.origins[frame_slice], frames.bases[frame_slice], points)
            coords = coords.reshape(-1, 3)
            kept = np.flatnonzero(point_norms(coords) <= mps)
            cells, in_extent = cells_of_points(coords[kept], params)
            dropped = int((~in_extent).sum())
            if dropped:
                _count(counters, "entries_out_of_extent", dropped)
            kept = kept[in_extent]
            block = np.empty(len(kept), dtype=RUN_RECORD)
            block["z"] = morton_encode(cells[in_extent], params)
            block["sk"] = 0
            block["ro"] = frames.residue_ordinals[frame_slice][kept // len(points)]
            block["ao"] = ordinals[kept % len(points)]
            yield block

    return sort_grid(blocks(), params, out_dir, memory_budget_entries, tmp_dir)


def _distinct_frames(cells: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per cell, its distinct frames as packed uint64 keys, their uint32 entry
    counts and their cell numbers, int32 while fewer than 2^31 cells.

    Entries are sorted within a cell, so each distinct frame is one run of rows.
    """
    ends = np.cumsum(np.fromiter(map(len, cells), np.int64, len(cells)))
    entries = np.concatenate(cells)
    keys = entries[:, 0].astype(np.uint64)
    keys <<= 32
    keys |= entries[:, 1]
    del entries
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first[ends[ends < len(keys)]] = True
    starts = np.flatnonzero(first)
    del first
    # A frame's entry count is its run's length, at most a cell's u32 count.
    counts = np.diff(starts, append=len(keys)).astype(np.uint32)
    # A frame's cell number is the count of cell ends at or before its first row.
    cell = np.bincount(np.searchsorted(starts, ends[:-1]), minlength=len(starts) + 1)
    np.cumsum(cell, out=cell)
    return keys[starts], counts, cell[: len(starts)].astype(_index_type(len(cells)))


def _join_cells(p_entries: list[np.ndarray], q_entries: list[np.ndarray], table: ScoreTable) -> None:
    """Score matched cells, given as their database and query entry arrays:
    cells with fan-in over ``table.hot.fanin`` go to ``table.hot``, the rest
    to ``table``. Both lists are emptied once their frames are taken, which
    frees the read buffers they view before the table expands its rows."""
    n = len(p_entries)
    db_keys, counts, db_cells = _distinct_frames(p_entries)
    q_keys, _, q_cells = _distinct_frames(q_entries)
    p_entries.clear()
    q_entries.clear()
    is_hot = np.bincount(db_cells, minlength=n) * np.bincount(q_cells, minlength=n) > table.hot.fanin
    if is_hot.any():
        d, q = is_hot[db_cells], is_hot[q_cells]
        table.hot.add(db_keys[d], counts[d], db_cells[d], q_keys[q], q_cells[q])
        # Rebinding releases the full columns before the table expands the rest.
        d, q = ~d, ~q
        db_keys, counts, db_cells, q_keys, q_cells = db_keys[d], counts[d], db_cells[d], q_keys[q], q_cells[q]
    if not is_hot.all():
        table.add(db_keys, counts, db_cells, q_keys, q_cells)


def _next_cells(cursor: GridCursor) -> tuple[np.ndarray, list[Cell]]:
    """The cursor's next cells, at most ``_SCAN_BATCH``, and their z as uint64."""
    cells = list(itertools.islice(cursor, _SCAN_BATCH))
    return np.fromiter(map(operator.itemgetter(0), cells), np.uint64, len(cells)), cells


def merge_scan_match(
    gp: DiskGrid,
    gq: DiskGrid | MemoryGrid,
    table: ScoreTable,
    stats: dict | None = None,
) -> ScoreTable:
    """Join two z-sorted grids in a single pass, updating the score table.

    Each cursor's cells are taken in batches of at most ``_SCAN_BATCH``, and
    the two batches are matched by z up to the smaller of their last z; the
    side that reaches further keeps its other cells for the next round. In
    every matched cell, every distinct query ref in the query cell receives
    the per-ref entry counts of the database cell. The matched cells' entry
    arrays are collected and scored in batches of about ``table.budget``
    entries, each closed by the cell that brings it to the budget; a
    matched cell whose fan-in exceeds ``table.hot.fanin`` goes to
    ``table.hot`` instead of the table. Both cursors are driven to
    exhaustion so each stored cell of either grid is physically read
    exactly once (asserted via the cursors' read counters).
    """
    if gp.params != gq.params:
        raise ParamsMismatch(f"grid params differ: {gp.params} vs {gq.params}")
    with GridCursor(gp) as cur_p, GridCursor(gq) as cur_q:
        p_entries: list[np.ndarray] = []
        q_entries: list[np.ndarray] = []
        held = 0
        p_z, p_cells = _next_cells(cur_p)
        q_z, q_cells = _next_cells(cur_q)
        while len(p_z) and len(q_z):
            cut = min(p_z[-1], q_z[-1])
            n_p, n_q = int(np.searchsorted(p_z, cut, "right")), int(np.searchsorted(q_z, cut, "right"))
            _, at_p, at_q = np.intersect1d(p_z[:n_p], q_z[:n_q], assume_unique=True, return_indices=True)
            if len(at_p):
                p_new = [p_cells[i].entries for i in at_p.tolist()]
                q_new = [q_cells[i].entries for i in at_q.tolist()]
                # Entries held after each new cell; a batch is scored after
                # the cell that brings it to the budget.
                sizes = np.fromiter(map(len, p_new), np.int64, len(p_new))
                sizes += np.fromiter(map(len, q_new), np.int64, len(q_new))
                held_after = np.cumsum(sizes) + held
                while len(held_after) and held_after[-1] >= table.budget:
                    k = int(np.searchsorted(held_after, table.budget)) + 1
                    p_entries += p_new[:k]
                    q_entries += q_new[:k]
                    _join_cells(p_entries, q_entries, table)
                    p_new, q_new = p_new[k:], q_new[k:]
                    held_after = held_after[k:] - held_after[k - 1]
                p_entries += p_new
                q_entries += q_new
                held = int(held_after[-1]) if len(held_after) else 0
            p_z, p_cells = p_z[n_p:], p_cells[n_p:]
            q_z, q_cells = q_z[n_q:], q_cells[n_q:]
            if not len(p_z):
                p_z, p_cells = _next_cells(cur_p)
            if not len(q_z):
                q_z, q_cells = _next_cells(cur_q)
        if p_entries:
            _join_cells(p_entries, q_entries, table)
        # Drain both sides: a full scan reads every stored cell once.
        collections.deque(cur_p, maxlen=0)
        collections.deque(cur_q, maxlen=0)
        if stats is not None:
            stats["gp_cells_read"] = cur_p.physical_cells_read
            stats["gq_cells_read"] = cur_q.physical_cells_read
            stats["gp_cells_stored"] = gp.total_cells
            stats["gq_cells_stored"] = gq.total_cells
    return table


def _atom_counts(db_keys: np.ndarray, db: PatchDatabase) -> np.ndarray:
    """Atom count of the patch owning each packed database key, in the
    narrowest unsigned type that holds the largest.

    Raises UnknownRefId for a structure key absent from the patch metadata.
    """
    keys, row_key = np.unique(db_keys >> 32, return_inverse=True)
    n_atoms = []
    for key in keys.tolist():
        meta = db.patch_meta.get(key)
        if meta is None:
            raise UnknownRefId(f"structure key {key} not in patch metadata")
        n_atoms.append(meta.n_atoms)
    return np.array(n_atoms, dtype=np.min_scalar_type(max(n_atoms, default=0)))[row_key]


def _passing_count(n_atoms: np.ndarray, tau_pp: float) -> np.ndarray:
    """Per atom count n, the smallest integer c whose float64 ``c / n >= tau_pp``.

    The test is the threshold's own and is monotone in c. The float64
    ``ceil(n * tau_pp)`` lies at most one away from that c, so one step up
    or down settles it.
    """
    c = np.ceil(n_atoms * tau_pp).astype(np.int64)
    c += c / n_atoms < tau_pp
    c -= (c - 1) / n_atoms >= tau_pp
    return c


def _frame_runs(pair: np.ndarray, n_frames: int, n_q: int) -> np.ndarray:
    """The length of each frame f's run of ascending pair keys, the keys in
    ``[f * n_q, (f + 1) * n_q)``; searched in the keys' own type, since a
    wider search value would copy the keys into that type."""
    starts = np.searchsorted(pair, np.arange(n_frames, dtype=pair.dtype) * n_q)
    return np.diff(starts, append=len(pair))


def _hot_candidates(
    cold: _Block, hot: HotCells, db: PatchDatabase, tau_pp: float, chunk_rows: int
) -> _Block:
    """The pairs whose hot-cell bound passes tau_pp, with exact nonzero counts.

    ``cold`` holds the reduced score-table pairs; see the module docstring
    for the bound and why it never drops a pair that reaches tau_pp. The
    bound is applied to the dense pair keys, before any pair row is built.
    """
    h_db, h_counts, h_cells, h_q, h_q_cells = hot.columns()
    frames, h_frame = np.unique(h_db, return_inverse=True)
    hot_max = np.bincount(h_frame, weights=h_counts).astype(np.int64)
    # A cold pair is kept when its count reaches its frame's smallest passing
    # count less the frame's own hot-cell entries. Pairs ascend by frame, so
    # each frame's need covers one run of rows; the needs take a type that
    # holds every need and every count, so none wraps.
    i = np.minimum(np.searchsorted(frames, cold.db), len(frames) - 1)
    own = np.where(frames[i] == cold.db, hot_max[i], 0)
    need = np.maximum(_passing_count(_atom_counts(cold.db, db), tau_pp) - own, 0)
    need = need.astype(np.promote_types(cold.count.dtype, np.min_scalar_type(int(need.max(initial=0)))))
    n_q = max(len(cold.q), 1)
    kept = np.flatnonzero(cold.count >= np.repeat(need, _frame_runs(cold.pair, len(cold.db), n_q)))
    pair = cold.pair[kept]
    # Frames whose hot-cell entries alone pass meet every query frame of the hot cells.
    crossed = frames[hot_max >= _passing_count(_atom_counts(frames, db), tau_pp)]
    hot_q = _distinct(h_q)
    # Candidates as dense keys over the union of the frames and query frames.
    f_keys, q_keys = _distinct(cold.db, frames), _distinct(cold.q, hot_q)
    n_keys = len(q_keys)
    key_type = _index_type(len(f_keys) * n_keys)
    cold_key = (
        np.searchsorted(f_keys, cold.db).astype(key_type)[pair // n_q] * n_keys
        + np.searchsorted(q_keys, cold.q).astype(key_type)[pair % n_q]
    )
    crossed_key = (
        np.searchsorted(f_keys, crossed).astype(key_type)[:, None] * n_keys
        + np.searchsorted(q_keys, hot_q).astype(key_type)
    ).ravel()
    key = _distinct(cold_key, crossed_key)
    del crossed_key
    # No exact count exceeds the cold count plus the frame's hot-cell entries.
    bound = int(cold.count.max(initial=0)) + int(hot_max.max(initial=0))
    count = np.zeros(len(key), dtype=np.min_scalar_type(bound))
    count[np.searchsorted(key, cold_key)] = cold.count[kept]
    # Exact recount: each candidate visits only the hot cells holding its
    # frame, and looks its query frame up in that cell's membership row.
    member = np.zeros((hot.n_cells, n_keys), dtype=bool)
    member[h_q_cells, np.searchsorted(q_keys, h_q)] = True
    h_f = np.searchsorted(f_keys, h_db)
    order = np.argsort(h_f)  # a frame's hot rows are summed, in any order
    h_cells, h_counts = h_cells[order], h_counts[order].astype(count.dtype)
    # Frame f's hot rows are f_lo[f], f_lo[f] + 1, ... of the sorted columns.
    f_width = np.bincount(h_f, minlength=len(f_keys)).astype(_index_type(len(h_f) + 1))
    f_lo = np.cumsum(f_width, dtype=f_width.dtype)
    f_lo -= f_width
    per_frame = _frame_runs(key, len(f_keys), n_keys)
    for item, t in _expand(np.repeat(f_lo, per_frame), np.repeat(f_width, per_frame), chunk_rows):
        hit = member[h_cells[t], key[item] % n_keys]
        np.add.at(count, item[hit], h_counts[t[hit]])
    nonzero = count > 0
    return _Block(f_keys, q_keys, key[nonzero], count[nonzero])


def finalize_scores(table: ScoreTable, db: PatchDatabase, tau_pp: float = 0.0) -> ScoredPairs:
    """Attach to every reduced pair the atom count of the patch owning its db frame.

    The pairs stay one ``_Block``. When the table holds hot cells, they are
    only the candidates that can reach ``tau_pp``, each with its exact
    count. Raises UnknownRefId when a pair references a structure key
    absent from the patch metadata, and PatchGridError when a pair count
    exceeds the patch's atom count.
    """
    pairs = table.reduced()
    if table.hot.n_cells:
        pairs = _hot_candidates(pairs, table.hot, db, tau_pp, min(table.budget, _GROUP_ENTRIES))
    # Each pair's atom count is its frame's, looked up once per frame.
    frame = pairs.pair // max(len(pairs.q), 1)
    n_atoms = _atom_counts(pairs.db, db)[frame]
    over = np.flatnonzero(pairs.count > n_atoms)
    if over.size:
        i = over[0]
        raise PatchGridError(
            f"corrupt score table: pair count {pairs.count[i]} exceeds atom count "
            f"{n_atoms[i]} of patch {db.patch_meta[int(pairs.db[frame[i]]) >> 32].patch_id}"
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
    pairs = scored.pairs
    scores = pairs.count / scored.n_atoms
    kept = np.flatnonzero(scores >= tau_pp)
    db_keys, q_keys, _ = _decode(pairs._replace(pair=pairs.pair[kept], count=pairs.count[kept]))
    results = []
    for db_key, q_key, score in zip(db_keys.tolist(), q_keys.tolist(), scores[kept].tolist()):
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


def score_query(
    query: Protein,
    db: PatchDatabase,
    tau_pp: float = 0.0,
    tmp_dir: Path | None = None,
    memory_budget_entries: int = DEFAULT_MEMORY_BUDGET,
    stats: dict | None = None,
) -> ScoredPairs:
    """Query grid, merge scan and ``finalize_scores``: every pair that can
    reach ``tau_pp``, with its exact count and its patch's atom count.

    A query grid within ``memory_budget_entries`` is held in memory and
    nothing is made under ``tmp_dir``. Past it, the sort's chunks go to a
    temporary directory under ``tmp_dir`` that is removed when the sort
    ends, and the grid's run to another, made at the spill and removed
    when the scan ends, however it ends. The score table
    buffers ``DEFAULT_SCORE_BUDGET`` rows and marks a cell hot above the
    fan-in ``_HOT_FANIN``; both are module constants, read when the query
    runs, and neither changes the results.
    """
    if not (0.0 <= tau_pp <= 1.0):
        raise ValueError("tau_pp must be in [0, 1]")
    table = ScoreTable(DEFAULT_SCORE_BUDGET, _HOT_FANIN)
    with ExitStack() as spill:

        def spill_dir() -> Path:
            return Path(spill.enter_context(tempfile.TemporaryDirectory(prefix="query-", dir=tmp_dir))) / "gq"

        # The grid is an argument only, so it is freed when the scan returns.
        merge_scan_match(
            db.grid,
            build_query_grid(
                query, db.params, db.mps, spill_dir,
                memory_budget_entries=memory_budget_entries, tmp_dir=tmp_dir, counters=stats,
            ),
            table,
            stats=stats,
        )
    scored = finalize_scores(table, db, tau_pp)
    if stats is not None:
        stats["pairs_scored"] = len(scored)
        stats["score_spills"] = table.spills
        stats["score_rows"] = table.rows
        stats["hot_cells"] = table.hot.n_cells
    return scored


def match_query(
    query: Protein,
    db: PatchDatabase,
    tau_pp: float,
    tmp_dir: Path | None = None,
    memory_budget_entries: int = DEFAULT_MEMORY_BUDGET,
    stats: dict | None = None,
) -> list[MatchResult]:
    """Full pipeline: ``score_query``, then ``threshold_filter`` at ``tau_pp``."""
    return threshold_filter(score_query(query, db, tau_pp, tmp_dir, memory_budget_entries, stats), tau_pp)


def structural_identity(
    query: Protein,
    sources: Mapping[str, Protein],
    params: GridParams,
    tmp_dir: Path | None = None,
) -> dict[str, float]:
    """Whole-structure identity of ``query`` against each source, in [0, 1].

    Every source is indexed as one pseudo-patch (all its atoms, per-residue
    frames) of one database, and ``query`` is scored against all of them in
    one pass, without mps clipping or threshold. A source's identity is its
    largest pair score, the float64 ``count / n_atoms`` of
    ``threshold_filter``, so it is normalized by the source's atom count; a
    source that shares no cell with the query gets 0.0. Raises NoValidFrame
    when the query or a source has no usable residue.
    """
    pseudo = [Patch(source_id, source_id, source.atoms, OriginTag.Template) for source_id, source in sources.items()]
    with tempfile.TemporaryDirectory(prefix="identity-", dir=tmp_dir) as work:
        db = build_patch_database(pseudo, params, Path(work) / "db", tmp_dir=tmp_dir)
        unframed = sources.keys() - db.source_protein_ids()
        if unframed:
            raise NoValidFrame(f"source {min(unframed)}: no residue yields a frame")
        scored = score_query(query, replace(db, mps=math.inf), 0.0, tmp_dir=tmp_dir)
    db_keys, _, counts = _decode(scored.pairs)
    best = np.zeros(max(db.patch_meta) + 1)
    np.maximum.at(best, db_keys >> 32, counts / scored.n_atoms)
    return {meta.source_protein_id: float(best[key]) for key, meta in db.patch_meta.items()}
