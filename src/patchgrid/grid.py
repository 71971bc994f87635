"""Disk-based grid: cell quantization, Morton (z-value) codes, sorted runs.

The grid divides space into cubic cells of edge ``delta`` centered on the
origin. Occupied cells are stored on disk as one or more *runs*, each a
sequence of cells strictly increasing in z-value (Morton code), so two
grids can be joined in a single sequential pass. New data is appended as a
fresh run; ``merge_runs`` compacts a grid back to a single run.

Run file layout (little-endian, documented here and frozen by a golden
test):

    repeated cell records:
        z            uint64   Morton code of the cell
        entry_count  uint32   number of entries that follow
        entries      entry_count * (structure_key uint32,
                                    residue_ordinal uint32,
                                    atom_ordinal    uint32)

Entries within a cell are sorted by (structure_key, residue_ordinal,
atom_ordinal) and deduplicated. A ``DiskGrid`` is the in-memory list of a
grid's runs; which runs make up a database is recorded by the database's
manifest (see ``preprocess.PatchDatabase``), never by the grid itself.

The read path is columnar. A run is read in bounded byte blocks, and each
cell comes back as its z plus a ``(count, 3)`` uint32 view of its entries
(structure key, residue ordinal, atom ordinal), so no object is built per
entry. A damaged run (a cut cell header or body, or a z that does not
strictly increase) raises ``CorruptDatabase``.

Sorted record blocks (``RUN_RECORD`` arrays) have one merge,
``_merge_blocks``, and one cell writer, which drops duplicates. The
external sort (``sort_run``) spills sorted chunks past the memory budget
into one temporary directory, made at the first spill and removed when the
sort ends, and merges them; ``merge_runs`` merges a grid's runs; and a
multi-run ``GridCursor`` cuts its cells from the merged runs, so equal-z
cells of several runs become one cell. Where the records' (structure
key, residue ordinal, atom ordinal) already ascend, as in the indexer's
and the query grid's streams, the chunks of one stream and the runs of one
database, sorts and merges order them with one stable sort on z; other
input takes a four-key sort. A failed write, the final flush
included, removes the run's temp file. Quantization (``cells_of_points``)
and Morton codes (``morton_encode``) work on whole coordinate arrays.
"""

from __future__ import annotations

import heapq
import itertools
import os
import struct
import tempfile
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import CorruptDatabase, OutOfExtent

# Coordinates closer than this to a cell boundary are snapped onto it (and
# the boundary belongs to the upper cell, matching floor semantics). Frame
# anchor atoms produce components that are exact zeros or ~1e-16 residues of
# them; without the snap those would quantize unstably under rigid motion.
# 1e-9 A is far below structure-file precision (1e-3 A) and far above the
# float64 jitter of a rigidly moved frame coordinate (~1e-13 A).
BOUNDARY_SNAP = 1e-9

DEFAULT_MEMORY_BUDGET = 500_000

_CELL_HEADER = struct.Struct("<QI")
_ENTRY = struct.Struct("<III")

# One (z, structure key, residue ordinal, atom ordinal) record; a sorted
# record array written with tofile is a spill chunk's bytes.
RUN_RECORD = np.dtype([("z", "<u8"), ("sk", "<u4"), ("ro", "<u4"), ("ao", "<u4")])
# The same records as opaque items: numpy copies a structured array field by
# field, several times slower than whole items, so blocks are joined in this
# form, and gathered with ``take``.
_RAW_RECORD = np.dtype((np.void, RUN_RECORD.itemsize))

# Bytes a run reader asks the file for at a time.
_READ_BLOCK_BYTES = 1 << 20
# Records per block handed to the run writer and to the merge. Small blocks
# keep the build's peak memory below that of a tuple list sort.
_WRITE_BLOCK_RECORDS = 1 << 12


@dataclass(frozen=True)
class GridParams:
    """Cell edge length in Angstroms plus the per-axis code width in bits."""

    delta: float
    bits_per_axis: int = 21

    def __post_init__(self):
        if not (self.delta > 0):
            raise ValueError("delta must be positive")
        if not (1 <= self.bits_per_axis <= 21):
            raise ValueError("bits_per_axis must be in [1, 21]")

    @property
    def half_extent_cells(self) -> int:
        return 1 << (self.bits_per_axis - 1)


class RefId(NamedTuple):
    """Identifier of one reference frame: (structure key, residue ordinal)."""

    structure_key: int
    residue_ordinal: int


class Cell(NamedTuple):
    """A Morton-keyed bucket of entries, sorted and deduplicated.

    ``entries`` is a read-only ``(count, 3)`` uint32 array of (structure
    key, residue ordinal, atom ordinal) rows.
    """

    z: int
    entries: np.ndarray


@dataclass(frozen=True)
class RunInfo:
    file_name: str
    n_cells: int
    n_entries: int

    @property
    def n_bytes(self) -> int:
        """Size of the run file these counts describe."""
        return _CELL_HEADER.size * self.n_cells + _ENTRY.size * self.n_entries


# ---------------------------------------------------------------------------
# Quantization


def cells_of_points(points: np.ndarray, params: GridParams):
    """Quantize an (n, 3) array of points: component-wise floor(p / delta).

    Returns ``(cells, in_extent)`` where ``cells`` is an int64 (n, 3) array
    (rows with ``in_extent`` False are zeroed) and ``in_extent`` a boolean
    mask, False where any component falls outside the addressable range
    [-half_extent_cells, half_extent_cells - 1].
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    q = pts / params.delta
    k = np.rint(q)
    snapped = np.abs(pts - k * params.delta) < BOUNDARY_SNAP
    c = np.where(snapped, k, np.floor(q))
    h = params.half_extent_cells
    in_extent = ((c >= -h) & (c <= h - 1)).all(axis=1)
    cells = np.where(in_extent[:, None], c, 0.0).astype(np.int64)
    return cells, in_extent


# ---------------------------------------------------------------------------
# Morton codes

_MASK21 = 0x1FFFFF


def _spread_bits(n: np.ndarray) -> np.ndarray:
    # Classic 64-bit spread, element-wise over a uint64 array: 21 input bits
    # land on every third output bit.
    n = n & _MASK21
    n = (n | (n << 32)) & 0x1F00000000FFFF
    n = (n | (n << 16)) & 0x1F0000FF0000FF
    n = (n | (n << 8)) & 0x100F00F00F00F00F
    n = (n | (n << 4)) & 0x10C30C30C30C30C3
    n = (n | (n << 2)) & 0x1249249249249249
    return n


def morton_encode(cells: np.ndarray, params: GridParams) -> np.ndarray:
    """Morton codes of an (n, 3) integer cell array, as uint64.

    Each component is offset by half_extent_cells to make it non-negative,
    then the axes' bit-strings are interleaved: bit i of x lands on code bit
    3i, of y on 3i+1, of z on 3i+2. Raises OutOfExtent when any cell falls
    outside the addressable range.
    """
    offsets = np.asarray(cells, dtype=np.int64).reshape(-1, 3) + params.half_extent_cells
    if not ((offsets >= 0) & (offsets < 1 << params.bits_per_axis)).all():
        raise OutOfExtent(f"cells outside extent for {params.bits_per_axis} bits")
    # All three axes spread in one pass over the (n, 3) array.
    spread = _spread_bits(offsets.astype(np.uint64))
    return spread[:, 0] | (spread[:, 1] << 1) | (spread[:, 2] << 2)


# ---------------------------------------------------------------------------
# Atomic file helpers


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(text.encode("utf-8"))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Run files


def _concatenate(blocks: list[np.ndarray]) -> np.ndarray:
    """``RUN_RECORD`` blocks joined into one, copied as whole items."""
    return np.concatenate([block.view(_RAW_RECORD) for block in blocks]).view(RUN_RECORD)


def _steps(records: np.ndarray, z: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """For each record but the first: whether its key is above the previous
    record's, and whether the two are equal. The key is (z, sk, ro, ao), or
    (sk, ro, ao) without ``z``."""
    later = np.zeros(max(len(records) - 1, 0), dtype=bool)
    same = np.ones_like(later)
    for name in RUN_RECORD.names[0 if z else 1:]:
        column = records[name]
        later |= same & (column[1:] > column[:-1])
        same &= column[1:] == column[:-1]
    return later, same


def _append_distinct(held: np.ndarray, records: np.ndarray) -> tuple[np.ndarray, int]:
    """Sorted ``held`` then ``records`` without exact duplicates, plus the row
    where their last cell, which may continue in the next block, starts.
    A record below its predecessor raises ValueError."""
    records = _concatenate([held, records])
    if not len(records):
        return records, 0
    later, same = _steps(records)
    if not (later | same).all():
        raise ValueError("run writer received out-of-order record")
    records = records.compress(np.concatenate(([True], ~same)))
    return records, int(np.searchsorted(records["z"], records["z"][-1]))


def _cell_starts(z: np.ndarray) -> np.ndarray:
    """The row where each cell of a sorted z column starts."""
    # ~z[0] differs from z[0], so row 0 starts a cell; an empty column has none.
    return np.flatnonzero(np.diff(z, prepend=~z[:1]))


class _RunWriter:
    """Writes ``RUN_RECORD`` blocks, sorted ascending, into a run file.

    Groups equal-z records into cell records and drops exact duplicates; a
    record below its predecessor raises ValueError. Records are held until
    ``_WRITE_BLOCK_RECORDS`` of them are buffered or the writer closes, and
    the last cell is always held, since it may continue in the next block.
    The file is written to a temp name and renamed on close.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._fh = open(self._tmp, "wb")
        self._held = np.empty(0, dtype=RUN_RECORD)
        self.n_cells = 0
        self.n_entries = 0

    def add(self, records: np.ndarray) -> None:
        self._held, last_cell = _append_distinct(self._held, records)
        if len(self._held) >= _WRITE_BLOCK_RECORDS:
            self._write_cells(self._held[:last_cell])
            self._held = self._held[last_cell:]

    def _write_cells(self, records: np.ndarray) -> None:
        """Write sorted, distinct records as one cell record per distinct z."""
        z = records["z"]
        starts = _cell_starts(z)
        # Each cell header (z u64, count u32) is three little-endian u32 words,
        # the same width as an entry, so the cells are one (rows, 3) u32 block.
        header_rows = starts + np.arange(len(starts))
        words = np.empty((len(records) + len(starts), 3), dtype="<u4")
        words[header_rows, 0] = (z[starts] & 0xFFFFFFFF).astype(np.uint32)
        words[header_rows, 1] = (z[starts] >> 32).astype(np.uint32)
        words[header_rows, 2] = np.diff(np.append(starts, len(records)))
        is_entry = np.ones(len(words), dtype=bool)
        is_entry[header_rows] = False
        words[is_entry] = np.column_stack((records["sk"], records["ro"], records["ao"]))
        self._fh.write(words.tobytes())
        self.n_cells += len(starts)
        self.n_entries += len(records)

    def close(self) -> RunInfo:
        self._write_cells(self._held)
        self._fh.close()
        os.replace(self._tmp, self.path)
        return RunInfo(self.path.name, self.n_cells, self.n_entries)

    def abort(self) -> None:
        try:
            self._fh.close()
        finally:
            if self._tmp.exists():
                self._tmp.unlink()


class _RunReader:
    """Sequential cell iterator over one run file, counting physical reads.

    Reads the file in blocks of ``_READ_BLOCK_BYTES``. A cell header is as
    wide as an entry (12 bytes), so the block is viewed as rows of three
    uint32 words and each cell's entries are a slice of those rows. Raises
    CorruptDatabase for a cut cell header, for a z that does not strictly
    increase, and for a cell body longer than the bytes left in the file,
    which is checked before the body is read. The file closes after the
    last cell, and a closed reader raises StopIteration on every further
    call.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        self._size = os.fstat(self._fh.fileno()).st_size
        self._buf = b""
        self._rows = np.empty((0, 3), dtype="<u4")
        self._pos = 0  # always the start of a cell header, so a row boundary
        self._offset = 0  # file offset of self._buf[0]
        self._last_z = -1
        self.cells_read = 0

    def __iter__(self):
        return self

    def _buffered(self, n: int) -> bool:
        """Hold at least ``n`` unread bytes; False when the file ends first."""
        while len(self._buf) - self._pos < n:
            more = self._fh.read(max(_READ_BLOCK_BYTES, n))
            if not more:
                return False
            self._offset += self._pos
            self._buf = self._buf[self._pos:] + more
            self._pos = 0
            self._rows = np.frombuffer(
                self._buf, dtype="<u4", count=len(self._buf) // _ENTRY.size * 3
            ).reshape(-1, 3)
        return True

    def __next__(self) -> Cell:
        if self._fh.closed:
            raise StopIteration
        if not self._buffered(_CELL_HEADER.size):
            if self._pos < len(self._buf):
                raise CorruptDatabase(
                    f"{self.path}: cut cell header at byte {self._offset + self._pos}"
                )
            self.close()
            raise StopIteration
        z, count = _CELL_HEADER.unpack_from(self._buf, self._pos)
        if z <= self._last_z:
            raise CorruptDatabase(
                f"{self.path}: cell z {z} at byte {self._offset + self._pos} "
                f"does not increase past {self._last_z}"
            )
        size = _CELL_HEADER.size + count * _ENTRY.size
        at = self._offset + self._pos
        if at + size > self._size or not self._buffered(size):
            raise CorruptDatabase(
                f"{self.path}: cut body of the {count}-entry cell z {z} at byte {at}: "
                f"{self._size - at - _CELL_HEADER.size} bytes follow its header"
            )
        row = self._pos // _ENTRY.size + 1
        self._pos += size
        self._last_z = z
        self.cells_read += 1
        return Cell(z, self._rows[row : row + count])

    def close(self) -> None:
        self._fh.close()


# ---------------------------------------------------------------------------
# External sort


def _chunk_records(path: Path) -> Iterator[np.ndarray]:
    """The records of one spilled chunk, in ``_WRITE_BLOCK_RECORDS`` blocks.

    Each block is read by offset, so no file stays open between blocks,
    however many chunks are merged at once.
    """
    offset = 0
    while len(block := np.fromfile(path, RUN_RECORD, _WRITE_BLOCK_RECORDS, offset=offset)):
        offset += block.nbytes
        yield block


def _sorted(records: np.ndarray) -> np.ndarray:
    """Records in (z, sk, ro, ao) order. When (sk, ro, ao) never decreases
    along the records, a stable sort on z alone gives that order;
    otherwise a four-key lexsort does."""
    later, same = _steps(records, z=False)
    if (later | same).all():
        return records.take(np.argsort(records["z"], kind="stable"))
    return records.take(np.lexsort((records["ao"], records["ro"], records["sk"], records["z"])))


def _merged(pieces: list[np.ndarray]) -> np.ndarray:
    """One sorted block of sorted pieces, given in stream order.

    A stable sort on z of the concatenated pieces is kept when no z tie
    puts a larger (sk, ro, ao) first, as when each stream's (sk, ro, ao)
    lie above the earlier streams'. Each piece is sorted, so only equal-z
    neighbours from two pieces can do that. Otherwise one stable sort of
    the structured records merges them: the dtype compares z, sk, ro and
    ao in turn, as a lexsort would.
    """
    if len(pieces) == 1:
        return pieces[0]
    records = _concatenate(pieces)
    order = np.argsort(records["z"], kind="stable")
    z = records["z"][order]
    piece = np.repeat(np.arange(len(pieces)), [len(p) for p in pieces])[order]
    seams = np.flatnonzero((z[1:] == z[:-1]) & (piece[1:] != piece[:-1]))
    # Each seam's two records side by side; _steps also compares each pair
    # with the next one, which [::2] drops.
    later, same = _steps(records.take(np.column_stack((order[seams], order[seams + 1])).ravel()), z=False)
    if (later | same)[::2].all():
        return records.take(order)
    return np.sort(records, kind="stable")


def _merge_blocks(streams: list[Iterator[np.ndarray]]) -> Iterator[np.ndarray]:
    """Merge streams of sorted ``RUN_RECORD`` blocks into sorted blocks.

    Every stream holds one head block. Each round cuts at the smallest last
    key among the heads, takes every record at or below it from the heads,
    and replaces a head taken whole by its stream's next block; ``_merged``
    merges the taken pieces in stream order. Two heaps keep the heads by
    first and by last key, so a round touches only the heads that reach
    below the cut. Duplicates are kept, and a cell may straddle two rounds.
    """
    heads: dict[int, np.ndarray] = {}
    by_first: list[tuple[tuple, int]] = []
    by_last: list[tuple[tuple, int]] = []

    def load(i: int) -> None:
        for block in streams[i]:
            if len(block):
                heads[i] = block
                heapq.heappush(by_first, (block[0].item(), i))
                heapq.heappush(by_last, (block[-1].item(), i))
                return

    for i in range(len(streams)):
        load(i)
    while by_last:
        cut = by_last[0][0]
        emptied = []
        while by_last and by_last[0][0] == cut:
            emptied.append(heapq.heappop(by_last)[1])
        limit = np.array(cut, dtype=RUN_RECORD)
        taken = {}
        while by_first and by_first[0][0] <= cut:
            i = heapq.heappop(by_first)[1]
            block = heads[i]
            k = int(np.searchsorted(block, limit, side="right"))
            taken[i] = block[:k]
            if k < len(block):
                heads[i] = block[k:]
                heapq.heappush(by_first, (block[k].item(), i))
        for i in emptied:
            del heads[i]
            load(i)
        yield _merged([taken[i] for i in sorted(taken)])


def sort_run(
    blocks: Iterable[np.ndarray],
    out_path: Path,
    memory_budget_entries: int = DEFAULT_MEMORY_BUDGET,
    tmp_dir: Path | None = None,
) -> RunInfo:
    """External-sort ``RUN_RECORD`` blocks into a single run file.

    Sorts by (z, structure_key, residue_ordinal, atom_ordinal), holding at
    most ``memory_budget_entries`` records plus one block; each full
    budget is spilled as one sorted chunk, and the chunks and the sorted
    remainder are merged by ``_merge_blocks`` on write, holding one block per
    chunk. Records whose last three keys ascend in stream order, as the
    indexer's and the query grid's do, are sorted and merged on z alone
    (see ``_sorted`` and ``_merged``). The chunks live in one
    ``tempfile.TemporaryDirectory`` under ``tmp_dir``, made at the first
    spill and removed with its chunks when the sort ends, however it ends. Identical records collapse to one.
    Output is byte-identical to an in-memory sort of the same records.
    """
    if memory_budget_entries < 2:
        raise ValueError("memory budget must allow at least 2 entries")
    chunk_paths: list[Path] = []
    held: list[np.ndarray] = []
    n_held = 0
    with ExitStack() as stack:
        for block in blocks:
            held.append(block)
            n_held += len(block)
            if n_held < memory_budget_entries:
                continue
            if not chunk_paths:
                spill_dir = Path(stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="rgsort-", dir=tmp_dir)
                ))
            records = _concatenate(held)
            held.clear()
            n_held = len(records) % memory_budget_entries
            for start in range(0, len(records) - n_held, memory_budget_entries):
                path = spill_dir / f"chunk_{len(chunk_paths):06d}.bin"
                _sorted(records[start:start + memory_budget_entries]).tofile(path)
                chunk_paths.append(path)
            held = [records[len(records) - n_held:]]
        tail = _sorted(_concatenate(held)) if held else np.empty(0, dtype=RUN_RECORD)
        writer = _RunWriter(out_path)
        try:
            if not chunk_paths:
                writer.add(tail)
            else:
                streams = [_chunk_records(p) for p in chunk_paths] + [iter([tail])]
                for records in _merge_blocks(streams):
                    writer.add(records)
            return writer.close()
        except BaseException:
            writer.abort()
            raise


def build_sorted_run(
    records: Iterable[tuple[int, int, int, int]],
    out_path: Path,
    memory_budget_entries: int = DEFAULT_MEMORY_BUDGET,
    tmp_dir: Path | None = None,
) -> RunInfo:
    """External-sort an unordered stream of (z, structure_key,
    residue_ordinal, atom_ordinal) tuples into a single run file.

    Packs the tuples into ``RUN_RECORD`` blocks and hands them to
    ``sort_run``, so the stream is never held in memory beyond the budget.
    """
    records = iter(records)

    def blocks() -> Iterator[np.ndarray]:
        while len(block := np.fromiter(itertools.islice(records, _WRITE_BLOCK_RECORDS), RUN_RECORD)):
            yield block

    return sort_run(blocks(), Path(out_path), memory_budget_entries, tmp_dir)


# ---------------------------------------------------------------------------
# DiskGrid


@dataclass
class DiskGrid:
    """Grid parameters plus the ordered list of sorted run files in ``directory``."""

    params: GridParams
    directory: Path
    runs: list[RunInfo] = field(default_factory=list)

    def __post_init__(self):
        self.directory = Path(self.directory)

    @property
    def total_cells(self) -> int:
        return sum(r.n_cells for r in self.runs)

    @property
    def total_entries(self) -> int:
        return sum(r.n_entries for r in self.runs)

    def run_path(self, info: RunInfo) -> Path:
        return self.directory / info.file_name

    def next_run_name(self) -> str:
        used = {r.file_name for r in self.runs}
        i = len(self.runs)
        while f"run_{i:06d}.bin" in used:
            i += 1
        return f"run_{i:06d}.bin"


class GridCursor:
    """Iterator over the logical cells of a grid in strictly increasing z.

    ``records`` is the runs' ``RUN_RECORD`` blocks merged by
    ``_merge_blocks``. A multi-run cursor cuts its cells from that stream:
    equal-z cells of several runs become one cell with the sorted, distinct
    union of their entries. A single run's cells are read directly.
    ``physical_cells_read`` counts stored cell records read from disk:
    exactly one read per stored cell over a full scan.
    """

    def __init__(self, grid: DiskGrid):
        # A run that fails to open closes the ones opened before it.
        with ExitStack() as opened:
            self._readers = [
                opened.enter_context(closing(_RunReader(grid.run_path(info))))
                for info in grid.runs if info.n_cells > 0
            ]
            opened.pop_all()
        self.records = _merge_blocks([_run_records(r) for r in self._readers])
        self._cells = (
            self._readers[0] if len(self._readers) == 1 else _cells_of(self.records)
        )

    @property
    def physical_cells_read(self) -> int:
        return sum(r.cells_read for r in self._readers)

    def __iter__(self):
        return self

    def __next__(self) -> Cell:
        return next(self._cells)

    def close(self) -> None:
        for r in self._readers:
            r.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _run_records(cells: Iterator[Cell]) -> Iterator[np.ndarray]:
    """Cells as ``RUN_RECORD`` blocks, each ending with the first cell that
    brings it to ``_WRITE_BLOCK_RECORDS`` records."""
    taken: list[Cell] = []
    n_taken = 0
    for cell in cells:
        taken.append(cell)
        n_taken += len(cell.entries)
        if n_taken >= _WRITE_BLOCK_RECORDS:
            yield _cell_records(taken)
            taken, n_taken = [], 0
    if taken:
        yield _cell_records(taken)


def _cell_records(cells: list[Cell]) -> np.ndarray:
    entries = np.concatenate([c.entries for c in cells])
    records = np.empty(len(entries), dtype=RUN_RECORD)
    z = np.array([c.z for c in cells], dtype=np.uint64)
    records["z"] = np.repeat(z, [len(c.entries) for c in cells])
    records["sk"], records["ro"], records["ao"] = entries.T
    return records


def _cells_of(blocks: Iterator[np.ndarray]) -> Iterator[Cell]:
    """The sorted, distinct cells of a stream of sorted record blocks."""
    held = np.empty(0, dtype=RUN_RECORD)
    for block in blocks:
        held, last_cell = _append_distinct(held, block)
        yield from _split_cells(held[:last_cell])
        held = held[last_cell:]
    yield from _split_cells(held)


def _split_cells(records: np.ndarray) -> Iterator[Cell]:
    """Sorted, distinct records as one cell per distinct z."""
    z = records["z"]
    bounds = np.append(_cell_starts(z), len(records)).tolist()
    entries = np.column_stack((records["sk"], records["ro"], records["ao"]))
    entries.flags.writeable = False
    for start, end in zip(bounds[:-1], bounds[1:]):
        yield Cell(int(z[start]), entries[start:end])


def merge_runs(grid: DiskGrid) -> DiskGrid:
    """Write the grid's cells as one new run and return the grid made of it.

    The runs' merged record stream goes straight to the run writer, which
    drops the entries that several runs share. The old run files are left
    in place for the caller to delete once the new grid is committed. A
    single-run grid is returned as is.
    """
    if len(grid.runs) <= 1:
        return grid
    writer = _RunWriter(grid.directory / grid.next_run_name())
    try:
        with GridCursor(grid) as cursor:
            for records in cursor.records:
                writer.add(records)
        return DiskGrid(params=grid.params, directory=grid.directory, runs=[writer.close()])
    except BaseException:
        writer.abort()
        raise
