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
manifest (see ``preprocess.PatchDatabase``), never by the grid itself. A
``MemoryGrid`` holds one run's bytes in memory instead of a file:
``sort_grid`` makes one while its records fit the memory budget, as a
query grid's do, and spills to a run file past it.

The read path is columnar, and one reader reads a run file, in bounded
byte blocks, or a run's bytes in memory, in place. Its cell headers are
decoded in steps of at most ``_HEADER_STEP`` cells: one walk over the
entry counts, then one test of the step's z values. Each
cell comes back from one reader call as its z plus a ``(count, 3)``
uint32 view of its entries (structure key, residue ordinal, atom
ordinal), so no object is built per entry. A damaged run (a cut cell
header or body, or a z that does not strictly increase) raises
``CorruptDatabase`` when the reader reaches the damaged cell, after it has
returned the cells before it.

Sorted record blocks (``RUN_RECORD`` arrays) have one merge,
``_merge_blocks``, one cell encoder, ``_cell_words``, and one run write,
``_write_run``, through the run writer, which drops duplicates. One
external sort, ``_sort``, serves ``sort_run`` and ``sort_grid``: only
records past the memory budget spill, as sorted chunks in one temporary
directory that is removed when the sort ends, and the chunks are merged.
``sort_run`` writes a run file; ``sort_grid`` keeps records that fit as a
``MemoryGrid``. ``merge_runs`` merges a grid's runs, and a multi-run
``GridCursor`` cuts its cells from the merged runs, so equal-z cells of
several runs become one cell. Where the records' (structure key, residue
ordinal, atom ordinal) already ascend, as in the indexer's and the query
grid's streams, the chunks of one stream and the runs of one database,
sorts and merges order them with one stable sort on z; other input takes
a four-key sort. A failed write, the final flush included, removes the
run's temp file. Quantization (``cells_of_points``) and Morton codes
(``morton_encode``) work on whole coordinate arrays.
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
from typing import Callable, Iterable, Iterator, NamedTuple

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

# Bytes a run reader asks the file for at a time, and the most cell headers
# it decodes at a time.
_READ_BLOCK_BYTES = 1 << 20
_HEADER_STEP = 1 << 10
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
    """``RUN_RECORD`` blocks joined into one, copied as whole items; no
    blocks join into an empty one."""
    raw = [block.view(_RAW_RECORD) for block in blocks]
    return (np.concatenate(raw) if raw else np.empty(0, _RAW_RECORD)).view(RUN_RECORD)


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


def _distinct(records: np.ndarray) -> np.ndarray:
    """Sorted records without exact duplicates: ``records`` itself when
    it has none. A record below its predecessor raises ValueError."""
    if not len(records):
        return records
    later, same = _steps(records)
    if not (later | same).all():
        raise ValueError("run writer received out-of-order record")
    return records.compress(np.concatenate(([True], ~same))) if same.any() else records


def _append_distinct(held: np.ndarray, records: np.ndarray) -> tuple[np.ndarray, int]:
    """Sorted ``held`` then ``records`` without exact duplicates, plus the row
    where their last cell, which may continue in the next block, starts.
    A record below its predecessor raises ValueError."""
    records = _distinct(_concatenate([held, records]) if len(held) else records)
    if not len(records):
        return records, 0
    return records, int(np.searchsorted(records["z"], records["z"][-1]))


def _cell_starts(z: np.ndarray) -> np.ndarray:
    """The row where each cell of a sorted z column starts."""
    # ~z[0] differs from z[0], so row 0 starts a cell; an empty column has none.
    return np.flatnonzero(np.diff(z, prepend=~z[:1]) != 0)


def _cell_words(records: np.ndarray) -> np.ndarray:
    """Sorted, distinct records as the run bytes of one cell record per
    distinct z, viewed as ``(rows, 3)`` little-endian uint32 words: the one
    cell encoder of run files and of in-memory runs.

    A cell header (z u64, count u32) is three words, the same width as an
    entry, so a cell is its header row followed by its entry rows.
    """
    z = records["z"]
    starts = _cell_starts(z)
    sizes = np.diff(np.append(starts, len(records)))
    header_rows = starts + np.arange(len(starts))
    words = np.empty((len(records) + len(starts), 3), dtype="<u4")
    words[header_rows, 0] = (z[starts] & 0xFFFFFFFF).astype(np.uint32)
    words[header_rows, 1] = (z[starts] >> 32).astype(np.uint32)
    words[header_rows, 2] = sizes
    # Record i of cell c follows c + 1 headers; fields go in without a row copy.
    entry_rows = np.arange(1, len(records) + 1)
    entry_rows += np.repeat(np.arange(len(starts)), sizes)
    for k, name in enumerate(("sk", "ro", "ao")):
        words[entry_rows, k] = records[name]
    return words


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
        words = _cell_words(records)
        self._fh.write(words)
        self.n_cells += len(words) - len(records)
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
    """Sequential cell iterator over one run, counting physical reads.

    The run is a file, read in blocks of ``_READ_BLOCK_BYTES`` and never
    asked for more bytes than it has left, or a run's bytes already in
    memory, read in place as one buffer. A cell header is as wide as an
    entry (12 bytes), so the buffer is viewed as rows of three uint32 words
    and each cell's entries are a slice of those rows. The headers are
    decoded a step of at most ``_HEADER_STEP`` cells at a time: one walk
    over the count words finds the cells whose header and body are
    buffered, and the step's z values are tested at once. The step's
    ``Cell`` tuples and entry views are built as ``__next__`` returns them,
    one cell per call.

    A damaged cell raises CorruptDatabase, its message led by the file's
    path or by "in-memory run", when the reader reaches it,
    after the cells before it have been returned: a cut cell header, a z
    that does not strictly increase, and a cell body longer than the bytes
    left in the run, which is checked before the body is read. A file
    closes after the last cell, and a closed reader raises StopIteration on
    every further call.
    """

    def __init__(self, source: Path | np.ndarray):
        self._fh = None
        if isinstance(source, os.PathLike):
            self.label = str(source)
            self._fh = open(source, "rb")
            self._size = os.fstat(self._fh.fileno()).st_size
            self._load(b"")
        else:
            self.label = "in-memory run"
            self._load(np.frombuffer(source, dtype=np.uint8))
            self._size = len(self._buf)
        self._pos = 0  # row of the next cell header to decode
        self._offset = 0  # run offset of self._buf[0]
        self._last_z = -1
        self._cells: Iterator[Cell] = iter(())  # the decoded step's cells not yet returned
        self._damage: str | None = None  # raised once the decoded cells are returned
        self.closed = False
        self.cells_read = 0

    def __iter__(self):
        return self

    def __next__(self) -> Cell:
        cell = next(self._cells, None)
        if cell is None:
            self._cells = self._step()
            cell = next(self._cells)
        self.cells_read += 1
        return cell

    def _load(self, buf) -> None:
        """Make ``buf`` the buffer, viewed as rows of words."""
        self._buf = buf
        self._rows = np.frombuffer(buf, dtype="<u4", count=len(buf) // _ENTRY.size * 3).reshape(-1, 3)
        # Native words to walk; on a little-endian machine a view, not a copy.
        self._counts = memoryview(self._rows[:, 2].astype(np.uint32, copy=False))

    def _buffered(self, n: int) -> bool:
        """Hold at least ``n`` bytes from the next cell header on; False
        when the run ends first."""
        start = self._pos * _ENTRY.size
        while len(self._buf) - start < n:
            left = self._size - self._offset - len(self._buf)
            more = self._fh.read(min(max(_READ_BLOCK_BYTES, n), left)) if left else b""
            if not more:
                return False
            self._offset += start
            self._load(self._buf[start:] + more)
            self._pos = start = 0
        return True

    def _walk(self) -> list[int]:
        """The header row of each next buffered cell, at most
        ``_HEADER_STEP`` of them, then the row after the last one. The last
        cell's body may reach past the buffered rows."""
        counts, end = self._counts, len(self._counts)
        at = self._pos
        rows = [at]
        for _ in range(_HEADER_STEP):
            if at >= end:
                break
            at += 1 + counts[at]
            rows.append(at)
            if at > end:
                break
        return rows

    def _step(self) -> Iterator[Cell]:
        """The next step's cells, at least one; raises StopIteration at the
        end of the run and CorruptDatabase at a damaged first cell. A later
        damaged cell ends the step and is raised at the next step."""
        if self.closed:
            raise StopIteration
        if self._damage is not None:
            raise CorruptDatabase(self._damage)
        rows = self._walk()
        if len(rows) == 1:  # the next header is not buffered
            if not self._buffered(_CELL_HEADER.size):
                if self._pos * _ENTRY.size < len(self._buf):
                    raise CorruptDatabase(
                        f"{self.label}: cut cell header at byte {self._offset + self._pos * _ENTRY.size}"
                    )
                self.close()
                raise StopIteration
            rows = self._walk()
        heads = np.array(rows[:-1])
        z = self._rows[heads, 1].astype(np.uint64)
        z <<= np.uint64(32)
        z |= self._rows[heads, 0]
        rising = np.empty(len(z), dtype=bool)
        rising[0] = int(z[0]) > self._last_z
        np.greater(z[1:], z[:-1], out=rising[1:])
        z = z.tolist()
        n = len(z) if rising.all() else int(rising.argmin())
        whole = len(z) - (rows[-1] > len(self._counts))
        if n < len(z):
            at = self._offset + rows[n] * _ENTRY.size
            self._damage = (
                f"{self.label}: cell z {z[n]} at byte {at} "
                f"does not increase past {z[n - 1] if n else self._last_z}"
            )
        elif whole < n:  # the last cell's body is not buffered
            at = self._offset + rows[-2] * _ENTRY.size
            count = self._counts[rows[-2]]
            size = _CELL_HEADER.size + count * _ENTRY.size
            if at + size <= self._size and whole:
                n = whole  # the next step buffers it
            elif at + size <= self._size and self._buffered(size):
                return self._step()
            else:
                self._damage = (
                    f"{self.label}: cut body of the {count}-entry cell z {z[-1]} at byte {at}: "
                    f"{self._size - at - _CELL_HEADER.size} bytes follow its header"
                )
                n = whole
        if not n:
            raise CorruptDatabase(self._damage)
        self._pos = rows[n]
        self._last_z = z[n - 1]
        views = map(self._rows.__getitem__, map(slice, (heads[:n] + 1).tolist(), rows[1 : n + 1]))
        return map(tuple.__new__, itertools.repeat(Cell), zip(z[:n], views))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
        self.closed = True
        self._cells = iter(())


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


def _order(records: np.ndarray) -> np.ndarray:
    """The (z, sk, ro, ao) order of records: a stable sort on z alone where
    (sk, ro, ao) never decreases along them, else a four-key lexsort. The
    step masks are freed before the sort allocates."""
    if np.logical_or(*_steps(records, z=False)).all():
        return np.argsort(records["z"], kind="stable")
    return np.lexsort((records["ao"], records["ro"], records["sk"], records["z"]))


def _in_order(records: np.ndarray, order: np.ndarray) -> Iterator[np.ndarray]:
    """``records`` in ``order``, taken ``_WRITE_BLOCK_RECORDS`` at a time."""
    for start in range(0, len(order), _WRITE_BLOCK_RECORDS):
        yield records.take(order[start:start + _WRITE_BLOCK_RECORDS])


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


def _sort(
    blocks: Iterable[np.ndarray], memory_budget_entries: int, tmp_dir: Path | None, stack: ExitStack
) -> tuple[bool, Iterator[np.ndarray]]:
    """External-sort ``RUN_RECORD`` blocks: whether the records fit the
    budget, and their sorted blocks. The one sort of run files and grids.

    Each record is held once: the first block as given, then in one buffer
    grown geometrically, in place where the allocator can, up to
    ``memory_budget_entries`` records. A full buffer spills as a sorted
    chunk when another record arrives, so n records spill ceil(n / budget)
    - 1 chunks however the stream is cut, into one ``TemporaryDirectory``
    under ``tmp_dir`` entered on ``stack``. Held records are sorted by one
    ``_order`` and written or merged (``_merge_blocks``, one block per
    chunk) as ``take``s of its slices: under twice the budget's record
    bytes. Records that fit come back as one block, taken once. Duplicates
    are kept. Raises ValueError for a budget below 2.
    """
    if memory_budget_entries < 2:
        raise ValueError("memory budget must allow at least 2 entries")
    chunk_paths: list[Path] = []
    buffer = np.empty(0, dtype=RUN_RECORD)  # resized in place: no view outlives a statement
    held, n_held = buffer, 0  # the first block as given, until a second arrives
    for block in blocks:
        while len(block):
            if n_held == memory_budget_entries:
                if not chunk_paths:
                    spill_dir = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="rgsort-", dir=tmp_dir)))
                chunk_paths.append(spill_dir / f"chunk_{len(chunk_paths):06d}.bin")
                with open(chunk_paths[-1], "wb") as fh:
                    for records in _in_order(held, _order(held)):
                        records.tofile(fh)
                held, n_held = buffer, 0
            piece, block = block[:memory_budget_entries - n_held], block[memory_budget_entries - n_held:]
            if not n_held and not len(buffer):
                held, n_held = piece, len(piece)
                continue
            n = n_held + len(piece)
            if n > len(buffer):
                buffer.resize(min(memory_budget_entries, max(n, 2 * n_held)), refcheck=False)
            if held is not buffer:
                buffer.view(_RAW_RECORD)[:n_held], held = held.view(_RAW_RECORD), buffer
            buffer.view(_RAW_RECORD)[n_held:n] = piece.view(_RAW_RECORD)
            n_held = n
    if held is buffer:
        buffer.resize(n_held, refcheck=False)
    if chunk_paths:
        return False, _merge_blocks([_chunk_records(p) for p in chunk_paths] + [_in_order(held, _order(held))])
    return True, iter([held.take(_order(held))])


def _write_run(path: Path, sorted_blocks: Iterable[np.ndarray]) -> RunInfo:
    """Write sorted ``RUN_RECORD`` blocks as the run file ``path``; a failed
    write, the final flush included, removes the run's temp file."""
    writer = _RunWriter(path)
    try:
        for records in sorted_blocks:
            writer.add(records)
        return writer.close()
    except BaseException:
        writer.abort()
        raise


def sort_run(
    blocks: Iterable[np.ndarray],
    out_path: Path,
    memory_budget_entries: int = DEFAULT_MEMORY_BUDGET,
    tmp_dir: Path | None = None,
) -> RunInfo:
    """External-sort ``RUN_RECORD`` blocks into a single run file.

    Sorts by (z, structure_key, residue_ordinal, atom_ordinal) with
    ``_sort``: only records past ``memory_budget_entries`` spill, as
    sorted chunks under ``tmp_dir`` that are removed when the sort ends,
    however it ends. Records whose last three keys ascend in stream order,
    as the indexer's and the query grid's do, are sorted and merged on z
    alone (see ``_order`` and ``_merged``). Identical records collapse to
    one. Output is byte-identical to an in-memory sort of the same records.
    """
    with ExitStack() as stack:
        return _write_run(out_path, _sort(blocks, memory_budget_entries, tmp_dir, stack)[1])


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


def sort_grid(
    blocks: Iterable[np.ndarray],
    params: GridParams,
    out_dir: Path | Callable[[], Path],
    memory_budget_entries: int = DEFAULT_MEMORY_BUDGET,
    tmp_dir: Path | None = None,
) -> MemoryGrid | DiskGrid:
    """Sort ``RUN_RECORD`` blocks into a one-run grid, in memory while they fit.

    The blocks are sorted by ``_sort``, the sort of ``sort_run``. While
    they total at most ``memory_budget_entries`` records, the grid is a
    ``MemoryGrid`` whose run holds the bytes ``sort_run`` would write for
    them; nothing touches the disk. Only records past the budget spill, as
    sorted chunks under ``tmp_dir``, and the run is then written into
    ``out_dir``: a directory, or a function that makes one, called only
    then.
    """
    with ExitStack() as stack:
        fits, records = _sort(blocks, memory_budget_entries, tmp_dir, stack)
        if fits:
            return MemoryGrid.of_records(params, next(records))
        out_dir = Path(out_dir() if callable(out_dir) else out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        info = _write_run(out_dir / "run_000000.bin", records)
    return DiskGrid(params=params, directory=out_dir, runs=[info])


# ---------------------------------------------------------------------------
# Grids


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

    def run_sources(self) -> list[Path]:
        """What a run reader opens for each run that holds cells."""
        return [self.run_path(info) for info in self.runs if info.n_cells > 0]

    def next_run_name(self) -> str:
        used = {r.file_name for r in self.runs}
        i = len(self.runs)
        while f"run_{i:06d}.bin" in used:
            i += 1
        return f"run_{i:06d}.bin"


@dataclass(eq=False)
class MemoryGrid:
    """Grid parameters plus one run held in memory: ``run`` is the read-only
    uint8 array of the bytes a run file of the same cells holds."""

    params: GridParams
    run: np.ndarray
    total_cells: int
    total_entries: int

    @classmethod
    def of_records(cls, params: GridParams, records: np.ndarray) -> MemoryGrid:
        """The grid of sorted ``RUN_RECORD`` records: exact duplicates
        dropped and encoded as the run writer encodes them."""
        records = _distinct(records)
        words = _cell_words(records)
        run = words.reshape(-1).view(np.uint8)
        run.flags.writeable = False
        return cls(params, run, len(words) - len(records), len(records))

    def run_sources(self) -> list[np.ndarray]:
        return [self.run] if self.total_cells else []


class GridCursor:
    """Iterator over the logical cells of a grid in strictly increasing z.

    ``records`` is the runs' ``RUN_RECORD`` blocks merged by
    ``_merge_blocks``. A multi-run cursor cuts its cells from that stream:
    equal-z cells of several runs become one cell with the sorted, distinct
    union of their entries. A single run's cells are read directly.
    ``physical_cells_read`` counts stored cell records read from the
    runs: exactly one read per stored cell over a full scan.
    """

    def __init__(self, grid: DiskGrid | MemoryGrid):
        # A run that fails to open closes the ones opened before it.
        with ExitStack() as opened:
            self._readers = [
                opened.enter_context(closing(_RunReader(source))) for source in grid.run_sources()
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
    with GridCursor(grid) as cursor:
        info = _write_run(grid.directory / grid.next_run_name(), cursor.records)
    return DiskGrid(params=grid.params, directory=grid.directory, runs=[info])
