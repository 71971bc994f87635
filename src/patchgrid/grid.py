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
atom_ordinal) and deduplicated. A plain-text ``manifest.tsv`` beside the
run files lists ``filename<TAB>n_cells<TAB>n_entries`` per run and is the
commit point for grid updates.
"""

from __future__ import annotations

import heapq
import itertools
import os
import struct
import tempfile
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import OutOfExtent

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
_CHUNK_RECORD = struct.Struct("<QIII")

MANIFEST_NAME = "manifest.tsv"


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


class CellIndex(NamedTuple):
    """Signed integer cell coordinates."""

    ix: int
    iy: int
    iz: int


class RefId(NamedTuple):
    """Identifier of one reference frame: (structure key, residue ordinal)."""

    structure_key: int
    residue_ordinal: int


class CellEntry(NamedTuple):
    """One transformed-atom record stored in a cell."""

    ref_id: RefId
    atom_ordinal: int


class Cell(NamedTuple):
    """A Morton-keyed bucket of entries, sorted and deduplicated."""

    z: int
    entries: list[CellEntry]


@dataclass(frozen=True)
class RunInfo:
    file_name: str
    n_cells: int
    n_entries: int


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


def cell_of(p, params: GridParams) -> CellIndex:
    """Quantize one point with cells_of_points; raises OutOfExtent when it
    falls outside the addressable range."""
    cells, in_extent = cells_of_points(p, params)
    if not in_extent[0]:
        raise OutOfExtent(f"point {tuple(p)} maps outside +-{params.half_extent_cells} cells")
    return CellIndex(*(int(c) for c in cells[0]))


# ---------------------------------------------------------------------------
# Morton codes

_MASK21 = 0x1FFFFF


def _spread_bits(n: int) -> int:
    # Classic 64-bit spread: 21 input bits land on every third output bit.
    n &= _MASK21
    n = (n | (n << 32)) & 0x1F00000000FFFF
    n = (n | (n << 16)) & 0x1F0000FF0000FF
    n = (n | (n << 8)) & 0x100F00F00F00F00F
    n = (n | (n << 4)) & 0x10C30C30C30C30C3
    n = (n | (n << 2)) & 0x1249249249249249
    return n


def _compact_bits(n: int) -> int:
    n &= 0x1249249249249249
    n = (n ^ (n >> 2)) & 0x10C30C30C30C30C3
    n = (n ^ (n >> 4)) & 0x100F00F00F00F00F
    n = (n ^ (n >> 8)) & 0x1F0000FF0000FF
    n = (n ^ (n >> 16)) & 0x1F00000000FFFF
    n = (n ^ (n >> 32)) & _MASK21
    return n


def interleave_bits(ox: int, oy: int, oz: int) -> int:
    """Interleave non-negative offset indices: bit i of x lands on code bit 3i,
    of y on 3i+1, of z on 3i+2."""
    return _spread_bits(ox) | (_spread_bits(oy) << 1) | (_spread_bits(oz) << 2)


def deinterleave_bits(code: int) -> tuple[int, int, int]:
    return _compact_bits(code), _compact_bits(code >> 1), _compact_bits(code >> 2)


def morton_encode(c: CellIndex, params: GridParams) -> int:
    """Morton code of a cell: offset each component by half_extent_cells to
    make it non-negative, then interleave the bit-strings of the axes."""
    h = params.half_extent_cells
    ox, oy, oz = c[0] + h, c[1] + h, c[2] + h
    limit = 1 << params.bits_per_axis
    if not (0 <= ox < limit and 0 <= oy < limit and 0 <= oz < limit):
        raise OutOfExtent(f"cell {tuple(c)} outside extent for {params.bits_per_axis} bits")
    return interleave_bits(ox, oy, oz)


def morton_decode(z: int, params: GridParams) -> CellIndex:
    """Exact inverse of morton_encode."""
    ox, oy, oz = deinterleave_bits(z)
    h = params.half_extent_cells
    return CellIndex(ox - h, oy - h, oz - h)


# ---------------------------------------------------------------------------
# Atomic file helpers


def atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Run files


class _RunWriter:
    """Streams (z, sk, ro, ao) records, sorted ascending, into a run file.

    Groups equal-z records into cell records and drops exact duplicates.
    The file is written to a temp name and renamed on close.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._fh = open(self._tmp, "wb")
        self._cell_z: int | None = None
        self._cell_entries: list[tuple[int, int, int]] = []
        self._last_record: tuple[int, int, int, int] | None = None
        self.n_cells = 0
        self.n_entries = 0

    def add(self, record: tuple[int, int, int, int]) -> None:
        if self._last_record is not None:
            if record == self._last_record:
                return
            if record < self._last_record:
                raise ValueError("run writer received out-of-order record")
        self._last_record = record
        z, sk, ro, ao = record
        if self._cell_z is None:
            self._cell_z = z
        elif z != self._cell_z:
            self._flush_cell()
            self._cell_z = z
        self._cell_entries.append((sk, ro, ao))

    def _flush_cell(self) -> None:
        if self._cell_z is None or not self._cell_entries:
            return
        self._fh.write(_CELL_HEADER.pack(self._cell_z, len(self._cell_entries)))
        for e in self._cell_entries:
            self._fh.write(_ENTRY.pack(*e))
        self.n_cells += 1
        self.n_entries += len(self._cell_entries)
        self._cell_entries = []

    def close(self) -> RunInfo:
        self._flush_cell()
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
    """Sequential cell iterator over one run file, counting physical reads."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        self.cells_read = 0

    def __iter__(self):
        return self

    def __next__(self) -> Cell:
        header = self._fh.read(_CELL_HEADER.size)
        if not header:
            self._fh.close()
            raise StopIteration
        if len(header) != _CELL_HEADER.size:
            raise OSError(f"truncated cell header in {self.path}")
        z, count = _CELL_HEADER.unpack(header)
        blob = self._fh.read(count * _ENTRY.size)
        if len(blob) != count * _ENTRY.size:
            raise OSError(f"truncated cell body in {self.path}")
        entries = [
            CellEntry(RefId(sk, ro), ao)
            for sk, ro, ao in _ENTRY.iter_unpack(blob)
        ]
        self.cells_read += 1
        return Cell(z, entries)

    def close(self) -> None:
        self._fh.close()


# ---------------------------------------------------------------------------
# External sort


def _chunk_records(path: Path) -> Iterator[tuple[int, int, int, int]]:
    with open(path, "rb") as fh:
        while True:
            blob = fh.read(_CHUNK_RECORD.size * 4096)
            if not blob:
                return
            yield from _CHUNK_RECORD.iter_unpack(blob)


def build_sorted_run(
    entries: Iterable[tuple[CellIndex, CellEntry]],
    params: GridParams,
    out_path: Path,
    memory_budget_entries: int = DEFAULT_MEMORY_BUDGET,
    tmp_dir: Path | None = None,
) -> RunInfo:
    """External-sort an unordered entry stream into a single run file.

    Sorts by (z, structure_key, residue_ordinal, atom_ordinal), never holding
    more than ``memory_budget_entries`` records in memory; overflow chunks are
    spilled to ``tmp_dir`` and merged on write. Identical records collapse to
    one. Output is byte-identical to an in-memory sort of the same stream.
    """
    if memory_budget_entries < 2:
        raise ValueError("memory budget must allow at least 2 entries")
    out_path = Path(out_path)
    chunk_paths: list[Path] = []
    spill_dir: str | None = None
    chunk: list[tuple[int, int, int, int]] = []

    def spill() -> None:
        nonlocal spill_dir
        if spill_dir is None:
            spill_dir = tempfile.mkdtemp(
                prefix="rgsort-", dir=str(tmp_dir) if tmp_dir else None
            )
        chunk.sort()
        path = Path(spill_dir) / f"chunk_{len(chunk_paths):06d}.bin"
        with open(path, "wb") as fh:
            for rec in chunk:
                fh.write(_CHUNK_RECORD.pack(*rec))
        chunk_paths.append(path)
        chunk.clear()

    try:
        for cell_index, entry in entries:
            z = morton_encode(cell_index, params)
            chunk.append(
                (z, entry.ref_id.structure_key, entry.ref_id.residue_ordinal, entry.atom_ordinal)
            )
            if len(chunk) >= memory_budget_entries:
                spill()
        chunk.sort()
        streams: list[Iterator[tuple[int, int, int, int]]] = [
            _chunk_records(p) for p in chunk_paths
        ]
        if chunk:
            streams.append(iter(chunk))
        merged = heapq.merge(*streams) if len(streams) != 1 else streams[0]
        writer = _RunWriter(out_path)
        try:
            for rec in merged:
                writer.add(rec)
        except BaseException:
            writer.abort()
            raise
        return writer.close()
    finally:
        for p in chunk_paths:
            try:
                p.unlink()
            except OSError:
                pass
        if spill_dir is not None:
            try:
                os.rmdir(spill_dir)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# DiskGrid


@dataclass
class DiskGrid:
    """A disk-resident grid: parameters plus an ordered list of sorted runs."""

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

    def save_manifest(self) -> None:
        lines = ["#run_file\tn_cells\tn_entries"]
        for r in self.runs:
            lines.append(f"{r.file_name}\t{r.n_cells}\t{r.n_entries}")
        atomic_write_text(self.directory / MANIFEST_NAME, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, directory: Path, params: GridParams) -> "DiskGrid":
        directory = Path(directory)
        runs = []
        with open(directory / MANIFEST_NAME, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                name, n_cells, n_entries = line.split("\t")
                runs.append(RunInfo(name, int(n_cells), int(n_entries)))
        return cls(params=params, directory=directory, runs=runs)


class GridCursor:
    """Iterator over the logical cells of a grid in strictly increasing z.

    Cells with equal z across runs are merged (entries unioned, sorted,
    deduplicated). ``physical_cells_read`` counts stored cell records read
    from disk: exactly one read per stored cell over a full scan.
    """

    def __init__(self, grid: DiskGrid):
        self._readers = [
            _RunReader(grid.run_path(info)) for info in grid.runs if info.n_cells > 0
        ]
        by_z = attrgetter("z")
        self._groups = itertools.groupby(heapq.merge(*self._readers, key=by_z), key=by_z)

    @property
    def physical_cells_read(self) -> int:
        return sum(r.cells_read for r in self._readers)

    def __iter__(self):
        return self

    def __next__(self) -> Cell:
        z, group = next(self._groups)
        cells = list(group)
        if len(cells) == 1:
            return cells[0]
        return Cell(z, sorted(set().union(*(c.entries for c in cells))))

    def close(self) -> None:
        for r in self._readers:
            r.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def scan(grid: DiskGrid) -> GridCursor:
    """Open a cursor yielding each logical cell of the grid exactly once."""
    return GridCursor(grid)


def merge_runs(grid: DiskGrid) -> DiskGrid:
    """Compact a grid to a single run. A single-run grid is returned as is."""
    if len(grid.runs) <= 1:
        return grid
    out_name = grid.next_run_name()
    writer = _RunWriter(grid.directory / out_name)
    cursor = scan(grid)
    try:
        for cell in cursor:
            for e in cell.entries:
                writer.add((cell.z, e.ref_id.structure_key, e.ref_id.residue_ordinal, e.atom_ordinal))
    except BaseException:
        writer.abort()
        raise
    finally:
        cursor.close()
    info = writer.close()
    old = list(grid.runs)
    merged = DiskGrid(params=grid.params, directory=grid.directory, runs=[info])
    merged.save_manifest()
    for r in old:
        try:
            (grid.directory / r.file_name).unlink()
        except OSError:
            pass
    return merged
