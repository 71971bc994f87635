"""Shared helpers: fixed-width structure text writers, corpus builders, the
reference run order and run bytes, a per-cell reference run reader, a
recorder of opened run readers, the reference norms, cell indices with the
reference Morton coder, and score-table batches of matched cells and their
reduced pairs."""

from __future__ import annotations

import itertools
import os
import random
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from patchgrid import grid as grid_module
from patchgrid import matcher
from patchgrid.errors import CorruptDatabase
from patchgrid.geometry import AtomRecord
from patchgrid.grid import Cell, GridParams, morton_encode
from patchgrid.ingest import OriginTag, Patch, Protein
from patchgrid.synthetic import random_protein


def _place(line: list[str], start_col: int, text: str) -> None:
    # start_col is 1-based, as in the format documentation.
    for i, ch in enumerate(text):
        line[start_col - 1 + i] = ch


def atom_line(
    serial: int,
    name: str,
    residue_name: str,
    chain_id: str,
    residue_seq: int,
    x: float,
    y: float,
    z: float,
    element: str = "",
    altloc: str = " ",
    record: str = "ATOM",
    icode: str = " ",
) -> str:
    line = [" "] * 80
    _place(line, 1, f"{record:<6}")
    _place(line, 7, f"{serial:>5}")
    _place(line, 13, f"{name:<4}")
    _place(line, 17, altloc)
    _place(line, 18, f"{residue_name:>3}")
    _place(line, 22, chain_id)
    _place(line, 23, f"{residue_seq:>4}")
    _place(line, 27, icode)
    _place(line, 31, f"{x:8.3f}")
    _place(line, 39, f"{y:8.3f}")
    _place(line, 47, f"{z:8.3f}")
    if element:
        _place(line, 77, f"{element:>2}")
    return "".join(line).rstrip() + "\n"


def site_lines(site_id: str, residues: list[tuple]) -> list[str]:
    """One or more SITE records naming (residue_name, chain_id, residue_seq)
    or (residue_name, chain_id, residue_seq, insertion_code)."""
    lines = []
    for block_start in range(0, len(residues), 4):
        block = residues[block_start : block_start + 4]
        line = [" "] * 80
        _place(line, 1, "SITE")
        _place(line, 8, f"{block_start // 4 + 1:>3}")
        _place(line, 12, f"{site_id:<3}")
        _place(line, 16, f"{len(residues):>2}")
        col = 19
        for residue_name, chain_id, residue_seq, *icode in block:
            _place(line, col, f"{residue_name:>3}")
            _place(line, col + 4, chain_id)
            _place(line, col + 5, f"{residue_seq:>4}")
            _place(line, col + 9, "".join(icode))
            col += 11
        lines.append("".join(line).rstrip() + "\n")
    return lines


def structure_text(protein: Protein, sites: dict[str, list[AtomRecord]] | None = None) -> str:
    """Render a protein (and optional SITE records over its residues) as
    fixed-width structure-file text at 3-decimal coordinate precision."""
    lines = []
    codes = protein.insertion_codes
    for site_id, atoms in (sites or {}).items():
        residues = []
        seen = set()
        for atom in atoms:
            key = (atom.residue_name, atom.chain_id, atom.residue_seq, codes[atom.residue_ordinal])
            if key not in seen:
                seen.add(key)
                residues.append(key)
        lines.extend(site_lines(site_id, residues))
    for atom in protein.atoms:
        lines.append(
            atom_line(
                serial=atom.atom_ordinal + 1,
                name=atom.atom_name,
                residue_name=atom.residue_name,
                chain_id=atom.chain_id,
                residue_seq=atom.residue_seq,
                x=atom.position.x,
                y=atom.position.y,
                z=atom.position.z,
                element=atom.element,
                icode=codes[atom.residue_ordinal] or " ",
            )
        )
    return "".join(lines)


def window_patch(protein: Protein, patch_id: str, first_residue: int, n_residues: int) -> Patch:
    """A patch cut verbatim from a contiguous residue window of a protein."""
    wanted = set(range(first_residue, first_residue + n_residues))
    atoms = tuple(a for a in protein.atoms if a.residue_ordinal in wanted)
    return Patch(
        patch_id=patch_id,
        source_protein_id=protein.protein_id,
        atoms=atoms,
        origin_tag=OriginTag.SiteRecord,
    )


def corpus(seed: int, n_proteins: int = 6, residues: tuple[int, int] = (5, 9),
           patches_per_protein: int = 2):
    """Random proteins plus verbatim window patches cut from them."""
    rng = random.Random(seed)
    proteins = []
    patches = []
    for i in range(n_proteins):
        protein = random_protein(rng, f"SRC{i}", rng.randint(*residues))
        proteins.append(protein)
        for j in range(patches_per_protein):
            first = rng.randint(0, max(0, protein.residue_count - 2))
            patches.append(
                window_patch(protein, f"{protein.protein_id}_{j}", first, rng.randint(1, 2))
            )
    return proteins, patches


def z_records(items, params):
    """(CellIndex, (structure key, residue ordinal, atom ordinal)) items as the
    (z, structure key, residue ordinal, atom ordinal) records build_sorted_run takes."""
    items = iter(items)
    while chunk := list(itertools.islice(items, 4096)):
        codes = morton_encode([cell for cell, _ in chunk], params).tolist()
        for z, (_, entry) in zip(codes, chunk):
            yield (z, *entry)


def lexsorted(records: np.ndarray) -> np.ndarray:
    """``RUN_RECORD`` records in (z, structure key, residue ordinal, atom
    ordinal) order, by one four-key lexsort: the order of a run."""
    return records[np.lexsort((records["ao"], records["ro"], records["sk"], records["z"]))]


def reference_run_bytes(records) -> bytes:
    """The run file holding (z, structure key, residue ordinal, atom ordinal)
    records, built in plain Python: the distinct records sorted as tuples,
    one cell per z, in the layout the grid module documents."""
    out = []
    for z, rows in itertools.groupby(sorted(set(map(tuple, records))), key=lambda r: r[0]):
        rows = list(rows)
        out.append(struct.pack("<QI", z, len(rows)))
        out.extend(struct.pack("<III", *row[1:]) for row in rows)
    return b"".join(out)


class ReferenceRunReader:
    """A run file's cells decoded one header at a time: the reference for
    ``grid._RunReader``, which decodes them in steps.

    Reads the file in 1 MiB blocks and returns each cell as its z plus a
    ``(count, 3)`` uint32 view of its entries. Raises CorruptDatabase with
    the run reader's messages for a cut cell header, for a z that does not
    strictly increase, and for a cell body longer than the bytes left in
    the file, which is checked before the body is read. The file closes
    after the last cell.
    """

    HEADER = struct.Struct("<QI")
    BLOCK = 1 << 20

    def __init__(self, path):
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
            more = self._fh.read(max(self.BLOCK, n))
            if not more:
                return False
            self._offset += self._pos
            self._buf = self._buf[self._pos:] + more
            self._pos = 0
            self._rows = np.frombuffer(self._buf, dtype="<u4", count=len(self._buf) // 12 * 3).reshape(-1, 3)
        return True

    def __next__(self) -> Cell:
        if self._fh.closed:
            raise StopIteration
        if not self._buffered(self.HEADER.size):
            if self._pos < len(self._buf):
                raise CorruptDatabase(f"{self.path}: cut cell header at byte {self._offset + self._pos}")
            self.close()
            raise StopIteration
        z, count = self.HEADER.unpack_from(self._buf, self._pos)
        if z <= self._last_z:
            raise CorruptDatabase(
                f"{self.path}: cell z {z} at byte {self._offset + self._pos} "
                f"does not increase past {self._last_z}"
            )
        size = self.HEADER.size + count * 12
        at = self._offset + self._pos
        if at + size > self._size or not self._buffered(size):
            raise CorruptDatabase(
                f"{self.path}: cut body of the {count}-entry cell z {z} at byte {at}: "
                f"{self._size - at - self.HEADER.size} bytes follow its header"
            )
        row = self._pos // 12 + 1
        self._pos += size
        self._last_z = z
        self.cells_read += 1
        return Cell(z, self._rows[row : row + count])

    def close(self) -> None:
        self._fh.close()


def opened_readers(monkeypatch) -> list:
    """Every run reader opened from now on, recorded once its file is open."""
    opened = []

    class Recorded(grid_module._RunReader):
        def __init__(self, path):
            super().__init__(path)
            opened.append(self)

    monkeypatch.setattr(grid_module, "_RunReader", Recorded)
    return opened


def reference_norms(points) -> np.ndarray:
    """Euclidean norm per row of an (n, 3) array as a row sum of squares."""
    p = np.asarray(points, dtype=np.float64)
    return np.sqrt((p * p).sum(axis=1))


# ---------------------------------------------------------------------------
# Cell indices and the reference Morton coder: the scalar form of the bit
# spread that patchgrid.grid.morton_encode applies to arrays, and its inverse.


class CellIndex(NamedTuple):
    """Signed integer cell coordinates: one row of a cell array."""

    ix: int
    iy: int
    iz: int


_MASK21 = 0x1FFFFF


def _spread_bits(n: int) -> int:
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


def reference_morton(cell, params: GridParams) -> int:
    """The Morton code of one in-extent cell, by the reference coder."""
    h = params.half_extent_cells
    return interleave_bits(*(c + h for c in cell))


def morton_decode(z: int, params: GridParams) -> CellIndex:
    """The cell whose Morton code is ``z``: the inverse of grid.morton_encode."""
    ox, oy, oz = deinterleave_bits(z)
    h = params.half_extent_cells
    return CellIndex(ox - h, oy - h, oz - h)


def add_cells(target, cells) -> None:
    """Add matched cells to a ``ScoreTable`` or its hot cells as one batch.

    Each cell is ``(db_refs, query_refs, counts)``: counts[i] goes to the
    pair (db_refs[i], q) for every q in query_refs. Refs are (structure key,
    residue ordinal) pairs, packed as the matcher packs them.
    """
    def packed(refs):
        return np.array([sk << 32 | ro for sk, ro in refs], dtype=np.uint64)

    def column(k):
        return [item for cell in cells for item in cell[k]]

    def cell_numbers(k):
        return np.repeat(np.arange(len(cells)), [len(cell[k]) for cell in cells])

    target.add(packed(column(0)), np.array(column(2), dtype=np.uint64), cell_numbers(0),
               packed(column(1)), cell_numbers(1))


def score_items(table) -> list[tuple[tuple[int, int, int, int], int]]:
    """((db sk, db ro, q sk, q ro), total count) of every pair a
    ``ScoreTable`` has reduced, in key order."""
    db, q, counts = (column.tolist() for column in matcher._decode(table.reduced()))
    return [((d >> 32, d & 0xFFFFFFFF, k >> 32, k & 0xFFFFFFFF), c) for d, k, c in zip(db, q, counts)]


def sparse_cells(rng: random.Random, n_cells: int = 8) -> list[tuple[list, list, list]]:
    """``n_cells`` cells, each crossing one database frame with one query
    frame, all distinct: the batch's n_cells rows are spread over n_cells**2
    pair keys, so a ``ScoreTable`` takes it as sparse rows when n_cells > 4."""
    db_refs = rng.sample([(sk, ro) for sk in range(4) for ro in range(6)], n_cells)
    query_refs = rng.sample([(sk, ro) for sk in range(2) for ro in range(6)], n_cells)
    return [([d], [q], [rng.randint(1, 3)]) for d, q in zip(db_refs, query_refs)]
