"""Atoms, points, rigid reference frames built from atom triples, and frame transforms.

``Atoms`` holds a structure's atoms as read-only columns, the one form in
which atoms are stored; ``AtomRecord`` is the row view it gives out one
atom at a time.

A frame is an orthonormal, right-handed coordinate system anchored at an
atom. For a residue the anchors are (CA, N, C): the origin sits on CA,
the first axis points from CA to N, the third axis is normal to the
anchor plane, and the second completes the right-handed basis. Any point
expressed in such a frame is invariant under rigid motion of the whole
structure, which is what makes grid hashing pose-independent.

Everything here is a pure function over immutable values; all operations
are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

# Normalized cross-product magnitude below which three anchors are treated
# as collinear. Structure files carry 3 decimals, so 1e-8 cleanly separates
# degenerate from valid triples.
COLLINEARITY_TOL = 1e-8

# Minimum pairwise anchor separation in Angstroms.
MIN_SEPARATION = 1e-8


class Point3(NamedTuple):
    """A 3D point in Angstroms. Components must be finite."""

    x: float
    y: float
    z: float


class AtomRecord(NamedTuple):
    """One atom of a structure, in file order: the row view of ``Atoms``.

    ``atom_ordinal`` is the 0-based position within the parent structure and
    ``residue_ordinal`` the 0-based index of the residue the atom belongs to
    (non-decreasing in file order). ``chain_id``, ``residue_seq`` and
    ``insertion_code`` retain the source-file residue identity so annotated
    residue references can be resolved back to atoms.
    """

    atom_ordinal: int
    element: str
    atom_name: str
    residue_ordinal: int
    residue_name: str
    position: Point3
    chain_id: str = "A"
    residue_seq: int = 0
    insertion_code: str = ""


def _column(i: int) -> property:
    def column(self) -> np.ndarray:
        values = self._columns[i]
        return values if self._rows is None else values[self._rows.start:self._rows.stop]
    return property(column)


class Atoms:
    """The atoms of one structure or patch, in file order, as columns.

    Row i of every column describes the same atom: ``positions`` is an
    (n, 3) float64 array; ``atom_ordinals``, ``residue_ordinals`` and
    ``residue_seqs`` are int64 arrays; ``atom_names``, ``residue_names``,
    ``elements``, ``chain_ids`` and ``insertion_codes`` are object arrays
    of str, and insertion codes default to blank (""). The columns
    are read-only. Indexing with an int gives that row as an ``AtomRecord``,
    iteration gives every row so, and a slice or an index array gives an
    ``Atoms``. Two ``Atoms`` are equal when all their columns are.

    The nine columns are held in one tuple, with the range of its rows that
    this ``Atoms`` covers (``None`` for all of them). A step-1 slice shares
    its parent's tuple and stores only its range, so a patch cut from a
    protein costs one small object, not nine arrays; each column attribute
    is then a read-only view of the range, made when it is read. Other
    slices and index arrays take their rows of each column.
    """

    COLUMNS = (
        "positions", "atom_ordinals", "residue_ordinals", "residue_seqs",
        "atom_names", "residue_names", "elements", "chain_ids", "insertion_codes",
    )
    __slots__ = ("_columns", "_rows")
    (positions, atom_ordinals, residue_ordinals, residue_seqs,
     atom_names, residue_names, elements, chain_ids, insertion_codes) = map(_column, range(len(COLUMNS)))

    def __init__(self, positions, atom_ordinals, residue_ordinals, residue_seqs,
                 atom_names, residue_names, elements, chain_ids, insertion_codes=None):
        positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        n = (len(positions),)
        self._columns = (
            _read_only(positions, np.float64, positions.shape),
            _read_only(atom_ordinals, np.int64, n),
            _read_only(residue_ordinals, np.int64, n),
            _read_only(residue_seqs, np.int64, n),
            _read_only(atom_names, object, n),
            _read_only(residue_names, object, n),
            _read_only(elements, object, n),
            _read_only(chain_ids, object, n),
            _read_only([""] * n[0] if insertion_codes is None else insertion_codes, object, n),
        )
        self._rows: range | None = None

    @classmethod
    def from_records(cls, records: Iterable[AtomRecord]) -> "Atoms":
        """Columns of a sequence of ``AtomRecord``s, in order."""
        records = list(records)
        return cls(
            positions=np.array([a.position for a in records], dtype=np.float64).reshape(-1, 3),
            atom_ordinals=[a.atom_ordinal for a in records],
            residue_ordinals=[a.residue_ordinal for a in records],
            residue_seqs=[a.residue_seq for a in records],
            atom_names=[a.atom_name for a in records],
            residue_names=[a.residue_name for a in records],
            elements=[a.element for a in records],
            chain_ids=[a.chain_id for a in records],
            insertion_codes=[a.insertion_code for a in records],
        )

    @classmethod
    def concat(cls, parts: Iterable["Atoms"]) -> "Atoms":
        """The rows of ``parts``, one after the other."""
        parts = list(parts)
        return cls(*(np.concatenate([getattr(p, name) for p in parts]) for name in cls.COLUMNS))

    def replace(self, **columns) -> "Atoms":
        """A copy with the given columns replaced."""
        return Atoms(**{name: columns.get(name, getattr(self, name)) for name in self.COLUMNS})

    def _span(self) -> range:
        # The rows of the shared columns that this Atoms covers.
        return range(len(self._columns[1])) if self._rows is None else self._rows

    def __len__(self) -> int:
        return len(self._columns[1]) if self._rows is None else len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            row = self._span()[index]
            positions, atom_ordinals, residue_ordinals, residue_seqs, *names = self._columns
            atom_name, residue_name, element, chain_id, insertion_code = (column[row] for column in names)
            return AtomRecord(
                atom_ordinal=int(atom_ordinals[row]),
                element=element,
                atom_name=atom_name,
                residue_ordinal=int(residue_ordinals[row]),
                residue_name=residue_name,
                position=Point3(*positions[row].tolist()),
                chain_id=chain_id,
                residue_seq=int(residue_seqs[row]),
                insertion_code=insertion_code,
            )
        atoms = object.__new__(Atoms)
        if isinstance(index, slice) and (rows := self._span()[index]).step == 1:
            atoms._columns = self._columns
            atoms._rows = None if rows == range(len(self._columns[1])) else rows
            return atoms
        # Rows of valid columns stay valid; a slice of a read-only column is
        # read-only, an index array's copy is made so.
        atoms._columns = tuple(getattr(self, name)[index] for name in self.COLUMNS)
        if not isinstance(index, slice):
            for column in atoms._columns:
                column.setflags(write=False)
        atoms._rows = None
        return atoms

    def __iter__(self) -> Iterator[AtomRecord]:
        return map(
            AtomRecord,
            self.atom_ordinals.tolist(),
            self.elements.tolist(),
            self.atom_names.tolist(),
            self.residue_ordinals.tolist(),
            self.residue_names.tolist(),
            map(Point3._make, self.positions.tolist()),
            self.chain_ids.tolist(),
            self.residue_seqs.tolist(),
            self.insertion_codes.tolist(),
        )

    def __eq__(self, other):
        if not isinstance(other, Atoms):
            return NotImplemented
        return len(self) == len(other) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.COLUMNS
        )

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Atoms({list(self)!r})"


def _read_only(values, dtype, shape: tuple[int, ...]) -> np.ndarray:
    column = np.asarray(values, dtype=dtype)
    if column.shape != shape:
        raise ValueError(f"atom column of shape {column.shape}, not {shape}")
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False)
class RigidFrame:
    """Orthonormal right-handed frame: origin plus basis rows (e1, e2, e3)."""

    origin: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.float64))
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=np.float64))


# Column permutations that line up a row-wise cross product's factors.
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
# Anchor rows whose differences are a triple's sides b - a, c - a, c - b.
_SIDE_HEADS = np.array([1, 2, 2])
_SIDE_TAILS = np.array([0, 0, 1])


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Row-wise u x v with the products and differences of np.cross, whose
    # per-call axis handling dominates on a few rows.
    return u.take(_NEXT, axis=1) * v.take(_PREV, axis=1) - u.take(_PREV, axis=1) * v.take(_NEXT, axis=1)


def frame_from_triple(a, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build one frame per row of the (n, 3) anchor arrays ``a``, ``b``, ``c``.

    Row i is the frame anchored at a[i]: origin = a; e1 = unit(b - a);
    e3 = unit(e1 x (c - a)); e2 = e3 x e1. Returns ``(origins, bases,
    valid)``: origins (n, 3), bases (n, 3, 3) with rows (e1, e2, e3), and a
    boolean mask that is False where the triple is (nearly) collinear or two
    anchors (nearly) coincide; the basis of such a row is meaningless.

    Squared lengths come from ``np.vecdot``, which reduces each 3-vector with
    the same dot kernel as ``v @ v``; the reduction order is part of the
    result, and ``(v * v).sum(axis=1)`` or ``einsum`` round differently.

    Raises ValueError when any anchor is not finite.
    """
    anchors = np.stack([np.asarray(p, dtype=np.float64).reshape(-1, 3) for p in (a, b, c)])
    if not np.isfinite(anchors).all():
        raise ValueError("frame anchors must be finite")
    sides = anchors[_SIDE_HEADS] - anchors[_SIDE_TAILS]  # b - a, c - a, c - b
    lengths = np.sqrt(np.vecdot(sides, sides))
    valid = (lengths >= MIN_SEPARATION).all(axis=0)
    v1, v2 = sides[0], sides[1]
    d_ab, d_ac = lengths[0], lengths[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cr = _cross(v1, v2)
        valid &= np.sqrt(np.vecdot(cr, cr)) / (d_ab * d_ac) >= COLLINEARITY_TOL
        e1 = v1 / d_ab[:, None]
        e3 = _cross(e1, v2)
        e3 = e3 / np.sqrt(np.vecdot(e3, e3))[:, None]
        e2 = _cross(e3, e1)
    return anchors[0], np.concatenate((e1, e2, e3), axis=1).reshape(-1, 3, 3), valid


def transform_points(frame: RigidFrame, points: np.ndarray) -> np.ndarray:
    """Express an (n, 3) array of points in ``frame``.

    The oracle's one-frame transform; ``transform_frames``, the engine's,
    gives each frame the same values bit for bit.
    """
    return (np.asarray(points, dtype=np.float64) - frame.origin) @ frame.basis.T


def transform_frames(origins: np.ndarray, bases: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Express an (n, 3) array of points in each of m frames at once.

    ``origins`` is (m, 3) and ``bases`` (m, 3, 3); the result is (m, n, 3).
    One ``np.matmul`` runs the same per-matrix product as ``transform_points``,
    so each frame's slice equals that frame's ``transform_points`` bit for bit.
    """
    shifted = np.asarray(points, dtype=np.float64)[None, :, :] - origins[:, None, :]
    return np.matmul(shifted, bases.transpose(0, 2, 1))


def point_norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm per row of an (n, 3) array.

    Sums the squares column by column, x*x + y*y + z*z, in the order a
    row sum takes them, so the result equals ``sqrt((p * p).sum(axis=1))``
    bit for bit without its slow reduction over a length-3 axis.
    """
    x, y, z = np.asarray(points, dtype=np.float64).T
    return np.sqrt(x * x + y * y + z * z)
