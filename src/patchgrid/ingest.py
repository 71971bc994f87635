"""Parsers for structure, template and keyword files, plus patch dedup.

Every parsed atom lives in one representation, ``geometry.Atoms``: columns
of positions, ordinals, residue numbers and names, held by ``Protein.atoms``
and ``Patch.atoms`` and read as columns by SITE extraction, dedup and the
indexer. No per-atom object is built on the way; an ``AtomRecord`` is made
only when an ``Atoms`` is indexed or iterated.

Structure files are fixed-width text in the legacy public format; only ATOM
and SITE records are consumed (first model, alternate location blank or
'A'). Their ATOM lines are cut into one character table, and each field
becomes a column with one conversion. Template files are a line-oriented
tabular format::

    template_id  residue_name  atom_name  x  y  z

with ``#`` comments. Keyword annotation files are UTF-8 TSV, one entity per
line: ``entity_id<TAB>keyword<TAB>keyword...``.

Column layout of the fixed-width records (1-based, inclusive):

    ATOM: record name 1-6, serial 7-11, atom name 13-16, altLoc 17,
          residue name 18-20, chain id 22, residue seq 23-26,
          insertion code 27, x 31-38, y 39-46, z 47-54, element 77-78
    SITE: site id 12-14, up to four residues per line at
          (residue name 19-21, chain id 23, residue seq 24-27,
          insertion code 28) and +11 columns for each further slot
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, NamedTuple

import numpy as np

from .errors import EmptyStructure, MalformedRecord
from .geometry import Atoms

logger = logging.getLogger(__name__)

# Coordinates are compared at file precision when testing for duplicates.
DUPLICATE_COORD_TOL = 1e-3


class OriginTag(Enum):
    SiteRecord = "site"
    Template = "template"


def _as_atoms(owner) -> None:
    # A sequence of AtomRecords becomes columns once, at construction.
    if not isinstance(owner.atoms, Atoms):
        object.__setattr__(owner, "atoms", Atoms.from_records(owner.atoms))


@dataclass(frozen=True)
class Protein:
    """A parsed structure: ordered atoms plus the structure id.

    ``atoms`` may be given as a sequence of ``AtomRecord``s; it is stored as
    ``Atoms``.
    """

    protein_id: str
    atoms: Atoms

    __post_init__ = _as_atoms

    @property
    def residue_count(self) -> int:
        return len(np.unique(self.atoms.residue_ordinals))


@dataclass(frozen=True)
class Patch:
    """A small substructure extracted from a source structure; ``atoms`` is
    stored as ``Atoms``, like ``Protein.atoms``."""

    patch_id: str
    source_protein_id: str
    atoms: Atoms
    origin_tag: OriginTag

    __post_init__ = _as_atoms


class KeywordAnnotation(NamedTuple):
    entity_id: str
    keywords: frozenset[str]


def _parse_float(text: str, what: str, line_number: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRecord(f"bad {what} field {text.strip()!r}", line_number) from None
    if not math.isfinite(value):
        raise MalformedRecord(f"non-finite {what} field {text.strip()!r}", line_number)
    return value


def _parse_int(text: str, what: str, line_number: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedRecord(f"bad {what} field {text.strip()!r}", line_number) from None


# 0-based [start, stop) columns of the ATOM fields; every field lies in the
# first _ATOM_WIDTH characters of a line.
_ATOM_WIDTH = 78
_ALTLOC = 16
_SERIAL = (6, 11)
_RESIDUE_SEQ = (22, 26)
_ICODE = 26
_XYZ = (30, 54)
# The text fields, gathered into one key per atom: atom name 12-16,
# residue name 17-20, chain id 21 and element 76-78.
_TEXT_COLUMNS = np.r_[12:16, 17:20, 21:22, 76:78]
_SPACE, _ALTLOC_A = ord(" "), ord("A")


def parse_structure_file(stream: IO[str] | Iterable[str], protein_id: str | None = None) -> Protein:
    """Parse all ATOM records of a structure file, first model only.

    The first HEADER record with a non-blank id names the structure when
    ``protein_id`` is not given. Residue ordinals are assigned in order of
    first appearance of (chain id, residue sequence number, insertion
    code), and a blank element falls back to the first letter of the atom
    name. Raises MalformedRecord with the offending line number, or
    EmptyStructure when no ATOM records exist.

    The ATOM lines are cut by character into one table of ``_ATOM_WIDTH``
    columns, padded with blanks, and each numeric field is converted with
    one numpy cast, which parses each value as ``int()`` or ``float()``
    does. Only when a cast fails, a value is not finite or a line holds a
    NUL character (numpy strings drop the trailing NULs that ``int()`` and
    ``float()`` reject) are the numeric fields read again line by line,
    which raises the first bad field's MalformedRecord. The text fields of
    an atom form one key, and each distinct key is split and stripped once.
    """
    lines = list(stream)
    records = [raw[0:6].strip() for raw in lines]
    end = records.index("ENDMDL") if "ENDMDL" in records else len(records)
    numbers = [i for i in range(end) if records[i] == "ATOM"]
    header_ids = (raw.rstrip("\n")[62:66].strip() for raw, record in zip(lines, records) if record == "HEADER")
    header_id = next(filter(None, header_ids), None)
    atom_lines = [lines[i].rstrip("\n") for i in numbers]
    table = _character_table(atom_lines)
    kept = np.flatnonzero((table[:, _ALTLOC] == _SPACE) | (table[:, _ALTLOC] == _ALTLOC_A))
    if not len(kept):
        raise EmptyStructure("no ATOM records found")
    table = table[kept]
    try:
        if not table.all():
            raise ValueError("NUL character")
        _field(table, _SERIAL).astype(np.int64)
        residue_seqs = _field(table, _RESIDUE_SEQ).astype(np.int64)
        positions = _field(table, _XYZ, 8).astype(np.float64).reshape(-1, 3)
        if not np.isfinite(positions).all():
            raise ValueError("non-finite coordinate")
    except ValueError:
        residue_seqs, positions = _numeric_fields(
            [atom_lines[k] for k in kept], [numbers[k] + 1 for k in kept]
        )

    keys = np.ascontiguousarray(table[:, _TEXT_COLUMNS]).view(
        np.dtype((np.void, len(_TEXT_COLUMNS) * table.itemsize))
    )
    distinct, text_of_atom = np.unique(keys.ravel(), return_inverse=True)
    texts = ["".join(map(chr, row)) for row in distinct.view(table.dtype).reshape(len(distinct), -1).tolist()]
    atom_names = [t[0:4].strip() for t in texts]
    chains = [t[7:8].strip() for t in texts]
    chain_number = {chain: k for k, chain in enumerate(dict.fromkeys(chains))}
    chain_of_atom = np.array([chain_number[c] for c in chains], dtype=np.int64)[text_of_atom]

    # Residue ordinals number the distinct (chain, residue number,
    # insertion code) keys.
    icodes, icode_of_atom = np.unique(table[:, _ICODE], return_inverse=True)
    low = residue_seqs.min()
    residue_keys = chain_of_atom * (residue_seqs.max() - low + 1) + (residue_seqs - low)
    residue_keys = residue_keys * (icode_of_atom.max() + 1) + icode_of_atom

    def text_column(values):
        return np.array(values, dtype=object)[text_of_atom]

    atoms = Atoms(
        positions=positions,
        atom_ordinals=np.arange(len(kept)),
        residue_ordinals=_first_appearance_ordinals(residue_keys),
        residue_seqs=residue_seqs,
        atom_names=text_column(atom_names),
        residue_names=text_column([t[4:7].strip() for t in texts]),
        elements=text_column([t[8:10].strip() or name[:1] for t, name in zip(texts, atom_names)]),
        chain_ids=text_column(chains),
        insertion_codes=np.array([chr(c).strip() for c in icodes.tolist()], dtype=object)[icode_of_atom],
    )
    return Protein(protein_id=protein_id or header_id or "UNKNOWN", atoms=atoms)


def _first_appearance_ordinals(keys: np.ndarray) -> np.ndarray:
    """Dense ordinals of ``keys``, numbered in order of first appearance."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def _character_table(lines: list[str]) -> np.ndarray:
    """The first ``_ATOM_WIDTH`` characters of each line as one row of
    character codes (uint8 when every line is ASCII, else uint32), with
    blanks past each line's end."""
    try:
        table = np.array(lines, dtype=f"S{_ATOM_WIDTH}").view(np.uint8)
    except UnicodeEncodeError:
        table = np.array(lines, dtype=f"U{_ATOM_WIDTH}").view(np.uint32)
    table = table.reshape(len(lines), _ATOM_WIDTH)
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    table[np.arange(_ATOM_WIDTH) >= lengths[:, None]] = _SPACE
    return table


def _field(table: np.ndarray, columns: tuple[int, int], width: int | None = None) -> np.ndarray:
    """Columns ``[start, stop)`` of every row as strings of ``width``
    characters (default: the whole span), to be cast with ``astype``."""
    start, stop = columns
    kind = "S" if table.dtype == np.uint8 else "U"
    return np.ascontiguousarray(table[:, start:stop]).view(f"{kind}{width or stop - start}").ravel()


def _numeric_fields(lines: list[str], line_numbers: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Residue numbers and positions of ATOM lines, read line by line in the
    order the fields appear; raises MalformedRecord at the first bad one."""
    residue_seqs, positions = [], []
    for line, line_number in zip(lines, line_numbers):
        _parse_int(line[6:11], "atom serial", line_number)
        residue_seqs.append(_parse_int(line[22:26], "residue number", line_number))
        positions.append([
            _parse_float(line[start:start + 8], axis, line_number) for start, axis in ((30, "x"), (38, "y"), (46, "z"))
        ])
    return np.array(residue_seqs, dtype=np.int64), np.array(positions, dtype=np.float64)


_SITE_SLOT_OFFSETS = (18, 29, 40, 51)


def extract_site_patches(
    stream: IO[str] | Iterable[str],
    protein: Protein,
    counters: dict[str, int] | None = None,
) -> list[Patch]:
    """Group SITE records by site identifier and cut one patch per site.

    Residue references are matched against the protein on (residue name,
    chain id, residue sequence number, insertion code), so a reference to
    52 takes neither 52A nor 52B; unresolvable references are
    counted under ``counters['site_residues_unresolved']`` and sites that
    resolve no residue at all are dropped and counted under
    ``counters['sites_dropped']``. Patch ids are ``<protein_id>_<k>`` with
    k running in order of first appearance of the site identifier.
    """
    sites: dict[str, list[tuple[str, str, int, str]]] = {}
    for line in [raw.rstrip("\n") for raw in stream if raw[0:6].strip() == "SITE"]:
        site_id = line[11:14].strip()
        if not site_id:
            continue
        slots = sites.setdefault(site_id, [])
        for off in _SITE_SLOT_OFFSETS:
            residue_name = line[off : off + 3].strip()
            chain_id = line[off + 4 : off + 5].strip()
            seq_text = line[off + 5 : off + 9].strip()
            if not residue_name and not seq_text:
                continue
            try:
                residue_seq = int(seq_text)
            except ValueError:
                _count(counters, "site_residues_unresolved")
                continue
            slots.append((residue_name, chain_id, residue_seq, line[off + 9 : off + 10].strip()))

    # The atom rows of each (residue name, chain id, residue number,
    # insertion code), as (start, stop) runs of consecutive rows with equal keys.
    atoms = protein.atoms
    columns = (atoms.residue_names, atoms.chain_ids, atoms.residue_seqs, atoms.insertion_codes)
    change = np.logical_or.reduce([column[1:] != column[:-1] for column in columns])
    bounds = [0, *(np.flatnonzero(change) + 1).tolist(), len(atoms)] if len(atoms) else []
    names, chains, seqs, icodes = columns
    by_residue: dict[tuple[str, str, int, str], list[tuple[int, int]]] = {}
    for start, stop in zip(bounds, bounds[1:]):
        key = (names[start], chains[start], int(seqs[start]), icodes[start])
        by_residue.setdefault(key, []).append((start, stop))

    site_runs: list[list[tuple[int, int]]] = []
    for site_id, refs in sites.items():
        runs: list[tuple[int, int]] = []
        for ref in dict.fromkeys(refs):
            found = by_residue.get(ref)
            if found is None:
                _count(counters, "site_residues_unresolved")
                logger.warning("site %s: unresolvable residue %s", site_id, ref)
                continue
            runs.extend(found)
        if not runs:
            _count(counters, "sites_dropped")
            logger.warning("site %s resolves no residues; dropped", site_id)
            continue
        site_runs.append(runs)
    if not site_runs:
        return []

    # Every site's rows, ordered by site and then stably by atom ordinal,
    # are taken at once; each patch is a slice of them.
    starts, stops = np.array([run for runs in site_runs for run in runs]).T
    sizes = stops - starts
    rows = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
    site_of_row = np.repeat(np.arange(len(site_runs)), [sum(b - a for a, b in runs) for runs in site_runs])
    cut = atoms[rows[np.lexsort((atoms.atom_ordinals[rows], site_of_row))]]
    ends = np.cumsum(np.bincount(site_of_row)).tolist()
    return [
        Patch(
            patch_id=f"{protein.protein_id}_{k}",
            source_protein_id=protein.protein_id,
            atoms=cut[start:stop],
            origin_tag=OriginTag.SiteRecord,
        )
        for k, (start, stop) in enumerate(zip([0] + ends, ends))
    ]


def parse_template_file(stream: IO[str] | Iterable[str]) -> list[Patch]:
    """Parse a tabular template file into one patch per template id.

    Atoms stay in file order. Residue boundaries within a template open on a
    change of residue name or on a repeated atom name (so consecutive equal
    residues in Ca/Cb templates still split).
    """
    groups: dict[str, list[tuple[str, str, float, float, float]]] = {}
    for line_number, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 6:
            raise MalformedRecord(
                f"expected 6 fields (template_id residue_name atom_name x y z), got {len(fields)}",
                line_number,
            )
        template_id, residue_name, atom_name = fields[0], fields[1], fields[2]
        x = _parse_float(fields[3], "x", line_number)
        y = _parse_float(fields[4], "y", line_number)
        z = _parse_float(fields[5], "z", line_number)
        groups.setdefault(template_id, []).append((residue_name, atom_name, x, y, z))

    patches: list[Patch] = []
    for template_id, rows in groups.items():
        residue_ordinals = []
        residue_ordinal = -1
        current_residue: str | None = None
        names_in_residue: set[str] = set()
        for residue_name, atom_name, *_ in rows:
            if residue_name != current_residue or atom_name in names_in_residue:
                residue_ordinal += 1
                current_residue = residue_name
                names_in_residue = set()
            names_in_residue.add(atom_name)
            residue_ordinals.append(residue_ordinal)
        residue_names, atom_names, *xyz = zip(*rows)
        atoms = Atoms(
            positions=np.array(xyz, dtype=np.float64).T,
            atom_ordinals=np.arange(len(rows)),
            residue_ordinals=residue_ordinals,
            residue_seqs=np.array(residue_ordinals) + 1,
            atom_names=atom_names,
            residue_names=residue_names,
            elements=[name[:1] for name in atom_names],
            chain_ids=["A"] * len(rows),
        )
        patches.append(
            Patch(
                patch_id=template_id,
                source_protein_id=template_id,
                atoms=atoms,
                origin_tag=OriginTag.Template,
            )
        )
    return patches


def _atoms_equivalent(a: Atoms, b: Atoms) -> bool:
    return (
        len(a) == len(b)
        and np.array_equal(a.atom_names, b.atom_names)
        and np.array_equal(a.residue_names, b.residue_names)
        and not (np.abs(a.positions - b.positions) > DUPLICATE_COORD_TOL).any()
    )


# Edge of the buckets dedup_patches files groups under. Coordinates within
# DUPLICATE_COORD_TOL quantize to the same or an adjacent bucket at twice
# the tolerance, even after the rounding of x / edge.
_DEDUP_BUCKET = 2 * DUPLICATE_COORD_TOL
_NEIGHBOURS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]


def _dedup_bucket(patch: Patch) -> tuple[int, int, int, int]:
    """Atom count plus the bucket of the first atom's position."""
    first = patch.atoms.positions[0].tolist() if len(patch.atoms) else (0.0, 0.0, 0.0)
    x, y, z = (math.floor(c / _DEDUP_BUCKET) for c in first)
    return len(patch.atoms), x, y, z


def dedup_patches(patches: list[Patch]) -> list[Patch]:
    """Collapse duplicate patches.

    Two patches are duplicates when they have equal atom counts and, aligned
    in file order, matching atom and residue names with coordinates equal
    within 1e-3 A. A patch joins the first group, in creation order, whose
    first member it duplicates. Each duplicate group keeps its SITE-derived
    member if one exists (the lexicographically smallest patch id breaks
    remaining ties); survivors keep the input order of their group's first
    member.

    Groups are bucketed by atom count and first-atom position, so a patch
    is compared only with the groups in the 27 buckets around its own.
    """
    groups: list[list[Patch]] = []
    buckets: dict[tuple[int, int, int, int], list[int]] = {}
    for patch in patches:
        key = n, bx, by, bz = _dedup_bucket(patch)
        candidates = sorted(
            gi for dx, dy, dz in _NEIGHBOURS for gi in buckets.get((n, bx + dx, by + dy, bz + dz), ())
        )
        match = next((gi for gi in candidates if _atoms_equivalent(groups[gi][0].atoms, patch.atoms)), None)
        if match is None:
            buckets.setdefault(key, []).append(len(groups))
            groups.append([patch])
        else:
            groups[match].append(patch)

    survivors = []
    for group in groups:
        site_members = [p for p in group if p.origin_tag is OriginTag.SiteRecord]
        pool = site_members or group
        survivors.append(min(pool, key=lambda p: p.patch_id))
    return survivors


def parse_keyword_file(stream: IO[str] | Iterable[str]) -> list[KeywordAnnotation]:
    """Parse a TSV keyword file; repeated entity ids merge their keyword sets."""
    merged: dict[str, set[str]] = {}
    for line_number, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        entity_id = fields[0].strip()
        if not entity_id:
            raise MalformedRecord("missing entity id", line_number)
        keywords = {f.strip() for f in fields[1:] if f.strip()}
        merged.setdefault(entity_id, set()).update(keywords)
    return [KeywordAnnotation(eid, frozenset(kws)) for eid, kws in merged.items()]


def _count(counters: dict[str, int] | None, key: str, n: int = 1) -> None:
    if counters is not None:
        counters[key] = counters.get(key, 0) + n
