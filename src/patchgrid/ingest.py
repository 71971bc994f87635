"""Parsers for structure, template and keyword files, plus patch dedup.

Structure files are fixed-width text in the legacy public format; only ATOM
and SITE records are consumed (first model, alternate location blank or
'A'). Template files are a line-oriented tabular format::

    template_id  residue_name  atom_name  x  y  z

with ``#`` comments. Keyword annotation files are UTF-8 TSV, one entity per
line: ``entity_id<TAB>keyword<TAB>keyword...``.

Column layout of the fixed-width records (1-based, inclusive):

    ATOM: record name 1-6, serial 7-11, atom name 13-16, altLoc 17,
          residue name 18-20, chain id 22, residue seq 23-26,
          x 31-38, y 39-46, z 47-54, element 77-78
    SITE: site id 12-14, up to four residues per line at
          (residue name 19-21, chain id 23, residue seq 24-27) and
          +11 columns for each further slot
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable, NamedTuple

from .errors import EmptyStructure, MalformedRecord
from .geometry import AtomRecord, Point3

logger = logging.getLogger(__name__)

# Coordinates are compared at file precision when testing for duplicates.
DUPLICATE_COORD_TOL = 1e-3


class OriginTag(Enum):
    SiteRecord = "site"
    Template = "template"


@dataclass(frozen=True)
class Protein:
    """A parsed structure: ordered atoms plus the structure id."""

    protein_id: str
    atoms: tuple[AtomRecord, ...]

    @property
    def residue_count(self) -> int:
        return len({a.residue_ordinal for a in self.atoms})


@dataclass(frozen=True)
class Patch:
    """A small substructure extracted from a source structure."""

    patch_id: str
    source_protein_id: str
    atoms: tuple[AtomRecord, ...]
    origin_tag: OriginTag


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


def parse_structure_file(stream: IO[str] | Iterable[str], protein_id: str | None = None) -> Protein:
    """Parse all ATOM records of a structure file, first model only.

    Residue ordinals are assigned in order of first appearance of
    (chain id, residue sequence number). Raises MalformedRecord with the
    offending line number, or EmptyStructure when no ATOM records exist.
    """
    atoms: list[AtomRecord] = []
    residue_index: dict[tuple[str, int], int] = {}
    header_id = None
    in_first_model = True
    for line_number, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        record = line[0:6].strip()
        if record == "HEADER" and header_id is None:
            header_id = line[62:66].strip() or None
        elif record == "ENDMDL":
            in_first_model = False
        elif record == "ATOM" and in_first_model:
            altloc = line[16:17]
            if altloc not in ("", " ", "A"):
                continue
            _parse_int(line[6:11], "atom serial", line_number)
            atom_name = line[12:16].strip()
            residue_name = line[17:20].strip()
            chain_id = line[21:22].strip()
            residue_seq = _parse_int(line[22:26], "residue number", line_number)
            x = _parse_float(line[30:38], "x", line_number)
            y = _parse_float(line[38:46], "y", line_number)
            z = _parse_float(line[46:54], "z", line_number)
            element = line[76:78].strip() or (atom_name[:1] if atom_name else "")
            key = (chain_id, residue_seq)
            if key not in residue_index:
                residue_index[key] = len(residue_index)
            atoms.append(
                AtomRecord(
                    atom_ordinal=len(atoms),
                    element=element,
                    atom_name=atom_name,
                    residue_ordinal=residue_index[key],
                    residue_name=residue_name,
                    position=Point3(x, y, z),
                    chain_id=chain_id,
                    residue_seq=residue_seq,
                )
            )
    if not atoms:
        raise EmptyStructure("no ATOM records found")
    return Protein(protein_id=protein_id or header_id or "UNKNOWN", atoms=tuple(atoms))


_SITE_SLOT_OFFSETS = (18, 29, 40, 51)


def extract_site_patches(
    stream: IO[str] | Iterable[str],
    protein: Protein,
    counters: dict[str, int] | None = None,
) -> list[Patch]:
    """Group SITE records by site identifier and cut one patch per site.

    Residue references are matched against the protein on (chain id,
    residue sequence number, residue name); unresolvable references are
    counted under ``counters['site_residues_unresolved']`` and sites that
    resolve no residue at all are dropped and counted under
    ``counters['sites_dropped']``. Patch ids are ``<protein_id>_<k>`` with
    k running in order of first appearance of the site identifier.
    """
    sites: dict[str, list[tuple[str, str, int]]] = {}
    for raw in stream:
        line = raw.rstrip("\n")
        if line[0:6].strip() != "SITE":
            continue
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
            slots.append((residue_name, chain_id, residue_seq))

    by_residue: dict[tuple[str, str, int], list[AtomRecord]] = {}
    for atom in protein.atoms:
        by_residue.setdefault((atom.residue_name, atom.chain_id, atom.residue_seq), []).append(atom)

    patches: list[Patch] = []
    for site_id, refs in sites.items():
        atoms: list[AtomRecord] = []
        seen: set[tuple[str, str, int]] = set()
        for ref in refs:
            if ref in seen:
                continue
            seen.add(ref)
            found = by_residue.get(ref)
            if found is None:
                _count(counters, "site_residues_unresolved")
                logger.warning("site %s: unresolvable residue %s", site_id, ref)
                continue
            atoms.extend(found)
        if not atoms:
            _count(counters, "sites_dropped")
            logger.warning("site %s resolves no residues; dropped", site_id)
            continue
        atoms.sort(key=lambda a: a.atom_ordinal)
        patches.append(
            Patch(
                patch_id=f"{protein.protein_id}_{len(patches)}",
                source_protein_id=protein.protein_id,
                atoms=tuple(atoms),
                origin_tag=OriginTag.SiteRecord,
            )
        )
    return patches


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
        atoms: list[AtomRecord] = []
        residue_ordinal = -1
        current_residue: str | None = None
        names_in_residue: set[str] = set()
        for residue_name, atom_name, x, y, z in rows:
            if residue_name != current_residue or atom_name in names_in_residue:
                residue_ordinal += 1
                current_residue = residue_name
                names_in_residue = set()
            names_in_residue.add(atom_name)
            atoms.append(
                AtomRecord(
                    atom_ordinal=len(atoms),
                    element=atom_name[:1],
                    atom_name=atom_name,
                    residue_ordinal=residue_ordinal,
                    residue_name=residue_name,
                    position=Point3(x, y, z),
                    chain_id="A",
                    residue_seq=residue_ordinal + 1,
                )
            )
        patches.append(
            Patch(
                patch_id=template_id,
                source_protein_id=template_id,
                atoms=tuple(atoms),
                origin_tag=OriginTag.Template,
            )
        )
    return patches


def _atoms_equivalent(a: Patch, b: Patch) -> bool:
    if len(a.atoms) != len(b.atoms):
        return False
    for x, y in zip(a.atoms, b.atoms):
        if x.atom_name != y.atom_name or x.residue_name != y.residue_name:
            return False
        if (
            abs(x.position.x - y.position.x) > DUPLICATE_COORD_TOL
            or abs(x.position.y - y.position.y) > DUPLICATE_COORD_TOL
            or abs(x.position.z - y.position.z) > DUPLICATE_COORD_TOL
        ):
            return False
    return True


# Edge of the buckets dedup_patches files groups under. Coordinates within
# DUPLICATE_COORD_TOL quantize to the same or an adjacent bucket at twice
# the tolerance, even after the rounding of x / edge.
_DEDUP_BUCKET = 2 * DUPLICATE_COORD_TOL
_NEIGHBOURS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]


def _dedup_bucket(patch: Patch) -> tuple[int, int, int, int]:
    """Atom count plus the bucket of the first atom's position."""
    first = patch.atoms[0].position if patch.atoms else (0.0, 0.0, 0.0)
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
        match = next((gi for gi in candidates if _atoms_equivalent(groups[gi][0], patch)), None)
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
