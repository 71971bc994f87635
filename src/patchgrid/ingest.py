"""Parsers for structure, template and keyword files, plus patch dedup.

Every parsed atom lives in one representation, ``geometry.Atoms``: columns
of positions, ordinals, residue numbers and names, held by ``Protein.atoms``
and ``Patch.atoms`` and read as columns by SITE extraction, dedup and the
indexer. No per-atom object is built on the way; an ``AtomRecord`` is made
only when an ``Atoms`` is indexed or iterated.

Structure files are fixed-width text in the legacy public format; only ATOM
and SITE records are consumed (first model, alternate location blank or
'A'). Their ATOM lines are cut into one character table, whose numeric
fields are decoded as columns and whose text fields become one integer key
per atom. Template files are a line-oriented tabular format::

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
import sys
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


# 0-based columns of the ATOM fields. Every field lies in the first
# _ATOM_WIDTH characters of a line; the character table adds one blank
# column, _PAD, that pads short fields to one width.
_ATOM_WIDTH = _PAD = 78
_ALTLOC = 16
# The numeric fields as _DIGITS characters each, right-justified with _PAD:
# serial 6-11, residue number 22-26, and x, y and z (30-38, 38-46, 46-54)
# without the decimal point each holds at _POINTS.
_DIGITS = 8
_POINTS = np.array([34, 42, 50])
_NUMERIC = np.array([
    [_PAD] * 3 + list(range(6, 11)),
    [_PAD] * 4 + list(range(22, 26)),
    *([_PAD, *range(point - 4, point), *range(point + 1, point + 4)] for point in _POINTS.tolist()),
])
# The text fields of an atom, gathered into one key of whole 8-byte words:
# atom name 12-16, residue name 17-20, chain id 21, insertion code 26 and
# element 76-78, padded with _PAD.
_TEXT_COLUMNS = np.r_[12:16, 17:20, 21:22, 26:27, 76:78, [_PAD] * 5]
_SPACE, _ALTLOC_A = ord(" "), ord("A")


def parse_structure_file(stream: IO[str] | Iterable[str], protein_id: str | None = None) -> Protein:
    """Parse all ATOM records of a structure file, first model only.

    The first HEADER record with a non-blank id names the structure when
    ``protein_id`` is not given. Residue ordinals are assigned in order of
    first appearance of (chain id, residue sequence number, insertion
    code), and a blank element falls back to the first letter of the atom
    name. Raises MalformedRecord with the offending line number, or
    EmptyStructure when no ATOM records exist.

    The ATOM lines are cut by character into one table, and the numeric
    fields are decoded from it as columns by ``_decode_digits``, which
    takes exactly the right-justified forms ``[blanks][-]digits`` (serial,
    residue number) and ``[blanks][-]digits.ddd`` (x, y, z). When any field
    has another form, the numeric fields are read again line by line as
    ``int()`` and ``float()`` read them, which raises the first bad field's
    MalformedRecord. The text fields of an atom form one integer key, and
    the fields of each distinct key are cut from one of its lines and
    interned (``sys.intern``).
    """
    lines = list(stream)
    records = [raw[0:6].strip() for raw in lines]
    end = records.index("ENDMDL") if "ENDMDL" in records else len(records)
    numbers = [i for i in range(end) if records[i] == "ATOM"]
    atom_lines = [lines[i].rstrip("\n") for i in numbers]
    table = _character_table(atom_lines)
    kept = np.flatnonzero((table[:, _ALTLOC] == _SPACE) | (table[:, _ALTLOC] == _ALTLOC_A))
    if not len(kept):
        raise EmptyStructure("no ATOM records found")
    table = table[kept]
    valid, values = _decode_digits(table[:, _NUMERIC])
    points = (table[:, _POINTS] == ord(".")).all() and (table[:, _POINTS - 1] - ord("0") < 10).all()
    if valid.all() and points:
        residue_seqs = values[:, 1].astype(np.int64)
        positions = values[:, 2:] / 1000.0
    else:
        residue_seqs, positions = _numeric_fields(
            [atom_lines[k] for k in kept], [numbers[k] + 1 for k in kept]
        )

    first, text_of_atom = _distinct_rows(np.ascontiguousarray(table[:, _TEXT_COLUMNS]).view(np.uint64))
    texts = [atom_lines[k] for k in kept[first].tolist()]
    atom_names = [line[12:16].strip() for line in texts]
    chains = [line[21:22].strip() for line in texts]

    # Residue ordinals number the distinct (chain, residue number,
    # insertion code) keys; the chain by its stripped id, the code as is.
    icodes = [line[26:27] or " " for line in texts]
    number: dict[tuple[str, str], int] = {}
    residue_of_text = np.array([number.setdefault(key, len(number)) for key in zip(chains, icodes)])
    low = residue_seqs.min()
    residue_keys = residue_of_text[text_of_atom] * (residue_seqs.max() - low + 1) + (residue_seqs - low)

    # Names are interned, so equal names of every file share one str.
    def text_column(values):
        return np.array([sys.intern(value) for value in values], dtype=object)[text_of_atom]

    atoms = Atoms(
        positions=positions,
        atom_ordinals=np.arange(len(kept)),
        residue_ordinals=_first_appearance_ordinals(residue_keys),
        residue_seqs=residue_seqs,
        atom_names=text_column(atom_names),
        residue_names=text_column([line[17:20].strip() for line in texts]),
        elements=text_column([line[76:78].strip() or name[:1] for line, name in zip(texts, atom_names)]),
        chain_ids=text_column(chains),
        insertion_codes=text_column([icode.strip() for icode in icodes]),
    )
    # HEADER records are read only when no protein_id is given.
    header_ids = (raw.rstrip("\n")[62:66].strip() for raw, record in zip(lines, records) if record == "HEADER")
    return Protein(protein_id=protein_id or next(filter(None, header_ids), "UNKNOWN"), atoms=atoms)


def _first_appearance_ordinals(keys: np.ndarray) -> np.ndarray:
    """Dense ordinals of ``keys``, numbered in order of first appearance.
    Only the first key of each run of equal keys is ranked."""
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(starts)
    _, first, inverse = np.unique(keys[starts], return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return np.repeat(rank[inverse], np.diff(starts, append=len(keys)))


def _character_table(lines: list[str]) -> np.ndarray:
    """The first ``_ATOM_WIDTH`` characters of each line as one row of
    character codes (uint8 when every line is ASCII, else uint32), with
    blanks past each line's end and in one more column, ``_PAD``."""
    try:
        rows = np.array(lines, dtype=f"S{_ATOM_WIDTH + 1}")
    except UnicodeEncodeError:
        rows = np.array(lines, dtype=f"U{_ATOM_WIDTH + 1}")
    table = rows.view(np.uint8 if rows.dtype.kind == "S" else np.uint32).reshape(len(lines), _ATOM_WIDTH + 1)
    # numpy's lengths leave out trailing NULs, so only the lines it finds
    # short are measured again.
    short = np.flatnonzero(np.strings.str_len(rows) < _ATOM_WIDTH)
    lengths = np.array([len(lines[k]) for k in short.tolist()], dtype=np.int64)
    past_end = np.arange(_ATOM_WIDTH + 1) >= np.minimum(lengths, _ATOM_WIDTH)[:, None]
    table[short] = np.where(past_end, _SPACE, table[short])
    table[:, _PAD] = _SPACE
    return table


# Place values of the _DIGITS characters of a field.
_PLACES = 10.0 ** np.arange(_DIGITS - 1, -1, -1)


def _decode_digits(chars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each field of ``_DIGITS`` characters along the last axis of
    ``chars`` has the form ``[blanks][-]digits`` and, where it has, its value
    as ``int()`` reads it, as an exact float64 that keeps a minus on zero.
    Other forms ``int()`` takes (``+5``, ``1_0``, ``٣``) are not valid."""
    digits = chars - ord("0")  # wraps below "0", as the codes are unsigned
    digit = digits < 10
    minus = chars == ord("-")
    # Digits end the field; before them come blanks, then at most one minus.
    form = digit | (chars == _SPACE)
    form[..., :-1] |= minus[..., :-1] & digit[..., 1:]
    valid = form.all(axis=-1) & (digit[..., :-1] <= digit[..., 1:]).all(axis=-1) & digit[..., -1]
    # Every partial sum is an integer below 2**53, so the sum is exact.
    value = np.einsum("...i,i->...", digits * digit, _PLACES)
    return valid, np.where(minus.any(axis=-1), -value, value)


def _distinct_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row index for each distinct row of the 2-D ``words`` and, for
    every row, the number of its distinct row."""
    order = np.lexsort(words.T)
    ordered = words[order]
    new = np.ones(len(words), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(words), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


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

    Atoms are grouped into runs of one residue ordinal and residue name, a
    reference finds its runs by one dict lookup, and all rows are taken at once.
    """
    sites: dict[str, list[tuple[str, str, int, str]]] = {}
    # A SITE record holds "SITE" in its first six characters, so the strip
    # runs on few lines.
    for line in [raw.rstrip("\n") for raw in stream if "SITE" in raw[0:6] and raw[0:6].strip() == "SITE"]:
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

    # Runs of consecutive atoms of one residue ordinal, which numbers the
    # (chain id, residue number, insertion code) keys, and one residue name.
    atoms = protein.atoms
    ordinals, names = atoms.residue_ordinals, atoms.residue_names
    new = np.ones(len(atoms), dtype=bool)
    new[1:] = (ordinals[1:] != ordinals[:-1]) | (names[1:] != names[:-1])
    starts = np.flatnonzero(new)
    runs_of: dict[tuple[str, str, int, str], list[int]] = {}
    columns = (names, atoms.chain_ids, atoms.residue_seqs, atoms.insertion_codes)
    for run, key in enumerate(zip(*(column[starts].tolist() for column in columns))):
        runs_of.setdefault(key, []).append(run)

    site_runs: list[list[int]] = []
    for site_id, refs in sites.items():
        runs: list[int] = []
        for ref in dict.fromkeys(refs):
            found = runs_of.get(ref)
            if found is None:
                _count(counters, "site_residues_unresolved")
                logger.warning("site %s: unresolvable residue %s", site_id, ref)
                continue
            runs += found
        if not runs:
            _count(counters, "sites_dropped")
            logger.warning("site %s resolves no residues; dropped", site_id)
            continue
        site_runs.append(runs)
    if not site_runs:
        return []

    # Every site's rows, ordered by site and then stably by atom ordinal,
    # are taken at once; each patch is a slice of them.
    run = np.array([r for runs in site_runs for r in runs])
    sizes = np.diff(starts, append=len(atoms))[run]
    rows = np.repeat(starts[run] - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
    site_of_row = np.repeat(np.repeat(np.arange(len(site_runs)), [len(runs) for runs in site_runs]), sizes)
    cut = atoms[rows[np.lexsort((atoms.atom_ordinals[rows], site_of_row))]]
    ends = np.cumsum(np.bincount(site_of_row)).tolist()
    protein_id, tag = protein.protein_id, OriginTag.SiteRecord
    return [
        Patch(f"{protein_id}_{k}", protein_id, cut[start:stop], tag)
        for k, (start, stop) in enumerate(zip([0, *ends], ends))
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
    """Atom count plus the bucket of the first atom's position. A position
    whose quotient by the edge overflows (about 3.6e305 A) buckets at
    +-inf, where every equal-signed one is compared."""
    first = patch.atoms.positions[0].tolist() if len(patch.atoms) else (0.0, 0.0, 0.0)
    x, y, z = (math.floor(q) if math.isfinite(q := c / _DEDUP_BUCKET) else q for c in first)
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
    is compared only with the groups in the 27 buckets around its own. The
    buckets of all patches are probed at once (``_crowded``), and only the
    patches with another patch in those buckets are compared at all.
    """
    if not patches:
        return []
    positions = [patch.atoms.positions for patch in patches]
    counts = np.fromiter(map(len, positions), dtype=np.int64, count=len(positions))
    first = np.zeros((len(patches), 3))
    first[counts > 0] = np.concatenate([p[:1] for p in positions])
    # Groups by the index of their first member, and the patches that joined one.
    groups: dict[int, list[Patch]] = {}
    joined: set[int] = set()
    buckets: dict[tuple[int, int, int, int], list[int]] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # buckets at +-inf, two apart from any other
        crowded = _crowded(counts, np.floor(first / _DEDUP_BUCKET))
    for i in np.flatnonzero(crowded).tolist():
        patch = patches[i]
        key = n, bx, by, bz = _dedup_bucket(patch)
        candidates = sorted(
            gi for dx, dy, dz in _NEIGHBOURS for gi in buckets.get((n, bx + dx, by + dy, bz + dz), ())
        )
        match = next((gi for gi in candidates if _atoms_equivalent(patches[gi].atoms, patch.atoms)), None)
        if match is None:
            buckets.setdefault(key, []).append(i)
            groups[i] = [patch]
        else:
            groups[match].append(patch)
            joined.add(i)

    def keeper(group: list[Patch]) -> Patch:
        site_members = [p for p in group if p.origin_tag is OriginTag.SiteRecord]
        return min(site_members or group, key=lambda p: p.patch_id)

    # A patch with no other near it is a group of its own.
    return [keeper(groups[i]) if i in groups else patch for i, patch in enumerate(patches) if i not in joined]


def _crowded(counts: np.ndarray, buckets: np.ndarray) -> np.ndarray:
    """Whether each patch has another of its atom count whose (n, 3)
    ``buckets``, integral floats exact however large, differ from its own
    by at most 1 on every axis. Each axis numbers its buckets one apart when
    adjacent and two apart when not. The 27 neighbour offsets are probed an
    axis at a time, keyed by the number of the patch's distinct (count, x,
    ...) prefix times a span of at most 2n + 2, so no key overflows.
    """
    alive = np.arange(len(counts))
    _, prefix = np.unique(counts, return_inverse=True)
    targets = prefix[:, None]  # the numbers of the prefixes probed, -1 where absent
    for axis in (0, 1, 2, None):
        # A patch alone in every prefix it probes has no neighbour, and is
        # no other patch's neighbour.
        kept = np.where(targets >= 0, np.bincount(prefix)[targets], 0).sum(axis=1) > 1
        alive, prefix, targets = alive[kept], prefix[kept], targets[kept]
        if axis is None:
            break
        values, value_of = np.unique(buckets[alive, axis], return_inverse=True)
        numbers = np.cumsum(np.where(np.diff(values, prepend=values[:1]) == 1, 1, 2))[value_of]
        span = int(numbers.max(initial=0)) + 2
        keys, prefix = np.unique(prefix * span + numbers, return_inverse=True)
        probe = targets[:, :, None] * span + numbers[:, None, None] + np.arange(-1, 2)
        probe = probe.reshape(len(alive), 3 * targets.shape[1])
        found = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
        targets = np.where(keys[found] == probe, found, -1)
    crowded = np.zeros(len(counts), dtype=bool)
    crowded[alive] = True
    return crowded


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
