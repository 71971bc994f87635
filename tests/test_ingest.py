import io
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import atom_line, site_lines, structure_text
from patchgrid import ingest
from patchgrid.errors import EmptyStructure, MalformedRecord
from patchgrid.geometry import AtomRecord, Point3
from patchgrid.ingest import (
    DUPLICATE_COORD_TOL,
    OriginTag,
    Patch,
    Protein,
    _parse_float,
    _parse_int,
    dedup_patches,
    extract_site_patches,
    parse_keyword_file,
    parse_structure_file,
    parse_template_file,
)
from patchgrid.preprocess import residue_frames
from patchgrid.synthetic import random_protein


def lines(text: str) -> list[str]:
    return text.splitlines(keepends=True)


TWO_ATOMS = (
    atom_line(1, "N", "ALA", "A", 1, 1.0, 2.0, 3.0, element="N")
    + atom_line(2, "CA", "ALA", "A", 1, 2.0, 2.5, 3.0, element="C")
)


def test_parse_two_atoms():
    protein = parse_structure_file(lines(TWO_ATOMS), protein_id="TEST")
    assert len(protein.atoms) == 2
    assert protein.residue_count == 1
    first = protein.atoms[0]
    assert (first.atom_ordinal, first.atom_name, first.residue_name) == (0, "N", "ALA")
    assert first.position == Point3(1.0, 2.0, 3.0)
    assert (first.chain_id, first.residue_seq) == ("A", 1)


def test_parse_empty_structure():
    with pytest.raises(EmptyStructure):
        parse_structure_file(["REMARK nothing here\n"])


def test_parse_malformed_coordinate_reports_line():
    bad = atom_line(1, "CA", "ALA", "A", 1, 1.0, 2.0, 3.0)
    bad = bad[:30] + "     abc" + bad[38:]
    with pytest.raises(MalformedRecord) as excinfo:
        parse_structure_file(["REMARK\n", bad])
    assert excinfo.value.line_number == 2


def test_residue_ordinals_by_first_appearance():
    text = (
        atom_line(1, "CA", "ALA", "A", 5, 0, 0, 0)
        + atom_line(2, "CA", "GLY", "B", 5, 1, 0, 0)
        + atom_line(3, "CB", "ALA", "A", 5, 2, 0, 0)
        + atom_line(4, "CA", "SER", "A", 6, 3, 0, 0)
    )
    protein = parse_structure_file(lines(text))
    assert [a.residue_ordinal for a in protein.atoms] == [0, 1, 0, 2]


def test_insertion_codes_number_residues_apart():
    # GLY A 52 and ALA A 52A: one residue number, two residues with a frame each
    text = "".join(
        atom_line(serial, name, residue_name, "A", 52, float(serial), float(serial % 2), 0.0, icode=icode)
        for serial, (name, residue_name, icode) in enumerate(
            [(name, "GLY", " ") for name in ("N", "CA", "C")] + [(name, "ALA", "A") for name in ("N", "CA", "C")],
            start=1,
        )
    )
    protein = parse_structure_file(lines(text))
    assert protein.atoms.residue_ordinals.tolist() == [0, 0, 0, 1, 1, 1]
    assert protein.atoms.residue_seqs.tolist() == [52] * 6
    assert protein == reference_parse_structure_file(lines(text))
    assert [ordinal for ordinal, _ in residue_frames(protein.atoms)] == [0, 1]


def test_altloc_and_models():
    text = (
        atom_line(1, "CA", "ALA", "A", 1, 0, 0, 0, altloc="A")
        + atom_line(2, "CA", "ALA", "A", 1, 9, 9, 9, altloc="B")
        + "ENDMDL\n"
        + atom_line(3, "CA", "GLY", "A", 2, 1, 1, 1)
    )
    protein = parse_structure_file(lines(text))
    assert len(protein.atoms) == 1
    assert protein.atoms[0].position == Point3(0.0, 0.0, 0.0)


def test_hetatm_ignored_and_header_id():
    text = (
        "HEADER    OXIDOREDUCTASE                          01-JAN-00   1ABC\n"
        + "HETATM    1  O   HOH A 101      0.000   0.000   0.000\n"
        + TWO_ATOMS
    )
    protein = parse_structure_file(lines(text))
    assert protein.protein_id == "1ABC"
    assert len(protein.atoms) == 2


def test_non_finite_coordinate_rejected():
    bad = atom_line(1, "CA", "ALA", "A", 1, 1.0, 2.0, 3.0)
    bad = bad[:30] + "     nan" + bad[38:]
    with pytest.raises(MalformedRecord):
        parse_structure_file([bad])


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=400))
def test_parser_total_on_arbitrary_text(text):
    try:
        protein = parse_structure_file(io.StringIO(text))
        assert protein.atoms
    except (MalformedRecord, EmptyStructure):
        pass


# ---------------------------------------------------------------------------
# The columnar parser against the line-by-line one it replaced


def reference_parse_structure_file(stream, protein_id=None):
    """Reference: the line-by-line parser parse_structure_file was before it
    read columns, building one AtomRecord per ATOM line."""
    atoms = []
    residue_index = {}
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
            insertion_code = line[26:27]
            x = _parse_float(line[30:38], "x", line_number)
            y = _parse_float(line[38:46], "y", line_number)
            z = _parse_float(line[46:54], "z", line_number)
            element = line[76:78].strip() or (atom_name[:1] if atom_name else "")
            key = (chain_id, residue_seq, insertion_code.ljust(1))
            if key not in residue_index:
                residue_index[key] = len(residue_index)
            atoms.append(AtomRecord(
                atom_ordinal=len(atoms),
                element=element,
                atom_name=atom_name,
                residue_ordinal=residue_index[key],
                residue_name=residue_name,
                position=Point3(x, y, z),
                chain_id=chain_id,
                residue_seq=residue_seq,
                insertion_code=insertion_code.strip(),
            ))
    if not atoms:
        raise EmptyStructure("no ATOM records found")
    return Protein(protein_id=protein_id or header_id or "UNKNOWN", atoms=tuple(atoms))


def _outcome(parse, lines):
    try:
        return parse(lines)
    except (MalformedRecord, EmptyStructure) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


def _fixed(values, width):
    return st.sampled_from([v.ljust(width)[:width] for v in values])


def _atom_line_strategy(odd):
    """ATOM-like lines; with ``odd``, any field may also be malformed,
    unusual or cut short."""

    def field(valid, unusual, width):
        return st.one_of(valid, _fixed(unusual, width)) if odd else valid

    coordinate = field(
        st.floats(-999.999, 9999.999, allow_nan=False).map(lambda v: f"{v:8.3f}"),
        ["1.2.3", "abc", "", "nan", "inf", "-inf", "1e999", "1_0.5", "+.5", "1e2", "\x00", "  1.500\x00", " 1 2"],
        8,
    )
    return st.builds(
        lambda record, serial, name, altloc, residue, chain, seq, icode, x, y, z, element, tail, cut: (
            f"{record}{serial} {name}{altloc}{residue} {chain}{seq}{icode}   {x}{y}{z}  1.00  0.00          {element}"
            + tail
        )[:cut],
        _fixed(["ATOM  ", " ATOM ", "ATOM\t", "HETATM"] if odd else ["ATOM  ", " ATOM "], 6),
        field(st.integers(1, 99999).map(lambda v: f"{v:5d}"), ["abc", "", "1.5", " 1_2", "\x001", "  12\x00"], 5),
        _fixed(["CA", " CA", "N", "C", "CB", "OD1", ""] + (["\x00", "\tN"] if odd else []), 4),
        st.sampled_from([" ", "A", "B"]),
        _fixed(["ALA", "GLY", "SER", "", "\u00c5LA", "G\u00e9Y"] + (["\x1cAL"] if odd else []), 3),
        st.sampled_from([" ", "A", "B", "\u00e9"]),
        field(st.integers(-99, 12).map(lambda v: f"{v:4d}"), ["1a", "", "1_0", "+ 3", "\u0663", " 12\x00"], 4),
        st.sampled_from([" ", " ", "A", "B", "\u00e9"]),
        coordinate,
        coordinate,
        coordinate,
        _fixed(["", " C", "N", "FE", " \u00c5"], 2),
        st.sampled_from(["", "  ", "  X1 \u00e9"]),
        st.integers(0, 90) if odd else st.sampled_from([54, 60, 77, 78, 90]),
    )


_OTHER_LINE = st.sampled_from([
    "HEADER" + " " * 56 + "1ABC",
    "HEADER" + " " * 56 + "2XYZ",
    "HEADER" + " " * 56 + "    ",
    "HEADER    short",
    "MODEL        1",
    "MODEL        2",
    "ENDMDL",
    "REMARK   2 RESOLUTION.",
    "TER",
    "",
])


_LINE = st.one_of(*[_atom_line_strategy(odd=False)] * 4, _atom_line_strategy(odd=True), _OTHER_LINE)
# An ATOM line and a copy with another insertion code (column 27): one chain
# and residue number, and two residues unless the codes are equal.
_INSERTION_PAIR = st.tuples(_atom_line_strategy(odd=False), st.sampled_from([" ", "A", "B"])).map(
    lambda drawn: [drawn[0], drawn[0][:26] + drawn[1] + drawn[0][27:]]
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.one_of(_LINE.map(lambda line: [line]), _INSERTION_PAIR), max_size=20).map(
        lambda groups: [line for group in groups for line in group]
    ),
    st.booleans(),
)
def test_parser_equals_line_by_line_reference(lines, newlines):
    # ATOM lines with altloc blank, A or B, short and long lines, blank
    # elements, non-ASCII and control characters and bad, non-finite or
    # unusual numeric fields, and pairs that differ only in insertion code,
    # among HEADER, MODEL and ENDMDL records
    text = [line + "\n" if newlines else line for line in lines]
    expected = _outcome(reference_parse_structure_file, text)
    assert _outcome(parse_structure_file, text) == expected
    assert _outcome(parse_structure_file, iter(text)) == expected


@pytest.mark.parametrize("field, text, message", [
    ("serial", "  1.5", "line 3: bad atom serial field '1.5'"),
    ("residue", "  x1", "line 3: bad residue number field 'x1'"),
    ("y", "     inf", "line 3: non-finite y field 'inf'"),
    ("z", "   1.2.3", "line 3: bad z field '1.2.3'"),
    ("x", "  1.500\x00", "line 3: bad x field '1.500\\x00'"),
])
def test_parser_reports_the_first_bad_field(field, text, message):
    good = atom_line(1, "CA", "ALA", "A", 1, 1.0, 2.0, 3.0)
    columns = {"serial": (6, 11), "residue": (22, 26), "x": (30, 38), "y": (38, 46), "z": (46, 54)}
    start, stop = columns[field]
    bad = good[:start] + text + good[stop:]
    later = good[:30] + "     abc" + good[38:]
    with pytest.raises(MalformedRecord) as excinfo:
        parse_structure_file([good, good, bad, later])
    assert str(excinfo.value) == message
    assert excinfo.value.line_number == 3


def test_well_formed_lines_never_take_the_line_by_line_reader():
    text = "".join(
        atom_line(serial, name, "ALA", "A", seq, x, -0.0, 0.5, element="C")
        for serial, (name, seq, x) in enumerate(
            [("N", -3, -999.999), ("CA", -3, 9999.999), ("C", 0, -0.0), ("CB", 12, 1.25)], start=1
        )
    )
    with mock.patch.object(ingest, "_numeric_fields", wraps=ingest._numeric_fields) as reader:
        protein = parse_structure_file(lines(text))
    assert reader.call_count == 0
    assert protein == reference_parse_structure_file(lines(text))
    positions = protein.atoms.positions
    assert math.copysign(1.0, positions[2, 0]) == math.copysign(1.0, positions[0, 1]) == -1.0


@pytest.mark.parametrize("field, text, expected", [
    ("x", "     +.5", 0.5),
    ("x", "     1e2", 100.0),
    ("y", "   1_0.5", 10.5),
    ("z", "       ٣", 3.0),
    ("residue", "٣٣  ", 33),
    ("serial", "+0012", None),
])
def test_odd_valid_fields_take_the_line_by_line_reader(field, text, expected):
    # forms int() and float() take but the column decoder does not
    good = atom_line(1, "CA", "ALA", "A", 7, 1.0, 2.0, 3.0)
    start, stop = {"serial": (6, 11), "residue": (22, 26), "x": (30, 38), "y": (38, 46), "z": (46, 54)}[field]
    odd = good[:start] + text + good[stop:]
    with mock.patch.object(ingest, "_numeric_fields", wraps=ingest._numeric_fields) as reader:
        protein = parse_structure_file([good, odd])
    assert reader.call_count == 1
    assert protein == reference_parse_structure_file([good, odd])
    if field == "residue":
        assert protein.atoms.residue_seqs.tolist() == [7, expected]
    elif expected is not None:
        assert protein.atoms.positions[1, "xyz".index(field)] == expected


def _decoded(texts):
    """_decode_digits of right-justified fields, one per text."""
    chars = np.array([t.rjust(ingest._DIGITS) for t in texts], dtype=f"S{ingest._DIGITS}")
    valid, values = ingest._decode_digits(chars.view(np.uint8).reshape(len(texts), -1))
    return valid.tolist(), values.tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.integers(-999, 9999).map(lambda v: f"{v:4d}"),
    st.integers(-9999, 99999).map(lambda v: f"{v:5d}"),
    st.text(" -+.0123456789_", min_size=4, max_size=5),
), min_size=1, max_size=20))
def test_decoder_equals_int_on_right_justified_fields(texts):
    valid, values = _decoded(texts)
    for text, ok, value in zip(texts, valid, values):
        assert ok == bool(re.fullmatch(r" *-?[0-9]+", text))
        if ok:
            assert value == int(text) and math.copysign(1.0, value) == (-1.0 if "-" in text else 1.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-999.999, 9999.999, allow_nan=False), min_size=1, max_size=20))
@example([0.0, -0.0, 9999.999, -999.999, -0.0004, 0.0005])
def test_decoded_coordinates_equal_float_bitwise(values):
    texts = [f"{v:8.3f}" for v in values]
    text = "".join(atom_line(k + 1, "CA", "ALA", "A", k, 0.0, 0.0, 0.0) for k in range(len(texts)))
    text = "".join(line[:30] + t + line[38:] for line, t in zip(lines(text), texts))
    with mock.patch.object(ingest, "_numeric_fields", wraps=ingest._numeric_fields) as reader:
        positions = parse_structure_file(lines(text)).atoms.positions[:, 0]
    assert reader.call_count == 0
    assert positions.view(np.int64).tolist() == np.array([float(t) for t in texts]).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# SITE extraction


def _protein_with_sites():
    rng = random.Random(0)
    protein = random_protein(rng, "1XYZ", 5)
    return protein


def test_extract_single_site():
    protein = _protein_with_sites()
    residues = {}
    for atom in protein.atoms:
        residues.setdefault(atom.residue_ordinal, atom)
    refs = [
        (residues[i].residue_name, residues[i].chain_id, residues[i].residue_seq)
        for i in range(3)
    ]
    stream = site_lines("AC1", refs) + lines(structure_text(protein))
    counters: dict[str, int] = {}
    patches = extract_site_patches(stream, protein, counters=counters)
    assert len(patches) == 1
    patch = patches[0]
    assert patch.patch_id == "1XYZ_0"
    assert patch.origin_tag is OriginTag.SiteRecord
    expected = [a.atom_ordinal for a in protein.atoms if a.residue_ordinal in (0, 1, 2)]
    assert [a.atom_ordinal for a in patch.atoms] == expected
    assert counters.get("site_residues_unresolved", 0) == 0


def test_site_residues_match_insertion_codes():
    # GLY A 52 and GLY A 52A: a SITE slot names one of them by its insertion
    # code (column 28, then every 11 columns), never both
    text = "".join(
        atom_line(serial, name, "GLY", "A", 52, float(serial), float(serial % 2), 0.0, icode=icode)
        for serial, (name, icode) in enumerate(
            [(name, " ") for name in ("N", "CA", "C")] + [(name, "A") for name in ("N", "CA", "C")], start=1
        )
    )
    protein = parse_structure_file(lines(text))
    assert protein.atoms.insertion_codes.tolist() == [""] * 3 + ["A"] * 3
    stream = (site_lines("AC1", [("GLY", "A", 52)]) + site_lines("AC2", [("GLY", "A", 52, "A")])
              + site_lines("AC3", [("ALA", "A", 1), ("GLY", "A", 52, "A")]))
    counters: dict = {}
    patches = extract_site_patches(stream, protein, counters=counters)
    assert [p.atoms.atom_ordinals.tolist() for p in patches] == [[0, 1, 2], [3, 4, 5], [3, 4, 5]]
    assert [p.atoms.residue_ordinals.tolist() for p in patches] == [[0, 0, 0], [1, 1, 1], [1, 1, 1]]
    assert counters == {"site_residues_unresolved": 1}


def test_extract_site_with_missing_residue():
    protein = _protein_with_sites()
    atom = protein.atoms[0]
    refs = [
        (atom.residue_name, atom.chain_id, atom.residue_seq),
        ("TRP", "Z", 999),
    ]
    counters: dict[str, int] = {}
    patches = extract_site_patches(site_lines("AC1", refs), protein, counters=counters)
    assert len(patches) == 1
    assert counters["site_residues_unresolved"] == 1
    assert {a.residue_ordinal for a in patches[0].atoms} == {atom.residue_ordinal}


def test_extract_two_sites_suffixes():
    protein = _protein_with_sites()
    by_res = {}
    for a in protein.atoms:
        by_res.setdefault(a.residue_ordinal, a)
    s1 = site_lines("AC1", [(by_res[0].residue_name, by_res[0].chain_id, by_res[0].residue_seq)])
    s2 = site_lines("AC2", [(by_res[1].residue_name, by_res[1].chain_id, by_res[1].residue_seq)])
    patches = extract_site_patches(s1 + s2, protein)
    assert [p.patch_id for p in patches] == ["1XYZ_0", "1XYZ_1"]
    # hand-grouped records: each patch holds exactly its residue's atoms
    for patch, residue in zip(patches, (0, 1)):
        assert {a.residue_ordinal for a in patch.atoms} == {residue}


def test_site_resolving_nothing_is_dropped():
    protein = _protein_with_sites()
    counters: dict[str, int] = {}
    patches = extract_site_patches(
        site_lines("BAD", [("TRP", "Z", 999)]), protein, counters=counters
    )
    assert patches == []
    assert counters["sites_dropped"] == 1


def test_site_atoms_subset_of_protein():
    rng = random.Random(3)
    for seed in range(5):
        protein = random_protein(random.Random(seed), f"S{seed}", 4)
        by_res = {}
        for a in protein.atoms:
            by_res.setdefault(a.residue_ordinal, a)
        refs = [(a.residue_name, a.chain_id, a.residue_seq) for a in by_res.values()]
        rng.shuffle(refs)
        patches = extract_site_patches(site_lines("AC1", refs[:2]), protein)
        ordinals = {a.atom_ordinal for a in protein.atoms}
        for patch in patches:
            assert {a.atom_ordinal for a in patch.atoms} <= ordinals


def reference_extract_site_patches(stream, protein, counters=None):
    """Reference: SITE extraction as it was before it grouped atoms into
    runs by residue ordinal, with per-slot parsing and four column compares."""

    def count(key):
        if counters is not None:
            counters[key] = counters.get(key, 0) + 1

    sites = {}
    for line in [raw.rstrip("\n") for raw in stream if raw[0:6].strip() == "SITE"]:
        site_id = line[11:14].strip()
        if not site_id:
            continue
        slots = sites.setdefault(site_id, [])
        for off in (18, 29, 40, 51):
            residue_name = line[off : off + 3].strip()
            chain_id = line[off + 4 : off + 5].strip()
            seq_text = line[off + 5 : off + 9].strip()
            if not residue_name and not seq_text:
                continue
            try:
                residue_seq = int(seq_text)
            except ValueError:
                count("site_residues_unresolved")
                continue
            slots.append((residue_name, chain_id, residue_seq, line[off + 9 : off + 10].strip()))
    atoms = protein.atoms
    columns = (atoms.residue_names, atoms.chain_ids, atoms.residue_seqs, atoms.insertion_codes)
    change = np.logical_or.reduce([column[1:] != column[:-1] for column in columns])
    bounds = [0, *(np.flatnonzero(change) + 1).tolist(), len(atoms)] if len(atoms) else []
    names, chains, seqs, icodes = columns
    by_residue = {}
    for start, stop in zip(bounds, bounds[1:]):
        key = (names[start], chains[start], int(seqs[start]), icodes[start])
        by_residue.setdefault(key, []).append((start, stop))
    site_runs = []
    for refs in sites.values():
        runs = []
        for ref in dict.fromkeys(refs):
            found = by_residue.get(ref)
            if found is None:
                count("site_residues_unresolved")
                continue
            runs.extend(found)
        if not runs:
            count("sites_dropped")
            continue
        site_runs.append(runs)
    if not site_runs:
        return []
    starts, stops = np.array([run for runs in site_runs for run in runs]).T
    sizes = stops - starts
    rows = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
    site_of_row = np.repeat(np.arange(len(site_runs)), [sum(b - a for a, b in runs) for runs in site_runs])
    cut = atoms[rows[np.lexsort((atoms.atom_ordinals[rows], site_of_row))]]
    ends = np.cumsum(np.bincount(site_of_row)).tolist()
    return [
        Patch(f"{protein.protein_id}_{k}", protein.protein_id, cut[start:stop], OriginTag.SiteRecord)
        for k, (start, stop) in enumerate(zip([0] + ends, ends))
    ]


# Residues as (name, chain, number, insertion code): one (chain, number,
# code) under two names, and numbers that differ only by insertion code.
_RESIDUES = [("ALA", "A", 1, " "), ("GLY", "A", 1, " "), ("SER", "A", 2, " "), ("SER", "A", 2, "B"),
             ("ALA", "B", 1, " "), ("GLY", " ", -3, " "), ("LYS", "A", 10, "A")]


def _site_slot_text(slot):
    if isinstance(slot, int):
        name, chain, seq, icode = _RESIDUES[slot]
        return f"{name:>3} {chain}{seq:>4}{icode}"
    return slot


_SITE_SLOT = st.one_of(
    st.integers(0, len(_RESIDUES) - 1),
    st.sampled_from(["          ", "TRP A  99 ", "ALA A  x1 ", "ALA A 1.5 ", "    A     ", "ALA A1    ",
                     "ALA A  +2 ", "SER A   2B", "  A A   1 ", "ALA\tA   1 "]),
)
_SITE_LINE = st.builds(
    lambda record, site_id, slots, cut: (
        f"{record} {1:>3} {site_id} {len(slots):>2} " + " ".join(map(_site_slot_text, slots))
    )[:cut],
    st.sampled_from(["SITE  ", " SITE ", "SITE\t ", "SITES "]),
    st.sampled_from(["AC1", "AC2", " S3", "   "]),
    st.lists(_SITE_SLOT, max_size=4),
    st.integers(20, 70),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, len(_RESIDUES) - 1), st.sampled_from(["N", "CA", "C"])), min_size=1, max_size=14),
    st.lists(_SITE_LINE, max_size=8),
)
def test_site_extraction_equals_line_by_line_reference(atoms, site_text):
    # sites repeated across lines and blank site ids, residues named twice,
    # unresolvable, non-integer and blank slots, insertion codes, residues
    # whose atoms are not consecutive or change name within one (chain,
    # number, code), and the record names " SITE " and "SITE\t"
    text = "".join(
        atom_line(serial, atom_name, *_RESIDUES[residue][:3], float(serial), 0.0, 0.0, icode=_RESIDUES[residue][3])
        for serial, (residue, atom_name) in enumerate(atoms, start=1)
    )
    protein = parse_structure_file(lines(text), protein_id="P")
    stream = [line + "\n" for line in site_text] + lines(text)
    counters, expected_counters = {}, {}
    patches = extract_site_patches(iter(stream), protein, counters=counters)
    expected = reference_extract_site_patches(stream, protein, counters=expected_counters)
    assert [(p.patch_id, p.source_protein_id, p.origin_tag) for p in patches] == [
        (p.patch_id, p.source_protein_id, p.origin_tag) for p in expected
    ]
    assert [p.atoms for p in patches] == [p.atoms for p in expected]
    assert counters == expected_counters


# ---------------------------------------------------------------------------
# templates


def test_parse_template_file_basic():
    text = (
        "# catalytic template\n"
        "T1 SER CA 0.0 0.0 0.0\n"
        "T1 SER CB 1.0 0.0 0.0\n"
        "T1 HIS CA 0.0 2.0 0.0\n"
        "T1 HIS CB 1.0 2.0 0.0\n"
    )
    patches = parse_template_file(io.StringIO(text))
    assert len(patches) == 1
    patch = patches[0]
    assert patch.patch_id == "T1"
    assert patch.origin_tag is OriginTag.Template
    assert len(patch.atoms) == 4
    assert [a.residue_ordinal for a in patch.atoms] == [0, 0, 1, 1]


def test_parse_template_empty_file():
    assert parse_template_file(io.StringIO("")) == []


def test_parse_template_malformed_line():
    with pytest.raises(MalformedRecord) as excinfo:
        parse_template_file(io.StringIO("T1 SER CA 0.0 0.0\n"))
    assert excinfo.value.line_number == 1


def test_template_repeated_residue_name_splits_residues():
    text = "T1 SER CA 0 0 0\nT1 SER CB 1 0 0\nT1 SER CA 0 2 0\nT1 SER CB 1 2 0\n"
    (patch,) = parse_template_file(io.StringIO(text))
    assert [a.residue_ordinal for a in patch.atoms] == [0, 0, 1, 1]


def synth_template_text(n_templates: int, rng: random.Random) -> str:
    rows = []
    for i in range(n_templates):
        for res in ("SER", "HIS"):
            for name in ("CA", "CB"):
                rows.append(
                    f"T{i:04d} {res} {name} "
                    f"{rng.uniform(-5, 5):.3f} {rng.uniform(-5, 5):.3f} {rng.uniform(-5, 5):.3f}"
                )
    return "\n".join(rows) + "\n"


def test_147_synthetic_templates():
    text = synth_template_text(147, random.Random(42))
    patches = parse_template_file(io.StringIO(text))
    assert len(patches) == 147


# ---------------------------------------------------------------------------
# dedup


def _simple_patch(patch_id, origin, dx=0.0):
    atoms = tuple(
        AtomRecord(i, "C", name, 0, "GLY", Point3(x + dx, y, z), "A", 1)
        for i, (name, x, y, z) in enumerate(
            [("CA", 0, 0, 0), ("N", 1.5, 0, 0), ("C", 0, 1.5, 0)]
        )
    )
    return Patch(patch_id, patch_id.split("_")[0], atoms, origin)


def test_dedup_identical_patches():
    a = _simple_patch("AAA_0", OriginTag.SiteRecord)
    b = _simple_patch("BBB_0", OriginTag.SiteRecord)
    survivors = dedup_patches([a, b])
    assert survivors == [a]


def test_dedup_outside_tolerance_keeps_both():
    a = _simple_patch("AAA_0", OriginTag.SiteRecord)
    b = _simple_patch("BBB_0", OriginTag.SiteRecord, dx=0.5)
    assert dedup_patches([a, b]) == [a, b]


def test_dedup_prefers_site_record():
    template = _simple_patch("AAA", OriginTag.Template)
    site = _simple_patch("ZZZ_0", OriginTag.SiteRecord)
    assert dedup_patches([template, site]) == [site]


def _atoms_equivalent(a: Patch, b: Patch) -> bool:
    """Reference: the atom-by-atom comparison dedup_patches made before it
    compared columns."""
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


def dedup_oracle(patches):
    """dedup_patches as a scan of every earlier group of equal atom count."""
    groups = []
    by_count = {}
    for patch in patches:
        match = None
        for gi in by_count.get(len(patch.atoms), ()):
            if _atoms_equivalent(groups[gi][0], patch):
                match = gi
                break
        if match is None:
            by_count.setdefault(len(patch.atoms), []).append(len(groups))
            groups.append([patch])
        else:
            groups[match].append(patch)
    survivors = []
    for group in groups:
        site_members = [p for p in group if p.origin_tag is OriginTag.SiteRecord]
        survivors.append(min(site_members or group, key=lambda p: p.patch_id))
    return survivors


# Offsets at, inside and just past the tolerance and the bucket edges, so
# duplicates straddle buckets and near-misses differ only by rounding.
_NEAR = st.sampled_from([0.0, 0.0005, -0.0005, DUPLICATE_COORD_TOL, -DUPLICATE_COORD_TOL,
                         0.0008, 0.0013, 0.0015, 0.002, -0.002, 0.0021, 1e-3 + 1e-12, 0.0019999])


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(0, 3),                       # base patch
        st.lists(st.tuples(_NEAR, _NEAR, _NEAR), min_size=3, max_size=3),
        st.booleans(),                           # SITE or template
        st.sampled_from(["CA", "CB"]),           # name of the last atom
        st.integers(0, 9),                       # patch id
    ),
    max_size=30,
))
def test_dedup_equals_scan_oracle(specs):
    bases = [(0.0, 0.0, 0.0), (0.001, 0.0, 0.0), (0.003, -0.002, 0.001), (-0.999, 12.0, 0.0)]
    patches = []
    for k, (base, offsets, site, last_name, pid) in enumerate(specs):
        n_atoms = 1 + base % 3
        x0, y0, z0 = bases[base]
        atoms = tuple(
            AtomRecord(i, "C", last_name if i == n_atoms - 1 else "N", 0, "GLY",
                       Point3(x0 + i + dx, y0 + dy, z0 + dz), "A", 1)
            for i, (dx, dy, dz) in enumerate(offsets[:n_atoms])
        )
        tag = OriginTag.SiteRecord if site else OriginTag.Template
        patches.append(Patch(f"P{pid}_{k}", f"P{pid}", atoms, tag))
    assert [id(p) for p in dedup_patches(patches)] == [id(p) for p in dedup_oracle(patches)]


def _neighbour_oracle(patches):
    """Whether each patch has another of its atom count whose first-atom
    buckets, as Python ints, are at most 1 apart on every axis."""
    keys = [ingest._dedup_bucket(p) for p in patches]
    return [
        any(j != i and k[0] == o[0] and all(abs(a - b) <= 1 for a, b in zip(k[1:], o[1:])) for j, o in enumerate(keys))
        for i, k in enumerate(keys)
    ]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from([0.0, 1e15, -1e15, 1e15 + 0.125, 2.0**53, 2.0**53 + 2, 1e300, -1e300, -0.0015]),
        st.lists(st.tuples(_NEAR, _NEAR, _NEAR), min_size=3, max_size=3),
        st.integers(0, 2),                       # atoms: 0, 1 or 2
        st.booleans(),                           # SITE or template
        st.integers(0, 9),                       # patch id
    ),
    max_size=30,
))
def test_dedup_at_extreme_coordinates(specs):
    # first atoms at +-1e15 and +-1e300, so buckets pass 2**53 and int64,
    # many patches in one bucket, and patches with no atoms
    patches = []
    for k, (base, offsets, n_atoms, site, pid) in enumerate(specs):
        atoms = tuple(
            AtomRecord(i, "C", "CA", 0, "GLY", Point3(base + dx, base - i + dy, -base + dz), "A", 1)
            for i, (dx, dy, dz) in enumerate(offsets[:n_atoms])
        )
        tag = OriginTag.SiteRecord if site else OriginTag.Template
        patches.append(Patch(f"P{pid}_{k}", f"P{pid}", atoms, tag))
    assert [id(p) for p in dedup_patches(patches)] == [id(p) for p in dedup_oracle(patches)]
    if patches:
        counts = np.array([len(p.atoms) for p in patches])
        first = np.array([p.atoms.positions[0] if len(p.atoms) else (0.0, 0.0, 0.0) for p in patches])
        crowded = ingest._crowded(counts, np.floor(first / ingest._DEDUP_BUCKET))
        assert crowded.tolist() == _neighbour_oracle(patches)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_dedup_tolerance_is_inclusive_to_the_ulp(axis, sign):
    # coordinates 0.0 and +-1e-3 differ by exactly the tolerance, which is a
    # duplicate; one ulp more is not
    def shifted(patch_id, d):
        atoms = _simple_patch(patch_id, OriginTag.SiteRecord).atoms
        positions = atoms.positions.copy()
        positions[1, axis] = d
        return Patch(patch_id, patch_id.split("_")[0], atoms.replace(positions=positions), OriginTag.SiteRecord)

    base = shifted("A_0", 0.0)
    at_tol = shifted("B_0", sign * DUPLICATE_COORD_TOL)
    past_tol = shifted("C_0", sign * math.nextafter(DUPLICATE_COORD_TOL, math.inf))
    assert abs(at_tol.atoms.positions[1, axis] - base.atoms.positions[1, axis]) == DUPLICATE_COORD_TOL
    assert _atoms_equivalent(base, at_tol) and not _atoms_equivalent(base, past_tol)
    for patches in ([base, at_tol], [base, past_tol], [past_tol, base, at_tol]):
        assert [id(p) for p in dedup_patches(patches)] == [id(p) for p in dedup_oracle(patches)]
    assert dedup_patches([base, at_tol]) == [base]
    assert dedup_patches([base, past_tol]) == [base, past_tol]


@pytest.mark.parametrize("sign", ["", "-"])
def test_dedup_of_sites_read_at_the_largest_coordinates(sign):
    # an 8-column field can hold 1e306, whose quotient by the dedup bucket
    # edge overflows a float; SITE patches there are read, kept and
    # deduplicated by the tolerance rule, one site or two
    atoms = []
    for serial, (name, x) in enumerate([("N", f"{sign}1e306"), ("CA", f"{sign}2e306"), ("C", "1.5")], start=1):
        line = atom_line(serial, name, "GLY", "A", 1, 0.0, 2.0, 3.0)
        atoms.append(line[:30] + f"{x:>8}" + line[38:])
    sites = site_lines("AC1", [("GLY", "A", 1)]), site_lines("AC2", [("GLY", "A", 1)])
    for n_sites in (1, 2):
        text = [line for site in sites[:n_sites] for line in site] + atoms
        protein = parse_structure_file(text, "1BIG")
        assert protein.atoms.positions[:, 0].tolist() == [float(f"{sign}1e306"), float(f"{sign}2e306"), 1.5]
        patches = extract_site_patches(text, protein)
        assert [p.patch_id for p in patches] == ["1BIG_0", "1BIG_1"][:n_sites]
        assert [id(p) for p in dedup_patches(patches)] == [id(p) for p in dedup_oracle(patches)] == [id(patches[0])]


def test_dedup_patch_matching_two_groups_joins_the_earlier():
    # groups at x = 0.0021 (bucket 1) and, created later, x = 0.0005
    # (bucket 0); a patch at x = 0.0013 duplicates both and must join the
    # first, though the later group's bucket is its own
    first = _simple_patch("A_0", OriginTag.Template, dx=0.0021)
    second = _simple_patch("B_0", OriginTag.Template, dx=0.0005)
    both = _simple_patch("C_0", OriginTag.SiteRecord, dx=0.0013)
    assert dedup_patches([first, second, both]) == dedup_oracle([first, second, both]) == [both, second]


def test_dedup_idempotent():
    rng = random.Random(77)
    patches = []
    for i in range(20):
        patches.append(_simple_patch(f"P{i}_0", OriginTag.SiteRecord, dx=rng.choice([0.0, 0.4, 3.0])))
    once = dedup_patches(patches)
    assert dedup_patches(once) == once


def test_dedup_planted_template_duplicates():
    # 147 templates, 34 of them duplicated by earlier SITE patches
    rng = random.Random(9)
    templates = parse_template_file(io.StringIO(synth_template_text(147, rng)))
    site_dups = [
        Patch(f"{t.patch_id}S_0", f"{t.patch_id}S", t.atoms, OriginTag.SiteRecord)
        for t in templates[:34]
    ]
    survivors = dedup_patches(site_dups + templates)
    kept_templates = [p for p in survivors if p.origin_tag is OriginTag.Template]
    kept_sites = [p for p in survivors if p.origin_tag is OriginTag.SiteRecord]
    assert len(kept_templates) == 113
    assert len(kept_sites) == 34
    assert len(survivors) == 147


# ---------------------------------------------------------------------------
# keywords


def test_keyword_basic():
    (ann,) = parse_keyword_file(io.StringIO("P1\tkA\tkB\n"))
    assert ann.entity_id == "P1"
    assert ann.keywords == frozenset({"kA", "kB"})


def test_keyword_merge_duplicate_entity():
    anns = {a.entity_id: a for a in parse_keyword_file(io.StringIO("P1\tkA\nP1\tkB\n"))}
    assert anns["P1"].keywords == frozenset({"kA", "kB"})


def test_keyword_empty_set():
    (ann,) = parse_keyword_file(io.StringIO("P2\n"))
    assert ann.entity_id == "P2"
    assert ann.keywords == frozenset()


def test_keyword_malformed():
    with pytest.raises(MalformedRecord):
        parse_keyword_file(io.StringIO("\tkA\n"))
