import random

import pytest

from patchgrid import matcher, reliability
from patchgrid.errors import UndefinedTP
from patchgrid.grid import GridParams, RefId
from patchgrid.ingest import KeywordAnnotation, Protein
from patchgrid.matcher import MatchResult
from patchgrid.preprocess import build_patch_database
from patchgrid.reliability import (
    EvalConfig,
    EvalPair,
    compute_D,
    compute_R,
    pair_identities,
    redundancy_filter,
    same_keywords,
    sweep,
    tp_rate,
)
from patchgrid.synthetic import lattice_patch, move_atoms, random_protein, rigid_motion

P1 = GridParams(delta=1.0)


def ann(entity, *keywords):
    return KeywordAnnotation(entity, frozenset(keywords))


def pair(query_id, source_id, score, patch_suffix="_0"):
    result = MatchResult(
        db_ref_id=RefId(0, 0),
        query_ref_id=RefId(0, 0),
        score=score,
        patch_id=f"{source_id}{patch_suffix}",
        source_protein_id=source_id,
    )
    return EvalPair(query_id, result)


# ---------------------------------------------------------------------------
# tp_rate


def test_tp_rate_perfect_recovery():
    assert tp_rate(1.0, 0.0, 1.0) == 1.0


def test_tp_rate_chance_level_is_zero():
    for value in (0.0, 0.3, 0.9):
        assert tp_rate(value, value, 1.0) == 0.0


def test_tp_rate_direct_arithmetic():
    assert tp_rate(0.85, 0.25, 1.0) == pytest.approx(0.8, abs=1e-12)


def test_tp_rate_undefined():
    with pytest.raises(UndefinedTP):
        tp_rate(0.5, 1.0, 1.0)


def test_tp_rate_linear_in_d():
    r = 0.25
    values = [tp_rate(d, r, 1.0) for d in (0.3, 0.5, 0.7)]
    assert values[1] - values[0] == pytest.approx(values[2] - values[1], abs=1e-12)
    assert tp_rate(1.0, r, 1.0) == 1.0


# ---------------------------------------------------------------------------
# keywords, D and R


def test_same_keywords_cases():
    assert same_keywords(ann("a", "kA"), ann("b", "kA", "kB"))
    assert not same_keywords(ann("a", "kA"), ann("b", "kB"))
    assert not same_keywords(ann("a"), ann("b", "kA"))


def test_compute_D_hand_count():
    annotations = {
        "Q": ann("Q", "x"),
        "S1": ann("S1", "x"),
        "S2": ann("S2", "x"),
        "S3": ann("S3", "x"),
        "S4": ann("S4", "y"),
    }
    pairs = [pair("Q", s, 0.9) for s in ("S1", "S2", "S3", "S4")]
    assert compute_D(pairs, annotations) == 0.75
    all_share = {k: ann(k, "x") for k in ("Q", "S1", "S2", "S3", "S4")}
    assert compute_D(pairs, all_share) == 1.0
    none_share = {"Q": ann("Q", "q")} | {s: ann(s, "x") for s in ("S1", "S2", "S3", "S4")}
    assert compute_D(pairs, none_share) == 0.0


def test_compute_D_excludes_unannotated():
    annotations = {"Q": ann("Q", "x"), "S1": ann("S1", "x"), "S2": ann("S2")}
    pairs = [pair("Q", "S1", 0.9), pair("Q", "S2", 0.9), pair("Q", "S3", 0.9)]
    counters: dict[str, int] = {}
    assert compute_D(pairs, annotations, counters=counters) == 1.0
    assert counters["pairs_unannotated"] == 2


def test_compute_D_undefined():
    assert compute_D([pair("Q", "S", 0.9)], {}) is None


def _db_with_sources(tmp_path, source_ids):
    rng = random.Random(0)
    patches = [
        lattice_patch(f"{sid}_0", sid, 1.0, rng, n_extra_atoms=2) for sid in source_ids
    ]
    return build_patch_database(patches, P1, tmp_path / "db")


def test_compute_R_hand_count(tmp_path):
    db = _db_with_sources(tmp_path, ["S1", "S2", "S3"])
    annotations = {
        "Q1": ann("Q1", "x"),
        "Q2": ann("Q2", "y"),
        "S1": ann("S1", "x"),
        "S2": ann("S2", "z"),
        "S3": ann("S3", "x"),
    }
    # cross product 2x3; sharing: (Q1,S1), (Q1,S3) -> 2/6
    assert compute_R(["Q1", "Q2"], db, annotations) == 2 / 6


def test_compute_R_single_pair(tmp_path):
    db = _db_with_sources(tmp_path, ["S1"])
    assert compute_R(["Q"], db, {"Q": ann("Q", "k"), "S1": ann("S1", "k")}) == 1.0


def test_compute_R_undefined_without_annotations(tmp_path):
    db = _db_with_sources(tmp_path, ["S1"])
    assert compute_R(["Q"], db, {}) is None


# ---------------------------------------------------------------------------
# redundancy filter


def test_redundancy_filter_with_planted_identities(tmp_path):
    identities = {
        ("Q", "A"): 0.7,
        ("Q", "B"): 0.3,
    }
    pairs = [pair("Q", "A", 0.9), pair("Q", "B", 0.9)]
    counters: dict[str, int] = {}
    kept = redundancy_filter(pairs, identities, 0.5, counters=counters)
    assert [p.result.source_protein_id for p in kept] == ["B"]
    assert counters["pairs_removed_redundant"] == 1


def test_redundancy_filter_tau_one_keeps_all():
    identities = {("Q", "A"): 1.0}
    pairs = [pair("Q", "A", 0.9)]
    assert redundancy_filter(pairs, identities, 1.0) == pairs


def test_redundancy_filter_self_pair_removed():
    # a patch extracted from the query protein itself has identity 1.0
    # without a match: no structure is given
    pairs = [pair("Q", "Q", 0.9)]
    identities = pair_identities(pairs, {}, {}, P1)
    assert identities == {("Q", "Q"): 1.0}
    assert redundancy_filter(pairs, identities, 0.5) == []


def test_redundancy_filter_strict_boundary():
    identities = {("Q", "A"): 0.7}
    pairs = [pair("Q", "A", 0.9)]
    assert redundancy_filter(pairs, identities, 0.7) == pairs


def test_redundancy_filter_missing_source_dropped():
    pairs = [pair("Q", "GONE", 0.9)]
    counters: dict[str, int] = {}
    identities = pair_identities(pairs, {"Q": None}, {}, P1)
    assert identities == {}
    kept = redundancy_filter(pairs, identities, 0.5, counters=counters)
    assert kept == []
    assert counters["pairs_missing_source"] == 1


def test_redundancy_filter_monotone_in_tau():
    rng = random.Random(4)
    sources = [f"S{i}" for i in range(8)]
    identities = {("Q", s): rng.random() for s in sources}
    pairs = [pair("Q", s, 0.9) for s in sources]
    previous = None
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
        kept = {p.result.source_protein_id
                for p in redundancy_filter(pairs, identities, tau)}
        if previous is not None:
            assert previous <= kept
        previous = kept


def test_redundancy_filter_engine_identities(tmp_path):
    # identities computed by the engine on lattice structures: 7/10 and 3/10
    rng = random.Random(5)
    patch_a = lattice_patch("A_0", "A", 1.0, rng, n_extra_atoms=7)
    patch_b = lattice_patch("B_0", "B", 1.0, rng, n_extra_atoms=7)
    source_a = Protein("A", patch_a.atoms)
    source_b = Protein("B", patch_b.atoms)

    atoms = list(move_atoms(patch_a.atoms[:7], *rigid_motion(rng)))
    offset = len(atoms)
    moved_b = move_atoms(patch_b.atoms[:3], *rigid_motion(rng))
    from patchgrid.geometry import AtomRecord, Point3

    for atom in moved_b:
        atoms.append(
            AtomRecord(offset + atom.atom_ordinal, atom.element, atom.atom_name, 1,
                       atom.residue_name,
                       Point3(atom.position.x + 300, atom.position.y, atom.position.z),
                       "Q", 2)
        )
    query = Protein("Q", tuple(atoms))
    pairs = [pair("Q", "A", 0.95), pair("Q", "B", 0.95)]
    identities = pair_identities(pairs, {"Q": query}, {"A": source_a, "B": source_b}, P1, tmp_dir=tmp_path)
    assert identities == {("Q", "A"): 0.7, ("Q", "B"): 0.3}
    kept = redundancy_filter(pairs, identities, 0.5)
    assert [p.result.source_protein_id for p in kept] == ["B"]


def test_pair_identities_depend_on_direction(tmp_path):
    # identity is normalized by the source's atom count: B (7 of A's 10 atoms,
    # moved) scores 7/10 against A, and A scores 7/7 against B
    rng = random.Random(5)
    patch_a = lattice_patch("A_0", "A", 1.0, rng, n_extra_atoms=7)
    proteins = {
        "A": Protein("A", patch_a.atoms),
        "B": Protein("B", tuple(move_atoms(patch_a.atoms[:7], *rigid_motion(rng)))),
    }
    expected = {("B", "A"): 0.7, ("A", "B"): 1.0}
    for order in (list(expected), list(reversed(expected))):
        pairs = [pair(query_id, source_id, 0.9) for query_id, source_id in order]
        assert pair_identities(pairs, proteins, proteins, P1, tmp_dir=tmp_path) == expected


# ---------------------------------------------------------------------------
# sweep


def hand_built_sweep_inputs(tmp_path):
    annotations = {
        "Q1": ann("Q1", "a"),
        "Q2": ann("Q2", "b"),
        "S1": ann("S1", "a"),
        "S2": ann("S2", "b"),
        "S3": ann("S3", "a", "b"),
        "S4": ann("S4", "z"),
    }
    db = _db_with_sources(tmp_path, ["S1", "S2", "S3", "S4"])
    pairs = [
        pair("Q1", "S1", 0.96), pair("Q2", "S2", 0.96),
        pair("Q1", "S3", 0.92), pair("Q2", "S1", 0.92),
        pair("Q2", "S3", 0.87), pair("Q1", "S2", 0.87),
        pair("Q1", "S4", 0.82), pair("Q2", "S4", 0.82),
    ]
    identities = {
        (q, s): 0.0 for q in ("Q1", "Q2") for s in ("S1", "S2", "S3", "S4")
    }
    return annotations, db, pairs, identities


def planted(monkeypatch, identities):
    """Make sweep read ``identities`` instead of computing them."""
    monkeypatch.setattr(reliability, "pair_identities", lambda *args, **kwargs: identities)


def test_sweep_matches_hand_computation(tmp_path, monkeypatch):
    annotations, db, pairs, identities = hand_built_sweep_inputs(tmp_path)
    planted(monkeypatch, identities)
    config = EvalConfig()
    report = sweep(pairs, config, annotations, {"Q1": None, "Q2": None}, {}, db)
    assert len(report.rows) == 40
    # R: 8 cross pairs, sharing = (Q1,S1),(Q1,S3),(Q2,S2),(Q2,S3) -> 0.5
    expected_d = {0.80: 4 / 8, 0.85: 4 / 6, 0.90: 3 / 4, 0.95: 2 / 2}
    for row in report.rows:
        assert row.r_value == 0.5
        assert row.d_value == expected_d[row.tau_pp]
        assert row.tp == pytest.approx((row.d_value - 0.5) / 0.5, abs=1e-12)
    # TP non-decreasing in tau_pp at each tau_prot
    by_prot: dict[float, list[float]] = {}
    for row in report.rows:
        by_prot.setdefault(row.tau_prot, []).append(row.tp)
    for values in by_prot.values():
        assert values == sorted(values)


def test_sweep_grid_dimensions(tmp_path, monkeypatch):
    annotations, db, pairs, identities = hand_built_sweep_inputs(tmp_path)
    planted(monkeypatch, identities)
    report = sweep(pairs, EvalConfig(), annotations, {"Q1": None, "Q2": None}, {}, db)
    taus_pp = sorted({row.tau_pp for row in report.rows})
    taus_prot = sorted({row.tau_prot for row in report.rows})
    assert taus_pp == [0.80, 0.85, 0.90, 0.95]
    assert taus_prot == [round(0.1 * i, 10) for i in range(1, 11)]


def test_sweep_empty_results_all_na(tmp_path):
    db = _db_with_sources(tmp_path, ["S1"])
    report = sweep([], EvalConfig(), {"S1": ann("S1", "k"), "Q": ann("Q", "k")},
                   {"Q": None}, {}, db)
    assert all(row.d_value is None and row.tp is None for row in report.rows)
    text = report.to_tsv()
    assert "NA" in text
    assert text.splitlines()[0] == "tau_pp\ttau_prot\tD\tR\tTP\tpair_count"


def test_sweep_pair_count_consistency(tmp_path, monkeypatch):
    annotations, db, pairs, identities = hand_built_sweep_inputs(tmp_path)
    identities[("Q1", "S1")] = 0.95  # planted redundant pair
    planted(monkeypatch, identities)
    counters: dict[str, int] = {}
    report = sweep(pairs, EvalConfig(tau_pp_values=(0.8,), tau_prot_values=(0.5,)),
                   annotations, {"Q1": None, "Q2": None}, {}, db, counters=counters)
    (row,) = report.rows
    assert row.pair_count + counters["pairs_removed_redundant"] == len(pairs)


def test_sweep_counters_count_each_pair_once(tmp_path, monkeypatch):
    annotations, db, pairs, identities = hand_built_sweep_inputs(tmp_path)
    identities[("Q1", "S1")] = 0.95  # redundant in the 36 rows with tau_prot below 0.95
    planted(monkeypatch, identities)
    pairs.append(pair("Q1", "S9", 0.96))  # no source structure: dropped in all 40 rows
    del annotations["S4"]  # (Q1, S4) and (Q2, S4) unannotated in the 10 rows at tau_pp 0.8
    counters: dict[str, int] = {}
    report = sweep(pairs, EvalConfig(), annotations, {"Q1": None, "Q2": None}, {}, db,
                   counters=counters)
    assert len(report.rows) == 40
    assert counters["pairs_removed_redundant"] == 1
    assert counters["pairs_missing_source"] == 1
    assert counters["pairs_unannotated"] == 2


def test_sweep_builds_and_scores_once_per_query(tmp_path, monkeypatch):
    # one pseudo-database of every source a query's pairs name, and one
    # scoring pass against it, for all 40 rows; a self pair makes neither,
    # and a pair below the smallest tau_pp is not matched
    rng = random.Random(15)
    queries = {q: random_protein(rng, q, 3) for q in ("Q1", "Q2")}
    sources = {s: random_protein(rng, s, 3) for s in ("S1", "S2", "S3")}
    db = _db_with_sources(tmp_path, list(sources))
    pairs = [pair("Q1", s, 0.9) for s in ("S3", "S1", "S2")] + [
        pair("Q2", "S2", 0.85), pair("Q2", "S3", 0.5), pair("Q2", "Q2", 0.95),
    ]
    built, scored = [], []
    build, score = matcher.build_patch_database, matcher.score_query

    def build_spy(patches, *args, **kwargs):
        built.append([patch.patch_id for patch in patches])
        return build(patches, *args, **kwargs)

    def score_spy(query, *args, **kwargs):
        scored.append(query.protein_id)
        return score(query, *args, **kwargs)

    monkeypatch.setattr(matcher, "build_patch_database", build_spy)
    monkeypatch.setattr(matcher, "score_query", score_spy)
    report = sweep(pairs, EvalConfig(), {}, queries, sources, db, tmp_dir=tmp_path)
    assert len(report.rows) == 40
    assert built == [["S1", "S2", "S3"], ["S2"]]
    assert scored == ["Q1", "Q2"]


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(tau_pp_values=())
    with pytest.raises(ValueError):
        EvalConfig(tau_pp_values=(1.5,))
