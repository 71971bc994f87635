"""Reliability analysis: redundancy filtering and keyword-recovery TP rate.

Matching pairs are judged indirectly: a (query protein, patch source
protein) pair counts as a true recovery when the two entities share at
least one annotation keyword. With D the keyword-sharing ratio among
reported pairs, R the same ratio over the full query x source cross
product, and I the ratio among true pairs (taken as 1), the true-positive
rate is TP = (D - R) / (I - R). Pairs whose structural identity exceeds the
protein-protein threshold are discarded first, so near-identical structures
cannot inflate D. The identities are computed once per sweep, by one
scoring pass per query against every source its pairs name
(``pair_identities``), and each row's filter reads them.

Entities lacking keywords are excluded from both the D and R denominators
rather than counted as non-matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import UndefinedTP
from .grid import GridParams
from .ingest import KeywordAnnotation, Protein, _count
from .matcher import MatchResult, structural_identity
from .preprocess import PatchDatabase

DEFAULT_TAU_PP_VALUES = (0.80, 0.85, 0.90, 0.95)
DEFAULT_TAU_PROT_VALUES = tuple(round(0.1 * i, 10) for i in range(1, 11))


@dataclass(frozen=True)
class EvalConfig:
    tau_pp_values: tuple[float, ...] = DEFAULT_TAU_PP_VALUES
    tau_prot_values: tuple[float, ...] = DEFAULT_TAU_PROT_VALUES

    def __post_init__(self):
        if not self.tau_pp_values or not self.tau_prot_values:
            raise ValueError("threshold lists must be non-empty")
        for v in (*self.tau_pp_values, *self.tau_prot_values):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"threshold {v} outside [0, 1]")


class EvalPair(NamedTuple):
    """A reported match attributed to its query protein."""

    query_id: str
    result: MatchResult


@dataclass(frozen=True)
class TPRow:
    tau_pp: float
    tau_prot: float
    d_value: float | None
    r_value: float | None
    tp: float | None
    pair_count: int


@dataclass
class TPReport:
    rows: list[TPRow] = field(default_factory=list)

    def to_tsv(self) -> str:
        def fmt(v: float | None) -> str:
            return "NA" if v is None else repr(v)

        lines = ["tau_pp\ttau_prot\tD\tR\tTP\tpair_count"]
        for row in self.rows:
            lines.append(
                f"{row.tau_pp!r}\t{row.tau_prot!r}\t{fmt(row.d_value)}\t"
                f"{fmt(row.r_value)}\t{fmt(row.tp)}\t{row.pair_count}"
            )
        return "\n".join(lines) + "\n"


def pair_identities(
    pairs: Iterable[EvalPair],
    query_proteins: Mapping[str, Protein],
    source_proteins: Mapping[str, Protein],
    params: GridParams,
    tmp_dir: Path | None = None,
) -> dict[tuple[str, str], float]:
    """Structural identity of each distinct (query id, source id) of ``pairs``.

    A self pair gets 1.0 without a match. Every other query is matched once,
    by ``structural_identity``, against all the sources its pairs name; the
    identity is normalized by the source's atom count, so it depends on
    direction. A pair whose query or source structure is missing gets no
    entry.
    """
    identities: dict[tuple[str, str], float] = {}
    named: dict[str, set[str]] = {}
    for pair in pairs:
        query_id, source_id = pair.query_id, pair.result.source_protein_id
        if query_id == source_id:
            identities[query_id, source_id] = 1.0
        else:
            named.setdefault(query_id, set()).add(source_id)
    for query_id, source_ids in named.items():
        query = query_proteins.get(query_id)
        sources = {sid: source_proteins[sid] for sid in sorted(source_ids) if source_proteins.get(sid) is not None}
        if query is None or not sources:
            continue
        for source_id, identity in structural_identity(query, sources, params, tmp_dir=tmp_dir).items():
            identities[query_id, source_id] = identity
    return identities


def redundancy_filter(
    pairs: Sequence[EvalPair],
    identities: Mapping[tuple[str, str], float],
    tau_prot: float,
    counters: dict[str, int] | None = None,
) -> list[EvalPair]:
    """Drop pairs whose protein-protein identity exceeds tau_prot (strict).

    ``identities`` maps (query id, source id) to identity, as
    ``pair_identities`` gives it. Pairs without an identity, whose query or
    source structure was missing, are dropped and counted under
    ``counters['pairs_missing_source']``; removals are counted under
    ``counters['pairs_removed_redundant']``.
    """
    kept: list[EvalPair] = []
    for pair in pairs:
        identity = identities.get((pair.query_id, pair.result.source_protein_id))
        if identity is None:
            _count(counters, "pairs_missing_source")
        elif identity > tau_prot:
            _count(counters, "pairs_removed_redundant")
        else:
            kept.append(pair)
    return kept


def same_keywords(a: KeywordAnnotation, b: KeywordAnnotation) -> bool:
    """True when the two keyword sets intersect."""
    return bool(a.keywords & b.keywords)


def _annotated(annotations: Mapping[str, KeywordAnnotation], entity_id: str) -> KeywordAnnotation | None:
    ann = annotations.get(entity_id)
    if ann is None or not ann.keywords:
        return None
    return ann


def compute_D(
    filtered_pairs: Sequence[EvalPair],
    annotations: Mapping[str, KeywordAnnotation],
    counters: dict[str, int] | None = None,
) -> float | None:
    """Keyword-sharing ratio among reported pairs, or None when no pair has
    both sides annotated. Pairs are counted with multiplicity, one per
    reported match."""
    shared = 0
    total = 0
    for pair in filtered_pairs:
        ann_q = _annotated(annotations, pair.query_id)
        ann_s = _annotated(annotations, pair.result.source_protein_id)
        if ann_q is None or ann_s is None:
            _count(counters, "pairs_unannotated")
            continue
        total += 1
        if same_keywords(ann_q, ann_s):
            shared += 1
    if total == 0:
        return None
    return shared / total


def compute_R(
    query_ids: Iterable[str],
    db: PatchDatabase,
    annotations: Mapping[str, KeywordAnnotation],
    counters: dict[str, int] | None = None,
) -> float | None:
    """Chance keyword-sharing ratio over {queries} x {distinct patch sources},
    both sides annotated; None when no annotated pair exists."""
    sources = sorted(db.source_protein_ids())
    shared = 0
    total = 0
    for query_id in sorted(set(query_ids)):
        ann_q = _annotated(annotations, query_id)
        if ann_q is None:
            continue
        for source_id in sources:
            ann_s = _annotated(annotations, source_id)
            if ann_s is None:
                _count(counters, "cross_pairs_unannotated")
                continue
            total += 1
            if same_keywords(ann_q, ann_s):
                shared += 1
    if total == 0:
        return None
    return shared / total


def tp_rate(d_value: float, r_value: float, i_value: float = 1.0) -> float:
    """TP = (D - R) / (I - R); undefined when R equals I."""
    if r_value == i_value:
        raise UndefinedTP(f"R == I == {r_value}")
    return (d_value - r_value) / (i_value - r_value)


def sweep(
    pairs: Sequence[EvalPair],
    config: EvalConfig,
    annotations: Mapping[str, KeywordAnnotation],
    query_proteins: Mapping[str, Protein],
    source_proteins: Mapping[str, Protein],
    db: PatchDatabase,
    tmp_dir: Path | None = None,
    counters: dict[str, int] | None = None,
) -> TPReport:
    """One TP row per (tau_pp, tau_prot) combination.

    ``pairs`` must carry scores at or below the smallest tau_pp of interest.
    The identities of the pairs that reach it are computed once, by
    ``pair_identities`` with ``db.params``; each row keeps pairs with score
    >= tau_pp, applies the redundancy filter at tau_prot, then computes D
    and TP against a shared R. In ``counters``, ``pairs_missing_source``,
    ``pairs_removed_redundant`` and ``pairs_unannotated`` count each input
    pair once if any row counts it.
    """
    lowest = min(config.tau_pp_values)
    reached = [p for p in pairs if p.result.score >= lowest]
    identities = pair_identities(reached, query_proteins, source_proteins, db.params, tmp_dir)
    r_value = compute_R(query_proteins.keys(), db, annotations, counters=counters)
    report = TPReport()
    for tau_pp in config.tau_pp_values:
        kept = [p for p in pairs if p.result.score >= tau_pp]
        for tau_prot in config.tau_prot_values:
            row_counters: dict[str, int] = {}
            filtered = redundancy_filter(kept, identities, tau_prot, counters=row_counters)
            d_value = compute_D(filtered, annotations, counters=row_counters)
            # A row's counted pairs are a subset of those of the row with the
            # smallest tau_pp and the smallest (redundant) or largest
            # (unannotated) tau_prot, so the largest row count is the number
            # of distinct pairs any row counts.
            if counters is not None:
                for key, value in row_counters.items():
                    counters[key] = max(counters.get(key, 0), value)
            if d_value is None or r_value is None:
                tp = None
            else:
                try:
                    tp = tp_rate(d_value, r_value)
                except UndefinedTP:
                    tp = None
            report.rows.append(
                TPRow(
                    tau_pp=tau_pp,
                    tau_prot=tau_prot,
                    d_value=d_value,
                    r_value=r_value,
                    tp=tp,
                    pair_count=len(filtered),
                )
            )
    return report
