"""Per-layer tracing from outside patchgrid.

The tracer replaces module-level bindings with timing wrappers. A function
imported with ``from .grid import build_sorted_run`` is a separate binding
in every importing module, so each target is wrapped at every measured
module that holds the same object. Operation-level calls record one span
each (name, start, end, parent, operation id); per-entry hot calls keep only
a call count and a total time. A binding that no longer exists is reported
as absent instead of failing the run.

Self time of a span is its duration minus the time of the traced calls made
inside it, spans and counted calls alike.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import patchgrid
from patchgrid import geometry, grid, ingest, matcher, preprocess

# Modules whose bindings are measured. baseline (the oracle), synthetic (the
# input generator), reliability (offline eval) and cli are left alone.
MEASURED_MODULES = (patchgrid, ingest, geometry, grid, preprocess, matcher)

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.child: dict[str, float] = defaultdict(float)  # span name -> traced child seconds
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: dict[str, str] = {}
        self.wrapped: list[str] = []
        self.op_id: str | None = None
        self._stack = [0.0]  # child-time accumulator of each open traced call
        self._span_stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, after):
        spans, stack, span_stack = self.spans, self._stack, self._span_stack
        cell, child = self.calls[name], self.child

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            span_stack.append(index)
            stack.append(0.0)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                inner = stack.pop()
                span_stack.pop()
                stack[-1] += end - start
                cell[0] += 1
                cell[1] += end - start
                child[name] += inner
                spans[index] = (name, start, end, span_stack[-1], self.op_id)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _counted(self, name, fn, after):
        stack, cell = self._stack, self.calls[name]

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                stack.pop()
                stack[-1] += elapsed
                cell[0] += 1
                cell[1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _generator(self, name, fn, after):
        counts = self.counts

        def wrapper(*args, **kwargs):
            def counting(items):
                for item in items:
                    counts[name] += 1
                    yield item

            return counting(fn(*args, **kwargs))

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, targets) -> None:
        kinds = {"span": self._span, "count": self._counted, "generator": self._generator}
        for name, module, attr, kind, after in targets:
            owner_name, _, member = attr.partition(".")
            owner = getattr(module, owner_name, None)
            original = getattr(owner, member, None) if member else owner
            if original is None:
                self.absent[name] = f"{module.__name__} has no attribute {attr}"
                continue
            wrapper = kinds[kind](name, original, after)
            if member:
                self._replace(owner, member, wrapper, f"{module.__name__}.{attr}")
                continue
            for measured in MEASURED_MODULES:
                for binding, value in list(vars(measured).items()):
                    if value is original:
                        self._replace(measured, binding, wrapper, f"{measured.__name__}.{binding}")

    def _replace(self, owner, attr, wrapper, label) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)
        self.wrapped.append(label)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def seconds(self, name) -> float:
        return self.calls[name][1] if name in self.calls else 0.0

    def self_seconds(self, name) -> float:
        return self.seconds(name) - self.child.get(name, 0.0)

    def n_calls(self, name) -> int:
        return self.calls[name][0] if name in self.calls else 0

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


# ---------------------------------------------------------------------------
# What is traced. Each "after" hook turns a call's result into the counts the
# per-layer metrics need.


def _count(key, value):
    def after(tracer, args, result):
        tracer.counts[key] += value(args, result)
    return after


def _run_reader_next(tracer, args, cell):
    # Frozen run-file layout: 12-byte cell header plus 12 bytes per entry.
    tracer.counts["grid.cells_read"] += 1
    tracer.counts["grid.run_bytes_read"] += 12 + 12 * len(cell.entries)


def _run_writer_close(tracer, args, info):
    tracer.counts["grid.run_bytes_written"] += os.path.getsize(args[0].path)


def _merge_scan(tracer, args, table):
    gp, gq = args[0], args[1]
    tracer.counts["grid.cells_stored_scanned"] += gp.total_cells + gq.total_cells


def _merge_runs(tracer, args, merged):
    if len(args[0].runs) > 1:
        tracer.counts["grid.cells_stored_scanned"] += args[0].total_cells


def _built(tracer, args, db):
    tracer.counts["preprocess.manifest_entries"] += db.grid.total_entries
    tracer.counts["preprocess.sum_nm"] += db.expected_entries


def _added(tracer, args, db):
    old = args[0]
    tracer.counts["preprocess.manifest_entries"] += db.grid.total_entries - old.grid.total_entries
    tracer.counts["preprocess.sum_nm"] += db.expected_entries - old.expected_entries


TARGETS = (
    # (metric name, defining module, attribute, kind, after hook)
    ("ingest.parse_structure_file", ingest, "parse_structure_file", "span",
     _count("ingest.atoms_parsed", lambda a, r: len(r.atoms))),
    ("ingest.extract_site_patches", ingest, "extract_site_patches", "span", None),
    ("ingest.dedup_patches", ingest, "dedup_patches", "span", None),
    ("geometry.frame_from_triple", geometry, "frame_from_triple", "count", None),
    ("geometry.transform_points", geometry, "transform_points", "count", None),
    ("preprocess.residue_frames", preprocess, "residue_frames", "span",
     _count("preprocess.frames", lambda a, r: len(r))),
    ("preprocess.build_patch_database", preprocess, "build_patch_database", "span", _built),
    ("preprocess.add_patches", preprocess, "add_patches", "span", _added),
    ("preprocess.compact", preprocess, "compact", "span", None),
    ("preprocess.entries_generated", preprocess, "_patch_entries", "generator", None),
    ("grid.cells_of_points", grid, "cells_of_points", "count", None),
    ("grid.morton_encode", grid, "morton_encode", "count", None),
    ("grid.build_sorted_run", grid, "build_sorted_run", "span", None),
    ("grid.sort_spill_chunks", grid, "_chunk_records", "count", None),
    ("grid.run_writer_close", grid, "_RunWriter.close", "count", _run_writer_close),
    ("grid.run_reader_next", grid, "_RunReader.__next__", "count", _run_reader_next),
    ("grid.cursor_next", grid, "GridCursor.__next__", "count", None),
    ("grid.merge_runs", grid, "merge_runs", "span", _merge_runs),
    ("matcher.match_query", matcher, "match_query", "span", None),
    ("matcher.build_query_grid", matcher, "build_query_grid", "span",
     _count("matcher.query_entries", lambda a, r: r.total_entries)),
    ("matcher.merge_scan_match", matcher, "merge_scan_match", "span", _merge_scan),
    ("matcher.score_adds", matcher, "ScoreTable.add", "count", None),
    ("matcher.score_spills", matcher, "ScoreTable._spill", "span", None),
    ("matcher.finalize_scores", matcher, "finalize_scores", "span",
     _count("matcher.pairs_scored", lambda a, r: len(r))),
    ("matcher.threshold_filter", matcher, "threshold_filter", "span",
     _count("matcher.pairs_kept", lambda a, r: len(r))),
)

# Per-layer metric -> (unit, how to read it from the tracer, traced binding it needs).
PER_LAYER = {
    "ingest.parse_structure_file.s": ("s", lambda t: t.seconds("ingest.parse_structure_file"), "ingest.parse_structure_file"),
    "ingest.extract_site_patches.s": ("s", lambda t: t.seconds("ingest.extract_site_patches"), "ingest.extract_site_patches"),
    "ingest.dedup_patches.s": ("s", lambda t: t.seconds("ingest.dedup_patches"), "ingest.dedup_patches"),
    "ingest.atoms_parsed": ("count", lambda t: t.counts["ingest.atoms_parsed"], "ingest.parse_structure_file"),
    "geometry.frame_from_triple.calls": ("count", lambda t: t.n_calls("geometry.frame_from_triple"), "geometry.frame_from_triple"),
    "geometry.frame_from_triple.s": ("s", lambda t: t.seconds("geometry.frame_from_triple"), "geometry.frame_from_triple"),
    "geometry.transform_points.calls": ("count", lambda t: t.n_calls("geometry.transform_points"), "geometry.transform_points"),
    "geometry.transform_points.s": ("s", lambda t: t.seconds("geometry.transform_points"), "geometry.transform_points"),
    "preprocess.residue_frames.s": ("s", lambda t: t.seconds("preprocess.residue_frames"), "preprocess.residue_frames"),
    "preprocess.build_patch_database.self_s": ("s", lambda t: t.self_seconds("preprocess.build_patch_database"), "preprocess.build_patch_database"),
    "preprocess.add_patches.self_s": ("s", lambda t: t.self_seconds("preprocess.add_patches"), "preprocess.add_patches"),
    "preprocess.frames": ("count", lambda t: t.counts["preprocess.frames"], "preprocess.residue_frames"),
    "preprocess.entries_generated": ("count", lambda t: t.counts["preprocess.entries_generated"], "preprocess.entries_generated"),
    "grid.cells_of_points.s": ("s", lambda t: t.seconds("grid.cells_of_points"), "grid.cells_of_points"),
    "grid.morton_encode.calls": ("count", lambda t: t.n_calls("grid.morton_encode"), "grid.morton_encode"),
    "grid.morton_encode.s": ("s", lambda t: t.seconds("grid.morton_encode"), "grid.morton_encode"),
    "grid.build_sorted_run.self_s": ("s", lambda t: t.self_seconds("grid.build_sorted_run"), "grid.build_sorted_run"),
    "grid.sort_spill_chunks": ("count", lambda t: t.n_calls("grid.sort_spill_chunks"), "grid.sort_spill_chunks"),
    "grid.run_bytes_written": ("B", lambda t: t.counts["grid.run_bytes_written"], "grid.run_writer_close"),
    "grid.cursor_next.calls": ("count", lambda t: t.n_calls("grid.cursor_next"), "grid.cursor_next"),
    "grid.cursor_next.s": ("s", lambda t: t.seconds("grid.cursor_next"), "grid.cursor_next"),
    "grid.cells_read": ("count", lambda t: t.counts["grid.cells_read"], "grid.run_reader_next"),
    "grid.run_bytes_read": ("B", lambda t: t.counts["grid.run_bytes_read"], "grid.run_reader_next"),
    "grid.merge_runs.self_s": ("s", lambda t: t.self_seconds("grid.merge_runs"), "grid.merge_runs"),
    "matcher.build_query_grid.self_s": ("s", lambda t: t.self_seconds("matcher.build_query_grid"), "matcher.build_query_grid"),
    "matcher.query_entries": ("count", lambda t: t.counts["matcher.query_entries"], "matcher.build_query_grid"),
    "matcher.merge_scan_match.self_s": ("s", lambda t: t.self_seconds("matcher.merge_scan_match"), "matcher.merge_scan_match"),
    "matcher.score_adds": ("count", lambda t: t.n_calls("matcher.score_adds"), "matcher.score_adds"),
    "matcher.score_spills": ("count", lambda t: t.n_calls("matcher.score_spills"), "matcher.score_spills"),
    "matcher.finalize_scores.s": ("s", lambda t: t.seconds("matcher.finalize_scores"), "matcher.finalize_scores"),
    "matcher.threshold_filter.s": ("s", lambda t: t.seconds("matcher.threshold_filter"), "matcher.threshold_filter"),
    "matcher.pairs_scored": ("count", lambda t: t.counts["matcher.pairs_scored"], "matcher.finalize_scores"),
    "matcher.pairs_kept": ("count", lambda t: t.counts["matcher.pairs_kept"], "matcher.threshold_filter"),
    "matcher.pairs_kept_ratio": ("ratio", lambda t: t.counts["matcher.pairs_kept"] / max(1, t.counts["matcher.pairs_scored"]), "matcher.threshold_filter"),
}
