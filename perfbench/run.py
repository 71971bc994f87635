"""patchgrid benchmark: seeded workloads, checked outputs, one JSON result line.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload query-M --seed 3 --seconds 10 --trace 0

Workloads (all closed loops with one client in this one process):

    query-M  queries with match_query against ROADMAP's "M" database
    build-L  build-db path (parse, SITE extraction, dedup, build), then add, then compact
    small-S  many tiny planted instances: build a database and run one query

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs the same
operations once untraced and once traced (see tracing.py) and reports the
per-layer metrics plus the tracing overhead. Every result is checked: against
a stored digest (perfbench/digests-*.json, written by record.py) or, for seeds
without one, against the naive oracle or a from-scratch rebuild. Any mismatch
counts as a failed operation and the exit status is 1. The last line of
standard output is a JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"

WORKLOADS = ("query-M", "build-L", "small-S")
TAU_PP = 0.5
DELTA = 1.0
SETUP_REPEATS = 3
# small-S set-up warms up on planted instances 0..24: enough work (~0.3 s)
# for a steady set-up time, and the same work whatever the seed.
WARM_UP_INSTANCES = 25

_perf = time.perf_counter


def _import_patchgrid():
    """Import patchgrid from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import patchgrid
    except ImportError as exc:
        sys.exit(f"error: cannot import patchgrid from {SRC}: {exc}")
    if not Path(patchgrid.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: patchgrid imported from {patchgrid.__file__}, not from {SRC}")


def results_digest(results) -> str:
    """sha256 of the results rendered as the CLI's results TSV."""
    lines = ["#patch_id\tsource_protein_id\tdb_residue_ordinal\tquery_residue_ordinal\tscore"]
    for r in results:
        lines.append(
            f"{r.patch_id}\t{r.source_protein_id}\t{r.db_ref_id.residue_ordinal}\t"
            f"{r.query_ref_id.residue_ordinal}\t{r.score!r}"
        )
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def run_bytes(db) -> int:
    return sum((db.grid.directory / r.file_name).stat().st_size for r in db.grid.runs)


def digests_path(workload: str) -> Path:
    return BENCH_DIR / f"digests-{workload}.json"


def stored_digests(workload: str) -> dict:
    """{str(seed): digest} recorded by record.py for one workload."""
    path = digests_path(workload)
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def ingest_files(paths):
    """Parse structure files, cut SITE patches and dedup them, as build-db and add do."""
    from patchgrid import ingest

    patches = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        protein = ingest.parse_structure_file(lines, protein_id=path.stem.upper())
        patches.extend(ingest.extract_site_patches(lines, protein))
    return ingest.dedup_patches(patches)


def timed(fn, *args, **kwargs):
    """Run one operation after a full collection; return (result, seconds)."""
    gc.collect()
    start = _perf()
    result = fn(*args, **kwargs)
    return result, _perf() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Workloads. Each one has set_up() (repeated to time set-up), op(k) (one
# timed operation, returning its latency), check() (verifies every output
# after the timed loop and returns the number of failed operations) and
# report_figures() (prints the per-operation figures and returns the
# run-file bytes per stored entry).


class QueryM:
    """Queries against the fixed M database; the database is built in set-up
    by a child process so the build does not set this process's peak RSS."""

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.db = None
        self.latencies, self.pairs = [], []
        self.outputs = []  # results digest of each op

    def set_up(self):
        from patchgrid.preprocess import PatchDatabase

        db_dir = self.work / "m_db"
        if db_dir.exists():
            shutil.rmtree(db_dir)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--build-m", str(db_dir)],
            check=True, env=dict(os.environ, TMPDIR=str(self.work)),
        )
        self.db = PatchDatabase.load(db_dir)
        self.generate_query()

    def generate_query(self):
        import gen

        self.patches = gen.m_patches()
        self.query = gen.planted_query(self.seed, self.patches)

    def op(self, k):
        from patchgrid import matcher

        stats = {}
        results, seconds = timed(matcher.match_query, self.query, self.db, TAU_PP, tmp_dir=self.work, stats=stats)
        self.latencies.append(seconds)
        self.outputs.append(results_digest(results))
        self.pairs.append(stats["pairs_scored"])
        return seconds

    def check(self, report):
        expected = stored_digests("query-M").get(str(self.seed)) or self.oracle_digest()
        failed = 0
        for k, (digest, pairs_scored) in enumerate(zip(self.outputs, self.pairs)):
            if digest != expected:
                failed += 1
                report(f"MISMATCH op {k}: results digest {digest} != expected {expected}")
            elif pairs_scored != self.pairs[0]:
                failed += 1
                report(f"MISMATCH op {k}: pairs_scored {pairs_scored} != {self.pairs[0]} on op 0")
        return failed

    def oracle_digest(self):
        from patchgrid import baseline
        from patchgrid.grid import GridParams

        oracle = baseline.naive_match(
            self.query, self.patches, GridParams(DELTA), baseline.FrameMode.PerResidue, TAU_PP
        )
        return results_digest(oracle)

    def report_figures(self, report):
        n = len(self.latencies)
        report(f"query_qps {n / sum(self.latencies):.6g} 1/s (n={n} queries)")
        report(f"query_p50_s {statistics.median(self.latencies):.6g} s (n={n})")
        report(f"pairs_scored per query {self.pairs}")
        return run_bytes(self.db) / self.db.grid.total_entries


class BuildL:
    """build (parse + extract + dedup + build_patch_database), add of a 25%
    second batch, and compact, in that order, on a fresh database each cycle."""

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.builds, self.adds, self.compacts, self.latencies = [], [], [], []
        self.pairs = []
        self.entries, self.digests, self.bytes_per_entry = [], [], []

    def set_up(self):
        import gen

        build, add = gen.build_l_texts(self.seed)
        self.batches = []
        for name, texts in (("build", build), ("add", add)):
            directory = self.work / "inputs" / name
            directory.mkdir(parents=True, exist_ok=True)
            paths = []
            for stem, text in texts.items():
                path = directory / f"{stem}.pdb"
                path.write_text(text, encoding="utf-8")
                paths.append(path)
            self.batches.append(paths)

    def op(self, k):
        from patchgrid import preprocess
        from patchgrid.grid import GridParams

        db_dir = self.work / f"l_db_{k}"

        def build():
            return preprocess.build_patch_database(
                ingest_files(self.batches[0]), GridParams(DELTA), db_dir, tmp_dir=self.work
            )

        def add(db):
            return preprocess.add_patches(db, ingest_files(self.batches[1]), tmp_dir=self.work)

        db, build_s = timed(build)
        entries = db.grid.total_entries
        db, add_s = timed(add, db)
        db, compact_s = timed(preprocess.compact, db)
        self.builds.append(build_s)
        self.adds.append(add_s)
        self.compacts.append(compact_s)
        self.latencies.append(build_s + add_s + compact_s)
        self.entries.append(entries)
        (run,) = db.grid.runs
        self.digests.append(file_digest(db.grid.directory / run.file_name))
        self.bytes_per_entry.append(run_bytes(db) / db.grid.total_entries)
        shutil.rmtree(db_dir)
        return self.latencies[-1]

    def union_digest(self):
        """sha256 of the run file of a from-scratch build of both batches."""
        from patchgrid import preprocess
        from patchgrid.grid import GridParams

        union_dir = self.work / "l_union"
        db = preprocess.build_patch_database(
            ingest_files(self.batches[0] + self.batches[1]), GridParams(DELTA), union_dir,
            tmp_dir=self.work,
        )
        (run,) = db.grid.runs
        digest = file_digest(db.grid.directory / run.file_name)
        shutil.rmtree(union_dir)
        return digest

    def check(self, report):
        expected = stored_digests("build-L").get(str(self.seed)) or self.union_digest()
        failed = 0
        for k, digest in enumerate(self.digests):
            if digest != expected:
                failed += 1
                report(f"MISMATCH cycle {k}: compacted run sha256 {digest} != expected {expected}")
        return failed

    def report_figures(self, report):
        n = len(self.builds)
        build_s = statistics.median(self.builds)
        report(f"build_s {build_s:.6g} s (median of n={n})")
        report(f"build_entries_per_s {statistics.median(self.entries) / build_s:.6g} 1/s")
        report(f"add_s {statistics.median(self.adds):.6g} s (median of n={n})")
        report(f"compact_s {statistics.median(self.compacts):.6g} s (median of n={n})")
        return statistics.median(self.bytes_per_entry)


class SmallS:
    """Tiny planted instances: build a database, run one query, and compare
    with the naive oracle in per-residue mode."""

    def __init__(self, seed, work):
        import gen

        self.seed, self.work = seed, work
        self.seed_stream = gen.small_instance_seeds(seed)
        self.instance_seeds = []
        self.builds, self.queries, self.latencies, self.pairs = [], [], [], []
        self.done = []  # (instance seed, results digest); instances are not kept, so RSS stays flat
        self.bytes = self.entries = 0

    def _instance(self, instance, db_dir):
        from patchgrid import matcher, preprocess

        db, build_s = timed(
            preprocess.build_patch_database, instance.patches, instance.params, db_dir, tmp_dir=self.work
        )
        stats = {}
        start = _perf()
        results = matcher.match_query(instance.query, db, TAU_PP, tmp_dir=self.work, stats=stats)
        query_s = _perf() - start
        self.pairs.append(stats["pairs_scored"])
        return db, results, build_s, query_s

    def set_up(self):
        from patchgrid import synthetic

        for instance_seed in range(WARM_UP_INSTANCES):
            db_dir = self.work / "s_warm_up"
            self._instance(synthetic.planted_instance(instance_seed), db_dir)
            shutil.rmtree(db_dir)
        self.pairs.clear()

    def op(self, k):
        from patchgrid import synthetic

        while len(self.instance_seeds) <= k:
            self.instance_seeds.append(next(self.seed_stream))
        instance = synthetic.planted_instance(self.instance_seeds[k])
        db_dir = self.work / f"s_db_{k}"
        db, results, build_s, query_s = self._instance(instance, db_dir)
        self.builds.append(build_s)
        self.queries.append(query_s)
        self.latencies.append(build_s + query_s)
        self.bytes += run_bytes(db)
        self.entries += db.grid.total_entries
        self.done.append((self.instance_seeds[k], results_digest(results)))
        shutil.rmtree(db_dir)
        return build_s + query_s

    def check(self, report):
        from patchgrid import baseline, synthetic

        failed = 0
        for instance_seed, digest in self.done:
            instance = synthetic.planted_instance(instance_seed)
            oracle = baseline.naive_match(
                instance.query, instance.patches, instance.params, baseline.FrameMode.PerResidue, TAU_PP
            )
            if digest != results_digest(oracle):
                failed += 1
                report(f"MISMATCH instance seed {instance_seed}: results digest differs from the oracle's")
        return failed

    def report_figures(self, report):
        n = len(self.queries)
        p90 = statistics.quantiles(self.queries, n=10)[-1] if n >= 2 else self.queries[0]
        report(f"query_qps {n / sum(self.queries):.6g} 1/s (n={n} queries)")
        report(f"query_p50_s {statistics.median(self.queries):.6g} s (n={n})")
        report(f"query_p90_s {p90:.6g} s (n={n})")
        report(f"build_s {statistics.median(self.builds):.6g} s (median of n={n})")
        return self.bytes / self.entries


CLASSES = {"query-M": QueryM, "build-L": BuildL, "small-S": SmallS}


# ---------------------------------------------------------------------------


def measure(workload, seconds):
    """Closed loop: run operations until `seconds` of wall time have passed
    (the operation in flight is completed). Returns the number of operations."""
    start = _perf()
    k = 0
    while True:
        workload.op(k)
        k += 1
        if _perf() - start >= seconds:
            return k


def machine_notes(work) -> str:
    import numpy

    fs = "unknown"
    try:
        best = ""
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                _, mount, fstype = line.split()[:3]
                if str(work).startswith(mount) and len(mount) >= len(best):
                    best, fs = mount, fstype
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
            f"tmp_fs={fs} page_cache=warm (inputs are written by this run just before they are read; "
            f"caches are never dropped)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-m", metavar="DB_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_patchgrid()
    if args.build_m:
        return build_m(Path(args.build_m))
    if args.workload is None:
        parser.error("--workload is required")

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    tempfile.tempdir = str(work)
    try:
        return run(args, work)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)


def build_m(db_dir: Path) -> int:
    """Set-up step of query-M, run in a child process."""
    import gen
    from patchgrid import preprocess
    from patchgrid.grid import GridParams

    preprocess.build_patch_database(gen.m_patches(), GridParams(DELTA), db_dir, tmp_dir=db_dir.parent)
    return 0


def run(args, work: Path) -> int:
    def report(text):
        print(text, flush=True)

    report(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    report(machine_notes(work))
    workload = CLASSES[args.workload](args.seed, work)
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        gc.collect()
        start = _perf()
        workload.set_up()
        setups.append(_perf() - start)

    attempted = failed = 0
    count_errors: list[str] = []
    try:
        n_ops = measure(workload, args.seconds)
        rss = peak_rss_mb()
        untraced_s = sum(workload.latencies)
        attempted += n_ops
        if args.trace:
            per_layer, count_errors = traced_pass(workload, n_ops, untraced_s, args, report)
            attempted += n_ops
    except Exception as exc:  # an operation raised: report it as a failed run
        report(f"FAILED operation: {type(exc).__name__}: {exc}")
        print(json.dumps({"correct": False, "attempted": attempted + 1, "failed": 1, "metrics": {}}))
        return 1
    failed += workload.check(report)
    for error in count_errors:
        report(f"COUNT CHECK FAILED: {error}")

    report(f"error_rate {failed / attempted:.6g} (failed={failed} attempted={attempted})")
    if args.trace:
        metrics = per_layer
    else:
        bytes_per_entry = workload.report_figures(report)
        latencies = workload.latencies
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "db_bytes_per_entry": {"value": bytes_per_entry, "unit": "B"},
        }
        report(f"setup_s {statistics.median(setups):.6g} s (median of n={len(setups)})")
        report(f"peak_rss_mb {rss:.6g} MB")
        report(f"db_bytes_per_entry {bytes_per_entry:.6g} B")
    correct = failed == 0 and not count_errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def traced_pass(workload, n_ops, untraced_s, args, report):
    """Repeat the same operations with tracing on; return per-layer metrics
    and the list of failed exact-count checks."""
    import tracing

    untraced_pairs = list(workload.pairs)
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    before = len(workload.latencies)
    try:
        for k in range(n_ops):
            tracer.op_id = f"{args.workload}:{k}"
            workload.op(k)
    finally:
        tracer.uninstall()
    traced_s = sum(workload.latencies[before:])
    tracer.write_spans(TRACE_DIR / f"trace_{args.workload}_seed{args.seed}.jsonl")
    report(f"traced bindings: {' '.join(tracer.wrapped)}")
    for name, reason in tracer.absent.items():
        report(f"absent: {name}: {reason}")

    metrics = {}
    for name, (unit, read, needs) in tracing.PER_LAYER.items():
        if needs in tracer.absent:
            metrics[name] = {"value": None, "unit": unit, "absent": tracer.absent[needs]}
        else:
            metrics[name] = {"value": read(tracer), "unit": unit}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    for name, metric in metrics.items():
        if metric["value"] is None:
            report(f"{name} absent ({metric['absent']})")
        else:
            report(f"{name} {metric['value']:.6g} {metric['unit']}")

    # Exact counts; a check whose binding is absent is skipped, not failed.
    errors = []
    counts = tracer.counts

    def present(*names):
        return not set(names) & tracer.absent.keys()

    if (present("grid.run_reader_next", "matcher.merge_scan_match", "grid.merge_runs")
            and counts["grid.cells_read"] != counts["grid.cells_stored_scanned"]):
        errors.append(f"grid.cells_read {counts['grid.cells_read']} != stored cells of the scanned "
                      f"grids {counts['grid.cells_stored_scanned']}")
    if (present("preprocess.entries_generated", "preprocess.build_patch_database", "preprocess.add_patches")
            and not (counts["preprocess.entries_generated"] == counts["preprocess.manifest_entries"]
                     == counts["preprocess.sum_nm"])):
        errors.append(f"preprocess.entries_generated {counts['preprocess.entries_generated']}, "
                      f"manifest entries {counts['preprocess.manifest_entries']} and sum of n*m "
                      f"{counts['preprocess.sum_nm']} differ")
    traced_pairs = workload.pairs[len(untraced_pairs):]
    if traced_pairs != untraced_pairs or (
        present("matcher.finalize_scores")
        and counts["matcher.pairs_scored"] != sum(traced_pairs)
    ):
        errors.append(f"matcher.pairs_scored differs between runs: untraced {sum(untraced_pairs)}, "
                      f"traced {sum(traced_pairs)}, counted {counts['matcher.pairs_scored']}")
    return metrics, errors


if __name__ == "__main__":
    sys.exit(main())
