"""Command-line pipeline: build-db, query, add, eval, oracle-compare.

Configuration precedence is flags > environment (PATCHGRID_*) > config file
(flat key=value, ``--config``) > built-in defaults. Database writers are
guarded by a sibling ``<db>.lock`` file naming the holder's pid and host,
which the CLI never removes on another writer's behalf, and every output
file is written to a temporary name and renamed so interrupted runs never
leave a torn file.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import socket
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from . import baseline, matcher, preprocess, reliability, synthetic
from .errors import PatchGridError
from .grid import DEFAULT_MEMORY_BUDGET, GridParams, RefId, atomic_write_text
from .ingest import (
    Patch,
    Protein,
    _count,
    dedup_patches,
    extract_site_patches,
    parse_keyword_file,
    parse_structure_file,
    parse_template_file,
)
from .preprocess import PatchDatabase

# Options resolved by resolve_config: name -> (type, default, help).
SHARED_OPTIONS = {
    "delta": (float, 1.0, "cell edge length in Angstroms (default 1.0)"),
    "bits_per_axis": (int, 21, "Morton bits per axis (default 21)"),
    "tau_pp": (float, 0.9, "patch match score threshold (default 0.9)"),
    "mem_budget": (int, DEFAULT_MEMORY_BUDGET, "external-sort memory budget in entries"),
    "db": (str, None, "database directory"),
    "tmp": (Path, None, "directory for temporary files"),
}

ENV_PREFIX = "PATCHGRID_"


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PatchGridError(f"{path}:{line_number}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    file_values = _load_config_file(getattr(args, "config", None))
    resolved = {}
    for key, (cast, default, _) in SHARED_OPTIONS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = cast(flag)
            continue
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            resolved[key] = cast(env)
            continue
        if key in file_values:
            resolved[key] = cast(file_values[key])
            continue
        resolved[key] = default
    return resolved


def _lock_holder(lock_path: Path) -> str:
    """The writer a lock file names and, on this host, whether its pid is alive."""
    try:
        fields = dict(
            line.split("=", 1) for line in lock_path.read_text(encoding="utf-8").splitlines()
        )
        pid, host = int(fields["pid"]), fields["host"]
    except (OSError, ValueError, KeyError):
        return "an unknown writer"
    holder = f"pid {pid} on host {host}"
    if pid <= 0 or host != socket.gethostname():
        return holder
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return f"{holder}, which is not running"
    except PermissionError:
        pass
    except (OSError, OverflowError):
        return holder
    return f"{holder}, which is running"


@contextmanager
def db_write_lock(db_dir: Path):
    """Hold ``<db>.lock`` naming this pid and host; never take over an existing one."""
    lock_path = Path(str(db_dir).rstrip("/") + ".lock")
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise PatchGridError(
            f"database {db_dir} is locked by {_lock_holder(lock_path)} ({lock_path}); "
            f"remove the lock file only if that writer is gone"
        ) from None
    try:
        os.write(fd, f"pid={os.getpid()}\nhost={socket.gethostname()}\n".encode())
        os.close(fd)
        yield
    finally:
        try:
            lock_path.unlink()
        except OSError:
            pass


def _db_dir(config: dict) -> Path:
    if not config["db"]:
        raise ValueError("--db is required")
    return Path(config["db"])


def _read_inputs(args: argparse.Namespace, counters: dict[str, int]) -> list[Patch]:
    """The patches of the structure and template files, deduplicated.

    Raises PatchGridError when the inputs hold no patch.
    """
    patches: list[Patch] = []
    for path in args.structures or []:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        protein = parse_structure_file(lines, protein_id=Path(path).stem.upper())
        _count(counters, "structures")
        patches.extend(extract_site_patches(lines, protein, counters=counters))
    counters["site_patches"] = len(patches)
    n_before = len(patches)
    for path in args.templates or []:
        with open(path, "r", encoding="utf-8") as fh:
            patches.extend(parse_template_file(fh))
    counters["template_patches"] = len(patches) - n_before
    if not patches:
        raise PatchGridError("no patches extracted from the inputs")
    deduped = dedup_patches(patches)
    counters["duplicates_removed"] = len(patches) - len(deduped)
    return deduped


def cmd_build_db(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    db_dir = _db_dir(config)
    params = GridParams(delta=config["delta"], bits_per_axis=config["bits_per_axis"])
    if db_dir.exists():
        try:
            existing = PatchDatabase.load(db_dir)
        except OSError:
            print(f"error: {db_dir} exists and is not a database directory", file=sys.stderr)
            return 1
        if existing.params != params:
            print(
                f"error: {db_dir} already holds a database with delta={existing.params.delta}, "
                f"bits_per_axis={existing.params.bits_per_axis}; refusing to rebuild with "
                f"delta={params.delta}, bits_per_axis={params.bits_per_axis}",
                file=sys.stderr,
            )
        else:
            print(f"error: {db_dir} already holds a database; use 'add' to extend it", file=sys.stderr)
        return 1

    counters: dict[str, int] = {}
    with db_write_lock(db_dir):
        patches = _read_inputs(args, counters)
        staging = Path(str(db_dir) + ".building")
        if staging.exists():
            print(f"warning: removing {staging} left by an interrupted build-db", file=sys.stderr)
            shutil.rmtree(staging)
        try:
            db = preprocess.build_patch_database(
                patches,
                params,
                staging,
                memory_budget_entries=config["mem_budget"],
                tmp_dir=config["tmp"],
                counters=counters,
            )
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        os.rename(staging, db_dir)
        for key in ("structures", "site_patches", "template_patches", "duplicates_removed",
                    "patches_excluded", "patches_indexed"):
            print(f"{key}={counters.get(key, 0)}")
        print(f"total_entries={db.grid.total_entries}")
        print(f"total_cells={db.grid.total_cells}")
        print(f"mps={db.mps!r}")
    return 0


def _write_results_tsv(path: Path, results) -> None:
    lines = ["#patch_id\tsource_protein_id\tdb_residue_ordinal\tquery_residue_ordinal\tscore"]
    for r in results:
        lines.append(
            f"{r.patch_id}\t{r.source_protein_id}\t{r.db_ref_id.residue_ordinal}\t"
            f"{r.query_ref_id.residue_ordinal}\t{r.score!r}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def cmd_query(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    db = PatchDatabase.load(_db_dir(config))
    with open(args.query, "r", encoding="utf-8") as fh:
        query = parse_structure_file(fh, protein_id=Path(args.query).stem.upper())
    stats: dict = {}
    started = time.monotonic()
    results = matcher.match_query(
        query,
        db,
        config["tau_pp"],
        tmp_dir=config["tmp"],
        memory_budget_entries=config["mem_budget"],
        stats=stats,
    )
    elapsed = time.monotonic() - started
    out_prefix = Path(args.out) if args.out else Path(Path(args.query).stem)
    _write_results_tsv(Path(str(out_prefix) + ".results.tsv"), results)
    stats_lines = [f"query_id={query.protein_id}", f"tau_pp={config['tau_pp']!r}",
                   f"result_count={len(results)}", f"seconds={elapsed:.3f}"]
    stats_lines += [f"{k}={v}" for k, v in sorted(stats.items())]
    atomic_write_text(Path(str(out_prefix) + ".stats.txt"), "\n".join(stats_lines) + "\n")
    print(f"results={len(results)} file={out_prefix}.results.tsv")
    return 0


def cmd_add(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    db_dir = _db_dir(config)
    counters: dict[str, int] = {}
    with db_write_lock(db_dir):
        db = PatchDatabase.load(db_dir)
        db = preprocess.add_patches(
            db,
            _read_inputs(args, counters),
            memory_budget_entries=config["mem_budget"],
            tmp_dir=config["tmp"],
            counters=counters,
        )
        if args.compact:
            db = preprocess.compact(db)
        print(f"patches_added={counters.get('patches_indexed', 0)}")
        print(f"patches_excluded={counters.get('patches_excluded', 0)}")
        print(f"runs={len(db.grid.runs)}")
        print(f"total_entries={db.grid.total_entries}")
        print(f"mps={db.mps!r}")
    return 0


def _parse_results_file(path: Path, db: PatchDatabase, query_id: str) -> list[reliability.EvalPair]:
    key_of_patch = {meta.patch_id: meta.structure_key for meta in db.patch_meta.values()}
    source_of_patch = {meta.patch_id: meta.source_protein_id for meta in db.patch_meta.values()}
    pairs: list[reliability.EvalPair] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            patch_id, source_id, db_residue, q_residue, score = line.split("\t")
            structure_key = key_of_patch.get(patch_id)
            if structure_key is None:
                raise PatchGridError(f"{path}: patch {patch_id} not in database metadata")
            result = matcher.MatchResult(
                db_ref_id=RefId(structure_key, int(db_residue)),
                query_ref_id=RefId(0, int(q_residue)),
                score=float(score),
                patch_id=patch_id,
                source_protein_id=source_of_patch[patch_id],
            )
            pairs.append(reliability.EvalPair(query_id, result))
    return pairs


def _load_structure_dir(directory: Path, ids: set[str]) -> dict[str, Protein]:
    proteins: dict[str, Protein] = {}
    for entity_id in sorted(ids):
        for suffix in (".pdb", ".ent"):
            path = directory / f"{entity_id}{suffix}"
            if path.exists():
                with open(path, "r", encoding="utf-8") as fh:
                    proteins[entity_id] = parse_structure_file(fh, protein_id=entity_id)
                break
    return proteins


def _parse_tau_list(text: str | None, default: tuple[float, ...]) -> tuple[float, ...]:
    if not text:
        return default
    return tuple(float(v) for v in text.split(",") if v.strip())


def cmd_eval(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    db = PatchDatabase.load(_db_dir(config))
    with open(args.annotations, "r", encoding="utf-8") as fh:
        annotations = {a.entity_id: a for a in parse_keyword_file(fh)}

    pairs: list[reliability.EvalPair] = []
    query_ids: set[str] = set()
    for item in args.results:
        if "=" not in item:
            print(f"error: --results expects QUERY_ID=PATH, got {item!r}", file=sys.stderr)
            return 2
        query_id, path = item.split("=", 1)
        query_ids.add(query_id)
        pairs.extend(_parse_results_file(Path(path), db, query_id))

    # Only the structures the queries and their pairs name are parsed, each
    # once, though a query may also be a source.
    source_ids = {pair.result.source_protein_id for pair in pairs}
    proteins = _load_structure_dir(Path(args.structures), query_ids | source_ids)
    query_proteins = {pid: protein for pid, protein in proteins.items() if pid in query_ids}
    source_proteins = {pid: protein for pid, protein in proteins.items() if pid in source_ids}

    eval_config = reliability.EvalConfig(
        tau_pp_values=_parse_tau_list(args.tau_pp_list, reliability.DEFAULT_TAU_PP_VALUES),
        tau_prot_values=_parse_tau_list(args.tau_prot_list, reliability.DEFAULT_TAU_PROT_VALUES),
    )
    counters: dict[str, int] = {}
    report = reliability.sweep(
        pairs,
        eval_config,
        annotations,
        query_proteins,
        source_proteins,
        db,
        tmp_dir=config["tmp"],
        counters=counters,
    )
    out_path = Path(args.out) if args.out else Path("tp_report.tsv")
    atomic_write_text(out_path, report.to_tsv())
    print(f"rows={len(report.rows)} file={out_path}")
    for key, value in sorted(counters.items()):
        print(f"{key}={value}")
    return 0


def cmd_oracle_compare(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    mode = baseline.FrameMode(args.mode)
    if mode is baseline.FrameMode.AllTriples:
        rng = random.Random(args.seed)
        n = args.n_atoms
        protein = synthetic.random_protein(rng, "TRIPLES", max(1, n // 4), extra_atoms=(1, 3))
        atoms = protein.atoms[:n]
        started = time.monotonic()
        frames = baseline.naive_frames(atoms, mode, triple_cap=args.triple_cap)
        elapsed = time.monotonic() - started
        expected = len(atoms) * (len(atoms) - 1) * (len(atoms) - 2)
        print(f"atoms={len(atoms)} frames_enumerated={len(frames)} "
              f"ordered_triples={expected} skipped_collinear={expected - len(frames)}")
        print(f"enumeration_seconds={elapsed:.3f}")
        print("PASS" if len(frames) <= expected else "FAIL")
        return 0 if len(frames) <= expected else 1

    failures = 0
    engine_seconds = 0.0
    naive_seconds = 0.0
    engine_bytes = 0
    naive_entries = 0
    for i in range(args.instances):
        seed = args.seed + i
        instance = synthetic.planted_instance(
            seed,
            n_patches=args.n_patches,
            query_noise_residues=args.noise_residues,
            delta=config["delta"],
            bits_per_axis=config["bits_per_axis"],
        )
        with tempfile.TemporaryDirectory(prefix="oracle-", dir=config["tmp"]) as work:
            started = time.monotonic()
            db = preprocess.build_patch_database(
                instance.patches, instance.params, Path(work) / "db", tmp_dir=Path(work)
            )
            engine_results = matcher.match_query(
                instance.query, db, args.tau, tmp_dir=Path(work)
            )
            engine_seconds += time.monotonic() - started
            engine_bytes += sum(
                (db.grid.directory / r.file_name).stat().st_size for r in db.grid.runs
            )
            started = time.monotonic()
            naive_results = baseline.naive_match(
                instance.query, instance.patches, instance.params, mode, args.tau
            )
            naive_seconds += time.monotonic() - started
            naive_entries += db.grid.total_entries
        if engine_results != naive_results:
            failures += 1
            print(f"instance seed={seed}: MISMATCH "
                  f"(engine {len(engine_results)} pairs, naive {len(naive_results)} pairs)")
    print(f"instances={args.instances} failures={failures}")
    print(f"engine_seconds={engine_seconds:.3f} naive_seconds={naive_seconds:.3f}")
    print(f"engine_disk_bytes={engine_bytes} entries={naive_entries}")
    print("PASS" if failures == 0 else "FAIL")
    return 0 if failures == 0 else 1


def _add_shared(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add the named shared options, plus --tmp and --config, to a subcommand."""
    for name in (*names, "tmp"):
        cast, _, text = SHARED_OPTIONS[name]
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=cast, help=text)
    parser.add_argument("--config", help="flat key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchgrid",
        description="Index 3D substructure patches on disk and match whole structures against them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-db", help="build a patch database from structure/template files")
    p.add_argument("structures", nargs="*", help="structure files with ATOM/SITE records")
    p.add_argument("--templates", nargs="*", help="tabular template files")
    _add_shared(p, "delta", "bits_per_axis", "mem_budget", "db")
    p.set_defaults(func=cmd_build_db)

    p = sub.add_parser("query", help="match a query structure against a database")
    p.add_argument("query", help="query structure file")
    p.add_argument("--out", help="output prefix (default: query file stem)")
    _add_shared(p, "tau_pp", "mem_budget", "db")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("add", help="append patches to an existing database")
    p.add_argument("structures", nargs="*", help="structure files with ATOM/SITE records")
    p.add_argument("--templates", nargs="*", help="tabular template files")
    p.add_argument("--compact", action="store_true", help="merge all runs after adding")
    _add_shared(p, "mem_budget", "db")
    p.set_defaults(func=cmd_add)

    p = sub.add_parser("eval", help="keyword-recovery TP-rate sweep over match results")
    p.add_argument("--results", action="append", required=True,
                   metavar="QUERY_ID=PATH", help="per-query results TSV (repeatable)")
    p.add_argument("--annotations", required=True, help="keyword TSV file")
    p.add_argument("--structures", required=True,
                   help="directory of structure files named <id>.pdb")
    p.add_argument("--out", help="report path (default tp_report.tsv)")
    p.add_argument("--tau-pp-list", dest="tau_pp_list",
                   help="comma-separated tau_pp values (default 0.8,0.85,0.9,0.95)")
    p.add_argument("--tau-prot-list", dest="tau_prot_list",
                   help="comma-separated tau_prot values (default 0.1..1.0)")
    _add_shared(p, "db")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle-compare", help="diff the disk engine against the naive baseline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=5)
    p.add_argument("--mode", choices=[m.value for m in baseline.FrameMode],
                   default=baseline.FrameMode.PerResidue.value)
    p.add_argument("--tau", type=float, default=0.0, help="match threshold for the diff")
    p.add_argument("--n-patches", dest="n_patches", type=int, default=8)
    p.add_argument("--noise-residues", dest="noise_residues", type=int, default=6)
    p.add_argument("--n-atoms", dest="n_atoms", type=int, default=20,
                   help="atom count for all-triples enumeration")
    p.add_argument("--triple-cap", dest="triple_cap", type=int,
                   default=baseline.DEFAULT_TRIPLE_CAP)
    _add_shared(p, "delta", "bits_per_axis")
    p.set_defaults(func=cmd_oracle_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PatchGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
