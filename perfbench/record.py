"""Record the result digests that run.py checks against, into digests-<workload>.json.

    python3 perfbench/record.py --workload query-M --seeds 0-23

A query-M digest is the sha256 of the naive oracle's results (per-residue
mode) for the seed's query, rendered as the CLI's results TSV. A build-L
digest is the sha256 of the compacted run file after build, add and compact;
it is stored only if a from-scratch build of both batches gives the same
bytes.
Seeds without a stored digest are still checked by run.py, just more slowly.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run


def record(workload: str, seed: int, work) -> object:
    if workload == "query-M":
        q = run.QueryM(seed, work)
        q.generate_query()
        return q.oracle_digest()
    wl = run.BuildL(seed, work)
    wl.set_up()
    wl.op(0)
    union = wl.union_digest()
    if wl.digests[0] != union:
        raise SystemExit(f"seed {seed}: build+add+compact gives {wl.digests[0]}, "
                         f"a from-scratch build gives {union}")
    return union


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("query-M", "build-L"), required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-23")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    run._import_patchgrid()
    run.WORK_ROOT.mkdir(exist_ok=True)
    for seed in range(int(first), int(last or first) + 1):
        work = run.Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK_ROOT))
        tempfile.tempdir = str(work)
        try:
            value = record(args.workload, seed, work)
        finally:
            tempfile.tempdir = None
            shutil.rmtree(work, ignore_errors=True)
        digests = run.stored_digests(args.workload)
        digests[str(seed)] = value
        run.digests_path(args.workload).write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"{args.workload} seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
