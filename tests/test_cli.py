import os
import random
import socket
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import structure_text
from patchgrid import preprocess
from patchgrid.cli import db_write_lock, main, resolve_config
from patchgrid.preprocess import PatchDatabase
from patchgrid.synthetic import random_protein


@pytest.fixture()
def workspace(tmp_path):
    """Structure files with SITE records, a template file, and annotations."""
    rng = random.Random(123)
    files = {}
    proteins = {}
    for i in range(3):
        protein = random_protein(rng, f"SRC{i}", 4)
        proteins[protein.protein_id] = protein
        site_residues = [a for a in protein.atoms if a.residue_ordinal in (0, 1)]
        text = structure_text(protein, sites={"AC1": site_residues})
        path = tmp_path / f"SRC{i}.pdb"
        path.write_text(text)
        files[protein.protein_id] = path
    template = tmp_path / "templates.txt"
    template.write_text(
        "# synthetic templates\n"
        "TPL1 SER CA 30.0 0.0 0.0\nTPL1 SER N 31.5 0.0 0.0\nTPL1 SER C 30.0 1.5 0.0\n"
    )
    annotations = tmp_path / "keywords.tsv"
    annotations.write_text(
        "SRC0\tbinding\nSRC1\tbinding\nSRC2\tcatalysis\nTPL1\tcatalysis\n"
    )
    return tmp_path, files, template, annotations, proteins


def test_build_query_add_eval_round_trip(workspace, capsys):
    tmp_path, files, template, annotations, proteins = workspace
    db_dir = tmp_path / "db"

    rc = main([
        "build-db", str(files["SRC0"]), str(files["SRC1"]),
        "--templates", str(template),
        "--db", str(db_dir), "--delta", "1.0", "--tmp", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "structures=2" in out
    assert "patches_indexed=3" in out
    db = PatchDatabase.load(db_dir)
    assert db.patch_ids == {"SRC0_0", "SRC1_0", "TPL1"}

    # query the first source protein; its own site patch must score 1.0
    out_prefix = tmp_path / "q0"
    rc = main(["query", str(files["SRC0"]), "--db", str(db_dir),
               "--tau-pp", "1.0", "--out", str(out_prefix), "--tmp", str(tmp_path)])
    assert rc == 0
    results_text = (tmp_path / "q0.results.tsv").read_text().splitlines()
    assert results_text[0].startswith("#patch_id")
    rows = [line.split("\t") for line in results_text[1:]]
    assert any(row[0] == "SRC0_0" and float(row[4]) == 1.0 for row in rows)
    stats_text = (tmp_path / "q0.stats.txt").read_text()
    assert "query_id=SRC0" in stats_text
    assert "gp_cells_read=" in stats_text
    assert [line for line in stats_text.splitlines() if line.startswith("score_spills=")] == [
        "score_spills=0"
    ]
    assert [line for line in stats_text.splitlines() if line.startswith("hot_cells=")] == [
        "hot_cells=0"
    ]
    (score_rows,) = [line for line in stats_text.splitlines() if line.startswith("score_rows=")]
    assert int(score_rows.split("=")[1]) > 0

    # empty result is still exit 0
    far = random_protein(random.Random(999), "FARAWAY", 2)
    far_path = tmp_path / "FARAWAY.pdb"
    far_path.write_text(structure_text(far))
    rc = main(["query", str(far_path), "--db", str(db_dir), "--tau-pp", "1.0",
               "--out", str(tmp_path / "far"), "--tmp", str(tmp_path)])
    assert rc == 0

    # add the third structure, then compact
    rc = main(["add", str(files["SRC2"]), "--db", str(db_dir), "--tmp", str(tmp_path)])
    assert rc == 0
    assert len(PatchDatabase.load(db_dir).grid.runs) == 2
    rc = main(["add", str(files["SRC2"]), "--db", str(db_dir)])
    assert rc == 1  # duplicate patch id refused
    err = capsys.readouterr().err
    assert "SRC2_0" in err

    # query results equal before and after compaction
    rc = main(["query", str(files["SRC2"]), "--db", str(db_dir), "--tau-pp", "0.0",
               "--out", str(tmp_path / "pre"), "--tmp", str(tmp_path)])
    assert rc == 0
    rc = main(["add", "--db", str(db_dir), "--compact", "--templates"])
    assert rc == 1  # nothing to add
    # compact through a real add is covered in acceptance; compact alone via flag:
    from patchgrid.preprocess import compact

    db = compact(PatchDatabase.load(db_dir))
    assert len(db.grid.runs) == 1
    rc = main(["query", str(files["SRC2"]), "--db", str(db_dir), "--tau-pp", "0.0",
               "--out", str(tmp_path / "post"), "--tmp", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "pre.results.tsv").read_text() == (tmp_path / "post.results.tsv").read_text()

    # eval over two query result sets; its identity databases leave --tmp empty
    eval_tmp = tmp_path / "eval-tmp"
    eval_tmp.mkdir()
    rc = main([
        "eval",
        "--results", f"SRC0={tmp_path / 'q0.results.tsv'}",
        "--results", f"SRC2={tmp_path / 'pre.results.tsv'}",
        "--annotations", str(annotations),
        "--structures", str(tmp_path),
        "--db", str(db_dir),
        "--out", str(tmp_path / "tp.tsv"),
        "--tmp", str(eval_tmp),
    ])
    assert rc == 0
    lines = (tmp_path / "tp.tsv").read_text().splitlines()
    assert lines[0] == "tau_pp\ttau_prot\tD\tR\tTP\tpair_count"
    assert len(lines) == 1 + 40
    assert list(eval_tmp.iterdir()) == []

    # no temp litter left behind
    assert not list(tmp_path.rglob("*.tmp"))


def test_build_refuses_existing_db(workspace, capsys):
    tmp_path, files, template, annotations, proteins = workspace
    db_dir = tmp_path / "db"
    assert main(["build-db", str(files["SRC0"]), "--db", str(db_dir)]) == 0
    capsys.readouterr()
    # same params: suggests add
    assert main(["build-db", str(files["SRC1"]), "--db", str(db_dir)]) == 1
    assert "use 'add'" in capsys.readouterr().err
    # mismatched delta: refused with both values in the message
    assert main(["build-db", str(files["SRC1"]), "--db", str(db_dir), "--delta", "2.0"]) == 1
    err = capsys.readouterr().err
    assert "delta=1.0" in err and "delta=2.0" in err


@pytest.mark.parametrize("damage, message", [
    ("repeated z", "does not increase"),
    ("count past the end", "cut body"),
])
def test_query_on_damaged_run_exits_1(workspace, capsys, damage, message):
    # the run keeps the size the manifest lists, so only the scan finds the damage
    tmp_path, files, template, annotations, proteins = workspace
    db_dir = tmp_path / "db"
    assert main(["build-db", str(files["SRC0"]), "--db", str(db_dir)]) == 0
    db = PatchDatabase.load(db_dir)
    path = db.grid.run_path(db.grid.runs[0])
    blob = bytearray(path.read_bytes())
    offsets, at = [], 0
    while at < len(blob):
        offsets.append(at)
        at += 12 + 12 * struct.unpack_from("<I", blob, at + 8)[0]
    if damage == "repeated z":
        blob[offsets[1]:offsets[1] + 8] = blob[0:8]
    else:
        last = offsets[-1] + 8
        struct.pack_into("<I", blob, last, struct.unpack_from("<I", blob, last)[0] + 1)
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["query", str(files["SRC0"]), "--db", str(db_dir), "--out", str(tmp_path / "q")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_missing_input_file_fails(workspace, capsys):
    tmp_path, files, _, _, _ = workspace
    rc = main(["build-db", str(tmp_path / "nope.pdb"), "--db", str(tmp_path / "db2")])
    assert rc == 1
    assert "nope.pdb" in capsys.readouterr().err


def test_invalid_parameter_fails_cleanly(workspace, capsys):
    tmp_path, files, _, _, _ = workspace
    rc = main(["build-db", str(files["SRC0"]), "--db", str(tmp_path / "db2"),
               "--delta", "0"])
    assert rc == 2
    assert "delta" in capsys.readouterr().err


def test_binary_input_fails_cleanly(workspace, capsys):
    tmp_path, files, _, _, _ = workspace
    binary = tmp_path / "junk.pdb"
    binary.write_bytes(b"\xff\xfe\x00ATOM garbage\x80\x81")
    rc = main(["build-db", str(binary), "--db", str(tmp_path / "db2")])
    assert rc in (1, 2)
    assert capsys.readouterr().err.startswith("error:")


def test_lock_file_guards_writers(workspace, capsys):
    tmp_path, files, _, _, _ = workspace
    db_dir = tmp_path / "locked"
    lock = tmp_path / "locked.lock"
    lock.write_text("12345\n")
    rc = main(["build-db", str(files["SRC0"]), "--db", str(db_dir)])
    assert rc == 1
    assert "locked" in capsys.readouterr().err


def test_lock_file_names_pid_and_host(tmp_path):
    db_dir = tmp_path / "db"
    with db_write_lock(db_dir):
        text = (tmp_path / "db.lock").read_text()
    assert text == f"pid={os.getpid()}\nhost={socket.gethostname()}\n"
    assert not (tmp_path / "db.lock").exists()


def _dead_pid():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


@pytest.mark.parametrize("holder", ["alive", "dead", "other host"])
def test_lock_conflict_names_holder_and_keeps_lock(workspace, capsys, holder):
    tmp_path, files, _, _, _ = workspace
    pid = _dead_pid() if holder == "dead" else os.getpid()
    host = "elsewhere.invalid" if holder == "other host" else socket.gethostname()
    lock = tmp_path / "locked.lock"
    lock.write_text(f"pid={pid}\nhost={host}\n")
    rc = main(["build-db", str(files["SRC0"]), "--db", str(tmp_path / "locked")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"locked by pid {pid} on host {host}" in err
    if holder == "other host":
        assert "running" not in err  # a pid on another host is not checked
    else:
        assert {"alive": "which is running", "dead": "which is not running"}[holder] in err
    assert lock.read_text() == f"pid={pid}\nhost={host}\n"


def test_build_warns_before_replacing_leftover_staging(workspace, capsys):
    tmp_path, files, _, _, _ = workspace
    staging = tmp_path / "db.building"
    staging.mkdir()
    (staging / "manifest.tsv").write_text("torn")
    rc = main(["build-db", str(files["SRC0"]), "--db", str(tmp_path / "db")])
    assert rc == 0
    assert f"warning: removing {staging}" in capsys.readouterr().err
    assert not staging.exists()
    assert PatchDatabase.load(tmp_path / "db").patch_ids == {"SRC0_0"}


def test_oracle_compare_per_residue(capsys, tmp_path):
    rc = main(["oracle-compare", "--seed", "5", "--instances", "2",
               "--n-patches", "4", "--tmp", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert "failures=0" in out


def test_oracle_compare_keeps_temp_files_under_tmp(capsys, tmp_path, monkeypatch):
    # a build whose sort spills puts its chunks under --tmp, as the query does
    build = preprocess.build_patch_database
    builds = []
    monkeypatch.setattr(preprocess, "build_patch_database",
                        lambda *args, **kwargs: builds.append(kwargs) or build(*args, **kwargs))
    rc = main(["oracle-compare", "--seed", "5", "--instances", "2", "--n-patches", "4", "--tmp", str(tmp_path)])
    assert rc == 0 and "PASS" in capsys.readouterr().out
    assert len(builds) == 2
    assert all(kwargs["tmp_dir"].parent == tmp_path and kwargs["tmp_dir"].name.startswith("oracle-")
               for kwargs in builds)
    assert list(tmp_path.iterdir()) == []


def test_oracle_compare_all_triples(capsys, tmp_path):
    rc = main(["oracle-compare", "--mode", "all-triples", "--n-atoms", "20",
               "--tmp", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ordered_triples=6840" in out


def test_oracle_compare_cap_exceeded(capsys, tmp_path):
    rc = main(["oracle-compare", "--mode", "all-triples", "--n-atoms", "60",
               "--triple-cap", "50", "--tmp", str(tmp_path)])
    assert rc == 1
    assert "cap" in capsys.readouterr().err.lower()


def test_eval_missing_annotations(workspace, capsys):
    tmp_path, files, template, annotations, proteins = workspace
    db_dir = tmp_path / "db3"
    assert main(["build-db", str(files["SRC0"]), "--db", str(db_dir)]) == 0
    rc = main(["eval", "--results", "X=does_not_exist.tsv",
               "--annotations", str(tmp_path / "missing.tsv"),
               "--structures", str(tmp_path), "--db", str(db_dir)])
    assert rc == 1


class _Args:
    def __init__(self, **kw):
        self.config = kw.pop("config", None)
        for key in ("delta", "bits_per_axis", "tau_pp", "mem_budget", "db", "tmp"):
            setattr(self, key, kw.get(key))


def test_config_precedence(tmp_path, monkeypatch):
    config_file = tmp_path / "cfg"
    config_file.write_text("delta=3.0\ntau_pp=0.8\n# comment\n")
    monkeypatch.setenv("PATCHGRID_DELTA", "2.0")
    resolved = resolve_config(_Args(config=str(config_file), delta=4.0))
    assert resolved["delta"] == 4.0            # flag beats env and file
    resolved = resolve_config(_Args(config=str(config_file)))
    assert resolved["delta"] == 2.0            # env beats file
    assert resolved["tau_pp"] == 0.8           # file beats default
    monkeypatch.delenv("PATCHGRID_DELTA")
    resolved = resolve_config(_Args(config=str(config_file)))
    assert resolved["delta"] == 3.0            # file value
    resolved = resolve_config(_Args())
    assert resolved["delta"] == 1.0            # default
    assert resolved["bits_per_axis"] == 21
    assert "tau_prot" not in resolved


@pytest.mark.parametrize("argv", [
    ["build-db", "--db", "db", "--tau-pp", "0.5"],
    ["query", "q.pdb", "--db", "db", "--delta", "2.0"],
    ["query", "q.pdb", "--db", "db", "--bits-per-axis", "10"],
    ["add", "--db", "db", "--delta", "2.0"],
    ["add", "--db", "db", "--tau-pp", "0.5"],
    ["eval", "--results", "Q=r.tsv", "--annotations", "k.tsv", "--structures", ".",
     "--mem-budget", "10"],
    ["oracle-compare", "--db", "db"],
    ["oracle-compare", "--mem-budget", "10"],
])
def test_options_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_zero_memory_budget_exits_2(workspace, capsys):
    tmp_path, files, _, _, _ = workspace
    rc = main(["build-db", str(files["SRC0"]), "--db", str(tmp_path / "db2"), "--mem-budget", "0"])
    assert rc == 2
    assert "memory budget" in capsys.readouterr().err


@pytest.mark.parametrize("flags, status, message", [
    (["--mem-budget", "0"], 2, "memory budget"),
    (["--bits-per-axis", "2", "--delta", "0.5"], 1, "quantizes outside the grid extent"),
], ids=["memory budget", "out of extent"])
def test_failed_build_leaves_nothing_behind(workspace, capsys, flags, status, message):
    tmp_path, files, _, _, _ = workspace
    db_dir = tmp_path / "dbz"
    assert main(["build-db", str(files["SRC0"]), "--db", str(db_dir), *flags]) == status
    assert message in capsys.readouterr().err
    left = [path for path in (db_dir, tmp_path / "dbz.building", tmp_path / "dbz.lock") if path.exists()]
    assert left == []
    assert main(["build-db", str(files["SRC0"]), "--db", str(db_dir)]) == 0
    assert "warning" not in capsys.readouterr().err
    assert PatchDatabase.load(db_dir).patch_ids == {"SRC0_0"}


def run_module(*argv, cwd):
    """Run ``python -m patchgrid`` with this checkout's src/ on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "patchgrid", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_entry_point_oracle_compare_passes(tmp_path):
    done = run_module("oracle-compare", "--instances", "1", cwd=tmp_path)
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "PASS"


def test_entry_point_query_without_db_exits_2(workspace):
    tmp_path, files, _, _, _ = workspace
    done = run_module("query", str(files["SRC0"]), cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr == "error: --db is required\n"


def test_entry_point_build_without_inputs_exits_1(tmp_path):
    done = run_module("build-db", "--db", "D", cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr == "error: no patches extracted from the inputs\n"
    assert not (tmp_path / "D").exists() and not (tmp_path / "D.lock").exists()


def test_no_atom_record_is_built_on_the_build_add_and_query_path(workspace, monkeypatch, capsys):
    # atoms stay columns from the parser to the index and the query grid
    from patchgrid import geometry

    tmp_path, files, template, _, _ = workspace
    built = []
    new = geometry.AtomRecord.__new__
    monkeypatch.setattr(geometry.AtomRecord, "__new__", lambda cls, *a, **k: built.append(1) or new(cls, *a, **k))
    db_dir = str(tmp_path / "db")
    assert main(["build-db", str(files["SRC0"]), "--templates", str(template), "--db", db_dir]) == 0
    assert main(["add", str(files["SRC1"]), "--db", db_dir, "--compact"]) == 0
    assert main(["query", str(files["SRC2"]), "--db", db_dir, "--tau-pp", "0.5",
                 "--out", str(tmp_path / "q")]) == 0
    capsys.readouterr()
    assert built == []
    assert geometry.AtomRecord(0, "C", "CA", 0, "ALA", geometry.Point3(0, 0, 0)) and built == [1]
