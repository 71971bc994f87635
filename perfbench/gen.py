"""Seeded input generators for the patchgrid benchmark.

Every input of every workload is derived from one integer seed, so the same
seed always gives the same inputs. patchgrid sees only the generated values
and files, never the seed.
"""

from __future__ import annotations

import math
import random

from patchgrid import synthetic
from patchgrid.geometry import AtomRecord
from patchgrid.ingest import Patch, Protein

# ROADMAP's workload "M": 1,500 random patches from seed 1, 2-5 residues and
# 3-8 extra atoms per residue (44,684 atoms, 172,569 entries, mps 17.15 A).
M_SEED = 1
M_PATCHES = 1500
PATCH_RESIDUES = (2, 5)
EXTRA_ATOMS = (3, 8)

# query-M's query: one size for every seed, and every operation runs the same
# query, so the work per operation does not depend on the seed or on how fast
# the matcher is; the seed only changes the structures. At this size the score table spills at the
# default 1,000,000-pair budget.
QUERY_RESIDUES = 225
PLANTED_COPIES = 2

# build-L: 25 site clusters per structure with the same size distribution as
# M's patches, so 240 structures give ~6,000 patches (~4x M) and the second
# batch of 60 structures adds 25% more patches.
SITES_PER_STRUCTURE = 25
BACKGROUND_RESIDUES = 25
BUILD_STRUCTURES = 240
ADD_STRUCTURES = 60
CLUSTER_SPACING = 25.0


def m_patches() -> list[Patch]:
    """The fixed M database patches."""
    rng = random.Random(M_SEED)
    return [
        synthetic.random_patch(
            rng, f"M{i:04d}_0", f"M{i:04d}", rng.randint(*PATCH_RESIDUES), extra_atoms=EXTRA_ATOMS
        )
        for i in range(M_PATCHES)
    ]


def planted_query(seed: int, patches: list[Patch]) -> Protein:
    """A background protein of QUERY_RESIDUES residues holding PLANTED_COPIES
    rigidly moved copies of database patches (true score-1.0 hits)."""
    rng = random.Random(f"query-M/{seed}")
    background = synthetic.random_protein(rng, f"Q{seed}", QUERY_RESIDUES, extra_atoms=EXTRA_ATOMS)
    atoms = list(background.atoms)
    next_residue = QUERY_RESIDUES
    for patch in rng.sample(patches, PLANTED_COPIES):
        rotation, translation = synthetic.rigid_motion(rng)
        residue_map: dict[int, int] = {}
        for atom in synthetic.move_atoms(patch.atoms, rotation, translation):
            ordinal = residue_map.setdefault(atom.residue_ordinal, next_residue + len(residue_map))
            atoms.append(
                AtomRecord(
                    atom_ordinal=len(atoms),
                    element=atom.element,
                    atom_name=atom.atom_name,
                    residue_ordinal=ordinal,
                    residue_name=atom.residue_name,
                    position=atom.position,
                    chain_id="A",
                    residue_seq=ordinal + 1,
                )
            )
        next_residue += len(residue_map)
    return Protein(protein_id=background.protein_id, atoms=tuple(atoms))


# ---------------------------------------------------------------------------
# Fixed-width structure text (README column layout)


def _atom_line(serial: int, atom: AtomRecord, residue_seq: int, offset) -> str:
    x, y, z = atom.position
    return (
        f"ATOM  {serial:>5} {atom.atom_name:<4} {atom.residue_name:>3} A{residue_seq:>4}    "
        f"{x + offset[0]:8.3f}{y + offset[1]:8.3f}{z + offset[2]:8.3f}{1.0:6.2f}{0.0:6.2f}"
        f"          {atom.element:>2}\n"
    )


def _site_lines(site_id: str, residues: list[tuple[str, int]]) -> list[str]:
    lines = []
    for block in range(0, len(residues), 4):
        slots = "".join(f"{name:>3} A{seq:>4}  " for name, seq in residues[block : block + 4])
        lines.append(f"SITE   {block // 4 + 1:>3} {site_id:>3} {len(residues):>2} {slots}".rstrip() + "\n")
    return lines


def structure_text(rng: random.Random, protein_id: str) -> str:
    """One structure: SITE-annotated clusters of 2-5 nearby residues laid out
    on a grid, plus unannotated background residues. One site repeats an
    earlier site's residue list, so dedup has a duplicate to collapse."""
    residues: list[tuple[list[AtomRecord], tuple[float, float, float]]] = []
    sites: list[list[int]] = []
    side = math.isqrt(SITES_PER_STRUCTURE - 1) + 1
    for k in range(SITES_PER_STRUCTURE):
        cluster = synthetic.random_protein(
            rng, protein_id, rng.randint(*PATCH_RESIDUES), EXTRA_ATOMS, spacing=3.0
        )
        offset = ((k % side) * CLUSTER_SPACING, (k // side) * CLUSTER_SPACING, 0.0)
        by_residue: dict[int, list[AtomRecord]] = {}
        for atom in cluster.atoms:
            by_residue.setdefault(atom.residue_ordinal, []).append(atom)
        sites.append(list(range(len(residues), len(residues) + len(by_residue))))
        residues.extend((atoms, offset) for atoms in by_residue.values())
    extent = side * CLUSTER_SPACING
    for _ in range(BACKGROUND_RESIDUES):
        background = synthetic.random_protein(rng, protein_id, 1, EXTRA_ATOMS)
        residues.append((list(background.atoms), tuple(rng.uniform(0.0, extent) for _ in range(3))))
    sites.append(list(sites[rng.randrange(SITES_PER_STRUCTURE)]))

    lines: list[str] = []
    for k, members in enumerate(sites):
        lines.extend(_site_lines(f"S{k:02d}", [(residues[r][0][0].residue_name, r + 1) for r in members]))
    serial = 0
    for r, (atoms, offset) in enumerate(residues):
        for atom in atoms:
            serial += 1
            lines.append(_atom_line(serial, atom, r + 1, offset))
    lines.append("END\n")
    return "".join(lines)


def build_l_texts(seed: int) -> tuple[dict[str, str], dict[str, str]]:
    """build-L's two batches as {file stem: structure text}: the batch that
    is built and the 25% batch that is added afterwards."""
    rng = random.Random(f"build-L/{seed}")
    build = {f"B{seed}_{i:03d}": "" for i in range(BUILD_STRUCTURES)}
    add = {f"A{seed}_{i:03d}": "" for i in range(ADD_STRUCTURES)}
    for batch in (build, add):
        for stem in batch:
            batch[stem] = structure_text(rng, stem)
    return build, add


def small_instance_seeds(seed: int):
    """Endless stream of synthetic.planted_instance seeds for small-S."""
    rng = random.Random(f"small-S/{seed}")
    while True:
        yield rng.getrandbits(48)
