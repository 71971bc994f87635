"""Seeded synthetic structures for oracle comparison and acceptance runs.

Two families of inputs are generated here:

* fully random proteins/patches (``random_protein``, ``planted_instance``)
  for engine-vs-baseline equivalence, where any geometry is fair game
  because both paths share the same floats; and

* lattice-aligned patches (``lattice_patch``, ``lattice_query``) whose
  frame coordinates sit either exactly on cell boundaries (anchor zeros,
  which the quantizer snaps) or half a cell away from them. Matches against
  such patches are stable under arbitrary rigid motion of the query, which
  is what the pose-invariance checks require.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Atoms, point_norms, transform_points
from .grid import BOUNDARY_SNAP, GridParams
from .ingest import OriginTag, Patch, Protein, _first_appearance_ordinals
from .preprocess import residue_frames

_RESIDUE_NAMES = ("ALA", "GLY", "SER", "LEU", "VAL", "THR", "ASP", "LYS")
_EXTRA_ATOM_NAMES = ("O", "CB", "CG", "CD", "OG", "NZ", "SD", "CE", "OD1", "ND2")


def random_rotation(rng: random.Random) -> np.ndarray:
    """Uniformly random rotation matrix (det +1) from a random quaternion."""
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    w = math.sqrt(1 - u1) * math.sin(2 * math.pi * u2)
    x = math.sqrt(1 - u1) * math.cos(2 * math.pi * u2)
    y = math.sqrt(u1) * math.sin(2 * math.pi * u3)
    z = math.sqrt(u1) * math.cos(2 * math.pi * u3)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def rigid_motion(rng: random.Random, max_translation: float = 50.0) -> tuple[np.ndarray, np.ndarray]:
    rotation = random_rotation(rng)
    translation = np.array([rng.uniform(-max_translation, max_translation) for _ in range(3)])
    return rotation, translation


def move_atoms(atoms: Atoms, rotation: np.ndarray, translation: np.ndarray) -> Atoms:
    return atoms.replace(positions=atoms.positions @ rotation.T + translation)


def move_protein(protein: Protein, rotation: np.ndarray, translation: np.ndarray,
                 new_id: str | None = None) -> Protein:
    return Protein(
        protein_id=new_id or protein.protein_id,
        atoms=move_atoms(protein.atoms, rotation, translation),
        insertion_codes=protein.insertion_codes,
    )


def _random_direction(rng: random.Random) -> np.ndarray:
    while True:
        v = np.array([rng.gauss(0, 1) for _ in range(3)])
        n = float(v @ v)
        if n > 1e-6:
            return v / math.sqrt(n)


# One residue as columns: residue name, then the atom names, elements and
# (k, 3) positions of its atoms.
Residue = tuple[str, list[str], list[str], np.ndarray]


def random_residue(rng: random.Random, center: np.ndarray, n_extra_atoms: int) -> Residue:
    """One residue with well-separated, non-collinear CA/N/C anchors plus
    ``n_extra_atoms`` atoms scattered within ~2.5 A of the CA."""
    residue_name = rng.choice(_RESIDUE_NAMES)
    u = _random_direction(rng)
    # Second anchor direction kept 35..145 degrees away from the first.
    while True:
        v = _random_direction(rng)
        cosang = float(u @ v)
        if abs(cosang) < 0.82:
            break
    anchors = [center, center + rng.uniform(1.3, 1.6) * u, center + rng.uniform(1.3, 1.6) * v]
    offsets = np.array([[rng.uniform(-2.5, 2.5) for _ in range(3)] for _ in range(n_extra_atoms)])
    names = ["CA", "N", "C"] + [_EXTRA_ATOM_NAMES[i % len(_EXTRA_ATOM_NAMES)] for i in range(n_extra_atoms)]
    elements = ["C", "N", "C"] + ["C"] * n_extra_atoms
    return residue_name, names, elements, np.concatenate((anchors, center + offsets.reshape(-1, 3)))


def residues_to_atoms(residues: Sequence[Residue], chain_id: str = "A", first_residue: int = 0) -> Atoms:
    """Consecutive residues as one Atoms: residue k gets ordinal
    ``first_residue + k`` and sequence number one more; atoms are numbered
    from 0."""
    counts = [len(names) for _, names, _, _ in residues]
    ordinals = np.repeat(np.arange(first_residue, first_residue + len(residues)), counts)
    return Atoms(
        positions=np.concatenate([positions for *_, positions in residues]) if residues else [],
        atom_ordinals=np.arange(len(ordinals)),
        residue_ordinals=ordinals,
        residue_seqs=ordinals + 1,
        atom_names=[name for _, names, _, _ in residues for name in names],
        residue_names=[r[0] for r, count in zip(residues, counts) for _ in range(count)],
        elements=[element for _, _, elements, _ in residues for element in elements],
        chain_ids=[chain_id] * len(ordinals),
    )


def random_protein(
    rng: random.Random,
    protein_id: str,
    n_residues: int,
    extra_atoms: tuple[int, int] = (1, 5),
    spacing: float = 4.0,
) -> Protein:
    residues = []
    span = max(10.0, spacing * n_residues ** (1 / 3) * 2.0)
    for _ in range(n_residues):
        center = np.array([rng.uniform(0, span) for _ in range(3)])
        residues.append(random_residue(rng, center, rng.randint(*extra_atoms)))
    return Protein(protein_id=protein_id, atoms=residues_to_atoms(residues))


def random_patch(
    rng: random.Random,
    patch_id: str,
    source_protein_id: str,
    n_residues: int,
    extra_atoms: tuple[int, int] = (1, 5),
) -> Patch:
    protein = random_protein(rng, source_protein_id, n_residues, extra_atoms, spacing=3.0)
    return Patch(
        patch_id=patch_id,
        source_protein_id=source_protein_id,
        atoms=protein.atoms,
        origin_tag=OriginTag.SiteRecord,
    )


def _plant(parts: list[Atoms], moved: Atoms, residue_base: int) -> int:
    """Append moved patch atoms to the chain-Q query ``parts``, numbering
    residues on from ``residue_base`` in order of first appearance; returns
    the next free residue ordinal. Atoms are numbered when the parts are
    joined."""
    ordinals = residue_base + _first_appearance_ordinals(moved.residue_ordinals)[0]
    parts.append(moved.replace(residue_ordinals=ordinals, residue_seqs=ordinals + 1, chain_ids=["Q"] * len(moved)))
    return int(ordinals.max(initial=residue_base - 1)) + 1


def _joined(parts: list[Atoms]) -> Atoms:
    atoms = Atoms.concat(parts)
    return atoms.replace(atom_ordinals=np.arange(len(atoms)))


@dataclass
class SyntheticInstance:
    params: GridParams
    patches: list[Patch]
    query: Protein
    planted_patch_ids: list[str]


def planted_instance(
    seed: int,
    n_patches: int = 8,
    patch_residues: tuple[int, int] = (1, 3),
    extra_atoms: tuple[int, int] = (1, 5),
    query_noise_residues: int = 6,
    n_planted: int | None = None,
    delta: float = 1.0,
    bits_per_axis: int = 21,
) -> SyntheticInstance:
    """A random database plus a query containing rigidly moved copies of a
    subset of the patches, padded with unrelated noise residues."""
    rng = random.Random(seed)
    params = GridParams(delta=delta, bits_per_axis=bits_per_axis)
    patches = [
        random_patch(
            rng,
            patch_id=f"P{idx:03d}_0",
            source_protein_id=f"P{idx:03d}",
            n_residues=rng.randint(*patch_residues),
            extra_atoms=extra_atoms,
        )
        for idx in range(n_patches)
    ]
    if n_planted is None:
        n_planted = rng.randint(1, max(1, n_patches // 2))
    planted = rng.sample(patches, k=min(n_planted, len(patches)))

    parts: list[Atoms] = []
    residue_base = 0
    for patch in planted:
        rotation, translation = rigid_motion(rng)
        residue_base = _plant(parts, move_atoms(patch.atoms, rotation, translation), residue_base)
    noise = []
    for _ in range(query_noise_residues):
        center = np.array([rng.uniform(-80, 80) for _ in range(3)])
        noise.append(random_residue(rng, center, rng.randint(*extra_atoms)))
    parts.append(residues_to_atoms(noise, chain_id="Q", first_residue=residue_base))
    query = Protein(protein_id=f"QRY{seed}", atoms=_joined(parts))
    return SyntheticInstance(
        params=params,
        patches=patches,
        query=query,
        planted_patch_ids=[p.patch_id for p in planted],
    )


# ---------------------------------------------------------------------------
# Lattice-aligned construction for pose-invariance checks


_MAX_CELL = 3


def _half_cell(k: int, delta: float) -> float:
    # Odd multiple of delta/2: the midpoint of cell k.
    return (k + 0.5) * delta


def lattice_patch(
    patch_id: str,
    source_protein_id: str,
    delta: float,
    rng: random.Random,
    n_extra_atoms: int = 4,
    radius_bump: float = 0.0,
) -> Patch:
    """Single-residue patch whose own frame coordinates are all either exact
    anchor zeros or cell midpoints, so matches survive any rigid motion.
    Extra atoms sit in distinct cells at most ``_MAX_CELL`` cells from the
    origin on each axis.

    Built directly in the frame's canonical pose: CA at the origin, N on the
    first axis, C in the first/second-axis plane. ``radius_bump`` adds one
    far atom, letting one patch dominate the database mps.
    """
    coords: list[tuple[str, float, float, float]] = [
        ("CA", 0.0, 0.0, 0.0),
        ("N", _half_cell(1, delta), 0.0, 0.0),
        ("C", _half_cell(0, delta), _half_cell(2, delta), 0.0),
    ]
    used = {(0, 0, 0), (1, 0, 0), (0, 2, 0)}
    for i in range(n_extra_atoms):
        while True:
            cell = (
                rng.randint(-_MAX_CELL, _MAX_CELL),
                rng.randint(-_MAX_CELL, _MAX_CELL),
                rng.randint(-_MAX_CELL, _MAX_CELL),
            )
            if cell not in used:
                used.add(cell)
                break
        coords.append(
            (
                _EXTRA_ATOM_NAMES[i % len(_EXTRA_ATOM_NAMES)],
                _half_cell(cell[0], delta),
                _half_cell(cell[1], delta),
                _half_cell(cell[2], delta),
            )
        )
    if radius_bump > 0:
        k = int(math.ceil(radius_bump / delta)) + _MAX_CELL + 2
        coords.append(("SD", _half_cell(k, delta), _half_cell(0, delta), _half_cell(0, delta)))
    names = [name for name, *_ in coords]
    atoms = residues_to_atoms(
        [("GLY", names, [name[:1] for name in names], [xyz for _, *xyz in coords])]
    )
    return Patch(
        patch_id=patch_id,
        source_protein_id=source_protein_id,
        atoms=atoms,
        origin_tag=OriginTag.SiteRecord,
    )


def lattice_query(
    patches: Sequence[Patch],
    rng: random.Random,
    separation: float,
) -> Protein:
    """A query "LATQ" containing one rigidly moved copy of each patch, spaced
    far enough apart that cross-frame coordinates exceed any realistic mps."""
    parts: list[Atoms] = []
    residue_base = 0
    for i, patch in enumerate(patches):
        rotation = random_rotation(rng)
        translation = np.array([(i + 1) * separation, 0.0, 0.0])
        residue_base = _plant(parts, move_atoms(patch.atoms, rotation, translation), residue_base)
    return Protein(protein_id="LATQ", atoms=_joined(parts))


def margin_violations(
    protein: Protein,
    params: GridParams,
    mps: float,
) -> int:
    """Count query entries whose frame coordinates sit in the quantization
    dead zone (farther than the snap width but closer than 0.1 * delta to a
    cell boundary) or hug the mps clip sphere. Zero means the
    query's matches are stable under rigid motion."""
    violations = 0
    frames = residue_frames(protein.atoms)
    points = protein.atoms.positions
    clip_eps = 1e-6
    for _, frame in frames:
        coords = transform_points(frame, points)
        radii = point_norms(coords)
        violations += int(((np.abs(radii - mps) < clip_eps) & (radii > 0)).sum())
        surviving = coords[radii <= mps]
        if not len(surviving):
            continue
        q = surviving / params.delta
        dist = np.abs(surviving - np.rint(q) * params.delta)
        bad = (dist > BOUNDARY_SNAP) & (dist < 0.1 * params.delta)
        violations += int(bad.any(axis=1).sum())
    return violations
