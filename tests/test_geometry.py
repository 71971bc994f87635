import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_norms
from patchgrid.geometry import (
    COLLINEARITY_TOL,
    MIN_SEPARATION,
    AtomRecord,
    Atoms,
    Point3,
    RigidFrame,
    frame_from_triple,
    point_norms,
    transform_frames,
    transform_points,
)


def one_frame(a, b, c):
    """The frame of one triple from a one-row ``frame_from_triple`` call, or
    None where the kernel marks the triple invalid."""
    origins, bases, valid = frame_from_triple(a, b, c)
    return RigidFrame(origins[0], bases[0]) if valid[0] else None


def in_frame(frame, p):
    """Point ``p`` expressed in ``frame``."""
    return transform_points(frame, np.reshape(p, (1, 3)))[0]


def gram_schmidt_oracle(a, b, c):
    """Independent construction: orthonormalize (b-a, c-a) classically."""
    a, b, c = (np.asarray(p, dtype=float) for p in (a, b, c))
    v1, v2 = b - a, c - a
    e1 = v1 / np.linalg.norm(v1)
    u2 = v2 - (v2 @ e1) * e1
    e2 = u2 / np.linalg.norm(u2)
    e3 = np.cross(e1, e2)
    return a, np.array([e1, e2, e3])


def random_nondegenerate_triple(rng, scale=10.0, min_measure=1e-3):
    while True:
        a, b, c = (np.array([rng.uniform(-scale, scale) for _ in range(3)]) for _ in range(3))
        v1, v2 = b - a, c - a
        n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
        if n1 < 0.5 or n2 < 0.5 or np.linalg.norm(c - b) < 0.5:
            continue
        if np.linalg.norm(np.cross(v1, v2)) / (n1 * n2) > min_measure:
            return a, b, c


def random_rotation(rng):
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


def test_axis_aligned_triple_gives_identity_frame():
    frame = one_frame((0, 0, 0), (2, 0, 0), (0, 3, 0))
    assert np.array_equal(frame.origin, np.zeros(3))
    assert np.array_equal(frame.basis, np.eye(3))
    # cross-checked against the independent Gram-Schmidt construction
    _, oracle_basis = gram_schmidt_oracle((0, 0, 0), (2, 0, 0), (0, 3, 0))
    assert np.allclose(frame.basis, oracle_basis, atol=1e-12)


def test_coincident_anchors_rejected():
    _, _, valid = frame_from_triple((1, 1, 1), (1, 1, 1), (1, 1, 1))
    assert valid.tolist() == [False]


def test_exactly_collinear_anchors_rejected():
    _, _, valid = frame_from_triple((0, 0, 0), (1, 0, 0), (2, 0, 0))
    assert valid.tolist() == [False]


def test_matches_gram_schmidt_on_random_triples():
    rng = random.Random(11)
    for _ in range(500):
        a, b, c = random_nondegenerate_triple(rng)
        frame = one_frame(a, b, c)
        origin, oracle_basis = gram_schmidt_oracle(a, b, c)
        assert np.allclose(frame.origin, origin, atol=0)
        assert np.allclose(frame.basis, oracle_basis, atol=1e-10)


def test_orthonormal_and_right_handed_over_many_triples():
    rng = random.Random(5)
    for _ in range(10_000):
        a, b, c = random_nondegenerate_triple(rng, min_measure=1e-6)
        frame = one_frame(a, b, c)
        gram = frame.basis @ frame.basis.T
        assert np.abs(gram - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(frame.basis) - 1.0) < 1e-9


def test_origin_maps_to_zero():
    frame = one_frame((1, 2, 3), (4, 2, 3), (1, 7, 3))
    assert in_frame(frame, frame.origin).tolist() == [0.0, 0.0, 0.0]


def test_identity_frame_is_identity_transform():
    frame = one_frame((0, 0, 0), (2, 0, 0), (0, 3, 0))
    assert in_frame(frame, (1, 2, 3)).tolist() == [1.0, 2.0, 3.0]


def test_translated_frame_example():
    # translate-then-rotate by hand: frame axes are global axes shifted to (5,0,0)
    frame = one_frame((5, 0, 0), (7, 0, 0), (5, 3, 0))
    q = in_frame(frame, (6, 1, 0))
    assert q.tolist() == [1.0, 1.0, 0.0]
    assert np.allclose(frame.origin + frame.basis.T @ q, (6, 1, 0), atol=1e-12)


def test_round_trip_inverse():
    # the inverse of p -> basis @ (p - origin) is q -> origin + basis^T @ q
    rng = random.Random(23)
    for _ in range(300):
        a, b, c = random_nondegenerate_triple(rng)
        frame = one_frame(a, b, c)
        p = np.array([rng.uniform(-20, 20) for _ in range(3)])
        back = frame.origin + frame.basis.T @ in_frame(frame, p)
        assert np.linalg.norm(back - p) < 1e-9


def test_rigid_motion_invariance():
    rng = random.Random(37)
    for _ in range(2000):
        a, b, c = random_nondegenerate_triple(rng)
        p = np.array([rng.uniform(-20, 20) for _ in range(3)])
        rotation = random_rotation(rng)
        translation = np.array([rng.uniform(-50, 50) for _ in range(3)])
        frame = one_frame(a, b, c)
        moved = one_frame(
            rotation @ a + translation, rotation @ b + translation, rotation @ c + translation
        )
        q = in_frame(frame, p)
        q_moved = in_frame(moved, rotation @ p + translation)
        assert max(abs(q[i] - q_moved[i]) for i in range(3)) < 1e-6


def test_transform_points_matches_scalar():
    rng = random.Random(3)
    a, b, c = random_nondegenerate_triple(rng)
    frame = one_frame(a, b, c)
    points = np.array([[rng.uniform(-15, 15) for _ in range(3)] for _ in range(40)])
    batch = transform_points(frame, points)
    for row, p in zip(batch, points):
        assert np.allclose(row, frame.basis @ (p - frame.origin), atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.floats(-100, 100) for _ in range(9)]),
)
# a and c nearly coincide: the invalid row's e3 norm underflows to 0, so e3
# is infinite and e2 = e3 x e1 meets inf * 0, which must not warn
@example(coords=(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.175798536210342e-193, 0.0, 0.0))
def test_frame_never_returns_bad_basis(coords):
    frame = one_frame(coords[0:3], coords[3:6], coords[6:9])
    if frame is None:
        return
    gram = frame.basis @ frame.basis.T
    assert np.abs(gram - np.eye(3)).max() < 1e-9
    assert abs(np.linalg.det(frame.basis) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# batched frames


def scalar_frame_oracle(a, b, c):
    """The one-triple frame construction the batched kernel replaced:
    (origin, basis), or None for a collinear or coincident triple."""
    a, b, c = (np.asarray(p, dtype=np.float64) for p in (a, b, c))
    v1 = b - a
    v2 = c - a
    d_ab = math.sqrt(float(v1 @ v1))
    d_ac = math.sqrt(float(v2 @ v2))
    v_bc = c - b
    d_bc = math.sqrt(float(v_bc @ v_bc))
    if d_ab < MIN_SEPARATION or d_ac < MIN_SEPARATION or d_bc < MIN_SEPARATION:
        return None
    cr = np.cross(v1, v2)
    if math.sqrt(float(cr @ cr)) / (d_ab * d_ac) < COLLINEARITY_TOL:
        return None
    e1 = v1 / d_ab
    e3 = np.cross(e1, v2)
    e3 = e3 / math.sqrt(float(e3 @ e3))
    e2 = np.cross(e3, e1)
    return a, np.array([e1, e2, e3])


def assert_kernel_equals_oracle(a, b, c):
    origins, bases, valid = frame_from_triple(a, b, c)
    assert origins.shape == (len(a), 3) and bases.shape == (len(a), 3, 3)
    for i in range(len(a)):
        expected = scalar_frame_oracle(a[i], b[i], c[i])
        assert bool(valid[i]) == (expected is not None), i
        if expected is not None:
            assert np.array_equal(origins[i], expected[0]), i
            assert np.array_equal(bases[i], expected[1]), i
    return valid


def test_frames_from_triples_bit_equal_on_random_and_degenerate_triples():
    rng = np.random.default_rng(17)
    n = 3000
    a = rng.uniform(-50, 50, (n, 3)).round(3)
    b = a + rng.normal(0, 1.5, (n, 3)).round(3)
    c = a + rng.normal(0, 1.5, (n, 3)).round(3)
    rows = rng.permutation(n)[:400]
    for k, i in enumerate(rows):
        kind = k % 8
        if kind == 0:
            b[i] = a[i]                                   # coincident anchors
        elif kind == 1:
            c[i] = b[i]
        elif kind == 2:
            c[i] = a[i] + 1e-9                            # closer than MIN_SEPARATION
        elif kind == 3:
            c[i] = a[i] + 2.5 * (b[i] - a[i])             # exactly collinear
        else:
            # near-collinear: the collinearity measure of c = a + 1.7 (b - a)
            # + normal is about |normal| / (1.7 |b - a|), here on both sides
            # of COLLINEARITY_TOL and within rounding of it
            scale = (10.0, 1.0 + 1e-9, 1.0 - 1e-9, 0.1)[kind - 4]
            direction = b[i] - a[i]
            normal = np.cross(direction, rng.normal(size=3))
            normal *= 1.7 * COLLINEARITY_TOL * scale * np.linalg.norm(direction) / np.linalg.norm(normal)
            c[i] = a[i] + 1.7 * direction + normal
    valid = assert_kernel_equals_oracle(a, b, c)
    assert 100 < int((~valid).sum()) < 400


def test_frames_from_triples_bit_equal_on_rigidly_moved_triples():
    rng = random.Random(29)
    triples = [random_nondegenerate_triple(rng) for _ in range(200)]
    for _ in range(5):
        rotation = random_rotation(rng)
        translation = np.array([rng.uniform(-80, 80) for _ in range(3)])
        a, b, c = (np.array([rotation @ t[k] + translation for t in triples]) for k in range(3))
        assert assert_kernel_equals_oracle(a, b, c).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-100, 100) for _ in range(9)]), min_size=1, max_size=6))
def test_frames_from_triples_bit_equal_property(rows):
    table = np.array(rows, dtype=np.float64)
    assert_kernel_equals_oracle(table[:, 0:3], table[:, 3:6], table[:, 6:9])


def test_frames_from_triples_rejects_non_finite():
    a = np.zeros((2, 3))
    b = np.array([[1.0, 0, 0], [np.inf, 0, 0]])
    c = np.array([[0, 1.0, 0], [0, 1.0, 0]])
    with pytest.raises(ValueError):
        frame_from_triple(a, b, c)
    with pytest.raises(ValueError):
        frame_from_triple((0, 0, 0), (1, 0, 0), (0, float("nan"), 0))


@pytest.mark.parametrize("n_points", [1, 2, 29, 300])
def test_transform_frames_equal_transform_points(n_points):
    rng = random.Random(n_points)
    frames = [one_frame(*random_nondegenerate_triple(rng)) for _ in range(7)]
    points = np.array([[rng.uniform(-15, 15) for _ in range(3)] for _ in range(n_points)])
    coords = transform_frames(
        np.array([f.origin for f in frames]), np.array([f.basis for f in frames]), points
    )
    assert coords.shape == (7, n_points, 3)
    for frame, batch in zip(frames, coords):
        assert np.array_equal(batch, transform_points(RigidFrame(frame.origin, frame.basis), points))


# Components whose squares are signed zeros, subnormal, rounded to zero, or
# near or past overflow, beside ordinary finite values.
EDGE_COMPONENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-154, 1e-160,
                     1.3407807929942596e154, -1.3407807929942596e154, 1e154, 1.7976931348623157e308]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(EDGE_COMPONENTS, EDGE_COMPONENTS, EDGE_COMPONENTS), max_size=20))
def test_property_point_norms_bit_equal_row_sum(rows):
    points = np.array(rows, dtype=np.float64).reshape(-1, 3)
    with np.errstate(over="ignore", under="ignore"):
        got, expected = point_norms(points), reference_norms(points)
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def random_atoms(seed: int, n: int) -> Atoms:
    rng = np.random.default_rng(seed)
    names = np.array(["N", "CA", "C", "O", "CB", "OG1"], dtype=object)
    return Atoms(
        positions=rng.normal(scale=10.0, size=(n, 3)),
        atom_ordinals=np.arange(n),
        residue_ordinals=np.sort(rng.integers(0, max(n // 3, 1), size=n)),
        residue_seqs=rng.integers(-5, 500, size=n),
        atom_names=rng.choice(names, size=n),
        residue_names=rng.choice(np.array(["ALA", "SER", "GLY"], dtype=object), size=n),
        elements=rng.choice(np.array(["N", "C", "O"], dtype=object), size=n),
        chain_ids=rng.choice(np.array(["A", "B"], dtype=object), size=n),
        insertion_codes=rng.choice(np.array(["", "A"], dtype=object), size=n),
    )


BOUNDS = st.none() | st.integers(-15, 15)


@st.composite
def atom_indices(draw, n: int):
    """A slice, of any step and any bounds, or an index array within ``n`` rows."""
    kind = draw(st.sampled_from(["range", "slice", "array", "mask"]))
    if kind == "range":
        return slice(draw(BOUNDS), draw(BOUNDS))
    if kind == "slice":
        return slice(draw(BOUNDS), draw(BOUNDS), draw(st.sampled_from([None, 1, -1, 2, -2, 3])))
    if kind == "mask":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    rows = st.lists(st.integers(-n, n - 1), max_size=8) if n else st.just([])
    return np.array(draw(rows), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 12), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_indexed_atoms_equal_each_column_indexed(n, seed, data):
    atoms = random_atoms(seed, n)
    columns = {name: getattr(atoms, name).copy() for name in Atoms.COLUMNS}
    for _ in range(data.draw(st.integers(1, 3))):
        index = data.draw(atom_indices(len(atoms)))
        atoms = atoms[index]
        columns = {name: column[index] for name, column in columns.items()}
        assert len(atoms) == len(columns["atom_ordinals"])
        for name, expected in columns.items():
            column = getattr(atoms, name)
            assert column.dtype == expected.dtype and column.shape == expected.shape
            assert np.array_equal(column, expected) and not column.flags.writeable
    records = [
        AtomRecord(int(o), e, a, int(r), rn, Point3(*p.tolist()), c, int(s), i)
        for o, e, a, r, rn, p, c, s, i in zip(*(columns[name] for name in (
            "atom_ordinals", "elements", "atom_names", "residue_ordinals", "residue_names",
            "positions", "chain_ids", "residue_seqs", "insertion_codes",
        )))
    ]
    assert list(atoms) == records
    assert [atoms[k] for k in range(-len(atoms), len(atoms))] == records + records
    for k in (len(atoms), -len(atoms) - 1):
        with pytest.raises(IndexError):
            atoms[k]
    assert atoms == Atoms(**columns) and atoms.replace() == atoms
    assert Atoms.concat([atoms, atoms[len(atoms):]]) == atoms


def test_step_one_slice_shares_its_parents_columns():
    atoms = random_atoms(7, 10)
    part = atoms[2:9][-4:-1]
    assert part == atoms[5:8]
    for name in Atoms.COLUMNS:
        assert np.shares_memory(getattr(part, name), getattr(atoms, name))
        # an Atoms that covers every row gives the column itself
        assert getattr(atoms[:], name) is getattr(atoms, name)


def test_row_range_slices_allocate_no_column_arrays():
    atoms = random_atoms(11, 2000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parts = [atoms[k:k + 5] for k in range(1000)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(parts) == 1000
    # an Atoms and its range each, not nine column arrays of some 100 B
    assert held < 1000 * 250
