"""Datasets: directory ingestion, split construction, and seeded synthetic
mesh generation (icosphere / box / torus).

Synthetic generation is deterministic: one child seed per sample, spawned
from the dataset seed, so results are independent of generation order.
Every sample is posed by a random rigid transform, whose uniform rotation
comes from a normalized Gaussian quaternion; vertex jitter is uniform per
component, scaled by the mesh bounding radius.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .core import Mesh, MeshError, load_mesh, save_off

logger = logging.getLogger(__name__)


@dataclass
class Sample:
    mesh: Mesh
    class_id: int
    split: str | None = None
    seed: int | None = None


@dataclass
class Dataset:
    samples: list[Sample]
    class_names: list[str]
    load_errors: int = 0

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def pairs(self) -> list[tuple[Mesh, int]]:
        return [(s.mesh, s.class_id) for s in self.samples]


def load_dataset(root: str) -> Dataset:
    """Load meshes from ``root/<class_name>/<split>/<file>.{off,obj}``.

    Classes are id-assigned in sorted name order; samples enumerated in
    lexicographic path order. Unreadable meshes are skipped with a
    warning and counted in ``load_errors``.
    """
    if not os.path.isdir(root):
        raise MeshError(f"dataset root {root!r} is not a directory")
    class_names = sorted(d for d in os.listdir(root)
                         if os.path.isdir(os.path.join(root, d)))
    if not class_names:
        raise MeshError(f"dataset root {root!r} contains no class directories")
    samples: list[Sample] = []
    errors = 0
    for cid, cname in enumerate(class_names):
        cdir = os.path.join(root, cname)
        paths = []
        for dirpath, _, files in os.walk(cdir):
            for fn in files:
                if fn.lower().endswith((".off", ".obj")):
                    paths.append(os.path.join(dirpath, fn))
        for path in sorted(paths):
            rel = os.path.relpath(path, cdir)
            parts = rel.split(os.sep)
            split = parts[0] if len(parts) > 1 else None
            try:
                mesh = load_mesh(path)
            except MeshError as e:
                logger.warning("skipping unreadable mesh %s: %s", path, e)
                errors += 1
                continue
            samples.append(Sample(mesh=mesh, class_id=cid, split=split))
    if not samples:
        raise MeshError(f"no readable meshes found under {root!r}")
    return Dataset(samples=samples, class_names=class_names, load_errors=errors)


def make_splits(dataset: Dataset, per_class_train: int, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded per-class shuffle: exactly ``per_class_train`` samples per
    class go to train, the remainder to test."""
    rng = np.random.default_rng(seed)
    by_class: dict[int, list[Sample]] = {}
    for s in dataset.samples:
        by_class.setdefault(s.class_id, []).append(s)
    train, test = [], []
    for cid in sorted(by_class):
        group = by_class[cid]
        if len(group) < per_class_train + 1:
            raise ValueError(
                f"class {dataset.class_names[cid]!r} has {len(group)} samples; "
                f"needs at least {per_class_train + 1}")
        order = rng.permutation(len(group))
        for k, i in enumerate(order):
            s = group[int(i)]
            (train if k < per_class_train else test).append(s)
    return Dataset(train, dataset.class_names), Dataset(test, dataset.class_names)


# ---------------------------------------------------------------------------
# procedural generators


def icosahedron() -> Mesh:
    p = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, p, 0], [1, p, 0], [-1, -p, 0], [1, -p, 0],
        [0, -1, p], [0, 1, p], [0, -1, -p], [0, 1, -p],
        [p, 0, -1], [p, 0, 1], [-p, 0, -1], [-p, 0, 1]], dtype=np.float64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    f = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]], dtype=np.int64)
    return Mesh(v, f)


def octahedron() -> Mesh:
    v = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                  [0, 0, 1], [0, 0, -1]], dtype=np.float64)
    f = np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
                  [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]], dtype=np.int64)
    return Mesh(v, f)


def subdivide(mesh: Mesh, project_to_sphere: bool = False) -> Mesh:
    """Split every triangle into four by edge midpoints."""
    verts = [tuple(v) for v in mesh.vertices]
    cache: dict[tuple[int, int], int] = {}

    def midpoint(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        if key not in cache:
            m = (np.array(verts[a]) + np.array(verts[b])) / 2.0
            if project_to_sphere:
                m = m / np.linalg.norm(m)
            cache[key] = len(verts)
            verts.append(tuple(m))
        return cache[key]

    faces = []
    for a, b, c in mesh.faces:
        a, b, c = int(a), int(b), int(c)
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    return Mesh(np.array(verts), np.array(faces, dtype=np.int64))


def icosphere(subdivisions: int, base: str = "icosahedron") -> Mesh:
    """Sphere by repeated subdivision of an icosahedron (20*4^n faces) or
    octahedron (8*4^n faces), projected onto the unit sphere."""
    mesh = icosahedron() if base == "icosahedron" else octahedron()
    for _ in range(subdivisions):
        mesh = subdivide(mesh, project_to_sphere=True)
    return mesh


def box(segments: int) -> Mesh:
    """Axis-aligned cube [-1, 1]^3 with ``segments`` divisions per side;
    12 * segments^2 triangles, welded along the edges."""
    n = segments
    verts: list[np.ndarray] = []
    index: dict[tuple[int, int, int], int] = {}

    def vid(i: int, j: int, k: int) -> int:
        key = (i, j, k)
        if key not in index:
            index[key] = len(verts)
            verts.append(np.array([i, j, k], dtype=np.float64) * (2.0 / n) - 1.0)
        return index[key]

    faces = []
    # each side: u, v span the face, w fixed at 0 or n; flip controls winding
    sides = [
        (lambda u, v: (u, v, 0), True), (lambda u, v: (u, v, n), False),
        (lambda u, v: (u, 0, v), False), (lambda u, v: (u, n, v), True),
        (lambda u, v: (0, u, v), True), (lambda u, v: (n, u, v), False),
    ]
    for place, flip in sides:
        for u in range(n):
            for v in range(n):
                q = [vid(*place(u, v)), vid(*place(u + 1, v)),
                     vid(*place(u + 1, v + 1)), vid(*place(u, v + 1))]
                t1, t2 = [q[0], q[1], q[2]], [q[0], q[2], q[3]]
                if flip:
                    t1, t2 = t1[::-1], t2[::-1]
                faces += [t1, t2]
    return Mesh(np.array(verts), np.array(faces, dtype=np.int64))


def torus(major_segments: int, minor_segments: int,
          major_radius: float = 1.0, minor_radius: float = 0.4) -> Mesh:
    """Closed torus grid with 2 * major * minor triangles."""
    nu, nv = major_segments, minor_segments
    if nu < 3 or nv < 3:
        raise ValueError("torus needs at least 3 segments per direction")
    u = 2 * np.pi * np.arange(nu) / nu
    v = 2 * np.pi * np.arange(nv) / nv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = major_radius + minor_radius * np.cos(vv)
    verts = np.stack([ring * np.cos(uu), ring * np.sin(uu),
                      minor_radius * np.sin(vv)], axis=-1).reshape(-1, 3)
    faces = []
    for i in range(nu):
        for j in range(nv):
            a = i * nv + j
            b = ((i + 1) % nu) * nv + j
            c = ((i + 1) % nu) * nv + (j + 1) % nv
            d = i * nv + (j + 1) % nv
            faces += [[a, b, c], [a, c, d]]
    return Mesh(verts, np.array(faces, dtype=np.int64))


GENERATORS = ("icosphere", "box", "torus")
# Bounds on a spec's work: samples over all classes, face band upper bound
MAX_SYNTHETIC_SAMPLES, MAX_SYNTHETIC_FACES = 10**6, 10**7


def _resolution_options(cls: str, lo: int, hi: int) -> list[tuple]:
    opts: list[tuple] = []
    if cls == "icosphere":
        for base in ("octahedron", "icosahedron"):
            base_faces = 8 if base == "octahedron" else 20
            for k in range(8):
                n = base_faces * 4 ** k
                if lo <= n <= hi:
                    opts.append(("icosphere", k, base))
    elif cls == "box":
        n = 1
        while 12 * n * n <= hi:
            if 12 * n * n >= lo:
                opts.append(("box", n))
            n += 1
    elif cls == "torus":
        for nu in range(3, 64):
            for nv in range(3, nu + 1):
                if lo <= 2 * nu * nv <= hi:
                    opts.append(("torus", nu, nv))
    else:
        raise ValueError(f"unknown synthetic class {cls!r}")
    return opts


def _build(option: tuple) -> Mesh:
    kind = option[0]
    if kind == "icosphere":
        return icosphere(option[1], base=option[2])
    if kind == "box":
        return box(option[1])
    return torus(option[1], option[2])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform rotation matrix from a normalized Gaussian quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


@dataclass
class SyntheticSpec:
    classes: tuple[str, ...] = GENERATORS
    samples_per_class: int = 10
    face_band: tuple[int, int] = (420, 560)
    jitter: float = 0.01
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.face_band
        if lo > hi:
            raise ValueError("face band lower bound exceeds upper bound")
        if not (np.isfinite(self.jitter) and self.jitter >= 0):
            raise ValueError("jitter must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.samples_per_class < 1:
            raise ValueError("samples per class must be >= 1")
        if len(self.classes) * self.samples_per_class > MAX_SYNTHETIC_SAMPLES:
            raise ValueError(f"{len(self.classes)} classes x {self.samples_per_class} "
                             f"samples exceeds {MAX_SYNTHETIC_SAMPLES} synthetic samples")
        if hi > MAX_SYNTHETIC_FACES:
            raise ValueError(f"face band upper bound {hi} exceeds {MAX_SYNTHETIC_FACES}")
        if not self.classes:
            raise ValueError("no synthetic classes")
        for c in self.classes:
            if c not in GENERATORS:
                raise ValueError(f"unknown synthetic class {c!r}")
            if not _resolution_options(c, lo, hi):
                raise ValueError(f"face band [{lo}, {hi}] unreachable for class {c!r}")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Seeded synthetic dataset of closed manifold meshes.

    Every sample gets its own child seed controlling resolution choice,
    rigid transform and jitter. ``SyntheticSpec`` has checked that every
    class reaches the face band at some generator resolution.
    """
    options = {cls: _resolution_options(cls, *spec.face_band) for cls in spec.classes}
    ss = np.random.SeedSequence(spec.seed)
    children = ss.spawn(len(spec.classes) * spec.samples_per_class)
    samples = []
    class_names = sorted(spec.classes)
    for cid, cls in enumerate(class_names):
        for k in range(spec.samples_per_class):
            child = children[spec.classes.index(cls) * spec.samples_per_class + k]
            sample_seed = int(child.generate_state(1)[0])
            rng = np.random.default_rng(child)
            mesh = _build(options[cls][int(rng.integers(len(options[cls])))])
            verts = mesh.vertices @ random_rotation(rng).T + rng.uniform(-1, 1, size=3)
            if spec.jitter > 0:
                radius = float(np.linalg.norm(
                    verts - verts.mean(axis=0), axis=1).max())
                verts = verts + rng.uniform(-spec.jitter * radius,
                                            spec.jitter * radius,
                                            size=verts.shape)
            mesh = Mesh(verts, mesh.faces, name=f"{cls}_{k:04d}")
            samples.append(Sample(mesh=mesh, class_id=cid, seed=sample_seed))
    return Dataset(samples=samples, class_names=class_names)


def write_dataset(dataset: Dataset, root: str, split: str = "train") -> str:
    """Write the dataset as OFF files plus a manifest; returns manifest path.

    Files are ``root/<class>/<split>/<stem>.off``, named by the stem of the
    mesh name (a path for loaded meshes); two samples on one path raise
    ``ValueError`` before any write. Lines: ``path class_id face_count seed``.
    """
    paths: list[str] = []
    for i, s in enumerate(dataset.samples):
        stem = os.path.splitext(os.path.basename(s.mesh.name or f"mesh_{i:05d}"))[0]
        paths.append(os.path.join(root, dataset.class_names[s.class_id],
                                  s.split or split, stem + ".off"))
    if len(set(paths)) < len(paths):
        raise ValueError(f"two samples would be written to "
                         f"{next(p for p in paths if paths.count(p) > 1)!r}")
    lines = []
    for s, path in zip(dataset.samples, paths):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        save_off(s.mesh, path)
        lines.append(f"{os.path.relpath(path, root)} {s.class_id} "
                     f"{s.mesh.num_faces} {s.seed if s.seed is not None else -1}")
    manifest = os.path.join(root, "manifest.txt")
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest
