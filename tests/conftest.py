"""Shared fixtures: the small-mesh corpus and the acceptance reporter."""

from __future__ import annotations

import numpy as np
import pytest

from meshlearn.core import Mesh, validate_mesh
from meshlearn.data import (box, icosahedron, icosphere, octahedron,
                            random_rotation, subdivide, torus)

# ---------------------------------------------------------------------------
# mesh corpus helpers


def jitter_mesh(mesh: Mesh, rng: np.random.Generator, amount: float = 0.02) -> Mesh:
    """Random vertex jitter, scaled by the bounding radius."""
    v = mesh.vertices
    radius = float(np.linalg.norm(v - v.mean(axis=0), axis=1).max())
    return mesh.with_geometry(v + rng.uniform(-amount * radius, amount * radius,
                                              size=v.shape))


def rigid_transform(mesh: Mesh, rng: np.random.Generator,
                    scale: bool = True) -> Mesh:
    """Random rotation + translation (+ optional uniform scaling)."""
    R = random_rotation(rng)
    s = float(rng.uniform(0.2, 5.0)) if scale else 1.0
    t = rng.uniform(-10, 10, size=3)
    return mesh.with_geometry(s * (mesh.vertices @ R.T) + t)


def closed_corpus(max_faces: int = 100, seeds=range(50)) -> list[Mesh]:
    """>= 50 seeded closed manifold meshes with <= max_faces faces.

    Base shapes cycle through icosahedron (20), octahedron (8), its
    subdivision (32), sphere refinements (80), boxes (48) and small
    tori; each seed applies its own jitter + rigid transform so no two
    cases share geometry.
    """
    bases = [
        icosahedron(),
        octahedron(),
        subdivide(octahedron(), project_to_sphere=True),
        icosphere(1),          # 80 faces
        box(2),                # 48 faces
        torus(5, 3),           # 30 faces
        torus(8, 4),           # 64 faces
        torus(12, 4),          # 96 faces
        subdivide(icosahedron()),  # 80 faces, flat subdivision
        box(1),                # 12 faces
    ]
    bases = [m for m in bases if m.num_faces <= max_faces]
    out = []
    for seed in seeds:
        rng = np.random.default_rng(1000 + seed)
        base = bases[seed % len(bases)]
        out.append(rigid_transform(jitter_mesh(base, rng), rng))
    return out


def flip_edges(mesh: Mesh, rng: np.random.Generator, flips: int) -> Mesh:
    """Up to ``flips`` random edge flips of a closed mesh. The two faces
    (a, b, c) and (b, a, d) at edge ab become (a, d, c) and (d, b, c); a
    flip that breaks validity or duplicates a face is undone."""
    faces = mesh.faces.copy()
    for _ in range(flips):
        f = int(rng.integers(len(faces)))
        s = int(rng.integers(3))
        a, b, c = (int(x) for x in np.roll(faces[f], -s))
        g = np.flatnonzero(((faces == b) & (np.roll(faces, -1, axis=1) == a))
                           .any(axis=1))
        if len(g) != 1:
            continue
        g = int(g[0])
        d = int(sum(faces[g].tolist()) - a - b)
        if d == c:
            continue
        trial = faces.copy()
        trial[f], trial[g] = (a, d, c), (d, b, c)
        if (validate_mesh(Mesh(mesh.vertices, trial)).ok
                and len(np.unique(np.sort(trial, axis=1), axis=0)) == len(trial)):
            faces = trial
    return Mesh(mesh.vertices, faces)


def disjoint_union(a: Mesh, b: Mesh, offset: float = 4.0) -> Mesh:
    """Both meshes as one, ``b`` shifted by ``offset`` along every axis."""
    return Mesh(np.vstack([a.vertices, b.vertices + offset]),
                np.vstack([a.faces, b.faces + a.num_vertices]))


def single_triangle() -> Mesh:
    return Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                np.array([[0, 1, 2]]))


def tetrahedron() -> Mesh:
    """Regular tetrahedron (all edges equal)."""
    v = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    f = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return Mesh(v, f)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# acceptance reporter: one pass/fail line per criterion in the summary

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, description: str, passed: bool,
                     detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"{status} criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
