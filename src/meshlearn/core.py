"""Triangle mesh representation, I/O, validation and adjacency construction.

Meshes are plain vertex/face arrays. The face adjacency table is the
backbone of every operator in this library: each face stores its three
edge-neighbors, sorted by shared-edge length (longest first, ties broken
by ascending neighbor index). Missing neighbors on borders are stored as
the ``NONE`` sentinel (-1), never as face index 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

# Sentinel for "no neighbor across this edge" (border). -1 is never a
# valid face index, unlike the literal zero padding sometimes seen.
NONE = -1

# Zero-area threshold, relative to the squared bounding-box diagonal.
DEGENERACY_EPS = 1e-12


class MeshError(ValueError):
    """Raised for malformed mesh files or invalid mesh operations."""


class NumericalError(ArithmeticError):
    """Raised when a computation yields a non-finite value: a computational
    failure, not a usage error."""


@dataclass
class Mesh:
    """A triangle mesh: V x 3 vertex coordinates and F x 3 face indices.

    Faces are assumed consistently oriented (counter-clockwise seen from
    outside for closed meshes). ``name`` is optional metadata: the source
    file or the dataset sample name.
    """

    vertices: np.ndarray
    faces: np.ndarray
    name: str | None = None

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be a V x 3 array")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshError("faces must be an F x 3 array")
        # nan or inf would pass validation and poison every later stage
        if not np.isfinite(self.vertices).all():
            raise MeshError("non-finite vertex coordinate")

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]

    def with_geometry(self, vertices: np.ndarray) -> "Mesh":
        """Same connectivity, new vertex positions."""
        return replace(self, vertices=np.asarray(vertices, dtype=np.float64))


@dataclass
class AdjacencyMatrix:
    """F x 3 edge-neighbor table.

    ``neighbors[f, s]`` is the face sharing edge ``shared_edges[f, s]``
    with face ``f``, or ``NONE`` for a border edge. Slots are sorted by
    shared-edge length, descending; ties broken by ascending neighbor
    index (NONE slots sort last among equal lengths).
    """

    neighbors: np.ndarray      # (F, 3) int64, NONE for borders
    shared_edges: np.ndarray   # (F, 3, 2) int64, each pair sorted ascending

    @property
    def num_faces(self) -> int:
        return self.neighbors.shape[0]


@dataclass
class GeometryCache:
    """Per-face and per-vertex geometric quantities."""

    face_centroids: np.ndarray  # (F, 3)
    face_normals: np.ndarray    # (F, 3) unit
    face_areas: np.ndarray      # (F,)
    vertex_normals: np.ndarray  # (V, 3) unit


@dataclass(eq=False)
class CSR:
    """Compressed rows: row j is ``indices[indptr[j]:indptr[j + 1]]``, and
    indexing and iteration give the rows. Pooling provenance and the conv
    scatter are CSRs."""

    indptr: np.ndarray    # (rows + 1,) int64 row offsets
    indices: np.ndarray   # (indptr[-1],) int64 column ids

    @classmethod
    def from_pairs(cls, rows: np.ndarray, cols: np.ndarray, num_rows: int):
        """CSR of the (row, col) pairs, each row's cols ascending."""
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
        # one sort by row, then col; equal keys carry equal cols
        width = int(cols.max(initial=0)) + 1
        return cls(indptr, np.sort(rows * width + cols) % width)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, j: int) -> np.ndarray:
        return self.indices[self.indptr[j]:self.indptr[j + 1]]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @cached_property
    def _rounds(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The rows by descending length (a stable sort), and round k of
        ``segment_sum``: the k-th column of every row longer than k, which
        in that order are the first ``len(round k)`` rows."""
        counts = np.diff(self.indptr)
        order = np.argsort(-counts, kind="stable")
        # n[k] rows are longer than k; pair i of round k is row order[i]
        n = np.searchsorted(-counts[order], -np.arange(counts.max(initial=0)))
        k = np.repeat(np.arange(len(n)), n)
        i = np.arange(len(k)) - np.repeat(np.cumsum(n) - n, n)
        cols = self.indices[self.indptr[order[i]] + k]
        return order, np.split(cols, np.cumsum(n)[:-1])

    def segment_sum(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Row j: ``values[self[j]]`` added onto ``out[j]`` (in place; float64
        zeros if None) strictly left to right, the order of a scalar loop or
        of ``np.add.at`` (``np.add.reduceat`` may reassociate). The rows are
        summed in descending length, so each round adds onto a prefix of
        them. The rounds are built on the first call and kept."""
        order, rounds = self._rounds
        if out is None:   # sum in float64 (or wider), whatever the input
            values = values.astype(np.result_type(values, np.float64), copy=False)
        buf = np.empty((len(self),) + values.shape[1:], dtype=values.dtype)
        acc = np.zeros_like(buf) if out is None else out[order]
        for cols in rounds:
            # mode="clip" lets take write into buf directly ("raise" would
            # buffer); the columns are in range by construction
            acc[:len(cols)] += np.take(values, cols, axis=0, out=buf[:len(cols)],
                                       mode="clip")
        if out is None:   # the sums leave in the take buffer: no third array
            out = buf
        out[order] = acc
        return out


@dataclass
class ValidationReport:
    oriented: bool
    border_edges: int
    degenerate_faces: list[int] = field(default_factory=list)
    invalid_faces: list[int] = field(default_factory=list)
    nonmanifold_edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def manifold(self) -> bool:
        return not self.nonmanifold_edges

    @property
    def ok(self) -> bool:
        return (self.manifold and self.oriented
                and not self.degenerate_faces and not self.invalid_faces)


# ---------------------------------------------------------------------------
# file I/O


def _text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8", errors="replace")
    if isinstance(source, str):
        return source
    data = source.read()
    return data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data


def _rows(lines: list[str], face: bool, number) -> np.ndarray:
    """``_table``'s rows converted one by one, as ``float``/``int`` do; the
    first bad row raises with its file line ``number(i)``."""
    conv, width, dtype = (int, 4, np.int64) if face else (float, 3, np.float64)
    rows = []
    for i, r in enumerate(map(str.split, lines)):
        try:
            # a face row's count comes first, then its arity, then its
            # indices, which must fit int64
            if face and int(r[0]) != 3:
                raise MeshError(f"non-triangle face at line {number(i)}")
            rows.append(np.array([conv(r[k]) for k in range(width)], dtype=dtype))
        except MeshError:    # a ValueError, but already the right one
            raise
        except (ValueError, IndexError, OverflowError):
            kind = "face" if face else "vertex"
            raise MeshError(f"line {number(i)}: malformed {kind} line") from None
    return np.array(rows)


def _table(lines: list[str], face: bool, number) -> np.ndarray:
    """Vertex rows (first 3 tokens, float64) or face rows (first 4, int64) of
    ``lines``, further tokens such as colours ignored, in one ``np.loadtxt``
    call; ``_rows`` takes the rows it cannot read (``1_0``, non-ASCII digits,
    an index beyond int64) or a face that is not a triangle."""
    width, dtype = (4, np.int64) if face else (3, np.float64)
    if not lines:               # loadtxt would warn of an empty input
        return np.empty((0, width), dtype=dtype)
    try:
        # one row per line: loadtxt skips only lines that are all white
        # space, as str.split sees it, and those were dropped
        out = np.loadtxt(lines, dtype=dtype, comments=None, usecols=range(width), ndmin=2)
        if not face or (out[:, 0] == 3).all():
            return out
    except ValueError:
        pass
    return _rows(lines, face, number)


def load_off(source) -> Mesh:
    """Parse an ASCII OFF file with triangle faces only.

    The text is cut into lines (``#`` comments cut, blank lines dropped;
    the counts may follow ``OFF`` on the header line), and the vertex and
    face lines are each converted to an array by ``_table``.
    """
    text = _text(source)
    lines = text.splitlines()
    if "#" in text:
        lines = [ln.split("#", 1)[0] for ln in lines]
    kept = list(filter(str.strip, lines))

    def line(i: int) -> int:    # number of the line that holds kept[i]
        return [n for n, ln in enumerate(lines, 1) if ln.strip()][i]

    if not kept:
        raise MeshError("empty OFF file")
    head = kept[0].split()
    if not head[0].startswith("OFF"):
        raise MeshError(f"line {line(0)}: missing OFF header")
    # counts may share the header line ("OFF 8 12 0")
    counts = head[0][3:].split() + head[1:]
    c = 0 if counts else 1          # the counts line
    if len(kept) == c:
        raise MeshError("missing OFF counts line")
    counts = counts or kept[1].split()
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except (ValueError, IndexError):
        nv = nf = -1
    if nv < 0 or nf < 0:
        shown = kept[c].strip()[3 if c == 0 else 0:].strip()   # cut "OFF"
        raise MeshError(f"line {line(c)}: malformed counts line {shown!r}")
    b = c + 1                       # the first vertex line
    if len(kept) - b < nv + nf:
        raise MeshError(f"OFF file truncated: expected {nv} vertices and {nf} faces")
    verts = _table(kept[b:b + nv], False, lambda i: line(b + i))
    faces = _table(kept[b + nv:b + nv + nf], True, lambda i: line(b + nv + i))[:, 1:]
    if not nf:
        raise MeshError("mesh has no faces")
    if faces.min() < 0 or faces.max() >= nv:
        bad = int(np.argmax((faces < 0).any(axis=1) | (faces >= nv).any(axis=1)))
        raise MeshError(f"face {bad}: vertex index out of range")
    return Mesh(verts, faces)


def load_obj(source) -> Mesh:
    """Parse a Wavefront OBJ with triangular faces.

    Texture/normal sub-indices (``f 1/2/3``) are ignored; 1-based indices
    are converted to 0-based (negative indices are relative to the end).
    """
    verts: list[list[float]] = []
    faces: list[list[int]] = []
    for n, raw in enumerate(_text(source).splitlines(), start=1):
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        p = ln.split()
        if p[0] == "v":
            if len(p) < 4:
                raise MeshError(f"line {n}: malformed vertex line")
            try:
                verts.append([float(p[1]), float(p[2]), float(p[3])])
            except ValueError:
                raise MeshError(f"line {n}: malformed vertex line") from None
        elif p[0] == "f":
            if len(p) != 4:
                raise MeshError(f"non-triangle face at line {n}")
            idx = []
            for tok in p[1:]:
                head = tok.split("/")[0]
                try:
                    i = int(head)
                except ValueError:
                    raise MeshError(f"line {n}: malformed face index {tok!r}") from None
                idx.append(i - 1 if i > 0 else len(verts) + i)
            if any(i < 0 or i >= len(verts) for i in idx):
                raise MeshError(f"line {n}: vertex index out of range")
            faces.append(idx)
    if not faces:
        raise MeshError("mesh has no faces")
    return Mesh(np.array(verts, dtype=np.float64).reshape(-1, 3),
                np.array(faces, dtype=np.int64).reshape(-1, 3))


def load_mesh(source) -> Mesh:
    """Load a mesh from a path, byte stream or string; OFF or OBJ."""
    name = None
    if isinstance(source, (str,)) and "\n" not in source:
        name = source
        with open(source, "rb") as fh:
            data = fh.read()
    elif hasattr(source, "read"):
        # a pipe from os.fdopen is named by its int descriptor: sniff it
        name = getattr(source, "name", None)
        name = name if isinstance(name, str) else None
        data = source.read()
    else:
        data = source
    ext = name.lower()[-4:] if name is not None else ""
    if ext in (".off", ".obj"):
        is_off = ext == ".off"
    else:
        # OFF when the first line that is not blank or a "#" comment
        # starts with OFF, as load_off reads it
        data = _text(data)
        first = next(filter(None, (ln.split("#", 1)[0].strip()
                                   for ln in data.splitlines())), "")
        is_off = first.startswith("OFF")
    mesh = load_off(data) if is_off else load_obj(data)
    if name is not None:
        mesh.name = name
    return mesh


def save_off(mesh: Mesh, target) -> None:
    """Write ``mesh`` as ASCII OFF to a path or text stream."""
    nv, nf = mesh.num_vertices, mesh.num_faces
    text = ("OFF\n%d %d 0\n" % (nv, nf)
            + ("%.17g %.17g %.17g\n" * nv) % tuple(mesh.vertices.ravel().tolist())
            + ("3 %d %d %d\n" * nf) % tuple(mesh.faces.ravel().tolist()))
    if isinstance(target, str):
        with open(target, "w") as fh:
            fh.write(text)
    else:
        target.write(text)


# ---------------------------------------------------------------------------
# validation and normalization


def _edge_pairs(faces: np.ndarray) -> np.ndarray:
    """(F, 3, 2) undirected edges in face order, each as (min, max)."""
    nxt = np.roll(faces, -1, axis=1)
    return np.stack([np.minimum(faces, nxt), np.maximum(faces, nxt)], axis=2)


def face_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    a = vertices[faces[:, 1]] - vertices[faces[:, 0]]
    b = vertices[faces[:, 2]] - vertices[faces[:, 0]]
    return 0.5 * np.linalg.norm(np.cross(a, b), axis=1)


def degeneracy_threshold(mesh: Mesh) -> float:
    if mesh.num_vertices == 0:
        return 0.0
    diag2 = float(np.sum((mesh.vertices.max(0) - mesh.vertices.min(0)) ** 2))
    return DEGENERACY_EPS * diag2


def validate_mesh(mesh: Mesh) -> ValidationReport:
    """Check manifoldness, orientation, borders and degenerate faces.

    Report-based: nothing raises, every violated invariant is listed.
    """
    V = mesh.num_vertices
    f = mesh.faces
    bad = (((f < 0) | (f >= V)).any(axis=1) | (f[:, 0] == f[:, 1])
           | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0]))
    kept = np.flatnonzero(~bad)
    faces = f[kept]

    # edges as packed keys u * V + w; key order is (u, w) row order
    u, w = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
    uniq, counts = np.unique(np.minimum(u, w) * V + np.maximum(u, w), return_counts=True)
    nonmanifold = [(k // V, k % V) for k in uniq[counts > 2].tolist()]
    # consistent orientation: no directed edge may repeat
    dkey = np.sort(u * V + w)
    oriented = not (dkey[1:] == dkey[:-1]).any()

    areas = face_areas(mesh.vertices, faces)
    degenerate = kept[areas <= degeneracy_threshold(mesh)].tolist()
    return ValidationReport(oriented=oriented, border_edges=int((counts == 1).sum()),
                            degenerate_faces=degenerate,
                            invalid_faces=np.flatnonzero(bad).tolist(),
                            nonmanifold_edges=nonmanifold)


def normalize_mesh(mesh: Mesh) -> Mesh:
    """Center the vertex centroid at the origin and scale into the unit sphere.

    The farthest vertex from the origin ends up at distance exactly 1.
    Idempotent and invariant to similarity transforms of the input.
    """
    if mesh.num_vertices < 1:
        raise MeshError("cannot normalize an empty mesh")
    centered = mesh.vertices - mesh.vertices.mean(axis=0)
    radius = float(np.linalg.norm(centered, axis=1).max())
    if radius == 0.0:
        raise MeshError("all vertices coincident; zero scale")
    return mesh.with_geometry(centered / radius)


# ---------------------------------------------------------------------------
# adjacency


def edge_lengths_sq(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Squared length of every ``(..., 2)`` vertex-id pair in ``edges``.

    Each value is one three-term dot product, bit-equal to the scalar
    ``d @ d`` of ``d = vertices[e[0]] - vertices[e[1]]``; the element-wise
    ``(d * d).sum(1)`` rounds differently on some rows and would change
    tie-breaks in the slot order.
    """
    d = (vertices[edges[..., 0]] - vertices[edges[..., 1]]).reshape(-1, 3)
    return np.matmul(d[:, None, :], d[:, :, None]).reshape(edges.shape[:-1])


def build_adjacency(mesh: Mesh) -> AdjacencyMatrix:
    """Build the F x 3 edge-neighbor table.

    Raises on non-manifold edges (3+ incident faces).
    """
    F, V = mesh.num_faces, mesh.num_vertices
    edges = _edge_pairs(mesh.faces)
    key = (edges[..., 0] * V + edges[..., 1]).ravel()
    # half-edge 3f+s is slot s of face f; a stable sort keeps the
    # half-edges of one edge in face order
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    start = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
    count = np.diff(np.r_[start, key.size])
    over = start[count > 2]
    if over.size:
        # report the non-manifold edge met first in face order
        first = over[np.argmin(order[over])]
        u, v = (int(x) for x in edges.reshape(-1, 2)[order[first]])
        n = int(count[start == first][0])
        raise MeshError(f"non-manifold edge {(u, v)}: {n} incident faces")
    pair = start[count == 2]
    a, b = order[pair], order[pair + 1]
    neighbors = np.full(3 * F, NONE, dtype=np.int64)
    # an edge a face meets twice (repeated vertex) has no neighbor across it
    other = a // 3 != b // 3
    neighbors[a[other]] = b[other] // 3
    neighbors[b[other]] = a[other] // 3
    neighbors = neighbors.reshape(F, 3)
    # canonical slot order: length descending, then ascending neighbor id
    # with NONE (as F) last; lexsort is stable, like the oracle's sort
    tie = np.where(neighbors == NONE, F, neighbors)
    slot = np.lexsort((tie, -edge_lengths_sq(mesh.vertices, edges)), axis=-1)
    return AdjacencyMatrix(np.take_along_axis(neighbors, slot, axis=1),
                           np.take_along_axis(edges, slot[:, :, None], axis=1))


# ---------------------------------------------------------------------------
# geometry


def compute_geometry(mesh: Mesh) -> GeometryCache:
    """Face centroids/normals/areas and averaged vertex normals.

    Vertex normal = normalized unweighted mean of incident face normals;
    a zero-norm mean falls back to the first incident face normal.
    Raises on zero-area faces. Each vertex's normal sum adds its faces'
    normals in slot-major input order: every face's slot 0, then slot 1,
    then slot 2.
    """
    v, f = mesh.vertices, mesh.faces
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    centroids = (p0 + p1 + p2) / 3
    cross = np.cross(p1 - p0, p2 - p0)
    norms = np.linalg.norm(cross, axis=1)
    areas = 0.5 * norms
    eps = degeneracy_threshold(mesh)
    bad = np.nonzero(areas <= eps)[0]
    if len(bad):
        raise MeshError(f"zero-area face {int(bad[0])}")
    normals = cross / norms[:, None]

    V, F = mesh.num_vertices, mesh.num_faces
    slots = f.T.ravel()
    vsum = np.stack([np.bincount(slots, np.tile(normals[:, k], 3), minlength=V)
                     for k in range(3)], axis=1)
    vcount = np.bincount(slots, minlength=V)
    used = vcount > 0
    vnormals = np.zeros_like(vsum)
    vnormals[used] = vsum[used] / vcount[used, None]
    vn = np.linalg.norm(vnormals, axis=1)
    zero = used & (vn <= 1e-300)
    if zero.any():
        first = np.full(V, F, dtype=np.int64)
        np.minimum.at(first, f.ravel(), np.repeat(np.arange(F), 3))
        vnormals[zero] = normals[first[zero]]
        vn = np.linalg.norm(vnormals, axis=1)
    nz = vn > 0
    vnormals[nz] = vnormals[nz] / vn[nz, None]
    return GeometryCache(centroids, normals, areas, vnormals)


def euler_characteristic(mesh: Mesh) -> int:
    """V - E + F with E counted over unique undirected edges."""
    und = _edge_pairs(mesh.faces).reshape(-1, 2)
    und = und[np.lexsort(und.T[::-1])]
    E = int(len(und) and 1 + (und[1:] != und[:-1]).any(axis=1).sum())
    return mesh.num_vertices - E + mesh.num_faces
