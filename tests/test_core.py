"""Mesh representation, I/O, validation, normalization, adjacency."""

import io
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshlearn import core
from meshlearn.core import (CSR, NONE, Mesh, MeshError, build_adjacency,
                            compute_geometry, degeneracy_threshold,
                            edge_lengths_sq, euler_characteristic, face_areas,
                            load_mesh, load_obj, load_off, normalize_mesh,
                            save_off, validate_mesh)
from meshlearn.data import box, icosahedron, icosphere, octahedron, torus

from conftest import (closed_corpus, disjoint_union, jitter_mesh,
                      rigid_transform, single_triangle, tetrahedron)
from oracles import (oracle_adjacency, oracle_load_obj, oracle_load_off,
                     oracle_save_off)


# ---------------------------------------------------------------------------
# file I/O


def test_load_off_minimal_triangle():
    mesh = load_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert mesh.num_vertices == 3
    assert mesh.num_faces == 1
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_load_off_header_on_counts_line():
    mesh = load_off("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert (mesh.num_vertices, mesh.num_faces) == (3, 1)


def test_load_off_quad_rejected_with_line_number():
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    with pytest.raises(MeshError, match="non-triangle face at line 7"):
        load_off(text)


def test_load_off_index_out_of_range():
    with pytest.raises(MeshError, match="out of range"):
        load_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n")


def test_load_off_truncated():
    with pytest.raises(MeshError, match="truncated"):
        load_off("OFF\n3 1 0\n0 0 0\n1 0 0\n")


def test_load_off_overflowing_face_index():
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n"
    with pytest.raises(MeshError, match="line 6: malformed face line"):
        load_off(text)


@pytest.mark.parametrize("counts", ["-1 1 0", "3 -1 0"])
def test_load_off_negative_counts(counts):
    with pytest.raises(MeshError, match=f"line 2: malformed counts line '{counts}'"):
        load_off(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_off_non_finite_coordinate_rejected(bad):
    text = f"OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 {bad}\n" \
           "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n"
    with pytest.raises(MeshError, match="non-finite vertex coordinate"):
        load_off(text)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_obj_non_finite_coordinate_rejected(bad):
    text = f"v 0 0 0\nv {bad} 0 0\nv 0 1 0\nf 1 2 3\n"
    with pytest.raises(MeshError, match="non-finite vertex coordinate"):
        load_obj(text)


def test_load_obj_quad_rejected():
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    with pytest.raises(MeshError, match="non-triangle face at line 5"):
        load_obj(text)


def test_load_obj_with_subindices_and_negative_indices():
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 -1\n"
    mesh = load_obj(text)
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_load_mesh_format_sniffing():
    off = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    assert load_mesh(off).num_faces == 1
    assert load_mesh(obj).num_faces == 1
    assert load_mesh(off.encode()).num_faces == 1


def test_load_mesh_sniff_skips_comments_and_blank_lines():
    off = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    for head in ("# made by hand\n", "\n  \n# one\n  # two\n\n"):
        assert load_mesh(head + off).num_faces == 1
        assert load_mesh((head + off).encode()).num_faces == 1
        assert load_mesh((head + obj).encode()).num_faces == 1


@pytest.mark.parametrize("text", ["OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
                                  "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"],
                         ids=["off", "obj"])
def test_load_mesh_reads_a_pipe(text):
    # a stream from os.fdopen is named by its int descriptor; its content
    # is sniffed, as for a stream with no name
    r, w = os.pipe()
    with os.fdopen(w, "wb") as fh:
        fh.write(text.encode())
    with os.fdopen(r, "rb") as fh:
        assert isinstance(fh.name, int)
        mesh = load_mesh(fh)
    assert mesh.faces.tolist() == [[0, 1, 2]]
    assert mesh.name is None


@pytest.mark.parametrize("text", [b"hello world\n", b"", b"# notes\n\n",
                                  b"v 0 0 0\nv 1 0 0\nv 0 1 0\n",
                                  b"OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", b"OFF 0 0 0\n"],
                         ids=["prose", "empty", "comment", "obj_vertices", "off_vertices",
                              "off_counts"])
def test_load_mesh_without_faces_rejected(text):
    with pytest.raises(MeshError, match="mesh has no faces"):
        load_mesh(text)


def test_save_off_round_trip_bit_exact(rng):
    mesh = jitter_mesh(icosahedron(), rng)
    buf = io.StringIO()
    save_off(mesh, buf)
    back = load_off(buf.getvalue())
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


# save_off output of the data generators, jittered so that coordinates
# need all 17 digits
OFF_SOURCES = [jitter_mesh(m, np.random.default_rng(i)) for i, m in enumerate(
    [tetrahedron(), single_triangle(), octahedron(), icosahedron(), box(1),
     torus(5, 3)])]
OFF_TEXTS = [oracle_save_off(m) for m in OFF_SOURCES]
# replacements for one token, and for one run of whitespace between tokens
ODD_TOKENS = ["#", "-1", "-0", "0", "3", "4", "2.5", "1e999", "nan", "-inf",
              "99999999999999999999", "-99999999999999999999", "1_0", "x",
              "OFF", "\u0663", "0x10", "\xe9"]
ODD_SPACES = [" ", "  ", "\t", "\r\n", "\r", "\n\n", "\n \n", "\x0b", "\x0c",
              "\x1c", "\x1f", "\xa0", "\x85", "\u2028", "\u3000", " 7 ", "\n7\n",
              " # note\n", "#", ""]


@st.composite
def mutated_text(draw, texts, odd_tokens):
    """One of ``texts`` with up to four token or whitespace mutations."""
    pieces = re.split(r"(\s+)", draw(st.sampled_from(texts)))
    # tokens sit at even positions, the whitespace between them at odd ones
    for _ in range(draw(st.integers(0, 4))):
        token = 2 * draw(st.integers(0, (len(pieces) - 1) // 2))
        space = token + 1 if token + 1 < len(pieces) else token - 1
        kind = draw(st.sampled_from(["token", "space", "swap", "insert", "cut"]))
        if kind == "token":
            pieces[token] = draw(st.sampled_from(odd_tokens))
        elif kind == "space" and space > 0:
            pieces[space] = draw(st.sampled_from(ODD_SPACES))
        elif kind == "swap":
            other = 2 * draw(st.integers(0, (len(pieces) - 1) // 2))
            pieces[token], pieces[other] = pieces[other], pieces[token]
        elif kind == "insert":
            pieces[token + 1:token + 1] = [draw(st.sampled_from(ODD_SPACES[:-1])),
                                           draw(st.sampled_from(odd_tokens))]
        elif kind == "cut":
            del pieces[max(token, 1):]
    return "".join(pieces)


def _load_outcome(load, source):
    """Arrays of a parse, or the type and message of its error."""
    try:
        mesh = load(source)
    except Exception as e:   # compared below, whatever its type
        return type(e), str(e)
    return (mesh.vertices.shape, mesh.vertices.tobytes(), mesh.faces.shape,
            mesh.faces.tobytes())


@settings(max_examples=300, deadline=None)
@given(text=mutated_text(OFF_TEXTS, ODD_TOKENS))
def test_load_off_matches_per_line_oracle(text):
    want = _load_outcome(oracle_load_off, text)
    assert _load_outcome(load_off, text) == want
    assert _load_outcome(load_off, text.encode("utf-8")) == want
    if want[0] is MeshError:
        return
    assert not isinstance(want[0], type), want   # an error of another type
    mesh = oracle_load_off(text)
    buf = io.StringIO()
    save_off(mesh, buf)
    assert buf.getvalue() == oracle_save_off(mesh)


def test_load_off_every_single_mutation_matches_oracle():
    # each token of the tetrahedron's file replaced by each odd token, and
    # each run of whitespace by each odd space
    pieces = re.split(r"(\s+)", OFF_TEXTS[0])
    for i in range(len(pieces)):
        for odd in ODD_SPACES if i % 2 else ODD_TOKENS:
            text = "".join(pieces[:i] + [odd] + pieces[i + 1:])
            assert _load_outcome(load_off, text) == _load_outcome(oracle_load_off, text)


def _obj_text(mesh: Mesh, style: str) -> str:
    """OBJ text of ``mesh``: 17-digit vertices, then faces as 1-based
    indices, ``i/i/i`` or ``i//i`` sub-indices, or negative indices; the
    ``commented`` style adds comments and skipped ``vn``/``o`` lines."""
    lines = ["# meshlearn", "o mesh"] if style == "commented" else []
    for v in mesh.vertices:
        lines.append("v %.17g %.17g %.17g" % tuple(v))
        if style == "commented":
            lines.append("vn 0 0 1")
    V = mesh.num_vertices
    form = {"slashes": "{0}/{0}/{0}", "normals": "{0}//{0}"}.get(style, "{0}")
    for f in mesh.faces:
        idx = f - V if style == "negative" else f + 1
        lines.append("f " + " ".join(form.format(i) for i in idx)
                     + (" # face" if style == "commented" else ""))
    return "\n".join(lines) + "\n"


OBJ_TEXTS = [_obj_text(m, style) for m, style in zip(
    OFF_SOURCES, ["plain", "slashes", "negative", "commented", "normals", "plain"])]
ODD_OBJ_TOKENS = ODD_TOKENS + ["v", "f", "vn", "1/2/3", "-1/", "//", "/1", "-99",
                               "2//2", "0/0"]


@settings(max_examples=300, deadline=None)
@given(text=mutated_text(OBJ_TEXTS, ODD_OBJ_TOKENS))
def test_load_obj_matches_per_line_oracle(text):
    want = _load_outcome(oracle_load_obj, text)
    assert _load_outcome(load_obj, text) == want
    assert _load_outcome(load_obj, text.encode("utf-8")) == want
    assert want[0] is MeshError or not isinstance(want[0], type), want


def test_obj_texts_load_their_meshes():
    for text, mesh in zip(OBJ_TEXTS, OFF_SOURCES):
        back = load_obj(text)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)


def _with_colours(text: str) -> str:
    """``text`` with three colour tokens after every vertex row."""
    lines = text.splitlines(keepends=True)
    nv = int(lines[1].split()[0])
    for i in range(2, 2 + nv):
        lines[i] = lines[i].rstrip("\n") + " 0.5 0.25 1\n"
    return "".join(lines)


def test_load_off_variants_match_oracle():
    # every variant is valid and goes through the one bulk conversion
    for text, mesh in zip(OFF_TEXTS, OFF_SOURCES):
        for variant in (text.replace("\n", "\r\n"),
                        text.replace(" ", "\t") + "\n\n",
                        text + "# note\n",
                        text.replace("OFF\n", "OFF ", 1),
                        _with_colours(text)):
            want = oracle_load_off(variant)
            assert np.array_equal(want.vertices, mesh.vertices)
            assert np.array_equal(want.faces, mesh.faces)
            assert _load_outcome(load_off, variant) == _load_outcome(
                oracle_load_off, variant)


@pytest.mark.parametrize("row", ["vertex", "face"])
def test_load_off_large_file_error_names_the_line(row):
    # one bad token on the last vertex line, or on the last face line
    mesh = icosphere(4)
    buf = io.StringIO()
    save_off(mesh, buf)
    lines = buf.getvalue().splitlines()
    n = 2 + mesh.num_vertices if row == "vertex" else len(lines)
    lines[n - 1] = lines[n - 1].rsplit(" ", 1)[0] + " x"
    text = "\n".join(lines) + "\n"
    message = f"line {n}: malformed {row} line"
    for load in (oracle_load_off, load_off):
        with pytest.raises(MeshError) as err:
            load(text)
        assert str(err.value) == message


def _icosphere4_off() -> str:
    buf = io.StringIO()
    save_off(icosphere(4), buf)
    return buf.getvalue()


def test_load_off_saved_file_takes_the_loadtxt_path(monkeypatch):
    def per_row(*args):
        raise AssertionError("per-row path taken")
    monkeypatch.setattr(core, "_rows", per_row)
    text = _icosphere4_off()
    assert _load_outcome(load_off, text) == _load_outcome(oracle_load_off, text)


def _edit(text: str, line: int, column: int, token: str) -> str:
    """``text`` with token ``column`` of 0-based line ``line`` replaced."""
    lines = text.splitlines()
    row = lines[line].split()
    row[column] = token
    lines[line] = " ".join(row)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("variant, per_row", [
    (lambda t: _edit(t, 2, 0, "1_0"), True),                # float("1_0") == 10
    (lambda t: _edit(t, 3, 1, "\u0663"), True),             # an Arabic-Indic 3
    (lambda t: _edit(t, -1, 2, "1_0"), True),               # int("1_0") == 10
    (lambda t: t.replace(" ", "\t"), False),
    (lambda t: _edit(t, -1, 1, "99999999999999999999"), True),
], ids=["underscore_vertex", "arabic_indic_digit", "underscore_index", "tabs",
        "20_digit_index"])
def test_load_off_odd_tokens_match_oracle(monkeypatch, variant, per_row):
    taken = []
    rows = core._rows
    monkeypatch.setattr(core, "_rows", lambda *args: taken.append(1) or rows(*args))
    text = variant(_icosphere4_off())
    assert _load_outcome(load_off, text) == _load_outcome(oracle_load_off, text)
    assert bool(taken) == per_row


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, message", [
    ("OFF\n0 1 0\n3 0 1 2\n", "face 0: vertex index out of range"),
    ("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", "mesh has no faces"),
    ("OFF 0 0 0\n", "mesh has no faces"),
], ids=["no_vertices", "no_faces", "neither"])
def test_load_off_empty_sections_raise_without_warning(text, message):
    for load in (oracle_load_off, load_off):
        with pytest.raises(MeshError) as err:
            load(text)
        assert str(err.value) == message


@settings(max_examples=60, deadline=None)
@given(coords=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=3, max_size=30),
       ids=st.lists(st.integers(-2**63, 2**63 - 1), max_size=12))
def test_save_off_matches_per_row_oracle(coords, ids):
    mesh = Mesh(np.reshape(coords[:len(coords) // 3 * 3], (-1, 3)),
                np.reshape(np.array(ids[:len(ids) // 3 * 3], dtype=np.int64), (-1, 3)))
    buf = io.StringIO()
    save_off(mesh, buf)
    assert buf.getvalue() == oracle_save_off(mesh)


def test_tetrahedron_off_euler():
    buf = io.StringIO()
    save_off(tetrahedron(), buf)
    mesh = load_off(buf.getvalue())
    assert (mesh.num_vertices, mesh.num_faces) == (4, 4)
    assert euler_characteristic(mesh) == 2


# ---------------------------------------------------------------------------
# validation


def test_validate_tetrahedron():
    report = validate_mesh(tetrahedron())
    assert report.manifold and report.oriented
    assert report.border_edges == 0
    assert report.degenerate_faces == [] and report.invalid_faces == []
    assert report.ok


def test_validate_single_triangle_borders():
    report = validate_mesh(single_triangle())
    assert report.manifold
    assert report.border_edges == 3


def test_validate_misoriented_pair():
    # two triangles traversing the shared edge (1, 2) in the same direction
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    f = np.array([[0, 1, 2], [3, 1, 2]])
    report = validate_mesh(Mesh(v, f))
    assert not report.oriented
    assert not report.ok


def test_validate_nonmanifold_edge():
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1]])
    f = np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]])
    report = validate_mesh(Mesh(v, f))
    assert not report.manifold
    assert (0, 1) in report.nonmanifold_edges


def test_validate_degenerate_and_invalid_faces():
    v = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]])
    f = np.array([[0, 1, 2], [0, 1, 1], [0, 1, 3]])
    report = validate_mesh(Mesh(v, f))
    assert report.degenerate_faces == [0]   # collinear
    assert report.invalid_faces == [1]      # repeated index


def _scalar_validate(mesh):
    """Face-by-face reference for validate_mesh: (invalid, degenerate,
    non-manifold edges, borders, oriented)."""
    V = mesh.num_vertices
    eps = degeneracy_threshold(mesh)
    invalid, degenerate, kept = [], [], []
    for i, f in enumerate(mesh.faces.tolist()):
        if min(f) < 0 or max(f) >= V or len(set(f)) != 3:
            invalid.append(i)
            continue
        kept.append(f)
        if face_areas(mesh.vertices, np.array([f]))[0] <= eps:
            degenerate.append(i)
    und, directed = {}, {}
    for a, b, c in kept:
        for u, w in ((a, b), (b, c), (c, a)):
            directed[(u, w)] = directed.get((u, w), 0) + 1
            e = (min(u, w), max(u, w))
            und[e] = und.get(e, 0) + 1
    nonmanifold = sorted(e for e, n in und.items() if n > 2)
    borders = sum(1 for n in und.values() if n == 1)
    oriented = all(n == 1 for n in directed.values())
    return invalid, degenerate, nonmanifold, borders, oriented


def test_validate_matches_scalar_reference(rng):
    base = jitter_mesh(icosphere(1), rng)
    V = base.num_vertices
    faces = base.faces.copy()
    faces[3] = [0, V, 1]          # out of range
    faces[10] = [-1, 2, 3]        # negative index
    faces[17] = [4, 4, 5]         # repeated vertex
    faces[30] = [6, 7, 6]         # repeated vertex
    verts = base.vertices.copy()
    a, b, c = faces[40]
    verts[c] = 0.5 * (verts[a] + verts[b])   # collinear: zero area
    cases = [
        base,
        Mesh(verts, faces),
        Mesh(verts, np.vstack([faces, faces[:5], faces[[50]][:, ::-1]])),
        Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]]),
             np.array([[0, 1, 2], [0, 1, 1], [0, 1, 3], [3, 9, 0]])),
    ]
    for mesh in cases:
        report = validate_mesh(mesh)
        invalid, degenerate, nonmanifold, borders, oriented = _scalar_validate(mesh)
        assert report.invalid_faces == invalid
        assert report.degenerate_faces == degenerate
        assert report.nonmanifold_edges == nonmanifold
        assert report.manifold == (not nonmanifold)
        assert report.border_edges == borders
        assert report.oriented == oriented
    assert _scalar_validate(cases[1])[:2] == ([3, 10, 17, 30], [40])


@pytest.mark.parametrize("case", ["as_is", "flipped", "duplicated"])
def test_validate_orientation_at_scale(case):
    mesh = icosphere(4)
    faces = mesh.faces
    if case == "flipped":
        faces = faces.copy()
        faces[100] = faces[100, ::-1]
    elif case == "duplicated":
        faces = np.vstack([faces, faces[100:101]])
    mesh = Mesh(mesh.vertices, faces)
    report = validate_mesh(mesh)
    assert (report.invalid_faces, report.degenerate_faces, report.nonmanifold_edges,
            report.border_edges, report.oriented) == _scalar_validate(mesh)
    assert report.oriented == (case == "as_is")


# ---------------------------------------------------------------------------
# normalization


def test_normalize_triangle_example():
    mesh = Mesh(np.array([[0.0, 0, 0], [2, 0, 0], [0, 2, 0]]),
                np.array([[0, 1, 2]]))
    out = normalize_mesh(mesh)
    assert np.allclose(out.vertices.mean(axis=0), 0, atol=1e-12)
    assert abs(np.linalg.norm(out.vertices, axis=1).max() - 1.0) <= 1e-12


def test_normalize_idempotent(rng):
    mesh = jitter_mesh(icosphere(1), rng)
    once = normalize_mesh(mesh)
    twice = normalize_mesh(once)
    assert np.allclose(once.vertices, twice.vertices, atol=1e-12)


def test_normalize_similarity_invariance():
    mesh = jitter_mesh(icosahedron(), np.random.default_rng(5))
    moved = mesh.with_geometry(mesh.vertices * 7.0 + np.array([5.0, 5, 5]))
    a = normalize_mesh(mesh).vertices
    b = normalize_mesh(moved).vertices
    assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.01, 100), tx=st.floats(-50, 50),
       ty=st.floats(-50, 50), tz=st.floats(-50, 50))
def test_normalize_similarity_invariance_property(scale, tx, ty, tz):
    mesh = jitter_mesh(icosahedron(), np.random.default_rng(11))
    moved = mesh.with_geometry(mesh.vertices * scale + np.array([tx, ty, tz]))
    assert np.allclose(normalize_mesh(mesh).vertices,
                       normalize_mesh(moved).vertices, atol=1e-9)


def test_normalize_zero_scale_error():
    mesh = Mesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(MeshError, match="zero scale|coincident"):
        normalize_mesh(mesh)


# ---------------------------------------------------------------------------
# adjacency


def test_adjacency_tetrahedron_total_tie():
    adj = build_adjacency(tetrahedron())
    # all edges equal length: tie-break is ascending neighbor index
    assert adj.neighbors[0].tolist() == [1, 2, 3]
    for f in range(4):
        assert sorted(adj.neighbors[f].tolist()) == sorted(set(range(4)) - {f})


def test_adjacency_single_triangle_all_none():
    adj = build_adjacency(single_triangle())
    assert adj.neighbors.tolist() == [[NONE, NONE, NONE]]


def test_adjacency_symmetry_icosahedron():
    adj = build_adjacency(icosahedron())
    for f in range(20):
        for g in adj.neighbors[f]:
            assert f in adj.neighbors[g]


def test_adjacency_matches_oracle_icosahedron():
    mesh = icosahedron()
    adj = build_adjacency(mesh)
    nb, se = oracle_adjacency(mesh)
    assert np.array_equal(adj.neighbors, nb)
    assert np.array_equal(adj.shared_edges, se)


def test_adjacency_matches_oracle_corpus_200():
    # every corpus mesh up to 200 faces, plus a couple larger shapes
    meshes = closed_corpus(seeds=range(12)) + [icosphere(1), torus(10, 10),
                                               single_triangle()]
    for mesh in meshes:
        assert mesh.num_faces <= 200
        adj = build_adjacency(mesh)
        nb, se = oracle_adjacency(mesh)
        assert np.array_equal(adj.neighbors, nb), mesh.name
        assert np.array_equal(adj.shared_edges, se), mesh.name


def test_edge_lengths_sq_bit_equal_scalar_dot():
    rng = np.random.default_rng(3)
    verts = rng.normal(size=(500, 3)) * rng.uniform(1e-3, 1e3, size=(500, 1))
    edges = np.sort(rng.integers(0, 500, size=(4000, 2)), axis=1)
    got = edge_lengths_sq(verts, edges.reshape(1000, 4, 2))
    assert got.shape == (1000, 4)
    for e, value in zip(edges.tolist(), got.ravel().tolist()):
        d = verts[e[0]] - verts[e[1]]
        assert value == float(d @ d)


def test_adjacency_matches_oracle_bordered_and_multicomponent(rng):
    ico = jitter_mesh(icosphere(1), rng)
    bordered = Mesh(ico.vertices, np.delete(ico.faces, [0, 1, 2, 9, 33, 60], axis=0))
    a, b = jitter_mesh(box(2), rng), jitter_mesh(torus(6, 4), rng)
    multi = Mesh(np.vstack([a.vertices, b.vertices + 4.0]),
                 np.vstack([a.faces, b.faces + a.num_vertices]))
    for mesh in (bordered, multi):
        adj = build_adjacency(mesh)
        nb, se = oracle_adjacency(mesh)
        assert np.array_equal(adj.neighbors, nb)
        assert np.array_equal(adj.shared_edges, se)
    assert (build_adjacency(bordered).neighbors == NONE).any()


@pytest.mark.parametrize("extra", [[[4, 4, 5]], [[4, 5, 4]], [[4, 4, 5], [4, 6, 4]]])
def test_adjacency_matches_oracle_repeated_vertex_face(extra):
    """A face that meets its edge (4, 5) twice has no neighbor across it;
    two such faces meet across their self-loop edge (4, 4)."""
    tet = tetrahedron()
    verts = np.vstack([tet.vertices, [[2.0, 0, 0], [2.0, 1, 0], [3.0, 0, 1]]])
    mesh = Mesh(verts, np.vstack([tet.faces, extra]))
    adj = build_adjacency(mesh)
    nb, se = oracle_adjacency(mesh)
    assert np.array_equal(adj.neighbors, nb)
    assert np.array_equal(adj.shared_edges, se)
    assert (4 not in adj.neighbors[4]) and (len(extra) == 1) == (adj.neighbors[4] == NONE).all()


def test_adjacency_nonmanifold_raises():
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1]])
    f = np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]])
    with pytest.raises(MeshError, match=r"non-manifold edge \(0, 1\)"):
        build_adjacency(Mesh(v, f))


def test_adjacency_rigid_transform_bit_identical():
    base = jitter_mesh(icosphere(1), np.random.default_rng(7))
    ref = build_adjacency(base)
    rng = np.random.default_rng(21)
    for _ in range(20):
        moved = rigid_transform(base, rng, scale=True)
        adj = build_adjacency(moved)
        assert np.array_equal(adj.neighbors, ref.neighbors)
        assert np.array_equal(adj.shared_edges, ref.shared_edges)


def test_closed_meshes_have_no_none_slots():
    for mesh in [tetrahedron(), icosahedron(), box(2), torus(6, 4)]:
        adj = build_adjacency(mesh)
        assert (adj.neighbors != NONE).all()
        assert compute_geometry(mesh).face_areas.sum() > 0


# ---------------------------------------------------------------------------
# geometry


def test_face_normal_ccw_triangle():
    geo = compute_geometry(single_triangle())
    assert np.allclose(geo.face_normals[0], [0, 0, 1], atol=1e-12)
    assert np.allclose(geo.face_centroids[0], [1 / 3, 1 / 3, 0], atol=1e-15)
    assert np.isclose(geo.face_areas[0], 0.5)


def test_flat_square_vertex_normals():
    v = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    f = np.array([[0, 1, 2], [0, 2, 3]])
    geo = compute_geometry(Mesh(v, f))
    assert np.allclose(geo.vertex_normals, [[0, 0, 1]] * 4, atol=1e-12)


def test_icosahedron_vertex_normals_equal_positions():
    mesh = icosahedron()
    geo = compute_geometry(mesh)
    assert np.allclose(geo.vertex_normals, mesh.vertices, atol=1e-6)


def test_compute_geometry_zero_area_raises():
    v = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(MeshError, match="zero-area face 0"):
        compute_geometry(Mesh(v, np.array([[0, 1, 2]])))


def test_geometry_centroids_and_unit_normals_corpus():
    for mesh in closed_corpus(seeds=range(6)):
        geo = compute_geometry(mesh)
        assert np.allclose(geo.face_centroids,
                           mesh.vertices[mesh.faces].mean(axis=1), atol=1e-12)
        assert np.allclose(np.linalg.norm(geo.face_normals, axis=1), 1, atol=1e-9)
        assert np.allclose(np.linalg.norm(geo.vertex_normals, axis=1), 1, atol=1e-9)


# ---------------------------------------------------------------------------
# Euler characteristic


def test_euler_characteristics():
    assert euler_characteristic(tetrahedron()) == 2
    assert euler_characteristic(icosahedron()) == 2
    assert euler_characteristic(icosphere(2)) == 2
    assert euler_characteristic(box(3)) == 2
    assert euler_characteristic(torus(8, 5)) == 0


def _euler_by_unique_rows(mesh):
    """V - E + F with E from ``np.unique(axis=0)`` of the sorted edge rows."""
    f = mesh.faces
    und = np.sort(np.stack([f, np.roll(f, -1, axis=1)], axis=2).reshape(-1, 2), axis=1)
    E = len(np.unique(und, axis=0)) if len(und) else 0
    return mesh.num_vertices - E + mesh.num_faces


def test_euler_characteristic_matches_unique_rows():
    tet, cube = tetrahedron(), box(3)
    odd = [[0, 9, -1], [2**62, -2**63, 2**63 - 1], [9, 0, -1], [-1, 0, 9]]
    cases = {
        "bordered": Mesh(cube.vertices, cube.faces[5:]),
        "triangle": single_triangle(),
        "two_components": disjoint_union(tet, icosphere(2)),
        "torus": torus(8, 5),
        "invalid_ids": Mesh(tet.vertices, np.vstack([tet.faces, odd])),
        "no_faces": Mesh(tet.vertices, np.empty((0, 3), dtype=np.int64)),
    }
    for name, mesh in cases.items():
        assert euler_characteristic(mesh) == _euler_by_unique_rows(mesh), name
    assert euler_characteristic(cases["two_components"]) == 4


# ---------------------------------------------------------------------------
# CSR segment sum


def _loop_segment_sum(csr, values, out):
    out = out.copy()
    for j in range(len(csr)):
        for i in csr[j]:
            for c in range(values.shape[1]):
                out[j, c] += values[i, c]
    return out


@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_csr_from_pairs_matches_lexsort(n):
    """The single key sort gives the rows and columns of a two-key lexsort:
    unsorted pairs, each repeated up to three times, with empty rows at
    both ends and inside."""
    rng = np.random.default_rng(n)
    rows = rng.integers(1, 19, size=n)
    rows[rows == 7] = 8
    cols = rng.integers(0, 40, size=n)
    rep = rng.integers(1, 4, size=n)
    rows, cols = np.repeat(rows, rep), np.repeat(cols, rep)
    order = rng.permutation(len(rows))
    rows, cols = rows[order], cols[order]
    csr = CSR.from_pairs(rows, cols, 20)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=20))])
    assert csr.indptr.tolist() == indptr.tolist()
    assert csr.indices.tolist() == cols[np.lexsort((cols, rows))].tolist()
    assert csr.indices.dtype == np.int64


def test_csr_segment_sum_matches_scalar_loop():
    """Ragged CSRs (empty rows, one-entry rows, a long row that is not the
    first; tied row lengths in both orders; columns in stored order, with
    repeats) called again and again on one instance, with and without
    ``out=``, also a row slice of a larger array: the sums of the scalar
    loop, byte for byte, signed zeros included."""
    rng = np.random.default_rng(3)
    lengths = rng.integers(0, 5, size=30)
    lengths[[0, 9, 29]] = 0
    lengths[[1, 10]] = 1
    lengths[17] = 40
    tied = [3, 1, 3, 0, 2, 3, 2, 1, 3, 0, 2, 2, 1, 3, 1, 0, 2, 3, 1, 2, 0, 3, 1, 2, 3,
            2, 1, 0, 3, 2]
    for lengths in (lengths, tied, tied[::-1]):
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        csr = CSR(indptr, rng.integers(0, 25, size=indptr[-1]))
        for _ in range(4):
            values = rng.normal(size=(25, 3)) * 10.0 ** rng.integers(-8, 9, size=(25, 3))
            values[rng.random(values.shape) < 0.3] = -0.0
            start = np.where(rng.random((30, 3)) < 0.5, -0.0, rng.normal(size=(30, 3)))
            expect = _loop_segment_sum(csr, values, np.zeros((30, 3)))
            assert csr.segment_sum(values).tobytes() == expect.tobytes()
            out = start.copy()
            assert csr.segment_sum(values, out=out) is out
            assert out.tobytes() == _loop_segment_sum(csr, values, start).tobytes()
            big = rng.normal(size=(36, 3))
            expect = big.copy()
            expect[4:34] = _loop_segment_sum(csr, values, big[4:34])
            out = big[4:34]
            assert csr.segment_sum(values, out=out) is out
            assert big.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.bool_])
def test_csr_segment_sum_without_out_sums_in_float64(dtype):
    """With ``out=None`` the sums start from float64 zeros whatever the
    input dtype, as a scalar loop into ``np.zeros`` does: float32 inputs
    are not summed in float32, ints cannot overflow, and bools count."""
    rng = np.random.default_rng(5)
    lengths = [0, 3, 1, 6, 2, 6, 0, 4]
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    csr = CSR(indptr, rng.integers(0, 9, size=indptr[-1]))
    values = (rng.normal(size=(9, 2)) * 1e3).astype(dtype)
    if dtype is np.int64:
        values[:] = np.iinfo(np.int64).max // 2   # an int64 sum would wrap
    got = csr.segment_sum(values)
    assert got.dtype == np.float64
    assert got.tobytes() == _loop_segment_sum(csr, values, np.zeros((8, 2))).tobytes()
