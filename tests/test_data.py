"""Dataset ingestion, splits, synthetic generation, export."""

import hashlib
import os

import numpy as np
import pytest

from meshlearn.core import MeshError, euler_characteristic, save_off, validate_mesh
from meshlearn import data
from meshlearn.data import (MAX_SYNTHETIC_FACES, MAX_SYNTHETIC_SAMPLES, Dataset,
                            Sample, SyntheticSpec, generate_synthetic,
                            load_dataset, make_splits, write_dataset)

from conftest import single_triangle, tetrahedron


# ---------------------------------------------------------------------------
# directory ingestion


def _write(root, cls, split, name, mesh):
    d = os.path.join(root, cls, split)
    os.makedirs(d, exist_ok=True)
    save_off(mesh, os.path.join(d, name))


def test_load_dataset_two_classes(tmp_path):
    root = str(tmp_path)
    _write(root, "b_shape", "train", "m0.off", tetrahedron())
    _write(root, "a_shape", "train", "m0.off", tetrahedron())
    ds = load_dataset(root)
    assert ds.class_names == ["a_shape", "b_shape"]   # sorted name order
    assert [s.class_id for s in ds.samples] == [0, 1]
    assert all(s.split == "train" for s in ds.samples)


def test_load_dataset_empty_root(tmp_path):
    with pytest.raises(MeshError, match="no class directories"):
        load_dataset(str(tmp_path))
    with pytest.raises(MeshError, match="not a directory"):
        load_dataset(str(tmp_path / "missing"))


def test_load_dataset_skips_corrupt_file(tmp_path, caplog):
    root = str(tmp_path)
    for i in range(9):
        _write(root, "c", "train", f"m{i}.off", tetrahedron())
    bad = os.path.join(root, "c", "train", "bad.off")
    with open(bad, "w") as fh:
        fh.write("OFF\nnot a mesh\n")
    with caplog.at_level("WARNING"):
        ds = load_dataset(root)
    assert len(ds.samples) == 9
    assert ds.load_errors == 1
    assert any("bad.off" in r.getMessage() for r in caplog.records)


def test_load_dataset_counts_faceless_mesh(tmp_path, caplog):
    root = str(tmp_path)
    for i in range(3):
        _write(root, "c", "train", f"m{i}.off", tetrahedron())
    with open(os.path.join(root, "c", "train", "empty.obj"), "w") as fh:
        fh.write("# exported without faces\nv 0 0 0\nv 1 0 0\n")
    with caplog.at_level("WARNING"):
        ds = load_dataset(root)
    assert len(ds.samples) == 3
    assert ds.load_errors == 1
    assert any("empty.obj" in r.getMessage() and "no faces" in r.getMessage()
               for r in caplog.records)


# ---------------------------------------------------------------------------
# splits


def _fake_dataset(num_classes, per_class):
    samples = [Sample(mesh=single_triangle(), class_id=c)
               for c in range(num_classes) for _ in range(per_class)]
    return Dataset(samples, [f"c{c}" for c in range(num_classes)])


def test_make_splits_16_of_20():
    tr, te = make_splits(_fake_dataset(30, 20), 16, seed=0)
    assert len(tr.samples) == 480 and len(te.samples) == 120
    for ds, n in ((tr, 16), (te, 4)):
        counts = {}
        for s in ds.samples:
            counts[s.class_id] = counts.get(s.class_id, 0) + 1
        assert all(v == n for v in counts.values())


def test_make_splits_10_of_20():
    tr, te = make_splits(_fake_dataset(30, 20), 10, seed=1)
    assert len(tr.samples) == 300 and len(te.samples) == 300


def test_make_splits_deterministic():
    ds = _fake_dataset(3, 10)
    a = make_splits(ds, 7, seed=5)
    b = make_splits(ds, 7, seed=5)
    assert [id(s) for s in a[0].samples] == [id(s) for s in b[0].samples]
    c = make_splits(ds, 7, seed=6)
    assert [id(s) for s in a[0].samples] != [id(s) for s in c[0].samples]


def test_make_splits_insufficient():
    with pytest.raises(ValueError, match="needs at least"):
        make_splits(_fake_dataset(2, 5), 5, seed=0)


# ---------------------------------------------------------------------------
# synthetic generation


def _digest(dataset):
    h = hashlib.sha256()
    for s in dataset.samples:
        h.update(s.mesh.vertices.tobytes())
        h.update(s.mesh.faces.tobytes())
    return h.hexdigest()


def test_generate_synthetic_valid_closed_meshes():
    spec = SyntheticSpec(samples_per_class=4, face_band=(80, 600), seed=0)
    ds = generate_synthetic(spec)
    assert ds.class_names == ["box", "icosphere", "torus"]
    chi = {"box": 2, "icosphere": 2, "torus": 0}
    for s in ds.samples:
        report = validate_mesh(s.mesh)
        assert report.ok and report.border_edges == 0
        assert 80 <= s.mesh.num_faces <= 600
        assert euler_characteristic(s.mesh) == chi[ds.class_names[s.class_id]]


def test_generate_synthetic_deterministic_digest():
    spec = SyntheticSpec(samples_per_class=10, face_band=(80, 600), seed=0)
    assert _digest(generate_synthetic(spec)) == _digest(generate_synthetic(spec))
    other = SyntheticSpec(samples_per_class=10, face_band=(80, 600), seed=1)
    assert _digest(generate_synthetic(spec)) != _digest(generate_synthetic(other))


def test_generate_synthetic_band_unreachable():
    with pytest.raises(ValueError, match="icosphere"):
        generate_synthetic(SyntheticSpec(classes=("icosphere",),
                                         face_band=(21, 31)))


def test_synthetic_spec_validation():
    with pytest.raises(ValueError, match="band"):
        SyntheticSpec(face_band=(10, 5))
    with pytest.raises(ValueError, match="jitter"):
        SyntheticSpec(jitter=-0.1)
    with pytest.raises(ValueError, match="unknown synthetic class"):
        SyntheticSpec(classes=("pyramid",))
    with pytest.raises(ValueError, match="no synthetic classes"):
        SyntheticSpec(classes=())
    # checked on the spec, before generate_synthetic is reached
    with pytest.raises(ValueError, match=r"face band \[80, 81\] unreachable for class 'box'"):
        SyntheticSpec(face_band=(80, 81))


def test_synthetic_spec_bounds_checked_before_resolutions(monkeypatch):
    def no_options(*args):
        raise AssertionError("resolutions listed before the bounds were checked")

    with monkeypatch.context() as m:
        m.setattr(data, "_resolution_options", no_options)
        with pytest.raises(ValueError, match="3 classes x 333334 samples exceeds 1000000"):
            SyntheticSpec(samples_per_class=333334)
        with pytest.raises(ValueError, match="exceeds 1000000 synthetic samples"):
            SyntheticSpec(samples_per_class=10**23)
        with pytest.raises(ValueError, match="upper bound 10000001 exceeds 10000000"):
            SyntheticSpec(face_band=(420, MAX_SYNTHETIC_FACES + 1))
        with pytest.raises(ValueError, match="upper bound 10{18} exceeds"):
            SyntheticSpec(face_band=(420, 10**18))
    # both limits are allowed
    SyntheticSpec(classes=("box",), samples_per_class=MAX_SYNTHETIC_SAMPLES,
                  face_band=(12, MAX_SYNTHETIC_FACES))


def test_default_band_hits_about_500_faces():
    spec = SyntheticSpec(samples_per_class=3, seed=2)   # default band [420, 560]
    for s in generate_synthetic(spec).samples:
        assert 420 <= s.mesh.num_faces <= 560


# ---------------------------------------------------------------------------
# export


def test_write_dataset_layout_and_manifest(tmp_path):
    spec = SyntheticSpec(samples_per_class=2, face_band=(80, 600), seed=0)
    ds = generate_synthetic(spec)
    manifest = write_dataset(ds, str(tmp_path), split="train")
    lines = open(manifest).read().strip().splitlines()
    assert len(lines) == len(ds.samples)
    for line, s in zip(lines, ds.samples):
        path, cid, fc, seed = line.split()
        assert int(cid) == s.class_id
        assert int(fc) == s.mesh.num_faces
        assert os.path.exists(os.path.join(str(tmp_path), path))
    back = load_dataset(str(tmp_path))
    assert len(back.samples) == len(ds.samples)
    assert back.class_names == ds.class_names
