"""Benchmark harness: report shape and determinism."""

import pytest

from meshlearn.bench import PHASES, run_benchmark


def test_report_fields_and_lines():
    report = run_benchmark(faces=95, batch_size=2, num_batches=2, seed=0)
    assert set(report.phase_mean_ms) == set(PHASES)
    assert all(report.phase_mean_ms[p] > 0 for p in PHASES)
    assert all(report.phase_std_ms[p] >= 0 for p in PHASES)
    assert 0.0 < report.removal_fraction <= 0.5
    lines = report.lines()
    assert lines[0].startswith("faces=95 batch=2 batches=2")
    for p in PHASES:
        assert any(line.startswith(f"phase={p} mean_ms=") for line in lines)
    assert any(line.startswith("removal_fraction=") for line in lines)
    assert any(line.startswith("checksum=") for line in lines)


def test_csv_layout():
    report = run_benchmark(faces=95, batch_size=1, num_batches=1, seed=0)
    rows = report.csv().strip().splitlines()
    assert rows[0] == "phase,mean_ms,std_ms"
    assert [r.split(",")[0] for r in rows[1:]] == list(PHASES)


def test_checksum_deterministic():
    a = run_benchmark(faces=95, batch_size=3, num_batches=1, seed=0)
    b = run_benchmark(faces=95, batch_size=3, num_batches=1, seed=0)
    assert a.checksum == b.checksum
    d = run_benchmark(faces=95, batch_size=3, num_batches=1, seed=1)
    assert a.checksum != d.checksum


def test_invalid_sizes():
    with pytest.raises(ValueError, match=">= 1"):
        run_benchmark(batch_size=0)
    with pytest.raises(ValueError, match=">= 1"):
        run_benchmark(num_batches=0)
