"""The benchmark in ``perfbench/`` still runs against this source tree:
every name its tracer wraps exists and is called through the module global
it wraps, a traced pooling stage reports its counts, a traced pool job and
a traced training step and set-up give their descriptor and geometry
layers time, the pooling stage and a training step pass the benchmark's
own output checks, and one round of each training workload runs with no
failed operation."""

import sys
from pathlib import Path

import numpy as np
import pytest

from meshlearn import cli, network, pooling
from meshlearn.core import build_adjacency, save_off
from meshlearn.data import icosphere

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_and_uninstalls():
    plan_pass = pooling.plan_pass
    tracer = tracing.LayerTracer()
    try:
        tracer.install()
        assert pooling.plan_pass is not plan_pass
    finally:
        tracer.uninstall()
    assert pooling.plan_pass is plan_pass


def test_traced_pool_stage_counts_and_passes_checks():
    mesh = icosphere(2)
    adj = build_adjacency(mesh)
    feats = np.random.default_rng(0).normal(size=(mesh.num_faces, 3))
    target = mesh.num_faces // 4
    tracer = tracing.LayerTracer()
    with tracer.traced("job"):
        pooled = pooling.pool_to_target(mesh, adj, feats, target)
    metrics = tracer.metrics()
    assert metrics["pooling.collapses"][0] > 0
    assert metrics["pooling.passes"][0] >= 1
    assert checks.stage_problems(mesh, adj, feats, target, pooled) == []


def test_traced_pool_job_attributes_descriptor_and_geometry(tmp_path, capsys):
    # a stage that stops calling a wrapped module global reads 0 ms here
    save_off(icosphere(2), str(tmp_path / "in.off"))
    tracer = tracing.LayerTracer()
    with tracer.traced("job"):
        assert cli.main(["pool", str(tmp_path / "in.off"), "--target", "80",
                         "--weights", "descriptor", "-o", str(tmp_path / "out.off")]) == 0
    metrics = tracer.metrics()
    for name in ("descriptors.terms.ms", "descriptors.forward.ms",
                 "core.compute_geometry.ms"):
        assert metrics[name][0] > 0, name
    spans = [s.name for s in tracer.spans]
    # cli.descriptor_forward, then the geodesic and geometric forwards
    assert spans.count("descriptors.forward") == 3
    assert spans.count("descriptors.terms") == 2


def test_traced_training_step_attributes_descriptor_and_geometry():
    # one precompute_static (set-up) and one workloads._step, each traced
    config = network.ModelConfig(num_classes=3)
    mesh, label, static = workloads._training_builders(0, config)[0]()
    params = network.init_params(config, np.random.default_rng(0))
    tracer = tracing.LayerTracer()
    tracer.conv_blocks.update({id(cp): i // config.convs_per_block
                               for i, cp in enumerate(params.conv_layers)})
    with tracer.traced("setup"):
        network.precompute_static(mesh, config)
    with tracer.traced("step"):
        workloads._step((mesh, label, static), params, config)
    metrics = tracer.metrics()
    for name in ("descriptors.forward.ms", "descriptors.backward.ms",
                 "descriptors.terms.ms", "core.compute_geometry.ms"):
        assert metrics[name][0] > 0, name


def test_training_step_passes_directional_derivative_check():
    """The first training mesh of the benchmark (posed box(6) with its
    static inputs) under the default model: the check replays the tape and
    reads every conv cache's ``diff`` and ``z`` as its kink arguments."""
    config = network.ModelConfig(num_classes=3)
    item = workloads._training_builders(0, config)[0]()
    params = network.init_params(config, np.random.default_rng(0))
    assert checks.directional_derivative_problems(item, params, config, 0) == []


@pytest.mark.parametrize("nopool", [False, True], ids=["train-500", "train-nopool"])
def test_training_workload_one_round(nopool):
    """One round of a training workload: every step of ``TrainConfig`` and
    ``training.make_optimizer``'s Adam, the held-out forwards, and the
    run-level checks (directional derivatives, repeatable gradients)."""
    run = workloads.run_training(0, 0.0, nopool)
    assert run.rounds == 1 and run.attempted > 0
    assert run.failed == 0, run.op_problems
    assert run.problems == []
