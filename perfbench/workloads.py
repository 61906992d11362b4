"""The three benchmark workloads.

Each is a closed loop with one caller: an operation starts when the
previous one has finished. A run attempts whole rounds (epochs, or one
job per mesh file) until ``seconds`` of timed work are done; the output
checks run between operations, outside the timed intervals.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pickle
import re
import resource
import shutil
import statistics
import time

import numpy as np

from meshlearn import cli, core, data, network, pooling, training

import checks
from tracing import Patches

# train-500 / train-nopool inputs: synthetic box / icosphere / torus meshes
# in the 420-560 face band, 8 training and 4 held-out meshes per class. The
# resolutions are fixed, so every seed has the same mix of face counts,
# which sets the time of an operation; the seed draws each mesh's rigid
# motion and jitter (as data.generate_synthetic does), the epoch order and
# the initial weights.
TORUS_TRAIN = ((15, 14), (16, 14), (57, 4), (40, 6), (31, 8), (26, 10), (38, 7), (56, 5))
TORUS_HELD_OUT = ((27, 8), (39, 6), (63, 4), (25, 11))
TRAIN_JITTER = 0.01
# above every mesh's face count, so pool_to_target runs no pass
NOPOOL_T_SCHEDULE = (1000, 999, 998)
# meshes whose step is checked against a central difference
FD_MESHES = (0, 1)

# pool-large inputs: closed 5k-20k face meshes, each pooled to F/4
POOL_LARGE_MESHES = (
    ("icosphere-5120", lambda: data.icosphere(4)),
    ("box-10092", lambda: data.box(29)),
    ("torus-10120", lambda: data.torus(92, 55)),
    ("icosphere-20480", lambda: data.icosphere(5)),
)
POOL_LARGE_JITTER = 0.001   # per component, times the mesh radius


# The reference kernel: fixed NumPy and Python work of the kinds a
# meshlearn step is made of (a gather over a region table, absolute
# differences, small products, sorts, unique, dict updates), on inputs that
# never change. It runs after every operation, outside the timing, and the
# times are scaled by REF_KERNEL_S over its time around each operation: a
# shared machine's speed can drift by a quarter and more over minutes, and
# the kernel slows with it (see README.md). REF_KERNEL_S is about the
# kernel's median in a run on a 2-core Xeon VM (nproc = 2, numpy 2.4.6).
REF_KERNEL_S = 0.008
_REF_RNG = np.random.default_rng(12345)
_REF_X = _REF_RNG.standard_normal((500, 32))
_REF_IDX = _REF_RNG.integers(0, 500, size=(500, 12))
_REF_W = _REF_RNG.standard_normal((32, 32))
_REF_KEYS = _REF_RNG.integers(0, 2000, size=3000)


def reference_kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(4):
        d = np.abs(_REF_X[:, None, :] - _REF_X[_REF_IDX]).sum(axis=1)
        z = np.maximum(_REF_X @ _REF_W + d @ _REF_W, 0.0)
        np.sort(z, axis=0)
        np.unique(_REF_KEYS)
        acc: dict[int, int] = {}
        for i in range(300):
            acc[i % 37] = acc.get(i % 37, 0) + i
    return time.perf_counter() - t0


def _traced(tracer, kind: str, name: str | None = None):
    """The layer spans installed and a root span open, or nothing for an
    untraced call."""
    return tracer.traced(kind, name) if tracer is not None else contextlib.nullcontext()


class Run:
    """What one workload run measured, and the harness that times its
    operations.

    Every ``pool_to_target`` call is passed through, on ``meshlearn.pooling``
    where both ``network`` and ``cli`` look it up, to keep its arguments
    and result for the stage checks: one extra Python call per pooling
    stage. In a traced run (``tracer`` given) every operation runs twice
    on the same inputs, once traced, the order alternating, so the
    machine's speed drift falls on both sides of ``trace.overhead_pct``.

    ``kernel_s`` holds the reference kernel's time once before the timed
    loop (``calibrate``) and once after every operation that returned, so
    ``mesh_s[i]`` lies between ``kernel_s[i]`` and ``kernel_s[i + 1]``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.build_s: list[list[float]] = []  # per input: each build's time
        self.mesh_s: list[float] = []       # untraced operations
        self.traced_s: list[float] = []     # their traced twins
        self.infer_s: list[float] = []
        self.busy_s = 0.0                   # timed wall time of the loop
        self.rounds = 0
        self.round_rates: list[float] = []  # operations per second
        self.ref_round_rates: list[float] = []  # the same, scaled
        self.kernel_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []       # run-level checks
        self.op_problems: list[str] = []
        self._stages: list[tuple] = []
        self._patches = Patches()
        self._patches.wrap(pooling, "pool_to_target", self._capturing)

    def _capturing(self, original):
        def capture(mesh, adj, features, target, *args, **kwargs):
            result = original(mesh, adj, features, target, *args, **kwargs)
            self._stages.append((mesh, adj, features, target, result))
            return result
        return capture

    def close(self) -> None:
        self._patches.undo()

    def setup(self, builders: list, digest, per_op: int) -> list:
        """Build every input once and return them.

        ``builders`` holds one callable per input, each seeded on its own.
        After every operation, ``rebuild`` builds the next ``per_op``
        inputs again, in turn, and checks that each comes out with the
        same ``digest``: the seed alone sets the inputs, traced or not.
        ``setup_s`` adds up each input's median build time. The repeats
        are spread over the run, so set-up is timed over the same stretch
        of the machine's varying speed as the operations. In a traced run
        every second round of builds is traced, and the first traced round
        follows the first build at once.
        """
        self._builders, self._digest, self._per_op = builders, digest, per_op
        self.build_s = [[] for _ in builders]
        self._builds = 0
        out = [self._build()[1] for _ in builders]
        self._digests = [digest(x) for x in out]
        if self.tracer is not None:
            for _ in builders:
                self._rebuild()
        return out

    def _build(self):
        k, cycle = self._builds % len(self._builders), self._builds // len(self._builders)
        self._builds += 1
        t0 = time.perf_counter()
        with _traced(self.tracer if cycle % 2 else None, "setup"):
            item = self._builders[k]()
        self.build_s[k].append(time.perf_counter() - t0)
        return k, item

    def _rebuild(self) -> None:
        k, item = self._build()
        problem = "set-up repeats of one seed gave different inputs"
        if self._digest(item) != self._digests[k] and problem not in self.problems:
            self.problems.append(problem)

    def rebuild(self) -> None:
        """Set-up repeats after one operation, outside its timing."""
        for _ in range(self._per_op):
            self._rebuild()

    def _call(self, fn, kind=None):
        self._stages = []
        tracer = self.tracer if kind else None
        t0 = time.perf_counter()
        with _traced(tracer, kind):
            result = fn()
        seconds = time.perf_counter() - t0
        stages, self._stages = self._stages, []
        return result, seconds, stages

    def timed(self, kind: str, fn, outputs):
        """Call ``fn`` and return its result, its wall time and the pooling
        stages it ran. In a traced run ``fn`` also runs traced, right
        before or after, and ``outputs(result)`` of the two calls must be
        bit-equal."""
        if self.tracer is None:
            out = self._call(fn)
            self.calibrate()
            return out
        got = {}
        for traced in ((True, False) if len(self.traced_s) % 2 else (False, True)):
            result, seconds, stages = self._call(fn, kind if traced else None)
            got[traced] = (result, seconds, stages, outputs(result))
        self.traced_s.append(got[True][1])
        mismatch = "traced outputs differ from untraced outputs"
        if got[True][3] != got[False][3] and mismatch not in self.problems:
            self.problems.append(mismatch)
        self.calibrate()
        return got[False][:3]

    def calibrate(self) -> None:
        """One reference kernel time, outside every timed interval."""
        self.kernel_s.append(reference_kernel())

    def attempt(self, what: str, fn):
        """One attempted operation; an exception counts it as failed and
        gives None."""
        self.attempted += 1
        try:
            return fn()
        except Exception as e:
            self.fail_op(what, [f"{type(e).__name__}: {e}"])
            return None

    def fail_op(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.op_problems) < 10:
            self.op_problems.append(f"{what}: {'; '.join(problems)}")

    def end_round(self, ops_before: int, busy_before: float) -> None:
        """The round's rate, and the same scaled by the median kernel time
        of the round, the one before its first operation included."""
        self.rounds += 1
        rate = (len(self.mesh_s) - ops_before) / (self.busy_s - busy_before)
        kernel = statistics.median(self.kernel_s[ops_before:len(self.mesh_s) + 1])
        self.round_rates.append(rate)
        self.ref_round_rates.append(rate * kernel / REF_KERNEL_S)


def _digest(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj)).hexdigest()


# ---------------------------------------------------------------------------
# training workloads


def _posed(mesh: core.Mesh, rng, jitter: float, name: str) -> core.Mesh:
    """Random rotation and translation, then uniform per-component jitter
    scaled by the mesh radius."""
    v = mesh.vertices @ data.random_rotation(rng).T + rng.uniform(-1, 1, size=3)
    radius = float(np.linalg.norm(v - v.mean(axis=0), axis=1).max())
    v = v + rng.uniform(-jitter * radius, jitter * radius, size=v.shape)
    return core.Mesh(v, mesh.faces, name=name)


def _training_makers(torus_resolutions) -> list:
    return ([(0, lambda: data.box(6))] * len(torus_resolutions)
            + [(1, lambda: data.icosphere(3, base="octahedron"))] * len(torus_resolutions)
            + [(2, lambda nu=nu, nv=nv: data.torus(nu, nv)) for nu, nv in torus_resolutions])


def _training_builders(seed: int, config: network.ModelConfig) -> list:
    """Training meshes, then held-out meshes: each one generated, posed,
    normalised and given its ``precompute_static``."""

    def build(k, label, make):
        rng = np.random.default_rng((seed, k))
        mesh = make()
        mesh = core.normalize_mesh(_posed(mesh, rng, TRAIN_JITTER,
                                          f"{label}-{mesh.num_faces}"))
        return mesh, label, network.precompute_static(mesh, config)

    makers = _training_makers(TORUS_TRAIN) + _training_makers(TORUS_HELD_OUT)
    return [lambda k=k, label=label, make=make: build(k, label, make)
            for k, (label, make) in enumerate(makers)]


def _step(item, params, config):
    mesh, label, static = item
    logits, tape = network.model_forward(mesh, params, config, static=static)
    loss, grad_logits = network.cross_entropy_loss(logits, label)
    grads = network.model_backward(tape, params, config, grad_logits)
    return logits, loss, grads


def _grad_bytes(grads) -> bytes:
    return b"".join(a.tobytes() for _, a in grads.named_arrays())


def _step_bytes(out) -> bytes:
    logits, loss, grads = out
    return logits.tobytes() + np.float64(loss).tobytes() + _grad_bytes(grads)


def run_training(seed: int, seconds: float, nopool: bool, tracer=None) -> Run:
    config = network.ModelConfig(num_classes=3, seed=seed,
                                 **({"t_schedule": NOPOOL_T_SCHEDULE} if nopool else {}))
    train_cfg = training.TrainConfig(seed=seed, threads=1)
    run = Run(tracer)
    try:
        # one input rebuilt after every operation
        items = run.setup(_training_builders(seed, config), _digest, 1)
        train_items = items[:3 * len(TORUS_TRAIN)]
        held_items = items[3 * len(TORUS_TRAIN):]
        params = network.init_params(config, np.random.default_rng(config.seed))
        if tracer is not None:
            tracer.conv_blocks.update({id(cp): i // config.convs_per_block
                                       for i, cp in enumerate(params.conv_layers)})
        optimizer = training.make_optimizer(train_cfg)
        order_rng = np.random.default_rng(train_cfg.seed)
        _step(train_items[0], params, config)   # warm-up, outside the timing
        reference_kernel()                       # the same for the kernel
        run.calibrate()
        while run.busy_s < seconds or run.rounds == 0:
            ops, busy = len(run.mesh_s), run.busy_s
            order = order_rng.permutation(len(train_items))
            for start in range(0, len(order), train_cfg.batch_size):
                batch = order[start:start + train_cfg.batch_size]
                acc = network.zeros_like_params(params)
                for i in batch:
                    item = train_items[int(i)]
                    out = run.attempt(item[0].name, lambda: run.timed(
                        "step", lambda: _step(item, params, config), _step_bytes))
                    if out is None:
                        continue
                    (logits, loss, grads), seconds_op, stages = out
                    t0 = time.perf_counter()
                    network.add_params(acc, grads, scale=1.0 / len(batch))
                    run.mesh_s.append(seconds_op)
                    run.busy_s += seconds_op + time.perf_counter() - t0
                    problems = _step_problems(logits, loss, stages, nopool,
                                              full=run.rounds == 0)
                    if problems:
                        run.fail_op(item[0].name, problems)
                    run.rebuild()
                t0 = time.perf_counter()
                with _traced(tracer, "optimizer", "training.optimizer"):
                    optimizer.step(params, acc)
                run.busy_s += time.perf_counter() - t0
            run.end_round(ops, busy)

        for mesh, label, static in held_items:
            def infer():
                t0 = time.perf_counter()
                logits, _ = network.model_forward(mesh, params, config, static=static)
                return logits, time.perf_counter() - t0
            out = run.attempt(mesh.name, infer)
            if out is None:
                continue
            run.infer_s.append(out[1])
            if not np.isfinite(out[0]).all():
                run.fail_op(mesh.name, ["non-finite held-out logits"])

        for k in FD_MESHES:
            run.problems += checks.directional_derivative_problems(
                train_items[k], params, config, seed + k)
        first = _grad_bytes(_step(train_items[0], params, config)[2])
        if _grad_bytes(_step(train_items[0], params, config)[2]) != first:
            run.problems.append("repeating a step changed its gradients")
    finally:
        run.close()
    return run


def _step_problems(logits, loss, stages, nopool: bool, full: bool) -> list[str]:
    """All checks in the first round, which steps every training mesh once;
    the cheap ones on every later operation."""
    out = []
    if not (np.isfinite(logits).all() and np.isfinite(loss)):
        out.append("non-finite logits or loss")
    if full:
        for b, stage in enumerate(stages):
            out += [f"pool stage {b}: {p}" for p in checks.stage_problems(*stage)]
    if nopool and sum(s[4].pass_count for s in stages):
        out.append("pooling ran a pass on train-nopool")
    return out


# ---------------------------------------------------------------------------
# pool-large


def _pool_builders(seed: int, workdir: str) -> list:
    """Write the pool-large meshes, each rigidly moved and jittered."""

    def build(k, name, make):
        rng = np.random.default_rng((seed, k))
        path = os.path.join(workdir, name + ".off")
        mesh = _posed(make(), rng, POOL_LARGE_JITTER, name)
        core.save_off(mesh, path)
        return path, mesh.num_faces

    return [lambda k=k, name=name, make=make: build(k, name, make)
            for k, (name, make) in enumerate(POOL_LARGE_MESHES)]


def _file_digest(job) -> str:
    with open(job[0], "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_off(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        lines = fh.read().split("\n")
    nv, nf = (int(x) for x in lines[1].split()[:2])
    verts = np.array([ln.split() for ln in lines[2:2 + nv]], dtype=np.float64)
    faces = np.array([ln.split()[1:] for ln in lines[2 + nv:2 + nv + nf]], dtype=np.int64)
    return verts.reshape(-1, 3), faces.reshape(-1, 3)


def run_pool_large(seed: int, seconds: float, workdir: str, tracer=None) -> Run:
    run = Run(tracer)
    try:
        os.makedirs(workdir, exist_ok=True)
        # every input rebuilt after every job
        jobs = run.setup(_pool_builders(seed, workdir), _file_digest, len(POOL_LARGE_MESHES))
        reference_kernel()   # warm-up, untimed
        run.calibrate()
        while run.busy_s < seconds or run.rounds == 0:
            ops, busy = len(run.mesh_s), run.busy_s
            for k, (path, faces) in enumerate(jobs):
                out_path = path[:-4] + ".pooled.off"
                argv = ["pool", path, "--target", str(faces // 4), "--weights",
                        "descriptor", "-o", out_path, "--seed", str(seed + k)]

                def job():
                    printed = io.StringIO()
                    with contextlib.redirect_stdout(printed):
                        rc = cli.main(argv)
                    return rc, printed.getvalue()

                def outputs(result):
                    rc, printed = result
                    with open(out_path, "rb") as fh:
                        # the printed line also holds the job's own timing
                        return rc, re.sub(r"seconds=\S+", "", printed), fh.read()

                out = run.attempt(path, lambda: run.timed("job", job, outputs))
                if out is None:
                    continue
                (rc, printed), seconds_op, stages = out
                run.mesh_s.append(seconds_op)
                run.busy_s += seconds_op
                problems = _job_problems(rc, printed, out_path, stages)
                if problems:
                    run.fail_op(os.path.basename(path), problems)
                run.rebuild()
            run.end_round(ops, busy)
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    return run


def _job_problems(rc: int, printed: str, out_path: str, stages) -> list[str]:
    if rc != 0:
        return [f"meshlearn pool exited {rc}"]
    if len(stages) != 1:
        return [f"{len(stages)} pooling stages instead of 1"]
    out = checks.stage_problems(*stages[0])
    pooled = stages[0][4]
    verts, faces = _read_off(out_path)
    if not (np.array_equal(verts, pooled.mesh.vertices)
            and np.array_equal(faces, pooled.mesh.faces)):
        out.append("saved OFF differs from the pooled mesh")
    if f"faces_after={pooled.mesh.num_faces} " not in printed:
        out.append("reported face count differs from the pooled mesh")
    return out


# ---------------------------------------------------------------------------
# metrics


def _ms_median(values: list[float]) -> float:
    return 1000.0 * statistics.median(values)


def ref_mesh_s(run: Run) -> list[float]:
    """Each operation's time scaled by REF_KERNEL_S over the mean of the
    kernel times right before and right after it."""
    k = run.kernel_s
    return [t * 2.0 * REF_KERNEL_S / (k[i] + k[i + 1]) for i, t in enumerate(run.mesh_s)]


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (sum(statistics.median(t) for t in run.build_s), "s"),
        "mesh_ms.p50": (_ms_median(ref_mesh_s(run)), "ref_ms"),
        "meshes_per_s": (statistics.median(run.ref_round_rates), "1/ref_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def trace_overhead_pct(run: Run) -> float:
    """Median, over the operations, of the traced call's time against its
    untraced twin's, made right before or after it."""
    ratios = [t / p for t, p in zip(run.traced_s, run.mesh_s)]
    return 100.0 * (statistics.median(ratios) - 1.0)


def extra_lines(run: Run) -> list[str]:
    """Metrics printed for reading only: the wall times behind the scaled
    ones; the p90 needs at least 100 operations, and only the training
    workloads have held-out inference (wall time)."""
    out = [f"wall mesh_ms.p50 {_ms_median(run.mesh_s):.4f} ms",
           f"wall meshes_per_s {statistics.median(run.round_rates):.4f} 1/s",
           f"reference kernel {_ms_median(run.kernel_s):.4f} ms median "
           f"(REF_KERNEL_S {1000.0 * REF_KERNEL_S:g} ms)"]
    n = len(run.mesh_s)
    if n >= 100:
        p90 = 1000.0 * statistics.quantiles(ref_mesh_s(run), n=10)[8]
        out.append(f"mesh_ms.p90 {p90:.4f} ref_ms (n={n})")
    if run.infer_s:
        out.append(f"infer_ms.p50 {_ms_median(run.infer_s):.4f} ms (n={len(run.infer_s)})")
    return out
