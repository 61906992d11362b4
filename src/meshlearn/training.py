"""The Adam optimizer and the training loop.

Everything is deterministic given the seed: dataset order, shuffling,
parameter init and gradient reduction order are all fixed. Meshes within
a batch may be processed by a thread pool; each per-mesh gradient set is
added to the batch sum as it arrives, in batch-index order, so the thread
count never changes the result.
"""

from __future__ import annotations

import copy
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import network as net
from .core import normalize_mesh


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning rate must be finite and >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class Adam:
    """First/second-moment recursion with bias correction."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: net.ModelParams, grads: net.ModelParams) -> None:
        self.t += 1
        b1t = 1.0 - self.BETA1 ** self.t
        b2t = 1.0 - self.BETA2 ** self.t
        for (name, p), (_, g) in zip(params.named_arrays(), grads.named_arrays()):
            m = self.m.get(name, np.zeros_like(p))
            v = self.v.get(name, np.zeros_like(p))
            m = self.BETA1 * m + (1 - self.BETA1) * g
            v = self.BETA2 * v + (1 - self.BETA2) * g * g
            self.m[name], self.v[name] = m, v
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.EPS)


def make_optimizer(cfg: TrainConfig) -> Adam:
    return Adam(cfg.learning_rate)


@dataclass
class EpochMetrics:
    epoch: int
    loss: float
    train_acc: float
    test_acc: float
    seconds: float
    stalls: int = 0

    def line(self) -> str:
        return (f"epoch={self.epoch} loss={self.loss:.6f} "
                f"train_acc={self.train_acc:.4f} test_acc={self.test_acc:.4f}"
                + (f" stalls={self.stalls}" if self.stalls else ""))


@dataclass
class TrainResult:
    params: net.ModelParams
    metrics: list[EpochMetrics]
    best_params: net.ModelParams
    best_test_acc: float
    best_epoch: int


def prepare(samples, config: net.ModelConfig):
    """Normalize meshes and cache their parameter-independent inputs."""
    out = []
    for mesh, label in samples:
        m = normalize_mesh(mesh)
        out.append((m, label, net.precompute_static(m, config)))
    return out


def _forward_backward(item, params, config):
    mesh, label, static = item
    logits, tape = net.model_forward(mesh, params, config, static=static)
    loss, grad_logits = net.cross_entropy_loss(logits, label)
    grads = net.model_backward(tape, params, config, grad_logits)
    stalled = any(bt.pool.stalled for bt in tape.blocks)
    return loss, int(np.argmax(logits) == label), grads, stalled


def _predict(item, params, config):
    mesh, label, static = item
    logits, _ = net.model_forward(mesh, params, config, static=static)
    return int(np.argmax(logits) == label)


def _map(fn, items, threads: int):
    """Yield ``fn`` of each item, in order (``ex.map`` keeps it), on
    ``threads`` threads."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            yield from ex.map(fn, items)
    else:
        yield from map(fn, items)


def evaluate(prepared, params, config, threads: int = 1) -> list[int]:
    """Per prepared sample, 1 if its prediction is its label, else 0."""
    if not prepared:
        raise ValueError("empty evaluation split")
    return list(_map(lambda it: _predict(it, params, config), prepared, threads))


def train(train_samples, test_samples, model_config: net.ModelConfig,
          train_config: TrainConfig, progress=None,
          stop_at_test_acc: float | None = None) -> TrainResult:
    """Train the classifier; deterministic given the seeds.

    ``train_samples``/``test_samples`` are lists of (Mesh, label). Emits
    per-epoch metrics and keeps the parameters with the best test
    accuracy. ``stop_at_test_acc`` ends training early once reached.
    """
    if not train_samples:
        raise ValueError("empty training split")
    labels = [l for _, l in train_samples] + [l for _, l in test_samples]
    if any(l < 0 or l >= model_config.num_classes for l in labels):
        raise ValueError("label out of range for configured class count")
    rng = np.random.default_rng(train_config.seed)
    params = net.init_params(model_config, np.random.default_rng(model_config.seed))
    opt = make_optimizer(train_config)
    tr = prepare(train_samples, model_config)
    te = prepare(test_samples, model_config)

    metrics: list[EpochMetrics] = []
    best_acc, best_epoch = -1.0, -1
    best_params = copy.deepcopy(params)
    for epoch in range(train_config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(tr))
        losses, hits, stalls = [], [], 0
        for start in range(0, len(order), train_config.batch_size):
            batch = [tr[i] for i in order[start:start + train_config.batch_size]]
            results = _map(lambda it: _forward_backward(it, params, model_config),
                           batch, train_config.threads)
            acc_grads = net.zeros_like_params(params)
            for loss, hit, grads, stalled in results:  # fixed reduction order
                net.add_params(acc_grads, grads, scale=1.0 / len(batch))
                losses.append(loss)
                hits.append(hit)
                stalls += int(stalled)
            opt.step(params, acc_grads)
        test_acc = (float(np.mean(evaluate(te, params, model_config, train_config.threads)))
                    if te else 0.0)
        em = EpochMetrics(epoch=epoch, loss=float(np.mean(losses)),
                          train_acc=float(np.mean(hits)), test_acc=test_acc,
                          seconds=time.perf_counter() - t0, stalls=stalls)
        metrics.append(em)
        if progress is not None:
            progress(em)
        if test_acc > best_acc:
            best_acc, best_epoch = test_acc, epoch
            best_params = copy.deepcopy(params)
        if stop_at_test_acc is not None and test_acc >= stop_at_test_acc:
            break
    return TrainResult(params=params, metrics=metrics, best_params=best_params,
                       best_test_acc=best_acc, best_epoch=best_epoch)
