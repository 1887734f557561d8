"""convncf benchmark: training, evaluation and recommend speed on fixed workloads.

Run one workload (what a measurement harness calls):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 60 --trace 0

or every workload, each in its own process, with a summary at the end:

    python3 perfbench/run.py --workload all --seed 1 --seconds 60

A run builds its input from ``--seed`` with ``synthetic.planted_interactions``,
writes it, ingests it with ``data.load_interactions`` and
``data.split_leave_latest_out``, and initialises the model. Then it repeats
rounds until ``--seconds`` is used up. A round repeats that set-up
``setups_per_round`` times, trains a fresh copy of the initial model with
``training.train`` for a fixed number of epochs, round-trips it through a
checkpoint and serves full-catalog recommend requests from the loaded model,
closed loop with one client. Every round repeats the same computation, so
every round must reproduce the first round's digest. Host probes between the
timed intervals scale every time to a nominal host speed (see ``probe``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one untraced
round, then traced rounds, and prints the per-layer metrics (see spans.py).
The last line of standard output is one JSON object; see README.md for the
metric definitions. The exit code is 0 only if every correctness check passed.
"""

from __future__ import annotations

import argparse
import bisect
import copy
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
TOPK = 10


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; why each was chosen is in README.md."""

    users: int  # planted_interactions M
    items: int  # planted_interactions N; the catalogue is the items that occur
    per_user: int
    K: int
    C: int
    variant: str
    epochs: int  # per training.train call, one call per round
    eval_users: int  # evaluated users per split, 0 = all
    requests: int  # recommend requests per round
    setups_per_round: int


WORKLOADS = {
    "desk": Workload(
        users=200, items=300, per_user=20, K=4, C=8, variant="mf",
        epochs=2, eval_users=0, requests=500, setups_per_round=2,
    ),
    "flagship": Workload(
        users=50, items=2000, per_user=4, K=64, C=32, variant="mf",
        epochs=1, eval_users=2, requests=12, setups_per_round=3,
    ),
}

# Sizes for the smoke test: same model shapes, a few seconds per workload.
TINY = dict(users=12, items=40, per_user=5, epochs=1, eval_users=2, requests=4, setups_per_round=1)

END_TO_END = (
    ("setup_s", "s"),
    ("train_triples_per_s", "1/s"),
    ("eval_users_per_s", "1/s"),
    ("recommend_ms_mean", "ms"),
    ("recommend_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# (metric, span name, stat, unit); stat is a column of Tracer.table.
PER_LAYER = (
    ("training.train_step.calls", "training.train_step", "calls", "count"),
    ("training.train_step.self_s", "training.train_step", "self_s", "s"),
    ("training.compute_triple_gradients.self_s", "training.compute_triple_gradients", "self_s", "s"),
    ("training.adagrad_step.calls", "training.adagrad_step", "calls", "count"),
    ("training.adagrad_step.s", "training.adagrad_step", "s", "s"),
    ("tensor.conv2x2s2_forward.calls", "tensor.conv2x2s2_forward", "calls", "count"),
    ("tensor.conv2x2s2_forward.s", "tensor.conv2x2s2_forward", "s", "s"),
    ("tensor.conv2x2s2_backward.calls", "tensor.conv2x2s2_backward", "calls", "count"),
    ("tensor.conv2x2s2_backward.s", "tensor.conv2x2s2_backward", "s", "s"),
    ("model.predict_batch.calls", "model.predict_batch", "calls", "count"),
    ("model.predict_batch.s", "model.predict_batch", "s", "s"),
    ("model.predict_batch.candidates", "model.predict_batch", "candidates", "count"),
    ("model.head_forward.calls", "model.head_forward", "calls", "count"),
    ("model.head_forward.s", "model.head_forward", "s", "s"),
    ("model.head_backward.s", "model.head_backward", "s", "s"),
    ("model.merge.s", "model.merge", "s", "s"),
    ("model.merge_backward.s", "model.merge_backward", "s", "s"),
    ("embeddings.user_embedding.calls", "embeddings.user_embedding", "calls", "count"),
    ("embeddings.user_embedding.s", "embeddings.user_embedding", "s", "s"),
    ("embeddings.scatter_user_gradient.calls", "embeddings.scatter_user_gradient", "calls", "count"),
    ("embeddings.scatter_user_gradient.s", "embeddings.scatter_user_gradient", "s", "s"),
    ("embeddings.item_embedding.calls", "embeddings.item_embedding", "calls", "count"),
    ("embeddings.item_embedding.s", "embeddings.item_embedding", "s", "s"),
    ("data.sample_negative.calls", "data.sample_negative", "calls", "count"),
    ("data.sample_negative.s", "data.sample_negative", "s", "s"),
    ("data.minibatches.s", "data.minibatches", "s", "s"),
    ("data.load_interactions.s", "data.load_interactions", "s", "s"),
    ("data.split_leave_latest_out.s", "data.split_leave_latest_out", "s", "s"),
    ("synthetic.planted_interactions.s", "synthetic.planted_interactions", "s", "s"),
    ("evaluation.evaluate.calls", "evaluation.evaluate", "calls", "count"),
    ("evaluation.evaluate.s", "evaluation.evaluate", "s", "s"),
    ("evaluation.evaluate.users", "evaluation.evaluate", "users", "count"),
    ("evaluation.rank_of_target.s", "evaluation.rank_of_target", "s", "s"),
    ("model.save_checkpoint.s", "model.save_checkpoint", "s", "s"),
    ("model.save_checkpoint.bytes", "model.save_checkpoint", "bytes", "B"),
    ("model.load_checkpoint.s", "model.load_checkpoint", "s", "s"),
)
# Derived per-layer metrics, computed in layer_metrics.
DERIVED = (
    ("tensor.conv.flops", "flop"),
    ("tensor.conv.gflops_per_s", "GFLOP/s"),
    ("model.predict_batch.us_per_candidate", "us"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)


# Host-speed probe. On a shared host both CPUs have fast and slow spells,
# from under a second to minutes long and up to 2x apart, seen alike in wall
# and CPU time with no steal time, so a run's raw figures depend on the
# spells it caught. A fixed loop of Python calls and small numpy calls,
# which shares no code with convncf, runs between the timed intervals, each
# time for at least PROBE_SHARE of the time since the previous probe, so a
# long interval gets a long probe; each interval's time is scaled by
# PROBE_NOMINAL_S over the mean loop time of the probes just before and
# just after it. The scaled figures are the gated ones; the raw figures are
# printed beside them. See README.md.
PROBE_NOMINAL_S = 0.0026  # median probe time on the 2-vCPU Xeon VM the benchmark was written on
PROBE_SHARE = 0.03
PROBE_GAP_S = 0.005  # between recommend requests, probe once this much time has passed
_PROBE_ARRAYS = None


def _add(x: float, y: float) -> float:
    return x + y


def probe() -> float:
    """Seconds one pass of the fixed reference loop takes: Python calls, a
    dict and a list per step, and small numpy products and reductions, the
    kinds of work a convncf training step or request does."""
    global _PROBE_ARRAYS
    if _PROBE_ARRAYS is None:
        _PROBE_ARRAYS = (np.linspace(-1.0, 1.0, 8), np.linspace(0.0, 1.0, 64).reshape(8, 8))
    v, m = _PROBE_ARRAYS
    t0 = perf_counter()
    acc = 0.0
    for i in range(300):
        o = np.outer(v, v)
        acc = _add(acc, float(np.einsum("ij,ij->", o, m)))
        {"step": i, "outer": o}
        [k for k in range(20)]
    return perf_counter() - t0


# BLAS runs one thread unless the caller sets these. On a 2-vCPU machine the
# default two threads made the set-up's one sizeable matrix product (in
# synthetic.planted_interactions) ~3x slower in some spells and not in
# others, and changed nothing else measured; see README.md. machine_facts
# records the setting in effect.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def import_convncf():
    """Import convncf from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "convncf", "__init__.py")):
        raise SystemExit(f"error: convncf sources not found under {src}")
    for key in BLAS_THREAD_ENV:
        os.environ.setdefault(key, "1")
    sys.path.insert(0, src)
    global np, synthetic, data, embeddings, model, training
    import numpy as np
    from convncf import data, embeddings, model, synthetic, training


# ---------------------------------------------------------------------------
# correctness checks


class Checks:
    """Counts checks attempted and failed; reports the first 20 failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def ok(self, cond: bool, what: str) -> bool:
        self.attempted += 1
        if not cond:
            self.fail(what)
        return cond

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"check failed: {what}", file=sys.stderr)


def check_training(result, sample_size: int, checks: Checks) -> None:
    for rec in result.history:
        checks.ok(math.isfinite(rec.mean_loss), f"epoch {rec.epoch}: mean_loss {rec.mean_loss!r} not finite")
        for split, res in (("val", rec.val), ("test", rec.test)):
            values = list(res.hr.values()) + list(res.ndcg.values())
            checks.ok(all(0.0 <= v <= 1.0 for v in values), f"epoch {rec.epoch} {split}: HR/NDCG outside [0, 1]")
            checks.ok(
                res.users_evaluated == sample_size,
                f"epoch {rec.epoch} {split}: {res.users_evaluated} users evaluated, expected {sample_size}",
            )
    for name, arr in model.section_arrays(result.spec, result.tables).items():
        checks.ok(bool(np.isfinite(arr).all()), f"section {name} has non-finite values")


def setup_digest(splits, spec, tables) -> str:
    """Hash of what a set-up produces, to check that repeated set-ups agree."""
    h = hashlib.sha256(repr((splits.train.n_interactions, sorted(splits.test))).encode())
    for name, arr in model.section_arrays(spec, tables).items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def check_checkpoint(spec, tables, spec2, tables2, checks: Checks) -> None:
    a = model.section_arrays(spec, tables)
    b = model.section_arrays(spec2, tables2)
    checks.ok(list(a) == list(b), f"checkpoint sections {list(a)} != {list(b)}")
    for name in a.keys() & b.keys():
        x, y = np.asarray(a[name]), np.asarray(b[name])
        same = x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        checks.ok(same, f"checkpoint section {name} is not bit-identical after reload")


def check_recommend(items, scores, history: set, n_candidates: int, checks: Checks) -> None:
    ok = (
        len(items) == min(TOPK, n_candidates)
        and len(set(items)) == len(items)
        and not history.intersection(items)
        and bool(np.isfinite(scores).all())
        and bool(np.all(scores[1:] <= scores[:-1]))
    )
    checks.ok(ok, f"recommend list {items} / scores {scores.tolist()} breaks the top-k contract")


# ---------------------------------------------------------------------------
# workload steps


@dataclass
class Fixture:
    workload: Workload
    seed: int
    splits: object
    eval_splits: object
    spec: object
    tables: object
    config: object
    request_users: list[int]
    workdir: str
    setup_digest: str  # what every repeated set-up must reproduce


def set_up(w: Workload, seed: int, workdir: str):
    """Generate, write, ingest and split the data; initialise tables and head."""
    triples = synthetic.planted_interactions(M=w.users, N=w.items, per_user=w.per_user, seed=seed)
    path = os.path.join(workdir, "interactions.tsv")
    synthetic.write_interactions(triples, path)
    ds = data.load_interactions(path)
    splits = data.split_leave_latest_out(ds, data.derive_seed(seed, "split"))
    variant = embeddings.Variant(w.variant)
    tables = embeddings.init_tables(ds.M, ds.N, w.K, variant, data.derive_seed(seed, "init"))
    head = model.new_head(
        model.HeadKind.CNN, model.MergeKind.OUTER, w.K, w.C, 1, data.derive_seed(seed, "init_head")
    )
    spec = model.ModelSpec(variant=variant, merge=model.MergeKind.OUTER, head=head, K=w.K)
    return splits, spec, tables


def make_fixture(w: Workload, seed: int, workdir: str) -> Fixture:
    """Set up once; fix the evaluated user sample and the recommend request order.

    Train data stays whole; only the evaluation dicts are cut to the sample.
    """
    splits, spec, tables = set_up(w, seed, workdir)
    rng = np.random.default_rng([seed, 7])
    users = sorted(splits.test)
    sample = users
    if w.eval_users and w.eval_users < len(users):
        sample = sorted(int(u) for u in rng.choice(users, size=w.eval_users, replace=False))
    eval_splits = data.SplitSet(
        train=splits.train,
        validation={u: splits.validation[u] for u in sample},
        test={u: splits.test[u] for u in sample},
        eval_negatives={u: splits.eval_negatives[u] for u in sample},
        skipped_users=splits.skipped_users,
    )
    order = [int(u) for u in rng.permutation(users)]
    request_users = [order[k % len(order)] for k in range(w.requests)]
    config = training.TrainConfig(epochs=w.epochs, seed=seed)
    return Fixture(
        w, seed, splits, eval_splits, spec, tables, config, request_users, workdir,
        setup_digest(splits, spec, tables),
    )


def timed_train(fx: Fixture, probes: Probes):
    """training.train with one timer around its evaluate calls, which also
    takes a host probe before each call, outside the timed intervals.

    Returns (result, [(start, end)] of each epoch's training, [(start, end,
    users)] per evaluate call). ``train`` evaluates val then test after every
    epoch, so an epoch's training runs from the end of the previous epoch's
    test evaluation (or the start of ``train``) to the entry into its val
    evaluation.
    """
    inner = training.evaluate
    stamps: list[tuple[float, float, float, int]] = []  # (entry, start, end, users) per evaluate call

    def evaluate(*args, **kwargs):
        entry = perf_counter()
        probes.take()
        t0 = perf_counter()
        res = inner(*args, **kwargs)
        stamps.append((entry, t0, perf_counter(), res.users_evaluated))
        return res

    spec, tables = copy.deepcopy((fx.spec, fx.tables))
    training.evaluate = evaluate
    try:
        t0 = perf_counter()
        result = training.train(spec, tables, fx.eval_splits, fx.config)
    finally:
        training.evaluate = inner
    starts = [t0] + [end for _, _, end, _ in stamps[1::2]]
    epochs = [(start, entry) for start, (entry, _, _, _) in zip(starts, stamps[0::2])]
    return result, epochs, [(start, end, n) for _, start, end, n in stamps]


def recommend(spec, tables, splits, u: int):
    """What ``convncf recommend`` does after its loads: candidates outside
    the history, predict_batch, stable top-k."""
    history = splits.history_items(u, include_validation=True)
    exclude = set(history)
    candidates = np.array([i for i in range(splits.train.N) if i not in exclude], dtype=np.int64)
    scores = model.predict_batch(spec, tables, u, candidates, history)
    order = np.argsort(-scores, kind="stable")[:TOPK]
    return candidates[order].tolist(), scores[order], exclude, candidates


@dataclass
class Round:
    """Timed samples of one round, each as (seconds, mean seconds of the host
    probes just before and just after it)."""

    setups: list[tuple[float, float]]
    triples_per_epoch: int
    epochs: list[tuple[float, float]]  # training of each epoch, evaluation left out
    evals: list[tuple[int, float, float]]  # (users, seconds, probe seconds) per evaluate call
    requests: list[tuple[float, float]]
    digest: dict
    wall: float = 0.0


class NoTrace:
    """Stands in for a spans.Tracer where nothing is traced."""

    def span(self, _name: str):
        return nullcontext()

    def phase_of(self, _name: str):
        return nullcontext()


NO_TRACE = NoTrace()


class Probes:
    """The host probes of one round: start time and mean seconds per pass."""

    def __init__(self, tr) -> None:
        self.tr = tr
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.last_end = 0.0

    def take(self) -> None:
        with checking(self.tr):
            start = perf_counter()
            budget = PROBE_SHARE * (start - self.last_end) if self.at else 0.0
            passes = [probe()]
            while perf_counter() - start < budget:
                passes.append(probe())
            self.at.append(start)
            self.seconds.append(statistics.fmean(passes))
            self.last_end = perf_counter()

    def take_if_due(self) -> None:
        if perf_counter() - self.last_end >= PROBE_GAP_S:
            self.take()

    def around(self, start: float, end: float) -> float:
        """Mean seconds of the last probe before ``start`` and the first after ``end``."""
        i = bisect.bisect_right(self.at, start) - 1
        j = bisect.bisect_left(self.at, end)
        return (self.seconds[i] + self.seconds[j]) / 2

    def sample(self, start: float, end: float) -> tuple[float, float]:
        return end - start, self.around(start, end)


@contextmanager
def checking(tr):
    """Checks and host probes run in their own trace phase, kept out of the
    per-layer figures."""
    with tr.phase_of("checks"), tr.span("bench.checks"):
        yield


def run_round(fx: Fixture, checks: Checks, tr) -> Round:
    probes = Probes(tr)
    probes.take()
    setups = []
    for _ in range(fx.workload.setups_per_round):
        with tr.phase_of("setup"), tr.span("bench.setup"):
            t0 = perf_counter()
            again = set_up(fx.workload, fx.seed, fx.workdir)
            setups.append((t0, perf_counter()))
        probes.take()
        with checking(tr):
            checks.ok(setup_digest(*again) == fx.setup_digest, "a repeated set-up differs from the first")

    result, epochs, evals = timed_train(fx, probes)
    probes.take()
    with checking(tr):
        check_training(result, len(fx.eval_splits.test), checks)

    path = os.path.join(fx.workdir, "model.ckpt")
    model.save_checkpoint(result.spec, result.tables, path)
    spec2, tables2 = model.load_checkpoint(path)
    with checking(tr):
        check_checkpoint(result.spec, result.tables, spec2, tables2, checks)

    probes.take()
    requests, lists = [], []
    with tr.span("bench.recommend"):
        for u in fx.request_users:
            t0 = perf_counter()
            items, scores, history, candidates = recommend(spec2, tables2, fx.splits, u)
            requests.append((t0, perf_counter()))
            lists.append((u, items, scores, history, candidates))
            probes.take_if_due()
    probes.take()

    with checking(tr):
        for u, items, scores, history, candidates in lists:
            check_recommend(items, scores, history, candidates.size, checks)
        u, _, _, history, candidates = lists[0]
        sub = candidates[:64]
        hist = fx.splits.history_items(u, include_validation=True)
        mem = model.predict_batch(result.spec, result.tables, u, sub, hist)
        loaded = model.predict_batch(spec2, tables2, u, sub, hist)
        checks.ok(mem.tobytes() == loaded.tobytes(), "loaded-model scores differ from in-memory scores")

    item_ids = fx.splits.train.item_ids
    rec_hash = hashlib.sha256()
    for u, items, *_ in lists:
        rec_hash.update(f"{u}:{','.join(item_ids[i] for i in items)};".encode())
    last = result.history[-1]
    digest = {
        "mean_loss": repr(last.mean_loss),
        "test_hr@10": repr(last.test.hr[10]),
        "test_ndcg@10": repr(last.test.ndcg[10]),
        "recommend_sha256": rec_hash.hexdigest(),
    }
    return Round(
        setups=[probes.sample(a, b) for a, b in setups],
        triples_per_epoch=fx.splits.train.n_interactions,
        epochs=[probes.sample(a, b) for a, b in epochs],
        evals=[(n, *probes.sample(a, b)) for a, b, n in evals],
        requests=[probes.sample(a, b) for a, b in requests],
        digest=digest,
    )


# ---------------------------------------------------------------------------
# machine facts and metrics


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def median_of_means(values: list[float]) -> float:
    """Median of the means of 3 interleaved subsets (every third value).
    Each subset spans the whole run."""
    k = min(3, len(values))
    return statistics.median(statistics.fmean(values[g::k]) for g in range(k))


def end_to_end(rounds: list[Round], scale: bool = True) -> dict[str, float]:
    """Times are totals or means over the whole run, never medians of short
    samples: a mean moves with the share of fast and slow host time a run
    caught, while a median of short samples jumps from one speed to the
    other when that share is near a half. With ``scale``, every sample is
    scaled by PROBE_NOMINAL_S over the probe time around it."""

    def t(seconds: float, probe_s: float) -> float:
        return seconds * PROBE_NOMINAL_S / probe_s if scale else seconds

    latencies_ms = [1e3 * t(*x) for r in rounds for x in r.requests]
    evals = [(n, t(s, p)) for r in rounds for n, s, p in r.evals]
    return {
        "setup_s": median_of_means([t(*x) for r in rounds for x in r.setups]),
        "train_triples_per_s": sum(r.triples_per_epoch * len(r.epochs) for r in rounds)
        / sum(t(*x) for r in rounds for x in r.epochs),
        "eval_users_per_s": sum(n for n, _ in evals) / sum(s for _, s in evals),
        "recommend_ms_mean": statistics.fmean(latencies_ms),
        "recommend_ms_p90": float(np.percentile(latencies_ms, 90)),
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(table: dict, overhead_s: float, coverage: float) -> dict[str, float]:
    def get(name, stat):
        return table.get(name, {}).get(stat, 0.0)

    out = {metric: get(name, stat) for metric, name, stat, _ in PER_LAYER}
    flops = get("tensor.conv2x2s2_forward", "flops") + get("tensor.conv2x2s2_backward", "flops")
    conv_s = get("tensor.conv2x2s2_forward", "s") + get("tensor.conv2x2s2_backward", "s")
    candidates = get("model.predict_batch", "candidates")
    out["tensor.conv.flops"] = flops
    out["tensor.conv.gflops_per_s"] = flops / conv_s / 1e9 if conv_s else 0.0
    out["model.predict_batch.us_per_candidate"] = (
        1e6 * get("model.predict_batch", "s") / candidates if candidates else 0.0
    )
    out["trace.overhead_s"] = overhead_s
    out["trace.coverage"] = coverage
    return out


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, w: Workload, seed: int, seconds: float, trace: bool) -> int:
    from spans import Tracer

    deadline = perf_counter() + seconds
    checks = Checks()
    tracer = Tracer() if trace else None
    absent: list[str] = []
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        fx = make_fixture(w, seed, workdir)
        rounds: list[Round] = []  # untraced rounds
        traced: list[Round] = []
        while True:
            tracing = tracer is not None and bool(rounds)
            if tracing and not traced:
                absent = tracer.install()
            tr = tracer if tracing else NO_TRACE
            t0 = perf_counter()
            try:
                with tr.span("bench.round"):
                    r = run_round(fx, checks, tr)
            except Exception:
                traceback.print_exc()
                checks.fail(f"round {len(rounds) + len(traced) + 1} raised")
                break
            r.wall = perf_counter() - t0
            (traced if tracing else rounds).append(r)
            first = rounds[0].digest
            checks.ok(r.digest == first, f"round digest {r.digest} != first round {first}")
            if perf_counter() + r.wall > deadline and (not tracer or traced):
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if not rounds or (tracer and not traced):
        print("error: no round completed", file=sys.stderr)
        return 1
    all_rounds = rounds + traced
    attempted = checks.attempted + sum(
        r.triples_per_epoch * len(r.epochs) + sum(n for n, _, _ in r.evals) + len(r.requests) for r in all_rounds
    )
    facts = machine_facts()
    digest = rounds[0].digest
    latencies = [t for r in rounds for t, _ in r.requests]
    p50, p90 = np.percentile(latencies, [50, 90])
    samples = {
        "setups": sum(len(r.setups) for r in rounds),
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "recommend_requests": len(latencies),
        "recommend_beyond_p90": sum(1 for t in latencies if t > p90),
        "recommend_ms_p50": 1e3 * float(p50),  # raw, not gated: see README.md
        "probe_ms_median": 1e3 * statistics.median(p for r in rounds for _, p in r.epochs + r.requests),
        "eval_calls_per_round": 2 * w.epochs,
    }
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"digest {name} seed={seed} " + json.dumps(digest, sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))

    if tracer:
        units = {"setup": w.setups_per_round * len(traced), "round": len(traced)}
        table = tracer.table(units)
        overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in rounds)
        traced_wall = sum(r.wall for r in traced) - tracer.seconds("checks", "bench.checks")
        coverage = tracer.covered_seconds(("setup", "round")) / traced_wall
        values = layer_metrics(table, overhead, coverage)
        units_of = {m: u for m, _, _, u in PER_LAYER} | dict(DERIVED)
        report = {
            "workload": name, "seed": seed, "machine": facts, "digest": digest, "samples": samples,
            "units": units, "absent": absent, "table": table, "spans": tracer.span_records(),
        }
        out_path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
    else:
        values = end_to_end(rounds)
        raw = end_to_end(rounds, scale=False)
        print("raw " + json.dumps(raw))
        units_of = dict(END_TO_END)
        report = {
            "workload": name, "seed": seed, "machine": facts, "digest": digest, "samples": samples, "raw": raw,
            "rounds": [r.__dict__ for r in rounds],
        }
        out_path = os.path.join(OUT, f"result-{name}-seed{seed}.json")
    metrics = {k: {"value": v, "unit": units_of[k]} for k, v in values.items()}
    report["metrics"] = metrics
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    for k, m in metrics.items():
        print(f"  {k:<46} {m['value']:>14.6g} {m['unit']}")
    if absent:
        print("absent " + json.dumps(absent))
    print(f"wrote {os.path.relpath(out_path, ROOT)}")
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status, summary = 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(f"== {name}")
        print(proc.stdout, end="")
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[name] = None
    print("== summary")
    for name, res in summary.items():
        if res is None:
            print(f"{name}: no result")
            continue
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for k, m in res["metrics"].items():
            print(f"  {k:<46} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args(argv)
    import_convncf()
    if args.workload == "all":
        return run_all(args)
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = replace(w, **TINY)
    return run_workload(args.workload, w, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
