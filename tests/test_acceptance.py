"""End-to-end acceptance gate.

Nine checks: parameter-count arithmetic, the finite-difference gradient
suite, kernel oracles, receptive-field coverage, pairwise-loss calibration,
ranking-metric unit values, desk-scale learning margins, byte-level
determinism, and stability across feature-map counts. Each test prints one
`[criterion N] PASS/FAIL` line (bypassing pytest capture so the gate lines
always show in a plain `pytest -v` log) and then asserts.

The learning checks run a planted-structure fixture small enough for a
laptop, with K=4 embeddings (deeper towers die more often at this scale)
and small tower penalties (regularization applies per training triple,
thousands of applications per epoch here, so the full-scale default
lambdas would crush a desk-scale tower).

Ranking metrics on this engine are only meaningful for a live model. The
optimistic rank rule scores an all-tied candidate list as a top-1 hit, so
a conv stack whose shared per-layer bias walks past its pre-activation
scale (killing every ReLU, freezing training, pinning the pairwise loss at
ln 2) reports HR = 1.0, and a partially dead stack that collapses many
candidates onto one exact score inflates HR the same way. Both failure
shapes appear at this scale, sometimes for a single epoch mid-window. The
learning criteria therefore guard their headline numbers twice: every
epoch in the averaged window must be free of the all-tied signature, and
the end-state model must score essentially all users without exact target
ties. Numbers quoted from a run that fails either guard are garbage, so
the guards are part of the criteria, not optional hygiene.

Criterion 9 encodes a stability-across-feature-map-counts property that
this fixture's runs do not meet, and the measured cause is the per-triple
tower L2, not a weak two-map tower. Epoch 1 runs without L2 and every width
learns (loss 0.62 / 0.49 / 0.38 for C = 2 / 8 / 32). From epoch 2 the tower
penalties, added at every triple, shrink all three towers: by epochs 3-5
each mean loss sits within 1e-4 of ln 2. C=2's 0.272 and C=32's 0.231 are
then tie-inflated readings of collapsed towers (each window holds two
all-tied epochs), and C=8's 0.186 is a collapsed tower that keeps the
pretrained MF ranking. With the tower lambdas divided by 512, about one
penalty per 512-triple batch, the towers stay live and C=2 reads 0.244,
C=8 and C=32 0.265. The check asserts the property anyway and is expected
to fail; see the printed band and liveness flags for the diagnosis rather
than trusting any single averaged number.
"""

import contextlib
import copy
import io
import math
import sys
import time

import numpy as np
import pytest

import _oracles
from convncf.cli import main
from convncf.data import derive_seed, load_interactions, split_leave_latest_out
from convncf.embeddings import Variant, init_tables
from convncf.evaluation import (
    evaluate,
    hr_at_k,
    make_itempop,
    ndcg_at_k,
    rolling_last10,
)
from convncf.gradcheck import finite_diff_check, format_report
from convncf.model import (
    HeadKind,
    MergeKind,
    ConvWork,
    ModelSpec,
    convncf_backward,
    convncf_forward,
    head_views,
    init_conv_stack,
    merge,
    new_head,
    predict_batch,
)
from convncf.synthetic import planted_interactions, write_interactions
from convncf.tensor import conv2x2s2_forward, from_quadtree, to_quadtree
from convncf.training import TrainConfig, pretrain, train

# --- learning-experiment constants (criteria 7-9) --------------------------
FIXTURE = dict(M=200, N=300, rank=8, per_user=20, noise=0.05, seed=0)
SPLIT_SEED = 97
RUN_SEED = 97
K_EXP = 4
C_SWEEP = (2, 8, 32)
C_MAIN = 8  # the run criterion 7 reads
LR_NET = 0.01
LAM3 = 1.0
LAM4 = 0.1
PRE_EPOCHS = 40
LN2 = math.log(2.0)


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {status}: {detail}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {n}: {detail}"


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


class Lab:
    """Shared, lazily built experiment artifacts with per-artifact costs."""

    def __init__(self, root):
        self.root = root
        self.dataset = str(root / "interactions.tsv")
        write_interactions(planted_interactions(**FIXTURE), self.dataset)
        ds = load_interactions(self.dataset)
        self.splits = split_leave_latest_out(ds, derive_seed(SPLIT_SEED, "split"))
        self.cost = {}
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            t0 = time.time()
            self._cache[key] = build()
            self.cost[key] = time.time() - t0
        return self._cache[key]

    def itempop_hr10(self):
        def build():
            spec, tables = make_itempop(self.splits.train)
            return evaluate(spec, tables, self.splits, which="test").hr[10]

        return self._get("itempop", build)

    def mf_run(self):
        def build():
            cfg = TrainConfig(
                lambda3=0.0, lambda4=0.0, epochs=30, seed=RUN_SEED, epochs_pretrain=0
            )
            tables = init_tables(
                self.splits.train.M, self.splits.train.N, K_EXP,
                Variant.MF, derive_seed(RUN_SEED, "init"),
            )
            spec = ModelSpec(
                variant=Variant.MF, merge=MergeKind.INNER,
                head=new_head(HeadKind.IDENTITY, MergeKind.INNER, K_EXP, 1, 1, 0),
                K=K_EXP,
            )
            return train(spec, tables, self.splits, cfg)

        return self._get("mf", build)

    def warm_tables(self):
        def build():
            cfg = TrainConfig(epochs=30, seed=RUN_SEED, epochs_pretrain=PRE_EPOCHS)
            return pretrain(Variant.MF, self.splits, cfg, K_EXP).tables

        return self._get("pretrain", build)

    def conv_run(self, C, epochs=30, warm=True):
        key = f"conv{C}" if warm else f"conv{C}cold{epochs}"

        def build():
            cfg = TrainConfig(
                lr_net=LR_NET, lambda3=LAM3, lambda4=LAM4, epochs=epochs,
                seed=RUN_SEED, epochs_pretrain=PRE_EPOCHS if warm else 0,
            )
            if warm:
                tables = copy.deepcopy(self.warm_tables())
            else:
                tables = init_tables(
                    self.splits.train.M, self.splits.train.N, K_EXP,
                    Variant.MF, derive_seed(RUN_SEED, "init"),
                )
            head = new_head(
                HeadKind.CNN, MergeKind.OUTER, K_EXP, C, 2,
                derive_seed(RUN_SEED, "init_head"),
            )
            spec = ModelSpec(
                variant=Variant.MF, merge=MergeKind.OUTER, head=head, K=K_EXP
            )
            return train(spec, tables, self.splits, cfg)

        return self._get(key, build)


@pytest.fixture(scope="session")
def lab(tmp_path_factory):
    return Lab(tmp_path_factory.mktemp("acceptance"))


def last10_hr10(result):
    return rolling_last10([r.test for r in result.history]).hr[10]


def window_live(result, n=10):
    # A dead (all-tied) scorer ranks every candidate first, so HR@5 == 1.0
    # across all 200 users; that never happens for a live model here. Each
    # window epoch must be live or the averaged headline number is garbage.
    return all(r.test.hr[5] < 1.0 for r in result.history[-n:])


def tie_rate(result, splits):
    # Fraction of eval users whose target score exactly ties another
    # candidate. Healthy real-valued scorers essentially never tie; a
    # partially dead tower collapses many candidates onto one float and
    # the optimistic rank rule then vaults the target over the tie group.
    tied = 0
    users = sorted(splits.test)
    for u in users:
        negatives = splits.eval_negatives[u]
        history = splits.history_items(u, include_validation=True)
        candidates = np.concatenate(
            [np.array([splits.test[u].item], dtype=np.int64), negatives]
        )
        scores = predict_batch(result.spec, result.tables, u, candidates, history)
        tied += int(np.sum(scores == scores[0]) > 1)
    return tied / len(users)


def run_healthy(result, splits):
    return window_live(result) and tie_rate(result, splits) <= 0.02


def test_criterion_1_parameter_counts():
    t0 = time.time()
    rc1, out1 = run_cli("paramcount", "K=64", "C=32", "head=cnn", "merge=outer")
    rc2, out2 = run_cli("paramcount", "K=64", "head=mlp", "merge=outer", "mlp_layers=1")
    head_total = next(
        (l.split()[-1] for l in out1.splitlines() if l.startswith("head total")), ""
    )
    wide = next(
        (l.split()[-1] for l in out2.splitlines() if l.startswith("mlp.1.W")), ""
    )
    dt = time.time() - t0
    ok = rc1 == 0 and rc2 == 0 and head_total == "20,646" and wide == "8,388,608"
    report(
        1,
        ok and dt < 1.0,
        f"K=64 C=32 conv head total {head_total or '?'} params; "
        f"one-hidden-layer map tower W {wide or '?'} ({dt:.2f}s)",
    )


GRAD_MODELS = [
    ("conv/plain", Variant.MF, MergeKind.OUTER, HeadKind.CNN),
    ("conv/history", Variant.FISM, MergeKind.OUTER, HeadKind.CNN),
    ("conv/combined", Variant.SVDPP, MergeKind.OUTER, HeadKind.CNN),
    ("elementwise/linear", Variant.MF, MergeKind.ELEMENTWISE, HeadKind.LINEAR),
    ("elementwise/mlp", Variant.MF, MergeKind.ELEMENTWISE, HeadKind.MLP),
    ("concat/mlp", Variant.MF, MergeKind.CONCAT, HeadKind.MLP),
    ("outer/mlp", Variant.MF, MergeKind.OUTER, HeadKind.MLP),
]


def test_criterion_2_gradient_suite():
    t0 = time.time()
    triple, history = (1, 2, 5), [0, 2, 4, 7]
    failures = []
    for name, variant, merge_kind, head_kind in GRAD_MODELS:
        tables = init_tables(6, 9, 8, variant, derive_seed(0, "init"), scale=1.0)
        head = new_head(head_kind, merge_kind, 8, 4, 2, derive_seed(0, "init_head"))
        spec = ModelSpec(variant=variant, merge=merge_kind, head=head, K=8)
        rep = finite_diff_check(spec, tables, triple, history, tol=1e-4, seed=3)
        if not rep.passed:
            failures.append((name, format_report(rep)))
    tables = init_tables(6, 9, 64, Variant.MF, derive_seed(1, "init"), scale=1.0)
    head = new_head(HeadKind.CNN, MergeKind.OUTER, 64, 32, 2, derive_seed(1, "init_head"))
    spec = ModelSpec(variant=Variant.MF, merge=MergeKind.OUTER, head=head, K=64)
    rep = finite_diff_check(
        spec, tables, triple, history, tol=1e-4, sample=200, seed=5
    )
    if not rep.passed:
        failures.append(("conv/plain K=64 C=32", format_report(rep)))
    dt = time.time() - t0
    ok = not failures and dt < 60
    names = ", ".join(n for n, _ in failures) or "none"
    report(2, ok, f"8 configurations, tol 1e-4, {dt:.1f}s; failures: {names}")
    assert not failures, failures


def test_criterion_3_kernel_oracles():
    t0 = time.time()
    rng = np.random.default_rng(derive_seed(11, "kernel-oracles"))
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 13))
        a, b = rng.normal(size=k), rng.normal(size=k)
        E = merge(MergeKind.OUTER, a[None], b[None])[0]
        worst = max(worst, float(np.max(np.abs(E - _oracles.outer_loops(a, b)))))
    for _ in range(100):
        size = int(rng.choice([2, 4, 8]))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 5))
        inp = rng.normal(size=(size, size, cin))
        kernel = rng.normal(size=(2, 2, cin, cout))
        bias = float(rng.normal())
        act = from_quadtree(conv2x2s2_forward(to_quadtree(inp[None]), kernel, bias, np.empty((1, size * size // 4, cout))))[0]
        oracle_pre, oracle_act = _oracles.conv2x2s2_loops(inp, kernel, bias)
        worst = max(worst, float(np.max(np.abs(act - oracle_act))))
        # bias raised past the most negative pre-activation: every unit is
        # live, so act must equal the oracle's pre-activation entry by entry
        live = bias + abs(float(oracle_pre.min())) + 1.0
        act = from_quadtree(conv2x2s2_forward(to_quadtree(inp[None]), kernel, live, np.empty((1, size * size // 4, cout))))[0]
        live_pre, _ = _oracles.conv2x2s2_loops(inp, kernel, live)
        worst = max(worst, float(np.max(np.abs(act - live_pre))))
    dt = time.time() - t0
    ok = worst <= 1e-12 and dt < 5
    report(3, ok, f"outer + conv vs loop oracles, 100 cases each, max abs err {worst:.2e} ({dt:.1f}s)")


def test_criterion_4_receptive_field_totality():
    t0 = time.time()
    rng = np.random.default_rng(derive_seed(13, "receptive"))
    stack = init_conv_stack(64, 32, derive_seed(13, "init_head"))
    for layer in stack.layers:
        layer.kernel[...] = np.abs(layer.kernel) + 0.05
        layer.bias[...] = 0.1
    stack.w[...] = np.abs(stack.w) + 0.05
    E = np.abs(merge(MergeKind.OUTER, rng.normal(size=(1, 64)), rng.normal(size=(1, 64)))) + 0.1
    work = ConvWork(stack, 1)
    acts, _ = convncf_forward(stack, E, work)
    d_E = convncf_backward(stack, acts, np.ones(1), head_views(stack), work)
    n_pos = int(np.sum(d_E > 0))
    dt = time.time() - t0
    ok = d_E.shape == (1, 64, 64) and n_pos == 64 * 64 and dt < 5
    report(4, ok, f"score gradient positive at {n_pos}/4096 map entries ({dt:.1f}s)")


def test_criterion_5_pairwise_loss_calibration(tmp_path):
    t0 = time.time()
    path = str(tmp_path / "small.tsv")
    write_interactions(
        planted_interactions(M=30, N=40, rank=4, per_user=6, noise=0.1, seed=5), path
    )
    splits = split_leave_latest_out(load_interactions(path), derive_seed(5, "split"))
    head = new_head(HeadKind.CNN, MergeKind.OUTER, K_EXP, 2, 2, derive_seed(5, "init_head"))
    for layer in head.layers:
        layer.kernel[...] = 0.0
        layer.bias[...] = 0.0
    head.w[...] = 0.0
    tables = init_tables(
        splits.train.M, splits.train.N, K_EXP, Variant.MF, derive_seed(5, "init")
    )
    spec = ModelSpec(variant=Variant.MF, merge=MergeKind.OUTER, head=head, K=K_EXP)
    cfg = TrainConfig(
        lambda1=0.0, lambda2=0.0, lambda3=0.0, lambda4=0.0,
        epochs=1, seed=RUN_SEED, epochs_pretrain=0,
    )
    result = train(spec, tables, splits, cfg)
    err = abs(result.history[0].mean_loss - LN2)
    dt = time.time() - t0
    ok = err <= 1e-6 and dt < 1.0
    report(5, ok, f"zero-head first-epoch mean loss off ln2 by {err:.2e} ({dt:.2f}s)")


def test_criterion_6_metric_unit_values():
    t0 = time.time()
    err = abs(ndcg_at_k(2, 10) - 0.6309298)
    rng = np.random.default_rng(derive_seed(6, "metric-units"))
    bounds_ok = monotone_ok = True
    for _ in range(1000):
        rank = int(rng.integers(1, 60))
        k = int(rng.integers(1, 40))
        h, n = hr_at_k(rank, k), ndcg_at_k(rank, k)
        bounds_ok &= 0.0 <= n <= h <= 1.0
        monotone_ok &= h <= hr_at_k(rank, k + 1) and n <= ndcg_at_k(rank, k + 1)
    dt = time.time() - t0
    ok = err <= 1e-6 and bounds_ok and monotone_ok and dt < 1.0
    report(
        6,
        ok,
        f"ndcg(rank 2, k 10) off by {err:.2e}; bounds {bounds_ok}, "
        f"k-monotonicity {monotone_ok} on 1000 fixtures ({dt:.2f}s)",
    )


def test_criterion_7_desk_scale_learning(lab):
    pop = lab.itempop_hr10()
    mf = last10_hr10(lab.mf_run())
    conv = last10_hr10(lab.conv_run(C_MAIN))
    warm5 = lab.conv_run(C_MAIN).history[4].val.ndcg[10]
    cold = lab.conv_run(C_MAIN, epochs=5, warm=False)
    cold5 = cold.history[4].val.ndcg[10]
    cost = sum(
        lab.cost.get(k, 0.0)
        for k in ("itempop", "mf", "pretrain", f"conv{C_MAIN}", f"conv{C_MAIN}cold5")
    )
    margins = (
        mf >= pop + 0.10
        and conv >= pop + 0.10
        and conv >= mf - 0.02
        and warm5 >= cold5
    )
    live = run_healthy(lab.conv_run(C_MAIN), lab.splits) and cold5 < 1.0
    ok = margins and live and cost < 300
    report(
        7,
        ok,
        f"HR@10 pop {pop:.3f} / mf {mf:.3f} / conv {conv:.3f}; "
        f"epoch-5 val NDCG@10 warm {warm5:.3f} vs cold {cold5:.3f}; "
        f"live {live} ({cost:.0f}s)",
    )


def test_criterion_8_pipeline_determinism(lab):
    t0 = time.time()
    blobs = []
    for tag in ("a", "b"):
        out = lab.root / f"det_{tag}"
        args = [
            f"dataset={lab.dataset}", f"outdir={out}", "variant=mf",
            "merge=outer", "head=cnn", f"K={K_EXP}", "C=2", "epochs=5",
            "epochs_pretrain=5", "seed=11", f"lr_net={LR_NET}",
            f"lambda3={LAM3}", f"lambda4={LAM4}",
        ]
        rc, _ = run_cli("train", *args)
        assert rc == 0
        rc, _ = run_cli(
            "eval", f"dataset={lab.dataset}", f"outdir={out}",
            f"checkpoint={out}/model.ckpt", "seed=11",
        )
        assert rc == 0
        blobs.append(
            tuple((out / f).read_bytes() for f in ("model.ckpt", "metrics.csv", "eval.csv"))
        )
    same = blobs[0] == blobs[1]
    dt = time.time() - t0
    ok = same and dt < 600
    report(8, ok, f"two seeded pipeline runs byte-identical: {same} ({dt:.0f}s)")


def test_criterion_9_feature_map_stability(lab):
    hrs = {C: last10_hr10(lab.conv_run(C)) for C in C_SWEEP}
    healthy = {C: run_healthy(lab.conv_run(C), lab.splits) for C in C_SWEEP}
    band = max(hrs.values()) - min(hrs.values())
    cost = sum(lab.cost.get(k, 0.0) for k in ("pretrain", *(f"conv{C}" for C in C_SWEEP)))
    ok = band <= 0.05 and all(healthy.values())
    detail = ", ".join(
        f"C={C}: {hrs[C]:.3f}{'' if healthy[C] else '(unhealthy)'}" for C in C_SWEEP
    )
    report(9, ok, f"HR@10 {detail}; band {band:.3f} ({cost:.0f}s)")
