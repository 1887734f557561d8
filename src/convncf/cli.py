"""Command-line pipeline: ingest, pretrain, train, eval, gradcheck,
paramcount, recommend.

Every command reads one flat config (file plus --key=value overrides; see
config.py) and writes its artifacts into the config's output directory.
Identical config and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from convncf.config import ConfigError, RunConfig, build_config
from convncf.data import (
    FilterResult,
    ParseError,
    ProtocolError,
    SamplingError,
    SplitSet,
    derive_seed,
    filter_dataset,
    load_interactions,
    split_leave_latest_out,
    write_manifest,
)
from convncf.embeddings import EmbeddingTables, Variant, init_tables
from convncf.evaluation import (
    EvalResult,
    EvaluationError,
    make_itempop,
    rolling_last10,
    write_per_user_ranks,
)
from convncf.gradcheck import finite_diff_check, format_report
from convncf.model import (
    ConfigurationError,
    FormatError,
    HeadKind,
    MergeKind,
    ModelSpec,
    load_checkpoint,
    new_head,
    param_count,
    predict_batch,
    save_checkpoint,
)
from convncf.training import NonFiniteError, evaluate_state, pretrain, train, write_metrics_csv

_USER_ERRORS = (
    ConfigError,
    ConfigurationError,
    FormatError,
    ParseError,
    ProtocolError,
    SamplingError,
    EvaluationError,
    NonFiniteError,
    OSError,
)


def _load_splits(cfg: RunConfig) -> tuple[FilterResult, SplitSet]:
    if not cfg.dataset:
        raise ConfigError("key dataset: required for this command")
    ds = load_interactions(cfg.dataset)
    fr = filter_dataset(ds, cfg.min_item, cfg.min_user)
    splits = split_leave_latest_out(fr.dataset, derive_seed(cfg.seed, "split"))
    return fr, splits


def _sized(cfg: RunConfig, splits: SplitSet) -> SplitSet:
    """The splits that a model's tables are sized from, refused when empty."""
    if splits.train.M == 0:
        empty = f"dataset {cfg.dataset} is empty after ingest (min_item={cfg.min_item}, min_user={cfg.min_user})"
        raise ProtocolError(f"{empty}: no table to fit")
    return splits


def _variant(cfg: RunConfig) -> Variant:
    if cfg.variant == "itempop":
        raise ConfigError("key variant: itempop has no trainable parameters for this command")
    return Variant(cfg.variant)


def _build_spec(cfg: RunConfig, variant: Variant) -> ModelSpec:
    head = new_head(
        HeadKind(cfg.head),
        MergeKind(cfg.merge),
        cfg.K,
        cfg.C,
        cfg.mlp_layers,
        derive_seed(cfg.seed, "init_head"),
    )
    return ModelSpec(
        variant=variant, merge=MergeKind(cfg.merge), head=head, K=cfg.K, fism_norm=cfg.fism_norm, alpha=cfg.alpha
    )


def _outpath(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.outdir, exist_ok=True)
    return os.path.join(cfg.outdir, name)


def _print_eval(label: str, res: EvalResult) -> None:
    for k in sorted(res.hr):
        print(f"{label} hr@{k} {res.hr[k]:.4f} ndcg@{k} {res.ndcg[k]:.4f}")


def _check_tables_match(tables: EmbeddingTables, splits: SplitSet, source: str) -> None:
    ds = splits.train
    if tables.M not in (None, ds.M) or tables.N != ds.N:
        held = f"{tables.N} items" if tables.M is None else f"{tables.M} users x {tables.N} items"
        raise ConfigError(f"{source} holds {held} but the dataset has {ds.M} x {ds.N}")


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(cfg: RunConfig) -> int:
    fr, splits = _load_splits(cfg)
    ds = fr.dataset
    manifest = _outpath(cfg, "manifest.tsv")
    write_manifest(splits, manifest)
    print(f"users {ds.M}")
    print(f"items {ds.N}")
    print(f"interactions {ds.n_interactions}")
    print(f"skipped_users {splits.skipped_users}")
    print(f"filter_stable {str(fr.stable).lower()}")
    print(f"manifest {manifest}")
    return 0


def cmd_paramcount(cfg: RunConfig) -> int:
    spec = _build_spec(cfg, _variant(cfg))
    M = N = None
    if cfg.dataset:
        fr, _ = _load_splits(cfg)
        M, N = fr.dataset.M, fr.dataset.N
    pc = param_count(spec, M, N)
    rows = pc.head_sections + [("head total", pc.head_total)]
    if pc.embedding_sections:
        rows += pc.embedding_sections + [
            ("embedding total", pc.embedding_total),
            ("total", pc.head_total + pc.embedding_total),
        ]
    width = max(len(name) for name, _ in rows)
    for name, count in rows:
        print(f"{name:<{width}} {count:>14,}")
    return 0


def cmd_gradcheck(cfg: RunConfig) -> int:
    """Check the config's architecture on a small random fixture.

    The fixture uses unit-scale tables so pre-activations sit well away from
    the relu kink; the check validates gradient code, not trained values.
    """
    variant = _variant(cfg)
    spec = _build_spec(cfg, variant)
    tables = init_tables(6, 12, cfg.K, variant, derive_seed(cfg.seed, "init"), scale=1.0)
    history = [0, 2, 3, 7]
    report = finite_diff_check(
        spec,
        tables,
        triple=(2, 3, 5),
        history=history,
        seed=derive_seed(cfg.seed, "gradcheck"),
    )
    print(format_report(report))
    return 0 if report.passed else 1


def cmd_pretrain(cfg: RunConfig) -> int:
    variant = _variant(cfg)
    fr, splits = _load_splits(cfg)
    result = pretrain(variant, _sized(cfg, splits), cfg, cfg.K, cfg.alpha, cfg.fism_norm)
    ckpt = _outpath(cfg, "pretrain.ckpt")
    save_checkpoint(result.spec, result.tables, ckpt)
    if result.history:
        write_metrics_csv(result.history, _outpath(cfg, "pretrain_metrics.csv"))
        _print_eval("val", result.history[-1].val)
        _print_eval("test", result.history[-1].test)
    print(f"checkpoint {ckpt}")
    return 0


def _initial_tables(cfg: RunConfig, variant: Variant, splits: SplitSet) -> EmbeddingTables:
    ds = _sized(cfg, splits).train
    if cfg.pretrain_checkpoint:
        loaded_spec, tables = load_checkpoint(cfg.pretrain_checkpoint)
        for key, held in (("K", loaded_spec.K), ("alpha", loaded_spec.alpha), ("fism_norm", loaded_spec.fism_norm)):
            if held != getattr(cfg, key):
                raise ConfigError(
                    f"pretrain checkpoint has {key}={held!r} but the run asks for {key}={getattr(cfg, key)!r}"
                )
        if loaded_spec.variant is not variant:
            raise ConfigError(
                f"pretrain checkpoint variant {loaded_spec.variant.value} != run variant {variant.value}"
            )
        _check_tables_match(tables, splits, "pretrain checkpoint")
        return tables
    if cfg.merge != "inner":
        return pretrain(variant, splits, cfg, cfg.K, cfg.alpha, cfg.fism_norm).tables
    return init_tables(ds.M, ds.N, cfg.K, variant, derive_seed(cfg.seed, "init"))


def cmd_train(cfg: RunConfig) -> int:
    fr, splits = _load_splits(cfg)
    ckpt = _outpath(cfg, "model.ckpt")
    metrics = _outpath(cfg, "metrics.csv")

    if cfg.variant == "itempop":
        spec, tables = make_itempop(_sized(cfg, splits).train)
        records = [evaluate_state(spec, tables, splits, epoch=1)]
    else:
        variant = Variant(cfg.variant)
        tables = _initial_tables(cfg, variant, splits)
        spec = _build_spec(cfg, variant)
        result = train(spec, tables, splits, cfg)
        records = result.history
        spec, tables = result.spec, result.tables

    save_checkpoint(spec, tables, ckpt)
    write_metrics_csv(records, metrics)
    last = records[-1]
    _print_eval(f"epoch {last.epoch} val", last.val)
    _print_eval(f"epoch {last.epoch} test", last.test)
    averaged = rolling_last10([r.test for r in records])
    _print_eval("test last-10", averaged)
    print(f"checkpoint {ckpt}")
    print(f"metrics {metrics}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise ConfigError("key checkpoint: required for eval")
    spec, tables = load_checkpoint(cfg.checkpoint)
    fr, splits = _load_splits(cfg)
    _check_tables_match(tables, splits, "checkpoint")
    record = evaluate_state(spec, tables, splits, epoch=0)
    _print_eval("val", record.val)
    _print_eval("test", record.test)
    write_metrics_csv([record], _outpath(cfg, "eval.csv"))
    if cfg.per_user:
        path = _outpath(cfg, "per_user.tsv")
        write_per_user_ranks(record.test, fr.dataset, path)
        print(f"per_user {path}")
    print(f"users_evaluated {record.test.users_evaluated}")
    return 0


def cmd_recommend(cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise ConfigError("key checkpoint: required for recommend")
    if not cfg.user:
        raise ConfigError("key user: required for recommend")
    spec, tables = load_checkpoint(cfg.checkpoint)
    fr, splits = _load_splits(cfg)
    _check_tables_match(tables, splits, "checkpoint")
    ds = fr.dataset
    if cfg.user not in ds.user_ids:
        raise ConfigError(f"key user: id {cfg.user!r} not present in the dataset")
    u = ds.user_ids.index(cfg.user)
    history = splits.history_items(u, include_validation=True)
    candidates = np.delete(np.arange(ds.N), history)  # a mask over the catalogue, ascending
    if candidates.size == 0:
        raise ProtocolError(f"user {cfg.user!r} has interacted with every item")
    scores = predict_batch(spec, tables, u, candidates, history)
    order = np.argsort(-scores, kind="stable")[: cfg.topk]
    for pos in order.tolist():
        print(f"{ds.item_ids[int(candidates[pos])]}\t{float(scores[pos])!r}")
    return 0


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "ingest": cmd_ingest,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "paramcount": cmd_paramcount,
    "recommend": cmd_recommend,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="convncf",
        description="Outer-product convolutional collaborative filtering pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0] if fn.__doc__ else None)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument(
            "overrides",
            nargs="*",
            metavar="key=value",
            help="config overrides; --key=value also works",
        )
    args, unknown = parser.parse_known_args(argv)
    try:
        cfg = build_config(args.config, list(args.overrides) + unknown)
        return _COMMANDS[args.command](cfg)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
