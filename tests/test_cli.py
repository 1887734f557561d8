import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from convncf import evaluation
from convncf.cli import main
from convncf.config import ConfigError, RunConfig, build_config, parse_value
from convncf.data import derive_seed, load_interactions, split_leave_latest_out
from convncf.embeddings import user_rows
from convncf.model import load_checkpoint, predict_batch, save_checkpoint

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def toy(tmp_path):
    """16 users x 20 items, 6 interactions each, deterministic layout."""
    lines = []
    for u in range(16):
        for k in range(6):
            lines.append(f"user{u:02d}\tprod{(u + 2 * k) % 20:02d}\t{100 + k}\n")
    path = tmp_path / "toy.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def count_scoring(monkeypatch) -> list[int]:
    """The user index of every scoring row evaluation builds, in order: one
    per user per scoring pass."""
    calls: list[int] = []

    def counting(spec, tables, users, terms=None, targets=None):
        calls.extend(users.tolist())
        return user_rows(spec, tables, users, terms, targets)

    monkeypatch.setattr(evaluation, "user_rows", counting)
    return calls


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestConfig:
    def test_defaults(self):
        cfg = build_config(None, [])
        assert cfg.K == 64 and cfg.variant == "mf" and cfg.epochs_pretrain == 20

    def test_file_then_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# experiment\nK = 16\nepochs = 5\nK = 32\n", encoding="utf-8")
        cfg = build_config(str(path), ["--K=8", "seed=7"])
        assert cfg.K == 8  # command line beats file; last file entry beats first
        assert cfg.epochs == 5 and cfg.seed == 7

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="epochz"):
            build_config(None, ["epochz=3"])

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="epochs"):
            build_config(None, ["epochs=many"])

    def test_bool_parsing(self):
        assert parse_value("per_user", "off") is False
        assert parse_value("per_user", "YES") is True
        with pytest.raises(ConfigError):
            parse_value("per_user", "maybe")

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="form"):
            build_config(None, ["--epochs"])

    def test_depth_is_not_a_key(self):
        # the tower depth is always log2(K)
        with pytest.raises(ConfigError, match="unknown config key 'depth'"):
            build_config(None, ["K=64", "depth=6"])

    def test_pretrain_is_not_a_key(self):
        # epochs_pretrain=0 is the one way to skip pretraining
        with pytest.raises(ConfigError, match="unknown config key 'pretrain'"):
            build_config(None, ["pretrain=false"])

    def test_threads_is_not_a_key(self):
        # scoring spreads its blocks over every usable CPU on its own
        with pytest.raises(ConfigError, match="unknown config key 'threads'"):
            build_config(None, ["threads=2"])

    def test_readme_config_example(self, tmp_path):
        """The README's config file and every convncf command line in it
        pass through build_config."""
        blocks = re.findall(r"```\w*\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        conf = tmp_path / "experiment.conf"
        conf.write_text(next(b for b in blocks if b.startswith("# experiment.conf")), encoding="utf-8")
        commands = [
            shlex.split(line)
            for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("convncf ")
        ]
        assert len(commands) >= 8
        for argv in commands:
            args = argv[2:]
            path = None
            if "--config" in args:
                k = args.index("--config")
                assert args[k + 1] == "experiment.conf"
                path = str(conf)
                del args[k : k + 2]
            cfg = build_config(path, args)
            if path:
                assert (cfg.variant, cfg.merge, cfg.head, cfg.K, cfg.C) == ("mf", "outer", "cnn", 64, 32)
                assert cfg.lr_net == 0.005

    def test_validation_rejects_bad_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            build_config(None, ["variant=ncf"])

    def test_validation_rejects_bad_fism_norm(self):
        with pytest.raises(ConfigError, match="^key fism_norm: "):
            build_config(None, ["fism_norm=bogus_set"])

    @pytest.mark.parametrize(
        "key,text",
        [
            ("alpha", "nan"),
            ("lr_embed", "nan"),
            ("lambda3", "nan"),
            ("lr_net", "inf"),
            ("adagrad_epsilon", "inf"),
            ("lambda_pretrain", "nan"),
            ("lambda1", "-inf"),
        ],
    )
    def test_nonfinite_float_is_rejected(self, capsys, key, text):
        # a NaN rate or alpha would otherwise surface only as a NaN loss
        rc, out, err = run(capsys, "paramcount", "K=4", "C=2", f"{key}={text}")
        assert rc == 1 and out == ""
        assert err == f"error: key {key}: must be finite, got {float(text)!r}\n"


class TestIngest:
    def test_counts_and_manifest(self, toy, tmp_path, capsys):
        out1 = tmp_path / "run1"
        rc, out, _ = run(capsys, "ingest", f"dataset={toy}", f"outdir={out1}")
        assert rc == 0
        got = dict(line.split(" ", 1) for line in out.splitlines())
        assert got["users"] == "16"
        assert got["items"] == "20"
        assert got["interactions"] == "96"
        assert got["skipped_users"] == "0"
        assert got["filter_stable"] == "true"
        manifest = (out1 / "manifest.tsv").read_bytes()

        out2 = tmp_path / "run2"
        rc, _, _ = run(capsys, "ingest", f"dataset={toy}", f"outdir={out2}")
        assert rc == 0
        assert (out2 / "manifest.tsv").read_bytes() == manifest

    def test_missing_dataset_fails_cleanly(self, tmp_path, capsys):
        rc, _, err = run(capsys, "ingest", f"dataset={tmp_path}/absent.tsv", f"outdir={tmp_path}")
        assert rc == 1
        assert err.startswith("error:")

    def test_dataset_key_required(self, tmp_path, capsys):
        rc, _, err = run(capsys, "ingest", f"outdir={tmp_path}")
        assert rc == 1 and "dataset" in err


class TestParamcount:
    def test_flagship_tower(self, capsys):
        rc, out, _ = run(capsys, "paramcount", "K=64", "C=32", "head=cnn", "merge=outer")
        assert rc == 0
        total_line = [l for l in out.splitlines() if l.startswith("head total")]
        assert total_line and total_line[0].split()[-1] == "20,646"

    def test_wide_mlp(self, capsys):
        rc, out, _ = run(
            capsys, "paramcount", "K=64", "head=mlp", "merge=outer", "mlp_layers=1"
        )
        assert rc == 0
        first = [l for l in out.splitlines() if l.startswith("mlp.1.W")]
        assert first and first[0].split()[-1] == "8,388,608"

    @pytest.mark.parametrize("head,merge", [("mlp", "inner"), ("cnn", "elementwise")])
    def test_unpaired_head_and_merge(self, capsys, head, merge):
        rc, _, err = run(capsys, "paramcount", f"head={head}", f"merge={merge}")
        assert rc == 1 and "does not admit head" in err

    def test_embedding_totals_with_dataset(self, toy, tmp_path, capsys):
        rc, out, _ = run(
            capsys, "paramcount", f"dataset={toy}", f"outdir={tmp_path}",
            "K=8", "C=4", "variant=svdpp",
        )
        assert rc == 0
        got = {l.split()[0]: l.split()[-1] for l in out.splitlines()}
        assert got["P"] == "128"  # 16 users x 8
        assert got["Q"] == got["Qp"] == "160"  # 20 items x 8

    def test_fism_counts_no_user_table(self, toy, tmp_path, capsys):
        rc, out, _ = run(
            capsys, "paramcount", f"dataset={toy}", f"outdir={tmp_path}",
            "K=8", "C=4", "variant=fism",
        )
        assert rc == 0
        got = {l.rsplit(None, 1)[0]: l.split()[-1] for l in out.splitlines()}
        assert "P" not in got
        assert got["Q"] == got["Qp"] == "160"  # 20 items x 8
        assert got["embedding total"] == "320"
        assert got["total"] == f"{int(got['head total'].replace(',', '')) + 320:,}"

    @pytest.mark.parametrize("with_dataset", [False, True])
    def test_count_column_lines_up(self, toy, tmp_path, capsys, with_dataset):
        """Every count ends in the same column, the totals' included, with
        and without a dataset's embedding rows."""
        extra = [f"dataset={toy}", f"outdir={tmp_path}"] if with_dataset else []
        rc, out, _ = run(capsys, "paramcount", "K=8", "C=4", "variant=svdpp", *extra)
        lines = out.splitlines()
        assert rc == 0 and any(l.startswith("head total") for l in lines)
        assert any(l.startswith("embedding total") for l in lines) == with_dataset
        assert len({len(l) for l in lines}) == 1
        assert all(l[-1].isdigit() for l in lines)


class TestEmptyLog:
    """A log with no interaction left after ingest sizes no table: the
    commands that train or count one (ItemPop's popularity table included)
    refuse it with an error and write no checkpoint, the rest accept it."""

    @pytest.mark.parametrize(
        "args",
        [("train",), ("pretrain",), ("train", "merge=inner", "head=identity"), ("train", "variant=itempop")],
        ids=["train", "pretrain", "train_inner", "train_itempop"],
    )
    @pytest.mark.parametrize("log", ["comments", "min_item"])
    def test_training_commands_refuse_it(self, toy, tmp_path, capsys, args, log):
        if log == "comments":
            dataset = tmp_path / "empty.tsv"
            dataset.write_text("# no interactions\n", encoding="utf-8")
            extra = []
        else:
            dataset, extra = toy, ["min_item=100"]
        rc, out, err = run(capsys, *args, f"dataset={dataset}", f"outdir={tmp_path}", "K=4", "C=2", *extra)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: dataset {dataset} is empty after ingest") and err.count("\n") == 1
        assert err.endswith(": no table to fit\n")
        assert not list(tmp_path.glob("*.ckpt"))

    @pytest.mark.parametrize("args", [("ingest",), ("paramcount", "K=4", "C=2")])
    def test_other_commands_accept_it(self, tmp_path, capsys, args):
        dataset = tmp_path / "empty.tsv"
        dataset.write_text("# no interactions\n", encoding="utf-8")
        rc, _, err = run(capsys, *args, f"dataset={dataset}", f"outdir={tmp_path}")
        assert rc == 0 and err == ""


    def test_itempop_metrics_over_no_users_read_nan(self, tmp_path, capsys):
        """HR and NDCG over zero evaluated users are undefined: on a log that
        holds out no user (each has fewer than 3 interactions), both rows of
        the ItemPop run's metrics.csv read nan, not the 0.0 of a model that
        never hits, and eval reads its checkpoint back."""
        dataset = tmp_path / "short.tsv"
        dataset.write_text("a\tx\t1\na\ty\t2\nb\tx\t3\n", encoding="utf-8")
        rc, _, err = run(capsys, "train", "variant=itempop", f"dataset={dataset}", f"outdir={tmp_path}")
        assert rc == 0 and err == ""
        rows = (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert rows == [f"1,{split}," + ",".join(["nan"] * 7) for split in ("val", "test")]
        ckpt = f"checkpoint={tmp_path / 'model.ckpt'}"
        rc, out, err = run(capsys, "eval", ckpt, f"dataset={dataset}", f"outdir={tmp_path}")
        assert rc == 0 and err == ""
        assert out.splitlines()[-1] == "users_evaluated 0"

class TestGradcheckCommand:
    def test_passes_for_default_architecture(self, capsys):
        rc, out, _ = run(capsys, "gradcheck", "K=8", "C=4", "variant=svdpp")
        assert rc == 0
        assert out.strip().splitlines()[-1].startswith("PASS")

    def test_itempop_is_rejected(self, capsys):
        rc, _, err = run(capsys, "gradcheck", "variant=itempop")
        assert rc == 1 and "itempop" in err


class TestPipeline:
    MF_ARGS = (
        "variant=mf", "merge=inner", "head=identity", "K=4",
        "epochs=3", "epochs_pretrain=0",
        "lambda1=0", "lambda2=0", "batch_size=16", "seed=9",
    )

    def test_train_eval_recommend(self, toy, tmp_path, capsys):
        outdir = tmp_path / "run"
        rc, out, _ = run(capsys, "train", f"dataset={toy}", f"outdir={outdir}", *self.MF_ARGS)
        assert rc == 0
        assert (outdir / "model.ckpt").exists() and (outdir / "metrics.csv").exists()
        assert "test last-10" in out

        # eval on the saved checkpoint reproduces the final-epoch test metrics
        rc, out_eval, _ = run(
            capsys, "eval", f"dataset={toy}", f"outdir={outdir}",
            f"checkpoint={outdir}/model.ckpt", "per_user=true", "seed=9",
        )
        assert rc == 0
        metrics_lines = (outdir / "metrics.csv").read_text().splitlines()
        last_test = [l for l in metrics_lines if l.split(",")[1] == "test"][-1]
        eval_lines = (outdir / "eval.csv").read_text().splitlines()
        assert eval_lines[2].split(",")[2:8] == last_test.split(",")[2:8]
        assert (outdir / "per_user.tsv").exists()
        assert "users_evaluated 16" in out_eval

        # recommendations exclude the train/validation history; the held-out
        # latest item stays eligible (the model is not told the future)
        rc, out_rec, _ = run(
            capsys, "recommend", f"dataset={toy}", f"outdir={outdir}",
            f"checkpoint={outdir}/model.ckpt", "user=user03", "topk=5", "seed=9",
        )
        assert rc == 0
        rec_items = [line.split("\t")[0] for line in out_rec.strip().splitlines()]
        assert len(rec_items) == 5
        known = {f"prod{(3 + 2 * k) % 20:02d}" for k in range(5)}  # ts 100..104
        assert not (set(rec_items) & known)
        scores = [float(line.split("\t")[1]) for line in out_rec.strip().splitlines()]
        assert scores == sorted(scores, reverse=True)

    def test_recommend_candidates_match_loop_form(self, toy, tmp_path, capsys):
        """The full ranked list equals scoring every item outside the
        train + validation history, gathered by a loop in ascending order."""
        outdir = tmp_path / "run"
        run(capsys, "train", f"dataset={toy}", f"outdir={outdir}", *self.MF_ARGS)
        spec, tables = load_checkpoint(str(outdir / "model.ckpt"))
        splits = split_leave_latest_out(load_interactions(toy), derive_seed(9, "split"))
        ds = splits.train
        for user in ("user00", "user03", "user15"):
            u = ds.user_ids.index(user)
            history = splits.history_items(u, include_validation=True)
            assert history
            candidates = np.array([i for i in range(ds.N) if i not in set(history)], dtype=np.int64)
            scores = predict_batch(spec, tables, u, candidates, history)
            order = np.argsort(-scores, kind="stable")
            expect = "".join(f"{ds.item_ids[int(candidates[p])]}\t{float(scores[p])!r}\n" for p in order)
            rc, out, _ = run(
                capsys, "recommend", f"dataset={toy}", f"outdir={outdir}",
                f"checkpoint={outdir}/model.ckpt", f"user={user}", f"topk={ds.N}", "seed=9",
            )
            assert rc == 0 and out == expect

    def test_unknown_user_fails(self, toy, tmp_path, capsys):
        outdir = tmp_path / "run"
        run(capsys, "train", f"dataset={toy}", f"outdir={outdir}", *self.MF_ARGS)
        rc, _, err = run(
            capsys, "recommend", f"dataset={toy}", f"outdir={outdir}",
            f"checkpoint={outdir}/model.ckpt", "user=nobody", "seed=9",
        )
        assert rc == 1 and err == "error: key user: id 'nobody' not present in the dataset\n"

    @pytest.mark.parametrize("variant,held", [("mf", "16 users x 20 items"), ("fism", "20 items")])
    def test_checkpoint_must_fit_the_dataset(self, toy, tmp_path, capsys, variant, held):
        """Item counts must match; user counts only where there is a user table."""
        outdir = tmp_path / "run"
        args = (f"variant={variant}", "merge=inner", "head=identity", "K=4", "epochs=1", "epochs_pretrain=0")
        assert run(capsys, "train", f"dataset={toy}", f"outdir={outdir}", *args)[0] == 0
        small = tmp_path / "small.tsv"  # user00..user07: 8 users x 18 items
        small.write_text("".join(l for l in open(toy).readlines() if int(l[4:6]) < 8))
        rc, out, err = run(capsys, "eval", f"dataset={small}", f"outdir={outdir}", f"checkpoint={outdir}/model.ckpt")
        assert rc == 1 and err == f"error: checkpoint holds {held} but the dataset has 8 x 18\n"

    def test_eval_requires_checkpoint_key(self, toy, tmp_path, capsys):
        rc, _, err = run(capsys, "eval", f"dataset={toy}", f"outdir={tmp_path}")
        assert rc == 1 and "checkpoint" in err

    def test_itempop_training(self, toy, tmp_path, capsys):
        outdir = tmp_path / "pop"
        rc, out, _ = run(
            capsys, "train", f"dataset={toy}", f"outdir={outdir}",
            "variant=itempop", "seed=9",
        )
        assert rc == 0
        spec, tables = load_checkpoint(str(outdir / "model.ckpt"))
        assert spec.K == 1
        assert tables.Q.sum() > 0  # popularity counts, not random values
        lines = (outdir / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[1].split(",")[-1] == "nan"

    @pytest.mark.parametrize("variant,passes", [("mf", 1), ("fism", 2), ("svdpp", 2)])
    def test_eval_scores_each_user_once_per_pass(self, toy, tmp_path, capsys, monkeypatch, variant, passes):
        """`eval` scores every evaluated user once when the user vector
        ignores history, and once per split for FISM and SVD++."""
        outdir = tmp_path / "run"
        args = (f"variant={variant}", "merge=inner", "head=identity", "K=4", "epochs=1", "epochs_pretrain=0")
        assert run(capsys, "train", f"dataset={toy}", f"outdir={outdir}", *args)[0] == 0
        calls = count_scoring(monkeypatch)
        rc, out, _ = run(capsys, "eval", f"dataset={toy}", f"outdir={outdir}", f"checkpoint={outdir}/model.ckpt")
        assert rc == 0 and "users_evaluated 16" in out
        assert sorted(calls) == sorted(list(range(16)) * passes)

    def test_itempop_training_scores_each_user_once(self, toy, tmp_path, capsys, monkeypatch):
        calls = count_scoring(monkeypatch)
        assert run(capsys, "train", f"dataset={toy}", f"outdir={tmp_path}", "variant=itempop")[0] == 0
        assert calls == list(range(16))

    def test_itempop_recommend_matches_counting_oracle(self, toy, tmp_path, capsys):
        outdir = tmp_path / "pop"
        run(capsys, "train", f"dataset={toy}", f"outdir={outdir}",
            "variant=itempop", "seed=9")
        rc, out_rec, _ = run(
            capsys, "recommend", f"dataset={toy}", f"outdir={outdir}",
            f"checkpoint={outdir}/model.ckpt", "user=user00", "topk=4", "seed=9",
        )
        assert rc == 0
        got = [line.split("\t") for line in out_rec.strip().splitlines()]
        spec, tables = load_checkpoint(str(outdir / "model.ckpt"))
        # oracle: train counts, user00's train+val items removed, ties by index.
        # Q rows follow first-appearance order, so map names through the dataset.
        ds = load_interactions(str(toy))
        counts = {ds.item_ids[i]: tables.Q[i, 0] for i in range(ds.N)}
        known = {f"prod{(0 + 2 * k) % 20:02d}" for k in range(5)}
        expect = sorted(
            (name for name in counts if name not in known),
            key=lambda n: (-counts[n], ds.item_ids.index(n)),
        )[:4]
        assert [name for name, _ in got] == expect
        assert [float(s) for _, s in got] == [counts[n] for n in expect]

    def test_deep_model_roundtrip(self, toy, tmp_path, capsys):
        outdir = tmp_path / "deep"
        rc, _, _ = run(
            capsys, "train", f"dataset={toy}", f"outdir={outdir}",
            "variant=mf", "merge=outer", "head=cnn", "K=4", "C=2",
            "epochs=2", "epochs_pretrain=1", "batch_size=32", "seed=5",
            "lambda3=0.01", "lambda4=0.01",
        )
        assert rc == 0
        spec, _ = load_checkpoint(str(outdir / "model.ckpt"))
        assert spec.head.depth == 2 and spec.head.C == 2

    def test_pretrain_command_then_warm_start(self, toy, tmp_path, capsys):
        pre = tmp_path / "pre"
        rc, out, _ = run(
            capsys, "pretrain", f"dataset={toy}", f"outdir={pre}",
            "variant=mf", "K=4", "epochs_pretrain=2", "batch_size=32", "seed=5",
        )
        assert rc == 0 and (pre / "pretrain.ckpt").exists()
        assert (pre / "pretrain_metrics.csv").exists()

        outdir = tmp_path / "warm"
        rc, _, _ = run(
            capsys, "train", f"dataset={toy}", f"outdir={outdir}",
            f"pretrain_checkpoint={pre}/pretrain.ckpt",
            "variant=mf", "merge=outer", "head=cnn", "K=4", "C=2",
            "epochs=1", "batch_size=32", "seed=5", "lambda3=0.01", "lambda4=0.01",
        )
        assert rc == 0

    def test_nonfinite_warm_start_fails_cleanly(self, toy, tmp_path, capsys):
        pre = tmp_path / "pre"
        run(capsys, "pretrain", f"dataset={toy}", f"outdir={pre}",
            "variant=mf", "K=4", "epochs_pretrain=0", "seed=5")
        spec, tables = load_checkpoint(str(pre / "pretrain.ckpt"))
        tables.P[3] = np.nan
        save_checkpoint(spec, tables, str(pre / "pretrain.ckpt"))
        rc, _, err = run(
            capsys, "train", f"dataset={toy}", f"outdir={tmp_path / 'nan'}",
            f"pretrain_checkpoint={pre}/pretrain.ckpt",
            "variant=mf", "merge=outer", "head=cnn", "K=4", "C=2",
            "epochs=1", "seed=5",
        )
        assert rc == 1 and err == "error: section P holds non-finite values\n"

    @pytest.mark.parametrize("command", ["eval", "recommend"])
    def test_nonfinite_checkpoint_is_rejected(self, toy, tmp_path, capsys, command):
        # NaN scores never compare strictly better than the target, so an
        # unchecked NaN table would rank every target first
        outdir = tmp_path / "run"
        run(capsys, "train", f"dataset={toy}", f"outdir={outdir}", *self.MF_ARGS)
        spec, tables = load_checkpoint(str(outdir / "model.ckpt"))
        tables.Q[:] = np.nan
        save_checkpoint(spec, tables, str(outdir / "model.ckpt"))
        rc, out, err = run(
            capsys, command, f"dataset={toy}", f"outdir={outdir}",
            f"checkpoint={outdir}/model.ckpt", "user=user03", "seed=9",
        )
        assert rc == 1 and out == "" and err == "error: section Q holds non-finite values\n"

    @pytest.mark.parametrize(
        "field,bad,message",
        [
            ("alpha=0.5", "alpha=nan", "bad descriptor value: alpha=nan is not a finite number >= 0"),
            ("fism_norm=excluded_set", "fism_norm=bogus_set", "inconsistent checkpoint: unknown fism_norm 'bogus_set'"),
        ],
    )
    def test_bad_checkpoint_header_is_rejected(self, toy, tmp_path, capsys, field, bad, message):
        # a NaN alpha makes every score NaN, which would rank every target first
        outdir = tmp_path / "run"
        rc, _, _ = run(
            capsys, "train", f"dataset={toy}", f"outdir={outdir}", *self.MF_ARGS, "variant=fism"
        )
        assert rc == 0
        blob = (outdir / "model.ckpt").read_bytes()
        assert blob.count(field.encode()) == 1
        (outdir / "model.ckpt").write_bytes(blob.replace(field.encode(), bad.encode()))
        rc, out, err = run(
            capsys, "eval", f"dataset={toy}", f"outdir={outdir}",
            f"checkpoint={outdir}/model.ckpt", "seed=9",
        )
        assert rc == 1 and out == "" and err == f"error: {message}\n"

    def test_non_scalar_conv_bias_is_rejected(self, toy, tmp_path, capsys):
        outdir = tmp_path / "run"
        rc, _, _ = run(
            capsys, "train", f"dataset={toy}", f"outdir={outdir}",
            "variant=mf", "merge=outer", "head=cnn", "K=4", "C=2",
            "epochs=1", "epochs_pretrain=0", "batch_size=32", "seed=5",
        )
        assert rc == 0
        spec, tables = load_checkpoint(str(outdir / "model.ckpt"))
        spec.head.layers[0].bias = np.zeros(3)
        save_checkpoint(spec, tables, str(outdir / "model.ckpt"))
        rc, out, err = run(
            capsys, "eval", f"dataset={toy}", f"outdir={outdir}",
            f"checkpoint={outdir}/model.ckpt", "seed=9",
        )
        assert rc == 1 and out == ""
        assert err == "error: inconsistent checkpoint: conv layer 1 bias shape (3,), expected ()\n"

    def test_warm_start_k_mismatch(self, toy, tmp_path, capsys):
        pre = tmp_path / "pre"
        run(capsys, "pretrain", f"dataset={toy}", f"outdir={pre}",
            "variant=mf", "K=4", "epochs_pretrain=1", "batch_size=32", "seed=5")
        rc, _, err = run(
            capsys, "train", f"dataset={toy}", f"outdir={tmp_path / 'bad'}",
            f"pretrain_checkpoint={pre}/pretrain.ckpt",
            "variant=mf", "merge=outer", "head=cnn", "K=8", "C=2",
            "epochs=1", "seed=5",
        )
        assert rc == 1 and "K=4" in err

    @pytest.mark.parametrize(
        "override,message",
        [
            ("alpha=0.3", "alpha=0.5 but the run asks for alpha=0.3"),
            ("fism_norm=full_set", "fism_norm='excluded_set' but the run asks for fism_norm='full_set'"),
        ],
        ids=["alpha", "fism_norm"],
    )
    def test_warm_start_setting_mismatch(self, toy, tmp_path, capsys, override, message):
        # the warm-started model would carry the checkpoint's value, not the run's
        pre = tmp_path / "pre"
        rc, _, _ = run(capsys, "pretrain", f"dataset={toy}", f"outdir={pre}",
                       "variant=fism", "K=4", "epochs_pretrain=1", "batch_size=32", "seed=5")
        assert rc == 0
        outdir = tmp_path / "bad"
        rc, out, err = run(
            capsys, "train", f"dataset={toy}", f"outdir={outdir}",
            f"pretrain_checkpoint={pre}/pretrain.ckpt",
            "variant=fism", "merge=outer", "head=cnn", "K=4", "C=2",
            "epochs=1", "seed=5", override,
        )
        assert rc == 1 and out == "" and err == f"error: pretrain checkpoint has {message}\n"
        assert not (outdir / "model.ckpt").exists()


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, toy, tmp_path, capsys):
        args = (
            "variant=mf", "merge=outer", "head=cnn", "K=4", "C=2",
            "epochs=2", "epochs_pretrain=1", "batch_size=32", "seed=77",
            "lambda3=0.01", "lambda4=0.01",
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "train", f"dataset={toy}", f"outdir={a}", *args)[0] == 0
        assert run(capsys, "train", f"dataset={toy}", f"outdir={b}", *args)[0] == 0
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_different_seed_different_model(self, toy, tmp_path, capsys):
        base = ("variant=mf", "merge=inner", "head=identity", "K=4",
                "epochs=1", "epochs_pretrain=0", "batch_size=32")
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "train", f"dataset={toy}", f"outdir={a}", *base, "seed=1")
        run(capsys, "train", f"dataset={toy}", f"outdir={b}", *base, "seed=2")
        assert (a / "model.ckpt").read_bytes() != (b / "model.ckpt").read_bytes()
