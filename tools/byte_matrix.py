"""Print the sha256 of every artifact of a fixed set of CLI runs.

Writes a seeded planted interaction log into a temporary directory, then
runs ``convncf train``, ``eval per_user=true``, ``gradcheck``, ``pretrain``
and ``recommend`` (for user ``u007``, from the trained checkpoint) for mf,
fism and svdpp x (outer cnn, outer mlp, elementwise linear, inner identity)
at K=8 C=4, and for mf outer cnn at K=64 C=32. Prints one ``sha256
artifact`` line per ``model.ckpt``, ``metrics.csv``, ``eval.csv``,
``per_user.tsv``, ``pretrain.ckpt``, ``pretrain_metrics.csv`` and command
stdout (gradcheck's is its report, recommend's its scored list), with each
command's exit status. Two checkouts keep every byte when their outputs are
equal:

    python tools/byte_matrix.py > before.txt   # in one checkout
    python tools/byte_matrix.py > after.txt    # in the other
    diff before.txt after.txt

Each command runs in its own process on the package in the ``src/`` next
to this script, with paths relative to the temporary directory, so the
output does not depend on where either lies.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from convncf.synthetic import planted_interactions, write_interactions  # noqa: E402

HEADS = [("outer", "cnn"), ("outer", "mlp"), ("elementwise", "linear"), ("inner", "identity")]
RUNS = [(variant, merge, head, 8, 4) for variant in ("mf", "fism", "svdpp") for merge, head in HEADS]
RUNS.append(("mf", "outer", "cnn", 64, 32))
TRAIN_KEYS = ["dataset=data.tsv", "epochs=2", "epochs_pretrain=1", "seed=5"]
ARTIFACTS = ["model.ckpt", "metrics.csv", "eval.csv", "per_user.tsv", "pretrain.ckpt", "pretrain_metrics.csv"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory(prefix="byte-matrix-") as tmp:
        write_interactions(planted_interactions(M=60, N=80, per_user=12, seed=3), os.path.join(tmp, "data.tsv"))
        for variant, merge, head, K, C in RUNS:
            name = f"{variant}-{merge}-{head}-K{K}-C{C}"
            keys = [f"outdir={name}", f"variant={variant}", f"merge={merge}", f"head={head}", f"K={K}", f"C={C}", *TRAIN_KEYS]
            ckpt = f"checkpoint={name}/model.ckpt"
            commands = [
                ("train", []),
                ("eval", [ckpt, "per_user=true"]),
                ("gradcheck", []),
                ("pretrain", []),
                ("recommend", [ckpt, "user=u007"]),
            ]
            for command, extra in commands:
                done = subprocess.run(
                    [sys.executable, "-m", "convncf.cli", command, *keys, *extra], cwd=tmp, env=env, capture_output=True
                )
                print(f"{digest(done.stdout)}  {name}/{command}.stdout exit={done.returncode}", flush=True)
            for artifact in ARTIFACTS:
                with open(os.path.join(tmp, name, artifact), "rb") as fh:
                    print(f"{digest(fh.read())}  {name}/{artifact}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
