"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that digests repeat across runs and between the traced and untraced run,
and that a failed correctness check or missing sources give a non-zero exit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _bench(workload: str, trace: int, seed: int = 3):
    proc = _run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", str(trace), "--tiny"])
    lines = proc.stdout.strip().splitlines()
    digest = [line for line in lines if line.startswith("digest ")]
    return proc, json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_digest_repeats(workload):
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer"), (0, "end_to_end")):
        proc, res, digest = _bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: m["unit"] for k, m in res["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
        digests.append(digest)
    assert len(digests[0]) == 1
    assert digests[0] == digests[1] == digests[2]


def test_failed_check_exits_nonzero():
    # Corrupt the scores the recommend path sees; evaluation keeps its own
    # binding of predict_batch and is unaffected.
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import run\n"
        "run.import_convncf()\n"
        "orig = run.model.predict_batch\n"
        "def broken(*a, **k):\n"
        "    s = orig(*a, **k); s[0] = float('inf'); return s\n"
        "run.model.predict_batch = broken\n"
        "sys.exit(run.main(['--workload', 'desk', '--seed', '3', '--seconds', '1', '--tiny']))\n"
    )
    proc = _run([sys.executable, "-c", code])
    assert proc.returncode != 0
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is False and res["failed"] >= 1
    assert "check failed" in proc.stderr


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = _run(cmd, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
