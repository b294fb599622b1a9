import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from otface.cli import METRICS_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


def _digest(*extra):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "train_digest.py"), "--src", str(ROOT / "src"),
         "--epochs", "1", "--seed", "0", "1", *extra],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout


@pytest.fixture(scope="module")
def digest():
    return _digest()


def test_train_digest_prints_metrics_rows_and_both_digests(digest):
    lines = digest.splitlines()
    assert len(lines) == 4 * 7 + 1
    blocks = [lines[i:i + 7] for i in range(0, 28, 7)]
    for _, header, row, params, pairs, embeddings, accuracy in blocks:
        assert header == ",".join(METRICS_COLUMNS)
        values = row.split(",")
        assert len(values) == len(METRICS_COLUMNS) and values[0] == "0"
        assert re.fullmatch(r"params sha256 [0-9a-f]{64}", params)
        assert re.fullmatch(r"pairs sha256 [0-9a-f]{64}", pairs)
        assert re.fullmatch(r"embeddings sha256 [0-9a-f]{64}", embeddings)
        assert 0.0 <= float(re.fullmatch(r"accuracy (\S+)", accuracy)[1]) <= 1.0
    # the seed moves the training and so the embeddings, not the held-out pairs
    for seed0, seed1 in zip(blocks[:2], blocks[2:]):
        assert seed0[3] != seed1[3] and seed0[4] == seed1[4] and seed0[5] != seed1[5]


def test_train_digest_paired_trains_both_arms_and_summarises_them(digest):
    lines = digest.splitlines()
    assert len(lines) == 4 * 7 + 1
    blocks = [lines[i:i + 7] for i in range(0, 28, 7)]
    assert [b[0] for b in blocks] == ["seed 0", "seed 0 no-mining", "seed 1", "seed 1 no-mining"]
    accuracies = [float(b[6].split()[1]) for b in blocks]
    for ot_block, margin_block in (blocks[:2], blocks[2:]):
        assert int(ot_block[2].split(",")[4]) > 0 == int(margin_block[2].split(",")[4])
    diffs = [accuracies[0] - accuracies[1], accuracies[2] - accuracies[3]]
    match = re.fullmatch(
        r"paired all seeds=2 wins=(\d+) ties=(\d+) losses=(\d+) mean_diff=(\S+) se=(\S+); "
        r"margin>=0.9 seeds=(\d+) wins=\d+ ties=\d+ losses=\d+ mean_diff=\S+ se=\S+", lines[-1])
    assert match, lines[-1]
    assert int(match[1]) == sum(d > 0 for d in diffs)
    assert int(match[2]) == sum(d == 0 for d in diffs)
    assert int(match[3]) == sum(d < 0 for d in diffs)
    assert float(match[4]) == pytest.approx(sum(diffs) / 2, abs=1e-4)
    assert float(match[5]) == pytest.approx(abs(diffs[0] - diffs[1]) / 2, abs=1e-4)
    assert int(match[6]) == sum(margin >= 0.9 for margin in accuracies[1::2])


@pytest.mark.parametrize("caller,want", [(None, "1"), ("2", "2")])
def test_train_digest_workers_run_one_blas_thread_unless_the_caller_sets_it(
        monkeypatch, caller, want):
    # OpenBLAS's default threads in each of two workers oversubscribe 2 CPUs
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import train_digest
    if caller is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller)
    with train_digest._workers(2) as pool:
        assert set(pool.map(os.getenv, ["OPENBLAS_NUM_THREADS"] * 4)) == {want}


def test_train_digest_jobs_print_the_serial_lines_and_append_a_record(digest, tmp_path):
    record = tmp_path / "sweep.json"
    record.write_text('[{"commit": "earlier"}]')
    assert _digest("--jobs", "2", "--json", str(record)) == digest
    earlier, entry = json.loads(record.read_text())
    assert earlier == {"commit": "earlier"}
    lines = digest.splitlines()
    assert entry["epochs"] == 1 and entry["paired"] == lines[-1]
    assert [seed["seed"] for seed in entry["seeds"]] == [0, 1]
    blocks = [lines[i:i + 7] for i in range(0, 28, 7)]
    for seed, (ot_block, margin_block) in zip(entry["seeds"], (blocks[:2], blocks[2:])):
        for arm, block in (("ot", ot_block), ("margin", margin_block)):
            assert block[3] == f"params sha256 {seed[arm]['params_sha256']}"
            assert block[6] == f"accuracy {seed[arm]['accuracy']!r}"


def test_train_digest_json_reads_the_run_against_an_earlier_entry(digest, tmp_path):
    # two entries: one of the same epochs and seeds, whose diffs +0.01 and
    # +0.03 give mean +0.02 and SE 0.01, so floor 0; one of other epochs
    record = tmp_path / "sweep.json"
    seeds = [{"seed": seed, "ot": {"accuracy": 0.5 + diff}, "margin": {"accuracy": 0.5}}
             for seed, diff in ((0, 0.01), (1, 0.03))]
    record.write_text(json.dumps([{"commit": "same", "epochs": 1, "seeds": seeds},
                                  {"commit": "other", "epochs": 30, "seeds": seeds}]))
    lines = _digest("--json", str(record)).splitlines()
    assert "\n".join(lines[:-1]) + "\n" == digest
    accuracies = [float(line.split()[1]) for line in lines if line.startswith("accuracy ")]
    now = (accuracies[0] - accuracies[1] + accuracies[2] - accuracies[3]) / 2
    match = re.fullmatch(r"against same mean_diff=\+0\.0200 now=(\S+) change=(\S+) "
                         r"floor=\+0\.0000 within_2se=(yes|no)", lines[-1])
    assert match, lines[-1]
    assert float(match[1]) == pytest.approx(now, abs=1e-4)
    assert float(match[2]) == pytest.approx(now - 0.02, abs=1e-4)
    assert match[3] == ("yes" if now >= 0.0 else "no")
    assert [entry["commit"] for entry in json.loads(record.read_text())][:2] == ["same", "other"]


def test_solver_digest_prints_one_line_per_group():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "solver_digest.py"),
         "--src", str(ROOT / "src")],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.splitlines()
    groups = [f"sinkhorn_log_domain eps={eps} problems=200" for eps in (0.05, 0.01, 0.005)]
    groups += [f"ot_distance eps={eps} unroll_iters={budget} problems=30"
               for eps in (0.0001, 0.001, 0.01, 0.1) for budget in (15, 50)]
    assert len(lines) == len(groups)
    for line, group in zip(lines, groups):
        iters = r"\d+(\.5)?" if group.startswith("sinkhorn") else "-"
        match = re.fullmatch(rf"{group} converged=(\d+) raised=(\d+) iters_p50={iters} "
                             rf"iters_max=(\d+|-) sha256 [0-9a-f]{{64}}", line)
        assert match, line
        assert int(match[1]) + int(match[2]) <= int(group.rsplit("=", 1)[1])
