import re
import subprocess
import sys
from pathlib import Path

import pytest

from otface.cli import METRICS_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


def test_train_digest_prints_metrics_rows_and_both_digests():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "train_digest.py"), "--src", str(ROOT / "src"),
         "--epochs", "1", "--seed", "0", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 14
    blocks = [lines[:7], lines[7:]]
    for seed, (title, header, row, params, pairs, embeddings, accuracy) in enumerate(blocks):
        assert title == f"seed {seed}"
        assert header == ",".join(METRICS_COLUMNS)
        values = row.split(",")
        assert len(values) == len(METRICS_COLUMNS) and values[0] == "0"
        assert re.fullmatch(r"params sha256 [0-9a-f]{64}", params)
        assert re.fullmatch(r"pairs sha256 [0-9a-f]{64}", pairs)
        assert re.fullmatch(r"embeddings sha256 [0-9a-f]{64}", embeddings)
        assert 0.0 <= float(re.fullmatch(r"accuracy (\S+)", accuracy)[1]) <= 1.0
    # the seed moves the training and so the embeddings, not the held-out pairs
    assert blocks[0][3] != blocks[1][3] and blocks[0][4] == blocks[1][4]
    assert blocks[0][5] != blocks[1][5]


def test_train_digest_paired_trains_both_arms_and_summarises_them():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "train_digest.py"), "--src", str(ROOT / "src"),
         "--epochs", "1", "--seed", "0", "1", "--paired"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.splitlines()
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
