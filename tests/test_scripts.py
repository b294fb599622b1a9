import re
import subprocess
import sys
from pathlib import Path

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
