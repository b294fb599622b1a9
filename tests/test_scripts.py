import re
import subprocess
import sys
from pathlib import Path

from otface.cli import METRICS_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


def test_train_digest_prints_metrics_rows_and_both_digests():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "train_digest.py"), "--src", str(ROOT / "src"),
         "--epochs", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    header, row, params, pairs = done.stdout.splitlines()
    assert header == ",".join(METRICS_COLUMNS)
    values = row.split(",")
    assert len(values) == len(METRICS_COLUMNS) and values[0] == "0"
    assert re.fullmatch(r"params sha256 [0-9a-f]{64}", params)
    assert re.fullmatch(r"pairs sha256 [0-9a-f]{64}", pairs)
