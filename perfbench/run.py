"""Benchmark entry point.

    python3 perfbench/run.py --workload train_ot --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`;
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
ones. Inputs are generated from the seed under .perfbench-work/ and
removed when the run ends.
"""

import os

# One BLAS thread: every workload is one process making sequential calls,
# and a fixed thread count keeps the scheduler out of the numbers. Must be
# set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_ot", "train_margin", "verify", "ot_solve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "otface" / "__init__.py").is_file():
        print(f"error: no otface package under {src}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import otface

    if Path(otface.__file__).resolve().parent != (src / "otface").resolve():
        print(f"error: imported otface from {otface.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads

    # a terminated run still removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = workloads.RUNNERS[args.workload](
            work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    info = " ".join(f"{k}={v:.6g}" for k, v in result.pop("info").items())
    print(f"# blas_threads={BLAS_THREADS} nproc={os.cpu_count()} "
          f"workload={args.workload} seed={args.seed} {info}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
