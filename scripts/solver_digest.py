"""Solve fixed groups of entropic OT problems and print one digest line per group.

The groups, all built from fixed seeds:

- `sinkhorn_log_domain` on uniform [0, 1) costs whose size n cycles
  through 2..6, at epsilon 0.05, 0.01 and 0.005 (`max_iters` 500,
  `marginal_tol` 1e-12);
- `ot_distance` on 30 random (3, n, d) stacks, n and d in 2..16, at
  epsilon 1e-4, 1e-3, 0.01 and 0.1, each with `unroll_iters` 15 and 50.

Each line gives the number of problems that converged and that raised,
the median and max `iterations_used` (`-` for `ot_distance`, which does not
report them) and the SHA-256 of what every problem returned: each value and
plan for `sinkhorn_log_domain`, each stack's values or error message for
`ot_distance`. Two source trees that print the same lines solved every
problem to the same bytes.

    python scripts/solver_digest.py --src src
    python scripts/solver_digest.py --src ../other/src
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory that holds the otface package")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from otface import (NumericalRegimeError, SinkhornConfig, Tensor, ot_distance,
                        sinkhorn_log_domain)

    rng = np.random.default_rng(0)
    costs = [rng.random((2 + i % 5,) * 2) for i in range(200)]
    for eps in (0.05, 0.01, 0.005):
        cfg = SinkhornConfig(epsilon=eps, max_iters=500, marginal_tol=1e-12)
        digest, converged, raised, iters = hashlib.sha256(), 0, 0, []
        for cost in costs:
            try:
                plan = sinkhorn_log_domain(cost, cfg)
            except NumericalRegimeError as exc:
                raised += 1
                digest.update(str(exc).encode())
                continue
            converged += plan.converged
            iters.append(plan.iterations_used)
            digest.update(np.float64(plan.value).tobytes())
            digest.update(plan.plan.tobytes())
        print(f"sinkhorn_log_domain eps={eps} problems={len(costs)} converged={converged} "
              f"raised={raised} iters_p50={np.median(iters):g} iters_max={max(iters)} "
              f"sha256 {digest.hexdigest()}")

    stacks = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n, d = rng.integers(2, 17, size=2)
        stacks.append(rng.normal(size=(2, 3, n, d)))
    for eps in (1e-4, 1e-3, 0.01, 0.1):
        for budget in (15, 50):
            cfg = SinkhornConfig(epsilon=eps, unroll_iters=budget)
            digest, converged, raised = hashlib.sha256(), 0, 0
            for m1, m2 in stacks:
                try:
                    values = ot_distance(Tensor(m1), Tensor(m2), cfg).data
                except NumericalRegimeError as exc:
                    raised += 1
                    digest.update(str(exc).encode())
                    continue
                converged += 1
                digest.update(values.tobytes())
            print(f"ot_distance eps={eps} unroll_iters={budget} problems={len(stacks)} "
                  f"converged={converged} raised={raised} iters_p50=- iters_max=- "
                  f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
