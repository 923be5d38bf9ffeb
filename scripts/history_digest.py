#!/usr/bin/env python3
"""Digest the history-integrator runs of the benchmark's ``sampled_history`` jobs.

    PYTHONPATH=src python scripts/history_digest.py

For each pinned seed 1, 2 and 3 and each k of that seed's job (from
``perfbench/workloads.make_jobs``), steps a history of the sampled Gaussian
medium as the job does and prints one line: the seed, k and the sha256 of
``e_past`` followed by ``h_past``, as float64 bytes.  Nine lines in all.
``dispersia`` comes from PYTHONPATH, so ``PYTHONPATH=../parent/src python
scripts/history_digest.py`` digests another checkout's integrator on the same
jobs, and two trees whose histories are bit-identical print the same lines.
"""

import hashlib
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave src/ and perfbench/ as a fresh checkout has them
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import dispersia  # noqa: E402
from workloads import make_jobs  # noqa: E402

SEEDS = (1, 2, 3)


def main():
    for seed in SEEDS:
        for job in make_jobs("sampled_history", seed):
            p = job.params
            kernel = dispersia.SampledKernel(dispersia.GAUSSIAN.evaluator, C=p["C"],
                                             delta=p["delta"], name="gaussian")
            medium = dispersia.MediumSpec(1.0, 1.0, kernel, dispersia.ExpPolyKernel.zero())
            for k in p["ks"]:
                state = dispersia.initial_history(p["dt"], s_max=p["steps"] * p["dt"])
                for _ in range(p["steps"]):
                    state = dispersia.step_history(medium, k, state, p["dt"])
                digest = hashlib.sha256(state.e_past.tobytes() + state.h_past.tobytes())
                print(f"{seed} {k!r} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
