"""The reference loop that run.py rescales its times by, as a helper process.

It imports no dispersia code and runs apart from the benchmark's process, so
nothing the package does there (threads it leaves running, objects it keeps
alive, a grown heap) can slow the loop down with the jobs it is meant to
measure them against.  Protocol: each line on stdin is a count n; the helper
runs the loop n times and answers with one line, a JSON list of the n
durations in seconds.  It exits at end of input.

    printf '3\\n' | python3 perfbench/reference.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from scipy import integrate  # noqa: E402

MATRIX = np.array([[0.9, 0.1, 0.0, 0.0], [-0.1, 0.9, 0.05, 0.0],
                   [0.0, -0.05, 0.8, 0.1], [0.0, 0.0, -0.1, 0.8]])


def loop() -> None:
    """Fixed work in the package's own mix: small matvecs, weighted quadrature
    of a numpy-scalar integrand, float formatting."""
    x = np.ones(4)
    for _ in range(600):
        x = MATRIX @ x + 0.01
    for w in (0.7, 9.1):
        integrate.quad(lambda t: float((4.0 * t * t - 2.0) * np.exp(-t * t)), 0.0, 60.0,
                       weight="cos", wvar=w, epsabs=1e-11, limit=400)
    ",".join(f"{v:.17g}" for v in np.linspace(0.0, 1.0, 600))


def main() -> None:
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            t0 = time.perf_counter()
            loop()
            times.append(time.perf_counter() - t0)
        print(json.dumps(times), flush=True)


if __name__ == "__main__":
    main()
