#!/usr/bin/env python3
"""Spectral abscissa vs wavenumber for the three standard media.

For m = 0 media the abscissa plateaus at a negative constant; for m = 2
media it scales like -c/k^2, so the |abscissa|*k^2 column converges.
"""

import argparse

import numpy as np

import dispersia as d

ZERO = d.ExpPolyKernel.zero()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-min", type=float, default=1.0)
    parser.add_argument("--k-max", type=float, default=256.0)
    parser.add_argument("--num", type=int, default=9)
    args = parser.parse_args()

    ks = np.geomspace(args.k_min, args.k_max, args.num)
    media = {"debye": d.debye(), "lorentz": d.lorentz(), "drude": d.drude()}
    # one stacked eigenvalue call per medium, over all of ks
    columns = [[d.spectral_abscissa(system)[0]
                for system in d.build_modes(d.MediumSpec(1.0, 1.0, kern, ZERO), ks)]
               for kern in media.values()]
    print(f"{'k':>10s} " + " ".join(f"{n:>12s} {n + '*k^2':>12s}" for n in media))
    for k, row in zip(ks, zip(*columns)):
        print(" ".join([f"{k:10.2f}"] + [f"{a:12.6f} {abs(a) * k * k:12.6f}" for a in row]))


if __name__ == "__main__":
    main()
