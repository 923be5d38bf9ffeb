"""The medium of a modal run, and the error of the modal layer, without numpy.

``io`` builds a ``MediumSpec`` while it parses a config and ``cli`` catches
``ModalError``, so both live here rather than in ``modal``, which imports
numpy; ``modal`` exports both names as its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernels import ExpPolyKernel, Kernel


class ModalError(ValueError):
    pass


@dataclass(frozen=True)
class MediumSpec:
    eps: float
    mu: float
    nu_e: Kernel = ExpPolyKernel.zero()
    nu_h: Kernel = ExpPolyKernel.zero()

    def __post_init__(self):
        if not (0 < self.eps < math.inf and 0 < self.mu < math.inf):
            raise ModalError("permittivity and permeability must be positive and finite, "
                             f"got eps = {self.eps!r}, mu = {self.mu!r}")
