"""The medium of a modal run, and the errors of the kernel and modal layers,
without numpy and without ``kernels``.

``io`` builds a ``MediumSpec`` while it parses a config and ``cli`` catches
``KernelError`` and ``ModalError``, so they live here rather than in
``kernels`` and ``modal``, which export them as their own.  So ``fit``, which
reads a trace and fits it, loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .kernels import Kernel


class KernelError(ValueError):
    """Invalid kernel data or an operation outside a kernel's domain."""


class ModalError(ValueError):
    pass


def _zero_kernel() -> Kernel:
    from .kernels import ExpPolyKernel

    return ExpPolyKernel.zero()


@dataclass(frozen=True)
class MediumSpec:
    eps: float
    mu: float
    nu_e: Kernel = field(default_factory=_zero_kernel)
    nu_h: Kernel = field(default_factory=_zero_kernel)

    def __post_init__(self):
        if not (0 < self.eps < math.inf and 0 < self.mu < math.inf):
            raise ModalError("permittivity and permeability must be positive and finite, "
                             f"got eps = {self.eps!r}, mu = {self.mu!r}")
