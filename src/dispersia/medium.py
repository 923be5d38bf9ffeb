"""The medium of a modal run, and the errors of the kernel and modal layers,
without numpy and without ``kernels``.

``io`` builds a ``MediumSpec`` while it parses a config and ``cli`` catches
``KernelError``, ``ModalError`` and ``UnsupportedKernel``, so they live here
rather than in ``kernels`` and ``modal``, which export them as their own.  So
``fit``, which reads a trace and fits it, loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .kernels import Kernel


# The most cavity modes, k_range wavenumbers or trace rows a config may imply,
# checked before anything of that length is allocated, and the most modes
# modal.cavity_modes makes; io.MAX_COUNT and modal.MAX_MODES are this bound.
MAX_COUNT = 10**6


class KernelError(ValueError):
    """Invalid kernel data or an operation outside a kernel's domain."""


class ModalError(ValueError):
    pass


class UnsupportedKernel(ModalError):
    """A kernel without a finite modal closure; ``cli`` exits 4 on it."""


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
