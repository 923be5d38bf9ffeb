"""An energy trace, without numpy: what ``modal.run_multimode`` returns and
``io.read_trace`` reads, so that ``fit`` reads a trace without ``modal``.

It has a module of its own rather than a place in ``medium``, which every
command loads, so that ``analyze`` does not pay for defining it.  ``modal``
exports it as its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .medium import ModalError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class EnergyTrace:
    times: np.ndarray
    energy: np.ndarray
    history_norm: np.ndarray | None = None

    def __post_init__(self):
        if self.times.shape != self.energy.shape:
            raise ModalError("times and energy must have equal length")
