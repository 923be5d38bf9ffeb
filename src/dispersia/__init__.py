"""dispersia: passivity certification and modal energy-decay simulation
for Maxwell media with dispersive memory kernels.

Every name of ``__all__``, and every submodule, is loaded on first access
(PEP 562), so ``import dispersia`` loads no numpy: ``dispersia.analyze``
imports ``dispersia.dispersion``, ``dispersia.run_multimode`` imports
``dispersia.modal`` and numpy with it.  A name always reads its home
module's current binding.
"""

import importlib

_HOMES = {
    "kernels": ("GAUSSIAN", "CertificationFailure", "ClassKCertificate", "DampedTerm",
                "ExpPolyKernel", "NotInClassK", "SampledKernel", "certify_class_K", "debye",
                "drude", "eval_kernel", "laplace", "lorentz"),
    "dispersion": ("OmegaRational", "PassivityError", "PassivityReport", "analyze",
                   "check_passivity", "check_strict_passivity", "decay_exponent", "omega_form"),
    "medium": ("KernelError", "MediumSpec"),
    "energy_trace": ("EnergyTrace",),
    "modal": ("HistoryState", "ModeSystem", "build_mode", "build_modes", "cavity_modes",
              "dispersion_roots", "initial_history", "run_multimode", "spectral_abscissa",
              "step_exact", "step_history"),
    "decay": ("DecayReport", "ExpectedDecay", "fit_decay", "predict"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("cli", "decay", "dispersion", "energy_trace", "io", "kernels", "medium",
               "modal")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
