"""Serialization: kernel documents, run configs, and the output of every command.

Each output (report, trace, spectrum table) has one writer; writes are atomic
(temp file + rename) so a failed run never leaves a partial output behind.
Parsing a kernel or an analyze config needs no numpy: numpy is imported by
the trace formatter and reader and by a k_range grid, and ``modal`` by the
cavity and trace-length checks of a run config.  ``kernels`` is imported by
the kernel document reader and writer, so reading a trace loads neither
``kernels`` nor ``modal``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .medium import KernelError, MediumSpec, ModalError

if TYPE_CHECKING:
    from .decay import DecayReport
    from .dispersion import PassivityReport
    from .energy_trace import EnergyTrace
    from .kernels import Kernel


# The most cavity modes, k_range wavenumbers or trace rows a config may imply,
# checked before anything of that length is allocated.
MAX_COUNT = 10**6


class ParseError(ValueError):
    """Config or document parse failure; message names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _number(value, field: str) -> float:
    """A JSON number as a float; null, a boolean, a string or a list is a ParseError."""
    if type(value) not in (int, float):
        raise ParseError(field, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ParseError(field, "must be finite") from None


def _count(value, field: str) -> int:
    """A JSON integer from 1 to MAX_COUNT: a mode count, a grid size or a stride."""
    if type(value) is not int or not 1 <= value <= MAX_COUNT:
        raise ParseError(field, f"must be an integer from 1 to {MAX_COUNT}, got {value!r}")
    return value


def _coefficients(value, field: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ParseError(field, f"expected a nonempty list of numbers, got {value!r}")
    return [_number(v, field) for v in value]


# ---------------------------------------------------------------------------
# kernel documents

def kernel_to_doc(kernel: Kernel) -> dict:
    from . import kernels

    if isinstance(kernel, kernels.SampledKernel):
        return {
            "type": "sampled_builtin",
            "name": kernel.name,
            "C": kernel.C,
            "delta": kernel.delta,
        }
    terms = []
    rest = kernel.offset
    while rest:  # one z = 0 entry per float, so that an exact (Fraction) offset survives
        part = float(rest)
        terms.append({
            "poly_re": [part],
            "poly_im": [0.0],
            "z_re": 0.0,
            "z_im": 0.0,
        })
        rest -= type(rest)(part)
    for coeffs, z in kernel.complex_terms():
        terms.append({
            "poly_re": [float(c.real) for c in coeffs],
            "poly_im": [float(c.imag) for c in coeffs],
            "z_re": float(z.real),
            "z_im": float(z.imag),
        })
    return {"type": "exp_poly", "terms": terms}


def kernel_from_doc(doc: dict, where: str = "kernel") -> Kernel:
    # "from . import": a "from .kernels import" would probe kernels.__path__
    # through the module's __getattr__, and raise, on every call
    from . import kernels

    if not isinstance(doc, dict):
        raise ParseError(where, "expected an object")
    ktype = doc.get("type")
    if ktype == "exp_poly":
        raw = doc.get("terms")
        if not isinstance(raw, list):
            raise ParseError(f"{where}.terms", "expected a list of terms")
        pairs = []
        for i, term in enumerate(raw):
            loc = f"{where}.terms[{i}]"
            if not isinstance(term, dict):
                raise ParseError(loc, "expected an object")
            for key in ("poly_re", "poly_im", "z_re", "z_im"):
                if key not in term:
                    raise ParseError(f"{loc}.{key}", "missing required field")
            pre = _coefficients(term["poly_re"], f"{loc}.poly_re")
            pim = _coefficients(term["poly_im"], f"{loc}.poly_im")
            if len(pre) != len(pim):
                raise ParseError(
                    f"{loc}.poly_re",
                    "poly_re and poly_im must be equal-length coefficient arrays",
                )
            z_re = _number(term["z_re"], f"{loc}.z_re")
            z_im = _number(term["z_im"], f"{loc}.z_im")
            # json reads NaN and Infinity; name the first field holding one
            for key, values in (("poly_re", pre), ("poly_im", pim), ("z_re", [z_re]),
                                ("z_im", [z_im])):
                if not all(map(math.isfinite, values)):
                    raise ParseError(f"{loc}.{key}", "must be finite")
            # the float operations of numpy's pre + 1j * pim, signed zeros included
            coeffs = [complex(a + 0.0 * b, b + 0.0) for a, b in zip(pre, pim)]
            pairs.append((coeffs, complex(z_re, z_im)))
        try:  # an unpaired complex term, or a z = 0 term that is not a constant
            return kernels.ExpPolyKernel.from_complex_terms(pairs)
        except KernelError as exc:
            raise ParseError(f"{where}.terms", str(exc)) from exc
    if ktype == "sampled_builtin":
        name = doc.get("name")
        if not isinstance(name, str):
            raise ParseError(f"{where}.name", f"expected a string, got {name!r}")
        if name not in kernels.BUILTIN_SAMPLED:
            raise ParseError(
                f"{where}.name",
                f"unknown builtin {name!r}; known: {sorted(kernels.BUILTIN_SAMPLED)}",
            )
        for key in ("C", "delta"):
            if key not in doc:
                raise ParseError(f"{where}.{key}", "missing required field")
        return kernels.SampledKernel(
            kernels.BUILTIN_SAMPLED[name],
            C=_number(doc["C"], f"{where}.C"),
            delta=_number(doc["delta"], f"{where}.delta"),
            name=name,
        )
    raise ParseError(
        f"{where}.type", f"expected 'exp_poly' or 'sampled_builtin', got {ktype!r}"
    )


def _resolve_kernel(doc, where: str, base_dir: Path) -> Kernel:
    """A kernel field is either an inline document or {"file": path}."""
    if isinstance(doc, dict) and set(doc) == {"file"}:
        if not isinstance(doc["file"], str):
            raise ParseError(f"{where}.file", f"expected a path string, got {doc['file']!r}")
        path = base_dir / doc["file"]
        if not path.is_file():
            raise ParseError(f"{where}.file", f"kernel file not found: {path}")
        try:
            inner = json.loads(path.read_text())
        except ValueError as exc:  # malformed JSON, or an integer beyond the conversion limit
            raise ParseError(f"{where}.file", f"invalid JSON in {path}: {exc}") from exc
        return kernel_from_doc(inner, where)
    return kernel_from_doc(doc, where)


# ---------------------------------------------------------------------------
# run configs

@dataclass(frozen=True)
class SimulateConfig:
    medium: MediumSpec
    modes: tuple[tuple[float, float], ...]  # (wavenumber k, initial amplitude)
    dt: float
    T: float
    output_stride: int = 1


@dataclass(frozen=True)
class SpectrumConfig:
    medium: MediumSpec
    k_values: tuple[float, ...]


def _require(doc: dict, key: str, where: str = "config"):
    if key not in doc:
        raise ParseError(f"{where}.{key}", "missing required field")
    return doc[key]


def _positive(value, field: str) -> float:
    x = _number(value, field)
    if not math.isfinite(x) or x <= 0:
        raise ParseError(field, f"must be a positive finite number, got {value!r}")
    return x


def parse_medium(doc: dict, base_dir: Path) -> MediumSpec:
    if not isinstance(doc, dict):
        raise ParseError("medium", "expected an object")
    eps = _positive(_require(doc, "eps", "medium"), "medium.eps")
    mu = _positive(_require(doc, "mu", "medium"), "medium.mu")
    nu_e = _resolve_kernel(_require(doc, "nu_e", "medium"), "medium.nu_e", base_dir)
    nu_h = _resolve_kernel(_require(doc, "nu_h", "medium"), "medium.nu_h", base_dir)
    return MediumSpec(eps=eps, mu=mu, nu_e=nu_e, nu_h=nu_h)


def _check_coupling(medium: MediumSpec, ks) -> None:
    """Every mode matrix holds k / eps and k / mu; both must be finite."""
    k = max(ks, default=0.0)
    for name, value in (("eps", medium.eps), ("mu", medium.mu)):
        if not math.isfinite(k / value):
            raise ParseError(f"medium.{name}", f"k / {name} is not finite at k = {k!r}")


def _parse_modes(doc: dict) -> tuple[tuple[float, float], ...]:
    has_modes = "modes" in doc
    has_cavity = "cavity" in doc
    if has_modes == has_cavity:
        raise ParseError("config", "exactly one of 'modes' or 'cavity' is required")
    if has_modes:
        raw = doc["modes"]
        if not isinstance(raw, list):
            raise ParseError("modes", "expected a list of [k, amplitude] pairs")
        modes = []
        for i, pair in enumerate(raw):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ParseError(f"modes[{i}]", "expected a [k, amplitude] pair")
            k = _positive(pair[0], f"modes[{i}][0]")
            amp = _number(pair[1], f"modes[{i}][1]")
            if not math.isfinite(amp):
                raise ParseError(f"modes[{i}][1]", "amplitude must be finite")
            modes.append((k, amp))
        return tuple(modes)
    cav = doc["cavity"]
    if not isinstance(cav, dict):
        raise ParseError("cavity", "expected an object")
    length = _positive(_require(cav, "length", "cavity"), "cavity.length")
    n_max = _count(_require(cav, "n_max", "cavity"), "cavity.n_max")
    from . import modal

    try:
        return tuple(modal.cavity_modes(length, n_max))
    except ModalError as exc:  # length and n_max are checked: the largest k is not finite
        raise ParseError("cavity.length", str(exc)) from exc


def parse_analyze_config(doc: dict, base_dir: Path) -> tuple[Kernel, Kernel]:
    """The kernels of an analyze config: a full medium block, or bare nu_e /
    nu_h fields, a missing one the zero kernel."""
    if not isinstance(doc, dict):
        raise ParseError("config", "expected a JSON object")
    if "medium" in doc:
        medium = parse_medium(doc["medium"], base_dir)
        return medium.nu_e, medium.nu_h
    if "nu_e" not in doc and "nu_h" not in doc:
        raise ParseError("config", "expected 'medium' or 'nu_e'/'nu_h' fields")
    zero = {"type": "exp_poly", "terms": []}
    nu_e = _resolve_kernel(doc.get("nu_e", zero), "nu_e", base_dir)
    nu_h = _resolve_kernel(doc.get("nu_h", zero), "nu_h", base_dir)
    return nu_e, nu_h


def parse_simulate_config(doc: dict, base_dir: Path) -> SimulateConfig:
    if not isinstance(doc, dict):
        raise ParseError("config", "expected a JSON object")
    medium = parse_medium(_require(doc, "medium"), base_dir)
    modes = _parse_modes(doc)
    dt = _positive(_require(doc, "dt"), "dt")
    T = _positive(_require(doc, "T"), "T")
    if T <= dt:
        raise ParseError("T", f"must exceed dt ({dt})")
    stride = _count(doc.get("output_stride", 1), "output_stride")
    from . import modal

    try:
        rows = modal._trace_rows(T, dt, stride)
    except ModalError:  # T / dt not finite, or more rows than an array can hold
        rows = math.inf
    if rows > MAX_COUNT:
        raise ParseError("dt", f"T / dt at output_stride {stride} gives more than "
                               f"{MAX_COUNT} trace rows")
    _check_coupling(medium, [k for k, _ in modes])
    return SimulateConfig(medium=medium, modes=modes, dt=dt, T=T, output_stride=stride)


def parse_spectrum_config(doc: dict, base_dir: Path) -> SpectrumConfig:
    if not isinstance(doc, dict):
        raise ParseError("config", "expected a JSON object")
    medium = parse_medium(_require(doc, "medium"), base_dir)
    if "k_values" in doc:
        raw = doc["k_values"]
        if not isinstance(raw, list) or not raw:
            raise ParseError("k_values", "expected a nonempty list of wavenumbers")
        ks = tuple(_positive(v, f"k_values[{i}]") for i, v in enumerate(raw))
    elif "k_range" in doc:
        rng = doc["k_range"]
        if not isinstance(rng, dict):
            raise ParseError("k_range", "expected an object {k_min, k_max, num}")
        k_min = _positive(_require(rng, "k_min", "k_range"), "k_range.k_min")
        k_max = _positive(_require(rng, "k_max", "k_range"), "k_range.k_max")
        num = _count(_require(rng, "num", "k_range"), "k_range.num")
        if num < 2:
            raise ParseError("k_range.num", "must be an integer >= 2")
        if k_max <= k_min:
            raise ParseError("k_range.k_max", "must exceed k_min")
        import numpy as np

        ks = tuple(np.linspace(k_min, k_max, num))
    else:
        raise ParseError("config", "one of 'k_values' or 'k_range' is required")
    _check_coupling(medium, ks)
    return SpectrumConfig(medium=medium, k_values=ks)


def load_config(path: str | os.PathLike) -> tuple[dict, Path]:
    p = Path(path)
    if not p.is_file():
        raise ParseError("config", f"file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond the int conversion limit
        raise ParseError("config", f"invalid JSON: {exc}") from exc
    return doc, p.parent


# ---------------------------------------------------------------------------
# energy traces

TRACE_HEADER = "t,energy,history_norm"
_FORMAT_CHUNK = 1024  # trace rows turned into Python floats at a time


def format_trace(trace: EnergyTrace) -> str:
    import numpy as np

    columns = [trace.times, trace.energy]
    if trace.history_norm is None:
        row = "%.17g,%.17g,0\n"  # what %.17g makes of the reserved column's 0.0
    else:
        columns.append(np.asarray(trace.history_norm))
        row = "%.17g,%.17g,%.17g\n"
    parts = [TRACE_HEADER + "\n"]
    # One %-format per chunk of rows, on Python floats (they format faster
    # than numpy scalars).  A chunk at a time keeps a whole trace's floats
    # from filling the heap beside its rows.
    for i in range(0, trace.times.size, _FORMAT_CHUNK):
        chunk = np.stack([c[i:i + _FORMAT_CHUNK] for c in columns], axis=1)
        parts.append(row * len(chunk) % tuple(chunk.ravel().tolist()))
    return "".join(parts)


def read_trace(path: str | os.PathLike) -> EnergyTrace:
    p = Path(path)
    if not p.is_file():
        raise ParseError("trace", f"file not found: {p}")
    with p.open() as f:
        try:
            header = f.readline().strip()
        except UnicodeDecodeError as exc:
            raise ParseError("trace", f"not UTF-8 text: {exc}") from exc
        if header != TRACE_HEADER:
            raise ParseError("trace", f"bad header {header!r}, expected {TRACE_HEADER!r}")
        import numpy as np

        from .energy_trace import EnergyTrace

        try:
            # the first line with a row on it; numpy warns on input without one
            first = next((line for line in f if line.split("#", 1)[0].strip()), None)
            if first is None:
                return EnergyTrace(np.empty(0), np.empty(0), np.empty(0))
            data = np.loadtxt(itertools.chain([first], f), delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ParseError("trace", f"malformed row: {exc}") from exc
    if data.shape[1] != 3:
        raise ParseError("trace", f"expected 3 columns, got {data.shape[1]}")
    return EnergyTrace(data[:, 0], data[:, 1], data[:, 2])


# ---------------------------------------------------------------------------
# report documents: the report's fields in declaration order (stable for
# golden-file comparison), tuples as lists

def _report_doc(report, omit) -> dict:
    values = ((f.name, getattr(report, f.name)) for f in fields(report) if f.name not in omit)
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


def passivity_report_to_doc(report: PassivityReport) -> dict:
    """Every field; m, sigma_E, sigma_H and omega0 only when m is set."""
    return _report_doc(report, ("m", "sigma_E", "sigma_H", "omega0") if report.m is None else ())


def decay_report_to_doc(report: DecayReport) -> dict:
    """Every field; rate and slope only when set."""
    return _report_doc(report, [k for k in ("rate", "slope") if getattr(report, k) is None])


# ---------------------------------------------------------------------------
# writers: each formats one output, writes it atomically when a path is
# given, and returns its text

def _write(path: Optional[str | os.PathLike], text: str) -> str:
    """A path that cannot be written is a ParseError naming it; no temporary
    file is left behind."""
    if path is None:
        return text
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:  # a directory, a missing parent, no permission
        raise ParseError("--out", f"cannot write {path}: {exc.strerror or exc}") from None
    return text


def write_report(path: Optional[str | os.PathLike], doc: dict) -> str:
    """A report document as indented JSON."""
    return _write(path, json.dumps(doc, indent=2) + "\n")


def write_trace(path: Optional[str | os.PathLike], trace: EnergyTrace) -> str:
    """A trace as ``format_trace`` gives it."""
    return _write(path, format_trace(trace))


def write_spectrum(path: Optional[str | os.PathLike], rows) -> str:
    """rows: (k, abscissa, n_eigs) per wavenumber."""
    return _write(path, "k,abscissa,n_eigs\n" + "".join("%.17g,%.17g,%d\n" % r for r in rows))
