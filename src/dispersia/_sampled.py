"""The sampled-kernel path of ``kernels``, loaded with numpy on its first use.

``kernels.certify_class_K``, ``kernels.laplace`` and
``kernels.sampled_iw_real_part`` call in here for a ``SampledKernel``, and
``kernels.GAUSSIAN`` and ``kernels.BUILTIN_SAMPLED`` are read from here, so a
process that never touches a sampled kernel never imports this module.
Laplace values come from one Filon-Legendre panel transform: the sampled
function is interpolated at 16 Gauss-Legendre nodes on panels chosen from it
alone, and each panel is integrated against e^{-i w s} exactly, for a whole
array of frequencies at once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .kernels import (
    CertificationFailure,
    ClassKCertificate,
    KernelError,
    SampledKernel,
    UnsupportedPoint,
)


def _gaussian_eval(t: np.ndarray, order: int) -> np.ndarray:
    # e^{-t^2} is 0.0 beyond |t| = 27.3, so clipping at 40 changes no value and
    # keeps t^2 finite where it would overflow (and 0 * inf give NaN)
    t = np.clip(t, -40.0, 40.0)
    g = np.exp(-(t**2))
    if order == 0:
        return g
    if order == 1:
        return -2.0 * t * g
    return (4.0 * t**2 - 2.0) * g


# max_t |(4 t^2 - 2) e^{-t^2}| e^t = 3.3414 at t = 1.428, so C = 3.4 leaves margin
GAUSSIAN = SampledKernel(_gaussian_eval, C=3.4, delta=1.0, name="gaussian")

BUILTIN_SAMPLED: dict[str, Callable[[np.ndarray, int], np.ndarray]] = {
    "gaussian": _gaussian_eval,
}


def certify(kernel: SampledKernel) -> ClassKCertificate:
    """Spot-check the user-supplied (C, delta) on a geometric grid of [0, 50/delta];
    a non-finite sample fails the certificate."""
    horizon = 50.0 / kernel.delta
    tgrid = np.concatenate(([0.0], np.geomspace(1e-6, horizon, 2000)))
    samples = np.abs(kernel(tgrid, 2))
    if not np.all(np.isfinite(samples)):
        bad = float(tgrid[~np.isfinite(samples)][0])
        raise CertificationFailure(f"kernel evaluator returned a non-finite nu'' at t={bad:.6g}",
                                   bad)
    excess = samples - kernel.C * np.exp(-kernel.delta * tgrid)
    worst = int(np.argmax(excess))
    if excess[worst] > 1e-9:
        raise CertificationFailure(
            f"claimed bound C={kernel.C}, delta={kernel.delta} violated at "
            f"t={tgrid[worst]:.6g} by {excess[worst]:.3g}",
            float(tgrid[worst]),
        )
    return ClassKCertificate(kernel.C, kernel.delta)


# The 16-point Gauss-Legendre rule on [-1, 1] of the Filon-Legendre panels,
# tabulated from numpy's leggauss(16): computing it calls LAPACK, whose
# workspace would then stay resident in every process.
_GL_HALF_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                  0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                  0.9445750230732326, 0.9894009349916499)
_GL_HALF_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                    0.062253523938647456, 0.027152459411754176)
_GL_NODES = np.array([-x for x in reversed(_GL_HALF_NODES)] + list(_GL_HALF_NODES))
_GL_WEIGHTS = np.array(list(reversed(_GL_HALF_WEIGHTS)) + list(_GL_HALF_WEIGHTS))
_BLOCK_PANELS = 128  # Filon panels per sampled-function call, so memory stays bounded


def _legendre_table(x: np.ndarray) -> np.ndarray:
    """P_0 .. P_15 at x, one row per degree, by Bonnet's recurrence."""
    table = np.ones((_GL_NODES.size, x.size))
    table[1] = x
    for n in range(1, _GL_NODES.size - 1):
        table[n + 1] = ((2 * n + 1) * x * table[n] - n * table[n - 1]) / (n + 1)
    return table


# c = samples @ _TO_LEGENDRE: the Legendre coefficients c_n = (n + 1/2) sum_k
# w_k P_n(x_k) g(x_k) of the degree-15 interpolant of g at the 16 nodes x_k
_TO_LEGENDRE = ((np.arange(_GL_NODES.size) + 0.5)[:, None]
                * _legendre_table(_GL_NODES) * _GL_WEIGHTS).T
_FILON_TOL = 1e-15  # accepted |c_14|, |c_15| of a panel, relative to the largest sample
_MAX_BISECTIONS = 50  # bisections of a first-level panel before it is accepted as is
_MILLER_START = 60  # first index of the backward recurrence, well above 15 + 16


def _spherical_jn(x: np.ndarray) -> np.ndarray:
    """j_0(x) .. j_15(x) for x >= 0, shape x.shape + (16,), in numpy only.

    For x >= 16 > n the forward recurrence j_(n+1) = (2n + 1)/x j_n - j_(n-1)
    from j_0 = sin x / x and j_1 = (j_0 - cos x) / x is stable.  Below, Miller's
    backward recurrence runs from index _MILLER_START, rescaled against
    overflow, and is normalized by sum_n (2n + 1) j_n^2 = 1, which, unlike
    j_0, never vanishes; the sign is the one that agrees with j_0 and j_1.
    Positive arguments below 1e-200 are read as 1e-200, which moves j_n by less
    than 1e-200 and keeps (2n + 1)/x finite; at x = 0, j_0 = 1 and j_n = 0
    exactly, so a real Laplace argument gives a real transform.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (_GL_NODES.size,))
    big = x >= _GL_NODES.size
    xb = x[big]
    fwd = np.empty(xb.shape + (_GL_NODES.size,))
    fwd[:, 0] = np.sin(xb) / xb
    fwd[:, 1] = (fwd[:, 0] - np.cos(xb)) / xb
    for n in range(1, _GL_NODES.size - 1):
        fwd[:, n + 1] = (2 * n + 1) / xb * fwd[:, n] - fwd[:, n - 1]
    out[big] = fwd

    xs = np.maximum(x[~big], 1e-200)
    back = np.zeros(xs.shape + (_GL_NODES.size,))
    upper, cur = np.zeros_like(xs), np.ones_like(xs)  # y_(n+1), y_n from n = _MILLER_START
    total = np.zeros_like(xs)
    for n in range(_MILLER_START, 0, -1):
        total += (2 * n + 1) * cur**2
        upper, cur = cur, (2 * n + 1) / xs * cur - upper
        scale = 1.0 / np.maximum(1.0, np.abs(cur))
        upper, cur, total = upper * scale, cur * scale, total * scale**2
        if n <= _GL_NODES.size:
            back[:, n - 1:] *= scale[:, None]
            back[:, n - 1] = cur
    total += cur**2
    j0 = np.sin(xs) / xs
    sign = np.where(back[:, 0] * j0 + 3.0 * back[:, 1] * (j0 - np.cos(xs)) / xs < 0, -1.0, 1.0)
    out[~big] = back * (sign / np.sqrt(total))[:, None]
    out[x == 0.0] = np.eye(1, _GL_NODES.size)[0]
    return out


def _filon_panels(f, upper: float):
    """Panels of [0, upper] on which f is a degree-15 polynomial to rounding.

    The first level is the geometric partition [0, 1], [1, 2], [2, 4], ...,
    cut at upper.  f is sampled at the 16 Gauss-Legendre nodes of every panel,
    _BLOCK_PANELS panels per call, and each panel is bisected until the top
    two Legendre coefficients of its interpolant are below _FILON_TOL times
    the largest sample so far, of any level (at most _MAX_BISECTIONS times):
    a peak that the first level misses raises the scale once it is sampled.
    Panels on which f vanishes are dropped.  Returns (left ends, half-widths,
    Legendre coefficients).  Nothing here depends on a frequency.
    """
    edges = np.concatenate(([0.0], 2.0 ** np.arange(math.ceil(math.log2(upper)))
                            if upper > 1.0 else [], [upper]))
    left, half = edges[:-1], 0.5 * np.diff(edges)
    kept, scale = [], 0.0
    for level in range(_MAX_BISECTIONS + 1):
        nodes = left[:, None] + half[:, None] * (_GL_NODES + 1.0)
        samples = np.concatenate([f(nodes[i:i + _BLOCK_PANELS].ravel())
                                  for i in range(0, len(nodes), _BLOCK_PANELS)])
        samples = samples.reshape(nodes.shape)
        if not np.all(np.isfinite(samples)):
            bad = nodes[~np.isfinite(samples)][0]
            raise KernelError(f"kernel evaluator returned a non-finite value at t={bad:.6g}")
        scale = max(scale, float(np.max(np.abs(samples))))
        coeffs = samples @ _TO_LEGENDRE
        done = (np.max(np.abs(coeffs[:, -2:]), axis=1) <= _FILON_TOL * scale) | (
            level == _MAX_BISECTIONS)
        keep = done & np.any(coeffs != 0.0, axis=1)
        kept.append((left[keep], half[keep], coeffs[keep]))
        left, half = left[~done], 0.5 * half[~done]
        if not left.size:
            break
        left = np.concatenate([left, left + 2.0 * half])
        half = np.concatenate([half, half])
    return tuple(np.concatenate(parts) for parts in zip(*kept))


def _filon_transform(f, upper: float, w: np.ndarray) -> np.ndarray:
    """int_0^upper f(s) e^{-i w s} ds for every w of the array w.

    On a panel with centre c and half-width h, f = sum_n c_n P_n((s - c)/h),
    and int_{-1}^{1} P_n(x) e^{-i a x} dx = 2 (-i)^n j_n(a) gives the panel's
    integral h e^{-i w c} sum_n c_n 2 (-i)^n j_n(w h) exactly, at any w.  The
    panels come from ``_filon_panels`` and depend on f only; each distinct
    panel width then costs one matrix product over all frequencies.
    """
    w = np.asarray(w, dtype=float)
    flat = w.ravel()
    left, half, coeffs = _filon_panels(f, upper)
    widths, group = np.unique(half, return_inverse=True)
    x = np.multiply.outer(flat, widths)
    jn = _spherical_jn(np.abs(x))
    jn[x < 0] *= (-1.0) ** np.arange(_GL_NODES.size)  # j_n(-a) = (-1)^n j_n(a)
    moments = 2.0 * (-1j) ** np.arange(_GL_NODES.size) * jn
    total = np.zeros(flat.shape, dtype=complex)
    for k, h in enumerate(widths):
        sel = group == k
        phase = np.exp(-1j * np.multiply.outer(flat, left[sel] + h))
        total += h * np.sum((phase @ coeffs[sel]) * moments[:, k], axis=1)
    return total.reshape(w.shape)


def laplace(kernel: SampledKernel, lam: complex) -> complex:
    """L nu(lambda), Re lambda >= 0, as ``kernels.laplace`` documents it."""
    if lam == 0:
        raise UnsupportedPoint("lambda = 0 is not supported on the sampled path")
    sigma = lam.real
    lap2 = complex(_filon_transform(lambda s: np.exp(-sigma * s) * kernel(s, 2),
                                    60.0 / kernel.delta, np.array([lam.imag]))[0])
    nup0 = float(kernel(0.0, 1))
    return (kernel.value_at_zero() + (nup0 + lap2) / lam) / lam


def iw_real_part(kernel: SampledKernel, w: float | np.ndarray) -> float | np.ndarray:
    """Re(i w L nu(i w)), as ``kernels.sampled_iw_real_part`` documents it."""
    w = np.asarray(w, dtype=float)
    if np.any(w == 0.0):
        raise UnsupportedPoint("w = 0 is not supported on the sampled path")
    sine = -_filon_transform(lambda s: kernel(s, 2), 60.0 / kernel.delta, w).imag
    out = kernel.value_at_zero() - sine / w
    return out if out.shape else float(out)
