"""The sampled-kernel path of ``kernels``, loaded with numpy on its first use.

``kernels.certify_class_K``, ``kernels.laplace`` and
``kernels.sampled_iw_real_part`` call in here for a ``SampledKernel``: the
certificate spot-check and the Filon transform.  The builtin kernels live in
``kernels``, so a process that never certifies or transforms a sampled kernel
never imports this module.
Laplace values come from one Filon-Legendre panel transform: the sampled
function is interpolated at 16 Gauss-Legendre nodes on panels chosen from it
alone, and each panel is integrated against e^{-i w s} exactly, for a whole
array of frequencies at once.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import (
    LAPLACE_HORIZON,
    CertificationFailure,
    ClassKCertificate,
    KernelError,
    SampledKernel,
    UnsupportedPoint,
)


def certify(kernel: SampledKernel) -> ClassKCertificate:
    """Spot-check the user-supplied (C, delta) on a geometric grid of
    [0, LAPLACE_HORIZON / delta], the interval that the Filon transform
    integrates; a non-finite sample fails the certificate."""
    horizon = LAPLACE_HORIZON / kernel.delta
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
# panels sampled by one search, over all levels: the builtin Gaussian samples
# 29 (49 at delta = 1e-6), and a function that no bisection resolves, such as
# one carrying noise above _FILON_TOL, would otherwise double them per level;
# so it bounds both the depth of the search and the size of each call of f
_MAX_PANELS = 1 << 16
_MILLER_START = 36  # first index of the backward recurrence: its truncation moves j_n
# by < 1e-20 on (0, 16), and its largest value, 73!!/x^36 at x = 1e-5, is 1.7e233


def _spherical_jn(x: np.ndarray) -> np.ndarray:
    """j_0(x) .. j_15(x) for x >= 0, shape x.shape + (16,), in numpy only.

    For x >= 16 > n the forward recurrence j_(n+1) = (2n + 1)/x j_n - j_(n-1)
    from j_0 = sin x / x and j_1 = (j_0 - cos x) / x is stable.  On [1e-5, 16),
    Miller's backward recurrence runs from index _MILLER_START unscaled and is
    normalized once by the closed-form j_0 or j_1, whichever is larger.  Below,
    j_n = x^n / (2n + 1)!! (1 - x^2 / (2 (2n + 3))) to rounding, and j_0 = 1 and
    j_n = 0 exactly at x = 0, so a real Laplace argument gives a real transform.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (_GL_NODES.size,))
    big = x >= _GL_NODES.size
    xb = x[big]
    # degree-major recurrences, one contiguous row per degree, transposed once into out
    fwd = np.empty((_GL_NODES.size,) + xb.shape)
    fwd[0] = np.sin(xb) / xb
    fwd[1] = (fwd[0] - np.cos(xb)) / xb
    for n in range(1, _GL_NODES.size - 1):
        fwd[n + 1] = (2 * n + 1) / xb * fwd[n] - fwd[n - 1]
    out[big] = fwd.T

    xm = np.maximum(x[~big], 1e-5)  # the series below 1e-5 overwrites these
    upper, cur, rows = np.zeros_like(xm), np.ones_like(xm), []  # y_(n+1), y_n; rows gets y_(n-1)
    for n in range(_MILLER_START, 0, -1):
        upper, cur = cur, (2 * n + 1) / xm * cur - upper
        rows.append(cur)
    back = np.stack(rows[::-1][:_GL_NODES.size])
    j0 = np.sin(xm) / xm
    j1 = (j0 - np.cos(xm)) / xm
    first = np.abs(j0) >= np.abs(j1)
    back *= np.where(first, j0, j1) / np.where(first, back[0], back[1])
    out[~big] = back.T
    small, n = x < 1e-5, np.arange(_GL_NODES.size)
    xs = x[small][:, None]
    out[small] = xs**n / np.cumprod(2.0 * n + 1.0) * (1.0 - xs**2 / (4.0 * n + 6.0))
    return out


def _filon_panels(f, upper: float):
    """Panels of [0, upper] on which f is a degree-15 polynomial to rounding.

    The first level is the geometric partition [0, 1], [1, 2], [2, 4], ...,
    cut at upper.  Each level calls f once, at the 16 Gauss-Legendre nodes of
    all its panels, and a panel is accepted when the top two Legendre
    coefficients of its interpolant are at most _FILON_TOL times the largest
    sample so far, of any level; the others are bisected.  A peak that the
    first level misses raises the scale once it is sampled.  A jump in f is
    resolved within about two levels of the float spacing at it: a panel
    narrower than half an ulp samples one point 16 times, whose top
    coefficients are rounding.  A search that would sample more than
    _MAX_PANELS panels raises KernelError.  Panels on which f vanishes are
    dropped.  Returns (left ends, half-widths, Legendre coefficients).
    Nothing here depends on a frequency.
    """
    edges = np.concatenate(([0.0], 2.0 ** np.arange(math.ceil(math.log2(upper)))
                            if upper > 1.0 else [], [upper]))
    left, half = edges[:-1], 0.5 * np.diff(edges)
    kept, scale, sampled = [], 0.0, 0
    while True:
        sampled += left.size
        if sampled > _MAX_PANELS:
            raise KernelError(f"the Filon panel search sampled more than {_MAX_PANELS} panels "
                              "without resolving nu'' to rounding")
        nodes = left[:, None] + half[:, None] * (_GL_NODES + 1.0)
        samples = f(nodes.ravel()).reshape(nodes.shape)
        if not np.all(np.isfinite(samples)):
            bad = nodes[~np.isfinite(samples)][0]
            raise KernelError(f"kernel evaluator returned a non-finite value at t={bad:.6g}")
        scale = max(scale, float(np.max(np.abs(samples))))
        coeffs = samples @ _TO_LEGENDRE
        done = np.max(np.abs(coeffs[:, -2:]), axis=1) <= _FILON_TOL * scale
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
    integral h e^{-i w c} (E - i O) exactly, at any w, with E and i O the sums
    of 2 (-i)^n c_n j_n(w h) over the even and the odd n, both real: its real
    part is h (cos(w c) E - sin(w c) O), its imaginary part -h (sin(w c) E +
    cos(w c) O).  The panels come from ``_filon_panels`` and depend on f only;
    each distinct panel width costs two real matrix products over all frequencies.
    """
    w = np.asarray(w, dtype=float)
    flat = w.ravel()
    left, half, coeffs = _filon_panels(f, upper)
    widths, group = np.unique(half, return_inverse=True)
    x = np.multiply.outer(flat, widths)
    jn = _spherical_jn(np.abs(x))
    jn[x < 0] *= (-1.0) ** np.arange(_GL_NODES.size)  # j_n(-a) = (-1)^n j_n(a)
    signs = 2.0 * (-1.0) ** np.arange(_GL_NODES.size // 2)
    even, odd = coeffs[:, 0::2] * signs, coeffs[:, 1::2] * signs
    e, o = np.empty((flat.size, left.size)), np.empty((flat.size, left.size))
    for k in range(widths.size):
        sel = group == k
        e[:, sel] = jn[:, k, 0::2] @ even[sel].T
        o[:, sel] = jn[:, k, 1::2] @ odd[sel].T
    phase = np.multiply.outer(flat, left + half)
    cos, sin = np.cos(phase), np.sin(phase)
    re, im = (cos * e - sin * o) @ half, -((sin * e + cos * o) @ half)
    return (re + 1j * im).reshape(w.shape)


def _nu2_transform(kernel: SampledKernel, f, w: np.ndarray) -> np.ndarray:
    """``_filon_transform`` of f, a function of kernel's nu'', over
    [0, LAPLACE_HORIZON / delta]; a KernelError from the panels names the kernel."""
    try:
        return _filon_transform(f, LAPLACE_HORIZON / kernel.delta, w)
    except KernelError as exc:
        raise KernelError(f"sampled kernel {kernel.name!r}: {exc}") from None


def laplace(kernel: SampledKernel, lam: complex) -> complex:
    """L nu(lambda), Re lambda >= 0, as ``kernels.laplace`` documents it."""
    if lam == 0:
        raise UnsupportedPoint("lambda = 0 is not supported on the sampled path")
    sigma = lam.real
    lap2 = complex(_nu2_transform(kernel, lambda s: np.exp(-sigma * s) * kernel(s, 2),
                                  np.array([lam.imag]))[0])
    nup0 = float(kernel(0.0, 1))
    return (kernel.value_at_zero() + (nup0 + lap2) / lam) / lam


def iw_real_part(kernel: SampledKernel, w: float | np.ndarray) -> float | np.ndarray:
    """Re(i w L nu(i w)), as ``kernels.sampled_iw_real_part`` documents it."""
    w = np.asarray(w, dtype=float)
    if np.any(w == 0.0):
        raise UnsupportedPoint("w = 0 is not supported on the sampled path")
    sine = -_nu2_transform(kernel, lambda s: kernel(s, 2), w).imag
    out = kernel.value_at_zero() - sine / w
    return out if out.shape else float(out)
