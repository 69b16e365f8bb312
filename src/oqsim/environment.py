"""Bosonic environments: spectral densities, power spectra, correlation
functions, and decaying-exponential decompositions for the HEOM solver.

The free correlation function of a bosonic bath at inverse temperature
``beta = 1/T`` is

    C(t) = (1/pi) * int_0^inf J(w) [coth(beta w / 2) cos(w t) - i sin(w t)] dw

and the HEOM requires it as a sum of decaying exponentials

    C(t) = sum_k cR_k exp(-vR_k t) + i * sum_k cI_k exp(-vI_k t),

with each partial sum real-valued.  Matsubara decompositions are provided for
the Drude-Lorentz and underdamped kinds; Ohmic and custom environments enter
HEOM only through user-supplied exponent sets.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .exceptions import ConvergenceError, DimensionMismatchError, RangeError, UnsupportedError

__all__ = [
    "BosonicEnvironment",
    "DrudeLorentzEnvironment",
    "UnderdampedEnvironment",
    "OhmicEnvironment",
    "CustomEnvironment",
    "ExponentSet",
    "matsubara_decompose",
]


class BosonicEnvironment:
    """Base class: a spectral density plus a temperature (natural units)."""

    def __init__(self, T: float):
        if T < 0:
            raise RangeError(f"temperature must be non-negative, got {T}")
        self.T = float(T)

    # Characteristic frequency scale, used for numerical limits.
    _char_freq = 1.0

    def spectral_density(self, w):
        raise NotImplementedError

    def power_spectrum(self, w: float) -> float:
        """S(w) = 2 J(w)[n_th(w)+1] theta(w) + 2 J(-w) n_th(-w) theta(-w)."""
        w = float(w)
        scale = self._char_freq
        if abs(w) < 1e-12 * scale:
            if self.T == 0:
                return 0.0
            h = 1e-6 * scale
            return 2.0 * self.T * float(self.spectral_density(h)) / h
        if w > 0:
            return 2.0 * float(self.spectral_density(w)) * (self._n_th(w) + 1.0)
        return 2.0 * float(self.spectral_density(-w)) * self._n_th(-w)

    def _n_th(self, w: float) -> float:
        if self.T == 0:
            return 0.0
        return 1.0 / math.expm1(w / self.T)

    def correlation(self, t, rtol: float = 1e-8):
        """C(t) by adaptive quadrature (Fourier-weighted on the infinite range).

        Stationarity gives ``C(-t) = conj(C(t))``.  Arrays are mapped
        elementwise.
        """
        if np.ndim(t) > 0:
            return np.array([self.correlation(x, rtol) for x in np.asarray(t)])
        t = float(t)
        if t < 0:
            return np.conj(self.correlation(-t, rtol))

        if self.T == 0:
            def coth_part(w):
                return self.spectral_density(w) / math.pi
        else:
            beta = 1.0 / self.T
            h0 = 1e-8 * self._char_freq

            def coth_part(w):
                x = beta * w / 2
                if x < 1e-8:
                    # J(w) coth(beta w/2) -> (2/beta) * dJ/dw at w -> 0
                    ww = max(w, h0)
                    return (self.spectral_density(ww) / ww) * (2.0 / beta) / math.pi
                return self.spectral_density(w) / math.tanh(x) / math.pi

        def odd_part(w):
            return self.spectral_density(w) / math.pi

        if t == 0.0:
            re = self._quad_rel(coth_part, None, rtol)
            return complex(re, 0.0)
        re = self._quad_rel(coth_part, ("cos", t), rtol)
        im = -self._quad_rel(odd_part, ("sin", t), rtol)
        return complex(re, im)

    def _quad_rel(self, f, weight, rtol):
        # Two passes: an absolute-accuracy probe, then a pass with epsabs set
        # relative to the probe's magnitude.
        def run(epsabs):
            if weight is None:
                val, err = quad(
                    f, 0, np.inf, epsabs=epsabs, epsrel=rtol, limit=400,
                    points=None,
                )
            else:
                kind, tval = weight
                val, err = quad(
                    f, 0, np.inf, weight=kind, wvar=tval, epsabs=epsabs, limit=400,
                )
            return val, err

        probe, _ = run(1e-10)
        scale = max(abs(probe), 1e-300)
        val, err = run(rtol * scale)
        if not np.isfinite(val) or (err > 10 * rtol * max(abs(val), scale)):
            raise ConvergenceError(
                f"correlation quadrature did not reach the requested accuracy (err={err:.2e})"
            )
        return val


class DrudeLorentzEnvironment(BosonicEnvironment):
    """Overdamped bath: J(w) = 2 lam gamma w / (gamma^2 + w^2)."""

    def __init__(self, T: float, lam: float, gamma: float):
        super().__init__(T)
        if lam <= 0 or gamma <= 0:
            raise RangeError("Drude-Lorentz parameters must be positive")
        self.lam = float(lam)
        self.gamma = float(gamma)
        self._char_freq = self.gamma

    def spectral_density(self, w):
        w = np.asarray(w, dtype=float)
        out = 2 * self.lam * self.gamma * w / (self.gamma**2 + w**2)
        return out if out.ndim else float(out)


class UnderdampedEnvironment(BosonicEnvironment):
    """Underdamped Brownian bath: J(w) = lam^2 Gamma w / [(w0^2-w^2)^2 + Gamma^2 w^2]."""

    def __init__(self, T: float, lam: float, Gamma: float, w0: float):
        super().__init__(T)
        if lam <= 0 or Gamma <= 0 or w0 <= 0:
            raise RangeError("underdamped parameters must be positive")
        if w0 <= Gamma / 2:
            raise RangeError("underdamped bath requires w0 > Gamma/2")
        self.lam = float(lam)
        self.Gamma = float(Gamma)
        self.w0 = float(w0)
        self._char_freq = self.w0

    def spectral_density(self, w):
        w = np.asarray(w, dtype=float)
        out = self.lam**2 * self.Gamma * w / ((self.w0**2 - w**2) ** 2 + self.Gamma**2 * w**2)
        return out if out.ndim else float(out)


class OhmicEnvironment(BosonicEnvironment):
    """Ohmic-family bath: J(w) = alpha * w^s / wc^(s-1) * exp(-w/wc)."""

    def __init__(self, T: float, alpha: float, wc: float, s: float = 1.0):
        super().__init__(T)
        if alpha <= 0 or wc <= 0 or s <= 0:
            raise RangeError("Ohmic parameters must be positive")
        self.alpha = float(alpha)
        self.wc = float(wc)
        self.s = float(s)
        self._char_freq = self.wc

    def spectral_density(self, w):
        w = np.asarray(w, dtype=float)
        out = (
            self.alpha
            * np.abs(w) ** self.s
            / self.wc ** (self.s - 1)
            * np.exp(-np.abs(w) / self.wc)
        )
        return out if out.ndim else float(out)


class CustomEnvironment(BosonicEnvironment):
    """A bath defined by an arbitrary spectral density callable."""

    def __init__(self, J, T: float, char_freq: float = 1.0):
        super().__init__(T)
        self._J = J
        self._char_freq = float(char_freq)

    def spectral_density(self, w):
        return self._J(w)


class ExponentSet:
    """Decaying-exponential decomposition of a bath correlation function.

    ``correlation(t) = sum cR exp(-vR t) + 1j * sum cI exp(-vI t)`` for t >= 0.
    Coefficients may individually be complex (conjugate pairs), but each
    partial sum is real.  All decay rates must have positive real part.
    """

    def __init__(self, ck_real, vk_real, ck_imag, vk_imag, combine: bool = True):
        self.ck_real = np.asarray(ck_real, dtype=np.complex128)
        self.vk_real = np.asarray(vk_real, dtype=np.complex128)
        self.ck_imag = np.asarray(ck_imag, dtype=np.complex128)
        self.vk_imag = np.asarray(vk_imag, dtype=np.complex128)
        if self.ck_real.shape != self.vk_real.shape or self.ck_imag.shape != self.vk_imag.shape:
            raise DimensionMismatchError("coefficient and rate lists must have equal lengths")
        rates = np.concatenate([self.vk_real, self.vk_imag])
        if rates.size == 0:
            raise RangeError("exponent set cannot be empty")
        if np.any(rates.real <= 0):
            raise RangeError("all exponents must decay: Re(v) > 0")
        if combine:
            self.ck_real, self.vk_real = _combine(self.ck_real, self.vk_real)
            self.ck_imag, self.vk_imag = _combine(self.ck_imag, self.vk_imag)

    @property
    def n_real(self) -> int:
        return len(self.ck_real)

    @property
    def n_imag(self) -> int:
        return len(self.ck_imag)

    def correlation(self, t):
        t = np.asarray(t, dtype=float)
        re = np.zeros(t.shape, dtype=np.complex128)
        im = np.zeros(t.shape, dtype=np.complex128)
        for c, v in zip(self.ck_real, self.vk_real):
            re = re + c * np.exp(-v * t)
        for c, v in zip(self.ck_imag, self.vk_imag):
            im = im + c * np.exp(-v * t)
        out = re + 1j * im
        return out if out.ndim else complex(out)

    def __repr__(self):
        return f"ExponentSet(n_real={self.n_real}, n_imag={self.n_imag})"


def _same_rate(vk, vo, tol: float = 1e-10) -> bool:
    """Whether decay rate ``vk`` equals ``vo`` to within ``tol`` relative to ``max(1, |vo|)``."""
    return abs(vk - vo) <= tol * max(1.0, abs(vo))


def _combine(c, v):
    """Merge exponents with equal decay rates by summing coefficients."""
    out_c, out_v = [], []
    for ck, vk in zip(c, v):
        for i, vo in enumerate(out_v):
            if _same_rate(vk, vo):
                out_c[i] += ck
                break
        else:
            out_c.append(ck)
            out_v.append(vk)
    return np.array(out_c, dtype=np.complex128), np.array(out_v, dtype=np.complex128)


def matsubara_decompose(env: BosonicEnvironment, n_k: int) -> ExponentSet:
    """Matsubara exponential decomposition of a named environment.

    The principal exponents come from the poles of the spectral density; the
    thermal series adds ``n_k`` exponents at the Matsubara frequencies
    ``nu_j = 2 pi j / beta``.  Only Drude-Lorentz and underdamped baths have a
    closed form here; zero temperature is rejected (supply a custom
    :class:`ExponentSet` instead).
    """
    if n_k < 0:
        raise RangeError("n_k must be non-negative")
    if env.T <= 0:
        raise UnsupportedError(
            "the Matsubara series requires T > 0; provide a custom ExponentSet instead"
        )
    beta = 1.0 / env.T
    nus = 2 * math.pi * np.arange(1, n_k + 1) / beta

    if isinstance(env, DrudeLorentzEnvironment):
        lam, gamma = env.lam, env.gamma
        ck_real = [lam * gamma / math.tan(beta * gamma / 2)]
        vk_real = [gamma]
        for nu in nus:
            ck_real.append((4 * lam * gamma / beta) * nu / (nu**2 - gamma**2))
            vk_real.append(nu)
        ck_imag = [-lam * gamma]
        vk_imag = [gamma]
        return ExponentSet(ck_real, vk_real, ck_imag, vk_imag, combine=False)

    if isinstance(env, UnderdampedEnvironment):
        lam, Gamma, w0 = env.lam, env.Gamma, env.w0
        Om = math.sqrt(w0**2 - Gamma**2 / 4)
        half = Gamma / 2
        pref = lam**2 / (4 * Om)
        ck_real = [
            pref / np.tanh(beta * (Om + 1j * half) / 2),
            pref / np.tanh(beta * (Om - 1j * half) / 2),
        ]
        vk_real = [half - 1j * Om, half + 1j * Om]
        for nu in nus:
            ck_real.append(
                (-2 * lam**2 * Gamma / beta)
                * nu
                / (((Om + 1j * half) ** 2 + nu**2) * ((Om - 1j * half) ** 2 + nu**2))
            )
            vk_real.append(nu)
        ck_imag = [1j * pref, -1j * pref]
        vk_imag = [half - 1j * Om, half + 1j * Om]
        return ExponentSet(ck_real, vk_real, ck_imag, vk_imag, combine=False)

    raise UnsupportedError(
        f"no closed-form Matsubara series for {type(env).__name__};"
        " provide a custom ExponentSet"
    )
