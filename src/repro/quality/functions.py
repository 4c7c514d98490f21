"""Concave quality functions (paper §II-A, Eq. 1).

A quality function ``f`` maps processed volume ``x ≥ 0`` (in processing
units) to perceived quality.  The paper's experiments use the
exponential-concave form

    f(x) = (1 - exp(-c x)) / (1 - exp(-c x_max)),

normalized so ``f(x_max) = 1``.  The family is captured by the
:class:`QualityFunction` interface, which also exposes the derivative
(marginal quality, needed by Quality-OPT's KKT condition) and the
inverse (needed by the LF job-cutting's final fractional step).

The paper prescribes binary search for the inverse; :meth:`inverse`
implements that, while subclasses may additionally provide a
closed-form ``inverse_exact`` used to cross-check the search in tests.
All functions accept scalars or NumPy arrays.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Union

import numpy as np

from repro.errors import ConfigurationError
from repro.units import (
    Dimensionless,
    PerVolume,
    QualityArray,
    QualityFrac,
    QualityLike,
    Volume,
    VolumeArray,
    VolumeLike,
)

__all__ = [
    "QualityFunction",
    "ExponentialQuality",
    "LinearQuality",
    "LogQuality",
    "PowerQuality",
]

ArrayLike = Union[float, np.ndarray]


class QualityFunction(ABC):
    """Non-decreasing concave map from processed volume to quality.

    Contract: ``f(0) = 0``, ``f`` is non-decreasing and concave on
    ``[0, x_max]``, and ``f(x_max) = 1``.  Inputs above ``x_max`` clamp
    to ``x_max`` (processing beyond the demand adds no quality);
    negative inputs are a caller bug and raise.
    """

    def __init__(self, x_max: Volume) -> None:
        if x_max <= 0:
            raise ConfigurationError(f"x_max must be positive, got {x_max!r}")
        self.x_max = float(x_max)

    # -- core interface -------------------------------------------------
    def __call__(self, x: VolumeLike) -> QualityLike:
        """Quality of processed volume ``x``."""
        if type(x) is float or type(x) is int:  # scalar fast path (hot)
            if x < 0:
                raise ValueError("processed volume must be non-negative")
            return self._value_scalar(min(float(x), self.x_max))
        if type(x) is np.float64:  # the array path's numerics for a 0-d input
            # Check and clamp (as ``min`` would) on a Python float, which is
            # cheaper per LF-cut bisection step; ``_value`` keeps NumPy's numerics.
            v = float(x)
            if v < 0:
                raise ValueError("processed volume must be non-negative")
            x_max = self.x_max
            return float(self._value(np.float64(x_max) if x_max < v else x))
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0):
            raise ValueError("processed volume must be non-negative")
        clamped = np.minimum(arr, self.x_max)
        out = self._value(clamped)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    def derivative(self, x: ArrayLike) -> ArrayLike:
        """Marginal quality ``f'(x)`` (0 beyond ``x_max``)."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0):
            raise ValueError("processed volume must be non-negative")
        out = np.where(arr >= self.x_max, 0.0, self._slope(np.minimum(arr, self.x_max)))
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    def inverse(self, q: QualityFrac, *, tol: Volume = 1e-9, max_iter: int = 200) -> Volume:
        """Smallest volume whose quality is ``q``, via binary search.

        The paper (§III-B step 5) uses binary search on the concave
        function; we keep that as the canonical implementation and use
        closed forms only for cross-checking.

        Parameters
        ----------
        q:
            Target quality in [0, 1].
        tol:
            Absolute tolerance on the returned volume.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"target quality must be in [0, 1], got {q!r}")
        if q <= 0.0:
            return 0.0
        if q >= 1.0:
            return self.x_max
        lo, hi = 0.0, self.x_max
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            if self(mid) < q:
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol:
                break
        return 0.5 * (lo + hi)

    # -- subclass hooks ---------------------------------------------------
    def _value_scalar(self, x: Volume) -> QualityFrac:
        """Scalar quality for ``x`` already clamped to [0, x_max].

        The default delegates to the vectorized form; hot subclasses
        override with pure-``math`` implementations (the online monitor
        evaluates f twice per settled job).
        """
        return float(self._value(np.float64(x)))

    @abstractmethod
    def _value(self, x: VolumeArray) -> QualityArray:
        """Quality for ``x`` already clamped to [0, x_max]."""

    @abstractmethod
    def _slope(self, x: np.ndarray) -> np.ndarray:
        """Derivative for ``x`` already clamped to [0, x_max]."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(x_max={self.x_max})"


class ExponentialQuality(QualityFunction):
    """The paper's Eq. (1): ``f(x) = (1 - e^{-cx}) / (1 - e^{-c·x_max})``.

    ``c`` controls concavity: larger ``c`` concentrates quality in the
    head of the job (Fig. 9b).  The paper's default is ``c = 0.003``
    with ``x_max = 1000``.
    """

    def __init__(self, c: PerVolume = 0.003, x_max: Volume = 1000.0) -> None:
        super().__init__(x_max)
        if c <= 0:
            raise ConfigurationError(f"concavity c must be positive, got {c!r}")
        self.c = float(c)
        self._norm = 1.0 - math.exp(-self.c * self.x_max)

    def _value(self, x: VolumeArray) -> QualityArray:
        return (1.0 - np.exp(-self.c * x)) / self._norm

    def _value_scalar(self, x: Volume) -> QualityFrac:
        return (1.0 - math.exp(-self.c * x)) / self._norm

    def _slope(self, x: np.ndarray) -> np.ndarray:
        return self.c * np.exp(-self.c * x) / self._norm

    def inverse_exact(self, q: QualityFrac) -> Volume:
        """Closed-form inverse, for cross-checking the binary search."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"target quality must be in [0, 1], got {q!r}")
        if q >= 1.0:
            return self.x_max
        return -math.log(1.0 - q * self._norm) / self.c

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExponentialQuality(c={self.c}, x_max={self.x_max})"


class LinearQuality(QualityFunction):
    """``f(x) = x / x_max`` — the degenerate (non-strictly) concave case.

    With linear quality, partial processing buys quality exactly
    proportionally, so approximate computing has no leverage; used in
    tests and sensitivity studies as the null case.
    """

    def _value(self, x: VolumeArray) -> QualityArray:
        return x / self.x_max

    def _slope(self, x: np.ndarray) -> np.ndarray:
        return np.full_like(x, 1.0 / self.x_max)

    def inverse_exact(self, q: QualityFrac) -> Volume:
        """Closed-form inverse."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"target quality must be in [0, 1], got {q!r}")
        return q * self.x_max


class LogQuality(QualityFunction):
    """``f(x) = log(1 + kx) / log(1 + k·x_max)`` — an alternative concave shape."""

    def __init__(self, k: PerVolume = 0.01, x_max: Volume = 1000.0) -> None:
        super().__init__(x_max)
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k!r}")
        self.k = float(k)
        self._norm = math.log1p(self.k * self.x_max)

    def _value(self, x: VolumeArray) -> QualityArray:
        return np.log1p(self.k * x) / self._norm

    def _slope(self, x: np.ndarray) -> np.ndarray:
        return self.k / ((1.0 + self.k * x) * self._norm)

    def inverse_exact(self, q: QualityFrac) -> Volume:
        """Closed-form inverse."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"target quality must be in [0, 1], got {q!r}")
        return float(np.expm1(q * self._norm) / self.k)


class PowerQuality(QualityFunction):
    """``f(x) = (x / x_max)^γ`` with ``0 < γ ≤ 1`` (e.g. sqrt for γ=0.5)."""

    def __init__(self, gamma: Dimensionless = 0.5, x_max: Volume = 1000.0) -> None:
        super().__init__(x_max)
        if not 0.0 < gamma <= 1.0:
            raise ConfigurationError(f"gamma must be in (0, 1], got {gamma!r}")
        self.gamma = float(gamma)

    def _value(self, x: VolumeArray) -> QualityArray:
        return (x / self.x_max) ** self.gamma

    def _slope(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            ratio = np.asarray(x, dtype=float) / self.x_max
            slope = np.where(
                ratio > 0.0,
                self.gamma * ratio ** (self.gamma - 1.0) / self.x_max,
                np.inf if self.gamma < 1.0 else 1.0 / self.x_max,
            )
        return slope

    def inverse_exact(self, q: QualityFrac) -> Volume:
        """Closed-form inverse."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"target quality must be in [0, 1], got {q!r}")
        return self.x_max * q ** (1.0 / self.gamma)
