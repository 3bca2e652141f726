"""Radius-1 transport one kernel at a time: the reference for the batched
scenario arithmetic in `theory.AliasingScenario` and for the kernels the
operator tests hand to `transport.cast_step`; and, one distribution at a
time, the support moments and the mean-shift budget
B = delta_mu + delta_sigma * std_support(a) that the operator tests hold
`cast_step`'s output to.

A `TransportKernel` is a checked D x 3 row-stochastic matrix K(j, o) over
offsets o in {-1, 0, +1}; `apply_transport` moves the mass of one
distribution by it, with offsets clipped into {1..D} at the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from simplexcast.errors import InvalidValue
from simplexcast.simplex import support_bins
from simplexcast.transport import BudgetParams, shift_mass


@dataclass(frozen=True)
class TransportKernel:
    """Per-bin offset probabilities, rows[j] = (left, stay, right)."""

    rows: NDArray[np.float64]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise InvalidValue(f"kernel rows must be (D, 3), got {rows.shape}")
        if np.any(rows < 0) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-9):
            raise InvalidValue("kernel rows must be nonnegative and sum to 1")

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @staticmethod
    def identity(d: int) -> "TransportKernel":
        rows = np.zeros((d, 3))
        rows[:, 1] = 1.0
        return TransportKernel(rows)

    @staticmethod
    def pure_shift(d: int, direction: int) -> "TransportKernel":
        """All mass moves one bin left (direction=-1) or right (+1)."""
        rows = np.zeros((d, 3))
        rows[:, 1 + direction] = 1.0
        return TransportKernel(rows)


def apply_transport(kernel: TransportKernel, a) -> np.ndarray:
    """(T a)(k) = sum_j a(j) sum_o K(j,o) 1{k = clip(j+o, 1, D)}."""
    a = np.asarray(a, dtype=np.float64)
    if kernel.dim != a.size:
        raise InvalidValue(f"kernel dim {kernel.dim} != dist dim {a.size}")
    m = a[:, None] * kernel.rows
    return shift_mass(m[:, 0], m[:, 1], m[:, 2])


def mean_support(p) -> float:
    """Support mean with bins indexed 1..D."""
    p = np.asarray(p, dtype=np.float64)
    return float(support_bins(p.size) @ p)


def std_support(p) -> float:
    """Support standard deviation with bins indexed 1..D."""
    p = np.asarray(p, dtype=np.float64)
    mu = mean_support(p)
    return float(np.sqrt(p @ (support_bins(p.size) - mu) ** 2))


def budget(params: BudgetParams, a) -> float:
    """The mean-shift budget of anchor `a`, written without the epsilon
    that `cast_step`'s gate adds under its square root."""
    return params.delta_mu + params.delta_sigma * std_support(a)
