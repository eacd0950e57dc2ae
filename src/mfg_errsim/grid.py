"""Uniform time grids and time-indexed matrix/vector paths.

All solvers in the package exchange data as node values on a shared
:class:`TimeGrid`.  Off-node evaluation is linear interpolation between the
bracketing nodes and exact at nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError

_NODE_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps + 1`` nodes on [t_start, t_end].

    Node k is computed as ``t_start + k * dt`` (multiplication, not repeated
    addition) so there is no accumulation drift.
    """

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not self.t_end > self.t_start:
            raise ValueError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    @property
    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.steps + 1) * self.dt

    def index_of(self, t: float) -> int:
        """Index of the grid node equal to t; raises if t is not a node."""
        k = int(round((t - self.t_start) / self.dt))
        if k < 0 or k > self.steps or abs(self.t_start + k * self.dt - t) > _NODE_TOL:
            raise ValueError(f"t={t} is not a node of {self}")
        return k

    def subgrid(self, k0: int, k1: int | None = None) -> "TimeGrid":
        """Grid spanning nodes k0..k1 of this grid (same spacing); the full
        range is this grid itself."""
        if k1 is None:
            k1 = self.steps
        if not 0 <= k0 < k1 <= self.steps:
            raise ValueError(f"invalid node range [{k0}, {k1}]")
        if k0 == 0 and k1 == self.steps:
            return self
        t = self.times
        return TimeGrid(float(t[k0]), float(t[k1]), k1 - k0)


def _check_values(grid, values, ndim):
    values = np.asarray(values, dtype=float)
    if values.ndim != ndim:
        raise ValueError(f"expected {ndim}-d value array, got shape {values.shape}")
    if values.shape[0] != grid.steps + 1:
        raise ValueError(
            f"need one value per node: {grid.steps + 1} expected, got {values.shape[0]}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("path contains non-finite entries")
    return values


class _Path:
    """Shared interpolation/slicing behaviour for matrix and vector paths."""

    def at(self, t: float) -> np.ndarray:
        """Value at time t: exact at nodes, linear interpolation between."""
        g = self.grid
        s = (t - g.t_start) / g.dt
        if s < -_NODE_TOL or s > g.steps + _NODE_TOL:
            raise ValueError(f"t={t} outside grid [{g.t_start}, {g.t_end}]")
        k = int(np.floor(s))
        k = min(max(k, 0), g.steps)
        w = s - k
        if w <= 1e-12:
            return self.values[k]
        if w >= 1.0 - 1e-12:
            return self.values[min(k + 1, g.steps)]
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]

    def __getitem__(self, k):
        return self.values[k]

    def __len__(self):
        return self.values.shape[0]

    @property
    def initial(self):
        return self.values[0]

    @property
    def terminal(self):
        return self.values[-1]

    def slice(self, k0: int, k1: int | None = None):
        """Restriction to nodes k0..k1, as a path on the matching subgrid.

        The values are a view into this path's array.
        """
        if k1 is None:
            k1 = self.grid.steps
        sub = self.grid.subgrid(k0, k1)
        return type(self)(sub, self.values[k0 : k1 + 1])


@dataclass
class MatrixPath(_Path):
    """One n-by-m matrix per grid node."""

    grid: TimeGrid
    values: np.ndarray  # (steps+1, n, m)

    def __post_init__(self):
        self.values = _check_values(self.grid, self.values, 3)

    @property
    def shape(self):
        return self.values.shape[1:]


@dataclass
class VectorPath(_Path):
    """One n-vector per grid node."""

    grid: TimeGrid
    values: np.ndarray  # (steps+1, n)

    def __post_init__(self):
        self.values = _check_values(self.grid, self.values, 2)

    @property
    def dim(self):
        return self.values.shape[1]


def require_same_grid(*paths):
    """Raise GridMismatchError unless all paths share one grid."""
    g0 = paths[0].grid
    for p in paths[1:]:
        g = p.grid
        if (g.steps != g0.steps
                or abs(g.t_start - g0.t_start) > _NODE_TOL
                or abs(g.t_end - g0.t_end) > _NODE_TOL):
            raise GridMismatchError(f"grids differ: {g0} vs {g}")
    return g0
