"""Size grids, size distributions, and moment functionals.

Two discretizations of the size axis are supported:

* ``discrete`` -- integer sizes 1..N; ``density`` is the number of particles
  per site, widths are 1.
* ``sectional`` -- bins with strictly increasing edges and one representative
  pivot per bin; ``density`` is number per unit size.

Moments use pivot (midpoint) quadrature throughout, matching the two-point
number/mass apportionment used by the solver.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DomainError, GridError

__all__ = [
    "SizeGrid",
    "SizeDistribution",
    "MomentSeries",
    "moment",
    "init_distribution",
]

DEFAULT_GEOMETRIC_RATIO = 2.0 ** 0.25

# Round-off negatives below this fraction of the peak are clamped silently.
NEGATIVE_CLAMP_FRACTION = 1e-14

# The most cells a grid may have, checked before anything is allocated.  A
# short separable solve (K = xy, absorbing, ten snapshots) peaks at about
# 360 bytes per cell under tracemalloc (90 MB at 2^18 cells), so a run on
# the largest grid needs about 400 MB.
MAX_CELLS = 2 ** 20


@dataclass(frozen=True)
class SizeGrid:
    """Discretization of the size axis."""

    kind: str  # "discrete" | "sectional"
    n: int = 0
    edges: tuple = ()
    pivots_: tuple = ()

    @staticmethod
    def discrete(n: int) -> "SizeGrid":
        if n < 1:
            raise GridError("discrete grid needs n >= 1")
        _check_cells(n)
        return SizeGrid("discrete", n=int(n))

    @staticmethod
    def sectional(edges) -> "SizeGrid":
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise GridError("edges must be strictly increasing, length >= 2")
        if edges[0] <= 0:
            raise GridError("edges must be positive")
        _check_top(np.log(edges[-1]))
        # geometric-mean pivots; a product of edges below the smallest normal
        # float loses bits or underflows to 0, so those take sqrt(a) sqrt(b)
        lo, hi = edges[:-1], edges[1:]
        product = lo * hi
        pivots = np.sqrt(product)
        small = product < np.finfo(float).tiny
        pivots[small] = np.sqrt(lo[small]) * np.sqrt(hi[small])
        return SizeGrid("sectional", edges=tuple(edges), pivots_=tuple(pivots))

    @staticmethod
    def geometric(x_min: float, x_max: float, ratio: float | None = None,
                  bins: int | None = None) -> "SizeGrid":
        """Geometric sectional grid spanning [x_min, x_max]: ``bins`` bins of
        equal log-width, or bins of ``ratio`` (DEFAULT_GEOMETRIC_RATIO when
        neither is given), the last one ending at or past x_max."""
        if not 0 < x_min < x_max:
            raise GridError("span must satisfy 0 < x_min < x_max")
        if bins is not None:
            if ratio is not None:
                raise ArgumentError("ratio", "is not read beside bins")
            _check_cells(bins)
            _check_top(np.log(x_max))
            edges = np.geomspace(x_min, x_max, int(bins) + 1)
        else:
            ratio = DEFAULT_GEOMETRIC_RATIO if ratio is None else ratio
            if ratio <= 1:
                raise GridError("ratio must exceed 1")
            # a span whose quotient overflows float64 takes its log from the
            # ends' logs, and each ratio power in two halves, which fit
            quotient = float(x_max) / float(x_min)
            wide = not np.isfinite(quotient)
            span = np.log(x_max) - np.log(x_min) if wide else np.log(quotient)
            m = np.ceil(span / np.log(ratio))
            _check_cells(m)
            _check_top(np.log(x_min) + m * np.log(ratio))
            k = np.arange(int(m) + 1)
            edges = x_min * ratio ** (k // 2) * ratio ** (k - k // 2) if wide \
                else x_min * ratio ** k
        return SizeGrid.sectional(edges)

    @property
    def size(self) -> int:
        return self.n if self.kind == "discrete" else len(self.pivots_)

    @property
    def pivots(self) -> np.ndarray:
        if self.kind == "discrete":
            return np.arange(1, self.n + 1, dtype=float)
        return np.asarray(self.pivots_)

    @property
    def widths(self) -> np.ndarray:
        if self.kind == "discrete":
            return np.ones(self.n)
        e = np.asarray(self.edges)
        return e[1:] - e[:-1]

    @property
    def span(self) -> tuple[float, float]:
        if self.kind == "discrete":
            return (1.0, float(self.n))
        return (self.edges[0], self.edges[-1])


def _check_cells(count):
    if not count <= MAX_CELLS:
        raise GridError(f"a grid of {count:g} cells exceeds the budget of {MAX_CELLS}")


def _check_top(log_edge):
    """Refuse a grid whose last edge, of log ``log_edge``, overflows float64
    when squared, as it bounds every pivot squared and pivot times width."""
    if not 2.0 * log_edge < np.log(np.finfo(float).max):
        raise GridError(f"the largest edge squared, about 1e{2.0 * log_edge / np.log(10):.0f}, "
                        "overflows float64")


@dataclass
class SizeDistribution:
    """Particle number density on a grid at one instant.

    Snapshots are treated as immutable once time-stamped; operations return
    new instances.
    """

    grid: SizeGrid
    density: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.density = np.asarray(self.density, dtype=float)
        if self.density.shape != (self.grid.size,):
            raise GridError("density length must match the grid")

    def moment(self, mu: float) -> float:
        return moment(self, mu)

    @property
    def number(self) -> np.ndarray:
        """Per-cell particle number (density times width)."""
        return self.density * self.grid.widths


def moment(dist: SizeDistribution, mu: float) -> float:
    """M_mu = integral of x^mu times the density (pivot quadrature)."""
    if not -1.0 <= mu <= 3.0:
        raise DomainError("moment order must lie in [-1, 3]")
    p, w = dist.grid.pivots, dist.grid.widths
    return float(np.sum(p**mu * dist.density * w))


@dataclass
class MomentSeries:
    """Moment time series recorded along a trajectory."""

    times: np.ndarray
    values: dict[float, np.ndarray]
    gel_mass: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("snapshot times must be strictly increasing")
        if self.gel_mass.size == 0:
            self.gel_mass = np.zeros_like(self.times)
        if np.any(np.diff(self.gel_mass) < -1e-12 * (1 + np.max(self.gel_mass))):
            raise DomainError("gel mass must be non-decreasing")

    def __getitem__(self, mu: float) -> np.ndarray:
        return self.values[mu]


def _two_point_weights(v: float, lo: float, hi: float) -> tuple[float, float]:
    """Number fractions onto pivots (lo, hi) preserving number and mass of
    a unit point mass at v in [lo, hi]."""
    t = (v - lo) / (hi - lo)
    return 1.0 - t, t


def _monodisperse(grid: SizeGrid, size: float = 1.0) -> np.ndarray:
    """One particle per unit volume at one size."""
    size = float(size)
    if size <= 0:
        raise DomainError("monodisperse size must be positive")
    hit = np.nonzero(np.abs(grid.pivots - size) <= 1e-12 * size)[0]
    if hit.size == 0:
        raise GridError(f"monodisperse size {size} is not representable on the grid")
    density = np.zeros(grid.size)
    density[hit[0]] = 1.0 / grid.widths[hit[0]]
    return density


def _exponential(grid: SizeGrid, mean: float = 1.0) -> np.ndarray:
    """Density exp(-x/mean)/mean with unit number."""
    mean = float(mean)
    if mean <= 0:
        raise DomainError("exponential mean must be positive")
    if grid.kind == "discrete":
        return np.exp(-grid.pivots / mean) / mean
    # exact per-cell number and mass, apportioned onto pivots so the
    # grid-level M0 and M1 match the analytic values up to the mass lying
    # outside the span
    e = np.asarray(grid.edges)
    a, b = e[:-1], e[1:]
    num = np.exp(-a / mean) - np.exp(-b / mean)
    mass = (a + mean) * np.exp(-a / mean) - (b + mean) * np.exp(-b / mean)
    return _apportion_cells(grid, num, mass) / grid.widths


def _tabulated(grid: SizeGrid, density) -> np.ndarray:
    """Explicit per-cell density."""
    density = np.asarray(density, dtype=float)
    if density.shape != (grid.size,):
        raise GridError("tabulated density length must match the grid")
    if not np.all(np.isfinite(density)) or np.any(density < 0):
        raise DomainError("density must be finite and non-negative")
    return density


_INIT_FAMILIES = {"monodisperse": _monodisperse, "exponential": _exponential,
                  "tabulated": _tabulated}


def init_distribution(grid: SizeGrid, family: str, **params) -> SizeDistribution:
    """Initial condition on a grid.

    Families: ``monodisperse(size=1.0)``, ``exponential(mean=1.0)`` and
    ``tabulated(density)``; see their builders.  A parameter the family does
    not read, or a required one left out, is a DomainError, as is data whose
    M0, M1 or M2 overflows.
    """
    build = _INIT_FAMILIES.get(family)
    if build is None:
        raise DomainError(f"unknown initial-condition family {family!r}")
    try:
        inspect.signature(build).bind(grid, **params)
    except TypeError as exc:
        raise DomainError(f"{family} initial data: {exc}") from None
    # data that overflows (a cell's number over a width near 1e-300, say)
    # is refused below, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        dist = SizeDistribution(grid, build(grid, **params), 0.0)
        bad = [f"M{mu}" for mu in (0, 1, 2) if not np.isfinite(moment(dist, mu))]
    if bad:
        raise DomainError(f"{family} initial data has non-finite {', '.join(bad)}")
    return dist


def _apportion_cells(grid: SizeGrid, num: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Spread per-cell (number, mass) pairs onto pivots two-point-wise.

    Cells whose mass centroid falls outside the pivot range are assigned to
    the nearest pivot, preserving mass.
    """
    p = grid.pivots
    out = np.zeros_like(p)
    for n_i, m_i in zip(num, mass):
        if n_i <= 0:
            continue
        v = m_i / n_i
        if v <= p[0]:
            out[0] += m_i / p[0]
        elif v >= p[-1]:
            out[-1] += m_i / p[-1]
        else:
            j = int(np.searchsorted(p, v)) - 1
            w_lo, w_hi = _two_point_weights(v, p[j], p[j + 1])
            out[j] += n_i * w_lo
            out[j + 1] += n_i * w_hi
    return out


def clamp_negatives(density: np.ndarray, fraction: float = NEGATIVE_CLAMP_FRACTION
                    ) -> tuple[np.ndarray, int, float]:
    """Zero out round-off negatives, in place.

    Returns (density, overshoot_count, removed_total) where overshoot_count
    counts entries below -fraction*max(density), i.e. beyond harmless
    round-off; all negatives are clamped either way.
    """
    neg = density < 0
    if not np.any(neg):
        return density, 0, 0.0
    peak = float(np.max(density, initial=0.0))
    overshoot = int(np.count_nonzero(density < -fraction * max(peak, 1e-300)))
    removed = float(-np.sum(density[neg]))
    density[neg] = 0.0
    return density, overshoot, removed
