"""Time integration of the coagulation equations with truncated kernels.

The right-hand side is assembled as ``max(gain, 0) - loss`` (the
positivity-preserving split), with merger products that would exceed the
grid handled by one of two boundary modes:

* ``conservative`` -- overflowing reactions are suppressed entirely, so the
  on-grid mass is constant by construction;
* ``absorbing`` -- overflowing reactions fire, the reactants are consumed,
  and the product mass accumulates in an explicit gel-mass variable, so
  grid mass plus gel mass is constant.

One rate operator per grid and kernel answers ``split(density)`` with the
gain, the loss and the gel rate; the integrator, ``fast_gain`` and the
weak-form diagnostic all use it.  The kernel and the grid alone choose one
of three paths, and the run records which one ran as
``step_log["rate_path"]``:

* ``separable`` -- separable kernels (constant, additive, multiplicative,
  two-exponent sums, product kernels, Brownian) on integer grids, uncapped
  or with a cap that never binds;
* ``capped`` -- a pointwise cap ``min(K, c)`` that binds on an integer grid,
  on a kernel whose separable terms are non-negative and nondecreasing
  (constant, additive, multiplicative, product with a nondecreasing ``r``,
  two-exponent sums with exponents >= 0);
* ``dense`` -- everything else: a binding cap on any other kernel (Brownian,
  negative exponents), tabulated kernels and sectional grids.

A kernel without a cap is integrated as given; it is truncated only when
``truncation_n`` or its own cap asks for it.

The separable path writes the kernel as ``sum_ab C_ab w_a(x) w_b(y)`` over
its distinct weight vectors.  Each evaluation takes one real FFT per
distinct ``w_a f``, sums the spectral products ``C_ab W_a W_b`` and takes one
inverse FFT for the gain; the loss and the overflow flux come from prefix and
suffix sums.  The capped path splits the pairs at J0, the number of leading
cells with ``K(x_j, x_j) < c``: pairs of two later cells see exactly ``c``
and go through the separable path of the constant kernel ``c``, and the J0
rows of pairs with a small cell are summed directly.

The integrator is Dormand-Prince 5(4) with the first-same-as-last property:
an accepted step that the negativity clamp leaves unchanged hands its last
stage on as the next step's first.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import DomainError, GridError, UnsupportedFamilyError
from .grids import MomentSeries, SizeDistribution, SizeGrid, clamp_negatives
from .kernels import KernelSpec

__all__ = [
    "SolverConfig",
    "RateSplit",
    "Trajectory",
    "rates",
    "fast_gain",
    "integrate",
]

# the dense pairwise path refuses larger grids; the capped path refuses a
# J0 x N table of more than _MATRIX_LIMIT**2 entries
_MATRIX_LIMIT = 4096

# FFT round-off contract: the gain's convolution is one inverse FFT of the
# summed spectra, so one floor covers it, _FFT_ERR_FACTOR * eps * log2(2M) * s2
# with s2 = sum over the merged pairs of c ||w_a f||2 ||w_b f||2.  Entries below
# the floor are zeroed; with ``refine`` entries below floor / _REL_TARGET are
# recomputed by direct summation so the relative error stays below
# _REL_TARGET.  The observed worst case is 0.21 * eps * log2(2M) * s2 (random
# and exponentially decaying densities, six separable families, N <= 4096).
_FFT_ERR_FACTOR = 32.0
_REL_TARGET = 1e-13

MOMENT_ORDERS = (0.0, 0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    kernel: KernelSpec
    t_end: float
    snapshot_times: tuple | None = None
    scheme: str = "rk45"            # "rk45" | "rk4"
    dt: float | None = None         # fixed step for rk4
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    boundary: str = "absorbing"     # "absorbing" | "conservative"
    truncation_n: float | None = None
    truncation_mode: str = "cap"    # "cap" | "product_cap"

    def __post_init__(self):
        if self.t_end <= 0:
            raise DomainError("t_end must be positive")
        if self.scheme not in ("rk45", "rk4"):
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "rk4" and (self.dt is None or self.dt <= 0):
            raise DomainError("rk4 needs a positive fixed dt")
        if self.scheme == "rk45" and (self.rel_tol <= 0 or self.abs_tol <= 0):
            raise DomainError("rk45 tolerances must be positive")
        if self.boundary not in ("absorbing", "conservative"):
            raise DomainError(f"unknown boundary mode {self.boundary!r}")
        if self.truncation_mode not in ("cap", "product_cap"):
            raise DomainError(f"unknown truncation mode {self.truncation_mode!r}")
        if self.snapshot_times is not None:
            st = tuple(float(t) for t in self.snapshot_times)
            if not st or any(t <= 0 or t > self.t_end for t in st):
                raise DomainError("snapshot times must lie in (0, t_end]")
            if any(b <= a for a, b in zip(st, st[1:])):
                raise DomainError("snapshot times must be strictly increasing")
            self.snapshot_times = st

    def resolved_snapshots(self) -> tuple:
        if self.snapshot_times is not None:
            return self.snapshot_times
        return tuple(np.linspace(0.0, self.t_end, 11)[1:])


@dataclass
class RateSplit:
    """Gain/loss split of the right-hand side, in density-rate units."""

    gain: np.ndarray
    loss: np.ndarray
    loss_factor: np.ndarray
    gel_rate: float = 0.0


@dataclass
class Trajectory:
    snapshots: list
    moments: MomentSeries
    step_log: dict
    config: SolverConfig | None = None

    @property
    def flagged(self) -> bool:
        return self.step_log.get("flag") is not None

    @property
    def grid(self) -> SizeGrid:
        return self.snapshots[0].grid

    @property
    def times(self) -> np.ndarray:
        return self.moments.times

    def initial(self) -> SizeDistribution:
        return self.snapshots[0]

    def moments_csv(self) -> str:
        lines = ["t,M0,M05,M1,M2,gel_mass"]
        m = self.moments
        for k, t in enumerate(m.times):
            lines.append(",".join(repr(float(v)) for v in (
                t, m[0.0][k], m[0.5][k], m[1.0][k], m[2.0][k], m.gel_mass[k])))
        return "\n".join(lines) + "\n"

    def snapshots_csv(self) -> str:
        lines = ["t,pivot,width,density"]
        for snap in self.snapshots:
            lines += snap.csv_rows(f"{float(snap.time)!r},")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Separable kernels
# ---------------------------------------------------------------------------

def _separable_terms(kernel: KernelSpec,
                     x: np.ndarray) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """K(x,y) = sum of c a(x) b(y) over the returned (c, a, b) terms, or raise.

    The terms come in transposed pairs (or have a == b), so the sum is
    symmetric in x and y."""
    fam = kernel.family
    ones = np.ones_like(x)
    if fam == "constant":
        return [(kernel.params[0], ones, ones)]
    if fam == "additive":
        return [(1.0, x, ones), (1.0, ones, x)]
    if fam in ("multiplicative", "product"):
        r = np.asarray(kernel.radial_rate()(x))
        return [(1.0, r, r)]
    if fam == "power_sum":
        a, b = kernel.params
        return [(1.0, x**a, x**b), (1.0, x**b, x**a)]
    if fam == "brownian":
        cb = np.cbrt(x)
        return [(2.0, ones, ones), (1.0, cb, 1.0 / cb), (1.0, 1.0 / cb, cb)]
    raise UnsupportedFamilyError(f"kernel family {fam!r} has no separable form")


def _kernel_grid_bound(kernel: KernelSpec, grid: SizeGrid) -> float:
    """Upper bound of the uncapped kernel over grid x grid (corner scan)."""
    raw = replace(kernel, cap=None)
    if kernel.family == "tabulated":
        return float(np.max(kernel.table[1]))
    lo, hi = grid.pivots[0], grid.pivots[-1]
    corners = np.array([lo, hi])
    xx, yy = np.meshgrid(corners, corners)
    return float(np.max(raw.eval(xx, yy)))


def _cap_binds(kernel: KernelSpec, grid: SizeGrid) -> bool:
    """True when a pointwise cap ``min(K, n)`` lies below K somewhere on the
    grid; such a kernel is neither separable nor of product form."""
    if kernel.cap is None or kernel.cap_mode == "product":
        return False
    return kernel.cap < _kernel_grid_bound(kernel, grid) * (1.0 - 1e-12)


def _fast_path_ok(kernel: KernelSpec, grid: SizeGrid) -> bool:
    if grid.kind != "discrete":
        return False
    if kernel.family in ("tabulated",):
        return False
    return not _cap_binds(kernel, grid)


# ---------------------------------------------------------------------------
# Rate operators: one per grid kind and kernel, both answering split()
# ---------------------------------------------------------------------------

class _SeparableOperator:
    """Rates for separable kernels on a discrete grid.

    The kernel is held as ``K(x, y) = sum_ab C_ab w_a(x) w_b(y)`` over its
    distinct weight vectors ``w_a`` with a symmetric coefficient matrix
    ``C``, and as the merged pairs ``(c, a, b)``, a <= b, with ``c = C_aa``
    or ``c = 2 C_ab``.  The gain takes one real FFT per distinct ``w_a f``,
    sums ``c W_a W_b`` over the pairs and takes one inverse FFT; the loss and
    the overflow flux come from prefix and suffix sums of the ``w_a f``."""

    path = "separable"

    def __init__(self, grid: SizeGrid, kernel: KernelSpec, boundary: str):
        self.x = grid.pivots
        self.n = grid.n
        self.boundary = boundary
        vectors, merged = [], {}

        def index(v):
            for k, w in enumerate(vectors):
                if np.array_equal(w, v):
                    return k
            vectors.append(v)
            return len(vectors) - 1

        for c, a, b in _separable_terms(kernel, self.x):
            ab = tuple(sorted((index(a), index(b))))
            merged[ab] = merged.get(ab, 0.0) + c
        self.w = np.array(vectors)
        self.pairs = [(c, a, b) for (a, b), c in merged.items()]
        self.coef = np.zeros((len(vectors), len(vectors)))
        for c, a, b in self.pairs:
            self.coef[a, b] += 0.5 * c
            self.coef[b, a] += 0.5 * c
        m = 2 * self.n - 1
        self.n_fft = next_fast_len(m, real=True)
        self.floor_scale = _FFT_ERR_FACTOR * np.finfo(float).eps * math.log2(2.0 * m)

    def split(self, f: np.ndarray, refine: bool = False) -> RateSplit:
        """``gain_i = 0.5 * sum_{j+k=i} K(j,k) f_j f_k`` counts only products
        that land on the grid, so only the loss and the gel rate depend on
        the boundary mode.  ``refine`` recomputes convolution entries below
        the FFT round-off floor by direct summation."""
        n = self.n
        x = self.x
        wf = self.w * f
        gain = np.zeros(n)
        gain[1:] = self._convolution(wf, refine)
        gain *= 0.5
        gel_rate = 0.0
        if self.boundary == "conservative":
            # sum over partners j <= n - i
            partners = np.zeros_like(wf)
            partners[:, 1:] = np.cumsum(wf[:, :-1], axis=1)
            loss_factor = np.sum(self.w * (self.coef @ partners[:, ::-1]), axis=0)
        else:
            loss_factor = (self.coef @ np.sum(wf, axis=1)) @ self.w
            # overflow mass flux: partners k > n - j, via suffix sums, so the
            # rate is a sum of non-negative products (exactly zero until the
            # tail is populated)
            tails = np.cumsum(wf[:, ::-1], axis=1)
            x_tails = np.cumsum((x * wf)[:, ::-1], axis=1)
            for c, a, b in self.pairs:
                gel_rate += 0.5 * c * float(np.dot(wf[a], x * tails[b] + x_tails[b]))
        return RateSplit(gain=gain, loss=f * loss_factor,
                         loss_factor=loss_factor, gel_rate=gel_rate)

    def _convolution(self, wf: np.ndarray, refine: bool) -> np.ndarray:
        """Entries 0..n-2 of ``sum_pairs c (w_a f) * (w_b f)`` (linear
        convolution, non-negative).  Entries below the FFT round-off floor
        are indistinguishable from zero and are zeroed outright: leaving the
        (sign-biased) noise in place seeds spurious tail growth in the
        solver.  With ``refine`` every entry small enough that the floor
        could exceed ``_REL_TARGET`` of its value is recomputed by direct
        summation, which restores exact zeros and the per-entry relative
        contract."""
        n = self.n
        if 2 * n - 1 < 64:
            return self._direct(wf, n)[:n - 1]
        spectra = rfft(wf, self.n_fft, axis=1)
        conv = irfft(sum(c * spectra[a] * spectra[b] for c, a, b in self.pairs),
                     self.n_fft)[:n - 1]
        norms = [float(np.linalg.norm(v)) for v in wf]
        floor = self.floor_scale * sum(c * norms[a] * norms[b] for c, a, b in self.pairs)
        if refine:
            flagged = conv < floor / _REL_TARGET
            if np.any(flagged):
                size = int(np.nonzero(flagged)[0][-1]) + 1
                conv[:size][flagged[:size]] = self._direct(wf, size)[flagged[:size]]
        else:
            conv[conv < floor] = 0.0
        return conv

    def _direct(self, wf: np.ndarray, size: int) -> np.ndarray:
        """Entries 0..size-1 of the same sum by direct summation; they
        involve only the first ``size`` entries of each ``w_a f``."""
        return sum(c * np.convolve(wf[a, :size], wf[b, :size])[:size]
                   for c, a, b in self.pairs)


def _monotone_separable(kernel: KernelSpec, x: np.ndarray) -> bool:
    """True when every separable term of the kernel has ``c >= 0`` and
    non-negative weights nondecreasing on ``x``, so K is nondecreasing in
    each argument."""
    try:
        terms = _separable_terms(kernel, x)
    except UnsupportedFamilyError:
        return False
    return all(c >= 0 and np.all(w >= 0) and np.all(np.diff(w) >= 0)
               for c, a, b in terms for w in (a, b))


class _CappedOperator:
    """Rates for a binding cap ``min(K, c)`` of a monotone separable kernel
    on a discrete grid.

    K is nondecreasing in each argument, so the first J0 cells, those with
    ``K(x_j, x_j) < c``, are the only ones that can see less than ``c``:
    every pair of two later cells sees exactly ``c``.  The pairs of two
    large cells go through the separable operator of the constant kernel
    ``c`` on the density with its first J0 cells zeroed; every pair with a
    small cell goes through the J0 x N table of its capped rates.  The cost
    is O(J0 N + N log N) time and O(J0 N) memory."""

    path = "capped"

    def __init__(self, grid: SizeGrid, kernel: KernelSpec, boundary: str):
        x = grid.pivots
        n = grid.n
        c = kernel.cap
        j0 = int(np.count_nonzero(replace(kernel, cap=None).eval(x, x) < c))
        if j0 * n > _MATRIX_LIMIT ** 2:
            raise GridError(
                f"capped path needs a {j0} x {n} table, above the dense path's "
                f"{_MATRIX_LIMIT}^2 entries")
        self.j0 = j0
        self.large = _SeparableOperator(grid, KernelSpec.constant(c), boundary)
        # rows[j, k] = min(K, c) of small cell j and any cell k, zero where
        # the pair does not react; the product lands on cell j + k + 1
        # (cell n collects the off-grid products and is dropped)
        lands = np.add.outer(np.arange(j0), np.arange(n)) + 1
        self.rows = np.asarray(kernel.eval(x[:j0, None], x[None, :]))
        if boundary == "conservative":
            self.rows[lands >= n] = 0.0
        self.gain_index = np.minimum(lands, n).ravel()
        # a small x small pair sits in two rows, a small x large pair in one
        self.pair_weight = np.where(np.arange(n) < j0, 0.5, 1.0)
        # overflow mass per unit f_j f_k: partners k > n - 2 - j, which are
        # among the last j0 cells; zero under the conservative boundary,
        # whose rows hold no overflowing pair
        self.tail = tail = max(n - j0, 0)
        self.gel_rows = np.where(lands[:, tail:] >= n,
                                 self.pair_weight[tail:] * (x[:j0, None] + x[None, tail:])
                                 * self.rows[:, tail:], 0.0)

    def split(self, f: np.ndarray, refine: bool = False) -> RateSplit:
        """The large x large pairs come from the constant-kernel split of
        ``f`` with its first J0 cells zeroed (with its FFT round-off floor
        and ``refine``); the pairs with a small cell are added by direct
        sums, of non-negative products when ``f`` is non-negative."""
        j0, n = self.j0, f.size
        f_small = f[:j0]
        f_large = f.copy()
        f_large[:j0] = 0.0
        base = self.large.split(f_large, refine)
        shifted = f_small[:, None] * self.rows * (self.pair_weight * f)
        gain = base.gain + np.bincount(self.gain_index, weights=shifted.ravel(),
                                       minlength=n + 1)[:n]
        loss_factor = base.loss_factor + f_small @ self.rows
        loss_factor[:j0] = self.rows @ f
        gel_rate = base.gel_rate + float(f_small @ (self.gel_rows @ f[self.tail:]))
        return RateSplit(gain=gain, loss=f * loss_factor,
                         loss_factor=loss_factor, gel_rate=gel_rate)


def fast_gain(dist: SizeDistribution, kernel: KernelSpec, refine: bool = True) -> np.ndarray:
    """Gain term on an integer grid via fast convolution.

    Returns ``gain_i = 0.5 * sum_{j+k=i} K(j,k) f_j f_k`` for i = 1..N,
    agreeing with the direct pairwise sum to 1e-12 relative entrywise.
    Requires a separable family; a pointwise kernel cap that binds on the
    grid destroys separability and is refused.
    """
    if dist.grid.kind != "discrete":
        raise GridError("fast_gain requires a discrete integer grid")
    if not _fast_path_ok(kernel, dist.grid):
        raise UnsupportedFamilyError(
            "fast_gain needs a separable kernel whose cap does not bind on the grid")
    op = _SeparableOperator(dist.grid, kernel, "conservative")
    return op.split(dist.density, refine).gain


class _PairTables:
    """Rates for any kernel on either grid kind, from precomputed N x N
    pair-interaction tables (the dense path)."""

    path = "dense"

    def __init__(self, grid: SizeGrid, kernel: KernelSpec, boundary: str):
        m = grid.size
        if m > _MATRIX_LIMIT:
            raise GridError(
                f"dense pairwise path limited to {_MATRIX_LIMIT} cells; on a "
                "discrete grid a separable kernel runs separable, and a binding "
                "cap on a nondecreasing separable kernel runs capped")
        p = grid.pivots
        self.grid = grid
        self.boundary = boundary
        self.kmat = np.asarray(kernel.eval(p[:, None], p[None, :]))
        v = p[:, None] + p[None, :]
        if grid.kind == "discrete":
            # product size (i0+1) + (j0+1) lands exactly on cell i0 + j0 + 1
            self.overflow = v > grid.n + 1e-9
            s = np.add.outer(np.arange(m), np.arange(m)) + 1
            self.idx_lo = np.minimum(s, m - 1)
            self.w_hi = None
        else:
            # two-point number/mass apportionment between the bracketing cells
            self.overflow = v > p[-1] * (1 + 1e-12)
            vc = np.clip(v, p[0], p[-1])
            j = np.clip(np.searchsorted(p, vc) - 1, 0, m - 2)
            lo, hi = p[j], p[j + 1]
            t = np.clip((vc - lo) / (hi - lo), 0.0, 1.0)
            self.idx_lo = j
            self.idx_hi = j + 1
            self.w_lo = 1.0 - t
            self.w_hi = t
        self.react = ~self.overflow if boundary == "conservative" else np.ones_like(self.overflow)
        self.kmat_react = self.kmat * self.react

    def split(self, density: np.ndarray) -> RateSplit:
        grid = self.grid
        n_cells = grid.size
        number = density * grid.widths
        pair_react = self.kmat_react * np.outer(number, number)   # ordered pair rates
        on_grid = pair_react * ~self.overflow
        if self.w_hi is None:
            gain_num = 0.5 * np.bincount(self.idx_lo.ravel(), weights=on_grid.ravel(),
                                         minlength=n_cells)
        else:
            w = (on_grid * self.w_lo).ravel()
            gain_num = 0.5 * np.bincount(self.idx_lo.ravel(), weights=w, minlength=n_cells)
            w = (on_grid * self.w_hi).ravel()
            gain_num += 0.5 * np.bincount(self.idx_hi.ravel(), weights=w, minlength=n_cells)
        loss_factor = self.kmat_react @ number
        gain = gain_num / grid.widths
        loss = density * loss_factor
        gel = 0.0
        if self.boundary == "absorbing":
            # mass balance: what the pairs remove and do not put back on
            # the grid is the mass of the overflowing products
            gel = float(np.dot(grid.pivots * grid.widths, loss - gain))
        return RateSplit(gain=gain, loss=loss, loss_factor=loss_factor, gel_rate=gel)


def _rate_operator(grid: SizeGrid, kernel: KernelSpec, boundary: str):
    """The rate operator for this grid and kernel, chosen by the two alone.

    On an integer grid: ``separable`` when the kernel factorises and no
    pointwise cap binds; ``capped`` when a cap ``min(K, c)`` binds on a
    kernel whose separable terms have ``c >= 0`` and non-negative,
    nondecreasing weights (constant, additive, multiplicative, product with
    a nondecreasing ``r``, ``power_sum`` with exponents >= 0).  Everything
    else, a binding cap on Brownian or a negative exponent, tabulated
    kernels and sectional grids, is ``dense``."""
    if _fast_path_ok(kernel, grid):
        return _SeparableOperator(grid, kernel, boundary)
    if grid.kind == "discrete" and _cap_binds(kernel, grid) \
            and _monotone_separable(kernel, grid.pivots):
        return _CappedOperator(grid, kernel, boundary)
    return _PairTables(grid, kernel, boundary)


def rates(dist: SizeDistribution, kernel: KernelSpec,
          boundary: str = "conservative") -> RateSplit:
    """Gain/loss split of the coagulation operator at one state.

    Reference pairwise implementation: exact index sums on discrete grids,
    two-point number/mass apportionment of merger products on sectional
    grids.
    """
    if boundary not in ("absorbing", "conservative"):
        raise DomainError(f"unknown boundary mode {boundary!r}")
    return _PairTables(dist.grid, kernel, boundary).split(dist.density)


class _Rhs:
    """Integrator right-hand side over a rate operator, in the
    positivity-preserving form ``max(gain, 0) - loss``.

    State vector: the cell densities followed by the gel mass.
    """

    def __init__(self, op):
        self.op = op
        self.evals = 0

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        self.evals += 1
        m = y.size - 1
        split = self.op.split(y[:m])
        out = np.empty(m + 1)
        out[:m] = np.maximum(split.gain, 0.0) - split.loss
        out[m] = split.gel_rate
        return out


# ---------------------------------------------------------------------------
# Embedded Dormand-Prince 5(4) and classical RK4
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]  # the seventh row equals _DP_B: the last stage is evaluated at y5
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                  -17253 / 339200, 22 / 525, -1 / 40])


class _StepLog:
    def __init__(self):
        self.accepted = 0
        self.rejected = 0
        self.clamp_events = 0
        self.clamped_mass = 0.0
        self.flag = None
        self.min_dt = math.inf

    def as_dict(self, evals: int, runtime: float, rate_path: str) -> dict:
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "clamp_events": self.clamp_events,
            "clamped_mass": self.clamped_mass,
            "flag": self.flag,
            "min_dt": None if math.isinf(self.min_dt) else self.min_dt,
            "rhs_evals": evals,
            "runtime_s": runtime,
            "rate_path": rate_path,
        }


def _weighted_norm(v: np.ndarray, weights: np.ndarray) -> float:
    return float(np.dot(weights, np.abs(v)))


def _initial_step(rhs, t0, y0, f0, weights, tol_of) -> float:
    d0 = _weighted_norm(y0, weights)
    d1 = _weighted_norm(f0, weights)
    if d0 < 1e-30 or d1 < 1e-30:
        return 1e-6
    h0 = 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = _weighted_norm(f1 - f0, weights) / h0
    rate = max(d1, d2)
    if rate <= 1e-30:
        return min(h0 * 100, 1.0)
    h1 = (0.01 * tol_of(y0) / rate) ** 0.2
    return min(100 * h0, h1)


def _advance_rk45(rhs, t0, t1, y, weights, rel_tol, abs_tol, log, t_end, clamp):
    """Integrate y from t0 to t1 in place; returns (y, ok)."""

    def tol_of(yv):
        return abs_tol + rel_tol * _weighted_norm(yv, weights)

    t = t0
    f0 = rhs(t, y)
    h = min(_initial_step(rhs, t, y, f0, weights, tol_of), t1 - t0)
    k = [None] * 7
    k[0] = f0
    while t < t1 - 1e-14 * max(1.0, t1):
        h = min(h, t1 - t)
        if h < 1e-12 * t_end:
            log.flag = "dt_underflow"
            return y, False
        for i in range(1, len(_DP_A)):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k[i] = rhs(t + _DP_C[i] * h, yi)
        y5 = y + h * sum(b * k[j] for j, b in enumerate(_DP_B) if b)
        k[6] = rhs(t + h, y5)
        err = h * sum(e * k[j] for j, e in enumerate(_DP_E) if e)
        en = _weighted_norm(err, weights)
        if not math.isfinite(en):
            log.flag = "non_finite"
            return y, False
        tol = tol_of(y)
        if en <= tol:
            t += h
            log.accepted += 1
            log.min_dt = min(log.min_dt, h)
            y = clamp(y5)
            # first same as last: k[6] is the derivative at y5, so it is
            # reused unless the clamp changed the state
            k[0] = k[6] if y is y5 else rhs(t, y)
        else:
            log.rejected += 1
        factor = 0.9 * (tol / en) ** 0.2 if en > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return y, True


def _advance_rk4(rhs, t0, t1, y, dt, log, clamp):
    t = t0
    while t < t1 - 1e-14 * max(1.0, t1):
        h = min(dt, t1 - t)
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            log.flag = "non_finite"
            return y, False
        y = clamp(y)
        t += h
        log.accepted += 1
        log.min_dt = min(log.min_dt, h)
    return y, True


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def resolve_kernel(config: SolverConfig, grid: SizeGrid) -> KernelSpec:
    """Kernel actually integrated: the configured kernel, truncated only
    when ``truncation_n`` or its own cap asks for it.  No default applies,
    so the result is the same on every grid."""
    if config.truncation_n is not None:
        return config.kernel.truncate(config.truncation_n, config.truncation_mode)
    return config.kernel


def integrate(init: SizeDistribution, config: SolverConfig) -> Trajectory:
    """Run the coagulation dynamics from ``init`` and record snapshots.

    On step-size underflow (gelation stiffness) or a non-finite stage the
    trajectory collected so far is returned with ``step_log["flag"]`` set
    to ``"dt_underflow"`` or ``"non_finite"`` rather than raising.
    ``step_log["rate_path"]`` names the rate operator that ran.
    """
    if not np.all(np.isfinite(init.density)) or np.any(init.density < 0):
        raise DomainError("initial density must be finite and non-negative")
    grid = init.grid
    rhs = _Rhs(_rate_operator(grid, resolve_kernel(config, grid), config.boundary))

    m = grid.size
    weights = np.empty(m + 1)
    weights[:m] = (1.0 + grid.pivots) * grid.widths   # the (1+x)-weighted norm
    weights[m] = 1.0

    log = _StepLog()

    def clamp(y):
        f, events, removed = clamp_negatives(y[:m])
        if removed:
            log.clamp_events += events
            log.clamped_mass += removed
            y = y.copy()
            y[:m] = f
        return y

    y = np.concatenate([init.density, [0.0]])
    snap_times = config.resolved_snapshots()
    snapshots = [SizeDistribution(grid, init.density.copy(), 0.0)]
    gel_series = [0.0]
    t_prev = 0.0
    started = time.perf_counter()
    ok = True
    for t_next in snap_times:
        if config.scheme == "rk45":
            y, ok = _advance_rk45(rhs, t_prev, t_next, y, weights,
                                  config.rel_tol, config.abs_tol, log,
                                  config.t_end, clamp)
        else:
            y, ok = _advance_rk4(rhs, t_prev, t_next, y, config.dt, log, clamp)
        if not ok:
            break
        snapshots.append(SizeDistribution(grid, y[:m].copy(), t_next))
        gel_series.append(max(float(y[m]), 0.0))
        t_prev = t_next

    times = np.array([s.time for s in snapshots])
    values = {mu: np.array([s.moment(mu) for s in snapshots]) for mu in MOMENT_ORDERS}
    moments = MomentSeries(times, values, np.asarray(gel_series))
    step_log = log.as_dict(rhs.evals, time.perf_counter() - started, rhs.op.path)
    return Trajectory(snapshots=snapshots, moments=moments, step_log=step_log,
                      config=config)
