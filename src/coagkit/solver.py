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
gain, the loss and the gel rate; the integrator, ``rates``, ``fast_gain`` and
the diagnostics all use it.  The kernel and the grid alone choose it, from
two operators and three paths, and the run records the path that ran as
``step_log["rate_path"]``:

* ``separable`` (``_SeparableOperator``) -- separable kernels (constant,
  additive, multiplicative, two-exponent sums, product kernels, Brownian)
  on integer grids, uncapped or with a cap that never binds;
* ``capped`` (``_PairRows``) -- a pointwise cap ``min(K, c)`` that binds on
  an integer grid, on a kernel whose separable terms are non-negative and
  nondecreasing (constant, additive, multiplicative, product with a
  nondecreasing ``r``, two-exponent sums with exponents >= 0);
* ``dense`` (``_PairRows``) -- everything else: a binding cap on any other
  kernel (Brownian, negative exponents), tabulated kernels and sectional
  grids.

A kernel without a cap is integrated as given; it is truncated only when
``truncation_n`` or its own cap asks for it.

The separable path writes the kernel as ``sum_ab C_ab w_a(x) w_b(y)`` over
its distinct weight vectors.  Each evaluation takes one real FFT per
distinct ``w_a f``, sums the spectral products ``C_ab W_a W_b`` and takes one
inverse FFT for the gain; the loss and the overflow flux come from prefix and
suffix sums.  All of it runs over the density's support s only (its last
nonzero cell): the FFT has the power-of-two length that holds the 2s - 1
convolution entries, and no pair overflows while 2s <= N.  ``_PairRows``
sums J0 rows of the pair table directly.  The capped path splits the pairs
at J0, the number of leading cells with ``K(x_j, x_j) < c``: pairs of two
later cells see exactly ``c`` and go through the separable path of the
constant kernel ``c``, and the J0 rows hold the pairs with a small cell.
The dense path has J0 = N rows and no constant part.

The integrator is one explicit Runge-Kutta loop over a Butcher tableau:
Dormand-Prince 5(4) with step-size control (``rk45``) or classical RK4 with a
fixed step (``rk4``).  Its stages live in one array allocated once per run.
The last row of each tableau gives the new state, so the last stage is the
derivative there and is reused as the next step's first (first same as
last) unless the negativity clamp removed more than round-off.  The loop
steps exactly onto each snapshot time and carries its stages and step size
on, so only the start pays a derivative and a step-size probe.  A step size
below 1e-12 of t_end flags the run for either scheme.
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

# _PairRows refuses a J0 x N pair table of more than _MATRIX_LIMIT**2
# entries: the dense path (J0 = N) takes at most 4096 cells, and the capped
# path any grid of N <= 4096 and larger ones with few rows
_MATRIX_LIMIT = 4096

# FFT round-off contract: the gain's convolution is one inverse FFT of the
# summed spectra, so one floor covers it, _FFT_ERR_FACTOR * eps * log2(2M) * s2
# with M = 2N - 1 and s2 = sum over the merged pairs of c ||w_a f||2 ||w_b f||2.
# Entries below the floor are zeroed; with ``refine`` entries below
# floor / _REL_TARGET are recomputed by direct summation so the relative error
# stays below _REL_TARGET.  The observed worst case is 0.21 * eps * log2(2M) * s2
# (random and exponentially decaying densities, six separable families,
# N <= 4096).  The FFT over the support s is no longer than the full one, so
# the floor of the full length M still bounds its error, and s2 is the same
# because the dropped entries are zero.
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
    """Upper bound of the uncapped kernel over grid x grid: exact for a
    product kernel, whose r > 0 need not be monotone, and a corner scan for
    the other families."""
    raw = replace(kernel, cap=None)
    if kernel.family == "tabulated":
        return float(np.max(kernel.table[1]))
    if kernel.family in ("multiplicative", "product"):
        return float(np.max(raw.radial_rate()(grid.pivots))) ** 2
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
    the overflow flux come from prefix and suffix sums of the ``w_a f``.

    Each evaluation reads only the support of ``f``, its first s cells.  The
    FFT length is ``2^ceil(log2(2s - 1))``, at most the full ``n_fft``, so a
    run makes a few plans, one per power of two; below 64 the convolution is
    a direct sum.  The gel rate is exactly zero while 2s <= n, and the
    conservative partner sums are the support's total for all but the last
    s cells."""

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
        the FFT round-off floor by direct summation.

        Only the support of ``f`` is read: past its last nonzero entry every
        sum gets exact zeros, so the gain is exactly zero past cell 2s - 1
        and no pair can overflow while 2s <= n."""
        n = self.n
        s = _support(f)
        wf = self.w[:, :s] * f[:s]
        gain = np.zeros(n)
        top = min(2 * s, n)
        if top > 1:
            gain[1:top] = 0.5 * self._convolution(wf, top - 1, refine)
        loss_factor = (self.coef @ np.sum(wf, axis=1)) @ self.w
        gel_rate = 0.0
        if self.boundary == "conservative":
            # partners j <= n - i: every cell of the support for the first
            # n - s cells, a prefix of it for the last s
            partners = np.zeros_like(wf)
            partners[:, 1:] = np.cumsum(wf[:, :-1], axis=1)
            loss_factor[n - s:] = np.sum(self.w[:, n - s:] * (self.coef @ partners[:, ::-1]),
                                         axis=0)
        elif 2 * s > n:
            # overflow mass flux: partners k > n - j, via suffix sums, so the
            # rate is a sum of non-negative products; both cells of an
            # overflowing pair lie in the last 2s - n cells of the support
            tip = wf[:, n - s:]
            x_tip = self.x[n - s:s]
            tails = np.cumsum(tip[:, ::-1], axis=1)
            x_tails = np.cumsum((x_tip * tip)[:, ::-1], axis=1)
            for c, a, b in self.pairs:
                gel_rate += 0.5 * c * float(np.dot(tip[a], x_tip * tails[b] + x_tails[b]))
        return RateSplit(gain=gain, loss=f * loss_factor,
                         loss_factor=loss_factor, gel_rate=gel_rate)

    def _convolution(self, wf: np.ndarray, size: int, refine: bool) -> np.ndarray:
        """Entries 0..size-1 of ``sum_pairs c (w_a f) * (w_b f)`` (linear
        convolution, non-negative), for ``wf`` trimmed to the support s and
        size <= 2s - 1.  The FFT length is the power of two that holds all
        2s - 1 entries, capped at the full length, so few FFT plans are
        made.  Entries below the FFT round-off floor are indistinguishable
        from zero and are zeroed outright: leaving the (sign-biased) noise in
        place seeds spurious tail growth in the solver.  With ``refine``
        every entry small enough that the floor could exceed ``_REL_TARGET``
        of its value is recomputed by direct summation, which restores exact
        zeros and the per-entry relative contract."""
        m = 2 * wf.shape[1] - 1
        if m < 64:
            return self._direct(wf, size)
        length = min(self.n_fft, 1 << (m - 1).bit_length())
        spectra = rfft(wf, length, axis=1)
        conv = irfft(sum(c * spectra[a] * spectra[b] for c, a, b in self.pairs),
                     length)[:size]
        norms = [float(np.linalg.norm(v)) for v in wf]
        floor = self.floor_scale * sum(c * norms[a] * norms[b] for c, a, b in self.pairs)
        if refine:
            flagged = conv < floor / _REL_TARGET
            if np.any(flagged):
                last = int(np.nonzero(flagged)[0][-1]) + 1
                conv[:last][flagged[:last]] = self._direct(wf, last)[flagged[:last]]
        else:
            conv[conv < floor] = 0.0
        return conv

    def _direct(self, wf: np.ndarray, size: int) -> np.ndarray:
        """Entries 0..size-1 of the same sum by direct summation; they
        involve only the first ``size`` entries of each ``w_a f``."""
        return sum(c * np.convolve(wf[a, :size], wf[b, :size])[:size]
                   for c, a, b in self.pairs)


def _support(f: np.ndarray) -> int:
    """One past the last nonzero entry of ``f``, or 0 when it has none."""
    nonzero = f != 0.0
    s = f.size - int(np.argmax(nonzero[::-1]))
    return s if nonzero[s - 1] else 0


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


class _PairRows:
    """Rates from rows of the pair table, for every kernel and grid that is
    not separable.

    Row j holds the kernel between cell j and every cell, zero where the
    pair does not react.  ``gain_index`` names the cell the product lands on,
    or bucket ``n + j`` when it overflows the grid: the dense path's gel rate
    weights each row's overflow by ``x_j``.  On a sectional grid a product between two
    pivots is split between them by number and mass: ``gain_index`` is the
    lower one and ``hi_weight`` the upper one's share.  J0, the number of
    rows, is set by the path:

    * ``capped`` -- a binding cap ``min(K, c)`` on a monotone separable
      kernel on an integer grid.  K is nondecreasing in each argument, so the
      first J0 cells, those with ``K(x_j, x_j) < c``, are the only ones that
      can see less than ``c``.  The pairs of two later cells go through the
      separable operator of the constant kernel ``c`` on the density with its
      first J0 cells zeroed, and the rows hold every pair with a small cell.
    * ``dense`` -- everything else: J0 = N and no constant part.

    The cost is O(J0 N + N log N) time and O(J0 N) memory."""

    def __init__(self, grid: SizeGrid, kernel: KernelSpec, boundary: str):
        x = grid.pivots
        n = grid.size
        self.large = None
        j0 = n
        if grid.kind == "discrete" and _cap_binds(kernel, grid) \
                and _monotone_separable(kernel, x):
            c = kernel.cap
            j0 = int(np.count_nonzero(replace(kernel, cap=None).eval(x, x) < c))
            self.large = _SeparableOperator(grid, KernelSpec.constant(c), boundary)
        self.path = "dense" if self.large is None else "capped"
        if j0 * n > _MATRIX_LIMIT ** 2:
            raise GridError(
                f"{self.path} path needs a {j0} x {n} pair table, above "
                f"{_MATRIX_LIMIT}^2 entries; on a discrete grid a separable kernel "
                "runs separable, and a binding cap on a nondecreasing separable "
                "kernel runs capped")
        self.n, self.j0, self.x, self.widths = n, j0, x, grid.widths
        self.rows = np.asarray(kernel.eval(x[:j0, None], x[None, :]))
        self.hi_weight = None
        if grid.kind == "discrete":
            # the product of cells j and k is cell j + k + 1
            lands = np.add.outer(np.arange(j0), np.arange(n)) + 1
            overflow = lands >= n
        else:
            # two-point number/mass apportionment between the bracketing
            # pivots; v > x[0], so the lower one exists
            v = np.add.outer(x, x)
            overflow = v > x[-1] * (1 + 1e-12)
            on_grid = np.minimum(v[~overflow], x[-1])
            lo = np.searchsorted(x, on_grid) - 1
            lands = np.zeros((n, n), dtype=np.intp)
            lands[~overflow] = lo
            self.hi_weight = np.zeros((n, n))
            self.hi_weight[~overflow] = (on_grid - x[lo]) / (x[lo + 1] - x[lo])
        if boundary == "conservative":
            self.rows[overflow] = 0.0
        self.gain_index = np.where(overflow, n + np.arange(j0)[:, None], lands).ravel()
        # a pair of two rows sits in both, a pair with a later cell in one
        self.pair_weight = np.where(np.arange(n) < j0, 0.5, 1.0)
        if self.large is not None:
            # a small x large pair sits in one row only, so its overflow
            # mass x_j + x_k needs a table: per unit f_j f_k, partners
            # k > n - 2 - j, which are among the last j0 cells; zero under
            # the conservative boundary, whose rows hold no overflowing pair
            self.tail = tail = n - j0
            self.gel_rows = np.where(overflow[:, tail:],
                                     self.pair_weight[tail:] * (x[:j0, None] + x[None, tail:])
                                     * self.rows[:, tail:], 0.0)

    def split(self, f: np.ndarray, refine: bool = False) -> RateSplit:
        """Direct sums over the rows, of non-negative products when ``f`` is
        non-negative; on the capped path the pairs of two large cells come
        from the constant-kernel split (with its FFT round-off floor and
        ``refine``)."""
        n, j0 = self.n, self.j0
        number = f * self.widths
        pairs = number[:j0, None] * self.rows
        pairs *= self.pair_weight * number
        hi = None
        if self.hi_weight is not None:
            hi = pairs * self.hi_weight
            pairs -= hi
        counts = np.bincount(self.gain_index, weights=pairs.ravel(), minlength=n + j0)
        gain = counts[:n]
        if hi is not None:
            gain[1:] += np.bincount(self.gain_index, weights=hi.ravel(), minlength=n)[:n - 1]
        if self.large is None:
            loss_factor = self.rows @ number
            # pair (j, k) overflows in both rows with weight 1/2, so twice
            # the x-weighted row buckets sum (x_j + x_k) K n_j n_k / 2
            gel_rate = 2.0 * float(np.dot(self.x, counts[n:]))
            return RateSplit(gain=gain / self.widths, loss=f * loss_factor,
                             loss_factor=loss_factor, gel_rate=gel_rate)
        # capped grids are integer grids, whose widths are 1
        f_large = f.copy()
        f_large[:j0] = 0.0
        base = self.large.split(f_large, refine)
        loss_factor = base.loss_factor + f[:j0] @ self.rows
        loss_factor[:j0] = self.rows @ f
        gel_rate = base.gel_rate + float(f[:j0] @ (self.gel_rows @ f[self.tail:]))
        return RateSplit(gain=base.gain + gain, loss=f * loss_factor,
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


def _rate_operator(grid: SizeGrid, kernel: KernelSpec, boundary: str):
    """The rate operator for this grid and kernel, chosen by the two alone:
    ``_SeparableOperator`` when the kernel factorises on an integer grid and
    no pointwise cap binds, ``_PairRows`` (``capped`` or ``dense``) for
    everything else."""
    if boundary not in ("absorbing", "conservative"):
        raise DomainError(f"unknown boundary mode {boundary!r}")
    if _fast_path_ok(kernel, grid):
        return _SeparableOperator(grid, kernel, boundary)
    return _PairRows(grid, kernel, boundary)


def rates(dist: SizeDistribution, kernel: KernelSpec,
          boundary: str = "conservative") -> RateSplit:
    """Gain/loss split of the coagulation operator at one state.

    The solver's own operator with ``refine``: exact index sums on discrete
    grids, two-point number/mass apportionment of merger products on
    sectional grids, agreeing with the pairwise sums to 1e-12 relative.
    """
    return _rate_operator(dist.grid, kernel, boundary).split(dist.density, refine=True)


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
# Explicit Runge-Kutta schemes as Butcher tableaux
# ---------------------------------------------------------------------------

def _tableau(c, rows, e=None):
    """Nodes ``c``, ``a`` from its rows and the error row ``e`` (None for a
    fixed step).  The last row gives the new state, so the last stage is the
    derivative there and the next step's first (first same as last)."""
    a = np.zeros((len(c), len(c)))
    for i, row in enumerate(rows):
        a[i, :len(row)] = row
    return np.array(c), a, None if e is None else np.array(e)


_TABLEAUX = {
    # Dormand & Prince, J. Comput. Appl. Math. 6 (1980) 19-26; e is the
    # fifth- minus the embedded fourth-order solution
    "rk45": _tableau(
        [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0],
        [[], [1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
         [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
         [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
         [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]],
        [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]),
    # classical RK4, whose next first stage f(t + h, y_new) is a fifth row
    "rk4": _tableau([0.0, 1 / 2, 1 / 2, 1.0, 1.0],
                    [[], [1 / 2], [0.0, 1 / 2], [0.0, 0.0, 1.0], [1 / 6, 1 / 3, 1 / 3, 1 / 6]]),
}


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


def _steps(rhs, y, config: SolverConfig, weights, clamp, log):
    """Step ``y`` from t = 0 onto each snapshot time in turn and yield it.

    The stage array ``k`` is allocated once; stage i is evaluated at
    ``y + h (a[i, :i] @ k[:i])``.  A tableau with an error row adapts h from
    a probe, one without takes ``config.dt``.  ``clamp(y)`` zeroes negatives
    in place and says whether it removed more than round-off, which alone
    re-evaluates the first stage.  A step size below ``1e-12 t_end`` or a
    non-finite error or state sets ``log.flag`` and ends the generator."""
    c, a, e = _TABLEAUX[config.scheme]

    def tol_of(yv):
        return config.abs_tol + config.rel_tol * _weighted_norm(yv, weights)

    k = np.empty((c.size, y.size))
    t = 0.0
    k[0] = rhs(t, y)
    h = config.dt if e is None else _initial_step(rhs, t, y, k[0], weights, tol_of)
    for t1 in config.resolved_snapshots():
        while t < t1 - 1e-14 * max(1.0, t1):
            if h < 1e-12 * config.t_end:
                log.flag = "dt_underflow"
                return
            step = min(h, t1 - t)
            for i in range(1, c.size):
                y_new = y + step * (a[i, :i] @ k[:i])
                k[i] = rhs(t + c[i] * step, y_new)
            if e is None:   # a fixed step passes once its new state is finite
                en, tol = (0.0 if np.isfinite(y_new).all() else math.nan), 0.0
            else:
                en, tol = _weighted_norm(step * (e @ k), weights), tol_of(y)
            if not math.isfinite(en):
                log.flag = "non_finite"
                return
            if en <= tol:
                t += step
                log.accepted += 1
                log.min_dt = min(log.min_dt, step)
                y, rough = clamp(y_new)
                k[0] = rhs(t, y) if rough else k[-1]
                if step < h:
                    break   # cut to land on t1: h stays as proposed before the cut
            else:
                log.rejected += 1
            if e is not None:
                h = step * min(5.0, max(0.2, 0.9 * (tol / en) ** 0.2 if en > 0 else 5.0))
        t = t1
        yield y


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

    One loop (``_steps``) runs the scheme's Butcher tableau, Dormand-Prince
    5(4) with step-size control (``rk45``) or classical RK4 with the fixed
    ``dt`` (``rk4``), and lands on each snapshot time.  When the step size
    falls below ``1e-12 t_end`` (gelation stiffness, or a tiny ``dt``) or a
    stage is non-finite, the trajectory so far is returned with
    ``step_log["flag"]`` set to ``"dt_underflow"`` or ``"non_finite"``
    rather than raising.  ``step_log["rate_path"]`` names the rate operator
    that ran.
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
            y[:m] = f
        return y, events > 0

    snapshots = [SizeDistribution(grid, init.density.copy(), 0.0)]
    gel_series = [0.0]
    steps = _steps(rhs, np.concatenate([init.density, [0.0]]), config, weights, clamp, log)
    started = time.perf_counter()
    for t, y in zip(config.resolved_snapshots(), steps):
        snapshots.append(SizeDistribution(grid, y[:m].copy(), t))
        gel_series.append(max(float(y[m]), 0.0))

    times = np.array([s.time for s in snapshots])
    values = {mu: np.array([s.moment(mu) for s in snapshots]) for mu in MOMENT_ORDERS}
    moments = MomentSeries(times, values, np.asarray(gel_series))
    step_log = log.as_dict(rhs.evals, time.perf_counter() - started, rhs.op.path)
    return Trajectory(snapshots=snapshots, moments=moments, step_log=step_log,
                      config=config)
