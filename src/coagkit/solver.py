"""Time integration of the coagulation equations with truncated kernels.

The right-hand side is ``gain - loss``, unclipped, so the gain and the loss
move the same mass even at a Runge-Kutta stage state with negative entries;
the state itself is kept non-negative by a clamp after each accepted step.
Merger products that would exceed the grid are handled by one of two
boundary modes:

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

The kernel is integrated as given: a truncation is the kernel's own cap,
``min(K, n)`` or ``min(r, n)(x) min(r, n)(y)`` (``KernelSpec.truncate``).

The separable path writes the kernel as ``sum_ab C_ab w_a(x) w_b(y)`` over
its distinct weight vectors.  Each evaluation takes one real FFT per
distinct ``w_a f``, sums the spectral products ``C_ab W_a W_b`` and takes one
inverse FFT for the gain; the loss and the overflow flux come from prefix and
suffix sums.  All of it runs over the density's support s only (its last
nonzero cell): the FFT has the power-of-two length that holds the 2s - 1
convolution entries, and no pair overflows while 2s <= N.  Past half the
grid only the first N - 1 entries are needed, so when that transform would
be longer than ``2 * _BLOCK`` the support is cut into blocks of ``_BLOCK``
cells, each transformed at length ``2 * _BLOCK``, and the spectral products
of the block pairs that meet in each output block are summed, inverted and
overlap-added; the lists of those block pairs are built once per pair of
block counts; a pair ``(a, a)`` of one weight vector takes each block
pair i < j once, at twice its coefficient.  A spectral product whose
coefficient is 1 skips that multiply, and a kernel of one weight vector
takes its loss factor as an elementwise product, not a one-row matrix
product; neither moves a bit.  The overflow flux ``0.5 sum K f_j f_k (x_j +
x_k)`` over the overflowing pairs is ``sum K f_j f_k x_j`` by symmetry, so it
takes one suffix sum per weight vector.
The FFTs are ``numpy.fft``'s, written into work arrays that the operator
allocates once, as are the prefix and suffix sums and the gain, loss and
loss factor it returns; so an evaluation allocates no array of the grid's
length, and the arrays one ``split`` returns stay valid until the next
``split`` on the same operator (``rates`` and ``fast_gain`` build a fresh
operator per call).  The
separable operator also takes a prefix ``f[:L]`` of the density and treats
the cells past it as zero: it then reads and writes only the first L cells,
and the gain's first 2s, which is what the integrator passes; ``rates``,
``fast_gain`` and the diagnostics pass the whole density.

``_PairRows`` sums J0 rows of the pair table directly.  The capped path
splits the pairs at J0, the number of leading cells with
``K(x_j, x_j) < c``: pairs of two later cells see exactly ``c`` and go
through the separable path of the constant kernel ``c``, and the J0 rows
hold the pairs with a small cell.  The dense path has J0 = N rows and no
constant part.

Every split also reports the density's support, and from it
``max_loss_factor``, the largest loss rate ``lambda_max`` over the support:
the stiff direction of the equations.

The integrator is one explicit Runge-Kutta loop (``_steps``) over a list of
schemes, each one record in ``_SCHEMES``: the configured scheme,
Dormand-Prince 5(4) with step-size control (``rk45``) or classical RK4 with
a fixed step (``rk4``), and under ``rk45`` Ketcheson's SSPRK(10,4) after it.
Each keeps its own proposal for h, and one rule over the list picks each
step: where the configured scheme's proposal exceeds its real stability
bound over lambda_max (3.3 for Dormand-Prince, none for RK4), the step goes
to the scheme that covers the most time per evaluation under its own
proposal and bound (13.9 for SSPRK(10,4)).  ``step_log["max_h_lambda"]`` is
the largest accepted ``h lambda_max``, and ``step_log["stiff_steps"]``
counts the accepted SSPRK(10,4) steps.

The stages, the stage state and one scratch row are allocated once per run,
zeroed, each derivative is written into its stage row, and the state and
the stage state swap on acceptance, so a step allocates no array of the
state's length either.  The last row of each tableau gives the new state,
so the last stage is the derivative there and is reused as the next step's
first (first same as last) unless the negativity clamp removed more than
round-off.  Only the start pays a derivative and a step-size probe.  A fixed
step lands exactly on each snapshot time and counts its steps from the
start of each interval, so rounding adds no residual step.  An ``rk45`` step
lands only on t_end: each adaptive scheme carries a fourth-order continuous
extension, the cubic Hermite interpolant through the step's ends and their
derivatives (its first and its first-same-as-last stage) plus ``theta^2 (1 -
theta)^2 h sum_i d_i k_i`` with its row ``d`` (Hairer, Norsett & Wanner,
Solving ODEs I, II.6), and a snapshot inside a step is read from it into the
scratch row and clamped there, so the snapshot times move no step.
``step_log["interpolated_snapshots"]`` counts those snapshots and
``step_log["interpolated_clamp_events"]`` their clamp events, apart from the
steps'.  A step size below 1e-12 of t_end flags the run for either scheme.

The loop keeps one live mark L, the number of leading cells that any state
or derivative of the run has reached: it starts at the initial support and,
on the separable path, grows after each evaluation to ``min(N, 2s)``, past
which the gain is zero; the other paths hold L = N from the start.  Every
state and derivative is zero past L, so the stage combinations, the error
row, the first-same-as-last copy, the clamp and ``gain - loss`` run on the
first L cells and the gel entry only, and a density that fills few cells of
a large grid costs little per stage as well as per FFT.  Those combinations
are BLAS products over whole blocks of ``_ALIGN`` columns, which round every
cell as a product over the whole state would.  ``step_log["live_cells"]``
is the final mark.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.fft import irfft, rfft

from .errors import ConfigError, DomainError, GridError, UnsupportedFamilyError
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
# Entries below the floor are zeroed.  The observed worst case is
# 0.21 * eps * log2(2M) * s2
# (random and exponentially decaying densities, six separable families,
# N <= 4096).  The FFT over the support s is no longer than the full one, so
# the floor of the full length M still bounds its error, and s2 is the same
# because the dropped entries are zero.  A blocked sum gives each entry at
# most two block outputs, each one inverse FFT of length 2 _BLOCK < M of
# the summed c W_a,i W_b,j with i + j = k, and by Cauchy-Schwarz the sum of
# ||w_a f|| ||w_b f|| over the blocks i + j = k is at most the norms' product;
# so its error is at most twice the single transform's bound, which the
# factor's margin over the observed case covers.  Observed at N = 2^14 with
# s = 8193, 12000 and 16384: blocked 0.55 * eps * log2(2M) * s2 at most, the
# single transform 0.60 on the same densities.
_FFT_ERR_FACTOR = 32.0

# the separable convolution past half support, when its single transform
# would be longer than 2 * _BLOCK, runs in blocks of _BLOCK cells, whose
# transforms of length 2 * _BLOCK keep pocketfft's per-call scratch small
_BLOCK = 4096

# a BLAS vector-matrix product rounds the columns past the last multiple of
# its unroll width (4 in OpenBLAS's SkylakeX dgemv) apart from the others, so
# products over a live prefix run over whole blocks of _ALIGN columns, or the
# whole row (``_aligned``): every column then comes out bit for bit as from
# the whole row
_ALIGN = 64

MOMENT_ORDERS = (0.0, 0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------

# The most work, steps times grid cells, of an ``rk4`` run that
# ``check_fixed_work`` accepts, so a config is refused before it starts.
# At the budget, a constant kernel from monodisperse data takes about 27 s on
# 8 cells, 4.7 s on 64 and 0.25 s on 1024; a step costs about 160 us on one
# cell, so that run would take about 170 s (2-core x86 VM).
MAX_FIXED_WORK = 2 ** 20


@dataclass
class SolverConfig:
    """One run: ``kernel`` is the kernel integrated, truncation included
    (``KernelSpec.truncate``), and ``snapshot_times`` defaults to ten evenly
    spaced times ending at ``t_end``."""

    kernel: KernelSpec
    t_end: float
    snapshot_times: tuple | None = None
    scheme: str = "rk45"            # "rk45" | "rk4"
    dt: float | None = None         # fixed step for rk4
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    boundary: str = "absorbing"     # "absorbing" | "conservative"

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise DomainError("t_end must be positive and finite")
        if self.scheme not in ("rk45", "rk4"):
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "rk4" and (self.dt is None or not 0 < self.dt < math.inf):
            raise DomainError("rk4 needs a positive and finite fixed dt")
        if self.scheme == "rk45" and not (0 < self.rel_tol < math.inf
                                          and 0 < self.abs_tol < math.inf):
            raise DomainError("rk45 tolerances must be positive and finite")
        if self.boundary not in ("absorbing", "conservative"):
            raise DomainError(f"unknown boundary mode {self.boundary!r}")
        if self.snapshot_times is None:
            self.snapshot_times = np.linspace(0.0, self.t_end, 11)[1:]
        st = tuple(float(t) for t in self.snapshot_times)
        if not st or any(t <= 0 or t > self.t_end for t in st):
            raise DomainError("snapshot times must lie in (0, t_end]")
        if any(b <= a for a, b in zip(st, st[1:])):
            raise DomainError("snapshot times must be strictly increasing")
        self.snapshot_times = st


def check_fixed_work(config: SolverConfig, cells: int) -> None:
    """Refuse an ``rk4`` run on ``cells`` grid cells whose steps times cells
    exceed ``MAX_FIXED_WORK``, before it starts.  ``rk4`` lands on each
    snapshot time, so it takes at most ceil((b - a) / dt) steps from each
    snapshot time a, or 0, to the next one, b."""
    if config.scheme != "rk4":
        return
    times = config.snapshot_times
    spans = [(b - a) / config.dt for a, b in zip((0.0, *times), times)]
    steps = sum(spans)                          # inf past every float
    if steps <= MAX_FIXED_WORK:
        steps = sum(map(math.ceil, spans))
    if steps * cells > MAX_FIXED_WORK:
        raise ConfigError(f"solver.dt {config.dt:g} takes {steps:g} rk4 steps on {cells} "
                          f"cells, past the budget of {MAX_FIXED_WORK} steps times cells")


@dataclass
class RateSplit:
    """Gain/loss split of the right-hand side, in density-rate units."""

    gain: np.ndarray          # over the grid
    loss: np.ndarray          # loss and loss factor over the density passed
    loss_factor: np.ndarray
    gel_rate: float = 0.0
    support: int = 0   # one past the density's last nonzero cell

    @property
    def max_loss_factor(self) -> float:
        """The largest loss factor over the support: lambda_max, the stiff
        rate of the equations at this state."""
        return float(np.maximum.reduce(self.loss_factor[:self.support])) if self.support else 0.0


@dataclass
class Trajectory:
    snapshots: list
    moments: MomentSeries
    step_log: dict
    config: SolverConfig | None = None
    # the rate operator the run integrated with, for diagnostics on the same
    # kernel and boundary
    operator: object = field(default=None, repr=False, compare=False)

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
        """``t,pivot,width,density`` rows, each cell's ``pivot,width`` text
        formatted once for every snapshot."""
        grid = self.grid
        cells = [f"{p!r},{w!r}," for p, w in zip(grid.pivots.tolist(), grid.widths.tolist())]
        lines = ["t,pivot,width,density"]
        for snap in self.snapshots:
            lead = f"{float(snap.time)!r},"
            lines += [lead + cell + repr(d) for cell, d in zip(cells, snap.density.tolist())]
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
    The loss factor is ``sum_ab C_ab w_a (sum w_b f)``: a matrix product
    over whole ``_ALIGN`` blocks of columns when there are several weight
    vectors, and the elementwise product ``w_0 * (C_00 sum w_0 f)``, the
    same bits as that one-row product, when there is one.

    ``f`` is the density or a prefix of it, whose cells past its end are
    zero.  Each evaluation reads only the support of ``f``, its first s
    cells, and writes only the gain's first ``min(2s, n)`` cells, zeroing
    those that the last call left past them, and the loss and the loss
    factor over the prefix.  The FFT length is ``2^ceil(log2(2s - 1))``,
    capped at ``n_fft``, the 5-smooth length for the full grid, so a run
    makes a few plans, one per power of two; below 64 entries, or with
    ``refine``, the convolution is a direct sum.  Past half support, when
    that length exceeds ``2 * _BLOCK``, the convolution runs in blocks (see
    ``_blocked_convolution``, whose block-pair lists are built once per
    pair of block counts).  The gel rate is exactly zero while
    2s <= n, and the conservative partner sums are the support's total for
    all but the last s cells, of which only those in the prefix are
    written.

    Every array an evaluation writes is a work array allocated in
    ``__init__``: the zero-padded rows ``w_a f``, their spectra with the
    summed spectral product, the inverse FFT, the prefix or suffix sums,
    and the gain, loss and loss factor that ``split`` returns; the block
    outputs only on a grid whose convolution can be blocked.  Those stay
    valid until the next ``split`` on the same operator; a caller that keeps
    them longer copies them."""

    path = "separable"

    def __init__(self, grid: SizeGrid, kernel: KernelSpec, boundary: str):
        self.x = grid.pivots
        self.n = n = grid.n
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
        nv = len(vectors)
        self.coef = np.zeros((nv, nv))
        for c, a, b in self.pairs:
            self.coef[a, b] += 0.5 * c
            self.coef[b, a] += 0.5 * c
        m = 2 * n - 1
        self.n_fft = _next_fast_len(m)
        self.floor_scale = _FFT_ERR_FACTOR * np.finfo(float).eps * math.log2(2.0 * m)
        # rows of _spectra: the nv spectra, the summed spectral product and
        # one term of it, wide enough that on a grid that can block they also
        # hold, as views, the spectra of up to ``count`` blocks and their
        # summed products, whose inverse FFTs go to _block_outputs; rows of
        # _sums: two blocks of nv rows, the prefix or suffix sums and their
        # products; _mask serves the support and the FFT floor
        count = -(-n // _BLOCK) if self._fft_length(n) > 2 * _BLOCK else 0
        self._wf = np.zeros((nv, self.n_fft))
        self._spectra = np.empty((nv + 2, max(self.n_fft // 2 + 1, count * (_BLOCK + 1))),
                                 dtype=complex)
        self._conv = np.empty(self.n_fft)
        self._block_outputs = np.empty((count, 2 * _BLOCK)) if count else None
        self._pair_lists = {}
        self._mask = np.empty(n, dtype=bool)
        self._gain = np.zeros(n)
        self._top = 0   # the gain is zero from here on
        self._loss_factor = np.zeros(n)
        self._loss = np.zeros(n)
        self._sums = np.empty((2 * nv, n))

    def _fft_length(self, s: int) -> int:
        """The single transform's length for support s: the power of two
        that holds the 2s - 1 entries, capped at ``n_fft``."""
        return min(self.n_fft, 1 << (2 * s - 2).bit_length())

    def split(self, f: np.ndarray, refine: bool = False) -> RateSplit:
        """``gain_i = 0.5 * sum_{j+k=i} K(j,k) f_j f_k`` counts only products
        that land on the grid, so only the loss and the gel rate depend on
        the boundary mode.  With ``refine`` the convolution is the direct
        sum, exact up to summation order; without it, past 2s - 1 >= 64, it
        is the FFT, exact up to the round-off floor (``_convolution``).

        Only the support of ``f`` is read: past its last nonzero entry every
        sum gets exact zeros, so the gain is exactly zero past cell 2s - 1
        and no pair can overflow while 2s <= n.  ``f`` may be a prefix of
        the density, its first L <= n cells, whose cells past L are zero:
        the gain still spans the grid, and the loss and the loss factor
        span the prefix.  A prefix whose last cell is nonzero is its own
        support, found without a scan.  The loss factor of a kernel with one
        weight vector is one elementwise product, of several one matrix
        product (see the class docstring).

        The returned arrays are the operator's work arrays: they stay valid
        until the next ``split`` on the same operator."""
        n, nv, live = self.n, self.w.shape[0], f.size
        s = _support(f, self._mask[:live])
        wf = np.multiply(self.w[:, :s], f[:s], out=self._wf[:, :s])
        gain = self._gain
        top = min(2 * s, n)
        gain[top:self._top] = 0.0
        self._top = top
        if top > 1:
            conv = self._direct(wf, top - 1) if refine or 2 * s - 1 < 64 \
                else self._convolution(s, top - 1)
            np.multiply(conv, 0.5, out=gain[1:top])
        scale = self.coef @ np.sum(wf, axis=1)
        if nv == 1:
            # a one-row dgemv costs six times the product, which has its bits
            loss_factor = np.multiply(self.w[0, :live], scale[0], out=self._loss_factor[:live])
        else:
            width = _aligned(live, n)
            loss_factor = np.matmul(scale, self.w[:, :width],
                                    out=self._loss_factor[:width])[:live]
        gel_rate = 0.0
        first = n - s
        if self.boundary == "conservative" and first < live:
            # partners j <= n - i: every cell of the support for the first
            # n - s cells, a prefix of it for the last s, of which those
            # before the prefix's end are needed
            partners, terms = self._sums[:nv, :s], self._sums[nv:2 * nv, :live - first]
            partners[:, :1] = 0.0
            np.cumsum(wf[:, :-1], axis=1, out=partners[:, 1:])
            np.matmul(self.coef, partners[:, ::-1][:, :live - first], out=terms)
            terms *= self.w[:, first:live]
            np.sum(terms, axis=0, out=loss_factor[first:])
        elif self.boundary == "absorbing" and 2 * s > n:
            # overflow mass flux 0.5 sum K f_j f_k (x_j + x_k) over the
            # overflowing pairs, which is sum K f_j f_k x_j, as K and the
            # pair set are symmetric: partners k > n - j via one suffix sum
            # per weight vector, so the rate is a sum of non-negative
            # products; both cells of an overflowing pair lie in the last
            # 2s - n cells of the support
            tip = wf[:, n - s:]
            tails, x_tip = self._sums[:nv, :2 * s - n], self._sums[nv:2 * nv, :2 * s - n]
            np.cumsum(tip[:, ::-1], axis=1, out=tails)
            np.multiply(self.x[n - s:s], tip, out=x_tip)
            for c, a, b in self.pairs:
                flux = float(np.dot(x_tip[a], tails[b]))
                if a != b:   # c = 2 C_ab
                    flux = 0.5 * (flux + float(np.dot(x_tip[b], tails[a])))
                gel_rate += c * flux
        return RateSplit(gain=gain, loss=np.multiply(f, loss_factor, out=self._loss[:live]),
                         loss_factor=loss_factor, gel_rate=gel_rate, support=s)

    def _convolution(self, s: int, size: int) -> np.ndarray:
        """Entries 0..size-1 of ``sum_pairs c (w_a f) * (w_b f)`` (linear
        convolution, non-negative) by FFT, exact up to the round-off floor
        (``_FFT_ERR_FACTOR``), over the support s of the rows in ``_wf``,
        for size <= 2s - 1.  The FFT length is the power of two that holds
        all 2s - 1 entries, capped at ``n_fft``, so few FFT plans are made.
        Past half support, when that length exceeds ``2 * _BLOCK``, the
        entries come from ``_blocked_convolution``.

        Entries below the floor are indistinguishable from zero and are
        zeroed outright: leaving the (sign-biased) noise in place seeds
        spurious tail growth in the solver.  The result is a view of
        ``_conv``."""
        wf = self._wf[:, :s]
        length = self._fft_length(s)
        if 2 * s > self.n and self._block_outputs is not None and length > 2 * _BLOCK:
            conv = self._blocked_convolution(s, size)
        else:
            self._wf[:, s:length] = 0.0
            nv, half = wf.shape[0], length // 2 + 1
            spectra = rfft(self._wf[:, :length], axis=1, out=self._spectra[:nv, :half])
            total, term = self._spectra[nv, :half], self._spectra[nv + 1, :half]
            c, a, b = self.pairs[0]
            _spectral_product(c, spectra[a], spectra[b], total)
            for c, a, b in self.pairs[1:]:
                total += _spectral_product(c, spectra[a], spectra[b], term)
            conv = irfft(total, length, out=self._conv[:length])[:size]
        norms = [math.sqrt(float(np.dot(v, v))) for v in wf]   # np.linalg.norm's formula
        floor = self.floor_scale * sum(c * norms[a] * norms[b] for c, a, b in self.pairs)
        np.copyto(conv, 0.0, where=np.less(conv, floor, out=self._mask[:size]))
        return conv

    def _blocked_convolution(self, s: int, size: int) -> np.ndarray:
        """The same entries, for 2s > n, from blocks of ``_BLOCK`` cells.

        Each block of each row ``w_a f`` is transformed at ``2 * _BLOCK``.
        Output block k sums ``c W_a,i W_b,j`` over the block pairs with
        i + j = k, takes one inverse FFT, and holds entries ``k * _BLOCK``
        to ``k * _BLOCK + 2 * _BLOCK - 2``; the blocks are overlap-added
        into ``_conv``.  Only blocks k < ceil(size / _BLOCK) are needed, and
        past 2 n_in - 2 no block pair meets.  No transform is longer than
        ``2 * _BLOCK``, so pocketfft's per-call scratch stays small."""
        nv, width = self.w.shape[0], _BLOCK
        n_in = -(-s // width)
        n_out = min(-(-size // width), 2 * n_in - 1)
        self._wf[:, s:n_in * width] = 0.0
        spectra = rfft(self._wf[:, :n_in * width].reshape(nv, n_in, width), 2 * width, axis=2,
                       out=self._spectra[:nv, :n_in * (width + 1)].reshape(nv, n_in, width + 1))
        totals = self._spectra[nv:].reshape(-1)[:(n_out + 1) * (width + 1)]
        totals = totals.reshape(n_out + 1, width + 1)
        term = totals[n_out]
        for k, products in enumerate(self._block_pairs(n_in, n_out)):
            c, a, i, b, j = products[0]
            _spectral_product(c, spectra[a, i], spectra[b, j], totals[k])
            for c, a, i, b, j in products[1:]:
                totals[k] += _spectral_product(c, spectra[a, i], spectra[b, j], term)
        outputs = irfft(totals[:n_out], 2 * width, axis=1, out=self._block_outputs[:n_out])
        conv = self._conv[:size]
        np.copyto(self._conv[:n_out * width].reshape(n_out, width), outputs[:, :width])
        tails = self._conv[width:n_out * width].reshape(n_out - 1, width)
        tails += outputs[:-1, width:]
        rest = conv[n_out * width:]   # reached by no block pair, only by an overlap
        rest[...] = outputs[-1, width:width + rest.size]
        return conv

    def _block_pairs(self, n_in: int, n_out: int) -> list:
        """For each output block k < n_out, the terms ``(c, a, i, b, j)``
        with i + j = k over n_in input blocks, built once per (n_in, n_out).
        A pair with a = b gives ``W_a,i W_a,j`` twice for i != j, so it
        keeps i <= j, with coefficient 2c where i < j."""
        key = n_in, n_out
        if key not in self._pair_lists:
            self._pair_lists[key] = [
                [(2 * c if a == b and i < k - i else c, a, i, b, k - i) for c, a, b in self.pairs
                 for i in range(max(0, k - n_in + 1), min(k, n_in - 1) + 1)
                 if a != b or i <= k - i]
                for k in range(n_out)]
        return self._pair_lists[key]

    def _direct(self, wf: np.ndarray, size: int) -> np.ndarray:
        """Entries 0..size-1 of the same sum by direct summation; they
        involve only the first ``size`` entries of each ``w_a f``."""
        return sum(c * np.convolve(wf[a, :size], wf[b, :size])[:size]
                   for c, a, b in self.pairs)


def _spectral_product(c: float, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = c x y``; a c of 1 is not multiplied in, which only the sign
    of a zero could tell."""
    if c == 1.0:
        return np.multiply(x, y, out=out)
    np.multiply(x, c, out=out)
    out *= y
    return out


def _next_fast_len(m: int) -> int:
    """The smallest 5-smooth integer ``2^a 3^b 5^c >= m``, a fast FFT
    length for any m >= 1."""
    best = 1 << (m - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _aligned(count: int, end: int) -> int:
    """``count`` rounded up to whole blocks of ``_ALIGN`` columns, or ``end``
    once that passes the last whole block of a row of ``end`` columns."""
    width = -(-count // _ALIGN) * _ALIGN
    return width if width <= end - end % _ALIGN else end


def _support(f: np.ndarray, nonzero: np.ndarray) -> int:
    """One past the last nonzero entry of ``f``, or 0 when it has none;
    ``nonzero`` is a boolean work array of the same size."""
    if not f.size:
        return 0
    if f[-1] != 0.0:   # a full support needs no scan
        return f.size
    np.not_equal(f, 0.0, out=nonzero)
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
        self._mask = np.empty(n, dtype=bool)
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
        from the constant-kernel split: with ``refine`` its direct sum, exact
        up to summation order; without it its FFT, exact up to the round-off
        floor."""
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
            s = _support(f, self._mask)
            loss_factor = self.rows @ number
            # pair (j, k) overflows in both rows with weight 1/2, so twice
            # the x-weighted row buckets sum (x_j + x_k) K n_j n_k / 2
            gel_rate = 2.0 * float(np.dot(self.x, counts[n:]))
            return RateSplit(gain=gain / self.widths, loss=f * loss_factor,
                             loss_factor=loss_factor, gel_rate=gel_rate, support=s)
        # capped grids are integer grids, whose widths are 1
        f_large = f.copy()
        f_large[:j0] = 0.0
        base = self.large.split(f_large, refine)
        # past the first j0 cells f_large is f, so only a density held by
        # them needs its own support
        s = base.support or _support(f[:j0], self._mask[:j0])
        loss_factor = base.loss_factor + f[:j0] @ self.rows
        loss_factor[:j0] = self.rows @ f
        gel_rate = base.gel_rate + float(f[:j0] @ (self.gel_rows @ f[self.tail:]))
        return RateSplit(gain=base.gain + gain, loss=f * loss_factor,
                         loss_factor=loss_factor, gel_rate=gel_rate, support=s)


def fast_gain(dist: SizeDistribution, kernel: KernelSpec, refine: bool = True) -> np.ndarray:
    """Gain term on an integer grid from the separable rate operator.

    Returns ``gain_i = 0.5 * sum_{j+k=i} K(j,k) f_j f_k`` for i = 1..N.
    With ``refine``, the default, it is the direct sum, exact up to
    summation order; without it, it is the FFT, exact up to the round-off
    floor.  Requires a separable family; a pointwise kernel cap that binds
    on the grid destroys separability and is refused.
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

    The solver's own operator with ``refine``, so every rate is a direct
    sum, exact up to summation order: index sums on discrete grids,
    two-point number/mass apportionment of merger products on sectional
    grids.
    """
    return _rate_operator(dist.grid, kernel, boundary).split(dist.density, refine=True)


class _Rhs:
    """Integrator right-hand side over a rate operator, ``gain - loss``.

    State vector: the cell densities followed by the gel mass.  The
    derivative is written into ``out``.

    ``live`` is the live mark L: the first evaluation sets it to the
    state's support on the separable path, and to the whole grid on the
    others, and each evaluation raises it to ``min(n, 2s)``.  Every state
    passed in and every ``out`` row must be zero past it; the operator sees
    ``y[:live]``, and only the cells before the mark and the gel entry of
    ``out`` are written.
    """

    def __init__(self, op):
        self.op = op
        self.evals = 0
        self.split = None
        self.live = None

    @property
    def max_loss_factor(self) -> float:
        """lambda_max at the last state evaluated, read before the next
        evaluation overwrites the operator's work arrays."""
        return self.split.max_loss_factor

    def __call__(self, t: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        self.evals += 1
        m = y.size - 1
        if self.live is None:
            self.live = _support(y[:m], np.empty(m, dtype=bool)) \
                if isinstance(self.op, _SeparableOperator) else m
        live = self.live
        split = self.split = self.op.split(y[:live])
        np.subtract(split.gain[:live], split.loss, out=out[:live])
        top = min(2 * split.support, m)
        if top > live:   # the loss is zero past the support
            np.copyto(out[live:top], split.gain[live:top])
            self.live = top
        out[m] = split.gel_rate
        return out


# ---------------------------------------------------------------------------
# Explicit Runge-Kutta schemes as Butcher tableaux
# ---------------------------------------------------------------------------

class _Scheme(NamedTuple):
    """One explicit Runge-Kutta scheme, whose last row of ``a`` gives the new
    state, so the last stage is the derivative there and the next step's
    first (first same as last).  A fixed step has no ``e``, ``exponent`` or
    ``d``, and an infinite ``bound``."""

    c: np.ndarray
    a: np.ndarray
    e: np.ndarray | None      # the error row
    exponent: float | None    # the step control's, 1 / (q + 1) for an estimate of order q
    d: np.ndarray | None      # the continuous extension's row (``_dense_weights``)
    bound: float              # the real stability bound on h lambda_max
    chained: tuple            # row i repeats row i - 1 and adds one entry


def _scheme(c, rows, e=None, exponent=None, d=None, bound=math.inf) -> _Scheme:
    """The record of a scheme with nodes ``c`` and the rows of ``a``."""
    a = np.zeros((len(c), len(c)))
    for i, row in enumerate(rows):
        a[i, :len(row)] = row
    chained = tuple(i > 1 and np.array_equal(a[i, :i - 1], a[i - 1, :i - 1]) for i in range(len(c)))
    return _Scheme(np.array(c), a, e if e is None else np.array(e), exponent, d, bound, chained)


# The rows d of the adaptive schemes' continuous extensions are the least-norm
# solutions of sum_i d_i Phi_i(t) = 0 over the trees t of order <= 3 and
# 1 / gamma(t) over the four of order 4, over all the stages.  The bounds are
# the real stability intervals, Dormand-Prince's to about -3.3066 (Hairer &
# Wanner, Solving ODEs II, IV.2) and SSPRK(10,4)'s to about -13.917.
_SCHEMES = {
    # Dormand & Prince, J. Comput. Appl. Math. 6 (1980) 19-26; e is the
    # fifth- minus the embedded fourth-order solution
    "rk45": _scheme(
        [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0],
        [[], [1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
         [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
         [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
         [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]],
        e=[71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
        exponent=0.2,
        d=np.array([-23753647575465, 0, 53792125317600, -59622527028600,
                    -17787012670215, 40989580597460, 6381481359220]) / 23217312008368,
        bound=3.3),
    # classical RK4, whose next first stage f(t + h, y_new) is a fifth row
    "rk4": _scheme([0.0, 1 / 2, 1 / 2, 1.0, 1.0],
                   [[], [1 / 2], [0.0, 1 / 2], [0.0, 0.0, 1.0], [1 / 6, 1 / 3, 1 / 3, 1 / 6]]),
    # Ketcheson's SSPRK(10,4), SIAM J. Sci. Comput. 30 (2008) 2113-2136, which
    # rk45 takes where the stability bound binds; its weights b = 1/10 are an
    # eleventh row, and e is b minus the third-order weights
    # (61, 87, 108, 124, 0, 54, 70, 81, 87, 88) / 760
    "ssprk104": _scheme(
        [0.0, 1 / 6, 1 / 3, 1 / 2, 2 / 3, 1 / 3, 1 / 2, 2 / 3, 5 / 6, 1.0, 1.0],
        [[1 / 6] * i for i in range(5)]
        + [[1 / 15] * 5 + [1 / 6] * i for i in range(5)] + [[1 / 10] * 10],
        e=np.array([15, -11, -32, -48, 76, 22, 6, -5, -11, -12, 0]) / 760,
        exponent=0.25,
        d=np.array([-36, 27, 30, 3, -24, 24, -3, -30, -27, 36, 0]) / 26,
        bound=13.9),
}


def _dense_weights(b: np.ndarray, d: np.ndarray, theta: float) -> np.ndarray:
    """Weights w of the continuous extension ``y_n + h sum_i w_i k_i`` at
    ``t_n + theta h`` of a step with weights ``b`` (the last row of its
    tableau) and dense row ``d``: the cubic Hermite interpolant through
    ``y_n``, ``k_0``, ``y_n+1`` and the last stage ``k_s = f(y_n+1)``, which
    meets every order condition of order <= 3, plus ``theta^2 (1-theta)^2
    d``, which meets those of order 4.  Theta 0 gives zeros and theta 1
    gives ``b``, exactly."""
    w = theta * theta * (3.0 - 2.0 * theta) * b + (theta * (1.0 - theta)) ** 2 * d
    w[0] += theta * (1.0 - theta) ** 2
    w[-1] -= theta * theta * (1.0 - theta)
    return w


@dataclass
class _StepLog:
    """A run's step counts; its ``step_log`` is these fields, then
    ``live_cells``, ``rhs_evals``, ``runtime_s`` and ``rate_path``."""

    accepted: int = 0
    rejected: int = 0
    clamp_events: int = 0
    # sum |f_i| over the negative cells that the step clamps zeroed: weighted
    # by neither pivot nor width, so not a mass, and zeroing them adds mass
    clamped_mass: float = 0.0
    interpolated_snapshots: int = 0
    interpolated_clamp_events: int = 0
    flag: str | None = None
    min_dt: float | None = None   # None until a step is accepted
    max_h_lambda: float = 0.0
    stiff_steps: int = 0


def _initial_step(rhs, y0, f0, norm, tol_of, y1, f1) -> float:
    """A first step size from the derivative ``f0`` at ``y0`` and one probe
    evaluation, which overwrites the work rows ``y1`` and ``f1``."""
    d0 = norm(y0)
    d1 = norm(f0)
    if d0 < 1e-30 or d1 < 1e-30:
        return 1e-6
    h0 = 0.01 * d0 / d1
    np.multiply(f0, h0, out=y1)
    y1 += y0
    rhs(h0, y1, out=f1)
    f1 -= f0
    d2 = norm(f1) / h0
    rate = max(d1, d2)
    if rate <= 1e-30:
        return min(h0 * 100, 1.0)
    h1 = (0.01 * tol_of(y0) / rate) ** 0.2
    return min(100 * h0, h1)


def _steps(rhs, y, config: SolverConfig, weights, clamp, log):
    """Step ``y`` from t = 0 to t_end and yield the state at each snapshot
    time in turn.

    The stage array ``k``, the stage state and one scratch row are
    allocated once, zeroed, and ``y`` itself is a work array: stage i is
    evaluated at ``y + h (a[i, :i] @ k[:i])``, built in the stage state,
    which becomes ``y`` when the step is accepted; a chained row, which
    repeats the row before it and adds one entry (rows 2-4 and 6-9 of
    SSPRK(10,4)), adds ``h a[i, i-1] k[i-1]`` to the stage state it already
    holds.  ``y`` must be zero past ``rhs.live``, as every derivative is: the
    stage combinations, the error row, the continuous extension, the
    first-same-as-last copy and the clamp run over the live cells and the
    gel entry (``parts``), and the weighted norm over the whole state.  A
    yielded state is valid until the generator resumes.

    A scheme with an error row adapts h from a probe, and only the last
    snapshot time cuts a step.  A snapshot inside a step is read from the
    step's continuous extension (``_dense_weights``) into the scratch row,
    before ``y`` and ``k[0]`` move on, and that copy is clamped, never the
    state; ``log.interpolated_snapshots`` and
    ``log.interpolated_clamp_events`` count them and their clamp events.  A
    snapshot that a step ends within ``1e-14 max(1, t)`` of takes the
    stepped, clamped state.  So the snapshot times do not move a step.  A
    scheme without an error row takes ``config.dt``, lands on each
    snapshot time and counts its steps in each interval, t = t_start + n dt,
    so rounding adds no residual step.

    ``clamp(density)``, given the live cells of ``y``, zeroes negatives in
    place and says whether it removed more than round-off, which alone
    re-evaluates the first stage.  After the first stage of a step,
    ``rhs.max_loss_factor`` is lambda_max at the state the step starts
    from.  The schemes are the configured one and, under ``rk45``,
    SSPRK(10,4), each with its own proposal for h; one that has not run yet
    proposes the configured one's.  The configured scheme runs at its
    proposal unless proposal times lambda_max exceeds its bound.  Then the
    step goes to the scheme with the most time per evaluation, ``min(proposal,
    bound / lambda_max) / (stages - 1)``, the configured one on a tie, at
    that ``min``.  The step's error sets the proposal of the scheme that ran,
    from its own exponent.  ``log.max_h_lambda`` keeps the largest accepted
    ``h lambda_max`` and ``log.stiff_steps`` counts the accepted steps of a
    scheme other than the configured one.  A step size below ``1e-12
    t_end`` or a non-finite error or state sets ``log.flag`` and ends the
    generator."""
    schemes = [_SCHEMES[config.scheme]] + [_SCHEMES["ssprk104"]] * (config.scheme == "rk45")
    first = schemes[0]
    k = np.zeros((max(s.c.size for s in schemes), y.size))
    stage = np.zeros_like(y)
    scratch = np.zeros_like(y)
    m = y.size - 1
    times = config.snapshot_times
    dense = first.d is not None
    pending = 0   # the next snapshot to yield

    def slack(ts):   # a step that ends this close to a snapshot time lands on it
        return 1e-14 * max(1.0, ts)

    def parts():
        # the live cells and the gel entry, in column spans that each hold
        # whole _ALIGN blocks from the row's start or end at the row's end
        end = m + 1
        head, tail = _aligned(rhs.live, end), end - end % _ALIGN - _ALIGN
        return (slice(0, end),) if head >= tail else (slice(0, head), slice(tail, end))

    def combine(coef, h, out, base=None):   # out = base + h (coef @ k[:coef.size])
        for cells in parts():
            view = np.matmul(coef, k[:coef.size, cells], out=out[cells])
            view *= h
            if base is not None:
                view += base[cells]

    def norm(v):   # the weighted norm, through the scratch row
        return float(np.dot(weights, np.abs(v, out=scratch)))

    def tol_of(yv):
        return config.abs_tol + config.rel_tol * norm(yv)

    t = 0.0
    rhs(t, y, out=k[0])
    lam = rhs.max_loss_factor
    h = config.dt if first.e is None else _initial_step(rhs, y, k[0], norm, tol_of, stage, k[1])
    proposals = [h] + [None] * (len(schemes) - 1)   # None until the scheme has run
    for t1 in times[-1:] if dense else times:
        t_start, n = t, 0
        while t < t1 - slack(t1):
            pick, h_now = 0, proposals[0]
            if h_now * lam > first.bound:   # the stability bound binds
                reach = [min(h_now if p is None else p, s.bound / lam)
                         for p, s in zip(proposals, schemes)]
                pick = max(range(len(schemes)), key=lambda i: reach[i] / (schemes[i].c.size - 1))
                h_now = reach[pick]
            c, a, e, exponent, d, _, chained = schemes[pick]
            if h_now < 1e-12 * config.t_end:
                log.flag = "dt_underflow"
                return
            step = min(h_now, t1 - t)
            for i in range(1, c.size):
                if chained[i]:   # row i is row i - 1 and one more entry: one axpy
                    for cells in parts():
                        np.multiply(k[i - 1, cells], step * a[i, i - 1], out=scratch[cells])
                        stage[cells] += scratch[cells]
                else:
                    combine(a[i, :i], step, stage, y)
                rhs(t + c[i] * step, stage, out=k[i])
            if e is None:   # a fixed step passes once its new state is finite
                finite = all(np.isfinite(stage[cells]).all() for cells in parts())
                en, tol = (0.0 if finite else math.nan), 0.0
            else:
                combine(e, step, scratch)
                en, tol = norm(scratch), tol_of(y)
            if not math.isfinite(en):
                log.flag = "non_finite"
                return
            if en <= tol:
                n += 1
                log.accepted += 1
                log.stiff_steps += pick > 0
                log.min_dt = min(log.min_dt or math.inf, float(step))
                log.max_h_lambda = max(log.max_h_lambda, step * lam)
                t_new = t + step if dense else min(t_start + n * config.dt, t1)
                # the snapshots inside the step, from its continuous extension
                # while y and k[0] still hold y_n and f(y_n); the copy in the
                # scratch row is clamped, the state is not
                while dense and times[pending] < t_new - slack(times[pending]):
                    combine(_dense_weights(a[-1], d, (times[pending] - t) / step), step, scratch, y)
                    log.interpolated_snapshots += 1
                    log.interpolated_clamp_events += clamp_negatives(scratch[:rhs.live])[1]
                    pending += 1
                    yield scratch
                t = t_new
                y, stage = stage, y
                if clamp(y[:rhs.live]):
                    rhs(t, y, out=k[0])
                else:
                    for cells in parts():
                        k[0, cells] = k[c.size - 1, cells]
                lam = rhs.max_loss_factor
                # the snapshots the step lands on take its clamped state
                while dense and pending < len(times) and t >= times[pending] - slack(times[pending]):
                    pending += 1
                    yield y
                if step < h_now:
                    break   # cut to land on t1: the proposal stays as before the cut
            else:
                log.rejected += 1
            if e is not None:
                proposals[pick] = step * min(5.0, max(0.2, 0.9 * (tol / en) ** exponent
                                                      if en > 0 else 5.0))
        t = t1
        while pending < len(times) and times[pending] <= t1:
            pending += 1
            yield y


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def resolve_kernel(config: SolverConfig, grid: SizeGrid) -> KernelSpec:
    """Kernel actually integrated: ``config.kernel``, on every grid."""
    return config.kernel


def integrate(init: SizeDistribution, config: SolverConfig) -> Trajectory:
    """Run the coagulation dynamics from ``init`` and record snapshots.

    One loop (``_steps``) runs the scheme's Butcher tableau, Dormand-Prince
    5(4) with step-size control (``rk45``, with SSPRK(10,4) steps where the
    loss rate's stability bound binds) or classical RK4 with the fixed
    ``dt`` (``rk4``).  ``rk4`` lands on each snapshot time; ``rk45`` lands
    on t_end and reads the snapshots before it from each step's continuous
    extension, clamped.  When the step size
    falls below ``1e-12 t_end`` (gelation stiffness, or a tiny ``dt``) or a
    stage is non-finite, the trajectory so far is returned with
    ``step_log["flag"]`` set to ``"dt_underflow"`` or ``"non_finite"``
    rather than raising.  ``step_log["rate_path"]`` names the rate operator
    that ran.
    """
    if not np.all(np.isfinite(init.density)) or np.any(init.density < 0):
        raise DomainError("initial density must be finite and non-negative")
    grid = init.grid
    rhs = _Rhs(_rate_operator(grid, config.kernel, config.boundary))

    m = grid.size
    weights = np.empty(m + 1)
    weights[:m] = (1.0 + grid.pivots) * grid.widths   # the (1+x)-weighted norm
    weights[m] = 1.0

    log = _StepLog()

    def clamp(density):
        _, events, removed = clamp_negatives(density)
        log.clamp_events += events
        log.clamped_mass += removed
        return events > 0

    snapshots = [SizeDistribution(grid, init.density.copy(), 0.0)]
    gel_series = [0.0]
    steps = _steps(rhs, np.concatenate([init.density, [0.0]]), config, weights, clamp, log)
    started = time.perf_counter()
    # a diverging run overflows on its way to the non-finite error norm,
    # which ends it with step_log["flag"]; numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for t, y in zip(config.snapshot_times, steps):
            snapshots.append(SizeDistribution(grid, y[:m].copy(), t))
            gel_series.append(max(float(y[m]), 0.0))
    steps.close()   # frees the stage arrays before the moment series

    times = np.array([s.time for s in snapshots])
    pivots, widths, row = grid.pivots, grid.widths, np.empty(m)

    def series(power):
        # grids.moment's sum, (p**mu * density) * widths, through one work
        # row; each power row is freed before the next one is made
        return np.array([
            float(np.sum(np.multiply(np.multiply(power, s.density, out=row), widths, out=row)))
            for s in snapshots])

    values = {mu: series(pivots**mu) for mu in MOMENT_ORDERS}
    moments = MomentSeries(times, values, np.asarray(gel_series))
    step_log = {**asdict(log), "live_cells": rhs.live, "rhs_evals": rhs.evals,
                "runtime_s": time.perf_counter() - started, "rate_path": rhs.op.path}
    return Trajectory(snapshots=snapshots, moments=moments, step_log=step_log,
                      config=config, operator=rhs.op)
