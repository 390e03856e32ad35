import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import coagkit as ck
from coagkit import solver
from coagkit.errors import DomainError, GridError
from coagkit.solver import (_SSP_STABILITY, _STABILITY, _TABLEAUX, _next_fast_len, _PairRows,
                           _rate_operator, _Rhs, _SeparableOperator, _StepLog, _steps,
                           resolve_kernel)


def brute_force_rates(dist, kernel, boundary):
    """Pairwise double loop over all ordered pairs (oracle for rates), in
    Python floats over the kernel's values tabulated on the pivots."""
    p = dist.grid.pivots.tolist()
    n = dist.number.tolist()
    m = len(p)
    kmat = kernel.eval(dist.grid.pivots[:, None], dist.grid.pivots[None, :]).tolist()
    gain_num = [0.0] * m
    loss_num = [0.0] * m
    gel = 0.0
    for a in range(m):
        for b in range(m):
            rate = kmat[a][b] * n[a] * n[b]
            v = p[a] + p[b]
            if dist.grid.kind == "discrete":
                overflow = v > dist.grid.n + 1e-9
            else:
                overflow = v > p[-1] * (1 + 1e-12)
            if boundary == "conservative" and overflow:
                continue
            loss_num[a] += rate
            if overflow:
                gel += 0.5 * v * rate
                continue
            if dist.grid.kind == "discrete":
                gain_num[int(round(v)) - 1] += 0.5 * rate
            else:
                j = int(np.searchsorted(p, v, side="right")) - 1
                j = min(j, m - 2)
                t = (v - p[j]) / (p[j + 1] - p[j])
                gain_num[j] += 0.5 * rate * (1 - t)
                gain_num[j + 1] += 0.5 * rate * t
    w = dist.grid.widths
    return np.array(gain_num) / w, np.array(loss_num) / w, gel


def test_rates_hand_example():
    grid = ck.SizeGrid.discrete(8)
    dist = ck.init_distribution(grid, "monodisperse", size=1)
    split = ck.rates(dist, ck.KernelSpec.constant(2.0))
    assert split.gain[1] == 1.0          # 0.5 * K(1,1) * f1^2
    assert split.loss[0] == 2.0          # f1 * K(1,1) * f1
    assert np.all(split.gain[2:] == 0.0)


def test_rates_zero_distribution():
    grid = ck.SizeGrid.discrete(16)
    dist = ck.SizeDistribution(grid, np.zeros(16))
    split = ck.rates(dist, ck.KernelSpec.additive())
    assert np.all(split.gain == 0.0) and np.all(split.loss == 0.0)


def _tabulated_sum(grid):
    p = grid.pivots
    return ck.KernelSpec.tabulated(p, np.add.outer(p, p))


_DISCRETE_24 = ck.SizeGrid.discrete(24)
_GEOMETRIC_20 = ck.SizeGrid.geometric(0.5, 64.0, bins=20)
_ONE_BIN = ck.SizeGrid.sectional([1.0, 2.0])
# (grid, kernel, the rate path rates() takes)
RATES_CASES = [
    (_DISCRETE_24, ck.KernelSpec.constant(2.0), "separable"),
    (_DISCRETE_24, ck.KernelSpec.additive(), "separable"),
    (_DISCRETE_24, ck.KernelSpec.multiplicative(), "separable"),
    (_DISCRETE_24, ck.KernelSpec.brownian(), "separable"),
    (_DISCRETE_24, ck.KernelSpec.brownian().truncate(5.0), "dense"),
    (_DISCRETE_24, _tabulated_sum(_DISCRETE_24), "dense"),
    (_DISCRETE_24, ck.KernelSpec.multiplicative().truncate(40.0), "capped"),
    (_GEOMETRIC_20, ck.KernelSpec.brownian(), "dense"),
    (_GEOMETRIC_20, _tabulated_sum(_GEOMETRIC_20), "dense"),
    (_ONE_BIN, ck.KernelSpec.additive(), "dense"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("boundary", ["conservative", "absorbing"])
@pytest.mark.parametrize("grid, kernel, path", RATES_CASES,
                         ids=[f"kernel{i}" for i in range(len(RATES_CASES))])
def test_rates_against_brute_force(grid, kernel, path, boundary):
    # a random density, and exp(-3x), whose small gel rate a mass-balance
    # difference would drown in round-off
    assert _rate_operator(grid, kernel, boundary).path == path
    rng = np.random.default_rng(17)
    for density in (rng.random(grid.size), np.exp(-3.0 * grid.pivots)):
        dist = ck.SizeDistribution(grid, density)
        split = ck.rates(dist, kernel, boundary)
        gain_o, loss_o, gel_o = brute_force_rates(dist, kernel, boundary)
        np.testing.assert_allclose(split.gain, gain_o, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(split.loss, loss_o, rtol=1e-12, atol=1e-14)
        assert split.gel_rate == pytest.approx(gel_o, rel=1e-12, abs=0.0)
        assert split.max_loss_factor == pytest.approx(_max_loss_factor(dist, loss_o), rel=1e-12)


def _max_loss_factor(dist, loss):
    """lambda_max from the pairwise loss: the largest loss / f over the
    support, for a density that is positive on all of it."""
    nonzero = np.flatnonzero(dist.density)
    s = int(nonzero[-1]) + 1 if nonzero.size else 0
    return float(np.max(loss[:s] / dist.density[:s])) if s else 0.0


def _no_fft(*args, **kwargs):
    raise AssertionError("an FFT ran")


def _same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_split(op, dist, kernel, boundary, live=None):
    """``op.split`` with and without ``refine`` against the pairwise oracle.
    With ``refine`` no FFT runs, and a separable gain is the direct sum bit
    for bit.  Given ``live``, the split reads the prefix ``density[:live]``,
    and it matches the whole density's split on a fresh operator bit for
    bit: the gain over the grid, the loss and the loss factor over the
    prefix."""
    gain_o, loss_o, gel_o = brute_force_rates(dist, kernel, boundary)
    f = dist.density[:live]
    for refine in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if refine:
                patch.setattr(solver, "rfft", _no_fft)
                patch.setattr(solver, "irfft", _no_fft)
            split = op.split(f, refine)
        if live is not None:
            whole = _SeparableOperator(dist.grid, kernel, boundary).split(dist.density, refine)
            _same_bits(split.gain, whole.gain)
            _same_bits(split.loss, whole.loss[:live])
            _same_bits(split.loss_factor, whole.loss_factor[:live])
            assert (split.gel_rate, split.support) == (whole.gel_rate, whole.support)
        if refine and isinstance(op, _SeparableOperator):
            # over the support's rows: zero padding reorders np.convolve's sums
            s = split.support
            top = min(2 * s, op.n)
            want = np.zeros(op.n)
            if top > 1:
                want[1:top] = 0.5 * op._direct(op.w[:, :s] * dist.density[:s], top - 1)
            np.testing.assert_array_equal(split.gain, want)
        # without refine only the round-off floor of the summed spectrum holds
        atol = 0.0 if refine else 1e-12 * float(np.max(gain_o))
        np.testing.assert_allclose(split.gain, gain_o, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(split.loss, loss_o[:f.size], rtol=1e-12)
        assert split.gel_rate == pytest.approx(gel_o, rel=1e-12, abs=0.0)
        assert split.max_loss_factor == pytest.approx(_max_loss_factor(dist, loss_o), rel=1e-12)


SEPARABLE_FAMILIES = [ck.KernelSpec.constant(2.0), ck.KernelSpec.additive(),
                      ck.KernelSpec.multiplicative(), ck.KernelSpec.power_sum(0.25, 0.5),
                      ck.KernelSpec.product(ck.RadialRate.power_law(0.75)),
                      ck.KernelSpec.brownian()]


def test_next_fast_len_matches_scipy():
    # scipy is the independent oracle here only; the solver does not import it
    from scipy.fft import next_fast_len
    assert [_next_fast_len(m) for m in range(1, 20000)] \
        == [next_fast_len(m, real=True) for m in range(1, 20000)]


@pytest.mark.parametrize("boundary", ["conservative", "absorbing"])
@pytest.mark.parametrize("kernel", SEPARABLE_FAMILIES)
@pytest.mark.parametrize("n", [1, 24, 40])   # 2n - 1 < 64: direct convolution; else FFT
def test_separable_split_against_brute_force(kernel, boundary, n):
    rng = np.random.default_rng(31)
    dist = ck.SizeDistribution(ck.SizeGrid.discrete(n), rng.random(n))
    _check_split(_SeparableOperator(dist.grid, kernel, boundary), dist, kernel, boundary)


# families whose cap runs on the capped path, by name for the test ids
MONOTONE_FAMILIES = {
    "additive": ck.KernelSpec.additive(),
    "multiplicative": ck.KernelSpec.multiplicative(),
    "power_sum": ck.KernelSpec.power_sum(0.25, 0.5),
    "product_power_law": ck.KernelSpec.product(ck.RadialRate.power_law(0.75)),
    "product_sqrt_log": ck.KernelSpec.product(ck.RadialRate.sqrt_log()),
}


def _cap_with_j0(kernel, n, j0):
    """A cap with exactly ``j0`` leading cells below it on the diagonal."""
    p = ck.SizeGrid.discrete(n).pivots
    d = kernel.eval(p, p)
    if j0 == 0:
        return 0.5 * d[0]
    if j0 == n:
        return 2.0 * d[-1]
    return 0.5 * (d[j0 - 1] + d[j0])


# (n, family, J0): every family at J0 in {0, 1, several, ~n/2} on both sides
# of the 64-entry direct-sum switch; at n = 512 the multiplicative kernel (the
# benchmark's truncated run) and the additive one (the grid-convergence
# sweep).  The constant kernel has J0 = 0.
CAPPED_CASES = [(n, name, j0) for n in (1, 24, 40) for name in MONOTONE_FAMILIES
                for j0 in sorted({0, 1, 3, n // 2} & set(range(n + 1)))]
CAPPED_CASES += [(512, name, j0) for name in ("additive", "multiplicative")
                 for j0 in (0, 1, 7, 256)]
CAPPED_CASES += [(n, "constant", 0) for n in (1, 24, 40, 512)]


@pytest.mark.parametrize("boundary", ["conservative", "absorbing"])
@pytest.mark.parametrize("n, name, j0", CAPPED_CASES,
                         ids=[f"{n}-{name}-J0={j0}" for n, name, j0 in CAPPED_CASES])
def test_capped_split_against_brute_force(n, name, j0, boundary):
    kernel = MONOTONE_FAMILIES.get(name, ck.KernelSpec.constant(2.0))
    capped = kernel.truncate(_cap_with_j0(kernel, n, j0))
    rng = np.random.default_rng(37)
    dist = ck.SizeDistribution(ck.SizeGrid.discrete(n), rng.random(n))
    op = _PairRows(dist.grid, capped, boundary)
    assert op.j0 == j0
    _check_split(op, dist, capped, boundary)


# supports s of a density with a zero tail on N = 80: none, one cell, 2s - 1
# on both sides of the 64-entry direct-sum switch, both sides of the gel
# rate's 2s > N switch, three quarters and the whole grid
TRIM_N = 80
TRIM_SUPPORTS = [0, 1, 32, 33, TRIM_N // 2, TRIM_N // 2 + 1, 3 * TRIM_N // 4, TRIM_N]


def _zero_tail(n, support, seed):
    f = np.random.default_rng(seed).random(n)
    f[support:] = 0.0
    return ck.SizeDistribution(ck.SizeGrid.discrete(n), f)


@pytest.mark.parametrize("support", TRIM_SUPPORTS)
@pytest.mark.parametrize("boundary", ["conservative", "absorbing"])
@pytest.mark.parametrize("kernel", SEPARABLE_FAMILIES)
def test_separable_split_of_a_zero_tail(kernel, boundary, support, monkeypatch):
    # on the whole density, and on prefixes of it that hold the support: the
    # support alone, one cell more, the live mark min(N, 2s) and the grid
    dist = _zero_tail(TRIM_N, support, 53)
    prefixes = [None] + sorted({support, min(support + 1, TRIM_N), min(2 * support, TRIM_N),
                                TRIM_N})
    op = _SeparableOperator(dist.grid, kernel, boundary)
    assert op._block_outputs is None
    for live in prefixes:
        _check_split(op, dist, kernel, boundary, live)
    # blocks of 8 cells: past half support the convolution is blocked
    monkeypatch.setattr(solver, "_BLOCK", 8)
    op = _SeparableOperator(dist.grid, kernel, boundary)
    assert op._block_outputs is not None
    for live in prefixes:
        _check_split(op, dist, kernel, boundary, live)


@pytest.mark.parametrize("boundary", ["conservative", "absorbing"])
@pytest.mark.parametrize("kernel", SEPARABLE_FAMILIES)
def test_separable_splits_in_turn_on_one_operator(kernel, boundary):
    # as in a run: the support grows and shrinks (a clamp), the prefix only
    # grows, and a split of the whole density follows (a diagnostic on the
    # run's operator); each matches a fresh operator's split bit for bit
    op = _SeparableOperator(ck.SizeGrid.discrete(TRIM_N), kernel, boundary)
    for support, live in ((5, 5), (40, 70), (12, 70), (0, 70), (33, 80), (7, None)):
        dist = _zero_tail(TRIM_N, support, 71)
        split = op.split(dist.density[:live])
        whole = _SeparableOperator(dist.grid, kernel, boundary).split(dist.density)
        _same_bits(split.gain, whole.gain)
        _same_bits(split.loss, whole.loss[:live])
        _same_bits(split.loss_factor, whole.loss_factor[:live])
        assert (split.gel_rate, split.support) == (whole.gel_rate, whole.support)


def test_support_of_prefixes():
    # a last cell that is nonzero returns the length without a scan; the
    # others scan back to the last nonzero cell
    f = np.zeros(100)
    f[[3, 40, 99]] = (1.0, 2.0, 3.0)
    f[60] = np.nan
    nonzero = np.empty(100, dtype=bool)
    for live, want in ((100, 100), (41, 41), (61, 61), (1, 0), (4, 4), (5, 4), (60, 41),
                       (99, 61), (0, 0)):
        assert solver._support(f[:live], nonzero[:live]) == want, live
    assert solver._support(np.zeros(7), nonzero[:7]) == 0
    assert solver._support(np.full(7, -0.0), nonzero[:7]) == 0
    assert solver._support(np.array([5e-324]), nonzero[:1]) == 1
    assert solver._support(np.array([1.0, 0.0, 2.0, 0.0]), nonzero[:4]) == 3


@pytest.mark.parametrize("boundary", ["conservative", "absorbing"])
@pytest.mark.parametrize("kernel", [ck.KernelSpec.constant(0.3), ck.KernelSpec.multiplicative(),
                                    ck.KernelSpec.product(ck.RadialRate.power_law(0.75))],
                         ids=["constant", "multiplicative", "product"])
def test_one_weight_vector_loss_factor_is_the_matmul(kernel, boundary):
    # one weight vector: the loss factor is the elementwise product, bit for
    # bit the one-row matmul over whole _ALIGN blocks that it replaces
    n = 1000
    op = _SeparableOperator(ck.SizeGrid.discrete(n), kernel, boundary)
    assert op.w.shape[0] == 1
    f = np.random.default_rng(29).random(n)
    for live, support in ((1, 1), (37, 37), (63, 20), (65, 65), (100, 99), (129, 129),
                          (500, 500), (999, 999), (1000, 1000), (1000, 611)):
        g = f[:live].copy()
        g[support:] = 0.0
        split = op.split(g)
        scale = op.coef @ np.sum(op.w[:, :support] * g[:support], axis=1)
        want = np.matmul(scale, op.w[:, :solver._aligned(live, n)])[:live]
        end = live if boundary == "absorbing" else min(live, n - support)
        _same_bits(split.loss_factor[:end], want[:end])


@pytest.mark.parametrize("boundary", ["conservative", "absorbing"])
@pytest.mark.parametrize("kernel", SEPARABLE_FAMILIES)
def test_blocked_convolution_past_the_last_block_pair(kernel, boundary, monkeypatch):
    # N = 74, s = 38 in blocks of 8: entry 72 lies in output block 9, which
    # no block pair reaches; only block 8's overlap holds it.  The work
    # arrays start as NaN, so an entry the blocks leave unwritten shows
    monkeypatch.setattr(solver, "_BLOCK", 8)
    dist = _zero_tail(74, 38, 67)
    op = _SeparableOperator(dist.grid, kernel, boundary)
    op._conv[:] = np.nan
    op._spectra[:] = np.nan
    _check_split(op, dist, kernel, boundary)


_FULL_N = 2 ** 14


@pytest.mark.parametrize("kernel", [ck.KernelSpec.multiplicative(), ck.KernelSpec.additive(),
                                    ck.KernelSpec.brownian()],
                         ids=["multiplicative", "additive", "brownian"])
def test_blocked_convolution_at_full_support_matches_the_direct_sum(kernel):
    f = np.random.default_rng(61).uniform(0.5, 1.5, _FULL_N) * np.exp(-np.arange(_FULL_N) / 4096.0)
    op = _SeparableOperator(ck.SizeGrid.discrete(_FULL_N), kernel, "absorbing")
    assert op._block_outputs is not None
    want = 0.5 * op._direct(op.w * f, _FULL_N - 1)
    for refine in (True, False):
        gain = op.split(f, refine).gain
        assert gain[0] == 0.0
        np.testing.assert_allclose(gain[1:], want, rtol=1e-12,
                                   atol=0.0 if refine else 1e-12 * float(np.max(want)))


def _src_env():
    src = str(Path(ck.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_blocked_convolution_takes_few_page_faults():
    # a transform of 32768 points takes pocketfft scratch that glibc maps and
    # unmaps on every call, about 190 minor faults per rfft/irfft pair in a
    # process without scipy; blocks of 4096 cells keep the scratch on the heap
    code = f"""
import resource, sys
import numpy as np
import coagkit as ck
from coagkit.solver import _SeparableOperator
n = {_FULL_N}
f = np.random.default_rng(61).uniform(0.5, 1.5, n) * np.exp(-np.arange(n) / 4096.0)
op = _SeparableOperator(ck.SizeGrid.discrete(n), ck.KernelSpec.multiplicative(), "absorbing")
for _ in range(2):
    op.split(f)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    op.split(f)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print([m for m in sys.modules if m.startswith("scipy")])
"""
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True, timeout=120).stdout.split("\n")
    assert out[1] == "[]"
    assert int(out[0]) < 20 * 190 // 10


@pytest.mark.parametrize("support", TRIM_SUPPORTS)
@pytest.mark.parametrize("boundary", ["conservative", "absorbing"])
@pytest.mark.parametrize("name", ["additive", "multiplicative"])
def test_capped_split_of_a_zero_tail(name, boundary, support):
    kernel = MONOTONE_FAMILIES[name]
    capped = kernel.truncate(_cap_with_j0(kernel, TRIM_N, 3))
    dist = _zero_tail(TRIM_N, support, 59)
    op = _PairRows(dist.grid, capped, boundary)
    assert op.path == "capped" and op.j0 == 3
    _check_split(op, dist, capped, boundary)


def test_capped_path_refuses_a_table_past_the_dense_budget():
    # J0 * N above _MATRIX_LIMIT^2 (4096 small cells of 8192) is refused
    # before any table is built
    grid = ck.SizeGrid.discrete(8192)
    kernel = ck.KernelSpec.additive().truncate(8193.0)
    with pytest.raises(GridError):
        _PairRows(grid, kernel, "absorbing")


@pytest.mark.parametrize("grid", [ck.SizeGrid.discrete(4097),
                                  ck.SizeGrid.geometric(1.0, 1e4, bins=4097)],
                         ids=["discrete", "sectional"])
def test_dense_path_refuses_more_than_4096_cells(grid):
    # refused before any table is allocated: a 4097^2 table is 134 MB
    nodes = np.geomspace(1.0, 1e4, 8)
    kernel = ck.KernelSpec.tabulated(nodes, np.add.outer(nodes, nodes))
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="4097 x 4097"):
            _rate_operator(grid, kernel, "absorbing")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4097 ** 2


def test_capped_run_beyond_the_dense_limit_conserves_mass():
    # min(xy, 64) at N = 8192: twice the cells the dense path allows
    grid = ck.SizeGrid.discrete(8192)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative().truncate(64.0), t_end=1.0,
                          boundary="absorbing", snapshot_times=(0.5, 1.0))
    traj = ck.integrate(init, cfg)
    assert traj.step_log["rate_path"] == "capped"
    assert not traj.flagged
    m = traj.moments
    np.testing.assert_allclose(m[1.0] + m.gel_mass, 1.0, rtol=0.0, atol=1e-8)


def test_rates_sectional_against_brute_force():
    rng = np.random.default_rng(19)
    grid = ck.SizeGrid.geometric(0.5, 64.0, bins=20)
    dist = ck.SizeDistribution(grid, rng.random(20))
    for boundary in ("conservative", "absorbing"):
        split = ck.rates(dist, ck.KernelSpec.additive(), boundary)
        gain_o, loss_o, gel_o = brute_force_rates(dist, ck.KernelSpec.additive(), boundary)
        np.testing.assert_allclose(split.gain, gain_o, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(split.loss, loss_o, rtol=1e-12, atol=1e-13)
        assert split.gel_rate == pytest.approx(gel_o, rel=1e-12, abs=1e-13)


def test_rates_conservative_mass_balance():
    rng = np.random.default_rng(23)
    for grid in (ck.SizeGrid.discrete(32), ck.SizeGrid.geometric(0.5, 32, bins=24)):
        dist = ck.SizeDistribution(grid, rng.random(grid.size))
        split = ck.rates(dist, ck.KernelSpec.multiplicative(), "conservative")
        p, w = grid.pivots, grid.widths
        m1sq = dist.moment(1.0) ** 2
        rate = float(np.dot(p * w, split.gain - split.loss))
        assert abs(rate) <= 1e-12 * max(m1sq, 1.0)


def test_rate_split_signs():
    rng = np.random.default_rng(29)
    dist = ck.SizeDistribution(ck.SizeGrid.discrete(16), rng.random(16))
    split = ck.rates(dist, ck.KernelSpec.additive(), "absorbing")
    assert np.all(split.gain >= 0) and np.all(split.loss_factor >= 0)
    p, w = dist.grid.pivots, dist.grid.widths
    assert float(np.dot(p * w, split.gain - split.loss)) <= 1e-12


def test_integrate_constant_kernel_distribution():
    grid = ck.SizeGrid.discrete(128)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=1.0,
                          rel_tol=1e-10, abs_tol=1e-14, boundary="conservative")
    traj = ck.integrate(init, cfg)
    i = np.arange(1, 11)
    exact = 1.0 ** (i - 1) / 2.0 ** (i + 1)
    np.testing.assert_allclose(traj.snapshots[-1].density[:10], exact, rtol=1e-7)
    assert traj.moments[0.0][-1] == pytest.approx(0.5, rel=1e-8)


def test_integrate_additive_m0():
    grid = ck.SizeGrid.discrete(512)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.additive(), t_end=1.0,
                          rel_tol=1e-9, boundary="conservative")
    traj = ck.integrate(init, cfg)
    assert traj.moments[0.0][-1] == pytest.approx(np.exp(-1.0), rel=1e-6)
    assert abs(traj.moments[1.0][-1] - 1.0) <= 1e-10


def test_integrate_multiplicative_m2_and_gel_bookkeeping():
    grid = ck.SizeGrid.discrete(1024)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=0.5,
                          rel_tol=1e-9, boundary="absorbing")
    traj = ck.integrate(init, cfg)
    assert traj.moments[2.0][-1] == pytest.approx(2.0, rel=1e-4)
    total = traj.moments[1.0] + traj.moments.gel_mass
    assert np.max(np.abs(total - 1.0)) <= 10 * cfg.rel_tol


def test_positivity_and_m0_monotone():
    grid = ck.SizeGrid.discrete(256)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    for kernel in (ck.KernelSpec.constant(2.0), ck.KernelSpec.additive()):
        cfg = ck.SolverConfig(kernel=kernel, t_end=2.0, rel_tol=1e-9,
                              boundary="conservative")
        traj = ck.integrate(init, cfg)
        for snap in traj.snapshots:
            assert np.all(snap.density >= 0.0)
        m0 = traj.moments[0.0]
        assert np.all(np.diff(m0) <= 1e-12)


def test_half_and_second_moment_monotonicity():
    grid = ck.SizeGrid.discrete(512)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.additive(), t_end=2.0,
                          rel_tol=1e-9, boundary="conservative")
    traj = ck.integrate(init, cfg)
    m05, m2 = traj.moments[0.5], traj.moments[2.0]
    assert np.all(np.diff(m05) <= 1e-9 * m05[:-1])
    assert np.all(np.diff(m2) >= -1e-9 * m2[:-1])


def test_mass_bookkeeping_both_boundaries():
    grid = ck.SizeGrid.discrete(96)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    for boundary in ("conservative", "absorbing"):
        cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=1.2,
                              rel_tol=1e-9, boundary=boundary)
        traj = ck.integrate(init, cfg)
        total = traj.moments[1.0] + traj.moments.gel_mass
        assert np.max(np.abs(total - 1.0)) <= 10 * cfg.rel_tol
        if boundary == "conservative":
            assert np.all(traj.moments.gel_mass == 0.0)


def test_gel_mass_monotone_post_gelation():
    grid = ck.SizeGrid.discrete(128)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=2.0,
                          rel_tol=1e-8, boundary="absorbing")
    traj = ck.integrate(init, cfg)
    gel = traj.moments.gel_mass
    assert gel[-1] > 0.3  # past the transition, a finite gel fraction
    assert np.all(np.diff(gel) >= -1e-12)


def test_truncation_cauchy_in_cap():
    # trajectories with caps n and 2n approach each other as n grows
    grid = ck.SizeGrid.discrete(64)
    init = ck.init_distribution(grid, "monodisperse", size=1)

    def run(cap):
        cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative().truncate(cap), t_end=0.4,
                              rel_tol=1e-10, boundary="conservative")
        return ck.integrate(init, cfg).snapshots[-1].density

    gaps = []
    for cap in (8.0, 16.0, 32.0):
        d = np.abs(run(cap) - run(2 * cap)).sum()
        gaps.append(d)
    assert gaps[0] > gaps[1] > gaps[2]


def test_time_equicontinuity_lipschitz_bound():
    # ||f(t) - f(s)||_1 <= (3 kappa / 2) ||f0||_{1,1}^2 (t - s) for kernels
    # with the factored sublinear bound
    grid = ck.SizeGrid.discrete(256)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    kernel = ck.KernelSpec.constant(2.0)
    cfg = ck.SolverConfig(kernel=kernel, t_end=1.0, rel_tol=1e-10,
                          boundary="conservative")
    traj = ck.integrate(init, cfg)
    labels = ck.classify(kernel, grid.span)
    kappa = next(g.constants["kappa"] for g in labels
                 if g.label == "sublinear_factored")
    norm11 = init.moment(0.0) + init.moment(1.0)
    c2 = 1.5 * kappa * norm11**2
    w = grid.widths
    snaps, times = traj.snapshots, traj.times
    for a in range(len(snaps)):
        for b in range(a + 1, len(snaps)):
            l1 = float(np.dot(np.abs(snaps[b].density - snaps[a].density), w))
            assert l1 <= c2 * (times[b] - times[a]) * (1 + 1e-9)


def test_resolved_kernel_is_the_requested_one():
    grid = ck.SizeGrid.discrete(64)
    for kernel in (ck.KernelSpec.multiplicative(), ck.KernelSpec.brownian(),
                   ck.KernelSpec.power_sum(-0.5, 0.5),
                   ck.KernelSpec.additive().truncate(50.0)):
        cfg = ck.SolverConfig(kernel=kernel, t_end=1.0)
        assert resolve_kernel(cfg, grid) == kernel == cfg.kernel


def test_unknown_truncation_mode_rejected():
    # an unknown mode once resolved silently to the pointwise cap min(K, n)
    with pytest.raises(DomainError, match="truncation mode"):
        ck.KernelSpec.multiplicative().truncate(10.0, "product")
    kernel = ck.KernelSpec.product(ck.RadialRate.identity()).truncate(10.0, "product_cap")
    assert kernel.cap_mode == "product"


def test_default_snapshot_times_are_set_once():
    # ten evenly spaced Python floats ending at t_end, checked as given ones are
    times = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=1.0).snapshot_times
    assert len(times) == 10 and all(type(t) is float for t in times)
    assert times[-1] == 1.0
    np.testing.assert_allclose(times, np.arange(1, 11) / 10, rtol=1e-15)


def test_snapshots_csv_rows_are_the_distribution_rows():
    grid = ck.SizeGrid.geometric(0.5, 8.0, bins=6)
    init = ck.init_distribution(grid, "exponential", mean=1.0)
    traj = ck.integrate(init, ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0),
                                              t_end=0.2, snapshot_times=(0.1, 0.2)))
    lines = traj.snapshots_csv().splitlines()
    assert lines[0] == "t,pivot,width,density"
    expected = [f"{snap.time!r},{float(p)!r},{float(w)!r},{float(d)!r}"
                for snap in traj.snapshots
                for p, w, d in zip(grid.pivots, grid.widths, snap.density)]
    assert lines[1:] == expected


@pytest.mark.parametrize("grid", [ck.SizeGrid.discrete(300),
                                  ck.SizeGrid.geometric(0.5, 50.0, bins=40)],
                         ids=["discrete", "sectional"])
def test_moment_series_is_each_snapshot_moment(grid):
    # bit for bit grids.moment of every snapshot, also where the widths are not 1
    init = ck.init_distribution(grid, "exponential", mean=2.0)
    traj = ck.integrate(init, ck.SolverConfig(kernel=ck.KernelSpec.additive(), t_end=0.4,
                                              boundary="absorbing"))
    assert len(traj.snapshots) == 11
    for mu in solver.MOMENT_ORDERS:
        _same_bits(traj.moments[mu], np.array([s.moment(mu) for s in traj.snapshots]))


def test_integrate_brownian_dense_path():
    # the same Brownian kernel, tabulated on the pivots, has no separable
    # form: the dense run is an independent oracle for the separable one
    grid = ck.SizeGrid.discrete(48)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    p = grid.pivots
    brownian = ck.KernelSpec.brownian()
    tabulated = ck.KernelSpec.tabulated(p, brownian.eval(p[:, None], p[None, :]))
    runs = {}
    for kernel in (brownian, tabulated):
        cfg = ck.SolverConfig(kernel=kernel, t_end=0.5, rel_tol=1e-8,
                              boundary="conservative")
        traj = ck.integrate(init, cfg)
        runs[traj.step_log["rate_path"]] = traj
        assert abs(traj.moments[1.0][-1] - 1.0) <= 1e-9
        assert np.all(np.diff(traj.moments[0.0]) < 0)
    fast, dense = runs["separable"], runs["dense"]
    for a, b in zip(fast.snapshots, dense.snapshots):
        np.testing.assert_allclose(a.density, b.density, rtol=1e-12, atol=1e-15)


def test_rhs_evals_first_same_as_last():
    # the clamp never fires, so every accepted step reuses its last stage as
    # the next first stage, across snapshot times too: six evaluations per
    # step, plus the derivative and the step-size probe at the start
    grid = ck.SizeGrid.discrete(64)
    init = ck.init_distribution(grid, "exponential", mean=2.0)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=1.0,
                          boundary="conservative")
    traj = ck.integrate(init, cfg)
    log = traj.step_log
    assert log["clamped_mass"] == 0.0
    assert len(traj.snapshots) == 11
    assert log["rhs_evals"] == 6 * (log["accepted"] + log["rejected"]) + 2


def test_round_off_clamps_keep_first_same_as_last():
    # the capped path's stages leave round-off negatives that the clamp
    # zeroes without counting an event; the last stage is still reused
    grid = ck.SizeGrid.discrete(512)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative().truncate(64.0), t_end=2.0,
                          boundary="absorbing")
    traj = ck.integrate(init, cfg)
    log = traj.step_log
    assert log["rate_path"] == "capped"
    assert log["clamped_mass"] > 0.0 and log["clamp_events"] == 0
    assert log["rhs_evals"] == 6 * (log["accepted"] + log["rejected"]) + 2


def _seeded(seed, stream, n):
    """The benchmark's initial data: a unit-mass density on sizes 1..4 with
    weights drawn uniformly from [0.5, 1.5]."""
    w = np.random.default_rng([seed, stream]).uniform(0.5, 1.5, 4)
    f = np.zeros(n)
    f[:4] = w / np.dot(np.arange(1.0, 5.0), w)
    return ck.SizeDistribution(ck.SizeGrid.discrete(n), f)


def test_gelation_steps_within_the_stability_bound():
    # K = xy on N = 2^14 to 0.93 t_gel: from t ~ 0.15 t_gel on, Dormand-
    # Prince's bound h lambda_max <= 3.3 alone sets every step (158/0/964);
    # SSPRK(10,4) steps, stable to 13.9, cover more time per evaluation there
    # (81/3/675, 38 of them SSPRK(10,4)).  Integrating only the live prefix
    # of the grid keeps every one of them
    init = _seeded(11, 0, 2 ** 14)
    m2_0 = init.moment(2.0)
    fractions = np.concatenate([np.linspace(0.1, 0.5, 5), np.linspace(0.55, 0.93, 20)])
    snaps = tuple(float(v / m2_0) for v in fractions)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=snaps[-1],
                          snapshot_times=snaps, rel_tol=1e-8, boundary="absorbing")
    traj = ck.integrate(init, cfg)
    log = traj.step_log
    assert log["flag"] is None
    assert (log["accepted"], log["rejected"], log["rhs_evals"], log["stiff_steps"],
            log["clamp_events"], log["live_cells"]) == (81, 3, 675, 38, 118, 2 ** 14)
    # (13.9 / lambda_max) lambda_max rounds to within an ulp of 13.9
    assert log["max_h_lambda"] <= _SSP_STABILITY * (1 + 1e-15)
    m = traj.moments
    assert np.max(np.abs(m[1.0] + m.gel_mass - m[1.0][0])) <= 1e-8
    t = traj.times[-1]
    assert m[2.0][-1] == pytest.approx(m2_0 / (1.0 - m2_0 * t), rel=3e-6)


# (initial density, kernel, boundary, t_end) -> the step counts and the
# final M0, M1/2, M1, M2 and gel mass of the whole-grid loop
LIVE_PREFIX_RUNS = {
    # the clamp removes more than round-off twice, and re-evaluates the first stage
    "clamp": ((ck.init_distribution(ck.SizeGrid.discrete(256), "monodisperse", size=1),
               ck.KernelSpec.multiplicative(), "absorbing", 2.0),
              (119, 5, 756, 1, 2, 256),
              (0.2516516382696987, 0.3130178011570858, 0.49999986167799615, 8.576141580487484,
               0.5000001399804972)),
    # support 0: the live mark stays 0
    "zero": ((ck.SizeDistribution(ck.SizeGrid.discrete(64), np.zeros(64)),
              ck.KernelSpec.additive(), "absorbing", 1.0),
             (18, 0, 109, 0, 0, 0), (0.0,) * 5),
}


@pytest.mark.parametrize("name", LIVE_PREFIX_RUNS)
def test_live_prefix_runs_keep_their_steps_and_moments(name):
    (init, kernel, boundary, t_end), counts, final = LIVE_PREFIX_RUNS[name]
    traj = ck.integrate(init, ck.SolverConfig(kernel=kernel, t_end=t_end, boundary=boundary))
    log = traj.step_log
    assert (log["accepted"], log["rejected"], log["rhs_evals"], log["stiff_steps"],
            log["clamp_events"], log["live_cells"]) == counts
    m = traj.moments
    got = [m[mu][-1] for mu in (0.0, 0.5, 1.0, 2.0)] + [m.gel_mass[-1]]
    np.testing.assert_allclose(got[:4], final[:4], rtol=1e-12, atol=0.0)
    assert got[4] == pytest.approx(final[4], rel=0.0, abs=1e-15)


def test_live_prefix_steps_match_whole_grid_steps():
    # the loop with the live mark preset to the whole grid gives every state
    # bit for bit, also after a clamp cuts the support while the live mark
    # stays, so that the swapped stage state holds the longer old state
    n = 1024
    grid = ck.SizeGrid.discrete(n)
    kernel = ck.KernelSpec.multiplicative()
    cfg = ck.SolverConfig(kernel=kernel, t_end=0.5, boundary="absorbing")
    weights = np.append(1.0 + grid.pivots, 1.0)

    def run(live):
        rhs = _Rhs(_SeparableOperator(grid, kernel, "absorbing"))
        rhs.live = live
        y = np.zeros(n + 1)
        y[0] = 1.0
        calls, cuts = [], []

        def clamp(density):   # every fifth step, zero the support's upper half
            calls.append(density.size)
            if len(calls) % 5:
                return False
            cuts.append(density.size)
            density[np.flatnonzero(density)[-1] // 2 + 1:] = 0.0
            return True

        log = _StepLog()
        states = [v.copy() for v in _steps(rhs, y, cfg, weights, clamp, log)]
        return states, (log.accepted, log.rejected, rhs.evals), cuts

    prefix, whole = run(None), run(n)
    assert len(prefix[2]) == 4 and max(prefix[2]) < n // 4 and set(whole[2]) == {n}
    assert prefix[1] == whole[1]
    for a, b in zip(prefix[0], whole[0], strict=True):
        assert a.tobytes() == b.tobytes()


def test_wide_sectional_span_takes_ssp_steps():
    # additive kernel on [1e-3, 1e5] at ratio 2^(1/4): lambda_max is the
    # largest bin's loss rate x_max M0 + M1 ~ 1e5, although that bin holds
    # almost nothing, so Dormand-Prince's bound alone set every step
    # (1138/0/6830 to t = 0.05)
    grid = ck.SizeGrid.geometric(1e-3, 1e5, ratio=2 ** 0.25)
    assert grid.size == 107
    init = ck.init_distribution(grid, "exponential")
    kernel = ck.KernelSpec.additive()
    traj = ck.integrate(init, ck.SolverConfig(kernel=kernel, t_end=0.05, rel_tol=1e-9,
                                              boundary="conservative"))
    log = traj.step_log
    assert log["flag"] is None and log["stiff_steps"] > 0
    assert log["rhs_evals"] <= 6830 // 2
    m_init = {mu: init.moment(mu) for mu in (0.0, 1.0, 2.0)}
    for i, t in enumerate(traj.times):
        want = ck.moment_oracle(kernel, m_init, t)
        for mu in (0.0, 1.0):
            assert traj.moments[mu][i] == pytest.approx(want[mu], rel=1e-9)


def _ssp_rationals():
    """SSPRK(10,4) from its definition, in exact rationals: stages 2-5 add
    1/6 of each earlier stage, stages 6-10 1/15 of the first five and 1/6
    of the later ones, b = 1/10 throughout, and the embedded weights b_hat
    (61, 87, 108, 124, 0, 54, 70, 81, 87, 88) / 760."""
    A = [[Fraction(1, 6)] * i + [Fraction(0)] * (10 - i) for i in range(5)]
    A += [[Fraction(1, 15)] * 5 + [Fraction(1, 6)] * i + [Fraction(0)] * (5 - i)
          for i in range(5)]
    b_hat = [Fraction(v, 760) for v in (61, 87, 108, 124, 0, 54, 70, 81, 87, 88)]
    return A, [Fraction(1, 10)] * 10, b_hat


def _order_residuals(A, b):
    """The eight order conditions of order <= 4 on the weights ``b``, as
    residuals: (1), (1/2), (1/3, 1/6) and (1/4, 1/8, 1/12, 1/24)."""
    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def times_a(v):
        return [dot(row, v) for row in A]

    c = [sum(row) for row in A]
    ac = times_a(c)
    c2 = [x * x for x in c]
    return [dot(b, [1] * len(b)) - 1, dot(b, c) - Fraction(1, 2),
            dot(b, c2) - Fraction(1, 3), dot(b, ac) - Fraction(1, 6),
            dot(b, [x ** 3 for x in c]) - Fraction(1, 4),
            dot(b, [x * y for x, y in zip(c, ac)]) - Fraction(1, 8),
            dot(b, times_a(c2)) - Fraction(1, 12), dot(b, times_a(ac)) - Fraction(1, 24)]


def test_ssp_tableau_meets_its_order_conditions():
    A, b, b_hat = _ssp_rationals()
    assert _order_residuals(A, b) == [0] * 8
    hat = _order_residuals(A, b_hat)
    assert hat[:4] == [0] * 4 and any(hat[4:])
    # b_hat is the least-norm solution of the four conditions with b_hat_5 = 0
    c = np.array([float(sum(row)) for row in A])
    rows = np.array([np.ones(10), c, c * c, np.array(A, dtype=float) @ c])
    keep = np.arange(10) != 4
    least, *_ = np.linalg.lstsq(rows[:, keep], [1, 1 / 2, 1 / 3, 1 / 6], rcond=None)
    np.testing.assert_allclose(least, np.array(b_hat, dtype=float)[keep], rtol=1e-12)
    # the solver's floats are these rationals, correctly rounded
    nodes, a, e = _TABLEAUX["ssprk104"]
    assert nodes.tolist() == [float(sum(row)) for row in A] + [1.0]
    assert a[:10, :10].tolist() == [[float(v) for v in row] for row in A]
    assert a[10].tolist() == [float(v) for v in b] + [0.0]
    assert not a[:, 10].any()
    assert e.tolist() == [float(x - y) for x, y in zip(b, b_hat)] + [0.0]


def _real_stability_bound(tableau):
    """The largest x with |R(-y)| <= 1 on [0, x], to 1e-4, where
    R(z) = 1 + z b^T (I - z A)^-1 1 = 1 + sum_k b^T A^(k-1) 1 z^k is the
    stability polynomial of the explicit tableau whose last row is b."""
    nodes, a, _ = tableau
    s = nodes.size - 1
    coef, v = [1.0], np.ones(s)
    for _ in range(s):
        coef.append(a[s, :s] @ v)
        v = a[:s, :s] @ v
    x = np.arange(0.0, 20.0, 1e-4)
    outside = np.abs(np.polynomial.polynomial.polyval(-x, coef)) > 1.0 + 1e-12
    return x[np.argmax(outside) - 1]


def test_real_stability_bounds_of_the_tableaux():
    assert 3.3 <= _STABILITY <= _real_stability_bound(_TABLEAUX["rk45"]) < 3.31
    assert 13.9 <= _SSP_STABILITY <= _real_stability_bound(_TABLEAUX["ssprk104"]) < 13.92
    assert round(_real_stability_bound(_TABLEAUX["rk4"]), 2) == 2.79


def test_ssp_tableau_is_fourth_order():
    # y' = -2 t y^2, y(0) = 1, y = 1 / (1 + t^2), in fixed steps of the
    # tableau alone: halving h divides the global error by about 2^4
    nodes, a, _ = _TABLEAUX["ssprk104"]
    s = nodes.size - 1

    def solve(n):
        h, y = 2.0 / n, 1.0
        for j in range(n):
            k = []
            for i in range(s):
                yi = y + h * sum(a[i, q] * k[q] for q in range(i))
                k.append(-2.0 * (j + nodes[i]) * h * yi * yi)
            y += h * sum(a[s, q] * k[q] for q in range(s))
        return abs(y - 0.2)

    errors = [solve(n) for n in (8, 16, 32, 64)]
    ratios = [p / q for p, q in zip(errors, errors[1:])]
    assert all(13.0 < r < 19.0 for r in ratios), ratios


@pytest.mark.parametrize("stream, kernel, solver_args, counts, max_drift", [
    (1, ck.KernelSpec.brownian(), {"boundary": "conservative", "t_end": 4.0}, (44, 0, 266),
     None),
    (2, ck.KernelSpec.multiplicative().truncate(64.0), {"boundary": "absorbing", "t_end": 2.0},
     (67, 0, 404), 1e-12),
], ids=["brownian", "truncated"])
def test_stability_cap_leaves_non_stiff_runs_alone(stream, kernel, solver_args, counts,
                                                   max_drift):
    # the benchmark's brownian and truncated runs (N = 512) keep their steps,
    # and their separable operators never block a convolution.  The truncated
    # run's grid + gel mass drifted by 3.5e-12 while the right-hand side
    # clipped the negative gain of Dormand-Prince stage states
    traj = ck.integrate(_seeded(11, stream, 512), ck.SolverConfig(kernel=kernel, **solver_args))
    log = traj.step_log
    assert (log["accepted"], log["rejected"], log["rhs_evals"]) == counts
    assert 0.0 < log["max_h_lambda"] < _STABILITY and log["stiff_steps"] == 0
    op = traj.operator
    assert getattr(op, "large", op)._block_outputs is None
    if max_drift is not None:
        m = traj.moments
        assert np.max(np.abs(m[1.0] + m.gel_mass - m[1.0][0])) <= max_drift


def test_rk4_records_but_keeps_its_step():
    # dt lambda_max = 0.4 * 2 M0(0) = 0.8 at the start; RK4 keeps dt
    grid = ck.SizeGrid.discrete(32)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=2.0, snapshot_times=(2.0,),
                          scheme="rk4", dt=0.4, boundary="conservative")
    log = ck.integrate(init, cfg).step_log
    assert log["accepted"] == 5 and log["min_dt"] == pytest.approx(0.4)
    assert log["max_h_lambda"] == pytest.approx(0.8, rel=1e-12)


def test_integrate_sectional_grid():
    grid = ck.SizeGrid.geometric(1e-2, 1e3, bins=160)
    init = ck.init_distribution(grid, "exponential", mean=1.0)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=1.0,
                          rel_tol=1e-8, boundary="conservative")
    traj = ck.integrate(init, cfg)
    m0_0 = traj.moments[0.0][0]
    want = m0_0 / (1.0 + m0_0)  # M0' = -M0^2 for rate 2
    assert traj.moments[0.0][-1] == pytest.approx(want, rel=1e-4)
    assert abs(traj.moments[1.0][-1] - traj.moments[1.0][0]) <= 1e-10


def test_rk4_fixed_scheme():
    grid = ck.SizeGrid.discrete(64)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=1.0,
                          scheme="rk4", dt=1e-3, boundary="conservative")
    traj = ck.integrate(init, cfg)
    assert traj.moments[0.0][-1] == pytest.approx(0.5, rel=1e-9)


def test_rk4_counts_fixed_steps_per_interval():
    # t = t_start + n dt within each snapshot interval: accumulating t += dt
    # ended intervals with residual steps of 1e-14 to 7e-13 (10008 steps)
    grid = ck.SizeGrid.discrete(8)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=1.0,
                          scheme="rk4", dt=1e-4)
    log = ck.integrate(init, cfg).step_log
    assert log["accepted"] == 10000 and log["rejected"] == 0
    assert log["rhs_evals"] == 4 * 10000 + 1
    assert type(log["min_dt"]) is float
    assert log["min_dt"] == pytest.approx(1e-4, rel=1e-9)


def _traced_peak(call, repeats):
    """tracemalloc peak, in bytes, over ``repeats`` calls of ``call``."""
    tracemalloc.start()
    try:
        for _ in range(repeats):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("support", [2 ** 13, 2 ** 14])   # full support: the gel-rate sums
def test_separable_rhs_allocates_no_full_length_array(support):
    n = 2 ** 14
    rhs = _Rhs(_rate_operator(ck.SizeGrid.discrete(n), ck.KernelSpec.multiplicative(),
                              "absorbing"))
    y = np.zeros(n + 1)
    y[:support] = np.random.default_rng(3).uniform(0.5, 1.5, support) \
        * np.exp(-np.arange(support) / 2048.0)
    k_row = np.empty(n + 1)
    rhs(0.0, y, out=k_row)
    assert k_row[n] > 0.0 if 2 * support > n else k_row[n] == 0.0
    assert _traced_peak(lambda: rhs(0.0, y, out=k_row), 5) < n * 8


def test_rk45_step_allocates_no_full_length_array():
    # the second snapshot time is closer than the proposed step: one step
    n = 2 ** 14
    rhs = _Rhs(_rate_operator(ck.SizeGrid.discrete(n), ck.KernelSpec.multiplicative(),
                              "absorbing"))
    y = np.zeros(n + 1)
    y[:n // 2] = np.exp(-np.arange(n // 2) / 1024.0) / 1024.0
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=1e-6 + 1e-10,
                          snapshot_times=(1e-6, 1e-6 + 1e-10))
    weights = 1.0 + np.arange(1.0, n + 2.0)
    log = _StepLog()
    steps = _steps(rhs, y, cfg, weights, lambda v: False, log)
    next(steps)
    accepted = log.accepted
    assert _traced_peak(lambda: next(steps), 1) < n * 8
    assert log.accepted == accepted + 1 and log.flag is None


def test_non_finite_initial_density_rejected():
    grid = ck.SizeGrid.discrete(16)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=1.0)
    for bad in (np.nan, np.inf):
        density = np.ones(16)
        density[3] = bad
        with pytest.raises(DomainError):
            ck.integrate(ck.SizeDistribution(grid, density), cfg)


def _stub_run(rhs, y, weights, scheme="rk45"):
    # the step loop on a stub right-hand side, with the identity clamp; True
    # when it reaches t_end = 1 (rk45 ignores dt)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=1.0, scheme=scheme,
                          dt=0.1, rel_tol=1e-10, abs_tol=1e-14)
    log = _StepLog()
    states = list(_steps(rhs, y, cfg, weights, lambda v: False, log))
    return log, len(states) == len(cfg.snapshot_times)


@pytest.mark.parametrize("scheme", ["rk45", "rk4"])
def test_non_finite_stage_flag(scheme):
    # a NaN right-hand side must stop the step loop, not grow the step
    class NotFinite:
        evals = 0
        max_loss_factor = 0.0
        live = 3   # every cell of y = ones(4) but the gel entry

        def __call__(self, t, y, out):
            NotFinite.evals += 1
            out[:] = np.nan
            return out

    log, ok = _stub_run(NotFinite(), np.ones(4), np.ones(4), scheme)
    assert not ok
    assert log.flag == "non_finite"
    assert log.accepted == 0 and NotFinite.evals <= 8


def test_dt_underflow_flag():
    # a right-hand side rough enough that the error estimate never passes
    rng = np.random.default_rng(0)

    class Rough:
        evals = 0
        max_loss_factor = 0.0
        live = 3

        def __call__(self, t, y, out):
            Rough.evals += 1
            out[:] = rng.standard_normal(y.size) * 1e6
            return out

    y = np.ones(4)
    weights = np.ones(4)
    log, ok = _stub_run(Rough(), y, weights)
    assert not ok
    assert log.flag == "dt_underflow"


def test_flagged_trajectory_partial_snapshots():
    # force the underflow through a tiny t_end scale mismatch is awkward;
    # instead check the config validation surface
    with pytest.raises(DomainError):
        ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=-1.0)
    # json parses 1e999 to inf, with no non-finite constant in the text
    for bad in (float("nan"), float("inf")):
        for fields in ({"t_end": bad}, {"t_end": 1.0, "rel_tol": bad},
                       {"t_end": 1.0, "abs_tol": bad}, {"t_end": 1.0, "scheme": "rk4", "dt": bad}):
            with pytest.raises(DomainError, match="finite"):
                ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), **fields)
    with pytest.raises(DomainError):
        ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=1.0,
                        scheme="rk4")
    with pytest.raises(DomainError):
        ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=1.0,
                        snapshot_times=(0.5, 0.4))


def test_snapshot_times_respected():
    grid = ck.SizeGrid.discrete(32)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    req = (0.1, 0.3, 0.7)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=0.7,
                          snapshot_times=req, boundary="conservative")
    traj = ck.integrate(init, cfg)
    assert tuple(traj.times) == (0.0,) + req
    # moments recomputable from snapshots
    for k, snap in enumerate(traj.snapshots):
        assert traj.moments[1.0][k] == pytest.approx(snap.moment(1.0), rel=1e-14)


def test_binding_truncation_records_rate_path():
    # a binding cap on a monotone separable kernel runs capped; on Brownian
    # (a decreasing weight), a product kernel with a non-monotone r (which
    # peaks inside the grid, 10 x 10 at x = 8, while its corners are 1 x 1)
    # or a tabulated kernel it stays dense
    grid = ck.SizeGrid.discrete(64)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    p = grid.pivots
    tabulated = ck.KernelSpec.tabulated(p, np.add.outer(p, p))
    peaked = ck.KernelSpec.product(ck.RadialRate.tabulated([1, 8, 64], [1, 10, 1]))
    for kernel, path in (
            (ck.KernelSpec.multiplicative().truncate(5.0), "capped"),
            (ck.KernelSpec.multiplicative(), "separable"),
            (ck.KernelSpec.brownian().truncate(5.0), "dense"),
            (peaked.truncate(5.0), "dense"),
            (tabulated.truncate(5.0), "dense")):
        cfg = ck.SolverConfig(kernel=kernel, t_end=0.1)
        assert ck.integrate(init, cfg).step_log["rate_path"] == path
