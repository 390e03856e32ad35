import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coagkit as ck
from coagkit.errors import DomainError, GridError


def test_moment_exponential_fine_grid():
    grid = ck.SizeGrid.geometric(1e-4, 1e3, bins=2048)
    dist = ck.init_distribution(grid, "exponential", mean=1.0)
    assert dist.moment(1.0) == pytest.approx(1.0, abs=1e-7)
    assert dist.moment(2.0) == pytest.approx(2.0, rel=1e-4)


def test_grid_cell_budget_is_checked_before_allocating():
    assert ck.SizeGrid.discrete(ck.grids.MAX_CELLS).size == ck.grids.MAX_CELLS
    for build in (lambda: ck.SizeGrid.discrete(10**13),
                  lambda: ck.SizeGrid.discrete(ck.grids.MAX_CELLS + 1),
                  lambda: ck.SizeGrid.geometric(1.0, 1e4, bins=ck.grids.MAX_CELLS + 1),
                  lambda: ck.SizeGrid.geometric(1.0, 1e4, ratio=1 + 1e-10),
                  lambda: ck.SizeGrid.geometric(1e-100, 1e100, ratio=1.0001)):
        with pytest.raises(GridError, match="exceeds the budget"):
            build()


@pytest.mark.filterwarnings("error")
def test_geometric_span_whose_quotient_overflows():
    # 1e10 / 1e-300 overflows float64, yet the grid has 4120 bins at the
    # default ratio and every edge squared fits
    grid = ck.SizeGrid.geometric(1e-300, 1e10)
    assert grid.size == 4120
    edges = np.asarray(grid.edges)
    assert edges[0] == 1e-300 and 1e10 <= edges[-1] < 1e10 * 1.2
    np.testing.assert_allclose(edges[1:] / edges[:-1],
                               ck.grids.DEFAULT_GEOMETRIC_RATIO, rtol=1e-13)
    # [1e-300, 1e300] at ratio 2 has 1993 bins, whose last edge squared overflows
    with pytest.raises(GridError, match="largest edge squared"):
        ck.SizeGrid.geometric(1e-300, 1e300, ratio=2.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", [
    ck.SizeGrid.geometric(1e-300, 1e10), ck.SizeGrid.geometric(1e-300, 1e10, bins=50),
    ck.SizeGrid.sectional([5e-324, 1e-323, 1e-320, 1e-310, 1e-160, 1e-150, 1.0, 1e150])],
    ids=["ratio", "bins", "subnormal"])
def test_sectional_pivots_lie_inside_their_cells(grid):
    # an edge product below the smallest normal float once underflowed to a
    # pivot of 0; every other pivot keeps the bits of sqrt(a * b)
    lo, hi = np.asarray(grid.edges[:-1]), np.asarray(grid.edges[1:])
    p = grid.pivots
    assert np.all(p > 0) and np.all(lo <= p) and np.all(p <= hi)
    normal = lo * hi >= np.finfo(float).tiny
    assert 0 < np.count_nonzero(normal) < p.size
    assert p[normal].tobytes() == np.sqrt(lo[normal] * hi[normal]).tobytes()


def test_grid_whose_last_edge_squared_overflows_is_refused():
    # before any array is built, so numpy warns of no overflow; the top pivot
    # of edges [1e-300, 1, 1e300] is 1e150, whose square fits, but its
    # product with its width of 1e300 does not
    for build in (lambda: ck.SizeGrid.geometric(1e-300, 1e300, bins=50),
                  lambda: ck.SizeGrid.geometric(1.0, 1e307, ratio=1e10),
                  lambda: ck.SizeGrid.sectional([1e-300, 1.0, 1e300])):
        with pytest.raises(GridError, match="largest edge squared"):
            build()
    assert ck.SizeGrid.geometric(1.0, 1e154, bins=2).size == 2


def test_moment_monodisperse():
    grid = ck.SizeGrid.discrete(100)
    dist = ck.init_distribution(grid, "monodisperse", size=1)
    assert dist.moment(0.0) == 1.0
    assert dist.moment(1.0) == 1.0
    d2 = ck.init_distribution(ck.SizeGrid.discrete(10), "monodisperse", size=2)
    assert d2.density[1] == 1.0 and d2.moment(1.0) == 2.0


def test_moment_range_guard():
    grid = ck.SizeGrid.discrete(4)
    dist = ck.init_distribution(grid, "monodisperse", size=1)
    with pytest.raises(DomainError):
        dist.moment(3.5)


def test_init_exponential_sectional_m1():
    # >= 512 geometric bins over [1e-3, 1e3]: M1 within 1e-6 of the mean
    grid = ck.SizeGrid.geometric(1e-3, 1e3, bins=512)
    dist = ck.init_distribution(grid, "exponential", mean=1.0)
    assert abs(dist.moment(1.0) - 1.0) <= 1e-6


def test_init_monodisperse_off_grid_errors():
    grid = ck.SizeGrid.geometric(1.0, 100.0, bins=16)
    with pytest.raises(GridError):
        ck.init_distribution(grid, "monodisperse", size=3.14159)


def test_init_tabulated_and_negative_guard():
    grid = ck.SizeGrid.discrete(4)
    d = ck.init_distribution(grid, "tabulated", density=[1.0, 0.5, 0.0, 0.0])
    assert d.moment(0.0) == 1.5
    with pytest.raises(DomainError):
        ck.init_distribution(grid, "tabulated", density=[1.0, -0.5, 0.0, 0.0])
    with pytest.raises(DomainError, match="non-finite M0, M1, M2"):
        ck.init_distribution(ck.SizeGrid.discrete(128), "tabulated", density=np.full(128, 1e308))


def test_sectional_refuses_decreasing_edges():
    with pytest.raises(GridError):
        ck.SizeGrid.sectional(edges=[2.0, 1.0])


def test_moment_linearity_and_monotonicity():
    grid = ck.SizeGrid.geometric(0.1, 10, bins=24)
    rng = np.random.default_rng(8)
    a, b = rng.random(24), rng.random(24)
    da, db = ck.SizeDistribution(grid, a), ck.SizeDistribution(grid, b)
    dsum = ck.SizeDistribution(grid, a + 2 * b)
    for mu in (0.0, 0.5, 1.0, 2.0):
        assert dsum.moment(mu) == pytest.approx(da.moment(mu) + 2 * db.moment(mu))
    bigger = ck.SizeDistribution(grid, a + 0.1)
    assert bigger.moment(1.0) > da.moment(1.0)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_moment_holder_interpolation(seed):
    # M_mu2 <= M_mu1^theta * M_mu3^(1-theta) for mu1 < mu2 < mu3
    rng = np.random.default_rng(seed)
    grid = ck.SizeGrid.geometric(0.01, 100, bins=40)
    d = ck.SizeDistribution(grid, rng.random(40))
    mus = np.sort(rng.uniform(-0.5, 2.5, 3))
    m1, m2, m3 = (d.moment(mu) for mu in mus)
    theta = (mus[2] - mus[1]) / (mus[2] - mus[0])
    assert m2 <= m1**theta * m3 ** (1 - theta) * (1 + 1e-9)


def test_moment_series_validation():
    with pytest.raises(DomainError):
        ck.MomentSeries(np.array([0.0, 0.0, 1.0]), {0.0: np.zeros(3)})
    with pytest.raises(DomainError):
        ck.MomentSeries(np.array([0.0, 1.0]), {0.0: np.zeros(2)},
                        np.array([1.0, 0.0]))
