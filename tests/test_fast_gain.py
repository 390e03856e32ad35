import numpy as np
import pytest

import coagkit as ck
from coagkit.errors import GridError, UnsupportedFamilyError


def direct_gain(f, kernel):
    """Direct O(N^2) pairwise sum, the oracle for the fast transform path."""
    n = f.size
    g = np.zeros(n)
    for s in range(2, n + 1):
        j = np.arange(1, s, dtype=float)
        g[s - 1] = 0.5 * float(np.dot(np.asarray(kernel.eval(j, s - j)),
                                      f[: s - 1][::-1] * f[: s - 1]))
    return g


FAMILIES = [ck.KernelSpec.constant(2.0), ck.KernelSpec.additive(),
            ck.KernelSpec.multiplicative()]


@pytest.mark.parametrize("n", [32, 256])
def test_fast_gain_matches_direct(n):
    rng = np.random.default_rng(100 + n)
    grid = ck.SizeGrid.discrete(n)
    for _ in range(5):
        f = rng.random(n)
        dist = ck.SizeDistribution(grid, f)
        for kernel in FAMILIES:
            fast = ck.fast_gain(dist, kernel)
            ref = direct_gain(f, kernel)
            denom = np.where(ref == 0.0, 1.0, np.abs(ref))
            assert np.max(np.abs(fast - ref) / denom) <= 1e-12


def test_fast_gain_of_a_zero_tail():
    # the convolution runs over the support only, with a shorter FFT
    n = 4096
    rng = np.random.default_rng(61)
    grid = ck.SizeGrid.discrete(n)
    for support in (700, 2100):
        f = rng.random(n)
        f[support:] = 0.0
        dist = ck.SizeDistribution(grid, f)
        for kernel in FAMILIES:
            fast = ck.fast_gain(dist, kernel)
            ref = direct_gain(f, kernel)
            assert np.all(fast[2 * support:] == 0.0)
            denom = np.where(ref == 0.0, 1.0, np.abs(ref))
            assert np.max(np.abs(fast - ref) / denom) <= 1e-12


def test_fast_gain_point_mass_examples():
    grid = ck.SizeGrid.discrete(64)
    dist = ck.init_distribution(grid, "monodisperse", size=1)
    gm = ck.fast_gain(dist, ck.KernelSpec.multiplicative())
    assert gm[1] == 0.5 and np.all(np.delete(gm, 1) == 0.0)
    ga = ck.fast_gain(dist, ck.KernelSpec.additive())
    assert ga[1] == 1.0
    gc = ck.fast_gain(dist, ck.KernelSpec.constant(2.0))
    assert gc[1] == 1.0


def test_fast_gain_extended_families():
    rng = np.random.default_rng(7)
    n = 128
    grid = ck.SizeGrid.discrete(n)
    f = rng.random(n)
    dist = ck.SizeDistribution(grid, f)
    for kernel in (ck.KernelSpec.power_sum(0.25, 0.5),
                   ck.KernelSpec.product(ck.RadialRate.power_law(0.75)),
                   ck.KernelSpec.brownian()):
        fast = ck.fast_gain(dist, kernel)
        ref = direct_gain(f, kernel)
        denom = np.where(ref == 0.0, 1.0, np.abs(ref))
        assert np.max(np.abs(fast - ref) / denom) <= 1e-12


def test_fast_gain_product_cap_uses_capped_rate():
    n = 32
    rng = np.random.default_rng(3)
    f = rng.random(n)
    grid = ck.SizeGrid.discrete(n)
    dist = ck.SizeDistribution(grid, f)
    kernel = ck.KernelSpec.product(ck.RadialRate.identity()).truncate(4.0, "product_cap")
    fast = ck.fast_gain(dist, kernel)
    ref = direct_gain(f, kernel)
    denom = np.where(ref == 0.0, 1.0, np.abs(ref))
    assert np.max(np.abs(fast - ref) / denom) <= 1e-12


def test_fast_gain_refusals():
    grid = ck.SizeGrid.discrete(16)
    dist = ck.init_distribution(grid, "monodisperse", size=1)
    # a binding pointwise cap destroys separability
    with pytest.raises(UnsupportedFamilyError):
        ck.fast_gain(dist, ck.KernelSpec.multiplicative().truncate(3.0))
    # tabulated kernels have no separable form
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    tab = ck.KernelSpec.tabulated(xs, np.add.outer(xs, xs))
    with pytest.raises(UnsupportedFamilyError):
        ck.fast_gain(dist, tab)
    # sectional grids are not integer-convolvable
    sect = ck.init_distribution(ck.SizeGrid.geometric(0.5, 8, bins=8),
                                "tabulated", density=np.ones(8))
    with pytest.raises(GridError):
        ck.fast_gain(sect, ck.KernelSpec.additive())


def test_fast_gain_nonbinding_cap_allowed():
    grid = ck.SizeGrid.discrete(16)
    dist = ck.init_distribution(grid, "monodisperse", size=1)
    capped = ck.KernelSpec.multiplicative().truncate(16.0**2)
    g = ck.fast_gain(dist, capped)
    assert g[1] == 0.5
