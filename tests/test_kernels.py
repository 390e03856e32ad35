import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coagkit as ck
from coagkit.errors import DomainError, UnsupportedFamilyError

CLOSED_FORM_FAMILIES = [
    ck.KernelSpec.constant(2.0),
    ck.KernelSpec.additive(),
    ck.KernelSpec.multiplicative(),
    ck.KernelSpec.power_sum(0.25, 0.75),
    ck.KernelSpec.brownian(),
    ck.KernelSpec.product(ck.RadialRate.power_law(0.75)),
]


def preset_cube_sum(x_min=1e-3, x_max=1e3, n=96):
    """(x^(1/3) + y^(1/3))^3 as a tabulated kernel."""
    xs = np.geomspace(x_min, x_max, n)
    cx, cy = np.cbrt(np.meshgrid(xs, xs, indexing="ij"))
    return ck.KernelSpec.tabulated(xs, (cx + cy) ** 3)


def preset_cube_diff(x_min=1e-3, x_max=1e3, n=96):
    """(x^(1/3) + y^(1/3))^2 |x^(1/3) - y^(1/3)| as a tabulated kernel."""
    xs = np.geomspace(x_min, x_max, n)
    cx, cy = np.cbrt(np.meshgrid(xs, xs, indexing="ij"))
    return ck.KernelSpec.tabulated(xs, (cx + cy) ** 2 * np.abs(cx - cy))


def test_eval_examples():
    assert ck.KernelSpec.brownian().eval(1.0, 8.0) == pytest.approx(4.5, abs=0)
    assert ck.KernelSpec.constant(2.0).eval(3.7, 0.01) == 2.0
    assert ck.KernelSpec.power_sum(0.0, 1.0).eval(2.0, 3.0) == 5.0


def test_eval_rejects_nonpositive_sizes():
    with pytest.raises(DomainError):
        ck.KernelSpec.additive().eval(0.0, 1.0)
    with pytest.raises(DomainError):
        ck.KernelSpec.brownian().eval(2.0, -1.0)


def test_truncate_examples():
    km = ck.KernelSpec.multiplicative().truncate(10.0)
    assert km.eval(3.0, 4.0) == 10.0
    huge = ck.KernelSpec.multiplicative().truncate(1e30)
    for x, y in [(1, 1), (3, 4), (100, 250)]:
        assert huge.eval(x, y) == ck.KernelSpec.multiplicative().eval(x, y)
    kp = ck.KernelSpec.product(ck.RadialRate.identity()).truncate(2.0, "product_cap")
    assert kp.eval(3.0, 5.0) == 4.0  # min(3,2)*min(5,2), not min(15,2)


def test_product_cap_requires_product_family():
    with pytest.raises(UnsupportedFamilyError):
        ck.KernelSpec.additive().truncate(5.0, "product_cap")


def test_pointwise_and_product_caps_do_not_stack():
    # min(r, 4)(x) min(r, 4)(y) holds no min(K, 4): a product cap on a
    # pointwise cap once became it, with K(3, 3) = 9 where 4 was asked for
    kernel = ck.KernelSpec.product(ck.RadialRate.identity())
    with pytest.raises(UnsupportedFamilyError, match="stack"):
        kernel.truncate(4.0).truncate(8.0, "product_cap")
    with pytest.raises(UnsupportedFamilyError, match="stack"):
        kernel.truncate(4.0, "product_cap").truncate(8.0)
    # caps of one mode keep the smaller
    assert kernel.truncate(4.0).truncate(8.0).cap == 4.0
    assert kernel.truncate(8.0, "product_cap").truncate(4.0, "product_cap").cap == 4.0


def test_symmetry_exact_on_random_pairs():
    rng = np.random.default_rng(123)
    x = rng.uniform(1e-3, 1e3, 10_000)
    y = rng.uniform(1e-3, 1e3, 10_000)
    for kernel in CLOSED_FORM_FAMILIES:
        np.testing.assert_array_equal(kernel.eval(x, y), kernel.eval(y, x))


@given(n1=st.floats(0.1, 1e6), n2=st.floats(0.1, 1e6),
       x=st.floats(0.01, 1e4), y=st.floats(0.01, 1e4))
@settings(max_examples=200, deadline=None)
def test_truncation_monotone_and_capped(n1, n2, x, y):
    kernel = ck.KernelSpec.multiplicative()
    lo, hi = sorted([n1, n2])
    v_lo = kernel.truncate(lo).eval(x, y)
    v_hi = kernel.truncate(hi).eval(x, y)
    assert v_lo <= v_hi <= kernel.eval(x, y)
    assert v_lo <= lo


def test_classify_constant():
    labels = {g.label: g for g in ck.classify(ck.KernelSpec.constant(2.0), (1, 100))}
    assert labels["bounded"].constants["kappa0"] == 2.0
    assert "sublinear_factored" in labels
    assert labels["linear"].constants["kappa1"] == 1.0


def test_classify_additive_linear_only():
    labels = {g.label: g for g in ck.classify(ck.KernelSpec.additive(), (1, 100))}
    assert labels["linear"].constants["kappa1"] == 1.0
    assert "sublinear_factored" not in labels  # omega_R does not vanish
    assert "gelling" not in labels


def test_classify_multiplicative():
    labels = {g.label: g for g in ck.classify(ck.KernelSpec.multiplicative(), (1, 100))}
    assert labels["product_form"].constants["r_form"] == "identity"
    assert labels["gelling"].constants == {"lam": 2.0, "kappa_m": 1.0}


def test_classify_capped_kernels_do_not_gel():
    # min(xy, 64) <= 64 is bounded, so it neither gels nor is r(x) r(y);
    # min(x, 8) min(y, 8) <= 64 keeps its product form but does not gel
    labels = {g.label: g for g in
              ck.classify(ck.KernelSpec.multiplicative().truncate(64.0), (1, 512))}
    assert set(labels) == {"bounded"}
    assert labels["bounded"].constants == {"kappa0": 64.0}
    product = ck.KernelSpec.product(ck.RadialRate.identity())
    labels = {g.label for g in ck.classify(product.truncate(8.0, "product_cap"), (1, 512))}
    assert labels == {"product_form"}
    assert {g.label for g in ck.classify(product, (1, 512))} == {"product_form", "gelling"}


def test_classify_power_sum_gelling():
    labels = {g.label: g for g in ck.classify(ck.KernelSpec.power_sum(0.75, 0.75), (1, 100))}
    assert labels["gelling"].constants["lam"] == 1.5
    # AM-GM lower bound with the certified constant
    rng = np.random.default_rng(5)
    x = rng.uniform(1, 100, 500)
    y = rng.uniform(1, 100, 500)
    k = ck.KernelSpec.power_sum(0.75, 0.75)
    km, lam = labels["gelling"].constants["kappa_m"], labels["gelling"].constants["lam"]
    assert np.all(k.eval(x, y) >= km * (x * y) ** (lam / 2) * (1 - 1e-12))


def test_classification_soundness_linear_bound():
    rng = np.random.default_rng(11)
    for kernel in (ck.KernelSpec.constant(2.0), ck.KernelSpec.additive(),
                   ck.KernelSpec.power_sum(0.3, 0.6)):
        labels = ck.classify(kernel, (1e-2, 1e3))
        kappa1 = next(g.constants["kappa1"] for g in labels if g.label == "linear")
        x = rng.uniform(1e-2, 1e3, 2000)
        y = rng.uniform(1e-2, 1e3, 2000)
        assert np.all(kernel.eval(x, y) <= kappa1 * (2 + x + y) * (1 + 1e-12))


def test_omega_r_examples():
    assert ck.omega_r(ck.KernelSpec.constant(2.0), 1.0, 10.0) == pytest.approx(0.2)
    assert ck.omega_r(ck.KernelSpec.additive(), 1.0, 10.0) == pytest.approx(1.1)


def test_omega_r_brownian_decay_sweep():
    # numeric sweep: omega_R(y) ~ y^(-2/3) on the declared domain
    k = ck.KernelSpec.brownian()
    vals = [ck.omega_r(k, 1.0, y, x_min=1e-3) for y in (1e2, 1e4, 1e6)]
    assert vals[0] > vals[1] > vals[2]
    for (y1, v1), (y2, v2) in [((1e2, vals[0]), (1e4, vals[1])),
                               ((1e4, vals[1]), (1e6, vals[2]))]:
        slope = np.log(v2 / v1) / np.log(y2 / y1)
        assert slope == pytest.approx(-2.0 / 3.0, abs=0.02)


def test_omega_r_brownian_requires_xmin():
    with pytest.raises(DomainError):
        ck.omega_r(ck.KernelSpec.brownian(), 1.0, 10.0)


def test_tabulated_presets_symmetric_and_classifiable():
    for preset in (preset_cube_sum(), preset_cube_diff()):
        xs = np.geomspace(1e-2, 1e2, 40)
        xx, yy = np.meshgrid(xs, xs)
        np.testing.assert_allclose(preset.eval(xx, yy), preset.eval(yy, xx))
        labels = {g.label for g in ck.classify(preset, (1e-2, 1e2))}
        assert "bounded" in labels and "linear" in labels


def test_tabulated_asymmetric_rejected():
    xs = np.array([1.0, 2.0, 4.0])
    mat = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [3.0, 2.0, 1.0]])
    k = ck.KernelSpec.tabulated(xs, mat)
    with pytest.raises(DomainError):
        ck.classify(k, (1.0, 4.0))


def test_growth_class_consistency_bounded_implies_weaker():
    # constants for the weaker classes exist whenever a bound exists
    labels = ck.classify(ck.KernelSpec.constant(3.0), (0.1, 10))
    by = {g.label: g.constants for g in labels}
    k0 = by["bounded"]["kappa0"]
    assert by["linear"]["kappa1"] >= k0 / (2 + 0.1 + 0.1) - 1e-12
    x = np.geomspace(0.1, 10, 50)
    k = ck.KernelSpec.constant(3.0)
    assert np.all(np.asarray(k.eval(x[:, None], x[None, :]))
                  <= by["sublinear_factored"]["kappa"]
                  * (1 + x[:, None]) * (1 + x[None, :]) + 1e-12)
