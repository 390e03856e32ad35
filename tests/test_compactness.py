import json
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coagkit as ck
from coagkit import cli, compactness
from coagkit.compactness import DlvpConfig, VPFunction
from coagkit.errors import ConstructionError, DomainError

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def fraction_phi(phi, r):
    """Phi(r), Phi'(r) and Phi''(r) in Fraction arithmetic from the function's
    rational fields: the quadratic A_0 r^2 / 2 below N_1, else the expansion
    about the last breakpoint N_m <= r with slope A_m (the last slope past the
    end)."""
    n, A, P, V = phi.breakpoints, phi.slopes, phi.deriv_at, phi.value_at
    if r < n[1]:
        return A[0] * r * r / 2, A[0] * r, A[0]
    m = max(k for k in range(len(n)) if n[k] <= r)
    a, d = A[min(m, len(A) - 1)], r - n[m]
    return V[m] + P[m] * d + a * d * d / 2, P[m] + a * d, a


def fraction_vp_check(phi, samples):
    """Oracle: the sample checks of ``vp_check`` evaluated with Fraction
    objects, as ``VPCheckReport.to_json_obj`` lays them out."""
    records = {}

    def add(name, lhs, rhs):
        margin = rhs - lhs
        rec = records.setdefault(name, [0, 0, None])
        rec[0] += 1
        rec[1] += margin < 0
        rec[2] = float(margin) if rec[2] is None else min(rec[2], float(margin))

    def Phi(r):
        return fraction_phi(phi, r)[0]

    def dPhi(r):
        return fraction_phi(phi, r)[1]

    for r, s, lam in samples:
        r, s, lam = Fraction(r), Fraction(s), Fraction(lam)
        fr, fs, dfr = Phi(r), Phi(s), dPhi(r)
        if r > 0 and s > 0:
            mid = (r + s) / 2
            add("b122_ratio_concave", (fr / r + fs / s) / 2, Phi(mid) / mid)
        add("b123_lower", fr, r * dfr)
        add("b123_upper", r * dfr, 2 * fr)
        add("b123b_cross", s * dfr, fr + fs)
        add("b124_scaling", Phi(lam * r), max(1, lam * lam) * fr)
        add("b125_product", (r + s) * (Phi(r + s) - fr - fs), 2 * (r * fs + s * fr))
        add("b127_deriv_subadd", dPhi(r + s), dfr + dPhi(s))
    checks = [{"name": k, "samples": v[0], "violations": v[1], "min_margin": v[2]}
              for k, v in records.items()]
    return {"passed": all(c["violations"] == 0 for c in checks), "checks": checks}


def edge_samples(phi):
    """r = 0 first (so b122 is not the first check), s = 0, lambda below, at
    and above 1, breakpoints hit exactly, and r + s, lambda r past the end."""
    n_last = Fraction(phi.breakpoints[-1])
    out = [(Fraction(0), Fraction(3, 2), Fraction(2)),
           (Fraction(5, 3), Fraction(0), Fraction(1, 2)),
           (Fraction(7, 2), Fraction(9, 4), Fraction(1)),
           (Fraction(1, 3), Fraction(2, 7), Fraction(3))]
    for b in phi.breakpoints:
        out.append((Fraction(b), Fraction(b), Fraction(1)))
        out.append((Fraction(b), Fraction(1, 2), Fraction(1, 3)))
    out += [(n_last - Fraction(1, 7), n_last / 2, Fraction(5, 2)),
            (n_last, n_last, Fraction(4)),
            (3 * n_last, Fraction(11, 5), 2),
            (0, 0, 0)]
    return out


def rational_singular_member(m=64):
    """x**(-1/2) on (0,1) averaged over square-spaced cells, all rational."""
    values = [Fraction(2 * m, 2 * j + 1) for j in range(m)]
    measures = [Fraction(2 * j + 1, m * m) for j in range(m)]
    return values, measures


# ---------------------------------------------------------------------------
# modulus of uniform integrability
# ---------------------------------------------------------------------------

def test_eta_modulus_indicator():
    fam = ck.FunctionFamily([np.ones(10)], np.full(10, 0.1))
    assert ck.eta_modulus(fam, 0.3) == pytest.approx(0.3)


def test_eta_modulus_concentrating_full_mass():
    fam = ck.synthetic_family("concentrating")
    assert ck.eta_modulus(fam, 1.0 / 64.0) == pytest.approx(1.0)


def test_eta_modulus_singular_tail():
    # integral of x^(-1/2) over the top-eps region is 2 sqrt(eps)
    fam = ck.synthetic_family("singular", resolution=4096)
    got = ck.eta_modulus(fam, 1e-4)
    assert got == pytest.approx(2e-2, rel=2e-2)
    # oracle: direct fine-grid sum over the same cells, sorted by value
    f, w = fam.members[0], fam.measures
    order = np.argsort(-f)
    cw = np.cumsum(w[order])
    k = np.searchsorted(cw, 1e-4, side="right")
    oracle = float(np.dot(f[order][:k], w[order][:k])) \
        + f[order][k] * (1e-4 - cw[k - 1])
    assert got == pytest.approx(oracle, rel=1e-14)


def test_eta_modulus_monotone_and_bounded():
    fam = ck.synthetic_family("singular")
    eps = np.geomspace(1e-6, 1.0, 12)
    vals = [ck.eta_modulus(fam, e) for e in eps]
    assert np.all(np.diff(vals) >= 0)
    sup_l1 = max(float(np.dot(m, fam.measures)) for m in fam.members)
    assert vals[-1] <= sup_l1 * (1 + 1e-12)
    assert ck.eta_modulus(fam, float(np.sum(fam.measures))) == pytest.approx(sup_l1)


def test_eta_limit_examples():
    sing = ck.synthetic_family("singular", resolution=4096)
    est, tails = ck.eta_limit(sing, [100.0])
    assert tails[0] == pytest.approx(0.02, rel=2e-2)
    conc = ck.synthetic_family("concentrating")
    est, tails = ck.eta_limit(conc, [1.0, 2.0, 32.0])
    assert np.all(tails == 1.0)
    bounded = ck.synthetic_family("bounded")
    est, tails = ck.eta_limit(bounded, [2.0])
    assert tails[0] == 0.0
    # non-increasing in the threshold
    _, tails = ck.eta_limit(sing, [1.0, 4.0, 16.0, 64.0, 256.0])
    assert np.all(np.diff(tails) <= 0)


def test_eta_limit_equals_extrapolation_finite_families():
    thresholds = [2.0**k for k in range(0, 14)]
    eps = [2.0**-k for k in range(30, 10, -1)]
    for kind in ("bounded", "concentrating", "singular"):
        fam = ck.synthetic_family(kind)
        est, _ = ck.eta_limit(fam, thresholds)
        extrap = ck.eta_zero_extrapolation(fam, eps)
        assert abs(est - extrap) <= 1e-12


def test_eta_zero_extrapolation_needs_distinct_eps():
    # two equal smallest eps once divided by zero and returned NaN
    fam = ck.synthetic_family("bounded")
    with pytest.raises(DomainError, match="distinct"):
        ck.eta_zero_extrapolation(fam, [0.01, 0.01, 0.1])


# ---------------------------------------------------------------------------
# the convex-function builder
# ---------------------------------------------------------------------------

def test_dlvp_derived_example_exact():
    tail = lambda c: Fraction(2, int(c))
    phi = ck.dlvp_construct(tail, [1] * 6, [Fraction(1, 4**m) for m in range(7)])
    assert phi.exact
    assert phi.breakpoints == [1] + [2 * 4**m for m in range(1, 7)]
    for m in range(1, 6):
        assert phi.slopes[m] == Fraction(1, 6 * 4**m)
    for m in range(1, 7):
        assert phi.deriv_at[m] == Fraction(7 * m + 1, 7)  # m + 1/7
    assert phi.deriv_exact(Fraction(32)) == Fraction(15, 7)
    assert phi.deriv_exact(Fraction(4)) == Fraction(4, 7)
    assert phi.value_exact(0) == 0 and phi.deriv_exact(0) == 0


def test_derived_tables_are_not_constructor_parameters():
    for key in ("slopes", "deriv_at", "value_at"):
        with pytest.raises(TypeError):
            VPFunction([1, 2], [1], **{key: [5]})


def test_dlvp_growth_constraint_only():
    # with a vanishing tail the growth constraint alone forces N_m = 2^m
    phi = ck.dlvp_construct(lambda c: 0, [1] * 8, [Fraction(1, 2**m) for m in range(9)])
    assert phi.breakpoints == [2**m for m in range(9)]


def test_dlvp_constructive_failure():
    with pytest.raises(ConstructionError) as err:
        ck.dlvp_construct({1: 1.0, 10: 1.0, 100: 1.0}, [1] * 3,
                          [1.0, 0.25, 0.0625, 0.015625])
    assert err.value.index == 1


def test_dlvp_table_tail_step_semantics():
    # table used as a right-continuous step; below the table no certificate
    phi = ck.dlvp_construct({4: 0.2, 16: 0.03, 64: 0.004}, [1] * 2,
                            [1.0, 0.25, 0.0625])
    assert phi.breakpoints[1] >= 4
    assert phi.tail_table[phi.breakpoints[1]] <= 0.25


def test_dlvp_c4_sum_identity():
    tail = lambda c: Fraction(2, int(c))
    alphas = [1] * 6
    betas = [Fraction(1, 4**m) for m in range(7)]
    phi = ck.dlvp_construct(tail, alphas, betas)
    lhs = sum(phi.slopes[m] * (phi.breakpoints[m + 1] - phi.breakpoints[m])
              * betas[m] for m in range(6))
    rhs = sum(Fraction(a) * b for a, b in zip(alphas, betas[:6]))
    assert lhs == rhs


def test_dlvp_superlinearity_proxy():
    phi = ck.dlvp_construct(lambda c: Fraction(2, int(c)), [1] * 8,
                            [Fraction(1, 4**m) for m in range(9)])
    ratios = [phi.value_exact(n) / n for n in phi.breakpoints[1:]]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert float(ratios[-1]) > 10 * float(ratios[0])


def test_vp_eval_pieces_and_orders():
    phi = ck.dlvp_construct(lambda c: Fraction(2, int(c)), [1] * 4,
                            [Fraction(1, 4**m) for m in range(5)])
    # first piece Phi'(r) = alpha_0 r / (N_1 - N_0)
    assert ck.vp_eval(phi, Fraction(4), 1) == Fraction(4, 7)
    assert ck.vp_eval(phi, 0.0, 0) == 0.0
    # float array evaluation agrees with exact scalars
    rs = np.array([0.5, 7.0, 8.0, 20.0, 600.0])
    vals = ck.vp_eval(phi, rs, 0)
    for r, v in zip(rs, vals):
        assert v == pytest.approx(float(phi.value_exact(Fraction(r))), rel=1e-13)
    # affine continuation beyond the last breakpoint
    n_last = phi.breakpoints[-1]
    a_last = float(phi.slopes[-1])
    d1 = ck.vp_eval(phi, float(n_last) * 3, 1)
    assert d1 == pytest.approx(float(phi.deriv_at[-1]) + a_last * 2 * n_last)
    assert ck.vp_eval(phi, float(n_last) * 3, 2) == pytest.approx(a_last)
    with pytest.raises(DomainError):
        ck.vp_eval(phi, -1.0, 0)
    with pytest.raises(DomainError):
        ck.vp_eval(phi, 1.0, 3)


def test_vp_function_validation():
    with pytest.raises(DomainError):
        VPFunction([1, 1, 4], [1, 1])        # not strictly increasing
    with pytest.raises(DomainError):
        VPFunction([2, 4], [1])              # must start at 1
    with pytest.raises(DomainError):
        VPFunction([1, 4, 5], [1, 10])       # slope increases (c1)


def test_vp_check_square_function_equalities():
    # Phi(r) = r^2 realised as a single-slope member of the class:
    # the upper bound in r Phi' <= 2 Phi and the product bound hold with
    # equality
    phi = VPFunction([1, 2], [2])
    assert phi.exact
    samples = [(Fraction(3, 2), Fraction(5, 4), Fraction(2)),
               (Fraction(7), Fraction(11, 3), Fraction(1, 2))]
    rep = ck.vp_check(phi, samples)
    assert rep.passed
    assert rep["b123_upper"].min_margin == 0.0
    assert rep["b125_product"].min_margin == 0.0
    r, s = Fraction(3), Fraction(5)
    assert phi.value_exact(r) == 9
    lhs = (r + s) * (phi.value_exact(r + s) - phi.value_exact(r) - phi.value_exact(s))
    assert lhs == 2 * (r * phi.value_exact(s) + s * phi.value_exact(r))


def test_vp_check_derived_example_all_pass():
    phi = ck.dlvp_construct(lambda c: Fraction(2, int(c)), [1] * 6,
                            [Fraction(1, 4**m) for m in range(7)])
    rng = np.random.default_rng(99)
    top = float(phi.breakpoints[3])
    samples = [(Fraction(a).limit_denominator(10**6),
                Fraction(b).limit_denominator(10**6),
                Fraction(c).limit_denominator(10**6))
               for a, b, c in zip(rng.uniform(0, top, 1000),
                                  rng.uniform(0, top, 1000),
                                  rng.uniform(0, 4, 1000))]
    member = rational_singular_member()
    rep = ck.vp_check(phi, samples, member=member)
    names = {c.name for c in rep.checks}
    assert names == {"b122_ratio_concave", "b123_lower", "b123_upper",
                     "b123b_cross", "b124_scaling", "b125_product",
                     "b127_deriv_subadd", "b111_tail_bound"}
    assert rep.passed
    assert all(c.violations == 0 for c in rep.checks)


@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_vp_check_random_constructions(seed):
    rng = np.random.default_rng(seed)
    alphas = [Fraction(int(a), int(b)) for a, b in
              zip(rng.integers(1, 9, 4), rng.integers(1, 5, 4))]
    betas = [Fraction(1, int(d)**m) for m, d in
             enumerate(rng.integers(2, 6, 5), start=0)]
    coeff = int(rng.integers(1, 5))
    phi = ck.dlvp_construct(lambda c: Fraction(coeff, int(c)), alphas, betas)
    pts = rng.uniform(0, float(phi.breakpoints[-1]) * 1.5, (20, 3))
    samples = [(Fraction(a).limit_denominator(10**5),
                Fraction(b).limit_denominator(10**5),
                Fraction(c % 4).limit_denominator(10**5)) for a, b, c in pts]
    assert ck.vp_check(phi, samples).passed


@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_vp_check_matches_fraction_oracle_random(seed):
    rng = np.random.default_rng(seed)
    alphas = [Fraction(int(a), int(b)) for a, b in
              zip(rng.integers(1, 9, 4), rng.integers(1, 5, 4))]
    betas = [Fraction(1, int(d)**m) for m, d in
             enumerate(rng.integers(2, 6, 5), start=0)]
    coeff = int(rng.integers(1, 5))
    phi = ck.dlvp_construct(lambda c: Fraction(coeff, int(c)), alphas, betas)
    pts = rng.uniform(0, float(phi.breakpoints[-1]) * 1.5, (20, 3))
    samples = [(Fraction(a).limit_denominator(10**5),
                Fraction(b).limit_denominator(10**5),
                Fraction(c % 4).limit_denominator(10**5)) for a, b, c in pts]
    samples += edge_samples(phi)
    assert ck.vp_check(phi, samples).to_json_obj() == fraction_vp_check(phi, samples)


@pytest.mark.parametrize("phi", [
    ck.dlvp_construct(lambda c: Fraction(2, int(c)), [1] * 6,
                      [Fraction(1, 4**m) for m in range(7)]),
    VPFunction([1, Fraction(5, 2), Fraction(7, 2), 6],
               [Fraction(3, 2), Fraction(1, 2), Fraction(2, 3)]),
    VPFunction([1, 2], [2]),
], ids=["cli_default", "fraction_breakpoints", "square"])
def test_vp_check_matches_fraction_oracle_edges(phi):
    rng = np.random.default_rng(7)
    top = 1.5 * float(phi.breakpoints[-1])
    samples = edge_samples(phi) + [
        tuple(Fraction(v).limit_denominator(1000) for v in t)
        for t in zip(rng.uniform(0, top, 200), rng.uniform(0, top, 200),
                     rng.uniform(0, 3, 200))]
    got = ck.vp_check(phi, samples).to_json_obj()
    assert got == fraction_vp_check(phi, samples)
    # r = 0 comes first, so the concavity check is recorded after b123_lower
    assert [c["name"] for c in got["checks"]][:2] == ["b123_lower", "b123_upper"]
    for r in [t[0] for t in samples] + [Fraction(b) for b in phi.breakpoints]:
        assert (phi.value_exact(r), phi.deriv_exact(r), ck.vp_eval(phi, r, 2)) \
            == fraction_phi(phi, Fraction(r))


def test_vp_check_counts_violations_like_the_oracle():
    # lift Phi by 1 from the second breakpoint on: Phi jumps there and several
    # inequalities fail; the integer table moves with the rational one
    phi = VPFunction([1, 2, 5, 9], [1, 1, Fraction(1, 2)])
    for k in range(2, len(phi.value_at)):
        phi.value_at[k] += 1
        phi._V[k] += phi._L
    rng = np.random.default_rng(3)
    samples = edge_samples(phi) + [
        tuple(Fraction(v).limit_denominator(100) for v in t)
        for t in zip(rng.uniform(0, 12, 300), rng.uniform(0, 12, 300),
                     rng.uniform(0, 3, 300))]
    got = ck.vp_check(phi, samples).to_json_obj()
    assert got == fraction_vp_check(phi, samples)
    assert not got["passed"]


def test_vp_check_accepts_a_one_shot_iterator():
    # the samples are scanned twice; an iterator once came back empty and
    # passed with no checks
    phi = VPFunction([1, 2], [2])
    samples = [(Fraction(1, 2), Fraction(3, 2), Fraction(2)), (1, 2, 0),
               (Fraction(5, 3), 0, Fraction(1, 3)), (3, 1, 1), (0, 2, 2)]
    from_list = ck.vp_check(phi, samples).to_json_obj()
    assert len(from_list["checks"]) == 7
    assert ck.vp_check(phi, iter(samples)).to_json_obj() == from_list


def test_cli_compactness_checks_match_fraction_oracle(tmp_path):
    path = DEMO_CONFIGS / "compactness_singular.json"
    assert cli.main(["compactness", str(path), "--out", str(tmp_path)]) == 0
    dlvp = json.loads((tmp_path / "compactness.json").read_text())["dlvp"]
    phi = ck.dlvp_construct(lambda c: Fraction(2, c), [1] * 6,
                            [Fraction(1, 4**m) for m in range(7)])
    assert dlvp["function"]["breakpoints"] == phi.breakpoints
    # r, s and lambda are p / 10^6 with p uniform below N_3 10^6 and 4 10^6
    rng = np.random.default_rng(20240211)
    q, top = 10**6, phi.breakpoints[3]
    nums = [rng.integers(0, top * q, 1000), rng.integers(0, top * q, 1000),
            rng.integers(0, 4 * q, 1000)]
    samples = [tuple(Fraction(int(p), q) for p in t) for t in zip(*nums)]
    assert dlvp["checks"] == fraction_vp_check(phi, samples)


def test_draw_is_int64_over_one_denominator_below_n3_and_4():
    phi = ck.dlvp_construct(lambda c: Fraction(2, c), [1] * 6,
                            [Fraction(1, 4**m) for m in range(7)])
    samples = DlvpConfig(samples=500).draw(phi)
    assert samples.dtype == np.int64 and samples.shape == (500, 3, 2)
    nums, dens = samples[..., 0], samples[..., 1]
    assert (dens == 10**6).all() and (nums >= 0).all()
    assert (nums[:, :2] < phi.breakpoints[3] * 10**6).all()
    assert (nums[:, 2] < 4 * 10**6).all()
    assert np.array_equal(samples, DlvpConfig(samples=500).draw(phi))


def test_draw_shrinks_the_denominator_to_fit_int64():
    # N_3 = 2^62 + 1/3: q 10^6 would overflow, q = (2^63 - 1) // (2^62 + 1) = 1
    top = 2**62 + Fraction(1, 3)
    phi = VPFunction([1, 2, 3, top], [Fraction(1, 10**9)] * 3)
    samples = DlvpConfig(samples=200).draw(phi)
    assert samples.dtype == np.int64
    assert (samples[..., 1] == 1).all()
    assert (samples[:, :2, 0] < top).all() and (samples[:, 2, 0] < 4).all()
    assert samples[:, :2, 0].max() > 2**60          # drawn over the whole range
    phi = VPFunction([1, 2, 3, 2**45], [Fraction(1, 10**9)] * 3)
    assert (DlvpConfig(samples=10).draw(phi)[..., 1] == 2**18 - 1).all()


@pytest.mark.parametrize("top", [2**63, 10**400, Fraction(2**64 - 1, 2), Fraction(2**64 + 1, 2)])
def test_draw_refuses_a_breakpoint_of_2_63_or_more(top):
    phi = VPFunction([1, 2, top], [Fraction(1, 10**9)] * 2)
    with pytest.raises(DomainError) as err:
        DlvpConfig(samples=10).draw(phi)
    assert "N_2" in str(err.value) and len(str(err.value)) < 100


def random_exact_phi(rng):
    """An exact Phi with rational breakpoints: increments and non-increasing
    slopes drawn as small fractions."""
    steps = [Fraction(int(a), int(b)) for a, b in
             zip(rng.integers(1, 40, 4), rng.integers(1, 4, 4))]
    slopes = sorted((Fraction(int(a), int(b)) for a, b in
                     zip(rng.integers(1, 9, 4), rng.integers(1, 7, 4))), reverse=True)
    breakpoints = [Fraction(1), 1 + max(steps[0], Fraction(1))]
    for d in steps[1:]:
        breakpoints.append(breakpoints[-1] + d)
    alphas = [a * (hi - lo) for a, lo, hi in zip(slopes, breakpoints, breakpoints[1:])]
    return VPFunction(breakpoints, alphas)


def overflowing_samples(phi):
    """Samples whose unreduced products overflow float64 (and whose terms do
    not fit int64), near 1, near a breakpoint and at 0."""
    big = 2**400 + 1
    n2 = Fraction(phi.breakpoints[2])
    return [(Fraction(big + 2, big), Fraction(3 * big - 1, big), Fraction(5, 3)),
            (n2 + Fraction(1, big), n2 - Fraction(1, big), Fraction(big - 1, big)),
            (Fraction(0), Fraction(7 * big, big + 1), Fraction(big + 1, big)),
            (Fraction(1, big), Fraction(1, big), Fraction(3))]


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_filtered_vp_check_matches_fraction_oracle(seed):
    rng = np.random.default_rng(seed)
    phi = random_exact_phi(rng) if seed % 2 else ck.dlvp_construct(
        lambda c: Fraction(2, int(c)), [1] * 4, [Fraction(1, 4**m) for m in range(5)])
    top = 1.5 * float(phi.breakpoints[-1])
    small = edge_samples(phi) + [
        tuple(Fraction(v).limit_denominator(int(d)) for v in t)
        for t, d in zip(zip(rng.uniform(0, top, 60), rng.uniform(0, top, 60),
                            rng.uniform(0, 4, 60)), rng.integers(1, 10**6, 60))]
    samples = small + overflowing_samples(phi)
    rng.shuffle(samples)
    want = fraction_vp_check(phi, samples)
    assert ck.vp_check(phi, samples).to_json_obj() == want
    # the same samples as one (n, 3, 2) integer array
    pairs = [[(Fraction(v).numerator, Fraction(v).denominator) for v in t] for t in small]
    assert ck.vp_check(phi, np.array(pairs, dtype=np.int64)).to_json_obj() \
        == fraction_vp_check(phi, small)


def test_filter_leaves_near_zero_margins_to_integers():
    # Phi = A r^2 / 2 makes b127 (Phi' subadditive) an equality.  With A and
    # L near 2^50 and r, s of 25-bit terms, most float products round, and
    # the forty worst zero margins of the pool come out off zero by 0.19 to
    # 0.25 of the filter's sign bound: a bound ten times too small certifies
    # some of them as violations.  One real violation (Phi' lifted by 1 past
    # N_1) holds the minimum at -1, so no zero margin is taken exactly for
    # being near it.
    phi = VPFunction([1, 2], [Fraction(2**50 + 2**29 + 1, 2**49 + 3)])
    phi.deriv_at[1] += 1
    phi._P[1] += phi._L
    b127 = compactness._MARGINS.index("b127_deriv_subadd")
    rng = np.random.default_rng(1616)
    q = rng.integers(2**24, 2**25, (20000, 2))
    p = rng.integers(1, q)                                   # r, s < 1
    cols = [v.astype(float) for j in range(2) for v in (p[:, j], q[:, j])]
    X, Y, _ = compactness._margins(partial(compactness._pairs, phi._tables(float)),
                                   *cols, np.ones(len(q)), np.ones(len(q)))[b127]
    samples = [(Fraction(int(p[i, 0]), int(q[i, 0])), Fraction(int(p[i, 1]), int(q[i, 1])),
                Fraction(1)) for i in np.argsort(-np.abs(X - Y) / (X + Y))[:40]]
    samples.append((Fraction(3, 2), Fraction(3, 2), Fraction(1)))
    got = ck.vp_check(phi, samples).to_json_obj()
    assert got == fraction_vp_check(phi, samples)
    [check] = [c for c in got["checks"] if c["name"] == "b127_deriv_subadd"]
    assert check["violations"] == 1 and check["min_margin"] == -1.0


def test_b111_holds_for_any_member_and_breakpoints():
    phi = ck.dlvp_construct(lambda c: Fraction(2, int(c)), [1] * 5,
                            [Fraction(1, 4**m) for m in range(6)])
    rng = np.random.default_rng(12)
    values = rng.uniform(0, 50, 40)
    measures = rng.uniform(0.01, 0.2, 40)
    rep = ck.vp_check(phi, [], member=(values, measures))
    assert rep["b111_tail_bound"].violations == 0
    # a member of one-shot iterators gives the same report
    assert ck.vp_check(phi, [], member=(iter(values), iter(measures))).to_json_obj() \
        == rep.to_json_obj()


def test_phi_integral_examples():
    grid = ck.SizeGrid.sectional(np.linspace(1e-6, 1.0, 11))
    zero = ck.SizeDistribution(grid, np.zeros(10))
    assert ck.phi_integral(lambda r: r * r, zero, 1.0) == 0.0
    ones = ck.SizeDistribution(grid, np.ones(10))
    assert ck.phi_integral(lambda r: r * r, ones, 1.0) == pytest.approx(1.0, rel=1e-5)
    phi = VPFunction([1, 2], [2])
    assert ck.phi_integral(phi, ones, 1.0) == pytest.approx(1.0, rel=1e-5)
    with pytest.raises(DomainError):
        ck.phi_integral(phi, ones, 100.0)


def test_family_tail_feeds_builder():
    fam = ck.synthetic_family("singular", resolution=1024)
    tail = ck.family_tail(fam)
    phi = ck.dlvp_construct(tail, [1] * 4, [0.5**m for m in range(5)])
    # the certified tail bounds hold by construction
    for nm, bound in phi.tail_table.items():
        assert tail(nm) <= bound + 1e-15


def test_family_tail_beyond_every_float_is_zero():
    # numpy cannot compare a float array with an int of 2^1024 or more
    tail = ck.family_tail(ck.synthetic_family("singular"))
    assert tail(10**400) == 0.0
    assert tail(Fraction(10**400, 3)) == 0.0
    assert tail(2**1023) == 0.0 and tail(1) > 0


def test_dlvp_rejects_bad_sequences():
    with pytest.raises(DomainError):
        ck.dlvp_construct(lambda c: 0.0, [1, -1], [1, 1, 1])
    with pytest.raises(DomainError):
        ck.dlvp_construct(lambda c: 0.0, [], [1])
    with pytest.raises(DomainError):
        ck.dlvp_construct({10: 0.5, 20: 0.7}, [1] * 2, [1, 1, 1])  # increasing table


def test_dlvp_float_and_mapping_variants():
    # float sequences: selection follows both constraints, and each float
    # alpha is the exact rational it is
    phi = ck.dlvp_construct(lambda c: 2.0 / c, [1.0, 1.5, 2.0, 1.0],
                            [1.0, 0.25, 0.0625, 0.02, 0.005])
    assert phi.exact
    assert phi.alphas == [1, Fraction(3, 2), 2, 1]
    assert all(type(a) is Fraction for a in phi.alphas + phi.slopes)
    assert phi.breakpoints == [1, 8, 32, 100, 400]
    assert all(b <= a for a, b in zip(phi.slopes, phi.slopes[1:]))
    # a mapping used as a right-continuous step function, exact values
    table = {2**k: Fraction(2, 2**k) for k in range(1, 40)}
    phi2 = ck.dlvp_construct(table, [1] * 5, [Fraction(1, 4**m) for m in range(6)])
    assert phi2.exact
    assert phi2.breakpoints == [1, 8, 32, 128, 512, 2048]
    # callable sequences need an explicit term count
    phi3 = ck.dlvp_construct(lambda c: Fraction(2, int(c)), lambda m: 1,
                             lambda m: Fraction(1, 4**m), terms=4)
    assert phi3.breakpoints == [1, 8, 32, 128, 512]
    with pytest.raises(DomainError):
        ck.dlvp_construct(lambda c: 0.0, lambda m: 1, lambda m: 1.0)


def test_vp_check_float_function_on_float_samples():
    # a float-built Phi on float samples is checked exactly, each float read
    # as its binary value; float arithmetic puts the b124_scaling minimum,
    # an exact 0, at -8.3e-17
    phi = ck.dlvp_construct(lambda c: 2.0 / c, [1.0, 1.5, 2.0, 1.0],
                            [1.0, 0.25, 0.0625, 0.02, 0.005])
    assert phi.exact
    rng = np.random.default_rng(20240211)
    top = 2.0 * phi.breakpoints[-1]
    samples = list(zip(rng.uniform(0, top, 2000), rng.uniform(0, top, 2000),
                       rng.uniform(0, 4, 2000)))
    rep = ck.vp_check(phi, samples)
    assert [c.name for c in rep.checks] == [
        "b122_ratio_concave", "b123_lower", "b123_upper", "b123b_cross",
        "b124_scaling", "b125_product", "b127_deriv_subadd"]
    assert [c.violations for c in rep.checks] == [0] * 7
    assert all(c.samples == 2000 for c in rep.checks)
    assert rep.to_json_obj() == fraction_vp_check(phi, samples)
    assert rep["b124_scaling"].min_margin == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_numbers_are_refused(bad):
    with pytest.raises(DomainError):
        VPFunction([1, 2, 5], [1, bad])
    with pytest.raises(DomainError):
        VPFunction([1, 2, bad], [1, 1])
    with pytest.raises(DomainError):
        ck.dlvp_construct(lambda c: Fraction(2, c), [1, bad], [1, 1, 1])
    phi = VPFunction([1, 2], [2])
    with pytest.raises(DomainError):
        ck.vp_check(phi, [(1.0, 2.0, 0.5), (0.5, bad, 1.0)])
    with pytest.raises(DomainError):
        ck.vp_check(phi, [], member=([0.5, bad], [1.0, 1.0]))
    with pytest.raises(DomainError):
        ck.vp_check(phi, [], member=([0.5, 1.5], [1.0, bad]))
