import numpy as np
import pytest

from fairfactor.dataset import GroupedPanel, Panel
from fairfactor.factor import Loading, group_errors
from fairfactor.linalg import nearest_orthonormal
from fairfactor.transforms import (
    annuity_transform,
    apply_transform,
    decision_errors,
    elementwise_transform,
    epv_annuity,
    epv_matrix,
    epv_weights,
    epv_width,
    identity_transform,
)


def brute_force_epv(m, i, n, v):
    """Oracle: enumerate the death year (or survival through all payments).

    Death during year j (j = 0 .. n-2) pays the annuity at times 0..j; anyone
    alive at time n-1 has received every payment, whatever happens later.
    """
    total = 0.0
    for death in range(n - 1):
        prob = np.prod([1.0 - m[i + k] for k in range(death)]) * m[i + death]
        payments = sum(v**s for s in range(death + 1))
        total += prob * payments
    survive = np.prod([1.0 - m[i + k] for k in range(n - 1)])
    total += survive * sum(v**s for s in range(n))
    return total


def test_epv_single_payment():
    m = np.array([0.3, 0.8, 0.1])
    assert epv_annuity(m, 0, 1, 0.9) == 1.0
    assert epv_annuity(m, 2, 1, 0.5) == 1.0


def test_epv_no_mortality_no_discount():
    assert epv_annuity(np.zeros(12), 0, 10, 1.0) == pytest.approx(10.0, abs=1e-14)


def test_epv_geometric_survival():
    m = np.full(5, 0.5)
    assert epv_annuity(m, 0, 3, 1.0) == pytest.approx(1.75, abs=1e-14)


def test_epv_against_path_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(50):
        N = int(rng.integers(4, 9))
        n = int(rng.integers(1, 7))
        if n > N:
            continue
        v = float(rng.uniform(0.5, 1.0))
        m = rng.uniform(0.0, 1.0, size=N)
        i = int(rng.integers(0, epv_width(N, n)))
        assert epv_annuity(m, i, n, v) == pytest.approx(brute_force_epv(m, i, n, v), abs=1e-12)


def test_epv_bounds_and_monotonicity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        N, n = 10, int(rng.integers(1, 8))
        v = float(rng.uniform(0.3, 1.0))
        m = rng.uniform(0.0, 1.0, size=N)
        i = int(rng.integers(0, epv_width(N, n)))
        value = epv_annuity(m, i, n, v)
        assert 1.0 - 1e-12 <= value <= sum(v**s for s in range(n)) + 1e-12
        j = int(rng.integers(0, N))
        bumped = m.copy()
        bumped[j] = min(1.0, bumped[j] + rng.uniform(0.0, 0.3))
        assert epv_annuity(bumped, i, n, v) <= value + 1e-12


def test_epv_matrix_matches_scalar():
    rng = np.random.default_rng(2)
    M = rng.uniform(0.0, 1.0, size=(6, 9))
    out = epv_matrix(M, 4, 0.95)
    assert out.shape == (6, epv_width(9, 4))
    for t in range(6):
        for i in range(out.shape[1]):
            assert out[t, i] == pytest.approx(epv_annuity(M[t], i, 4, 0.95), abs=1e-13)


def test_epv_rejects_bad_arguments():
    m = np.full(5, 0.1)
    with pytest.raises(ValueError):
        epv_annuity(m, -1, 2, 1.0)
    with pytest.raises(ValueError):
        epv_annuity(m, 5, 2, 1.0)
    with pytest.raises(ValueError):
        epv_annuity(m, 0, 6, 1.0)
    with pytest.raises(ValueError):
        epv_annuity(m, 0, 2, 1.5)


def test_epv_clips_rates():
    value = epv_annuity(np.array([1.4, -0.2, 0.5]), 0, 3, 1.0)
    assert value == pytest.approx(1.0)  # certain death in year one after clipping
    M = np.array([[1.4, -0.2, 0.5], [0.3, 0.0, 0.7]])
    assert np.array_equal(epv_matrix(M, 3, 0.9), epv_matrix(np.clip(M, 0.0, 1.0), 3, 0.9))


def test_weights_single_payment_zero():
    W = epv_weights(np.full(4, 0.3), 1, 0.9)
    assert W.shape == (4, 4)
    assert np.all(W == 0.0)


def test_weights_two_payments():
    m = np.array([0.2, 0.4, 0.6])
    W = epv_weights(m, 2, 1.0)
    assert W.shape == (3, 3)
    assert np.allclose(W, -np.eye(3))


def test_weights_band_structure_and_sign():
    rng = np.random.default_rng(3)
    m = rng.uniform(0.0, 1.0, size=10)
    n = 5
    W = epv_weights(m, n, 0.95)
    width = epv_width(10, n)
    assert W.shape == (width, 10)
    assert np.all(W <= 0.0)
    for i in range(width):
        outside = np.ones(10, dtype=bool)
        outside[i : i + n - 1] = False
        assert np.all(W[i, outside] == 0.0)


def test_weights_match_finite_differences():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(100):
        N = int(rng.integers(3, 9))
        n = int(rng.integers(1, N + 1))
        v = float(rng.uniform(0.5, 1.0))
        m = rng.uniform(0.05, 0.95, size=N)
        W = epv_weights(m, n, v)
        for i in range(epv_width(N, n)):
            for j in range(N):
                up, dn = m.copy(), m.copy()
                up[j] += h
                dn[j] -= h
                fd = (epv_annuity(up, i, n, v) - epv_annuity(dn, i, n, v)) / (2 * h)
                assert W[i, j] == pytest.approx(fd, abs=1e-8)


def test_apply_identity_and_elementwise():
    y = np.array([[0.1, -0.2], [0.3, 0.4]])
    assert np.array_equal(apply_transform(identity_transform(), "g1", y), y)
    out = apply_transform(elementwise_transform("exp"), "g1", y)
    assert np.allclose(out, np.exp(y))


def test_apply_annuity_single_payment_all_ones():
    y = np.random.default_rng(5).normal(size=(3, 6))
    g = annuity_transform(1, 0.9, {"g1": np.zeros(6)})
    out = apply_transform(g, "g1", y)
    assert out.shape == (3, 6)
    assert np.all(out == 1.0)


def test_apply_annuity_constant_half():
    # intercept + y chosen so exp(y + a) = 0.5 everywhere
    N = 5
    a = np.full(N, np.log(0.5))
    g = annuity_transform(3, 1.0, {"g1": a})
    out = apply_transform(g, "g1", np.zeros((4, N)))
    assert out.shape == (4, epv_width(N, 3))
    assert np.allclose(out, 1.75)


def test_apply_annuity_unknown_group():
    g = annuity_transform(2, 1.0, {"g1": np.zeros(4)})
    with pytest.raises(KeyError, match="g2"):
        apply_transform(g, "g2", np.zeros((2, 4)))


def make_grouped(rng, T1=6, T2=5, N=6, log_level=-3.0):
    ages = np.arange(N)
    a = np.full(N, log_level)
    y1 = 0.3 * rng.standard_normal((T1, N))
    y2 = 0.3 * rng.standard_normal((T2, N))
    return GroupedPanel(
        (
            Panel("g1", np.arange(T1), ages, y1, a),
            Panel("g2", np.arange(T2), ages, y2, a.copy()),
        )
    )


def test_decision_errors_identity_reduces_to_group_errors():
    rng = np.random.default_rng(6)
    data = make_grouped(rng)
    L = Loading(np.sqrt(6) * nearest_orthonormal(rng.standard_normal((6, 2))))
    assert np.allclose(decision_errors(data, L, identity_transform()), group_errors(data, L))


def test_decision_errors_zero_in_span():
    rng = np.random.default_rng(7)
    N = 5
    L = Loading(np.sqrt(N) * nearest_orthonormal(rng.standard_normal((N, 2))))
    coeff = 0.1 * rng.standard_normal((4, 2))
    y = coeff @ L.matrix.T
    a = np.full(N, -3.0)
    data = GroupedPanel(
        (
            Panel("g1", np.arange(4), np.arange(N), y, a),
            Panel("g2", np.arange(4), np.arange(N), y.copy(), a.copy()),
        )
    )
    g = annuity_transform(3, 0.95, {"g1": a, "g2": a})
    assert np.all(decision_errors(data, L, g) <= 1e-20)


def test_decision_errors_annuity_brute_force():
    rng = np.random.default_rng(8)
    data = make_grouped(rng, T1=4, T2=3, N=6)
    L = Loading(np.sqrt(6) * nearest_orthonormal(rng.standard_normal((6, 1))))
    n, v = 3, 0.9
    g = annuity_transform(n, v, {p.group: p.intercept for p in data.panels})
    got = decision_errors(data, L, g)
    P = L.projector()
    for k, p in enumerate(data.panels):
        recon = p.y @ P
        total = 0.0
        for t in range(p.n_years):
            m_obs = np.exp(p.y[t] + p.intercept)
            m_hat = np.clip(np.exp(recon[t] + p.intercept), 0.0, 1.0)
            for i in range(epv_width(6, n)):
                diff = brute_force_epv(m_hat, i, n, v) - brute_force_epv(m_obs, i, n, v)
                total += diff * diff
        assert got[k] == pytest.approx(total / p.n_years, rel=1e-10)


def test_taylor_error_converges_quadratically():
    rng = np.random.default_rng(9)
    N, n, v = 8, 4, 0.95
    m = rng.uniform(0.05, 0.6, size=N)
    W = epv_weights(m, n, v)
    direction = rng.standard_normal(N)
    base = epv_matrix(m[None, :], n, v)[0]
    ratios = []
    for delta in (0.04, 0.02, 0.01):
        m_tilde = np.clip(m + delta * direction, 0.0, 1.0)
        exact = epv_matrix(m_tilde[None, :], n, v)[0] - base
        quad = W @ (m_tilde - m)
        gap = abs(float(exact @ exact) - float(quad @ quad))
        ratios.append(gap / delta**2)
    assert ratios[1] < ratios[0] and ratios[2] < ratios[1]


def test_transform_validation():
    from fairfactor.transforms import DecisionTransform

    with pytest.raises(ValueError, match="kind"):
        DecisionTransform(kind="mystery")
    with pytest.raises(ValueError, match="elementwise"):
        elementwise_transform("not-a-map")
    with pytest.raises(ValueError, match="term"):
        annuity_transform(0, 1.0, {"g": np.zeros(3)})
    with pytest.raises(ValueError, match="discount"):
        annuity_transform(2, 1.5, {"g": np.zeros(3)})
    with pytest.raises(ValueError, match="intercepts"):
        DecisionTransform(kind="annuity", term=2, discount=0.9)
