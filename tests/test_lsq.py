"""The numpy Levenberg-Marquardt solver against known answers and scipy's MINPACK."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares

from kipa.errors import FitFailure, InvalidParameter
from kipa.lsq import _lm_step, levenberg_marquardt

EPS = float(np.finfo(float).eps)


def _rosenbrock(x, f, jt):
    f[0] = 10.0 * (x[1] - x[0] ** 2)
    f[1] = 1.0 - x[0]
    jt[0] = (-20.0 * x[0], -1.0)
    jt[1] = (10.0, 0.0)


def test_rosenbrock_zero_residual_minimum():
    fit = levenberg_marquardt(_rosenbrock, [-1.2, 1.0], 2, tol=1e-10, max_nfev=200)
    assert fit.x == pytest.approx([1.0, 1.0], abs=1e-10)
    assert np.abs(fit.fun).max() < 1e-10


def test_linear_problem_matches_normal_equations():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(30, 4))
    b = rng.normal(size=30)

    def evaluate(x, f, jt):
        np.subtract(a @ x, b, out=f)
        jt[:] = a.T

    fit = levenberg_marquardt(evaluate, np.zeros(4), 30, tol=1e-12, max_nfev=100)
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    assert fit.x == pytest.approx(want, rel=1e-9)
    assert fit.fun == pytest.approx(a @ want - b, abs=1e-12)


def _exponential_problem(rng):
    t = np.linspace(0.0, 4.0, 40)
    y = rng.uniform(0.5, 3.0) * np.exp(-rng.uniform(0.2, 2.0) * t) + rng.uniform(-1, 1) \
        + rng.normal(0.0, 0.01, t.size)

    def evaluate(p, f, jt):
        e = np.exp(-p[1] * t)
        np.subtract(p[0] * e + p[2], y, out=f)
        jt[0] = e
        jt[1] = -p[0] * t * e
        jt[2] = 1.0

    return t, evaluate


def test_agrees_with_scipy_minpack():
    rng = np.random.default_rng(5)
    for _ in range(40):
        t, evaluate = _exponential_problem(rng)
        m = t.size

        def resid(p):
            f, jt = np.empty(m), np.empty((3, m))
            evaluate(p, f, jt)
            return f

        def jac(p):
            f, jt = np.empty(m), np.empty((3, m))
            evaluate(p, f, jt)
            return jt.T

        x0 = np.array([1.0, 1.0, 0.0])
        ref = least_squares(resid, x0, jac=jac, method="lm", xtol=1e-10, ftol=1e-10,
                            gtol=1e-10, max_nfev=800)
        assert ref.success
        fit = levenberg_marquardt(evaluate, x0, m, tol=1e-10, max_nfev=800)
        assert fit.x == pytest.approx(ref.x, rel=1e-7)


def test_non_finite_trial_point_is_rejected():
    # residual log(x) - log(0.01) from x = 1: the Gauss-Newton step lands
    # at x < 0, where the residual is NaN
    seen = []

    def evaluate(x, f, jt):
        with np.errstate(invalid="ignore", divide="ignore"):
            f[0] = np.log(x[0]) - math.log(0.01)
            jt[0, 0] = 1.0 / x[0]
        seen.append(np.isfinite(f[0]))

    fit = levenberg_marquardt(evaluate, [1.0], 1, tol=1e-12, max_nfev=100)
    assert not all(seen)
    assert fit.x[0] == pytest.approx(0.01, rel=1e-10)


def test_non_finite_jacobian_is_rejected():
    # a finite residual whose Jacobian overflows beyond x = 3 is still a
    # rejected trial point; the fit stays where both are finite
    def evaluate(x, f, jt):
        f[0] = x[0] - 5.0
        jt[0, 0] = 1.0 if x[0] < 3.0 else math.inf

    fit = levenberg_marquardt(evaluate, [0.0], 1, tol=1e-10, max_nfev=200)
    assert fit.x[0] < 3.0


def test_budget_exhausted_is_fit_failure():
    with pytest.raises(FitFailure, match="^demo fit did not converge$") as exc:
        levenberg_marquardt(_rosenbrock, [-1.2, 1.0], 2, tol=1e-10, max_nfev=3,
                            name="demo fit")
    assert exc.value.diagnostics["nfev"] == 3


def test_non_finite_start_is_fit_failure():
    def evaluate(x, f, jt):
        f[0] = math.nan
        jt[0, 0] = 1.0

    with pytest.raises(FitFailure, match="not finite at the start point"):
        levenberg_marquardt(evaluate, [0.0], 1, tol=1e-10, max_nfev=10)


@pytest.mark.parametrize("kwargs", [dict(tol=0.0, max_nfev=10), dict(tol=1e-10, max_nfev=0)])
def test_bad_settings_are_rejected(kwargs):
    with pytest.raises(InvalidParameter):
        levenberg_marquardt(_rosenbrock, [0.0, 0.0], 2, **kwargs)


_T = np.linspace(0.0, 4.0, 25)


def test_zero_jacobian_column_leaves_its_parameter_alone():
    # x[1] does not enter the model: a zero singular value, which adds nothing to the step
    def evaluate(x, f, jt):
        e = np.exp(-x[0] * _T)
        np.subtract(e, np.exp(-0.7 * _T), out=f)
        jt[0] = -_T * e
        jt[1] = 0.0

    fit = levenberg_marquardt(evaluate, [2.0, 5.0], _T.size, tol=1e-12, max_nfev=100)
    assert fit.x[1] == 5.0
    assert fit.x[0] == pytest.approx(0.7, rel=1e-10)
    assert np.abs(fit.fun).max() < 1e-12


def test_identical_jacobian_columns_fit_the_sum():
    # only x[0] + x[1] enters the model: J has rank one
    def evaluate(x, f, jt):
        e = np.exp(-(x[0] + x[1]) * _T)
        np.subtract(e, np.exp(-0.7 * _T), out=f)
        jt[0] = -_T * e
        jt[1] = jt[0]

    fit = levenberg_marquardt(evaluate, [2.0, 0.5], _T.size, tol=1e-12, max_nfev=100)
    assert fit.x.sum() == pytest.approx(0.7, rel=1e-10)
    assert np.abs(fit.fun).max() < 1e-12


@st.composite
def tall_problems(draw):
    """(jt, d, f, delta): n = 1-4 parameters, n to 700 residuals, columns of any
    scale, some zero or repeating an earlier one, and a random positive scaling D."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jt = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    kinds = draw(st.lists(st.sampled_from(["drawn", "zero", "repeat"]), min_size=n, max_size=n))
    for j, kind in enumerate(kinds):
        if kind == "zero":
            jt[j] = 0.0
        elif kind == "repeat" and j:
            jt[j] = jt[rng.integers(j)]
    d = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    f = rng.normal(size=m) * 10.0 ** rng.uniform(-3.0, 3.0)
    return jt, d, f, 10.0 ** rng.uniform(-3.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(tall_problems())
def test_n_space_products_equal_the_m_space_ones(problem):
    # The solver takes J·D⁻¹ = U·diag(s)·Vᵀ (thin SVD of the tall matrix) and,
    # for the step p = -D⁻¹·V·q, uses ‖J·p‖ = ‖diag(s)·q‖ and
    # Jᵀf = D·V·diag(s)·Uᵀf in place of the m-space products.
    #
    # The bound: LAPACK's SVD is backward stable, Û·Ŝ·V̂ᵀ = Â + E with
    # ‖E‖ ≤ γ·s₁ and Û, V̂ orthonormal to within γ, for γ = p(m, n)·ε, a
    # modestly growing p (LAPACK Users' Guide, section 4.9); take p = m + n.
    # Then J·p + Û·Ŝ·q = E·V̂·q + Û·Ŝ·(I - V̂ᵀV̂)·q up to the rounding of Â,
    # of p and of the n-term sums of J·p, together at most
    # (√n + (n + 1)·√n + n·√n)·ε·s₁·‖q‖ ≤ 20ε·s₁·‖q‖ for n ≤ 4, and ‖Û·Ŝ·q‖
    # is ‖Ŝ·q‖ to within γ·s₁·‖q‖; so the norms differ by at most
    # (3γ + 20ε)·s₁·‖q‖.  Component j of Jᵀf differs by
    # (Eᵀf)_j ≤ γ·s₁·‖f‖, scaled by D_j, plus the m-term sums of Uᵀf and of
    # the reference Jᵀf, together at most (√n + 1)·m·ε·D_j·s₁·‖f‖ (as
    # ‖J e_j‖ ≤ D_j·s₁), and the n-term sums, a few ε more.  Both are inside
    # (4(m + n) + 20)·ε·s₁, times ‖q‖ or D_j·‖f‖.
    jt, d, f, delta = problem
    n, m = jt.shape
    u, s, vt = np.linalg.svd((jt / d[:, None]).T, full_matrices=False)
    utf = f @ u
    _, q = _lm_step(s, utf, delta, 0.0)
    p = (q @ vt) / -d
    bound = (4 * (m + n) + 20) * EPS * s[0]
    assert abs(np.linalg.norm(p @ jt) - np.linalg.norm(s * q)) <= bound * np.linalg.norm(q)
    assert (np.abs(jt @ f - d * ((s * utf) @ vt)) <= bound * d * np.linalg.norm(f)).all()
