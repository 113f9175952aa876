"""Levenberg-Marquardt least squares in numpy, after MINPACK's ``lmder``.

The trust-region iteration of Moré, "The Levenberg-Marquardt algorithm:
implementation and theory" (1978), as MINPACK implements it (see also
Nocedal & Wright, *Numerical Optimization*, ch. 10): the variables scaled
by the running maximum of the Jacobian's column norms, the
Levenberg-Marquardt parameter found by a safeguarded Newton iteration on
the scaled step length, and MINPACK's step-bound updates and
ftol/xtol/gtol convergence tests.

Where MINPACK factors the Jacobian by QR with column pivoting and folds
each trial parameter in with Givens rotations, here each iteration's thin SVD
of the tall scaled Jacobian, J·D⁻¹ = U·diag(s)·Vᵀ, gives every step in closed
form, and its n-space factors the gradient Jᵀf = D·V·diag(s)·Uᵀf and ‖J·p‖.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import FitFailure, InvalidParameter

_EPS = float(np.finfo(float).eps)
_DWARF = float(np.finfo(float).tiny)
_FACTOR = 100.0   # initial step bound, in units of the scaled start point


class LeastSquaresFit(NamedTuple):
    x: np.ndarray      # parameters at convergence
    fun: np.ndarray    # residual at x


def levenberg_marquardt(evaluate: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
                        x0, m: int, tol: float, max_nfev: int,
                        name: str = "least-squares fit") -> LeastSquaresFit:
    """Minimise ½‖f(x)‖² over x from ``x0``.

    evaluate(x, f, jt) fills ``f`` (length m) with the residual at x and
    ``jt`` (n by m) with its transposed Jacobian, jt[j, i] = ∂f_i/∂x_j,
    from one evaluation of the model.  A trial point whose residual or
    Jacobian is not finite is a rejected step.

    ``tol`` is MINPACK's ftol, xtol and gtol at once: the fit converges
    when the actual and predicted relative reductions of ‖f‖² are both at
    most tol, when the trust region is at most tol times the scaled norm of
    x, or when the cosine between f and every column of the Jacobian is at
    most tol.  Raises FitFailure, prefixed by ``name``, when the start
    point is not finite or ``max_nfev`` evaluations do not converge.
    """
    if not tol >= _EPS:
        raise InvalidParameter(f"tol must be >= machine epsilon {_EPS:.3g}")
    if not max_nfev >= 1:
        raise InvalidParameter("the evaluation budget must be >= 1")
    x = np.array(x0, dtype=float)
    n = x.size
    f, jt = np.empty(m), np.empty((n, m))
    f_try, jt_try = np.empty(m), np.empty((n, m))
    evaluate(x, f, jt)
    nfev = 1
    fnorm = _finite_norm(f, jt)
    if fnorm == math.inf:
        raise FitFailure(f"{name}: residual not finite at the start point",
                         {"x": x.tolist()})
    par = 0.0
    diag = None
    while True:
        acnorm = np.sqrt(np.einsum("ij,ij->i", jt, jt))
        if diag is None:
            diag = np.where(acnorm != 0.0, acnorm, 1.0)
            xnorm = _norm(diag * x)
            delta = _FACTOR * xnorm if xnorm != 0.0 else _FACTOR
            first = True
        if fnorm == 0.0:
            return LeastSquaresFit(x, f)
        diag = np.maximum(diag, acnorm)
        # J·D⁻¹ = U·diag(s)·Vᵀ, the thin SVD of the tall m-by-n matrix
        u, s, vt = np.linalg.svd((jt / diag[:, None]).T, full_matrices=False)
        utf = f @ u
        # cosine between f and the Jacobian columns, from Jᵀf = D·V·diag(s)·Uᵀf
        live = acnorm != 0.0
        cosines = np.abs(diag * ((s * utf) @ vt) / fnorm)[live] / acnorm[live]
        if float(np.max(cosines, initial=0.0)) <= tol:
            return LeastSquaresFit(x, f)
        while True:
            par, q = _lm_step(s, utf, delta, par)
            step = (q @ vt) / -diag
            pnorm = _norm(q)   # ‖D·step‖, as V is orthogonal
            if first:
                delta = min(delta, pnorm)
            x_try = x + step
            evaluate(x_try, f_try, jt_try)
            nfev += 1
            fnorm1 = _finite_norm(f_try, jt_try)
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            # reduction the linear model predicts, ‖J·step‖ = ‖diag(s)·q‖, and its slope
            temp1 = _norm(s * q) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1 * temp1 + temp2 * temp2 / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            accepted = ratio >= 1e-4
            if accepted:
                x = x_try
                f, f_try = f_try, f
                jt, jt_try = jt_try, jt
                xnorm = _norm(diag * x)
                fnorm = fnorm1
                first = False
            if (abs(actred) <= tol and prered <= tol and 0.5 * ratio <= 1.0) \
                    or delta <= tol * xnorm:
                return LeastSquaresFit(x, f)
            if nfev >= max_nfev:
                raise FitFailure(f"{name} did not converge",
                                 {"nfev": nfev, "x": x.tolist(),
                                  "message": "the evaluation budget is exhausted"})
            if accepted:
                break


def _finite_norm(f: np.ndarray, jt: np.ndarray) -> float:
    """‖f‖, or inf when f or the Jacobian holds a value that is not finite."""
    fnorm = math.sqrt(float(f @ f))
    if not (fnorm < math.inf and np.isfinite(jt).all()):
        return math.inf
    return fnorm


def _norm(a: np.ndarray) -> float:
    return math.hypot(*a.tolist())


def _lm_step(s: np.ndarray, utf: np.ndarray, delta: float, par: float):
    """Levenberg-Marquardt parameter and step for bound ``delta`` (MINPACK ``lmpar``).

    ``s`` are the singular values of the scaled Jacobian J·D⁻¹ = U·diag(s)·Vᵀ
    and ``utf`` is Uᵀf.  For parameter λ the step minimising
    ‖Jp + f‖² + λ‖Dp‖² is p = -D⁻¹·V·q with q = s·utf/(s² + λ), so ‖Dp‖ = ‖q‖;
    zero singular values contribute nothing.  Returns (par, q): par = 0 and
    the Gauss-Newton q when that is short enough, else par with ‖q‖ within
    10 % of delta.
    """
    nonzero = s != 0.0
    q = np.divide(utf, s, out=np.zeros_like(utf), where=nonzero)
    qnorm = _norm(q)
    fp = qnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, q
    # lower bound from the Newton step (zero if J is singular), upper bound
    # from the gradient
    parl = 0.0
    if nonzero.all():
        parl = fp / delta / (_norm(q / s) / qnorm) ** 2
    gnorm = _norm(s * utf)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / qnorm
    for it in range(1, 11):
        if par == 0.0:
            par = max(_DWARF, 0.001 * paru)
        shifted = s * s + par
        q = s * utf / shifted
        qnorm = _norm(q)
        previous = fp
        fp = qnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= previous < 0.0) or it == 10:
            break
        # Newton correction
        parc = fp / delta / (_norm(q / np.sqrt(shifted)) / qnorm) ** 2
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, q
