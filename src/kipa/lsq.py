"""Levenberg-Marquardt least squares in numpy, after MINPACK's ``lmder``.

The trust-region iteration of Moré, "The Levenberg-Marquardt algorithm:
implementation and theory" (1978), as MINPACK implements it (see also
Nocedal & Wright, *Numerical Optimization*, ch. 10): a QR factorisation
of the Jacobian with column pivoting, the Levenberg-Marquardt parameter
found by a safeguarded Newton iteration on the scaled step length, the
variables scaled by the running maximum of the Jacobian's column norms,
and MINPACK's step-bound updates and ftol/xtol/gtol convergence tests.

The fits here have one to three parameters, so the n-by-n triangular
algebra runs on Python floats and only the m-long residual and Jacobian
columns are numpy arrays.
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
        r, perm, qtf, acnorm = _qr_pivoted(jt, f)
        if diag is None:
            diag = [c if c != 0.0 else 1.0 for c in acnorm]
            xnorm = math.hypot(*(d * xi for d, xi in zip(diag, x.tolist())))
            delta = _FACTOR * xnorm if xnorm != 0.0 else _FACTOR
            first = True
        # cosine between f and the Jacobian columns
        gnorm = 0.0
        if fnorm != 0.0:
            for j in range(n):
                c = acnorm[perm[j]]
                if c != 0.0:
                    s = sum(r[i][j] * (qtf[i] / fnorm) for i in range(j + 1))
                    gnorm = max(gnorm, abs(s / c))
        if gnorm <= tol:
            return LeastSquaresFit(x, f)
        diag = [max(d, c) for d, c in zip(diag, acnorm)]
        while True:
            par, step = _lm_parameter(r, perm, diag, qtf, delta, par)
            step = [-s for s in step]
            pnorm = math.hypot(*(d * s for d, s in zip(diag, step)))
            if first:
                delta = min(delta, pnorm)
            x_try = x + step
            evaluate(x_try, f_try, jt_try)
            nfev += 1
            fnorm1 = _finite_norm(f_try, jt_try)
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            # reduction the linear model predicts, and its directional derivative
            rp = [sum(r[i][j] * step[perm[j]] for j in range(i, n)) for i in range(n)]
            temp1 = math.hypot(*rp) / fnorm
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
                xnorm = math.hypot(*(d * xi for d, xi in zip(diag, x.tolist())))
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


def _qr_pivoted(jt: np.ndarray, f: np.ndarray):
    """Householder QR of J with column pivoting (MINPACK ``qrfac``), and Qᵀf.

    Returns R as an n-by-n list (upper triangle and diagonal; the lower
    triangle is scratch for ``_qr_solve``), the pivot order, the first n
    entries of Qᵀf, and the column norms of J.
    """
    n = jt.shape[0]
    a = np.empty((n + 1, jt.shape[1]))   # Jᵀ with fᵀ below: one reflection updates both
    a[:n] = jt
    a[n] = f
    acnorm = np.sqrt(np.einsum("ij,ij->i", jt, jt)).tolist()
    rdiag = list(acnorm)
    wa = list(acnorm)
    perm = list(range(n))
    for j in range(n):
        kmax = max(range(j, n), key=rdiag.__getitem__)
        if kmax != j:
            a[[j, kmax]] = a[[kmax, j]]
            rdiag[kmax] = rdiag[j]
            wa[kmax] = wa[j]
            perm[j], perm[kmax] = perm[kmax], perm[j]
        v = a[j, j:]
        ajnorm = math.sqrt(float(v @ v))
        if ajnorm != 0.0:
            if v[0] < 0.0:
                ajnorm = -ajnorm
            v /= ajnorm
            v[0] += 1.0
            rest = a[j + 1:, j:]
            rest -= np.outer((rest @ v) / v[0], v)
            for k in range(j + 1, n):
                if rdiag[k] != 0.0:
                    t = a[k, j] / rdiag[k]
                    rdiag[k] *= math.sqrt(max(0.0, 1.0 - t * t))
                    if 0.05 * (rdiag[k] / wa[k]) ** 2 <= _EPS:
                        tail = a[k, j + 1:]
                        rdiag[k] = math.sqrt(float(tail @ tail))
                        wa[k] = rdiag[k]
        rdiag[j] = -ajnorm
    r = a[:n, :n].T.tolist()
    for j in range(n):
        r[j][j] = rdiag[j]
    return r, perm, a[n, :n].tolist(), acnorm


def _lm_parameter(r, perm, diag, qtb, delta, par):
    """Levenberg-Marquardt parameter and step for bound ``delta`` (MINPACK ``lmpar``).

    Returns (par, x) where x solves min ‖Jx + f‖ subject to ‖Dx‖ ≈ delta
    (within 10 %), or the Gauss-Newton step with par = 0 when that is short
    enough.  The step points downhill from -x; the caller negates it.
    """
    n = len(r)
    # Gauss-Newton direction; a least-squares solution if R is singular
    nsing = n
    wa1 = list(qtb)
    for j in range(n):
        if r[j][j] == 0.0 and nsing == n:
            nsing = j
        if nsing < n:
            wa1[j] = 0.0
    for j in range(nsing - 1, -1, -1):
        wa1[j] /= r[j][j]
        for i in range(j):
            wa1[i] -= r[i][j] * wa1[j]
    x = [0.0] * n
    for j in range(n):
        x[perm[j]] = wa1[j]
    dx = [d * xi for d, xi in zip(diag, x)]
    dxnorm = math.hypot(*dx)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, x
    # lower bound from the Newton step (zero if R is singular), upper bound
    # from the gradient
    parl = 0.0
    if nsing == n:
        wa1 = [diag[perm[j]] * (dx[perm[j]] / dxnorm) for j in range(n)]
        for j in range(n):
            wa1[j] = (wa1[j] - sum(r[i][j] * wa1[i] for i in range(j))) / r[j][j]
        temp = math.hypot(*wa1)
        parl = fp / delta / temp / temp
    wa1 = [sum(r[i][j] * qtb[i] for i in range(j + 1)) / diag[perm[j]] for j in range(n)]
    gnorm = math.hypot(*wa1)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for it in range(1, 11):
        if par == 0.0:
            par = max(_DWARF, 0.001 * paru)
        sq = math.sqrt(par)
        x, sdiag = _qr_solve(r, perm, [sq * d for d in diag], qtb)
        dx = [d * xi for d, xi in zip(diag, x)]
        dxnorm = math.hypot(*dx)
        previous = fp
        fp = dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= previous < 0.0) or it == 10:
            break
        # Newton correction
        wa1 = [diag[perm[j]] * (dx[perm[j]] / dxnorm) for j in range(n)]
        for j in range(n):
            wa1[j] /= sdiag[j]
            for i in range(j + 1, n):
                wa1[i] -= r[i][j] * wa1[j]
        temp = math.hypot(*wa1)
        parc = fp / delta / temp / temp
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, x


def _qr_solve(r, perm, d, qtb):
    """Solve [J; D] x ≈ [-f; 0] in least squares from J's QR (MINPACK ``qrsolv``).

    Givens rotations fold the diagonal D into R, giving an upper triangular
    S with Sᵀ S = Pᵀ(JᵀJ + DᵀD)P.  S's strict upper triangle is stored
    transposed in r's lower triangle, its diagonal returned as ``sdiag``.
    """
    n = len(r)
    for j in range(n):
        for i in range(j, n):
            r[i][j] = r[j][i]
    rd = [r[j][j] for j in range(n)]
    wa = list(qtb)
    sdiag = [0.0] * n
    for j in range(n):
        dj = d[perm[j]]
        if dj != 0.0:
            for k in range(j, n):
                sdiag[k] = 0.0
            sdiag[j] = dj
            qtbpj = 0.0
            for k in range(j, n):
                if sdiag[k] == 0.0:
                    continue
                if abs(r[k][k]) < abs(sdiag[k]):
                    cotan = r[k][k] / sdiag[k]
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * cotan * cotan)
                    cos = sin * cotan
                else:
                    tan = sdiag[k] / r[k][k]
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * tan * tan)
                    sin = cos * tan
                r[k][k] = cos * r[k][k] + sin * sdiag[k]
                temp = cos * wa[k] + sin * qtbpj
                qtbpj = -sin * wa[k] + cos * qtbpj
                wa[k] = temp
                for i in range(k + 1, n):
                    temp = cos * r[i][k] + sin * sdiag[i]
                    sdiag[i] = -sin * r[i][k] + cos * sdiag[i]
                    r[i][k] = temp
        sdiag[j] = r[j][j]
        r[j][j] = rd[j]
    nsing = n
    for j in range(n):
        if sdiag[j] == 0.0 and nsing == n:
            nsing = j
        if nsing < n:
            wa[j] = 0.0
    for j in range(nsing - 1, -1, -1):
        s = sum(r[i][j] * wa[i] for i in range(j + 1, nsing))
        wa[j] = (wa[j] - s) / sdiag[j]
    x = [0.0] * n
    for j in range(n):
        x[perm[j]] = wa[j]
    return x, sdiag
