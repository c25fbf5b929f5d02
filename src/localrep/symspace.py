"""Symmetric space of determinant-one SPD matrices and displacement geometry.

The space carries the usual invariant metric d(x, y) = sqrt(sum log^2 mu_i)
with mu_i the eigenvalues of x^-1 y, and an invertible g acts by
x -> g x g^T.  For a tuple of generators the displacement function

    d_rho(x) = sqrt(sum_s d(x, rho(s) x)^2)

is geodesically convex.  Its infimum is attained exactly when the tuple is
completely reducible (cr), and the infimum lambda(rho) equals
lambda(rho_ss) of the semisimplification.  :func:`minimize_displacement`
therefore takes its verdict from :func:`reptheory.is_cr` and measures
lambda by one descent: ATTAINED for a cr tuple (descent on rho, whose last
iterate is the minimiser), DIVERGED for a non-cr one (descent on rho_ss,
no minimiser), and MAXITER when the descent's budget runs out.  Real
generators are rescaled to |det| = 1 on ingestion, which quotients away the
scaling direction without changing the displacement data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotRealFieldError,
    SingularMatrixError,
)
from .reptheory import Representation, is_cr, semisimplify

ATTAINED = "ATTAINED"
DIVERGED = "DIVERGED"
MAXITER = "MAXITER"

GRAD_TOL = 1e-6
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
INITIAL_STEP = 1.0
MAX_STEP = 1e6


class SPDPoint:
    """Symmetric positive definite matrix of determinant one."""

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError("point must be a square matrix")
        if not np.allclose(m, m.T, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
            raise ValueError("point must be symmetric")
        eig = np.linalg.eigvalsh(m)
        if eig.min() <= 0:
            raise ValueError("point must be positive definite")
        det = float(np.prod(eig))
        if abs(det - 1.0) > 1e-9 * max(1.0, det):
            raise ValueError(f"determinant {det} is not 1")
        self.m = 0.5 * (m + m.T)

    @classmethod
    def identity(cls, n: int) -> "SPDPoint":
        return cls(np.eye(n))

    @classmethod
    def normalized(cls, m) -> "SPDPoint":
        """Rescale a symmetric positive definite matrix to determinant one."""
        m = np.asarray(m, dtype=float)
        _, logdet = np.linalg.slogdet(m)
        return cls(m * math.exp(-logdet / m.shape[0]))

    @property
    def n(self) -> int:
        return self.m.shape[0]

    def __repr__(self) -> str:
        return f"SPDPoint({self.m.tolist()})"


def _sym_exp(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * np.exp(w)) @ v.T


def _sqrt_inv_sqrt(x: np.ndarray):
    w, v = np.linalg.eigh(x)
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T


def dist(x: SPDPoint, y: SPDPoint) -> float:
    """Invariant metric: sqrt of the sum of squared log-eigenvalues of x^-1 y."""
    if x.n != y.n:
        raise DimensionMismatchError(f"{x.n} vs {y.n}")
    _, xinv_half = _sqrt_inv_sqrt(x.m)
    a = xinv_half @ y.m @ xinv_half
    w = np.linalg.eigvalsh(a)
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def _action_matrices(rho: Representation) -> dict:
    """Generator matrices as floats, rescaled to |det| = 1."""
    if not rho.field.is_real:
        raise NotRealFieldError("displacement geometry needs the real field")
    out = {}
    for s, m in rho.gens.items():
        arr = np.array([[float(x) for x in row] for row in m.data], dtype=float)
        det = abs(float(np.linalg.det(arr)))
        if det == 0.0:
            raise SingularMatrixError(f"generator {s!r} is singular")
        out[s] = arr / det ** (1.0 / rho.n)
    return out


def act(g: np.ndarray, x: SPDPoint) -> SPDPoint:
    return SPDPoint.normalized(g @ x.m @ g.T)


def displacement(rho: Representation, x: SPDPoint) -> float:
    """d_rho(x) = sqrt(sum_s d(x, rho(s) x)^2)."""
    mats = _action_matrices(rho)
    total = 0.0
    for g in mats.values():
        total += dist(x, act(g, x)) ** 2
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# smooth objective on the conjugator: J(h) = sum_s tr(log^2(M_s M_s^T))


def _objective_terms(mats, h: np.ndarray):
    hinv = np.linalg.inv(h)
    terms = []
    for g in mats:
        m = hinv @ g @ h
        a = m @ m.T
        terms.append((m, a))
    return terms


def _objective(mats, h: np.ndarray) -> float:
    total = 0.0
    for _, a in _objective_terms(mats, h):
        w = np.clip(np.linalg.eigvalsh(a), 1e-300, None)
        total += float(np.sum(np.log(w) ** 2))
    return total


def _gradient(mats, h: np.ndarray) -> np.ndarray:
    """Gradient of J in the symmetric traceless direction space at h.

    Moving along h exp(tH) with H symmetric traceless, the derivative is
    <grad, H>, with grad = 4 sum_s (M^T L M - log A), L = log(A) A^-1.
    """
    n = h.shape[0]
    grad = np.zeros((n, n))
    for m, a in _objective_terms(mats, h):
        w, v = np.linalg.eigh(a)
        w = np.clip(w, 1e-300, None)
        log_a = (v * np.log(w)) @ v.T
        l_mat = (v * (np.log(w) / w)) @ v.T
        grad += 4.0 * (m.T @ l_mat @ m - log_a)
    grad = 0.5 * (grad + grad.T)
    grad -= np.trace(grad) / n * np.eye(n)
    return grad


def grad_objective(rho: Representation, h, H) -> float:
    """Directional derivative of J at h along the direction H.

    The Frobenius pairing of H with :func:`_gradient`, the gradient that the
    descent follows.  That gradient lives in the symmetric traceless
    matrices, the tangent space of determinant-one SPD matrices, so any
    other H is taken through its symmetric traceless part.
    """
    mats = list(_action_matrices(rho).values())
    h = np.asarray(h, dtype=float)
    if abs(float(np.linalg.det(h))) < 1e-12:
        raise SingularMatrixError("conjugator is singular")
    return float(np.sum(_gradient(mats, h) * np.asarray(H, dtype=float)))


@dataclass
class DisplacementReport:
    lambda_est: float
    attained: str                    # ATTAINED | DIVERGED | MAXITER
    minimizer: SPDPoint | None
    iterations: int
    trace: list                      # (objective, accepted step, |h|_F) per iteration
    grad_norm: float

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lambda_est,
            "status": self.attained,
            "minimizer": None if self.minimizer is None else
                [float(v) for v in self.minimizer.m.reshape(-1)],
            "iterations": self.iterations,
            "grad_norm": self.grad_norm,
            "trace": [
                {"objective": o, "step": s, "conjugator_norm": c}
                for o, s, c in self.trace
            ],
        }


def _polish(mats, h: np.ndarray, j: float):
    """Drive the gradient norm down with a machine-floor line search.

    Alternates gradient steps with a Newton-like correction built from the
    gradient difference, both accepted on any decrease above float noise.
    """
    floor = 4.0 * np.finfo(float).eps * max(1.0, j)
    gn = float(np.linalg.norm(_gradient(mats, h)))
    for _ in range(300):
        if gn <= GRAD_TOL:
            break
        grad = _gradient(mats, h)
        gn = float(np.linalg.norm(grad))
        if gn <= GRAD_TOL:
            break
        # estimate the bowl scale from a secant along the gradient, then
        # take the quasi-Newton step length gn / curvature
        direction = -grad / gn
        eps_t = 1e-4
        grad_eps = _gradient(mats, h @ _sym_exp(eps_t * direction))
        curve = float(np.linalg.norm(grad_eps - grad)) / eps_t
        steps = [gn / curve] if curve > 1e-12 else []
        steps.append(INITIAL_STEP)
        accepted = False
        for t0 in steps:
            t = t0
            while t > 1e-14:
                h_new = h @ _sym_exp(t * direction)
                j_new = _objective(mats, h_new)
                if j_new <= j - floor:
                    h, j = h_new, j_new
                    accepted = True
                    break
                t *= ARMIJO_SHRINK
            if accepted:
                break
        if not accepted:
            break
    gn = float(np.linalg.norm(_gradient(mats, h)))
    return h, j, gn


def _descend(mats, n: int, budget: int):
    """Armijo descent on the conjugator h (x = h h^T), then :func:`_polish`.

    Normalised steepest descent with backtracking; the trial step doubles
    while full steps keep being accepted.  The walk stops when the gradient
    norm is at most ``GRAD_TOL`` or no Armijo step is accepted, and is then
    polished.  Returns ``(h, objective, iterations, trace, grad_norm,
    done)``, where ``done`` is False when the budget ran out first (no
    polish then).
    """
    h = np.eye(n)
    j_cur = _objective(mats, h)
    trace = []
    t_init = INITIAL_STEP
    for it in range(budget):
        grad = _gradient(mats, h)
        gn = float(np.linalg.norm(grad))
        if gn <= GRAD_TOL:
            break
        direction = -grad / gn
        t = t_init
        accepted = None
        floor = 1e-12 * max(1.0, j_cur)
        while t > 1e-12:
            h_new = h @ _sym_exp(t * direction)
            j_new = _objective(mats, h_new)
            if j_new <= j_cur - max(ARMIJO_C * t * gn, floor):
                accepted = t
                break
            t *= ARMIJO_SHRINK
        if accepted is None:
            break
        h, j_cur = h_new, j_new
        trace.append((j_cur, accepted, float(np.linalg.norm(h))))
        # grow the trial step while full steps are accepted, shrink otherwise
        if accepted >= t_init * 0.999:
            t_init = min(t_init * 2.0, MAX_STEP)
        else:
            t_init = max(accepted * 2.0, INITIAL_STEP)
    else:
        gn = float(np.linalg.norm(_gradient(mats, h)))
        return h, j_cur, budget, trace, gn, False
    h, j_cur, gn = _polish(mats, h, j_cur)
    return h, j_cur, it, trace, gn, True


def minimize_displacement(rho: Representation, budget: int = 5000) -> DisplacementReport:
    """Minimise the displacement function over the SPD space.

    The infimum of d_rho is attained exactly when rho is completely
    reducible, and it equals lambda(rho_ss) either way.  So the verdict
    comes from :func:`is_cr`, and the descent (:func:`_descend`) only
    measures lambda:

    * ATTAINED: rho is cr; the descent ran on rho and its final iterate is
      the minimiser;
    * DIVERGED: rho is not cr; the descent ran on ``semisimplify(rho).rho_ss``,
      whose minimum is the infimum of d_rho, and there is no minimiser;
    * MAXITER: the descent's budget ran out first (no minimiser).
    """
    mats = list(_action_matrices(rho).values())
    cr = is_cr(rho)
    if not cr:
        mats = list(_action_matrices(semisimplify(rho).rho_ss).values())
    h, j, iterations, trace, gn, done = _descend(mats, rho.n, budget)
    if not done:
        status, minimizer = MAXITER, None
    elif cr:
        status, minimizer = ATTAINED, SPDPoint.normalized(h @ h.T)
    else:
        status, minimizer = DIVERGED, None
    return DisplacementReport(
        lambda_est=math.sqrt(max(j, 0.0)), attained=status, minimizer=minimizer,
        iterations=iterations, trace=trace, grad_norm=gn,
    )
