"""Problem model: minimize a quadratic objective subject to an
affine-quadratic matrix map staying positive semidefinite.

The data class fixes f(x) = c + g.x + x.h.x/2 and
F(x) = A0 + sum_i x_i A_i + 1/2 sum_ij x_i x_j B_ij, so every first and
second derivative is exact and closed under the JSON format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symmat import SymMat, _tril_size, _tril_weights, frobenius_inner, lower_to_dense


def _lower_to_dense(n: int, lower) -> np.ndarray:
    lower = np.asarray(lower, dtype=float)
    if lower.shape != (_tril_size(n),):
        raise ValueError(
            f"lower triangle for dimension {n} needs {_tril_size(n)} entries, "
            f"got shape {lower.shape}"
        )
    return lower_to_dense(n, lower)


@dataclass(frozen=True, eq=False)
class QuadraticScalar:
    """f(x) = c + g.x + 0.5 x.h.x with constant symmetric Hessian h."""

    c: float
    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        h = np.asarray(self.h, dtype=float)
        n = g.shape[0]
        if g.ndim != 1 or h.shape != (n, n):
            raise ValueError("gradient/Hessian shapes inconsistent")
        if not (np.isfinite(self.c) and np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise ValueError("objective data must be finite")
        if np.abs(h - h.T).max(initial=0.0) > 1e-12 * max(1.0, np.abs(h).max(initial=0.0)):
            raise ValueError("Hessian must be symmetric")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", 0.5 * (h + h.T))

    @property
    def n(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True, eq=False)
class QuadraticMatrixMap:
    """F(x) = a0 + sum_i x_i a[i] + 0.5 sum_ij x_i x_j b[i][j]; b may be None."""

    a0: SymMat
    a: tuple
    b: tuple | None = None

    def __post_init__(self):
        a = tuple(self.a)
        m = self.a0.m
        for mat in a:
            if mat.m != m:
                raise ValueError("linear coefficient dimension mismatch")
        n = len(a)
        b = self.b
        if b is not None:
            b = tuple(tuple(row) for row in b)
            if len(b) != n or any(len(row) != n for row in b):
                raise ValueError(f"quadratic coefficients must form an {n}x{n} grid")
            for i in range(n):
                for j in range(n):
                    if b[i][j].m != m:
                        raise ValueError("quadratic coefficient dimension mismatch")
                    if not np.array_equal(b[i][j].lower, b[j][i].lower):
                        raise ValueError("quadratic coefficients must satisfy b[i][j] == b[j][i]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        # Stacked lower triangles make repeated evaluation cheap.
        a_stack = (
            np.stack([mat.lower for mat in a]) if a else np.zeros((0, _tril_size(m)))
        )
        b_stack = (
            np.stack([np.stack([mat.lower for mat in row]) for row in b])
            if b is not None
            else None
        )
        object.__setattr__(self, "_a_stack", a_stack)
        object.__setattr__(self, "_b_stack", b_stack)

    _a_stack: np.ndarray = field(init=False, repr=False, default=None)
    _b_stack: np.ndarray = field(init=False, repr=False, default=None)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return self.a0.m


@dataclass(frozen=True, eq=False)
class NlsdpProblem:
    """min f(x) subject to F(x) positive semidefinite."""

    n: int
    m: int
    f: QuadraticScalar
    F: QuadraticMatrixMap

    def __post_init__(self):
        if self.f.n != self.n:
            raise ValueError(f"objective dimension {self.f.n} != n = {self.n}")
        if self.F.n != self.n or self.F.m != self.m:
            raise ValueError("constraint map dimensions inconsistent with n, m")


def _check_x(p: NlsdpProblem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"point must have shape ({p.n},), got {x.shape}")
    return x


def _check_rows(p: NlsdpProblem, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != p.n:
        raise ValueError(f"points must have shape (k, {p.n}), got {xs.shape}")
    return xs


def eval_f_batch(p: NlsdpProblem, xs) -> np.ndarray:
    """f at every row of the (k, n) array xs."""
    xs = _check_rows(p, xs)
    return p.f.c + xs @ p.f.g + 0.5 * np.einsum("ki,ki->k", xs @ p.f.h, xs)


def eval_f(p: NlsdpProblem, x) -> float:
    return float(eval_f_batch(p, _check_x(p, x)[None, :])[0])


def grad_f(p: NlsdpProblem, x) -> np.ndarray:
    x = _check_x(p, x)
    return p.f.g + p.f.h @ x


def hess_f(p: NlsdpProblem, x=None) -> np.ndarray:
    """Constant Hessian of the quadratic objective."""
    return p.f.h.copy()


def eval_F_batch(p: NlsdpProblem, xs) -> np.ndarray:
    """Lower triangles of F at every row of the (k, n) array xs, as a
    (k, m(m+1)/2) array."""
    xs = _check_rows(p, xs)
    lower = p.F.a0.lower + xs @ p.F._a_stack
    if p.F._b_stack is not None:
        k, n = xs.shape
        outer = np.einsum("ki,kj->kij", xs, xs).reshape(k, n * n)
        lower += 0.5 * (outer @ p.F._b_stack.reshape(n * n, -1))
    return lower


def eval_F(p: NlsdpProblem, x) -> SymMat:
    return SymMat(p.m, eval_F_batch(p, _check_x(p, x)[None, :])[0])


def dF(p: NlsdpProblem, x, u) -> SymMat:
    """Directional derivative of F at x in direction u."""
    x = _check_x(p, x)
    u = _check_x(p, u)
    lower = p.F._a_stack.T @ u
    if p.F._b_stack is not None:
        lower = lower + np.einsum("i,j,ijl->l", u, x, p.F._b_stack)
    return SymMat(p.m, lower)


def adjoint_dF(p: NlsdpProblem, x, ystar: SymMat) -> np.ndarray:
    """Adjoint of dF(x, .): the unique vector with
    <ystar, dF(x, u)> = adjoint_dF(x, ystar) . u for all u."""
    x = _check_x(p, x)
    if ystar.m != p.m:
        raise ValueError("multiplier dimension mismatch")
    weighted = _tril_weights(p.m, 2.0) * ystar.lower
    out = p.F._a_stack @ weighted
    if p.F._b_stack is not None:
        out = out + np.einsum("ijl,j,l->i", p.F._b_stack, x, weighted)
    return out


def d2F(p: NlsdpProblem, x, u) -> SymMat:
    """Second derivative of F contracted twice with u; constant in x."""
    u = _check_x(p, u)
    if p.F._b_stack is None:
        return SymMat.zeros(p.m)
    lower = np.einsum("i,j,ijl->l", u, u, p.F._b_stack)
    return SymMat(p.m, lower)


def lagrangian_grad(p: NlsdpProblem, alpha: float, x, ystar: SymMat) -> np.ndarray:
    """Gradient in x of alpha * f(x) + <ystar, F(x)>."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return alpha * grad_f(p, x) + adjoint_dF(p, x, ystar)


def lagrangian_hess_form(p: NlsdpProblem, alpha: float, x, ystar: SymMat, u) -> float:
    """Quadratic form u . Lxx . u of alpha * f + <ystar, F> at x."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    u = _check_x(p, u)
    return float(alpha * u @ p.f.h @ u + frobenius_inner(ystar, d2F(p, None, u)))


# -- JSON wire format ---------------------------------------------------------


def _field(obj, path: str):
    """Value at a dotted path through nested JSON objects; a missing step
    raises KeyError(path)."""
    for key in path.split("."):
        if not isinstance(obj, dict) or key not in obj:
            raise KeyError(path)
        obj = obj[key]
    return obj


def problem_from_json(obj: dict) -> tuple[NlsdpProblem, np.ndarray]:
    """Parse problem JSON; returns the problem and the candidate point xbar."""
    try:
        n = int(_field(obj, "n"))
        m = int(_field(obj, "m"))
        xbar = np.asarray(_field(obj, "xbar"), dtype=float)
        f = QuadraticScalar(
            g=np.asarray(_field(obj, "f.g"), dtype=float),
            h=_lower_to_dense(n, _field(obj, "f.h")),
            c=float(obj["f"].get("c", 0.0)),
        )
        a0 = SymMat.from_json(_field(obj, "F.A0"))
        a = tuple(SymMat.from_json(entry) for entry in _field(obj, "F.A"))
        b = None
        if obj["F"].get("B") is not None:
            b = tuple(
                tuple(
                    SymMat.zeros(m) if entry is None else SymMat.from_json(entry)
                    for entry in row
                )
                for row in obj["F"]["B"]
            )
    except KeyError as exc:
        raise ValueError(f"problem JSON missing required field: {exc.args[0]}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed problem JSON: {exc}") from exc
    problem = NlsdpProblem(n=n, m=m, f=f, F=QuadraticMatrixMap(a0=a0, a=a, b=b))
    if xbar.shape != (n,):
        raise ValueError(f"xbar must have {n} entries")
    return problem, xbar
