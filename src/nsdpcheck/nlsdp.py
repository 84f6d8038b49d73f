"""Problem model: minimize a quadratic objective subject to an
affine-quadratic matrix map staying positive semidefinite.

The data class fixes f(x) = c + g.x + x.h.x/2 and
F(x) = A0 + sum_i x_i A_i + 1/2 sum_ij x_i x_j B_ij, so every first and
second derivative is exact and closed under the JSON format.  F keeps
its coefficients in that format's row-major lower triangles, stacked into
arrays, so that F and each derivative is one contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symmat import SymMat, _tril_size, _tril_weights, frobenius_inner
from .symmat import json_int, lower_to_dense


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
        if g.ndim != 1 or h.shape != (g.size, g.size):
            raise ValueError("gradient/Hessian shapes inconsistent")
        if not (np.isfinite(self.c) and np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise ValueError("objective data must be finite")
        if np.abs(h - h.T).max(initial=0.0) > 1e-12 * max(1.0, np.abs(h).max(initial=0.0)):
            raise ValueError("Hessian must be symmetric")
        object.__setattr__(self, "g", g)
        # mirror the lower triangle: averaging h + h.T overflows near 1e308
        object.__setattr__(self, "h", np.tril(h) + np.tril(h, -1).T)

    @property
    def n(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True, eq=False)
class QuadraticMatrixMap:
    """F(x) = a0 + sum_i x_i A_i + 0.5 sum_ij x_i x_j B_ij.  ``a[i]`` and
    ``b[i, j]`` are the lower triangles of A_i and B_ij: read-only arrays of
    shape (n, m(m+1)/2) and (n, n, m(m+1)/2); ``b`` may be None."""

    a0: SymMat
    a: np.ndarray
    b: np.ndarray | None = None

    def __post_init__(self):
        t = _tril_size(self.a0.m)
        a = np.array(self.a, dtype=float)
        if a.ndim != 2 or a.shape[1] != t:
            raise ValueError(f"coefficients a must have shape (n, {t}), got {a.shape}")
        n = len(a)
        b = self.b
        if b is not None:
            b = np.array(b, dtype=float)
            if b.shape != (n, n, t):
                raise ValueError(f"coefficients b must have shape {(n, n, t)}, got {b.shape}")
        if not (np.isfinite(a).all() and (b is None or np.isfinite(b).all())):
            raise ValueError("coefficient entries must be finite")
        if b is not None and not np.array_equal(b, b.swapaxes(0, 1)):
            raise ValueError("quadratic coefficients must satisfy b[i, j] == b[j, i]")
        for name, arr in (("a", a), ("b", b)):
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.a.shape[0]

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
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is the caller's to report
        return p.f.c + xs @ p.f.g + 0.5 * np.einsum("ki,ki->k", xs @ p.f.h, xs)


def eval_f(p: NlsdpProblem, x) -> float:
    return float(eval_f_batch(p, _check_x(p, x)[None, :])[0])


def grad_f(p: NlsdpProblem, x) -> np.ndarray:
    x = _check_x(p, x)
    return p.f.g + p.f.h @ x


def _quadratic_rows(a0: np.ndarray, a: np.ndarray, b: np.ndarray | None, xs: np.ndarray):
    """a0 + sum_i x_i a[i] + 0.5 sum_ij x_i x_j b[i, j] for every row x of the
    (k, n) array xs, as a (k, t) array: a0 has shape (t,), a (n, t) and b
    (n, n, t) or None, the layout of ``QuadraticMatrixMap``."""
    out = a0 + xs @ a
    if b is not None:
        k, n = xs.shape
        outer = np.einsum("ki,kj->kij", xs, xs).reshape(k, n * n)
        out += 0.5 * (outer @ b.reshape(n * n, -1))
    return out


def eval_F_batch(p: NlsdpProblem, xs) -> np.ndarray:
    """Lower triangles of F at every row of the (k, n) array xs, as a
    (k, m(m+1)/2) array."""
    return _quadratic_rows(p.F.a0.lower, p.F.a, p.F.b, _check_rows(p, xs))


def eval_F(p: NlsdpProblem, x) -> SymMat:
    return SymMat(p.m, eval_F_batch(p, _check_x(p, x)[None, :])[0])


def _jacobian(p: NlsdpProblem, x) -> np.ndarray:
    """Lower triangles of J_i = dF(x, e_i) = A_i + sum_j x_j B_ij, one row each."""
    return p.F.a if p.F.b is None else p.F.a + np.tensordot(x, p.F.b, 1)


def dF(p: NlsdpProblem, x, u) -> SymMat:
    """Directional derivative of F at x in direction u."""
    x = _check_x(p, x)
    return SymMat(p.m, _check_x(p, u) @ _jacobian(p, x))


def adjoint_dF(p: NlsdpProblem, x, ystar: SymMat) -> np.ndarray:
    """Adjoint of dF(x, .): the unique vector with
    <ystar, dF(x, u)> = adjoint_dF(x, ystar) . u for all u."""
    x = _check_x(p, x)
    if ystar.m != p.m:
        raise ValueError("multiplier dimension mismatch")
    return _jacobian(p, x) @ (_tril_weights(p.m, 2.0) * ystar.lower)


def d2F(p: NlsdpProblem, x, u) -> SymMat:
    """Second derivative of F contracted twice with u; constant in x."""
    u = _check_x(p, u)
    if p.F.b is None:
        return SymMat.zeros(p.m)
    lower = np.einsum("i,j,ijl->l", u, u, p.F.b)
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


def _field(obj, path: str, root: str = "problem JSON"):
    """Value at a dotted path through the nested JSON objects of the
    document named root; a missing step raises KeyError of the path to it,
    a step that is not an object ValueError."""
    keys = path.split(".")
    for depth, key in enumerate(keys):
        if not isinstance(obj, dict):
            node = ".".join(keys[:depth]) or root
            raise ValueError(f"{node} must be an object, got {type(obj).__name__}")
        if key not in obj:
            raise KeyError(".".join(keys[: depth + 1]))
        obj = obj[key]
    return obj


def _json_list(value, name: str) -> list:
    """The JSON list value, named name in the error if it is not a list."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {type(value).__name__}")
    return value


def _stacked_lowers(entries, m: int, name: str, zero_if_none: bool = False) -> np.ndarray:
    """Lower triangles of m x m matrix JSON objects, one row each, named
    name[i] in errors; with zero_if_none, null reads as the zero matrix."""
    mats = [SymMat.zeros(m) if zero_if_none and e is None else SymMat.from_json(e, f"{name}[{i}]")
            for i, e in enumerate(entries)]
    for i, mat in enumerate(mats):
        if mat.m != m:
            raise ValueError(f"{name}[{i}] must have dimension m = {m}, got {mat.m}")
    return np.array([mat.lower for mat in mats]).reshape(len(mats), _tril_size(m))


def problem_from_json(obj: dict) -> tuple[NlsdpProblem, np.ndarray]:
    """Parse problem JSON; returns the problem and the candidate point xbar."""
    try:
        n = json_int(_field(obj, "n"), "n")
        m = json_int(_field(obj, "m"), "m")
        xbar = np.asarray(_field(obj, "xbar"), dtype=float)
        f = QuadraticScalar(
            g=np.asarray(_field(obj, "f.g"), dtype=float),
            h=_lower_to_dense(n, _field(obj, "f.h")),
            c=float(obj["f"].get("c", 0.0)),
        )
        a0 = SymMat.from_json(_field(obj, "F.A0"), "F.A0")
        a = _stacked_lowers(_json_list(_field(obj, "F.A"), "F.A"), a0.m, "F.A")
        b = obj["F"].get("B")
        if b is not None:
            rows = [
                _stacked_lowers(_json_list(row, f"F.B[{i}]"), a0.m, f"F.B[{i}]", zero_if_none=True)
                for i, row in enumerate(_json_list(b, "F.B"))
            ]
            if any(len(row) != len(rows) for row in rows):
                raise ValueError("F.B must be a square grid of matrices")
            b = np.array(rows).reshape(len(rows), len(rows), _tril_size(a0.m))
    except KeyError as exc:
        raise ValueError(f"problem JSON missing required field: {exc.args[0]}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed problem JSON: {exc}") from exc
    problem = NlsdpProblem(n=n, m=m, f=f, F=QuadraticMatrixMap(a0=a0, a=a, b=b))
    if xbar.shape != (n,):
        raise ValueError(f"xbar must have {n} entries")
    if not np.all(np.isfinite(xbar)):
        raise ValueError("xbar must be finite")
    return problem, xbar
