"""Independent checks of the program's JSON reports.

Each checker recomputes what a report claims from the problem data alone,
with numpy and no nsdpcheck function, and raises ``CheckError`` on the first
claim that does not hold.  ``KnownFault`` marks the one wrong answer the
benchmark keeps on purpose (see README.md): such an operation counts as
failed, not as incorrect.
"""

from __future__ import annotations

import numpy as np

# Tolerances of the program's defaults (--tol, default rank tolerance).
TOL = 1e-8
RANK_REL = 1e-8


class CheckError(AssertionError):
    """A report claims something the problem data contradict."""


class KnownFault(Exception):
    """The report shows the fault this workload keeps and counts as failed."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, rel: float, what: str) -> None:
    require(
        a is not None and abs(a - b) <= rel * max(abs(b), 1e-300),
        f"{what}: {a!r} differs from {b!r} by more than {rel:g} relative",
    )


# -- problem data ---------------------------------------------------------------


def dense(obj: dict) -> np.ndarray:
    m = int(obj["m"])
    a = np.zeros((m, m))
    i, j = np.tril_indices(m)
    a[i, j] = obj["lower"]
    a[j, i] = obj["lower"]
    return a


class Problem:
    """f(x) = c + g.x + x.h.x/2 and F(x) = A0 + sum x_i A_i + 1/2 sum x_i x_j B_ij,
    read from the problem document the program was given."""

    def __init__(self, doc: dict):
        self.n, self.m = int(doc["n"]), int(doc["m"])
        self.c = float(doc["f"].get("c", 0.0))
        self.g = np.asarray(doc["f"]["g"], dtype=float)
        self.h = dense({"m": self.n, "lower": doc["f"]["h"]})
        self.a0 = dense(doc["F"]["A0"])
        self.a = np.stack([dense(ai) for ai in doc["F"]["A"]])
        self.b = np.zeros((self.n, self.n, self.m, self.m))
        if doc["F"].get("B") is not None:
            for i, row in enumerate(doc["F"]["B"]):
                for j, bij in enumerate(row):
                    if bij is not None:
                        self.b[i, j] = dense(bij)
        self.xbar = np.asarray(doc["xbar"], dtype=float)

    def f(self, x) -> float:
        return float(self.c + self.g @ x + 0.5 * x @ self.h @ x)

    def grad_f(self, x) -> np.ndarray:
        return self.g + self.h @ x

    def F(self, x) -> np.ndarray:
        return (
            self.a0
            + np.einsum("i,ikl->kl", x, self.a)
            + 0.5 * np.einsum("i,j,ijkl->kl", x, x, self.b)
        )

    def dF(self, x, u) -> np.ndarray:
        return np.einsum("i,ikl->kl", u, self.a) + np.einsum("i,j,ijkl->kl", u, x, self.b)

    def d2F(self, u) -> np.ndarray:
        return np.einsum("i,j,ijkl->kl", u, u, self.b)

    def adjoint_dF(self, x, y) -> np.ndarray:
        return np.einsum("kl,ikl->i", y, self.a) + np.einsum("kl,ijkl,j->i", y, self.b, x)


def dist_psd(a: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(a)
    return float(np.sqrt(np.sum(np.minimum(lam, 0.0) ** 2)))


def kernel_basis(a: np.ndarray) -> np.ndarray:
    """Columns spanning the eigenvalues within the default rank tolerance."""
    lam, vec = np.linalg.eigh(a)
    tol = RANK_REL * max(1.0, float(np.abs(lam).max()))
    return vec[:, np.abs(lam) <= tol]


# -- check-sosc -------------------------------------------------------------------


def check_certificate(p: Problem, cert: dict) -> None:
    """Re-check one direction certificate against the problem data."""
    x = p.xbar
    u = np.asarray(cert["direction"], dtype=float)
    alpha = cert["alpha"]
    y = dense(cert["ystar"])
    fx = p.F(x)
    gf = p.grad_f(x)
    require(alpha >= 0.0, f"alpha = {alpha!r} is negative")
    ynorm = float(np.linalg.norm(y))
    require(alpha + ynorm > 0.0, "certificate is the zero multiplier")

    lam_max = float(np.linalg.eigvalsh(y)[-1])
    require(lam_max <= 1e-6 * max(1.0, ynorm), f"Ystar has eigenvalue {lam_max:.3e} > 0")
    comp = float(np.linalg.norm(y @ fx))
    require(
        comp <= 1e-8 * max(1.0, ynorm * float(np.linalg.norm(fx))),
        f"|Ystar F(xbar)| = {comp:.3e}",
    )
    scale = max(1.0, alpha * float(np.linalg.norm(gf)) + ynorm * float(np.linalg.norm(p.a)))
    residual = float(np.linalg.norm(alpha * gf + p.adjoint_dF(x, y)))
    require(residual <= 1e-8 * scale, f"stationarity residual {residual:.3e}")

    unorm = float(np.linalg.norm(u))
    require(unorm > 0.0, "zero direction")
    slope = float(gf @ u)
    require(slope <= TOL * max(1.0, unorm), f"objective slope {slope:.3e} along the direction")
    v = p.dF(x, u)
    k = kernel_basis(fx)
    if k.shape[1]:
        lam_min = float(np.linalg.eigvalsh(k.T @ v @ k)[0])
        require(lam_min >= -TOL, f"direction leaves the tangent cone ({lam_min:.3e})")

    fdag = np.linalg.pinv(fx, rcond=1e-10, hermitian=True)
    margin = (
        alpha * float(u @ p.h @ u)
        + float(np.sum(y * p.d2F(u)))
        - 2.0 * float(np.sum(y * (v @ fdag @ v)))
    )
    require(
        abs(cert["margin"] - margin) <= 1e-8 * max(1.0, abs(margin)),
        f"certificate margin {cert['margin']!r}, recomputed {margin!r}",
    )


def check_verified(doc: dict, report: dict, margin: float) -> None:
    result = report["result"]
    require(result["verdict"] == "VERIFIED_SAMPLED", f"verdict {result['verdict']}")
    certs = result["certificates"]
    require(result["directions_checked"] >= 1, "no direction checked")
    require(len(certs) == result["directions_checked"], "one certificate per direction")
    close(result["min_margin"], margin, 1e-6, "min_margin")
    require(
        result["min_margin"] == min(c["margin"] for c in certs),
        "min_margin is not the smallest certificate margin",
    )
    p = Problem(doc)
    for cert in certs:
        check_certificate(p, cert)


def check_sosc_sampler(doc: dict, expect: dict, report: dict) -> None:
    """P1 scaled by c, congruence-transformed and possibly rotated: margin 2c.
    A rotated instance whose off-axis critical line the sampler misses is the
    kept fault."""
    result = report["result"]
    if (
        expect["rotated"]
        and result["verdict"] == "CRITICAL_CONE_TRIVIAL"
        and result["directions_checked"] == 0
    ):
        raise KnownFault("rotated P1: the sampler misses the off-axis critical line")
    check_verified(doc, report, expect["margin"])


def check_sosc_multiplier(doc: dict, expect: dict, report: dict) -> None:
    """One critical direction, u = +1, whose multipliers force W = 0: margin h."""
    require(report["result"]["directions_checked"] == 1, "expected one critical direction")
    check_verified(doc, report, expect["margin"])


# -- growth -------------------------------------------------------------------------


def growth_ratio(p: Problem, x: np.ndarray) -> float:
    off = x - p.xbar
    gap = p.f(x) - p.f(p.xbar)
    return max(gap, dist_psd(p.F(x))) / float(off @ off)


def check_growth(doc: dict, expect: dict, report: dict) -> None:
    result = report["result"]
    p = Problem(doc)
    eps, beta, n_samples = expect["epsilon"], expect["beta"], expect["samples"]
    require(result["epsilon"] == eps and result["beta"] == beta, "epsilon/beta not echoed")
    want = n_samples + n_samples // 10 + 4 * p.n
    require(result["samples"] == want, f"samples {result['samples']}, expected {want}")
    worst = np.asarray(result["worst_point"], dtype=float)
    require(
        float(np.linalg.norm(worst - p.xbar)) <= eps * (1.0 + 1e-12),
        "worst point outside the epsilon-ball",
    )
    min_ratio = result["min_ratio"]
    close(min_ratio, growth_ratio(p, worst), 1e-9, "min_ratio at worst_point")
    for i in range(p.n):
        for step in (eps, -eps, 0.5 * eps, -0.5 * eps):
            x = p.xbar.copy()
            x[i] += step
            axis = growth_ratio(p, x)
            require(
                min_ratio <= axis + 1e-9 * max(1.0, abs(axis)),
                f"min_ratio {min_ratio!r} above the ratio {axis!r} at axis point {i}",
            )
    require(
        (result["violations"] == 0) == (min_ratio >= beta),
        f"violations {result['violations']} inconsistent with min_ratio {min_ratio!r}",
    )


# -- subderivative ------------------------------------------------------------------


def check_subderivative(doc: dict, expect: dict, report: dict) -> None:
    y, ystar, v = dense(doc["Y"]), dense(doc["Ystar"]), dense(doc["V"])
    result, triple = report["result"], report["triple"]
    closed = result["closed_form"]
    require(closed["tag"] == "finite", f"closed form tagged {closed['tag']}")
    ydag = np.linalg.pinv(y, rcond=1e-10, hermitian=True)
    want = -2.0 * float(np.sum(ystar * (v @ ydag @ v)))
    close(closed["value"], want, 1e-9, "closed form")
    estimate = result["sampling_estimate"]
    require(
        estimate is not None and estimate >= want - 1e-6,
        f"sampling estimate {estimate!r} undercuts the closed form {want!r}",
    )
    trace = result["trace"]
    require(len(trace) > 0, "empty trace")
    require(
        all(a["t"] > b["t"] for a, b in zip(trace, trace[1:])), "trace steps not decreasing"
    )
    for level in trace:
        q, rq = level["min_quotient"], level["recovery_quotient"]
        if rq is not None:
            require(q is not None and q <= rq, "min quotient above the recovery quotient")
    finest = trace[-1]["recovery_quotient"]
    require(
        finest is not None and abs(finest - want) <= 1e-6,
        f"finest recovery quotient {finest!r} is not within 1e-6 of {want!r}",
    )
    lam = np.linalg.eigvalsh(y)[::-1]
    got = np.asarray(triple["y_eigenvalues"], dtype=float)
    require(
        got.shape == lam.shape
        and float(np.max(np.abs(got - lam))) <= 1e-9 * max(1.0, float(np.abs(lam).max())),
        "Y eigenvalues differ from numpy.linalg.eigvalsh",
    )
    rank, m = expect["rank"], y.shape[0]
    require(len(triple["pi"]) == rank, f"|pi| = {len(triple['pi'])}, rank is {rank}")
    require(len(triple["omega"]) == m - rank, f"|omega| = {len(triple['omega'])}")


CHECKERS = {
    "sosc-sampler": check_sosc_sampler,
    "sosc-multiplier": check_sosc_multiplier,
    "growth": check_growth,
    "subderivative": check_subderivative,
}

