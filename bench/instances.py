"""Seeded instance generators for the benchmark workloads.

Every generator returns a list of ``Instance`` records: the CLI arguments
that precede the input path, the JSON document the program reads, and the
expectations that the checkers in ``checks.py`` hold the report to.  The
program sees only the JSON files written from these documents.

Matrices go to JSON by their row-major lower triangle, as the program's file
format prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# sosc-sampler: a round holds this many instances of each kind.
SAMPLER_PLAIN = 4
SAMPLER_ROTATED = 4
# The rotated instances come from this fixed stream, not from --seed: they
# fail today because of a sampler fault, and a kept failure must not depend
# on the seed.
SAMPLER_ROTATED_SEED = 20_220_925

MULTIPLIER_INSTANCES = 2
GROWTH_INSTANCES = 4
GROWTH_N, GROWTH_M, GROWTH_RANK = 6, 12, 6
GROWTH_EPSILON, GROWTH_BETA, GROWTH_SAMPLES = 0.1, 0.01, 10_000
SUBDERIVATIVE_INSTANCES = 8
SUBDERIVATIVE_M, SUBDERIVATIVE_RANK = 12, 6


@dataclass
class Instance:
    """One operation's input: ``nsdpcheck <argv[0]> FILE <argv[1:]>``."""

    argv: list
    document: dict
    expect: dict


def lower(a: np.ndarray) -> list:
    i, j = np.tril_indices(a.shape[0])
    return [float(v) for v in a[i, j]]


def symmat_json(a: np.ndarray) -> dict:
    return {"m": int(a.shape[0]), "lower": lower(a)}


def problem_json(g, h, a0, a, b=None) -> dict:
    """Problem document for f = g.x + x.h.x/2 and
    F(x) = a0 + sum_i x_i a[i] + 1/2 sum_ij x_i x_j b[i][j] at xbar = 0."""
    n = len(g)
    return {
        "n": n,
        "m": int(a0.shape[0]),
        "f": {"c": 0.0, "g": [float(v) for v in g], "h": lower(np.asarray(h))},
        "F": {
            "A0": symmat_json(a0),
            "A": [symmat_json(ai) for ai in a],
            "B": None if b is None else [[symmat_json(bij) for bij in row] for row in b],
        },
        "xbar": [0.0] * n,
    }


def random_orthogonal(rng, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def random_symmetric(rng, m: int, scale: float = 1.0) -> np.ndarray:
    a = rng.uniform(-scale, scale, (m, m))
    return 0.5 * (a + a.T)


# -- sosc-sampler -------------------------------------------------------------


def _p1_instance(rng, rotate: bool) -> Instance:
    """P1 (minimise x2 subject to [[1, x1], [x1, x2]] PSD at 0) under f -> c f,
    F -> S F S^T and, when ``rotate``, x = Q z.  Its margin is 2c."""
    c = float(rng.uniform(0.5, 2.0))
    s = random_orthogonal(rng, 2) @ np.diag(rng.uniform(0.5, 2.0, 2)) @ random_orthogonal(rng, 2)
    g = np.array([0.0, c])
    a = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([0.0, 1.0])]
    if rotate:
        q = random_orthogonal(rng, 2)
        g = q.T @ g
        a = [q[0, j] * a[0] + q[1, j] * a[1] for j in range(2)]
    a0 = s @ np.diag([1.0, 0.0]) @ s.T
    a = [s @ ai @ s.T for ai in a]
    return Instance(
        argv=["check-sosc"],
        document=problem_json(g, np.zeros((2, 2)), a0, a),
        expect={"margin": 2.0 * c, "rotated": rotate},
    )


def sosc_sampler(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 1])
    fixed = np.random.default_rng(SAMPLER_ROTATED_SEED)
    plain = [_p1_instance(rng, False) for _ in range(SAMPLER_PLAIN)]
    rotated = [_p1_instance(fixed, True) for _ in range(SAMPLER_ROTATED)]
    return [inst for pair in zip(plain, rotated) for inst in pair]


# -- sosc-multiplier ----------------------------------------------------------


def sosc_multiplier(seed: int) -> list[Instance]:
    """n = 1, m = 3: f = h x^2 / 2, F(0) = diag(lam, 0, 0) and the kernel
    block of A1 is 2I, so the only critical direction is u = +1 and its
    multipliers have W = 0 on a multi-dimensional null space.  Margin h."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for _ in range(MULTIPLIER_INSTANCES):
        h = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.5, 2.0))
        a1 = np.diag([float(rng.uniform(-1.0, 1.0)), 2.0, 2.0])
        a1[0, 1:] = a1[1:, 0] = rng.uniform(-1.0, 1.0, 2)
        out.append(
            Instance(
                argv=["check-sosc", "--dirs", "8"],
                document=problem_json([0.0], [[h]], np.diag([lam, 0.0, 0.0]), [a1]),
                expect={"margin": h},
            )
        )
    return out


# -- growth -------------------------------------------------------------------


def kkt_consistent(rng, n: int, m: int, rank: int) -> dict:
    """Random problem with quadratic terms whose origin is a KKT point: the
    objective gradient cancels DF(0)^* Y for Y = -(projector onto ker F(0)),
    and the objective Hessian is positive definite."""
    q = random_orthogonal(rng, m)
    lam = np.zeros(m)
    lam[:rank] = rng.uniform(1.0, 2.0, rank) ** 2
    a0 = (q * lam) @ q.T
    a = [random_symmetric(rng, m) for _ in range(n)]
    upper = {(i, j): random_symmetric(rng, m, 0.5) for i in range(n) for j in range(i, n)}
    b = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    kernel = q[:, rank:]
    ystar = -kernel @ kernel.T
    g = np.array([-np.sum(ystar * ai) for ai in a])
    r = rng.uniform(-1.0, 1.0, (n, n))
    return problem_json(g, r @ r.T + np.eye(n), a0, a, b)


def growth(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 3])
    return [
        Instance(
            argv=["growth", "--epsilon", repr(GROWTH_EPSILON), "--beta", repr(GROWTH_BETA)],
            document=kkt_consistent(rng, GROWTH_N, GROWTH_M, GROWTH_RANK),
            expect={
                "epsilon": GROWTH_EPSILON,
                "beta": GROWTH_BETA,
                "samples": GROWTH_SAMPLES,
            },
        )
        for _ in range(GROWTH_INSTANCES)
    ]


# -- subderivative ------------------------------------------------------------


def valid_triple(rng, m: int, rank: int) -> dict:
    """Y PSD of the given rank, Ystar in the normal cone at Y, V tangent with
    <Ystar, V> = 0: Ystar's kernel block and V's kernel block live on
    orthogonal eigenspaces."""
    q = random_orthogonal(rng, m)
    k = m - rank
    lam = np.zeros(m)
    lam[:rank] = rng.uniform(1.0, 2.0, rank)
    y = (q * lam) @ q.T

    r = random_orthogonal(rng, k)
    n_neg = int(rng.integers(1, k))
    w_diag = np.zeros(k)
    w_diag[:n_neg] = -rng.uniform(0.2, 1.0, n_neg)
    v_diag = np.zeros(k)
    v_diag[n_neg:] = rng.uniform(0.0, 1.0, k - n_neg)
    w = (r * w_diag) @ r.T
    w /= max(1.0, np.linalg.norm(w))

    v_eig = np.zeros((m, m))
    v_eig[:rank, :rank] = random_symmetric(rng, rank, 0.5)
    v_eig[:rank, rank:] = rng.uniform(-0.5, 0.5, (rank, k))
    v_eig[rank:, :rank] = v_eig[:rank, rank:].T
    v_eig[rank:, rank:] = (r * v_diag) @ r.T
    v = q @ v_eig @ q.T
    v /= max(1.0, np.linalg.norm(v))
    ystar = q[:, rank:] @ w @ q[:, rank:].T
    return {"Y": symmat_json(y), "Ystar": symmat_json(ystar), "V": symmat_json(v)}


def subderivative(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 4])
    return [
        Instance(
            argv=["subderivative"],
            document=valid_triple(rng, SUBDERIVATIVE_M, SUBDERIVATIVE_RANK),
            expect={"rank": SUBDERIVATIVE_RANK},
        )
        for _ in range(SUBDERIVATIVE_INSTANCES)
    ]


WORKLOADS = {
    "sosc-sampler": sosc_sampler,
    "sosc-multiplier": sosc_multiplier,
    "growth": growth,
    "subderivative": subderivative,
}
