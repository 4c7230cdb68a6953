"""Synthetic quadratic client families with closed-form optima and curvature.

Client i owns f_i(w) = 0.5 (w - b_i)^T A_i (w - b_i); the global objective is
the unweighted mean of the f_i. These families are the test bed for the
numerical bound checks because every constant the theory needs (smoothness,
strong-convexity/PL modulus, optimum, heterogeneity) is exact.

The global objective is evaluated in closed form, in the gap form around its
optimum: f(w) = f* + 0.5 (w - w*)^T A_bar (w - w*) and grad f(w) = A_bar (w - w*),
with A_bar the mean curvature matrix. A_bar, w* and f* are computed once per
family (f* as the mean of the client losses at w*), so an evaluation costs one
d x d product instead of a pass over the C clients. The quadratic is kept in
gap form rather than expanded into w^T A_bar w - 2 ..., which would cancel away
the small loss gaps near w* that the convergence checks look at.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class QuadraticFamily:
    """A population of quadratic clients: a_matrices (C,d,d), b_vectors (C,d)."""

    a_matrices: np.ndarray
    b_vectors: np.ndarray

    def __post_init__(self):
        self.a_matrices = np.asarray(self.a_matrices, dtype=np.float64)
        self.b_vectors = np.asarray(self.b_vectors, dtype=np.float64)
        if self.a_matrices.ndim != 3 or self.b_vectors.ndim != 2:
            raise ValueError("expected a_matrices (C,d,d) and b_vectors (C,d)")
        c, d = self.b_vectors.shape
        if self.a_matrices.shape != (c, d, d):
            raise ValueError(
                f"a_matrices shape {self.a_matrices.shape} inconsistent with b_vectors {self.b_vectors.shape}"
            )

    @property
    def n_clients(self) -> int:
        return self.b_vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.b_vectors.shape[1]

    def client_grad(self, i: int, w: np.ndarray) -> np.ndarray:
        return self.a_matrices[i] @ (w - self.b_vectors[i])

    def client_loss(self, i: int, w: np.ndarray) -> float:
        r = w - self.b_vectors[i]
        return 0.5 * float(r @ (self.a_matrices[i] @ r))

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        """A_bar (w - w*); exactly zero at w*."""
        return self.a_bar @ (w - self.w_star)

    def global_loss(self, w: np.ndarray) -> float:
        """f* + 0.5 (w - w*)^T A_bar (w - w*)."""
        r = w - self.w_star
        return self.f_star + 0.5 * float(r @ (self.a_bar @ r))

    @cached_property
    def a_bar(self) -> np.ndarray:
        """Mean curvature matrix (1/C) sum A_i, the Hessian of the global objective."""
        return self.a_matrices.mean(axis=0)

    @cached_property
    def w_star(self) -> np.ndarray:
        """Global minimizer (sum A_i)^-1 (sum A_i b_i)."""
        a_sum = self.a_matrices.sum(axis=0)
        rhs = np.einsum("cij,cj->i", self.a_matrices, self.b_vectors)
        return np.linalg.solve(a_sum, rhs)

    @cached_property
    def f_star(self) -> float:
        """Mean client loss at w*, summed once over the clients in ascending id."""
        w = self.w_star
        return sum(self.client_loss(i, w) for i in range(self.n_clients)) / self.n_clients

    @property
    def smoothness(self) -> float:
        """Local smoothness modulus: max over clients of lambda_max(A_i)."""
        return float(max(np.linalg.eigvalsh(a)[-1] for a in self.a_matrices))

    @property
    def pl_constant(self) -> float:
        """lambda_min of the averaged matrix; the global PL modulus mu."""
        return float(np.linalg.eigvalsh(self.a_bar)[0])

    def heterogeneity_bound(self) -> float | None:
        """Exact sup_w max_i ||grad f_i(w) - grad f(w)|| when all A_i coincide, else None.

        With a shared curvature matrix A the client-vs-global gradient gap is the
        constant A(b_bar - b_i); for differing A_i the gap grows without bound in w.
        """
        a0 = self.a_matrices[0]
        if not all(np.array_equal(a0, a) for a in self.a_matrices[1:]):
            return None
        b_bar = self.b_vectors.mean(axis=0)
        return float(max(np.linalg.norm(a0 @ (b_bar - b)) for b in self.b_vectors))


def _random_spd(dim: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """SPD matrix with eigenvalues log-uniform in [1, cond], random orientation."""
    eigs = np.exp(rng.uniform(0.0, np.log(cond), size=dim))
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))  # fix QR sign ambiguity so the draw is reproducible
    return (q * eigs) @ q.T


def make_quadratic_family(
    n_clients: int,
    dim: int,
    *,
    spread: float = 1.0,
    cond: float = 1.0,
    b_center: np.ndarray | None = None,
    seed: int = 0,
) -> QuadraticFamily:
    """Draw a quadratic client family.

    Each A_i has eigenvalues log-uniform in [1, cond] with a random rotation
    (cond == 1 short-circuits to the exact identity so homogeneous-curvature
    families are homogeneous to the last bit).  Targets are b_i = b0 + spread * u_i
    with u_i standard normal and b0 itself drawn N(0, I) unless given.
    """
    if n_clients < 1 or dim < 1:
        raise ValueError("need n_clients >= 1 and dim >= 1")
    if cond < 1.0:
        raise ValueError(f"condition number must be >= 1, got {cond}")
    if spread < 0.0:
        raise ValueError(f"spread must be >= 0, got {spread}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x51AD,)))
    b0 = rng.normal(size=dim) if b_center is None else np.asarray(b_center, dtype=np.float64)
    if cond == 1.0:
        a = np.broadcast_to(np.eye(dim), (n_clients, dim, dim)).copy()
    else:
        a = np.empty((n_clients, dim, dim))  # filled in place: no second (C, d, d) copy
        for i in range(n_clients):
            a[i] = _random_spd(dim, cond, rng)
    if spread == 0.0:
        b = np.tile(b0, (n_clients, 1))
    else:
        b = b0 + spread * rng.normal(size=(n_clients, dim))
    return QuadraticFamily(a, b)
