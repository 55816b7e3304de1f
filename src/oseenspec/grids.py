"""Staggered radial grid, quadrature, and the shared value types.

All operators act on L^2((0, r_max), dr) sampled at the cell midpoints
r_j = (j - 1/2) h, h = r_max/n.  The midpoint offset keeps every node
strictly away from the coordinate singularity at r = 0, and the inner
product is the plain midpoint rule h * sum a_j conj(b_j).

The second-derivative stencil realizes -d^2/dr^2 with an odd ghost value
across r = 0 (equivalent to a homogeneous Dirichlet condition there,
which every r^{k+1/2}-type field satisfies) and a Dirichlet cut at r_max.
"""

import math
from dataclasses import dataclass, field

import numpy as np

R_MAX_FLOOR = 30.0  # r_max of default_grid, the floor analysis.bound_grid raises


@dataclass(frozen=True)
class RadialGrid:
    n: int
    r_max: float
    h: float
    nodes: np.ndarray = field(repr=False, compare=False)


def make_grid(n, r_max):
    """Build the midpoint grid; requires n >= 16 and r_max >= 10."""
    if int(n) != n or n < 16:
        raise ValueError(f"grid size n = {n} rejected; need an integer n >= 16")
    if not (math.isfinite(r_max) and r_max >= 10):
        raise ValueError(f"r_max = {r_max} rejected; need r_max >= 10")
    n = int(n)
    h = r_max / n
    nodes = (np.arange(1, n + 1) - 0.5) * h
    return RadialGrid(n=n, r_max=float(r_max), h=h, nodes=nodes)


def default_grid(n=600):
    """Default resolution policy: n points on r_max = R_MAX_FLOOR, the
    floor that analysis.bound_grid raises with |beta_k| (Psi is the same
    to 15 digits on r_max = 65 at beta_1 = 1e5)."""
    return make_grid(n, R_MAX_FLOOR)


@dataclass
class Field:
    """Grid samples of a radial function (real or complex), or of a stack
    of them: values of shape (n,) or (..., n), the grid on the last axis,
    which every operators.apply_* product acts along."""
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim == 0 or v.shape[-1] != self.grid.n:
            raise ValueError(f"field has {v.shape} values on an n = {self.grid.n} grid")
        self.values = v

    def norm(self):
        """The L^2 norm of one field (of all values, for a stack)."""
        return math.sqrt(self.grid.h) * float(np.linalg.norm(self.values))


def quadrature(a, b):
    """Midpoint inner product <a, b> = h sum_j a_j conj(b_j)."""
    if a.grid != b.grid:
        raise ValueError("quadrature called on fields from different grids")
    return complex(a.grid.h * np.vdot(b.values, a.values))


@dataclass(frozen=True)
class ModeSpec:
    """One angular/axial mode: rotation strength alpha, wavenumber k,
    spectral shift lam, and dilation angle theta."""
    alpha: float
    k: int
    lam: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if int(self.k) != self.k or self.k == 0:
            raise ValueError("k must be a nonzero integer")
        for name in ("alpha", "lam", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if abs(self.theta) > math.pi / 8:
            raise ValueError("theta must satisfy |theta| <= pi/8")

    @property
    def beta_k(self):
        return self.alpha * self.k / (8 * math.pi)

    @property
    def nu_k(self):
        """Normalized shift lam/beta_k; None for the self-adjoint case beta_k = 0."""
        if self.beta_k == 0.0:
            return None
        return self.lam / self.beta_k


@dataclass
class OperatorMatrix:
    """Matrix representation of one assembled operator.

    The band kinds of operators.assemble_banded, at any dilation angle,
    are what every bound runs on: "L1_band" (the tridiagonal L1, data of
    shape (n, 3)) and "H_band" (the interleaved 2n pencil whose Schur
    complement is H_deformed, which is H_full at theta = 0, data of shape
    (2n, 5)); solver._hermitian_pencil builds, under kind "H_band", the
    3n pencil of an H_band's Hermitian part, data of shape (3n, 7).  Row
    i of their data holds the matrix entries of row i from column i - b
    to i + b.  The solver reads b from the data's shape, (b n, 2b + 1)
    with b = 1, 2 or 3, and refuses any other shape whatever the kind
    says (solver._band_stride).  The dense kinds, (n, n) data, are the
    benchmark's oracle: "A_k", "K_k", "B_k" (real) and "H_full",
    "L1_model", "H_deformed" (complex symmetric, equal to their
    transpose, not their adjoint).
    """
    kind: str
    grid: RadialGrid
    data: np.ndarray


def stencil_bands(grid):
    """(diag, off) of -d^2/dr^2: (-1, 2, -1)/h^2 with an odd ghost across
    r = 0 (first diagonal entry 3/h^2) and Dirichlet at r_max."""
    h = grid.h
    diag = np.full(grid.n, 2.0 / h ** 2)
    diag[0] = 3.0 / h ** 2
    return diag, np.full(grid.n - 1, -1.0 / h ** 2)

