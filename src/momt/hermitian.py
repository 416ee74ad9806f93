"""Complex matrix foundation: Hermitian and density-matrix types, operator
stacks, inner products, and the real vectorization.

Conventions fixed here for the whole library:

* ``<X; Y> = tr(X^* Y)`` is the (complex) Hilbert-Schmidt pairing; for
  stacks it sums over blocks.
* The real symmetric pairing of momenta is ``m . b = Re <m; b>``.
* The space of Hermitian n x n matrices is identified with R^(n^2)
  through the orthonormal basis

      { E_ii } u { (E_ij + E_ji)/sqrt(2) } u { i(E_ij - E_ji)/sqrt(2) },

  so that every self-adjoint superoperator appearing downstream has a
  real *symmetric* matrix representation.  Skew-Hermitian matrices use
  the same coordinates through multiplication by i (the basis {i B_a}).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: tolerance for the Hermitian-symmetry defect accepted at construction
SYM_TOL = 1e-12
#: tolerance on |tr(rho) - 1| for density matrices
TRACE_TOL = 1e-12
#: definiteness threshold: eigenvalues in (-EPS_PD, EPS_PD) count as zero
EPS_PD = 1e-10


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class FlavorError(ValueError):
    """An operator stack does not satisfy its declared per-block symmetry."""


class SymmetryError(ValueError):
    """Input is too far from Hermitian to symmetrize away."""


class NotUnitTrace(ValueError):
    """Candidate density matrix has trace != 1."""


class NotPositive(ValueError):
    """Candidate density matrix has a forbidden negative/zero eigenvalue."""


def _entries(x) -> np.ndarray:
    """Raw complex ndarray behind any of the wrapper types."""
    if isinstance(x, OperatorStack):
        return x.blocks
    if isinstance(x, HermitianMatrix):
        return x.mat
    if isinstance(x, DensityMatrix):
        return x.base.mat
    return np.asarray(x, dtype=complex)


def hermitian_part(x) -> np.ndarray:
    """(A + A^*)/2 over the last two axes, for a matrix or a stack of them."""
    a = _entries(x)
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


class HermitianMatrix:
    """An n x n complex matrix with A = A^*, symmetrized at construction.

    Input whose symmetry defect exceeds ``tol * max(1, |A|_F)`` is
    rejected rather than silently flattened.
    """

    def __init__(self, entries, tol: float = SYM_TOL):
        a = np.array(_entries(entries), dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        defect = 0.5 * float(np.linalg.norm(a - a.conj().T))
        if defect > tol * max(1.0, float(np.linalg.norm(a))):
            raise SymmetryError(
                f"matrix is not Hermitian: symmetry defect {defect:.3e} "
                f"exceeds tolerance {tol:.1e}"
            )
        a = hermitian_part(a)
        a.setflags(write=False)
        self.mat = a
        self.n = a.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.mat)[0])

    def __repr__(self):
        return f"HermitianMatrix(n={self.n})"


class DensityMatrix:
    """A Hermitian matrix with unit trace and admissible spectrum.

    Non-strict mode accepts the closed cone (eigenvalues down to -eps_pd,
    which floating point treats as zero); strict mode demands eigenvalues
    > eps_pd, i.e. a safely positive-definite state.
    """

    def __init__(self, entries, strict: bool = False, eps_pd: float = EPS_PD,
                 trace_tol: float = TRACE_TOL):
        base = entries if isinstance(entries, HermitianMatrix) else HermitianMatrix(entries)
        tr = base.trace()
        if abs(tr - 1.0) > trace_tol:
            raise NotUnitTrace(f"trace must equal 1, got {tr!r}")
        lo = base.min_eig()
        if strict:
            if lo <= eps_pd:
                raise NotPositive(
                    f"strict density requires min eigenvalue > {eps_pd:.1e}, got {lo!r}"
                )
        elif lo < -eps_pd:
            raise NotPositive(f"min eigenvalue {lo!r} is negative beyond -{eps_pd:.1e}")
        self.base = base

    @property
    def mat(self) -> np.ndarray:
        return self.base.mat

    @property
    def n(self) -> int:
        return self.base.n

    def min_eig(self) -> float:
        return self.base.min_eig()

    def __repr__(self):
        return f"DensityMatrix(n={self.n})"


_FLAVORS = ("general", "hermitian", "skew")


class OperatorStack:
    """An ordered stack of N complex n x n blocks.

    ``flavor`` declares a per-block symmetry: "hermitian" and "skew"
    blocks are symmetrized at construction (same drift-absorbing policy
    as the matrix types); "general" blocks are stored as given.
    """

    def __init__(self, blocks, flavor: str = "general", tol: float = SYM_TOL):
        b = np.array([_entries(blk) for blk in blocks], dtype=complex) \
            if isinstance(blocks, (list, tuple)) else np.array(_entries(blocks), dtype=complex)
        if b.ndim != 3 or b.shape[1] != b.shape[2]:
            raise DimensionMismatch(f"expected shape (N, n, n), got {b.shape}")
        if flavor not in _FLAVORS:
            raise FlavorError(f"unknown flavor {flavor!r}; expected one of {_FLAVORS}")
        if flavor != "general":
            # B = +B^* or -B^*: negating the adjoint is exact, so one check serves both
            adj = np.conj(np.transpose(b, (0, 2, 1)))
            if flavor == "skew":
                adj = -adj
            if 0.5 * np.linalg.norm(b - adj) > tol * max(1.0, np.linalg.norm(b)):
                kind = "Hermitian" if flavor == "hermitian" else "skew-Hermitian"
                raise FlavorError(f"blocks are not {kind} within tolerance")
            b = 0.5 * (b + adj)
        b.setflags(write=False)
        self.blocks = b
        self.flavor = flavor
        self.count = b.shape[0]
        self.dim = b.shape[1]

    def norm(self) -> float:
        return float(np.linalg.norm(self.blocks))

    def __len__(self):
        return self.count

    def __getitem__(self, k) -> np.ndarray:
        return self.blocks[k]

    def __repr__(self):
        return f"OperatorStack(N={self.count}, n={self.dim}, flavor={self.flavor!r})"


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def inner_product(x, y):
    """``<X; Y> = tr(X^* Y)``, summed over blocks for stacks.

    Returns a real float when both arguments are Hermitian-typed
    (matrix or hermitian-flavored stack); a complex number otherwise.
    """
    a, b = _entries(x), _entries(y)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    val = complex(np.sum(np.conj(a) * b))
    if _is_hermitian_typed(x) and _is_hermitian_typed(y):
        return val.real
    return val


def _is_hermitian_typed(x) -> bool:
    if isinstance(x, (HermitianMatrix, DensityMatrix)):
        return True
    return isinstance(x, OperatorStack) and x.flavor == "hermitian"


def symmetric_dot(m, b) -> float:
    """``m . b = (<m;b> + <b;m>)/2 = Re <m;b>`` — always real."""
    a, c = _entries(m), _entries(b)
    if a.shape != c.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {c.shape}")
    return float(np.sum(np.conj(a) * c).real)


def gram(blocks) -> np.ndarray:
    """sum_k b_k^* b_k over the stack axis: (..., N, n, n) -> (..., n, n), Hermitian PSD."""
    b = _entries(blocks)
    return (np.conj(np.swapaxes(b, -1, -2)) @ b).sum(axis=-3)


# ---------------------------------------------------------------------------
# the library-wide real vectorization of Hermitian space
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal basis of Hermitian n x n matrices, shape (n^2, n, n).

    Order: diagonal units E_ii, then for each i<j the pair
    (E_ij + E_ji)/sqrt(2), i(E_ij - E_ji)/sqrt(2).
    """
    basis = np.zeros((n * n, n, n), dtype=complex)
    p = 0
    for i in range(n):
        basis[p, i, i] = 1.0
        p += 1
    r = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            basis[p, i, j] = r
            basis[p, j, i] = r
            p += 1
            basis[p, i, j] = 1j * r
            basis[p, j, i] = -1j * r
            p += 1
    basis.setflags(write=False)
    return basis


def vec_h(h) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the fixed basis.

    A stack of shape (..., n, n) maps to coordinates of shape (..., n^2).
    """
    a = _entries(h)
    n = a.shape[-1]
    return np.einsum("aij,...ij->...a", np.conj(hermitian_basis(n)), a).real


def unvec_h(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of vec_h (returns a raw complex ndarray); (..., n^2) -> (..., n, n)."""
    return np.einsum("...a,aij->...ij", np.asarray(x, dtype=float), hermitian_basis(n))


def vec_s(s) -> np.ndarray:
    """Real coordinates of a skew-Hermitian matrix in the basis {i B_a}.

    A stack of shape (..., n, n) maps to coordinates of shape (..., n^2).
    """
    a = _entries(s)
    n = a.shape[-1]
    # <i B_a; S> = -i tr(B_a S), real for skew S
    return (-1j * np.einsum("aij,...ij->...a", np.conj(hermitian_basis(n)), a)).real


def vec_stack(m) -> np.ndarray:
    """Real coordinates of a general stack: all real parts, then all imaginary."""
    b = _entries(m)
    return np.concatenate([b.real.ravel(), b.imag.ravel()])


def unvec_stack(x: np.ndarray, count: int, n: int) -> np.ndarray:
    """Inverse of vec_stack (raw complex ndarray of shape (count, n, n))."""
    x = np.asarray(x, dtype=float)
    half = x.size // 2
    return (x[:half] + 1j * x[half:]).reshape(count, n, n)


# ---------------------------------------------------------------------------
# JSON matrix literals (shared with the I/O layer)
# ---------------------------------------------------------------------------

def matrix_to_literal(a) -> dict:
    """{"n": int, "re": [[...]], "im": [[...]]} encoding of a complex matrix."""
    m = _entries(a)
    return {"n": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_literal(d: dict) -> np.ndarray:
    n = int(d["n"])
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise DimensionMismatch(
            f"literal claims n={n} but re/im have shapes {re.shape}, {im.shape}"
        )
    return re + 1j * im
