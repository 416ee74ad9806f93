"""Complex matrix foundation: Hermitian and density-matrix types, operator
stacks, inner products and the real vectorization.

Conventions fixed here for the whole library:

* ``<X; Y> = tr(X^* Y)`` is the (complex) Hilbert-Schmidt pairing; for
  stacks it sums over blocks.
* The real symmetric pairing of momenta is ``m . b = Re <m; b>``, read
  as ``inner_product(m, b).real``.
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
#: largest entry modulus a wrapper admits: no norm or A + A^* of one overflows
MAX_ENTRY = 1e150
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
    return np.asarray(x, dtype=complex)


def hermitian_part(x) -> np.ndarray:
    """(A + A^*)/2 over the last two axes, for a matrix or a stack of them."""
    a = _entries(x)
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def _admitted(a: np.ndarray, symmetry: str) -> np.ndarray:
    """A fresh complex array, read-only, if it meets the wrappers' one input rule.

    Every entry's modulus is at most MAX_ENTRY (NaN and inf fail).  A "hermitian" or
    "skew" A has defect |A -+ A^*|/2 <= SYM_TOL max(1, |A|_F), and becomes that part.
    """
    matrix = symmetry == "hermitian"
    if not np.abs(a).max(initial=0.0) <= MAX_ENTRY:
        raise (SymmetryError if matrix else ValueError)(
            f"{'matrix' if matrix else 'stack'} has a non-finite entry or one above {MAX_ENTRY:g}")
    if symmetry != "general":
        adj = np.conj(np.swapaxes(a, -1, -2))
        adj = adj if matrix else -adj
        defect = 0.5 * float(np.linalg.norm(a - adj))
        if not defect <= SYM_TOL * max(1.0, float(np.linalg.norm(a))):
            raise (SymmetryError if matrix else FlavorError)(
                f"{'matrix is not ' if matrix else 'blocks are not skew-'}Hermitian: "
                f"symmetry defect {defect:.3e} exceeds tolerance {SYM_TOL:.1e}")
        a = 0.5 * (a + adj)
    a.setflags(write=False)
    return a


class HermitianMatrix:
    """A non-empty n x n complex matrix with A = A^*, symmetrized at construction.

    Input with an entry that is non-finite or above MAX_ENTRY in modulus, or
    whose symmetry defect exceeds SYM_TOL * max(1, |A|_F), raises
    SymmetryError (_admitted's rule) rather than being silently flattened.
    A HermitianMatrix input (a DensityMatrix is one) is not checked again:
    the result shares its read-only array and any cached smallest eigenvalue.
    """

    def __init__(self, entries):
        if isinstance(entries, HermitianMatrix):
            self.mat, self.n, self._min_eig = entries.mat, entries.n, entries._min_eig
            return
        a = np.array(_entries(entries), dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise DimensionMismatch(f"expected a non-empty square matrix, got shape {a.shape}")
        self.mat = _admitted(a, "hermitian")
        self.n = a.shape[0]
        self._min_eig = None  # set by the first min_eig() call

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def min_eig(self) -> float:
        """Smallest eigenvalue, computed on the first call only: mat is read-only."""
        if self._min_eig is None:
            self._min_eig = float(np.linalg.eigvalsh(self.mat)[0])
        return self._min_eig

    def __repr__(self):
        return f"HermitianMatrix(n={self.n})"


class DensityMatrix(HermitianMatrix):
    """A Hermitian matrix with unit trace and admissible spectrum.

    The trace must be within TRACE_TOL of 1.  Non-strict mode accepts the
    closed cone (eigenvalues down to -EPS_PD, which floating point treats
    as zero); strict mode demands eigenvalues > EPS_PD, i.e. a safely
    positive-definite state.  A DensityMatrix input's trace is not checked
    again; its spectrum test reads the cached smallest eigenvalue.
    """

    def __init__(self, entries, strict: bool = False):
        super().__init__(entries)
        if not isinstance(entries, DensityMatrix):
            tr = self.trace()
            if not abs(tr - 1.0) <= TRACE_TOL:
                raise NotUnitTrace(f"trace must equal 1, got {tr!r}")
        lo = self.min_eig()
        if strict:
            if not lo > EPS_PD:
                raise NotPositive(
                    f"strict density requires min eigenvalue > {EPS_PD:.1e}, got {lo!r}"
                )
        elif not lo >= -EPS_PD:
            raise NotPositive(f"min eigenvalue {lo!r} is negative beyond -{EPS_PD:.1e}")

    def __repr__(self):
        return f"DensityMatrix(n={self.n})"


_FLAVORS = ("general", "skew")


class OperatorStack:
    """An ordered stack of N complex n x n blocks.

    ``flavor`` declares a per-block symmetry: "skew" blocks (B = -B^*, as
    gradients are) are symmetrized at construction (same drift-absorbing
    policy as the matrix types); "general" blocks, such as momenta, are
    stored as given; entries follow _admitted's rule.  A stack input is shared,
    not checked again (a skew one serves as general), but a general one cannot
    be declared skew (FlavorError).
    """

    def __init__(self, blocks, flavor: str = "general"):
        if isinstance(blocks, OperatorStack):
            if flavor not in (blocks.flavor, "general"):
                raise FlavorError(f"a {blocks.flavor} stack cannot be declared {flavor!r}")
            self.blocks, self.flavor, self.count, self.dim = (
                blocks.blocks, flavor, blocks.count, blocks.dim)
            return
        b = np.array(_entries(blocks), dtype=complex)
        if b.ndim != 3 or b.shape[1] != b.shape[2]:
            raise DimensionMismatch(f"expected shape (N, n, n), got {b.shape}")
        if flavor not in _FLAVORS:
            raise FlavorError(f"unknown flavor {flavor!r}; expected one of {_FLAVORS}")
        self.blocks = _admitted(b, flavor)
        self.flavor = flavor
        self.count = b.shape[0]
        self.dim = b.shape[1]

    def norm(self) -> float:
        return float(np.linalg.norm(self.blocks))

    def __repr__(self):
        return f"OperatorStack(N={self.count}, n={self.dim}, flavor={self.flavor!r})"


def _stack_blocks(m, n: int, count=None, flavor: str = "general") -> np.ndarray:
    """OperatorStack(m, flavor)'s blocks, the stack gate: (count, n, n), any N if count is None."""
    b = OperatorStack(m, flavor).blocks
    if b.shape[1] != n or count not in (None, b.shape[0]):
        raise DimensionMismatch(f"stack shape {b.shape} does not match ({count or 'N'}, {n}, {n})")
    return b


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def inner_product(x, y):
    """``<X; Y> = tr(X^* Y)``, summed over blocks for stacks.

    Returns a real float when both arguments are HermitianMatrix (a
    DensityMatrix is one); a complex number otherwise.  The real pairing
    of momenta, m . b, is ``inner_product(m, b).real``.
    """
    a, b = _entries(x), _entries(y)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    val = complex(np.sum(np.conj(a) * b))
    if isinstance(x, HermitianMatrix) and isinstance(y, HermitianMatrix):
        return val.real
    return val


def _above_floor(mats: np.ndarray, floor: float) -> bool:
    """Every matrix of the Hermitian (..., n, n) stack has eigenvalues > floor.

    One batched Cholesky of the shifted stack.  It does not stop on a NaN,
    which instead reaches the factor, so a non-finite factor fails too.
    """
    try:
        return bool(np.isfinite(np.linalg.cholesky(mats - floor * np.eye(mats.shape[-1]))).all())
    except np.linalg.LinAlgError:
        return False


def gram(blocks) -> np.ndarray:
    """sum_k b_k^* b_k over the stack axis: (..., N, n, n) -> (..., n, n), Hermitian PSD.

    One GEMM per stack entry, with no sum over products: the blocks stacked
    as the (N n, n) column B = [b_1; ...; b_N] give B^* B = sum_k b_k^* b_k.
    """
    b = _entries(blocks)
    flat = b.reshape(*b.shape[:-3], b.shape[-3] * b.shape[-2], b.shape[-1])
    return np.conj(np.swapaxes(flat, -1, -2)) @ flat


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


@lru_cache(maxsize=None)
def _flat_basis(n: int) -> np.ndarray:
    """The basis as one real (n^2, 2 n^2) GEMM operand F, read-only.

    Row a holds B_a flattened with real and imaginary parts interleaved,
    the layout of a contiguous complex stack viewed as float.  So x @ F
    is the float view of unvec_h(x), and A viewed as float times F^T is
    Re <B_a; A>, which is vec_h(A).
    """
    b = hermitian_basis(n).reshape(n * n, n * n)
    flat = np.stack([b.real, b.imag], axis=-1).reshape(n * n, 2 * n * n)
    flat.setflags(write=False)
    return flat


def vec_h(h) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the fixed basis.

    A stack of shape (..., n, n) maps to coordinates of shape (..., n^2).
    For a non-Hermitian A the result is Re <B_a; A>, the coordinates of
    its Hermitian part.
    """
    a = np.ascontiguousarray(_entries(h))
    n = a.shape[-1]
    return a.view(float).reshape(*a.shape[:-2], 2 * n * n) @ _flat_basis(n).T


def unvec_h(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of vec_h (returns a raw complex ndarray); (..., n^2) -> (..., n, n)."""
    x = np.asarray(x, dtype=float)
    return (x @ _flat_basis(n)).view(complex).reshape(*x.shape[:-1], n, n)


def vec_s(s) -> np.ndarray:
    """Real coordinates of a skew-Hermitian matrix in the basis {i B_a}.

    A stack of shape (..., n, n) maps to coordinates of shape (..., n^2).
    """
    # <i B_a; S> = -i tr(B_a S) = <B_a; -i S>, and -i S is Hermitian
    return vec_h(-1j * _entries(s))
