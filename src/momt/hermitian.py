"""Complex matrix foundation: Hermitian and density-matrix types, operator
stacks, inner products, the real vectorization, and JSON matrix literals.

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


class HermitianMatrix:
    """A non-empty n x n complex matrix with A = A^*, symmetrized at construction.

    Input with a non-finite entry, or whose symmetry defect exceeds
    ``SYM_TOL * max(1, |A|_F)``, is rejected rather than silently flattened.
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
        if not np.isfinite(a).all():
            raise SymmetryError("matrix has a non-finite entry")
        defect = 0.5 * float(np.linalg.norm(a - a.conj().T))
        if not defect <= SYM_TOL * max(1.0, float(np.linalg.norm(a))):
            raise SymmetryError(
                f"matrix is not Hermitian: symmetry defect {defect:.3e} "
                f"exceeds tolerance {SYM_TOL:.1e}"
            )
        a = hermitian_part(a)
        a.setflags(write=False)
        self.mat = a
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
    stored as given.  A stack with a non-finite entry is rejected.
    """

    def __init__(self, blocks, flavor: str = "general"):
        b = np.array(_entries(blocks), dtype=complex)
        if b.ndim != 3 or b.shape[1] != b.shape[2]:
            raise DimensionMismatch(f"expected shape (N, n, n), got {b.shape}")
        if flavor not in _FLAVORS:
            raise FlavorError(f"unknown flavor {flavor!r}; expected one of {_FLAVORS}")
        if not np.isfinite(b).all():
            raise ValueError("stack has a non-finite entry")
        if flavor == "skew":
            adj = -np.conj(np.transpose(b, (0, 2, 1)))
            if not 0.5 * np.linalg.norm(b - adj) <= SYM_TOL * max(1.0, np.linalg.norm(b)):
                raise FlavorError("blocks are not skew-Hermitian within tolerance")
            b = 0.5 * (b + adj)
        b.setflags(write=False)
        self.blocks = b
        self.flavor = flavor
        self.count = b.shape[0]
        self.dim = b.shape[1]

    def norm(self) -> float:
        return float(np.linalg.norm(self.blocks))

    def __repr__(self):
        return f"OperatorStack(N={self.count}, n={self.dim}, flavor={self.flavor!r})"


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


# ---------------------------------------------------------------------------
# JSON matrix literals and number rules (shared with the I/O layer)
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """JSON validation failure (a problem file, a matrix literal), annotated with a JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


_LITERAL_KEYS = ("n", "re", "im")


def _known_keys(obj: dict, keys, path: str) -> None:
    """ParseError naming the first key of obj outside keys, as path.key."""
    for key in obj:
        if key not in keys:
            raise ParseError(f"{path}.{key}", "unknown key")


def _int_at(val, path: str) -> int:
    """An integral JSON number (8 or 8.0) in the float range; anything else is an error."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not _float_at(val, path).is_integer():
        raise ParseError(path, f"expected an integer, got {val!r}")
    return int(val)


def _float_at(val, path: str) -> float:
    """A JSON number in the float range; a boolean, a string or any other value is an error."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ParseError(path, "expected float")
    try:
        return float(val)
    except OverflowError:  # a JSON integer has no size limit
        raise ParseError(path, "number is outside the float range") from None


def matrix_to_literal(a) -> dict:
    """{"n": int, "re": [[...]], "im": [[...]]} encoding of a complex matrix."""
    m = _entries(a)
    return {"n": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_literal(d, path: str = "$") -> np.ndarray:
    """The complex matrix of a literal, the format's one reader and gate.

    Anything but {"n": n >= 1, "re": ..., "im": ...}, each part n lists of n
    numbers under _float_at's rule, raises ParseError naming the part, as
    "$.re[0][1]"; path only names the literal in that message.
    """
    if not isinstance(d, dict):
        raise ParseError(path, "expected a matrix literal object")
    _known_keys(d, _LITERAL_KEYS, path)
    for key in _LITERAL_KEYS:
        if key not in d:
            raise ParseError(path, f"matrix literal is missing {key!r}")
    n = _int_at(d["n"], f"{path}.n")
    parts = []
    for key in ("re", "im"):  # n >= 1 lists of n numbers, each under _float_at's rule
        if not (n >= 1 and isinstance(d[key], list) and len(d[key]) == n and all(
                isinstance(row, list) and len(row) == n for row in d[key])):
            raise ParseError(f"{path}.{key}", f"expected {n} lists of {n} numbers (n >= 1)")
        parts.append([[_float_at(val, f"{path}.{key}[{i}][{j}]") for j, val in enumerate(row)]
                      for i, row in enumerate(d[key])])
    out = np.empty((n, n), dtype=complex)  # no 1j * im: it would warn on an infinite entry
    out.real, out.imag = parts
    return out
