"""Exact multivariate polynomial arithmetic over phase-space coordinates.

Polynomials carry rational coefficients throughout; floating point enters
only at evaluation time. Variables are indexed 0..num_vars-1 and, for a
system with n degrees of freedom, follow the fixed ordering
(x1..xn, x{n+1}..x{2n}): positions first, conjugate momenta second.

Terms are stored sparsely as a map from exponent multi-indices to
nonzero ``Fraction`` coefficients. The canonical term order used for
printing and serialization is graded lexicographic (total degree first,
then lexicographic on the exponent vector), descending.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

Monomial = tuple[int, ...]

_Coeff = int | Fraction | str


def _as_fraction(value: _Coeff) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


def _accumulate(terms: dict, expo: Monomial, coeff) -> None:
    """Add ``coeff`` to ``terms[expo]``, dropping the entry when it cancels."""
    acc = terms.get(expo)
    val = coeff if acc is None else acc + coeff
    if val:
        terms[expo] = val
    else:
        terms.pop(expo, None)


class SparsePolynomial:
    """Immutable sparse map from exponent multi-indices to nonzero exact
    coefficients, shared by ``PhasePolynomial`` and ``weyl.WeylPolynomial``.

    The constructor's ``size`` counts modes of ``_VARS_PER_MODE`` variables
    each: one for a phase-space polynomial, two (X and P) for an operator.
    Every multi-index has ``num_vars`` entries.
    A subclass fixes its coefficient type (``_coerce`` and the accepted
    ``_SCALARS``) and the product of two terms: ``_term_product(e1, e2, c)``
    yields the (multi-index, coefficient) pairs that sum to c times monomial
    e1 times monomial e2. Values of different subclasses never combine or
    compare equal.
    """

    __slots__ = ("num_vars", "terms")

    _VARS_PER_MODE = 1
    _MISMATCH = "dimension mismatch: {} vs {} variables"

    def __init__(self, size: int, terms: Mapping | None = None):
        if size < 1:
            raise ValueError(f"{type(self).__name__} size must be positive, got {size}")
        num_vars = self._VARS_PER_MODE * size
        clean: dict = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != num_vars:
                    raise ValueError(
                        f"multi-index {expo} has length {len(expo)}, expected {num_vars}"
                    )
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in multi-index {expo}")
                _accumulate(clean, expo, self._coerce(coeff))
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, terms: Mapping) -> "SparsePolynomial":
        return type(self)(self.num_vars // self._VARS_PER_MODE, terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, size: int):
        return cls(size)

    @classmethod
    def constant(cls, size: int, value):
        return cls(size, {(0,) * (cls._VARS_PER_MODE * size): value})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        """Terms in canonical (graded lexicographic, descending) order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "SparsePolynomial") -> None:
        if self.num_vars != other.num_vars:
            n = self._VARS_PER_MODE
            raise ValueError(self._MISMATCH.format(self.num_vars // n, other.num_vars // n))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            _accumulate(terms, expo, coeff)
        return self._like(terms)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, self._SCALARS):
            c = self._coerce(other)
            return self._like({e: c * v for e, v in self.terms.items()})
        if type(other) is not type(self):
            return NotImplemented
        self._check_compatible(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                for expo, coeff in self._term_product(e1, e2, c1 * c2):
                    _accumulate(terms, expo, coeff)
        return self._like(terms)

    def __rmul__(self, other):
        if isinstance(other, self._SCALARS):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = self._like({(0,) * self.num_vars: 1})
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))


class PhasePolynomial(SparsePolynomial):
    """Sparse polynomial with exact rational coefficients, built as
    ``PhasePolynomial(num_vars, {multi_index: coeff})``.

    Supports ``+``, ``-``, ``*`` (polynomial or scalar) and ``**`` with the
    usual meanings. Instances are treated as immutable values.
    """

    __slots__ = ()

    _SCALARS = (int, Fraction)
    _coerce = staticmethod(_as_fraction)

    def _term_product(self, e1: Monomial, e2: Monomial, coeff: Fraction):
        yield tuple(a + b for a, b in zip(e1, e2)), coeff

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "PhasePolynomial":
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} variables")
        expo = tuple(1 if i == index else 0 for i in range(num_vars))
        return cls(num_vars, {expo: 1})

    @classmethod
    def monomial(cls, num_vars: int, exponents: Sequence[int], coeff: _Coeff = 1) -> "PhasePolynomial":
        return cls(num_vars, {tuple(exponents): coeff})

    # -- structure ---------------------------------------------------------

    def support(self) -> set[int]:
        """Indices of variables that appear with a nonzero exponent."""
        out: set[int] = set()
        for expo in self.terms:
            out.update(i for i, e in enumerate(expo) if e)
        return out

    def monomials(self) -> Iterator["PhasePolynomial"]:
        """Yield each term as a single-term polynomial, canonical order."""
        for expo, coeff in self.sorted_terms():
            yield PhasePolynomial(self.num_vars, {expo: coeff})

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, var: int) -> "PhasePolynomial":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.num_vars:
            raise ValueError(f"variable index {var} out of range for {self.num_vars} variables")
        terms = {
            expo[:var] + (expo[var] - 1,) + expo[var + 1:]: coeff * expo[var]
            for expo, coeff in self.terms.items()
            if expo[var]
        }
        return PhasePolynomial(self.num_vars, terms)

    # -- evaluation --------------------------------------------------------

    def evaluate_array(self, coords: Sequence) -> np.ndarray:
        """Evaluate at the points given variables first: ``coords`` holds
        one array per variable, and the arrays broadcast together.

        So ``coords`` can be one point, a ``(num_vars, M)`` array or a grid's
        per-axis views; the result has the broadcast shape (0-d for one
        point). Integer input is evaluated in floating point and complex
        input stays complex. Powers come from a per-variable table built by
        repeated multiplication, because NumPy sends ``x ** e`` with an
        integer ``e >= 3`` through ``pow``, about a hundred times slower.
        """
        if len(coords) != self.num_vars:
            raise ValueError(
                f"dimension mismatch: {len(coords)} coordinates, expected {self.num_vars}"
            )
        coords = [np.asarray(c) for c in coords]
        dtype = np.result_type(*coords, float)
        out = np.zeros(np.broadcast_shapes(*(c.shape for c in coords)), dtype=dtype)
        powers = []
        # zip(*terms) yields each variable's exponents (nothing when p == 0)
        for x, exponents in zip(coords, zip(*self.terms)):
            m = max(exponents)
            row = [None] * (m + 1)
            if m:
                row[1] = x.astype(dtype, copy=False)
                for k in range(2, m + 1):
                    row[k] = row[k - 1] * row[1]
            powers.append(row)
        for expo, coeff in self.terms.items():
            term = None
            for i, e in enumerate(expo):
                if not e:
                    continue
                if term is None:
                    term = powers[i][e] * float(coeff)
                else:
                    term = term * powers[i][e]  # may broadcast to a larger shape
            out += float(coeff) if term is None else term
        return out

    # -- printing ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"PhasePolynomial({self.num_vars}, {format_polynomial(self)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def poisson_bracket(p: PhasePolynomial, q: PhasePolynomial) -> PhasePolynomial:
    """Canonical Poisson bracket {p, q} on a 2n-dimensional phase space.

    {p, q} = sum_j (dp/dx_j dq/dx_{n+j} - dp/dx_{n+j} dq/dx_j), with the
    first n variables positions and the last n momenta.
    """
    if isinstance(q, PhasePolynomial):
        p._check_compatible(q)
    if p.num_vars % 2:
        raise ValueError("Poisson bracket requires an even number of variables")
    n = p.num_vars // 2
    out = PhasePolynomial.zero(p.num_vars)
    for j in range(n):
        out = out + p.partial_derivative(j) * q.partial_derivative(n + j)
        out = out - p.partial_derivative(n + j) * q.partial_derivative(j)
    return out


# -- literal format ---------------------------------------------------------
#
# A polynomial literal is a sum of terms ``c * x1^a1 * ... * xk^ak`` with
# rational coefficient c, e.g. ``1/2 * x2^2 + 1/2 * x1^2``. Variables are
# named x1..x{num_vars} (1-based in the text form only). The formatter
# emits canonical (graded lexicographic) order and ``parse_polynomial``
# round-trips it bit-exactly.

_TERM_RE = re.compile(
    r"^\s*(?P<coeff>\d+(?:/\d+|\.\d+)?)?\s*\*?\s*(?P<vars>(?:\s*\*?\s*x\d+(?:\^\d+)?)*)\s*$"
)
_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


def format_polynomial(p: PhasePolynomial) -> str:
    """Render a polynomial in the canonical literal format."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for expo, coeff in p.sorted_terms():
        factors = []
        for i, e in enumerate(expo):
            if e == 0:
                continue
            factors.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
        mag = abs(coeff)
        if factors:
            body = " * ".join(factors)
            if mag != 1:
                body = f"{mag} * {body}"
        else:
            body = str(mag)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(pieces)


def parse_polynomial(text: str, num_vars: int) -> PhasePolynomial:
    """Parse the literal format into a polynomial over ``num_vars`` variables.

    Accepts integer, fraction (``3/4``) and decimal (``0.25``) coefficients;
    decimals are converted exactly.
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty polynomial literal")
    if stripped == "0":
        return PhasePolynomial.zero(num_vars)
    normalized = stripped.replace("-", "+-")
    terms: dict[Monomial, Fraction] = {}
    for chunk in normalized.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:].strip()
        m = _TERM_RE.match(chunk)
        if not m or (not m.group("coeff") and not m.group("vars").strip()):
            raise ValueError(f"cannot parse polynomial term {chunk!r}")
        try:
            coeff = sign * Fraction(m.group("coeff") or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in polynomial term {chunk!r}") from None
        expo = [0] * num_vars
        for vm in _VAR_RE.finditer(m.group("vars")):
            idx = int(vm.group(1)) - 1
            if not 0 <= idx < num_vars:
                raise ValueError(
                    f"variable x{vm.group(1)} out of range for {num_vars} variables"
                )
            expo[idx] += int(vm.group(2)) if vm.group(2) else 1
        _accumulate(terms, tuple(expo), coeff)
    return PhasePolynomial(num_vars, terms)
