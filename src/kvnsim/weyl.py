"""Exact symbolic algebra of quadrature operators under [X_j, P_k] = i d_jk.

Operators are stored in normal order: within each mode, every X factor
stands to the left of every P factor. ``WeylPolynomial`` shares the sparse
container of ``phasepoly.PhasePolynomial`` and adds the normal-ordered
product. On m modes a term maps the flat multi-index

    (a_X0, ..., a_X(m-1), a_P0, ..., a_P(m-1))

(X exponents first, then P exponents, like positions then momenta in
``phasepoly``) to a Gaussian-rational coefficient, so all reordering moves
produced by the canonical commutation relation stay exact. Products of
operators on different modes always commute.

The module also proves, at the generator level, the controlled-shift
conjugation identity used by the gate synthesizer:

    exp(i h X_c P_t) X_t^a exp(-i h X_c P_t) = (X_t + h X_c)^a

whose commutator cascade terminates after the a-th step, and the product
rule of the Liouville operator used to transport Born densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .expansion import expansion_coefficients
from .phasepoly import PhasePolynomial, SparsePolynomial, poisson_bracket


@dataclass(frozen=True)
class ComplexRational:
    """Gaussian rational a + b i with exact Fraction parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def coerce(cls, value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(Fraction(value), Fraction(0))
        raise TypeError(f"cannot use {type(value).__name__} as a Gaussian rational")

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other) -> "ComplexRational":
        if not isinstance(other, _EXACT):
            return NotImplemented
        other = ComplexRational.coerce(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexRational":
        return self + -other

    def __rsub__(self, other) -> "ComplexRational":
        return -self + other

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other) -> "ComplexRational":
        if not isinstance(other, _EXACT):
            return NotImplemented
        other = ComplexRational.coerce(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, k) -> "ComplexRational":
        k = Fraction(k)
        return ComplexRational(self.re / k, self.im / k)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}i"


# The scalars a ComplexRational combines with; anything else gets
# NotImplemented, so the other operand (e.g. a WeylPolynomial) can answer.
_EXACT = (ComplexRational, int, Fraction)

ONE = ComplexRational(Fraction(1))
I = ComplexRational(Fraction(0), Fraction(1))

# (-i)^k for k mod 4, used by the reordering rule below.
_MINUS_I_POW = (ONE, -I, -ONE, I)


def _reorder_px(a: int, b: int) -> list[tuple[tuple[int, int], ComplexRational]]:
    """Normal order P^b X^a on one mode.

    P^b X^a = sum_k k! C(a,k) C(b,k) (-i)^k X^(a-k) P^(b-k), a direct
    consequence of [X, P] = i applied recursively.
    """
    out = []
    for k in range(min(a, b) + 1):
        c = math.comb(a, k) * math.comb(b, k) * math.factorial(k)
        out.append(((a - k, b - k), _MINUS_I_POW[k % 4] * c))
    return out


class WeylPolynomial(SparsePolynomial):
    """Normal-ordered polynomial in quadrature operators X_j, P_j, built as
    ``WeylPolynomial(num_modes, {multi_index: coeff})`` with flat
    multi-indices of length 2 * num_modes.

    ``*`` is the (noncommutative) operator product with the result
    re-normal-ordered exactly; ``+`` and scalar multiples behave as usual.
    """

    __slots__ = ()

    _VARS_PER_MODE = 2
    _MISMATCH = "mode-count mismatch: {} vs {}"
    _SCALARS = _EXACT
    _coerce = staticmethod(ComplexRational.coerce)

    @property
    def num_modes(self) -> int:
        return self.num_vars // 2

    def _term_product(self, e1, e2, coeff):
        # Only P_j^b X_j^a within each mode is out of order; modes commute.
        m = self.num_modes
        partial = [((), (), coeff)]
        for j in range(m):
            options = _reorder_px(e2[j], e1[m + j])
            partial = [
                (xs + (e1[j] + dx,), ps + (dp + e2[m + j],), c * factor)
                for xs, ps, c in partial
                for (dx, dp), factor in options
            ]
        for xs, ps, c in partial:
            yield xs + ps, c

    # -- constructors ------------------------------------------------------

    @classmethod
    def x(cls, num_modes: int, mode: int) -> "WeylPolynomial":
        return cls._quadrature(num_modes, mode, mode)

    @classmethod
    def p(cls, num_modes: int, mode: int) -> "WeylPolynomial":
        return cls._quadrature(num_modes, mode, num_modes + mode)

    @classmethod
    def _quadrature(cls, num_modes: int, mode: int, index: int) -> "WeylPolynomial":
        if not 0 <= mode < num_modes:
            raise ValueError(f"mode {mode} out of range for {num_modes} modes")
        expo = tuple(1 if i == index else 0 for i in range(2 * num_modes))
        return cls(num_modes, {expo: ONE})

    @classmethod
    def from_position_polynomial(cls, poly: PhasePolynomial) -> "WeylPolynomial":
        """Promote a commuting polynomial to operators, variable i -> X_i."""
        pad = (0,) * poly.num_vars
        return cls(poly.num_vars, {e + pad: c for e, c in poly.terms.items()})

    # -- structure ---------------------------------------------------------

    def max_single_mode_degree(self) -> int:
        m = self.num_modes
        return max(
            (max(e[j] + e[m + j] for j in range(m)) for e in self.terms), default=0
        )

    def adjoint(self) -> "WeylPolynomial":
        """Hermitian adjoint: conjugate coefficients, reverse operator order,
        then re-normal-order (X and P are self-adjoint)."""
        m = self.num_modes
        out = WeylPolynomial.zero(m)
        for expo, coeff in self.terms.items():
            term = WeylPolynomial.constant(m, coeff.conjugate())
            for mode in range(m):
                if expo[m + mode]:
                    term = term * WeylPolynomial.p(m, mode) ** expo[m + mode]
                if expo[mode]:
                    term = term * WeylPolynomial.x(m, mode) ** expo[mode]
            out = out + term
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        m = self.num_modes
        pieces = []
        for expo, coeff in self.sorted_terms():
            factors = []
            for mode in range(m):
                for name, e in (("X", expo[mode]), ("P", expo[m + mode])):
                    if e:
                        factors.append(f"{name}{mode}" + (f"^{e}" if e > 1 else ""))
            body = " ".join(factors) if factors else "1"
            pieces.append(f"({coeff}) {body}")
        return " + ".join(pieces)


def commutator(a: WeylPolynomial, b: WeylPolynomial) -> WeylPolynomial:
    """[a, b] = ab - ba, normal-ordered."""
    return a * b - b * a


class NonTerminatingAdjointError(RuntimeError):
    """The iterated commutator series did not vanish within max_depth."""


def adjoint_series(
    a: WeylPolynomial, b: WeylPolynomial, max_depth: int | None = None
) -> tuple[WeylPolynomial, int]:
    """Exact conjugation e^a b e^(-a) via the terminating commutator series.

    Returns (result, depth) where depth is the index of the last nonzero
    iterated commutator. Raises NonTerminatingAdjointError if the series
    has not vanished after max_depth commutators; nothing is silently
    truncated. The default depth bound covers every cascade in which the
    repeated commutator strictly lowers the degree of b.
    """
    a._check_compatible(b)
    if max_depth is None:
        max_depth = max(b.degree(), 0) * max(a.max_single_mode_degree(), 1) + 2
    result = b
    nested = b
    factorial = 1
    depth = 0
    for k in range(1, max_depth + 1):
        nested = commutator(a, nested)
        if nested.is_zero:
            return result, depth
        factorial *= k
        result = result + nested * Fraction(1, factorial)
        depth = k
    raise NonTerminatingAdjointError(
        f"commutator series still nonzero after {max_depth} iterations"
    )


# -- decomposition proofs ----------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one generator-level conjugation identity."""

    v: tuple[int, int, int]
    weights: tuple[int, int, int, int]
    depth: int
    passed: bool


@dataclass
class DecompositionProof:
    """Proof report for lowering exp(-i s P_1 X_2^a2 X_3^a3 X_4^a4).

    Each check conjugates C(v) X_1^a by the controlled-shift unitaries with
    weights h and confirms the result is C(v) (sum_i h_i X_i)^a; the final
    flag records that the expansion terms sum back to the target monomial.
    """

    exponents: tuple[int, int, int]
    checks: list[IdentityCheck] = field(default_factory=list)
    sum_matches_target: bool = False

    @property
    def passed(self) -> bool:
        return self.sum_matches_target and all(c.passed for c in self.checks)

    def to_text(self) -> str:
        a = 1 + sum(self.exponents)
        lines = [
            f"generator exponents (a2,a3,a4)={self.exponents} degree a={a}: "
            f"{len(self.checks)} expansion terms"
        ]
        for c in self.checks:
            lines.append(
                f"  v={c.v} h={c.weights} depth={c.depth} "
                f"{'PASS' if c.passed else 'FAIL'}"
            )
        lines.append(
            f"  sum over v reproduces X1 X2^{self.exponents[0]} "
            f"X3^{self.exponents[1]} X4^{self.exponents[2]}: "
            f"{'PASS' if self.sum_matches_target else 'FAIL'}"
        )
        return "\n".join(lines)


def verify_key_decomposition(a2: int, a3: int, a4: int) -> DecompositionProof:
    """Prove the controlled-shift lowering of one generator, exactly.

    Works at the generator (Lie-algebra) level: conjugating a Hermitian
    generator inside an exponential equals exponentiating the conjugated
    generator, so the unitary identity reduces to a polynomial operator
    identity decidable in rational arithmetic.
    """
    terms = expansion_coefficients(a2, a3, a4)
    a = 1 + a2 + a3 + a4
    m = 4
    proof = DecompositionProof(exponents=(a2, a3, a4))
    x = [WeylPolynomial.x(m, j) for j in range(m)]
    p0 = WeylPolynomial.p(m, 0)
    total = WeylPolynomial.zero(m)
    for term in terms:
        h = term.weights
        weighted = WeylPolynomial.zero(m)
        for i, hi in enumerate(h):
            if hi:
                weighted = weighted + x[i] * Fraction(hi)
        target = (weighted ** a) * term.coefficient
        conjugated = (x[0] ** a) * term.coefficient
        depth = 0
        for i in (1, 2, 3):
            if h[i] == 0:
                continue
            generator = (x[i] * p0) * (I * Fraction(h[i]))
            conjugated, d = adjoint_series(generator, conjugated)
            depth = max(depth, d)
        proof.checks.append(
            IdentityCheck(
                v=term.v, weights=h, depth=depth, passed=conjugated == target
            )
        )
        total = total + target
    monomial = x[0]
    for i, e in zip((1, 2, 3), (a2, a3, a4)):
        monomial = monomial * (x[i] ** e)
    proof.sum_matches_target = total == monomial
    return proof


def verify_liouvillian_product_rule(
    h: PhasePolynomial, f: PhasePolynomial, g: PhasePolynomial
) -> bool:
    """Check L[f g] = L[f] g + f L[g] exactly, with L f = {h, f}.

    This is the derivation property that lets the squared modulus of a
    transported wave function solve the Liouville equation.
    """
    lhs = poisson_bracket(h, f * g)
    rhs = poisson_bracket(h, f) * g + f * poisson_bracket(h, g)
    return lhs == rhs
