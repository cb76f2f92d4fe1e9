"""Derivation of the Koopman-von Neumann generator from a classical
Hamiltonian.

A classical Hamiltonian H(x) = V(x_1..x_n) + T(x_{n+1}..x_{2n}) with
polynomial V and T of degree at most four maps to the Hermitian operator

    H_KvN = sum_j ( dT/dX_{n+j} P_j  -  dV/dX_j P_{n+j} ),

equal to i L for the Liouville operator L. Each qumode carries one phase
space coordinate, so a system with n degrees of freedom needs 2n qumodes.
Every summand couples a momentum quadrature P_j to a polynomial in
position quadratures of the opposite coordinate block, which is exactly
the family of generators the synthesizer knows how to lower to gates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .phasepoly import PhasePolynomial, format_polynomial


class SeparationError(ValueError):
    """The Hamiltonian mixes position and momentum variables in one term."""


class DegreeError(ValueError):
    """A polynomial exceeds the supported degree."""


@dataclass(frozen=True)
class ClassicalHamiltonian:
    """Separable polynomial Hamiltonian V(positions) + T(momenta).

    Both parts live over the full 2n variables; V may only involve
    x_1..x_n (plus constants) and T only x_{n+1}..x_{2n}.
    """

    n: int
    V: PhasePolynomial
    T: PhasePolynomial

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        dim = 2 * self.n
        if self.V.num_vars != dim or self.T.num_vars != dim:
            raise ValueError(f"V and T must be polynomials in {dim} variables")
        positions = set(range(self.n))
        momenta = set(range(self.n, dim))
        if not self.V.support() <= positions:
            raise SeparationError(
                f"V involves momentum variables: {sorted(self.V.support() - positions)}"
            )
        if not self.T.support() <= momenta:
            raise SeparationError(
                f"T involves position variables: {sorted(self.T.support() - momenta)}"
            )
        for name, poly in (("V", self.V), ("T", self.T)):
            if poly.degree() > 4:
                raise DegreeError(f"{name} has degree {poly.degree()}, maximum is 4")

    @property
    def num_vars(self) -> int:
        return 2 * self.n

    def total(self) -> PhasePolynomial:
        return self.V + self.T


def validate_separation(h_raw: PhasePolynomial, n: int) -> ClassicalHamiltonian:
    """Split a raw 2n-variable polynomial into V + T.

    Every monomial must be supported entirely on the position block or
    entirely on the momentum block; constants go to V. Raises
    SeparationError naming the offending monomial otherwise.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if h_raw.num_vars != 2 * n:
        raise ValueError(
            f"Hamiltonian has {h_raw.num_vars} variables, expected {2 * n}"
        )
    positions = set(range(n))
    momenta = set(range(n, 2 * n))
    v_terms = {}
    t_terms = {}
    for expo, coeff in h_raw.terms.items():
        support = {i for i, e in enumerate(expo) if e}
        if support <= positions:
            v_terms[expo] = coeff
        elif support <= momenta:
            t_terms[expo] = coeff
        else:
            monomial = format_polynomial(PhasePolynomial(h_raw.num_vars, {expo: coeff}))
            raise SeparationError(
                f"position-momentum cross term {monomial!r} is not supported"
            )
    return ClassicalHamiltonian(
        n=n,
        V=PhasePolynomial(h_raw.num_vars, v_terms),
        T=PhasePolynomial(h_raw.num_vars, t_terms),
    )


@dataclass(frozen=True)
class KvNTerm:
    """One summand sign * factor(X) * P_mode of the KvN generator.

    ``factor`` is a polynomial in position quadratures that never involves
    the qumode carrying the momentum quadrature, so the two commute and
    the term is Hermitian on its own. Terms derived from a separable
    Hamiltonian additionally respect the position/momentum block split;
    that is enforced where it is meaningful, on KvNHamiltonian, so that
    bare catalog generators (e.g. a three-control shift on four qumodes)
    remain expressible for synthesis and its oracle.
    """

    factor: PhasePolynomial
    mode: int
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        dim = self.factor.num_vars
        if not 0 <= self.mode < dim:
            raise ValueError(f"mode {self.mode} out of range for {dim} qumodes")
        if self.mode in self.factor.support():
            raise ValueError(
                f"factor of mode {self.mode} involves its own quadrature"
            )
        if self.factor.degree() > 3:
            raise DegreeError(
                f"factor degree {self.factor.degree()} gives a generator of "
                "degree > 4"
            )

    @property
    def num_modes(self) -> int:
        return self.factor.num_vars

    def is_block_separated(self) -> bool:
        """True when the factor lives entirely in the coordinate block
        opposite to the mode's block, as every Hamiltonian-derived term
        does."""
        dim = self.factor.num_vars
        if dim % 2:
            return False
        n = dim // 2
        allowed = set(range(n, dim)) if self.mode < n else set(range(n))
        return self.factor.support() <= allowed


@dataclass(frozen=True)
class KvNHamiltonian:
    """The KvN generator as an ordered list of controlled-shift terms."""

    n: int
    terms: tuple[KvNTerm, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        for term in self.terms:
            if term.num_modes != 2 * self.n:
                raise ValueError(
                    f"term spans {term.num_modes} qumodes, expected {2 * self.n}"
                )
            if not term.is_block_separated():
                raise SeparationError(
                    f"term on mode {term.mode} with factor support "
                    f"{sorted(term.factor.support())} violates the "
                    "position/momentum split"
                )

    @property
    def num_modes(self) -> int:
        return 2 * self.n

    def is_quadratic(self) -> bool:
        """True when every generator is at most quadratic, i.e. the induced
        flow of the position quadratures is affine in them, and carries a
        Gaussian density's mean and covariance exactly."""
        return all(t.factor.degree() <= 1 for t in self.terms)

    def dump(self) -> str:
        """Human-readable term listing: sign, factor, momentum mode."""
        if not self.terms:
            return "(zero generator)"
        lines = []
        for t in self.terms:
            sign = "+" if t.sign > 0 else "-"
            lines.append(f"{sign} ({format_polynomial(t.factor)}) P{t.mode}")
        return "\n".join(lines)


def build_kvn(h: ClassicalHamiltonian) -> KvNHamiltonian:
    """Differentiate V and T and emit one term per derivative monomial.

    Terms from T drive the position-block qumodes with sign +1; terms from
    V drive the momentum-block qumodes with sign -1. Constant parts of H
    differentiate away and never appear.
    """
    terms: list[KvNTerm] = []
    for j in range(h.n):
        derivative = h.T.partial_derivative(h.n + j)
        for monomial in derivative.monomials():
            terms.append(KvNTerm(factor=monomial, mode=j, sign=1))
    for j in range(h.n):
        derivative = h.V.partial_derivative(j)
        for monomial in derivative.monomials():
            terms.append(KvNTerm(factor=monomial, mode=h.n + j, sign=-1))
    return KvNHamiltonian(n=h.n, terms=tuple(terms))
