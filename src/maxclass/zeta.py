"""Exact rational functions in (p, t) and the local zeta factors.

The generating function of the twist-isoclass counts,

    Z_n(s) = sum_{N>=0} r_{p^N} p^{-Ns},

is a rational function of t = p^{-s} with integer coefficients in p.
For n >= 2 and p >= n it equals

    (1 - t)^2 / ((1 - p^(n-2) t)(1 - p t)),

where for n = 2 the numerator factor (1 - t) cancels against the
denominator.  This module implements just enough exact bivariate
algebra to state and verify that: Laurent polynomials in (p, t) with
integer coefficients, rational functions whose denominators are kept as
explicit multisets of factors (1 - p^a t^b), exact series extraction
after specializing p, the substitution (p, t) -> (1/p, 1/t) behind the
functional equation, and the abscissa of convergence read off the pole
factors as max a/b.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .errors import InternalCheckError
from .rootlog import check_group_index, validate_grid_point


class BivariatePolynomial:
    """An integer Laurent polynomial in p and t.

    Stored as a map (p_exponent, t_exponent) -> nonzero coefficient;
    exponents may be negative.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def one(cls) -> "BivariatePolynomial":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, coef: int, pexp: int = 0, texp: int = 0) -> "BivariatePolynomial":
        return cls({(pexp, texp): coef})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial({k: -v for k, v in self.terms.items()})

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return BivariatePolynomial(out)

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + (-other)

    def __mul__(self, other) -> "BivariatePolynomial":
        if isinstance(other, int):
            return BivariatePolynomial(
                {k: v * other for k, v in self.terms.items()}
            )
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivariatePolynomial(out)

    __rmul__ = __mul__

    def shifted(self, dp: int, dt: int) -> "BivariatePolynomial":
        """Multiplication by the monomial p^dp t^dt."""
        return BivariatePolynomial(
            {(a + dp, b + dt): c for (a, b), c in self.terms.items()}
        )

    def invert_variables(self) -> "BivariatePolynomial":
        """The substitution p -> 1/p, t -> 1/t."""
        return BivariatePolynomial(
            {(-a, -b): c for (a, b), c in self.terms.items()}
        )

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """Terms as (coef, pexp, texp), ordered by (texp, pexp)."""
        return [
            (self.terms[k], k[0], k[1])
            for k in sorted(self.terms, key=lambda k: (k[1], k[0]))
        ]

    def specialize_p(self, p_value: int) -> dict[int, Fraction]:
        """Collapse p to an integer; returns {t_exponent: coefficient}."""
        out: dict[int, Fraction] = {}
        for (a, b), c in self.terms.items():
            out[b] = out.get(b, Fraction(0)) + c * Fraction(p_value) ** a
        return {b: v for b, v in out.items() if v != 0}

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self.terms!r})"


def _times_factors(poly: BivariatePolynomial, factors) -> BivariatePolynomial:
    """poly times (1 - p^a t^b) for each (a, b) of ``factors``, with multiplicity."""
    for a, b in factors:
        poly = poly * BivariatePolynomial({(0, 0): 1, (a, b): -1})
    return poly


def _swapped(poly: BivariatePolynomial) -> BivariatePolynomial:
    """The polynomial with the roles of p and t exchanged."""
    return BivariatePolynomial({(t, pe): c for (pe, t), c in poly.terms.items()})


def divide_exact(
    num: BivariatePolynomial, a: int, b: int
) -> BivariatePolynomial | None:
    """Exact quotient num / (1 - p^a t^b), or None if not divisible.

    The division runs down the t-degree (the divisor's leading
    t-coefficient -p^a is a unit in the Laurent ring).  A t-free factor
    (1 - p^a) is the same division with p and t swapped.  The factor
    must be normalized (b >= 0, and a >= 0 when b = 0).
    """
    if not num:
        return BivariatePolynomial.zero()
    if b < 0 or (b == 0 and a < 0):
        raise ValueError("factors must be normalized before division")
    if b == 0:
        if a == 0:
            raise ValueError("cannot divide by the zero factor (1 - 1)")
        q = divide_exact(_swapped(num), 0, a)
        return None if q is None else _swapped(q)
    terms = dict(num.terms)
    quotient: dict[tuple[int, int], int] = {}
    min_t = min(t for (_, t) in terms)
    while terms:
        d = max(t for (_, t) in terms)
        if d - b < min_t:
            return None
        # Eliminate the whole t^d slice against the -p^a t^b term.
        slice_d = [(pe, c) for (pe, te), c in terms.items() if te == d]
        for pe, c in slice_d:
            qk = (pe - a, d - b)
            quotient[qk] = quotient.get(qk, 0) - c
            terms[qk] = terms.get(qk, 0) + c
            if terms[qk] == 0:
                del terms[qk]
            del terms[(pe, d)]
    return BivariatePolynomial(quotient)


def _normalize_factor(
    a: int, b: int
) -> tuple[tuple[int, int], BivariatePolynomial | None]:
    """Bring a factor (1 - p^a t^b) to canonical orientation.

    Canonical means (b >= 1 and a >= 0) or (b == 0 and a >= 1).  A
    factor in the opposite orientation satisfies

        1 / (1 - p^a t^b) = -p^-a t^-b / (1 - p^-a t^-b),

    so flipping it multiplies the numerator by -p^-a t^-b; that
    multiplier is returned alongside the flipped factor.
    """
    if a == 0 and b == 0:
        raise ValueError("the factor (1 - p^0 t^0) is zero")
    if (b >= 1 and a >= 0) or (b == 0 and a >= 1):
        return (a, b), None
    na, nb = -a, -b
    if (nb >= 1 and na >= 0) or (nb == 0 and na >= 1):
        return (na, nb), BivariatePolynomial.monomial(-1, -a, -b)
    raise ValueError(f"unsupported denominator factor shape (1 - p^{a} t^{b})")


class BivariateRationalFunction:
    """num / prod (1 - p^a_i t^b_i), always stored reduced.

    The denominator is a multiset of two-term factors, never expanded,
    so cancellation is exact trial division and pole data stays
    readable.  Construction normalizes factor orientation (the expanded
    denominator has constant term +1 and nonnegative exponents) and
    cancels every factor that divides the numerator.
    """

    __slots__ = ("num", "den_factors")

    def __init__(self, num: BivariatePolynomial, den_factors=()):
        # One pass suffices: a factor that does not divide num cannot
        # divide num / F either, and a zero num absorbs every factor.
        factors: list[tuple[int, int]] = []
        for a, b in den_factors:
            canon, mult = _normalize_factor(a, b)
            if mult is not None:
                num = num * mult
            q = divide_exact(num, *canon)
            if q is None:
                factors.append(canon)
            else:
                num = q
        self.num = num
        self.den_factors = tuple(sorted(factors))

    @classmethod
    def from_int(cls, value: int) -> "BivariateRationalFunction":
        return cls(BivariatePolynomial.monomial(value))

    def den_poly(self) -> BivariatePolynomial:
        return _times_factors(BivariatePolynomial.one(), self.den_factors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariateRationalFunction):
            return NotImplemented
        if self.den_factors == other.den_factors:
            return self.num == other.num
        return self.num * other.den_poly() == other.num * self.den_poly()

    __hash__ = None

    def __add__(self, other: "BivariateRationalFunction") -> "BivariateRationalFunction":
        mine = Counter(self.den_factors)
        theirs = Counter(other.den_factors)
        common = mine | theirs
        left = _times_factors(self.num, (common - mine).elements())
        right = _times_factors(other.num, (common - theirs).elements())
        return BivariateRationalFunction(left + right, tuple(common.elements()))

    def __sub__(self, other: "BivariateRationalFunction") -> "BivariateRationalFunction":
        return self + BivariateRationalFunction(-other.num, other.den_factors)

    def __mul__(self, other) -> "BivariateRationalFunction":
        if isinstance(other, BivariatePolynomial):
            other = BivariateRationalFunction(other)
        elif isinstance(other, int):
            other = BivariateRationalFunction.from_int(other)
        return BivariateRationalFunction(
            self.num * other.num, self.den_factors + other.den_factors
        )

    __rmul__ = __mul__

    def invert_variables(self) -> "BivariateRationalFunction":
        """The function with (p, t) replaced by (1/p, 1/t), renormalized."""
        return BivariateRationalFunction(
            self.num.invert_variables(),
            tuple((-a, -b) for a, b in self.den_factors),
        )

    def __repr__(self) -> str:
        return f"<BivariateRationalFunction {render_text(self)}>"


def series_coefficients(
    f: BivariateRationalFunction, p_value: int, n_max: int
) -> list[int]:
    """Coefficients of t^0..t^n_max after substituting the integer p.

    Requires every denominator factor to involve t (constant term of the
    specialized denominator is then 1) and the numerator to have no
    negative t-exponents; the expansion is exact integer arithmetic via
    the recurrence c'_m = c_m + p^a c'_{m-b} per factor.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if any(b == 0 for (_, b) in f.den_factors):
        raise ValueError(
            "denominator is not a unit power series: it has a t-free factor"
        )
    num = f.num.specialize_p(p_value)
    if any(te < 0 for te in num):
        raise ValueError("numerator has negative t-exponents; no power series")
    coeffs = [num.get(m, Fraction(0)) for m in range(n_max + 1)]
    for a, b in f.den_factors:
        scale = Fraction(p_value) ** a
        for m in range(b, n_max + 1):
            coeffs[m] += scale * coeffs[m - b]
    out = []
    for m, c in enumerate(coeffs):
        if c.denominator != 1:
            raise InternalCheckError(f"series coefficient {m} is not integral: {c}")
        out.append(int(c))
    return out


def zeta_closed_form(n: int) -> BivariateRationalFunction:
    """The local zeta factor (1 - t)^2 / ((1 - p^(n-2) t)(1 - p t)).

    For n = 2 the reduction cancels a (1 - t), leaving
    (1 - t) / (1 - p t).
    """
    check_group_index(n)
    num = BivariatePolynomial({(0, 0): 1, (0, 1): -2, (0, 2): 1})
    return BivariateRationalFunction(num, ((n - 2, 1), (1, 1)))


def count_from_series(n: int, p: int, N: int) -> int:
    """r_{p^N} as the t^N series coefficient of the closed form."""
    validate_grid_point(n, p, N)
    return series_coefficients(zeta_closed_form(n), p, N)[N]


def abscissa_of(f: BivariateRationalFunction) -> Fraction:
    """max a/b over pole factors (1 - p^a t^b) with b >= 1.

    The coefficient of t^N grows like p^(alpha N) with alpha this
    maximum, so the Dirichlet series converges exactly for
    Re(s) > alpha.
    """
    rates = [Fraction(a, b) for a, b in f.den_factors if b >= 1]
    if not rates:
        raise ValueError("no t-dependent pole factors; abscissa undefined here")
    return max(rates)


def abscissa(n: int) -> Fraction:
    """Abscissa of convergence of the closed form: n-2 for n >= 3, 1 for n = 2."""
    return abscissa_of(zeta_closed_form(n))


def functional_equation_factor(n: int) -> int | None:
    """The exponent k with Z_n |_{p -> 1/p, t -> 1/t} = p^k Z_n, if any."""
    f = zeta_closed_form(n)
    g = f.invert_variables()
    if g.den_factors != f.den_factors or not f.num or not g.num:
        return None
    k = min(g.num.terms)[0] - min(f.num.terms)[0]
    return k if g.num == f.num.shifted(k, 0) else None


def geometric_assembly(n: int) -> BivariateRationalFunction:
    """The zeta factor rebuilt summand by summand from the case split.

    The count at level N splits into (a) tails with a primitive entry
    beyond e_2, (b) e_2 primitive with the rest of maximal depth
    l in [1, N-1], summed over l, and (c) e_2 primitive with trivial
    rest.  Summing each branch's geometric series in N (and in l for
    the middle branch) gives three rational summands whose total must
    reduce to the closed form.  The middle branch is assembled in the
    product form

        (1 - 1/p)(1 - p^-(n-2)) * (p t / (1 - p t)) * (p^(n-2) t / (1 - p^(n-2) t)),

    which is what the double geometric series sums to for every n >= 2;
    see ``middle_term_product``, and ``middle_term_partial_fractions``
    for the equivalent partial-fraction shape that exists away from
    n = 3.
    """
    check_group_index(n)
    mono = BivariatePolynomial.monomial
    one = BivariateRationalFunction.from_int(1)
    # (1 - p^-(n-2)) * p^(n-2) t / (1 - p^(n-2) t); numerator p^(n-2)t - t.
    # Built by subtraction: for n = 2 the two monomials coincide and cancel.
    first = BivariateRationalFunction(
        mono(1, n - 2, 1) - mono(1, 0, 1), ((n - 2, 1),)
    )
    # (1 - 1/p) p t / (1 - p t); numerator p t - t.
    last = BivariateRationalFunction(mono(1, 1, 1) - mono(1, 0, 1), ((1, 1),))
    return one + first + middle_term_product(n) + last


def _middle_coefficient(n: int) -> BivariatePolynomial:
    """The middle summand's constant (1 - 1/p)(1 - p^-(n-2))."""
    mono = BivariatePolynomial.monomial
    return (mono(1) - mono(1, -1, 0)) * (mono(1) - mono(1, -(n - 2), 0))


def middle_term_product(n: int) -> BivariateRationalFunction:
    """The middle summand in product form, for every n >= 2.

    (1-1/p)(1-p^-(n-2)) * (p t / (1 - p t)) * (p^(n-2) t / (1 - p^(n-2) t)).
    """
    return BivariateRationalFunction(
        _middle_coefficient(n) * BivariatePolynomial.monomial(1, n - 1, 2),
        ((1, 1), (n - 2, 1)),
    )


def middle_term_partial_fractions(n: int) -> BivariateRationalFunction:
    """The middle summand in its partial-fraction form.

    (1-1/p)(1-p^-(n-2)) / (1-p^(3-n)) * (pt/(1-p^(n-2)t) - pt/(1-pt));
    the leading coefficient degenerates to 0/0 at n = 3 (where the two
    bracket terms also coincide), so this shape only exists for n != 3.
    It must agree with ``middle_term_product`` everywhere it is defined.
    """
    if n == 3:
        raise ValueError("the partial-fraction shape has a removable pole at n = 3")
    check_group_index(n)
    coef = BivariateRationalFunction(_middle_coefficient(n), ((3 - n, 0),))
    pt = BivariatePolynomial.monomial(1, 1, 1)
    bracket = BivariateRationalFunction(pt, ((n - 2, 1),)) - BivariateRationalFunction(
        pt, ((1, 1),)
    )
    return coef * bracket


# -- rendering ---------------------------------------------------------------


def _render_monomial(pexp: int, texp: int) -> str:
    parts = []
    if pexp == 1:
        parts.append("p")
    elif pexp != 0:
        parts.append(f"p^{pexp}")
    if texp == 1:
        parts.append("t")
    elif texp != 0:
        parts.append(f"t^{texp}")
    return " ".join(parts) if parts else "1"


def _render_factor(a: int, b: int, mult: int) -> str:
    body = f"(1 - {_render_monomial(a, b)})"
    return body if mult == 1 else f"{body}^{mult}"


def _render_poly(poly: BivariatePolynomial) -> str:
    if not poly:
        return "0"
    pieces = []
    for coef, pe, te in poly.sorted_terms():
        mono = _render_monomial(pe, te)
        mag = abs(coef)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag} {mono}"
        if not pieces:
            pieces.append(body if coef > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(pieces)


def _factor_numerator(
    poly: BivariatePolynomial,
) -> tuple[list[tuple[int, int]], BivariatePolynomial]:
    """Greedily peel (1 - p^a t^b) factors off a polynomial for display."""
    found: list[tuple[int, int]] = []
    if not poly:
        return found, poly
    max_p = max(abs(pe) for pe, _ in poly.terms)
    max_t = max(abs(te) for _, te in poly.terms)
    candidates = [
        (a, b)
        for a in range(0, max_p + 1)
        for b in range(0, max_t + 1)
        if (a, b) != (0, 0)
    ]
    while True:
        for a, b in candidates:
            q = divide_exact(poly, a, b)
            if q is not None:
                found.append((a, b))
                poly = q
                break
        else:
            return found, poly


def render_text(f: BivariateRationalFunction) -> str:
    """Plain-text form like "(1 - t)^2 / ((1 - p^2 t)(1 - p t))"."""
    num_factors, rest = _factor_numerator(f.num)
    num_parts = [
        _render_factor(a, b, mult)
        for (a, b), mult in sorted(
            Counter(num_factors).items(), key=lambda kv: kv[0], reverse=True
        )
    ]
    if rest != BivariatePolynomial.one() or not num_parts:
        rendered = _render_poly(rest)
        num_parts.insert(0, rendered if len(rest.terms) <= 1 else f"({rendered})")
    num_text = "".join(num_parts)
    if not f.den_factors:
        return num_text
    groups = sorted(Counter(f.den_factors).items(), key=lambda kv: kv[0], reverse=True)
    den_parts = [_render_factor(a, b, mult) for (a, b), mult in groups]
    den_text = "".join(den_parts)
    if len(den_parts) > 1 or groups[0][1] > 1:
        den_text = f"({den_text})"
    return f"{num_text} / {den_text}"


def to_json_dict(f: BivariateRationalFunction) -> dict:
    """The wire form {num: [[coef, pexp, texp]...], den_factors: [[a, b]...]}."""
    return {
        "num": [[c, pe, te] for c, pe, te in f.num.sorted_terms()],
        "den_factors": [[a, b] for a, b in sorted(f.den_factors, reverse=True)],
    }
