from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxclass.zeta import (
    BivariatePolynomial,
    BivariateRationalFunction,
    abscissa,
    abscissa_of,
    count_from_series,
    divide_exact,
    functional_equation_factor,
    geometric_assembly,
    middle_term_partial_fractions,
    render_text,
    series_coefficients,
    to_json_dict,
    zeta_closed_form,
)

mono = BivariatePolynomial.monomial


# -- polynomial layer --------------------------------------------------------


def test_poly_basics():
    a = mono(1, 0, 0) - mono(1, 0, 1)  # 1 - t
    b = mono(1, 1, 1)  # p t
    assert (a * b).terms == {(1, 1): 1, (1, 2): -1}
    assert (a - a) == BivariatePolynomial.zero()
    assert not (a - a)
    assert a.invert_variables().terms == {(0, 0): 1, (0, -1): -1}
    assert (3 * a).terms == {(0, 0): 3, (0, 1): -3}


def test_poly_specialize():
    f = mono(1, 2, 1) + mono(-1, -1, 1)  # p^2 t - t/p
    vals = f.specialize_p(5)
    assert vals == {1: Fraction(25) - Fraction(1, 5)}


small_polys = st.dictionaries(
    st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
    st.integers(-4, 4),
    max_size=5,
).map(BivariatePolynomial)

good_factors = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(1, 2)),
    st.tuples(st.integers(1, 3), st.just(0)),
)


@given(small_polys, good_factors)
@settings(max_examples=200)
def test_division_round_trip(q, factor):
    a, b = factor
    product = q * (mono(1) - mono(1, a, b))
    result = divide_exact(product, a, b)
    assert result == q


def test_division_detects_non_multiples():
    assert divide_exact(mono(1, 0, 0), 1, 1) is None  # 1 / (1 - p t)
    assert divide_exact(mono(1, 0, 1), 0, 1) is None  # t / (1 - t)
    one_minus_t = mono(1) - mono(1, 0, 1)
    assert divide_exact(one_minus_t, 0, 1) == mono(1)


def test_division_by_t_free_factors():
    assert divide_exact(mono(1), 1, 0) is None  # 1 / (1 - p)
    assert divide_exact(mono(1) + mono(1, 1, 0), 2, 0) is None  # (1 + p) / (1 - p^2)
    assert divide_exact(mono(1) - mono(1, 2, 0), 1, 0) == mono(1) + mono(1, 1, 0)
    assert divide_exact(mono(1, 0, 1) - mono(1, 2, 1), 2, 0) == mono(1, 0, 1)


@pytest.mark.parametrize("factor", [(0, 0), (-1, 0)])
def test_division_refuses_bad_t_free_factors(factor):
    with pytest.raises(ValueError):
        divide_exact(mono(1), *factor)
    assert divide_exact(BivariatePolynomial.zero(), *factor) == BivariatePolynomial.zero()


@pytest.mark.parametrize("factor", [(1, -1), (0, -1), (-1, -2)])
def test_division_refuses_negative_t_exponents(factor):
    # (1 - p t^-1) does not divide (1 - p); an unnormalized factor is
    # refused instead of being read as (1 - p^a).
    with pytest.raises(ValueError, match="factors must be normalized before division"):
        divide_exact(mono(1) - mono(1, 1, 0), *factor)
    assert divide_exact(BivariatePolynomial.zero(), *factor) == BivariatePolynomial.zero()


# -- rational layer ----------------------------------------------------------


def test_rational_normalization_flips_bad_factors():
    # 1 / (1 - p^-2) = -p^2 / (1 - p^2)
    f = BivariateRationalFunction(mono(1), ((-2, 0),))
    assert f.den_factors == ((2, 0),)
    assert f.num == mono(-1, 2, 0)
    with pytest.raises(ValueError):
        BivariateRationalFunction(mono(1), ((0, 0),))


def test_rational_reduces_on_construction():
    num = (mono(1) - mono(1, 0, 1)) * (mono(1) - mono(1, 1, 1))
    f = BivariateRationalFunction(num, ((1, 1), (2, 1)))
    assert f.den_factors == ((2, 1),)
    assert f.num == mono(1) - mono(1, 0, 1)


def test_rational_zero_numerator_cancels_every_factor():
    f = BivariateRationalFunction(BivariatePolynomial.zero(), ((1, 1), (2, 0)))
    assert f.den_factors == ()
    assert not f.num


def test_rational_equality_cross_multiplies():
    # t / (1 - t) == (p t) / (p (1 - t)) is not representable directly;
    # instead compare equal functions with different factor bookkeeping.
    f = BivariateRationalFunction(mono(1, 0, 1), ((0, 1),))
    g = BivariateRationalFunction(
        mono(1, 0, 1) * (mono(1) - mono(1, 1, 1)), ((0, 1), (1, 1))
    )
    assert f == g


def test_rational_equality_cross_multiplies_unreduced_denominators():
    # (1 + p t) / (1 - p^2 t^2) is 1 / (1 - p t), but construction cancels
    # only whole (1 - p^a t^b) factors, so the denominators stay different.
    f = BivariateRationalFunction(mono(1) + mono(1, 1, 1), ((2, 2),))
    g = BivariateRationalFunction(mono(1), ((1, 1),))
    assert f.den_factors != g.den_factors
    assert f == g
    assert f != BivariateRationalFunction(mono(1), ((2, 1),))


def test_rational_addition():
    one = BivariateRationalFunction.from_int(1)
    last = BivariateRationalFunction(mono(1, 1, 1) - mono(1, 0, 1), ((1, 1),))
    total = one + last
    # 1 + (p-1)t/(1-pt) = (1-t)/(1-pt)
    assert total == BivariateRationalFunction(mono(1) - mono(1, 0, 1), ((1, 1),))


# -- the zeta factors --------------------------------------------------------


def test_closed_forms():
    assert render_text(zeta_closed_form(3)) == "(1 - t)^2 / ((1 - p t)^2)"
    assert render_text(zeta_closed_form(2)) == "(1 - t) / (1 - p t)"
    assert render_text(zeta_closed_form(5)) == "(1 - t)^2 / ((1 - p^3 t)(1 - p t))"
    assert zeta_closed_form(2).den_factors == ((1, 1),)
    with pytest.raises(ValueError):
        zeta_closed_form(1)


def test_series_reference_values():
    # 1/(1-5t)^2 expands to sum (N+1) 5^N t^N, so the coefficient of t^N in
    # (1-t)^2/(1-5t)^2 is (N+1)5^N - 2N 5^(N-1) + (N-1)5^(N-2).
    def coeff(N, p):
        val = (N + 1) * p**N - 2 * N * p ** (N - 1)
        if N >= 2:
            val += (N - 1) * p ** (N - 2)
        return val

    assert series_coefficients(zeta_closed_form(3), 5, 2) == [coeff(0, 5), coeff(1, 5), coeff(2, 5)]
    assert series_coefficients(zeta_closed_form(3), 5, 2) == [1, 8, 56]
    # (1-t)/(1-3t): r_{3^N} = 2 * 3^(N-1)
    assert series_coefficients(zeta_closed_form(2), 3, 3) == [1, 2, 6, 18]
    # coefficient of t at n=4 is p^2 + p - 2
    assert series_coefficients(zeta_closed_form(4), 5, 1) == [1, 28]
    assert count_from_series(3, 5, 2) == 56


def test_series_requires_unit_denominator():
    f = BivariateRationalFunction(mono(1), ((2, 0),))
    with pytest.raises(ValueError):
        series_coefficients(f, 5, 3)
    g = BivariateRationalFunction(mono(1, 0, -1), ((1, 1),))
    with pytest.raises(ValueError):
        series_coefficients(g, 5, 3)


def test_functional_equation():
    for n in range(2, 11):
        assert functional_equation_factor(n) == n - 1
    # the substituted function really is p^(n-1) times the original
    f = zeta_closed_form(4)
    assert f.invert_variables() == mono(1, 3, 0) * f


def test_functional_equation_fails_off_family():
    # (1 - t) / (1 - p t)^2 does not satisfy any monomial functional equation
    f = BivariateRationalFunction(mono(1) - mono(1, 0, 1), ((1, 1), (1, 1)))
    g = f.invert_variables()
    assert g != mono(1, 1, 0) * f
    assert g != mono(1, 2, 0) * f


def test_abscissa():
    assert abscissa(2) == Fraction(1)
    assert abscissa(3) == Fraction(1)
    assert abscissa(5) == Fraction(3)
    for n in range(3, 11):
        assert abscissa(n) == Fraction(n - 2)
    with pytest.raises(ValueError):
        abscissa_of(BivariateRationalFunction(mono(1), ((2, 0),)))


def test_geometric_assembly_reduces_to_closed_form():
    for n in range(2, 9):
        assert geometric_assembly(n) == zeta_closed_form(n)


def test_partial_fraction_middle_term():
    # The printed partial-fraction shape agrees with the product shape
    # wherever it is defined; at n = 3 its leading coefficient is 0/0.
    for n in (2, 4, 5, 6, 7, 8):
        coef = (mono(1) - mono(1, -1, 0)) * (mono(1) - mono(1, -(n - 2), 0))
        product = (
            BivariateRationalFunction(coef)
            * BivariateRationalFunction(mono(1, 1, 1), ((1, 1),))
            * BivariateRationalFunction(mono(1, n - 2, 1), ((n - 2, 1),))
        )
        assert middle_term_partial_fractions(n) == product
    with pytest.raises(ValueError):
        middle_term_partial_fractions(3)


@given(st.integers(2, 14))
@settings(max_examples=13)
def test_functional_equation_any_n(n):
    assert functional_equation_factor(n) == n - 1


def test_json_form():
    blob = to_json_dict(zeta_closed_form(4))
    assert blob["num"] == [[1, 0, 0], [-2, 0, 1], [1, 0, 2]]
    assert blob["den_factors"] == [[2, 1], [1, 1]]


def test_render_handles_monomials_and_constants():
    assert render_text(BivariateRationalFunction.from_int(7)) == "7"
    f = BivariateRationalFunction(mono(3, 2, 1), ((1, 1),))
    assert render_text(f) == "3 p^2 t / (1 - p t)"


def test_render_handles_sums_and_zero():
    f = BivariateRationalFunction(mono(1) + mono(1, 1, 1), ((2, 2),))
    assert render_text(f) == "(1 + p t) / (1 - p^2 t^2)"
    g = BivariateRationalFunction(mono(1) - mono(2, 0, 1) + mono(3, 1, 2), ((1, 1),))
    assert render_text(g) == "(1 - 2 t + 3 p t^2) / (1 - p t)"
    zero = BivariateRationalFunction(BivariatePolynomial.zero(), ((1, 1),))
    assert render_text(zero) == "0"
