import ast
import random
from pathlib import Path

import pytest

import cherednik
from cherednik.polynomials import MPoly, ParamPoly, PP_K1, PP_K2
from cherednik.scalars import QuadExt, Rat, SQRT3, is_nonneg_int, rat
from cherednik.errors import NonDivisibleError

RNG = random.Random(101)


def rand_quad():
    return QuadExt(Rat(RNG.randint(-9, 9), RNG.randint(1, 5)),
                   Rat(RNG.randint(-9, 9), RNG.randint(1, 5)))


def rand_poly():
    p = ParamPoly()
    for _ in range(RNG.randint(1, 4)):
        e = (RNG.randint(0, 3), RNG.randint(0, 3))
        p = p + ParamPoly({e: QuadExt(Rat(RNG.randint(-5, 5)))})
    return p


def test_quadext_known_products():
    assert (QuadExt(1) + SQRT3) * (QuadExt(1) - SQRT3) == QuadExt(-2)
    assert SQRT3 * SQRT3 == QuadExt(3)
    assert (QuadExt(2) + SQRT3).inv() == QuadExt(2) - SQRT3


def test_quadext_field_axioms_random():
    for _ in range(60):
        x, y, z = rand_quad(), rand_quad(), rand_quad()
        assert x * (y + z) == x * y + x * z
        assert (x - y) + y == x
        if x:
            assert x * x.inv() == QuadExt(1)
            assert (y / x) * x == y


def test_quadext_powers_are_repeated_products():
    for x in (QuadExt(2) + SQRT3, QuadExt(Rat(-3, 4), Rat(5, 2)), QuadExt(Rat(7, 3))):
        prod = QuadExt(1)
        for n in range(6):
            if n in (0, 1, 5):
                assert x ** n == prod
            prod = prod * x
        inv = x.inv()
        assert x ** -3 == inv * inv * inv
    with pytest.raises(TypeError):
        SQRT3 ** 1.5


def test_quadext_sign_and_order():
    assert QuadExt(0).sign() == 0
    assert QuadExt(Rat(2, 7)).sign() == 1
    assert QuadExt(Rat(-5, 3)).sign() == -1
    with pytest.raises(ValueError):  # rational values only
        (QuadExt(2) - SQRT3).sign()


def test_quadext_rational_detection():
    assert QuadExt(Rat(7, 3)).is_rational
    assert not (QuadExt(1) + SQRT3).is_rational
    assert QuadExt(Rat(7, 3)).rational() == Rat(7, 3)


def test_trusted_quadext_matches_the_checked_constructor():
    for a, b in ((Rat(3, 4), None), (Rat(-5), Rat(1, 2)), (Rat(0), None)):
        q = QuadExt._of(a) if b is None else QuadExt._of(a, b)
        want = QuadExt(a) if b is None else QuadExt(a, b)
        assert q == want and hash(q) == hash(want) and repr(q) == repr(want)
    # the default sqrt(3) part is one shared rational zero
    assert QuadExt._of(Rat(3, 4)).b is QuadExt(Rat(3, 4)).b is QuadExt().b


def test_rat_helpers():
    assert rat("5/3") == Rat(5, 3)
    assert rat(2) == Rat(2)
    assert is_nonneg_int(Rat(4))
    assert not is_nonneg_int(Rat(-1))
    assert not is_nonneg_int(Rat(1, 2))


def test_parampoly_ring_axioms_random():
    for _ in range(40):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert (p - q) + q == p


def test_parampoly_mixed_scalar_arithmetic():
    p = PP_K1 * Rat(2) + Rat(1)
    assert p == Rat(1) + Rat(2) * PP_K1
    q = PP_K2 * SQRT3
    assert q * SQRT3 == PP_K2 * QuadExt(3)


def test_parampoly_eval_and_subst():
    p = PP_K1 * PP_K1 - PP_K2 * Rat(3) + Rat(1)
    assert p.eval2(Rat(2), Rat(1, 3)) == QuadExt(4)
    s = p.eval2(PP_K2, PP_K1)  # swap the slots
    assert s == PP_K2 * PP_K2 - PP_K1 * Rat(3) + Rat(1)
    assert s.eval2(Rat(1, 3), Rat(2)) == QuadExt(4)
    # at points with a sqrt(3) part, against the sum written term by term
    for _ in range(10):
        p = ParamPoly({(a, b): rand_quad() for a in range(9) for b in range(9 - a)
                       if RNG.random() < 0.2})
        v1, v2 = rand_quad(), QuadExt(Rat(RNG.randint(-3, 3)), Rat(RNG.randint(1, 3)))
        want = QuadExt(0)
        for (a, b), c in p.terms.items():
            term = c
            for _ in range(a):
                term = term * v1
            for _ in range(b):
                term = term * v2
            want = want + term
        assert p.eval2(v1, v2) == want
        # a scalar in one slot and a polynomial in the other
        assert p.eval2(v1, PP_K2).eval2(Rat(0), v2) == want


def test_parampoly_divexact_roundtrip():
    for _ in range(30):
        p, q = rand_poly(), rand_poly()
        if not q:
            continue
        assert (p * q).divexact(q) == p


def test_parampoly_divexact_rejects_nonfactor():
    p = PP_K1 + Rat(1)
    q = PP_K1 + Rat(2)
    try:
        p.divexact(q)
    except NonDivisibleError:
        pass
    else:
        raise AssertionError("expected NonDivisibleError")


def test_parampoly_constant_queries():
    def is_constant(p):
        return not p.terms or p.terms.keys() == {(0, 0)}

    c = ParamPoly.const(Rat(5, 2))
    assert is_constant(c) and c.coefficient(0, 0) == QuadExt(Rat(5, 2))
    assert not is_constant(PP_K1)
    assert is_constant(ParamPoly()) and ParamPoly().coefficient(0, 0) == 0  # zero


_INTEGER_MATH = {"lcm", "gcd", "isqrt", "factorial", "comb"}


def test_package_source_has_no_floats():
    # the package computes over Q(sqrt(3)) only: no float or complex
    # literal, no float()/complex() call, and from math only its integer
    # functions
    bad = []
    for path in sorted(Path(cherednik.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        math_names = {a.asname or a.name for node in ast.walk(tree)
                      if isinstance(node, ast.Import)
                      for a in node.names if a.name == "math"}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                bad.append(f"{where}: literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("float", "complex")):
                bad.append(f"{where}: call to {node.func.id}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in math_names and node.attr not in _INTEGER_MATH):
                bad.append(f"{where}: math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                bad.extend(f"{where}: from math import {a.name}" for a in node.names
                           if a.name not in _INTEGER_MATH)
    assert not bad, bad


def test_linalg_imports_only_errors_and_scalars():
    # the linear algebra sits below the polynomial rings: of the package it
    # may import errors and scalars only
    path = Path(cherednik.__file__).parent / "linalg.py"
    pkg = cherednik.__name__
    got = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            got.update(a.name.partition(".")[2] or pkg for a in node.names
                       if a.name.partition(".")[0] == pkg)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                sub = mod
            elif mod.partition(".")[0] == pkg:
                sub = mod.partition(".")[2]
            else:
                continue
            got.update([sub.partition(".")[0]] if sub else [a.name for a in node.names])
    assert got <= {"errors", "scalars"}, got


# -- operand rules: what a QuadExt operation accepts and what it returns -----

_X = QuadExt(Rat(3, 4), -1)
_OTHERS = [3, Rat(-5, 2), QuadExt(Rat(1, 3), 2)]


def _parts(v):
    """(a, b) of v = a + b*s3, for an int, a Rat or a QuadExt."""
    return (v.a, v.b) if isinstance(v, QuadExt) else (Rat(v), Rat(0))


def _quotient(x, y):
    # (a + b s3) / (c + d s3) = (a + b s3)(c - d s3) / (c^2 - 3 d^2)
    (a, b), (c, d) = x, y
    n = c * c - 3 * d * d
    return (a * c - 3 * b * d) / n, (b * c - a * d) / n


@pytest.mark.parametrize("other", _OTHERS, ids=["int", "Rat", "QuadExt"])
def test_mixed_operands_give_a_quadext_of_the_exact_value(other):
    (a, b), (c, d) = _parts(_X), _parts(other)
    want = {
        "x + y": ((a + c, b + d), _X + other), "y + x": ((a + c, b + d), other + _X),
        "x - y": ((a - c, b - d), _X - other), "y - x": ((c - a, d - b), other - _X),
        "x * y": ((a * c + 3 * b * d, a * d + b * c), _X * other),
        "y * x": ((a * c + 3 * b * d, a * d + b * c), other * _X),
        "x / y": (_quotient((a, b), (c, d)), _X / other),
        "y / x": (_quotient((c, d), (a, b)), other / _X),
    }
    for op, (parts, got) in want.items():
        assert type(got) is QuadExt, op
        assert (got.a, got.b) == parts, op
        assert type(got.a) is type(got.b) is type(Rat(0)), op


def test_equality_and_hash_across_int_rat_and_quadext():
    for scalar, q in ((3, QuadExt(3)), (Rat(-5, 2), QuadExt(Rat(-5, 2))),
                      (Rat(4, 2), QuadExt(2))):
        assert q == scalar and scalar == q
        assert hash(q) == hash(scalar)
    assert QuadExt(Rat(1, 3), 2) == QuadExt(Rat(2, 6), Rat(2))
    assert hash(QuadExt(Rat(1, 3), 2)) == hash(QuadExt(Rat(2, 6), Rat(2)))
    assert QuadExt(3, 1) != 3 and 3 != QuadExt(3, 1)
    assert QuadExt(3) != 4 and QuadExt(Rat(1, 2)) != Rat(1, 3)
    assert QuadExt(Rat(3, 2)) != 1.5  # no float is a value of the field


@pytest.mark.parametrize("bad", [1.5, "1"], ids=["float", "str"])
def test_float_and_str_operands_are_refused(bad):
    for op in (lambda: _X + bad, lambda: bad + _X, lambda: _X - bad, lambda: bad - _X,
               lambda: _X * bad, lambda: bad * _X, lambda: _X / bad, lambda: bad / _X):
        with pytest.raises(TypeError):
            op()


def test_polynomial_operands_defer_to_the_polynomial():
    const = ParamPoly.const(_X)
    assert type(_X + PP_K1) is ParamPoly and _X + PP_K1 == PP_K1 + const
    assert type(_X - PP_K1) is ParamPoly and _X - PP_K1 == const - PP_K1
    assert type(_X * PP_K1) is ParamPoly and _X * PP_K1 == PP_K1 * const
    assert _X == const and const == _X
    x1 = MPoly(2, {(1, 0): QuadExt(1)})
    assert type(_X + x1) is MPoly and (_X + x1).terms == {(1, 0): QuadExt(1), (0, 0): _X}
    assert type(_X - x1) is MPoly and (_X - x1).terms == {(1, 0): QuadExt(-1), (0, 0): _X}
    assert type(_X * x1) is MPoly and (_X * x1).terms == {(1, 0): _X}
    assert _X == MPoly(2, {(0, 0): _X}) and _X != x1
    with pytest.raises(TypeError):  # no division by a polynomial
        _X / PP_K1


@pytest.mark.parametrize("zero", [0, Rat(0), QuadExt(0)], ids=["int", "Rat", "QuadExt"])
def test_division_by_zero_raises(zero):
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        _X / zero
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        divmod(_X, zero)


def test_zero_has_no_inverse():
    for op in (lambda: QuadExt(0).inv(), lambda: QuadExt(0) ** -1,
               lambda: 1 / QuadExt(0), lambda: Rat(1) / QuadExt(0)):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            op()


def test_coercions_refuse_other_types():
    with pytest.raises(TypeError, match="cannot coerce float to a rational"):
        rat(1.5)
    with pytest.raises(TypeError, match="cannot coerce str to QuadExt"):
        QuadExt.coerce("1")
    assert QuadExt.coerce(_X) is _X
    assert QuadExt.coerce(Rat(1, 2)) == QuadExt(Rat(1, 2))
    assert type(QuadExt.coerce(2).a) is type(Rat(0))


def test_quadext_is_immutable():
    with pytest.raises(AttributeError, match="QuadExt is immutable"):
        _X.a = Rat(1)


def test_quadext_str_forms():
    assert str(QuadExt(Rat(-1, 2))) == "-1/2"
    assert str(QuadExt(0, 1)) == "s3"
    assert str(QuadExt(0, -1)) == "-s3"
    assert str(QuadExt(0, Rat(3, 2))) == "3/2*s3"
    assert str(QuadExt(2, 1)) == "2+s3"
    assert str(QuadExt(2, -1)) == "2-s3"
    assert str(QuadExt(Rat(-1, 2), -2)) == "-1/2-2*s3"
