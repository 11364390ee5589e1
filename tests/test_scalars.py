import ast
import copy
import math
import pickle
import random
import sys
import tomllib
from fractions import Fraction
from pathlib import Path

import pytest

import cherednik
from cherednik import scalars
from cherednik.polynomials import MPoly, ParamPoly, PP_K1, PP_K2
from cherednik.scalars import QuadExt, Rat, SQRT3, is_nonneg_int, rat
from cherednik.errors import NonDivisibleError
from cherednik.rootsystem import build_root_system
from cherednik.verma import VermaModule
from cherednik.wrep import get_irrep

RNG = random.Random(101)
_MODULUS = sys.hash_info.modulus


def _triple(v):
    """The stored ints (p, q, d) of v = (p + q s3) / d."""
    return v._p, v._q, v._d


def _is_canonical(v):
    p, q, d = _triple(v)
    return all(type(x) is int for x in (p, q, d)) and d > 0 and math.gcd(p, q, d) == 1


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
    # _of takes (p, q, d) of (p + q s3) / d and reduces it by the gcd
    for (p, q, d), want in (((3, 0, 4), QuadExt(Rat(3, 4))), ((6, 0, 8), QuadExt(Rat(3, 4))),
                            ((-10, 1, 2), QuadExt(-5, Rat(1, 2))), ((0, 0, 7), QuadExt()),
                            ((0, -6, 4), QuadExt(0, Rat(-3, 2)))):
        got = QuadExt._of(p, q, d)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert _triple(got) == _triple(want) and _is_canonical(got)
    # the sqrt(3) part of a rational value is one shared rational zero
    assert QuadExt._of(3, 0, 4).b is QuadExt(Rat(3, 4)).b is QuadExt().b


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


def test_package_source_has_one_configuration():
    # the package runs the same code under every install and interpreter
    # flag, and no import fallback.  This is the proof that python -O changes
    # nothing: -O strips assert statements, makes __debug__ False and sets
    # sys.flags.optimize, so none of the three may appear (docstrings go only
    # under -OO).  With this check the golden corpus needs one -O run
    bad = []
    for path in sorted(Path(cherednik.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sys_names = {a.asname or a.name for node in ast.walk(tree)
                     if isinstance(node, ast.Import) for a in node.names if a.name == "sys"}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Assert):
                bad.append(f"{where}: assert")
            elif isinstance(node, ast.Name) and node.id == "__debug__":
                bad.append(f"{where}: __debug__")
            elif (isinstance(node, ast.Attribute) and node.attr == "flags"
                  and isinstance(node.value, ast.Name) and node.value.id in sys_names):
                bad.append(f"{where}: sys.flags")
            elif isinstance(node, ast.ImportFrom) and node.module == "sys":
                bad.extend(f"{where}: from sys import flags" for a in node.names
                           if a.name == "flags")
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                bad.extend(f"{where}: except {n}" for n in sorted(
                    names & {"ImportError", "ModuleNotFoundError"}))
    assert not bad, bad


def test_package_source_meets_the_python_floor():
    # requires-python in pyproject.toml is the floor's one statement: this
    # interpreter meets it and every module parses at it.  feature_version
    # refuses only some newer grammar (type aliases, PEP 695 generics and
    # except* below 3.11) and accepts starred subscripts and PEP 701 f-strings
    # at 3.10, so running tier-1 on the floor interpreter stays the real check
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    spec = tomllib.loads(pyproject.read_text())["project"]["requires-python"]
    assert spec.startswith(">="), spec
    floor = tuple(int(part) for part in spec[2:].split("."))
    assert sys.version_info >= floor
    for path in sorted(Path(cherednik.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


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
    if not n:
        raise ZeroDivisionError("division by zero")
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


# -- the int triple against a reference kept here: a pair of Rat --------------

def _ref_rat(rng):
    """A Rat that is zero, an integer, with a factor shared by its parts
    before reduction, or with a numerator of about 100 bits."""
    kind = rng.randrange(5)
    if kind == 0:
        return Rat(0)
    if kind == 1:
        return Rat(rng.randint(-9, 9))
    if kind == 2:
        f = rng.choice((2, 3, 6, 12))
        return Rat(f * rng.randint(-9, 9), f * rng.randint(1, 9))
    if kind == 3:
        return Rat(rng.randint(-2 ** 100, 2 ** 100), rng.randint(1, 2 ** 60))
    return Rat(rng.randint(-60, 60), rng.randint(1, 60))


def _ref_operand(rng):
    """(x, (a, b)): x an int, a Rat or a QuadExt of the value a + b s3."""
    kind = rng.randrange(6)
    if kind == 0:
        n = rng.choice((0, 1, -1, rng.randint(-30, 30), rng.randint(-2 ** 80, 2 ** 80)))
        return n, (Rat(n), Rat(0))
    if kind == 1:
        r = _ref_rat(rng)
        return r, (r, Rat(0))
    if kind == 2:  # a triple with a common factor, left for _of to reduce
        g, d = rng.choice((1, 2, 3, 6)), rng.randint(1, 9)
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        return QuadExt._of(g * p, g * q, g * d), (Rat(p, d), Rat(q, d))
    a, b = _ref_rat(rng), _ref_rat(rng)
    return QuadExt(a, b), (a, b)


_REF_OPS = {
    "+": (lambda x, y: x + y, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    "-": (lambda x, y: x - y, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    "*": (lambda x, y: x * y,
          lambda x, y: (x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])),
    "/": (lambda x, y: x / y, _quotient),
}


def _ref_str(a, b):
    if not b:
        return str(a)
    bs = "s3" if b == 1 else "-s3" if b == -1 else f"{b}*s3"
    if not a:
        return bs
    return f"{a}{bs}" if bs[0] == "-" else f"{a}+{bs}"


def _assert_matches(v, ref, what):
    a, b = ref
    assert type(v) is QuadExt and _is_canonical(v), what
    assert (v.a, v.b) == (a, b) and type(v.a) is type(v.b) is Rat, what
    assert hash(v) == (hash((a, b)) if b else hash(a)), what
    assert str(v) == _ref_str(a, b) and repr(v) == f"QuadExt({a!r}, {b!r})", what
    assert bool(v) == bool(a or b) and v.is_rational == (not b), what
    assert v.norm() == a * a - 3 * b * b, what
    assert -v == QuadExt(-a, -b) and _is_canonical(-v), what


def _outcome(fn, *args):
    """fn's value, or its exception's type and message."""
    try:
        return fn(*args), None
    except ZeroDivisionError as exc:
        return None, (type(exc), str(exc))


def test_quadext_triples_match_a_rational_pair_reference():
    rng = random.Random(4301)
    for trial in range(600):
        (x, rx), (y, ry) = _ref_operand(rng), _ref_operand(rng)
        if not isinstance(x, QuadExt) and not isinstance(y, QuadExt):
            x, rx = QuadExt(*rx), rx
        for v, ref in ((x, rx), (y, ry)):
            if isinstance(v, QuadExt):
                _assert_matches(v, ref, (trial, "operand"))
            else:  # an int or a Rat hashes and compares as its QuadExt
                assert hash(QuadExt(v)) == hash(v) and QuadExt(v) == v, (trial, v)
        for op, (fn, ref_fn) in _REF_OPS.items():
            got, err = _outcome(fn, x, y)
            want, want_err = _outcome(ref_fn, rx, ry)
            assert err == want_err, (trial, op, x, y)
            if want_err is None:
                _assert_matches(got, want, (trial, x, op, y))
        assert (x == y) == (rx == ry) and (x != y) == (rx != ry), (trial, x, y)
        q = x if isinstance(x, QuadExt) else y
        rq = rx if q is x else ry
        got, err = _outcome(q.inv)
        want, want_err = _outcome(_quotient, (Rat(1), Rat(0)), rq)
        assert err == want_err, (trial, q)
        if want_err is None:
            _assert_matches(got, want, (trial, "inv", q))
            _assert_matches(q ** -2, _quotient(want, rq), (trial, "** -2", q))
        assert _outcome(divmod, q, 0)[1] == (ZeroDivisionError, "division by zero")


def test_integral_operations_build_no_rational(monkeypatch):
    # + - * /, ==, bool and hash on integral values, and hash on any value,
    # run on the ints alone: no Rat is built, by the scalars module's name or
    # at all
    xs = [QuadExt(2, 3), QuadExt(-5), QuadExt(0, 1), QuadExt(0), QuadExt(7, -4)]
    fractional = [QuadExt(Rat(1, 2)), QuadExt(Rat(-3, 7), Rat(5, 2)), QuadExt(0, Rat(1, 3)),
                  QuadExt._of(-1, 0, _MODULUS), QuadExt._of(_MODULUS, 1, _MODULUS)]
    built = []
    rat_new = scalars.Rat

    def counting(*args):
        built.append(args)
        return rat_new(*args)

    monkeypatch.setattr(scalars, "Rat", counting)
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for x in xs:
        for y in xs + [3, -1, 0]:
            for v in (x + y, y + x, x - y, y - x, x * y, y * x):
                assert v._d == 1
                hash(v)
                bool(v)
            if y:
                x / y
            if x:
                y / x
            assert (x == y) is (y == x) is (_triple(x) == _triple(QuadExt.coerce(y)))
        hash(x)
    for x in fractional:
        hash(x)
    assert built == []


def test_hash_of_a_fraction_follows_the_numeric_hash_rule():
    # a value whose d is not 1 hashes from its ints as its Rat parts do:
    # seeded values with negative numerators, denominators divisible by the
    # hash modulus (an infinite hash, or a factor of it shared with the
    # numerator), and a ratio hashing to -1 before the rule's -1 -> -2
    rng = random.Random(4401)
    big = 10 ** 30
    values = [QuadExt(Rat(rng.randint(-big, big), rng.randint(2, big)),
                      Rat(rng.randint(-99, 99), rng.randint(1, 9))) for _ in range(200)]
    values += [QuadExt(Rat(rng.randint(-big, big), rng.randint(2, big))) for _ in range(200)]
    values += [QuadExt._of(p, q, d) for p, q, d in (
        (1, 0, _MODULUS), (-1, 0, _MODULUS), (3, 0, 2 * _MODULUS), (7, 0, _MODULUS ** 2),
        (_MODULUS, 1, _MODULUS), (2 * _MODULUS, -5, 3 * _MODULUS), (0, 1, _MODULUS),
        (-(_MODULUS + 2), 0, 2), (-(_MODULUS + 2), 1, 2))]
    for v in values:
        assert v._d != 1
        assert hash(v) == (hash((v.a, v.b)) if v.b else hash(v.a)), v
    assert hash(QuadExt(Rat(-(_MODULUS + 2), 2))) == hash(Rat(-(_MODULUS + 2), 2)) == -2
    assert hash(QuadExt._of(-1, 0, _MODULUS)) == -sys.hash_info.inf


def _copies(v):
    return copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))


def test_copies_and_pickles_keep_value_hash_and_type():
    # the slots refuse assignment, so a copy or a pickle rebuilds the value
    # through its constructor: equal, of the same type and hash, and still
    # immutable; a symbolic Gram layer of G2 std round-trips whole
    rs = build_root_system("G2")
    layer = VermaModule(rs, get_irrep(rs, "std"), PP_K1, PP_K2).gram(2)
    values = [QuadExt(5), QuadExt(Rat(-3, 4)), SQRT3, QuadExt(Rat(1, 3), Rat(-2, 5)),
              QuadExt._of(1, 0, _MODULUS), PP_K1, PP_K1 * PP_K2 - QuadExt(Rat(1, 2), 1)]
    values += [v for row in layer for v in row]
    assert any(type(v) is ParamPoly and len(v.terms) > 1 for v in values)
    for v in values:
        for c in _copies(v):
            assert type(c) is type(v) and c == v and hash(c) == hash(v), v
            with pytest.raises(AttributeError, match="is immutable"):
                c.terms = {}
    for c in _copies(layer):
        assert c == layer
        assert [[type(v) for v in row] for row in c] == [[type(v) for v in row] for row in layer]
    x = MPoly(2, {(1, 0): QuadExt(Rat(1, 2), 1), (0, 2): QuadExt(-3)})
    for c in _copies(x):
        assert type(c) is MPoly and c == x and c is not x and c.terms is not x.terms
