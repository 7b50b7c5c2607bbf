import doctest

import numpy as np
import pytest

from stratakit import gf
from stratakit.gf import ENUMERATION_BOUND, FieldCtx, FieldError, auto_modulus


def _pow(ctx, a, n):
    """a^n for n >= 0 by repeated table multiplication."""
    x = 1
    for _ in range(n):
        x = ctx.mul(x, a)
    return x


def test_prime_field_context():
    ctx = FieldCtx(5, 1, 1)
    assert ctx.size == 5
    assert ctx.modulus == (0, 1)  # the x - 0 convention for prime fields


def test_gf9_auto_modulus_is_x2_plus_1():
    assert auto_modulus(3, 2) == (1, 0, 1)
    ctx = FieldCtx(3, 1, 2)
    assert ctx.modulus == (1, 0, 1)
    assert ctx.size == 9


def test_explicit_modulus_and_reducible_rejection():
    ctx = FieldCtx(3, 1, 2, modulus=(1, 0, 1))
    assert ctx.size == 9
    with pytest.raises(FieldError):
        FieldCtx(3, 1, 2, modulus=(-1, 0, 1))  # x^2 - 1 = (x-1)(x+1)


def test_bad_parameters():
    with pytest.raises(FieldError):
        FieldCtx(4, 1, 1)
    with pytest.raises(FieldError):
        FieldCtx(2, 1, 3)
    with pytest.raises(FieldError):
        FieldCtx(3, 0, 1)
    with pytest.raises(FieldError):
        FieldCtx(3, 1, 9)  # 3^9 over the enumeration bound
    assert 3**9 > ENUMERATION_BOUND


def test_inverse_examples():
    f5 = FieldCtx(5, 1, 1)
    assert f5.inv(2) == 3
    assert f5.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


def test_generator_inverse_by_exhaustive_table():
    ctx = FieldCtx(3, 1, 2)
    g = ctx.gen_code
    # brute-force multiplication table lookup of the inverse
    inv = next(b for b in range(ctx.size) if ctx.mul(g, b) == 1)
    assert ctx.inv(g) == inv
    assert inv == _pow(ctx, g, 7)  # g^8 = 1 in GF(9)^x


@pytest.mark.parametrize("p,e,k", [(3, 1, 2), (5, 1, 2), (3, 1, 3), (3, 2, 1)])
def test_field_axioms_by_table_identities(p, e, k):
    ctx = FieldCtx(p, e, k)
    n = ctx.size
    # numpy views of the list tables, for vectorised identities
    ADD, MUL = np.asarray(ctx.ADD), np.asarray(ctx.MUL)
    # commutativity
    assert (ADD == ADD.T).all() and (MUL == MUL.T).all()
    # associativity via exhaustive triple tables (vectorized):
    # T[T[a,b],c] against T[a,T[b,c]]
    assert (ADD[ADD] == ADD[:, ADD]).all()
    assert (MUL[MUL] == MUL[:, MUL]).all()
    # distributivity: a*(b+c) == a*b + a*c
    assert (MUL[:, ADD] == ADD[MUL[:, :, None], MUL[:, None, :]]).all()
    # inverses
    for a in range(1, n):
        assert MUL[a, ctx.INV[a]] == 1


@pytest.mark.parametrize("p,e,k", [(3, 1, 2), (3, 1, 4), (3, 2, 1)])
def test_frobenius_is_field_automorphism(p, e, k):
    ctx = FieldCtx(p, e, k)
    F, ADD, MUL = np.asarray(ctx.FROB), np.asarray(ctx.ADD), np.asarray(ctx.MUL)
    assert (F[ADD] == ADD[F][:, F]).all()
    assert (F[MUL] == MUL[F][:, F]).all()


def test_frobenius_fixed_field_is_base():
    ctx = FieldCtx(3, 1, 2)
    base = ctx.subfield_codes(1)
    assert set(base) == {a for a in range(9) if ctx.FROB[a] == a}
    assert len(base) == 3
    # base elements are exactly the prime-field constants here (e = 1)
    assert set(base) == {0, 1, 2}


def test_frobenius_order_and_cube_example():
    ctx = FieldCtx(3, 1, 2)
    # a root of x^2 + 1 is the element with coefficient vector (0, 1)
    i = ctx.from_coeffs((0, 1))
    assert i == 3
    assert ctx.mul(i, i) == ctx.neg(1)
    assert ctx.FROB[i] == ctx.neg(i)  # i^3 = -i
    assert ctx.FROB[i] == _pow(ctx, i, ctx.q)
    for a in range(ctx.size):
        x = a
        for _ in range(ctx.k):
            x = ctx.FROB[x]
        assert x == a


def test_coefficient_codes_roundtrip():
    ctx = FieldCtx(3, 1, 2)
    assert [ctx.coeffs(a) for a in range(4)] == [(0, 0), (1, 0), (2, 0), (0, 1)]
    assert all(ctx.from_coeffs(ctx.coeffs(a)) == a for a in range(ctx.size))
    assert ctx.from_coeffs((-1, 4)) == ctx.from_coeffs((2, 1))  # reduced mod p


def test_subfield_codes():
    ctx = FieldCtx(3, 1, 2)
    assert ctx.subfield_codes(1) == (0, 1, 2)
    assert len(ctx.subfield_codes(2)) == 9
    with pytest.raises(FieldError):
        FieldCtx(3, 1, 3).subfield_codes(2)


@pytest.mark.parametrize("p,e,k", [(3, 1, 2), (5, 1, 2), (3, 1, 3), (3, 1, 4)])
def test_tables_against_digitwise_and_slow_arithmetic(p, e, k):
    """Every ADD and MUL entry against an oracle that uses no table."""
    ctx = FieldCtx(p, e, k)
    n = ctx.size
    digits = [ctx.coeffs(a) for a in range(n)]
    for a in range(n):
        for b in range(n):
            want = ctx.from_coeffs([x + y for x, y in zip(digits[a], digits[b])])
            assert ctx.ADD[a][b] == want, (a, b)
            assert ctx.MUL[a][b] == ctx._mul_codes_slow(a, b), (a, b)
    for a in range(n):
        assert ctx.NEG[a] == ctx.from_coeffs([-x for x in digits[a]])
        x = 1
        for _ in range(ctx.q):
            x = ctx._mul_codes_slow(x, a)
        assert ctx.FROB[a] == x
        if a:
            assert ctx._mul_codes_slow(a, ctx.INV[a]) == 1


@pytest.mark.parametrize("p,e,k", [(3, 1, 2), (5, 1, 2), (3, 1, 3), (3, 1, 4)])
def test_table_entries_are_plain_ints(p, e, k):
    ctx = FieldCtx(p, e, k)
    for name in ("ADD", "MUL"):
        table = getattr(ctx, name)
        assert type(table) is list and len(table) == ctx.size
        assert all(type(row) is list and len(row) == ctx.size for row in table), name
        assert all(type(x) is int for row in table for x in row), name
    for name in ("NEG", "INV", "FROB", "FROB_INV"):
        table = getattr(ctx, name)
        assert type(table) is list, name
        assert all(type(x) is int for x in table), name


def test_equal_parameter_contexts_interoperate():
    a, b = FieldCtx(3, 1, 2), FieldCtx(3, 1, 2)
    assert a == b and hash(a) == hash(b)
    # codes mean the same element in both: every table agrees
    for name in ("ADD", "NEG", "MUL", "INV", "FROB"):
        assert getattr(a, name) == getattr(b, name), name
    assert a.mul(4, 5) == b.mul(4, 5)
    assert a != FieldCtx(3, 1, 1)
    assert a != FieldCtx(5, 1, 2)


def test_module_example_runs():
    result = doctest.testmod(gf)
    assert result.attempted > 0 and result.failed == 0
