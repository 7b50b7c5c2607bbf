import itertools

import pytest

from stratakit import charts
from stratakit.charts import (
    BudgetExceeded,
    ChartError,
    ChartSpec,
    VertexTypeTable,
    all_chart_specs,
    brute_rank1_count,
    chart_count,
    is_admissible,
    predicates,
    rank1_closed_form,
    reconcile,
    rz_dim,
    rz_dim_oracle,
    strata_dims,
    sym_block_rank1_count,
)


# (2, 4, 5), (3, 3, 5) and (3, 4, 3) have more entries than one digit-plane
# table holds, so they run the kernel's loop over the high entries
@pytest.mark.parametrize("a,b,q", [
    (1, 1, 3), (1, 3, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 2, 5), (1, 2, 5),
    (2, 4, 5), (3, 3, 5), (3, 4, 3),
])
def test_rank1_closed_form_against_brute_force(a, b, q):
    assert rank1_closed_form(a, b, q) == brute_rank1_count(a, b, q)


def test_rank1_known_values():
    assert rank1_closed_form(2, 3, 3) == 105
    assert rank1_closed_form(2, 2, 3) == 33
    assert rank1_closed_form(1, 4, 3) == 3**4  # a row vector: all of them


# (3, 0, 5) and (2, 2, 5) cross the digit-plane table; in the second the
# symmetric pairs straddle the split between table rows and high scalars
@pytest.mark.parametrize("m,a,q", [
    (1, 2, 3), (2, 0, 3), (2, 1, 3), (2, 2, 3), (2, 1, 5), (3, 0, 5), (2, 2, 5),
])
def test_sym_block_count_against_brute_force(m, a, q):
    assert sym_block_rank1_count(m, a, q) == brute_rank1_count(
        m, m + a, q, ad_symmetric_block=m)


def reference_rank1_count(a, b, q, block=0):
    """Rank <= 1 count by a second enumeration: one tuple of entries per
    matrix, read as rows, every 2 x 2 minor and every block symmetry
    tested in pure Python."""
    off = b - block
    count = 0
    for entries in itertools.product(range(q), repeat=a * b):
        X = [entries[i * b:(i + 1) * b] for i in range(a)]
        if any(X[i][off + j] != X[block - 1 - j][off + block - 1 - i]
               for i in range(block) for j in range(block)):
            continue
        if all((X[i1][j1] * X[i2][j2] - X[i1][j2] * X[i2][j1]) % q == 0
               for i1 in range(a) for i2 in range(i1 + 1, a)
               for j1 in range(b) for j2 in range(j1 + 1, b)):
            count += 1
    return count


# q = 11 is the largest field whose digit planes are int8, q = 13 the smallest
# on int16: products and minors must not wrap on either side of that line
@pytest.mark.parametrize("a,b,q,block", [
    (2, 3, 3, 0), (3, 3, 3, 0), (2, 2, 5, 0), (1, 4, 5, 0), (2, 2, 7, 0),
    (2, 2, 11, 0), (2, 2, 13, 0), (1, 3, 3, 1), (2, 3, 3, 2), (3, 3, 3, 3),
    (2, 3, 5, 2), (2, 4, 5, 2), (2, 2, 13, 2),
])
def test_kernel_against_reference_enumeration(a, b, q, block):
    assert brute_rank1_count(a, b, q, ad_symmetric_block=block) == \
        reference_rank1_count(a, b, q, block)


def test_chart_examples():
    # 2 x 2 rank <= 1 over F_3
    assert chart_count(ChartSpec("ZY", 3, h=4, t1=8, t2=0)) == 33
    # affine plane
    assert chart_count(ChartSpec("pi-modular", 3, n=8, h=8, t2=2)) == 9
    # smooth linear Z chart: q^((t1+h)/2)
    s = ChartSpec("Z", 3, h=2, t1=4)
    assert chart_count(s) == 3 ** ((4 + 2) // 2)


def test_chart_spec_validation():
    with pytest.raises(ChartError):
        ChartSpec("Z", 3, h=4, t1=4)
    with pytest.raises(ChartError):
        ChartSpec("Y", 3, n=6, h=6, t2=0)
    with pytest.raises(ChartError):
        ChartSpec("pi-modular", 3, n=5, h=5, t2=0)
    with pytest.raises(ChartError):
        ChartSpec("ZY", 3, h=3, t1=5, t2=1)
    for q in (0, 1, 4, 9):
        with pytest.raises(ChartError):
            ChartSpec("Y", q, n=4, h=2, t2=0)


def test_budget_gate():
    with pytest.raises(BudgetExceeded):
        brute_rank1_count(4, 4, 5, budget=10)


def test_strata_dims():
    assert strata_dims(8, 2, t1=4)[0] == 3
    # the Y dimension carries the corrected sign: decreasing in t2
    assert strata_dims(8, 4, t2=2)[1] == 4
    assert strata_dims(8, 4, t2=0)[1] == 5
    assert strata_dims(0, 4, t1=6, t2=2)[2] == 1


def test_dims_match_chart_dimensions():
    for spec in all_chart_specs(10, qs=(3,)):
        dz, dy, dzy = strata_dims(spec.n, spec.h, t1=spec.t1 or None, t2=spec.t2)
        if spec.family == "Z":
            assert spec.dimension() == dz
        elif spec.family == "Y":
            assert spec.dimension() == dy
        elif spec.family == "ZY":
            assert spec.dimension() == dzy


def test_predicates():
    out = predicates(8, 2, t1=10)
    assert out["gorenstein_Z"] and out["gorenstein_Z_in_scope"]
    assert not out["smooth_Z"]
    out = predicates(8, 4, t1=6, t2=2)
    assert out["smooth_Z"] and out["smooth_ZY"]
    assert out["gorenstein_ZY"]  # 2h = t1 + t2 holds, though out of scope
    assert not out["gorenstein_ZY_in_scope"]
    out = predicates(9, 4, t1=12, t2=0)
    assert out["smooth_Y"] is False
    assert out["gorenstein_Y"] == (0 == 3 * 4 - 18)
    # gorenstein in scope implies not smooth
    for h in range(0, 9, 2):
        for t1 in range(h + 4, 13, 2):
            out = predicates(9, h, t1=t1)
            if out["gorenstein_Z_in_scope"] and out["gorenstein_Z"]:
                assert not out["smooth_Z"]


def test_vertex_type_table():
    assert VertexTypeTable(5, 1).types() == (0, 2, 4)
    assert VertexTypeTable(6, 1).types() == (0, 2, 4)
    assert VertexTypeTable(6, -1).types() == (0, 2, 4, 6)


def test_admissibility():
    assert is_admissible(6, 6, 1)
    assert not is_admissible(6, 6, -1)
    assert not is_admissible(6, 5, 1)
    assert is_admissible(7, 6, -1)


def test_rz_dim_special_cases():
    # stated special values for extreme levels
    assert rz_dim(5, 0, -1) == 2            # odd, self-dual level: (n-1)/2
    assert rz_dim(4, 0, 1) == 1             # even, eps +1: n/2 - 1
    assert rz_dim(4, 0, -1) == 2            # even, eps -1: n/2
    assert rz_dim(6, 6, 1) == 2             # maximal level: n/2 - 1
    assert rz_dim(5, 4, 1) == rz_dim(5, 4, -1) == 2  # almost maximal odd: (n-1)/2
    # h = n - 2 with the split vertex side: the big stratum wins (n - 1),
    # matching the worked two-component example rather than the misprinted
    # special value
    assert rz_dim(6, 4, -1) == 5


def test_rz_dim_equals_oracle_everywhere():
    for n in range(2, 13):
        for h in range(0, 2 * (n // 2) + 1, 2):
            for eps in (1, -1):
                if not is_admissible(n, h, eps):
                    continue
                assert rz_dim(n, h, eps) == rz_dim_oracle(n, h, eps), (n, h, eps)


def test_rz_dim_general_formula_agreement():
    # away from the degenerate levels the max splits into the two stated
    # branches with the Y entry n - h/2 - 1
    for n in range(4, 13):
        for h in range(2, 2 * (n // 2) - 1, 2):
            for eps in (1, -1):
                if not is_admissible(n, h, eps):
                    continue
                t_max = VertexTypeTable(n, eps).t_max
                if t_max <= h:
                    continue
                assert rz_dim(n, h, eps) == max((t_max + h) // 2, n - h // 2 - 1)


def test_rz_dim_rejects_inadmissible():
    with pytest.raises(ChartError):
        rz_dim(6, 6, -1)


def test_reconcile_all_small_charts():
    specs = all_chart_specs(6, qs=(3,))
    assert specs
    for spec in specs:
        rep = reconcile(spec)
        assert all(c["status"] == "pass" for c in rep["checks"]), (spec, rep)


@pytest.mark.parametrize("q", [2, 7, 11])
def test_growth_exponent_over_other_fields(q):
    # the growth exponent divides by the log of the two field sizes compared
    for spec in (ChartSpec("Y", q, n=5, h=2, t2=0), ChartSpec("Z", q, h=0, t1=6),
                 ChartSpec("ZY", q, h=4, t1=8, t2=0)):
        rep = reconcile(spec)
        growth = next(c for c in rep["checks"]
                      if c["name"] == "growth_exponent_matches_dimension")
        assert growth["status"] == "pass", (spec, growth)
