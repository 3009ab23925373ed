import math
import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenspec import (
    CongruenceLattice,
    LaurentPolynomial,
    isometry_classes,
    lattice_from_lens,
    theta_rational,
)
from lenspec import _kernels, weights
from lenspec.cli import main, parse_space
from lenspec.errors import WORK_LIMIT, DimensionMismatch, InvalidParameters
from lenspec.lattice import lens_label
from lenspec.weights import shell_table
from support import acts_freely, brute_box, canonical_key, member


def brute_shell(L, kmax):
    """Naive full-cube enumeration over ``member``, independent of both the
    box kernel and the certification enumeration."""
    n = L.n
    out = [[0] * (n + 1) for _ in range(kmax + 1)]
    for a in product(range(-kmax, kmax + 1), repeat=n):
        norm = sum(abs(x) for x in a)
        if norm <= kmax and member(L, a):
            out[norm][sum(1 for x in a if x == 0)] += 1
    return [tuple(row) for row in out]


def test_trivial_lens_is_full_lattice():
    L = lattice_from_lens(1, (0, 0))
    assert L.congruences == ()
    assert L.exponent == 1
    assert acts_freely(L)
    assert member(L, (3, -7))


def test_lens_manifold_flags():
    assert acts_freely(lattice_from_lens(4, (1, 1)))
    orb = lattice_from_lens(4, (1, 2))
    assert not acts_freely(orb)
    assert member(orb, (2, 1))  # 2 + 2 = 4


def test_lens_rejects_bad_gcd():
    with pytest.raises(InvalidParameters):
        lattice_from_lens(4, (2, 2))


def test_rank_one_rejected():
    with pytest.raises(InvalidParameters):
        CongruenceLattice(1, [(5, (1,))])


def test_generator_normalization():
    # common factor with the order divides out; order-1 generators vanish
    L = CongruenceLattice(2, [(6, (2, 4)), (1, (0, 0))])
    assert L.congruences == ((3, (1, 2)),)
    assert L.exponent == 3


def test_lattice_derives_its_exponent_and_theta():
    # a hand-built lattice has no exponent to get wrong: theta is that of the
    # lens lattice and of the brute-force box
    L = CongruenceLattice(2, ((4, (1, 1)),))
    assert L == lattice_from_lens(4, (1, 1))
    assert L.exponent == 4
    order = 12
    box = brute_box(L.congruences, L.n, order)
    assert theta_rational(L).expand(order) == [sum(box[k]) for k in range(order + 1)]
    assert theta_rational(L).expand(6) == [1, 0, 2, 0, 12, 0, 6]


def test_lattice_fields_are_only_its_congruences():
    assert CongruenceLattice._fields == ("n", "congruences")
    for derived in ({"exponent": 4}, {"is_manifold": True}):
        with pytest.raises(TypeError):
            CongruenceLattice(n=2, congruences=((4, (1, 1)),), **derived)
    L = lattice_from_lens(4, (1, 1))
    with pytest.raises(AttributeError):
        L.exponent = 2
    assert L.exponent == 4


def test_lattices_that_normalize_alike_are_equal():
    same = [
        CongruenceLattice(2, [(4, (1, 1))]),
        CongruenceLattice(2, [(4, (5, -3)), (1, (7, 7))]),
        CongruenceLattice(2, [(8, (2, 10))]),
        CongruenceLattice(2, ((4, [1, 1]),)),
        lattice_from_lens(4, (1, 1)),
        lattice_from_lens(2, (1, 1))._replace(congruences=((8, (2, 2)),)),
    ]
    for L in same:
        assert L == same[0] and hash(L) == hash(same[0])
        assert L.congruences == ((4, (1, 1)),) and L.exponent == 4
    assert CongruenceLattice(3, [(2, (0, 0, 0))]) == lattice_from_lens(1, (0, 0, 0))
    with pytest.raises(DimensionMismatch):
        CongruenceLattice(3, [(4, (1, 1))])
    with pytest.raises(InvalidParameters):
        CongruenceLattice(2, [(0, (1, 1))])


def test_member_examples():
    L = lattice_from_lens(4, (1, 1))
    assert member(L, (1, -1))
    assert not member(L, (1, 1))
    assert member(L, (0, 0))
    with pytest.raises(DimensionMismatch):
        member(L, (1, 2, 3))


def test_multi_generator_intersection():
    L = CongruenceLattice(2, [(2, (1, 0)), (3, (0, 1))])
    assert L.exponent == 6
    for a in product(range(-6, 7), repeat=2):
        assert member(L, a) == (a[0] % 2 == 0 and a[1] % 3 == 0)


def test_shell_counts_full_lattice_rank3():
    L = lattice_from_lens(1, (0, 0, 0))
    counts = shell_table(L, 2)[2]
    assert counts[2] == 6
    assert counts[1] == 12
    assert counts[0] == 0
    assert sum(counts) == 18


def test_shell_counts_lens_4_11():
    L = lattice_from_lens(4, (1, 1))
    assert list(shell_table(L, 2)[2]) == [2, 0, 0]


def test_shell_counts_k0():
    for L in (lattice_from_lens(5, (1, 2)), lattice_from_lens(1, (0, 0, 0))):
        counts = shell_table(L, 0)[0]
        assert counts[L.n] == 1
        assert sum(counts) == 1


def test_shell_table_matches_naive_enumeration():
    for L in (
        lattice_from_lens(1, (0, 0)),
        lattice_from_lens(4, (1, 1)),
        lattice_from_lens(4, (1, 2)),
        lattice_from_lens(7, (1, 2, 3)),
        CongruenceLattice(2, [(2, (1, 1)), (4, (1, 3))]),
    ):
        assert shell_table(L, 8) == brute_shell(L, 8), L.label()


def test_shell_table_refuses_above_the_point_limit(monkeypatch):
    # a step a point of the ball: Z^3 to one-norm 125 is over the work limit
    # and refused before any enumeration, and 124 is admitted
    L = lattice_from_lens(1, (0, 0, 0))
    calls = []
    monkeypatch.setattr(weights, "_enumerate_shells", lambda L, hi: calls.append(hi))
    with pytest.raises(InvalidParameters, match="shell enumeration to one-norm 125 in rank 3"):
        shell_table(L, 125)
    assert calls == []
    shell_table(L, 124)
    assert calls == [124]


def test_periodicity_property():
    rng = random.Random(5)
    for L in (lattice_from_lens(4, (1, 1)), lattice_from_lens(6, (1, 2, 3))):
        q = L.exponent
        members = [
            a
            for a in product(range(-q, q + 1), repeat=L.n)
            if member(L, a)
        ]
        for _ in range(50):
            a = rng.choice(members)
            v = tuple(rng.randint(-2, 2) for _ in range(L.n))
            shifted = tuple(x + q * y for x, y in zip(a, v))
            assert member(L, shifted)


def test_reduced_counts_q1():
    # the open box for q = 1 contains only the zero vector
    L = lattice_from_lens(1, (0, 0, 0))
    assert L.phi_polynomials()[3].coeffs.get(0, 0) == 1
    assert sum(L.phi_polynomials()[ell].coeffs.get(k, 0) for k in range(-1, 3) for ell in range(4)) == 1


def test_reduced_counts_box_oracle():
    L = lattice_from_lens(4, (1, 1))
    q = L.exponent
    brute = {}
    for a in product(range(-(q - 1), q), repeat=2):
        if member(L, a):
            key = (sum(abs(x) for x in a), sum(1 for x in a if x == 0))
            brute[key] = brute.get(key, 0) + 1
    # norms past the box, 2 * (q - 1), and below 0 count nothing
    top = 2 * (q - 1) + 2
    for k in range(-1, top + 1):
        for ell in range(3):
            assert L.phi_polynomials()[ell].coeffs.get(k, 0) == brute.get((k, ell), 0)
    # reduced counts never exceed shell counts
    shell = shell_table(L, top)
    for k in range(top + 1):
        for ell in range(3):
            assert L.phi_polynomials()[ell].coeffs.get(k, 0) <= shell[k][ell]


def test_reduced_counts_degree_bound():
    L = lattice_from_lens(5, (1, 2, 3))
    q = L.exponent
    for k in range(L.n * (q - 1) + 1):
        for ell in range(L.n + 1):
            if k > (L.n - ell) * (q - 1):
                assert L.phi_polynomials()[ell].coeffs.get(k, 0) == 0


def test_phi_polynomials_examples():
    L = lattice_from_lens(1, (0, 0))
    phis = L.phi_polynomials()
    assert phis[2] == LaurentPolynomial({0: 1})
    assert not phis[0] and not phis[1]

    L = lattice_from_lens(2, (1, 1))
    phis = L.phi_polynomials()
    assert phis[2] == LaurentPolynomial({0: 1})
    assert not phis[1]
    assert phis[0] == LaurentPolynomial({2: 4})


def test_phi_always_one_at_top():
    for L in (lattice_from_lens(9, (1, 4)), lattice_from_lens(12, (1, 5, 7))):
        assert L.phi_polynomials()[L.n] == LaurentPolynomial({0: 1})


def test_box_table_matches_certification_route():
    for q, s in (
        (3, (0, 0, 1)),
        (5, (0, 1, 3)),
        (7, (6, 1, 6)),
        (5, (1, 1)),
        (4, (2, 1, 0)),
        (5, (3, 3, 4)),
        (3, (1, 2)),
        (8, (5, 3, 3)),
        (3, (0, 1)),
        (5, (3, 4, 4)),
    ):
        congs = ((q, s),)
        # the box |a_i| < q holds every shell of one-norm < q
        L = CongruenceLattice(len(s), congs)
        phis = _kernels.box_table(congs, len(s))
        assert shell_table(L, q - 1) == list(zip(*(phi[:q] for phi in phis)))


# largest exponent drawn per rank, so the brute-force box (2E - 1)^n stays small
_BOX_EXPONENT_CAP = {2: 12, 3: 8, 4: 4}


@st.composite
def box_cases(draw):
    """Raw congruences of one or two generators (exponents may be 0 or share
    a factor with the order) and rank n <= 4."""
    n = draw(st.integers(2, 4))
    cap = _BOX_EXPONENT_CAP[n]
    q = draw(st.integers(2, cap))
    orders = [q] + draw(
        st.lists(st.sampled_from([d for d in range(2, cap + 1) if math.lcm(q, d) <= cap]), max_size=1)
    )
    congs = tuple(
        (order, tuple(draw(st.lists(st.integers(0, order - 1), min_size=n, max_size=n))))
        for order in orders
    )
    return congs, n


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=box_cases())
@example(case=(((5, (1, 2, 0)),), 3))  # s_n = 0
@example(case=(((6, (2, 3, 0)),), 3))  # no exponent is a unit mod q
@example(case=(((4, (0, 0)),), 2))  # trivial congruence
@example(case=(((2, (1, 1, 1, 1)), (4, (1, 3, 1, 3))), 4))  # Z2 x Z4 on S^7
@example(case=(((4, (1, 2)), (6, (1, 5))), 2))  # exponent 12 above both orders
def test_box_table_matches_brute_force(case):
    # phi_l is column l of the brute-force table of the box |a_i| < E
    congs, n = case
    rows = brute_box(congs, n, math.lcm(*(q for q, _ in congs)) - 1)
    assert _kernels.box_table(congs, n) == [list(column) for column in zip(*rows)]


def test_box_table_takes_exponents_of_any_residue():
    # an exponent is read mod its order: shifting any by a multiple of the
    # order, below 0 or to q and past, changes neither the lists nor the work
    for congs, n, shifts in (
        (((7, (1, 3, 5)),), 3, (-1, 1, -2)),
        (((5, (1, 2)),), 2, (2, -3)),
        (((6, (0, 2, 3, 1)),), 4, (1, -1, 0, 1)),
        (((2, (1, 1, 1)), (4, (1, 3, 2))), 3, (-1, 2, 1)),
    ):
        shifted = tuple((q, tuple(x + k * q for x, k in zip(s, shifts))) for q, s in congs)
        assert shifted != congs
        assert _kernels.box_table(shifted, n) == _kernels.box_table(congs, n)
        assert _kernels.box_work(shifted, n) == _kernels.box_work(congs, n)


def test_box_work_bound_admits_the_required_inputs():
    # checked by the work alone, so none of these runs here
    def work(q, s):
        return _kernels.box_work(((q, s),), len(s))

    assert work(100003, (1, 2)) <= WORK_LIMIT
    for q, n in ((151, 3), (31, 4)):
        for key in isometry_classes(q, n, "orbifolds"):
            assert work(q, key) <= WORK_LIMIT, key
    for q, s in ((3499, (1, 2, 3)), (100003, (1, 2, 3)), (331000, (1, 3))):
        assert work(q, s) > WORK_LIMIT


def test_box_work_of_a_large_rank_is_exact():
    # unit exponents at ranks far over the limit, counted exactly; a command
    # refuses such a rank by the class listing or a series count first
    def work(q, n):
        return _kernels.box_work(((q, (1,) * n),), n)

    assert [work(2, 422), work(2, 423)] == [4728760804, 4769537046]
    assert [work(3, 320), work(3, 321)] == [8569991970, 8685486310]


def test_large_group_series_refused_by_the_box_count_bound(capsys):
    # a group of order 3000017: the box-count bound refuses its series
    code = main(["genfun", "--space", "L(3000017;1,2)"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1


def _fail_if_called(*args):
    raise AssertionError("the box count started before its work was checked")


def test_kernel_scale_guard(monkeypatch):
    L = CongruenceLattice(8, ((3, (1, 1, 1, 1, 1, 1, 1, 1)),))
    with pytest.raises(InvalidParameters):
        shell_table(L, 10**8)
    # an exponent that puts the box count over its work bound is refused
    # before the kernel builds anything
    monkeypatch.setattr(_kernels, "_group_ops", _fail_if_called)
    with pytest.raises(InvalidParameters):
        lattice_from_lens(3499, (1, 2, 3)).phi_polynomials()


def test_labels():
    assert lattice_from_lens(4, (1, 3)).label() == "L(4;1,3)"
    assert lattice_from_lens(1, (0, 0)).label() == "Z^2"
    # the key and the command line name the trivial group by its parameters
    assert lens_label(1, canonical_key(1, (0, 0))) == parse_space("L(1;0,0)", None)[0] == "L(1;0,0)"
    assert parse_space("L(7;1,-2)", None)[0] == "L(7;1,5)"
    L = CongruenceLattice(2, [(2, (1, 1)), (4, (1, 3))])
    assert L.label() == "G(2:1,1|4:1,3)"
