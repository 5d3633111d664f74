"""Character order tests: frozen chains, axioms, first levels, enumeration,
and the preorder checks that face_strata's face lattice relies on."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logsod.errors import LengthMismatch
from logsod.orders import (
    PRIME_TEST_BOUND,
    Character,
    Preorder,
    Rel,
    cmp_factorial_scalar,
    cmp_factorial_vector,
    cmp_standard,
    enumerate_characters,
    factorial_scalar_key,
    factorial_vector_key,
    first_level,
    mod_one,
    stage_level,
    stage_size,
    vector_first_level,
    _is_prime,
)
from oracles import (
    _first_level,
    cmp_factorial_recursive,
    enumerate_characters_by_key,
    interleaving_chain,
    mod1,
)

C = Character.of
F = Fraction


def as_vector(values):
    """Character vector of the given rationals."""
    return tuple(C(v) for v in values)


def full_level(n):
    """All of Z_{n!} as characters, unsorted."""
    f = math.factorial(n)
    return [C(F(-k, f)) for k in range(f)]


# Chain of Z_{4!} in ascending factorial order, frozen from the fiber
# interleaving construction.
CHAIN4 = [
    F(-23, 24), F(-11, 24), F(-19, 24), F(-7, 24), F(-5, 8), F(-1, 8),
    F(-11, 12), F(-5, 12), F(-3, 4), F(-1, 4), F(-7, 12), F(-1, 12),
    F(-7, 8), F(-3, 8), F(-17, 24), F(-5, 24), F(-13, 24), F(-1, 24),
    F(-5, 6), F(-1, 3), F(-2, 3), F(-1, 6), F(-1, 2), F(0),
]


class TestCharacter:
    def test_reduced_pair_representation(self):
        assert C(F(-5, 6)).to_pair() == [5, 6]
        assert C(F(-2, 6)).to_pair() == [1, 3]
        assert C(0).to_pair() == [0, 1]

    def test_mod_one_canonicalization(self):
        assert C(F(3, 4)).value == F(-1, 4)
        assert C(-1).value == 0
        assert C(F(-5, 3)).value == F(-2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Character(2, 4)
        with pytest.raises(ValueError):
            Character(3, 2)
        with pytest.raises(ValueError):
            Character(1, 0)

    def test_pair_roundtrip(self):
        for x in full_level(4):
            assert Character(*x.to_pair()) == x

    def test_str(self):
        assert str(C(F(-1, 2))) == "-1/2"
        assert str(C(0)) == "0"


class TestModOne:
    def test_window(self):
        assert mod_one(F(-5, 3)) == F(-2, 3)
        assert mod_one(-1) == 0
        assert mod_one(F(1, 2)) == F(-1, 2)
        assert mod_one(0) == 0


class TestNormalFactorialForm:
    """x = -p/n! with n minimal: n is first_level(x), p the numerator over n!."""

    @pytest.mark.parametrize(
        "value,p,n",
        [
            (F(-1, 2), 1, 2),
            (F(-1, 3), 2, 3),
            (0, 0, 1),
            (F(-5, 6), 5, 3),
            (F(-1, 24), 1, 4),
            (F(-3, 4), 18, 4),
        ],
    )
    def test_frozen(self, value, p, n):
        x = C(value)
        assert first_level(x) == n
        assert C(F(-p, math.factorial(n))) == x

    def test_roundtrip_and_minimality(self):
        for x in full_level(5):
            n = first_level(x)
            assert n == _first_level(x.value)
            assert C(F(-x.p * (math.factorial(n) // x.q), math.factorial(n))) == x

class TestStageLevel:
    def test_levels(self):
        assert stage_level(1, 2) == (1, 1)
        assert stage_level(4, 3) == (24, 24, 24)
        # Levels too long to write as text are computed all the same.
        assert stage_level(2000, 2) == (math.factorial(2000),) * 2

    @pytest.mark.parametrize("stage", [0, -3])
    def test_stage_must_be_positive(self, stage):
        for k in (0, 1):
            with pytest.raises(ValueError, match="^truncation must be a positive integer$"):
                stage_level(stage, k)

    @pytest.mark.parametrize("stage", [10**8, 10**9])
    def test_zero_components_take_any_stage_at_once(self, stage):
        start = time.perf_counter()
        assert stage_level(stage, 0) == ()
        assert time.perf_counter() - start < 0.1


class TestStageSize:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_below_the_bound_is_the_count(self, k):
        for stage in range(1, 9):
            size = math.factorial(stage) ** k
            assert stage_size(stage, k, size + 1) == size
            assert stage_size(stage, k, size) is None

    def test_stages_below_one_count_as_one(self):
        assert stage_size(0, 2, 2) == 1 and stage_size(-3, 1, 2) == 1

    def test_zero_components_have_one_character(self):
        assert stage_size(10**9, 0, 2) == 1
        assert stage_size(10**9, 0, 1) is None

    @pytest.mark.parametrize("stage", [10**8, 10**9])
    def test_huge_stages_stop_at_the_bound(self, stage):
        start = time.perf_counter()
        assert stage_size(stage, 1, 10**4300) is None
        assert stage_size(stage, 5, 600_001) is None
        assert time.perf_counter() - start < 0.5


class TestStandardOrder:
    def test_frozen(self):
        assert cmp_standard(C(F(-5, 6)), C(F(-1, 6))) is Rel.LT
        assert cmp_standard(C(F(-1, 2)), C(F(-3, 6))) is Rel.EQ
        assert cmp_standard(C(0), C(F(-1, 24))) is Rel.GT

    def test_matches_numeric_sort(self):
        xs = full_level(4)
        by_value = sorted(xs, key=lambda c: c.value)
        for a, b in zip(by_value, by_value[1:]):
            assert cmp_standard(a, b) is Rel.LT

    def test_all_pairs_match_value_comparison(self):
        xs = full_level(4) + [C(F(-k, 5)) for k in range(5)]
        for a in xs:
            for b in xs:
                want = Rel.LT if a.value < b.value else (
                    Rel.EQ if a.value == b.value else Rel.GT
                )
                assert cmp_standard(a, b) is want


class TestFactorialScalar:
    def test_printed_level3_chain(self):
        got = sorted(full_level(3), key=factorial_scalar_key)
        assert [x.value for x in got] == [
            F(-5, 6), F(-2, 6), F(-4, 6), F(-1, 6), F(-3, 6), F(0),
        ]

    def test_printed_deep_chain(self):
        chain = [C(F(-1, 24)), C(F(-2, 6)), C(F(-4, 6)), C(F(-1, 2))]
        for a, b in zip(chain, chain[1:]):
            assert cmp_factorial_scalar(a, b) is Rel.LT

    def test_level4_chain_frozen(self):
        got = sorted(full_level(4), key=factorial_scalar_key)
        assert [x.value for x in got] == CHAIN4

    def test_z4_subchain(self):
        got = sorted([C(F(-k, 4)) for k in range(4)], key=factorial_scalar_key)
        assert [x.value for x in got] == [F(-3, 4), F(-1, 4), F(-1, 2), F(0)]

    def test_reflexive(self):
        for x in full_level(3):
            assert cmp_factorial_scalar(x, x) is Rel.EQ

    def test_comparator_matches_key_exhaustively(self):
        # Against the recursion on fractions, over every pair in Z_{5!}.
        xs = full_level(5)
        assert len({factorial_scalar_key(x) for x in xs}) == len(xs)
        for x in xs:
            for y in xs:
                want = cmp_factorial_recursive(x.value, y.value)
                assert cmp_factorial_scalar(x, y) is (Rel.LT, Rel.EQ, Rel.GT)[want + 1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_oracle_equivalence(self, n):
        got = sorted(full_level(n), key=factorial_scalar_key)
        assert [x.value for x in got] == interleaving_chain(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_restriction_compatibility(self, n):
        upper = sorted(full_level(n), key=factorial_scalar_key)
        lower = sorted(full_level(n - 1), key=factorial_scalar_key)
        sub = [x for x in upper if first_level(x) <= n - 1]
        assert sub == lower

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_digits_match_fraction_recursion_beyond_level6(self, data):
        # Characters of first level 7-9, beyond the exhaustive checks: -k/n!
        # with k not divisible by n.  The second is either drawn the same way
        # or differs from the first by an element of Z_{t!}, t < n, so that
        # the two share their top fibers and the comparison runs deep.
        def deep():
            n = data.draw(st.integers(7, 9))
            k = data.draw(st.integers(0, math.factorial(n - 1) - 1)) * n
            k += data.draw(st.integers(1, n - 1))
            return F(-k, math.factorial(n)), n

        x, n = deep()
        if data.draw(st.booleans()):
            y = deep()[0]
        else:
            t = math.factorial(data.draw(st.integers(1, n - 1)))
            y = mod1(x - F(data.draw(st.integers(0, t - 1)), t))
        want = cmp_factorial_recursive(x, y)
        a, b = C(x), C(y)
        assert first_level(a) == n >= 7
        assert cmp_factorial_scalar(a, b) is (Rel.LT, Rel.EQ, Rel.GT)[want + 1]
        ka, kb = factorial_scalar_key(a), factorial_scalar_key(b)
        assert all(type(e) is int for e in ka + kb)
        assert (ka > kb) - (ka < kb) == want


class TestFactorialVector:
    def test_level_dominates(self):
        assert cmp_factorial_vector(
            as_vector([F(-5, 6), 0]), as_vector([F(-1, 2), F(-1, 2)])
        ) is Rel.LT

    def test_incomparable(self):
        assert cmp_factorial_vector(
            as_vector([F(-1, 2), 0]), as_vector([0, F(-1, 2)])
        ) is Rel.INCOMPARABLE

    def test_eq_and_gt(self):
        v = as_vector([F(-1, 2), F(-1, 3)])
        assert cmp_factorial_vector(v, v) is Rel.EQ
        assert cmp_factorial_vector(
            as_vector([F(-1, 2), F(-1, 2)]), as_vector([F(-5, 6), 0])
        ) is Rel.GT

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cmp_factorial_vector(as_vector([0]), as_vector([0, 0]))

    def test_antisymmetry_pairs(self):
        univ = [as_vector([a.value, b.value])
                for a in full_level(3) for b in full_level(3)]
        flip = {Rel.LT: Rel.GT, Rel.GT: Rel.LT,
                Rel.EQ: Rel.EQ, Rel.INCOMPARABLE: Rel.INCOMPARABLE}
        for x in univ[::3]:
            for y in univ[::3]:
                r = cmp_factorial_vector(x, y)
                assert cmp_factorial_vector(y, x) is flip[r]
                if r is Rel.EQ:
                    assert x == y

    def test_key_refines_order(self):
        univ = [as_vector([a.value, b.value])
                for a in full_level(3) for b in full_level(3)]
        for x in univ:
            for y in univ:
                if cmp_factorial_vector(x, y) is Rel.LT:
                    assert factorial_vector_key(x) < factorial_vector_key(y)

    def test_vector_level(self):
        assert vector_first_level(as_vector([F(-5, 6), 0])) == 3
        assert vector_first_level(as_vector([0, 0])) == 1
        assert vector_first_level(()) == 1


class TestPreorder:
    def test_reflexivity_enforced(self):
        with pytest.raises(ValueError):
            Preorder(["a", "b"], [0b01, 0b00])

    def test_transitivity_enforced(self):
        with pytest.raises(ValueError):
            Preorder(["a", "b", "c"], [0b011, 0b110, 0b100])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Preorder(["a", "a"], [0b01, 0b10])

    def test_from_pairs_strict_rejects_open(self):
        # a <= b <= c <= a with none of the three closing pairs.
        with pytest.raises(ValueError, match="not transitive"):
            Preorder(["a", "b", "c"], [0b011, 0b110, 0b101])

class TestEnumerate:
    def test_single_support_star(self):
        got = enumerate_characters([2, 3], {2}, star=True)
        assert [[c.value for c in v] for v, _ in got] == [
            [0, F(-1, 3)], [0, F(-2, 3)],
        ]

    def test_empty_support(self):
        assert enumerate_characters([2, 3], set()) == [
            ((Character.zero(), Character.zero()), 1)
        ]
        assert enumerate_characters([2, 3], set(), star=True) == [
            ((Character.zero(), Character.zero()), 1)
        ]

    def test_prime_filter_kills_level4(self):
        assert enumerate_characters([4], {1}, star=True, prime_to=2) == []

    def test_full_z4_in_factorial_order(self):
        got = enumerate_characters([4], {1})
        assert [v[0].value for v, _ in got] == [F(-3, 4), F(-1, 4), F(-1, 2), F(0)]
        assert [n for _, n in got] == [4, 4, 2, 1]

    def test_diagonal_pair(self):
        got = enumerate_characters([2, 2], {1, 2}, star=True)
        assert [[c.value for c in v] for v, _ in got] == [[F(-1, 2), F(-1, 2)]]

    def test_output_sorted_and_injective(self):
        got = enumerate_characters([4, 3], {1, 2})
        keys = [factorial_vector_key(v) for v, _ in got]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert len(got) == 12

    def test_partition_identity_small_exhaustive(self):
        for orders in _all_orders(max_entry=4, max_len=3):
            k = len(orders)
            total = 0
            for mask in range(1 << k):
                sup = {i + 1 for i in range(k) if mask >> i & 1}
                total += len(enumerate_characters(orders, sup, star=True))
            assert total == math.prod(orders)

    def test_partition_identity_wide(self):
        orders = [2, 3, 4, 5, 6]
        total = 0
        for mask in range(1 << 5):
            sup = {i + 1 for i in range(5) if mask >> i & 1}
            total += len(enumerate_characters(orders, sup, star=True))
        assert total == 720

    def test_support_buckets_match_star_counts(self):
        orders = [2, 3, 2]
        full = enumerate_characters(orders, {1, 2, 3})
        buckets: dict[frozenset, int] = {}
        for v, _ in full:
            sup = frozenset(i + 1 for i, c in enumerate(v) if c.p)
            buckets[sup] = buckets.get(sup, 0) + 1
        for mask in range(1 << 3):
            sup = frozenset(i + 1 for i in range(3) if mask >> i & 1)
            want = len(enumerate_characters(orders, sup, star=True))
            assert buckets.get(sup, 0) == want

    def test_prime_filter_counts(self):
        for r in range(2, 13):
            for p in (2, 3, 5):
                coprime_part = r
                while coprime_part % p == 0:
                    coprime_part //= p
                got = enumerate_characters([r], {1}, star=True, prime_to=p)
                assert len(got) == coprime_part - 1
                assert all(v[0].q % p != 0 for v, _ in got)

    def test_prime_filter_monotone(self):
        for r in range(2, 13):
            for p in (2, 3):
                filtered = enumerate_characters([r], {1}, star=True, prime_to=p)
                plain = enumerate_characters([r], {1}, star=True)
                assert len(filtered) <= len(plain)

    @given(
        r=st.integers(1, 720),
        star=st.booleans(),
        prime_to=st.sampled_from([None, 2, 3, 5, 7]),
    )
    @settings(max_examples=80, deadline=None)
    def test_integer_axis_matches_fraction_route(self, r, star, prime_to):
        # The Fraction/mod_one route is the reference for the gcd-reduced axis.
        axis = [Character.of(F(-k, r)) for k in range(r - 1, -1, -1)]
        want = [
            (c,) for c in axis
            if not (star and c.p == 0) and (prime_to is None or c.q % prime_to)
        ]
        want.sort(key=factorial_vector_key)
        got = enumerate_characters([r], {1}, star=star, prime_to=prime_to)
        assert [v for v, _ in got] == want

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_generated_order_is_the_key_sort(self, data):
        # Orders 1..720 and the factorials to 7!, on 1-3 components, with
        # at most 6,000 vectors so that the oracle's sort stays quick.
        orders = []
        for _ in range(data.draw(st.integers(1, 3))):
            cap = 6000 // math.prod(orders)
            orders.append(data.draw(st.one_of(
                st.integers(1, min(720, cap)),
                st.sampled_from([f for f in map(math.factorial, range(1, 8)) if f <= cap]),
            )))
        support = data.draw(st.sets(st.integers(1, len(orders))))
        star = data.draw(st.booleans())
        prime_to = data.draw(st.sampled_from([None, 2, 3, 5, 7]))
        got = enumerate_characters(orders, support, star=star, prime_to=prime_to)
        assert [v for v, _ in got] == enumerate_characters_by_key(orders, support, star, prime_to)
        assert [n for _, n in got] == [vector_first_level(v) for v, _ in got]

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_characters([0], {1})
        with pytest.raises(ValueError):
            enumerate_characters([2], {3})
        with pytest.raises(ValueError):
            enumerate_characters([2], {1}, prime_to=4)


def _all_orders(max_entry, max_len):
    out = []
    def rec(prefix):
        if prefix:
            out.append(list(prefix))
        if len(prefix) == max_len:
            return
        for r in range(1, max_entry + 1):
            rec(prefix + [r])
    rec([])
    return out


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        # The sieve of Eratosthenes: trial division by every prime at once.
        n = 10 ** 5
        composite = bytearray(n + 1)
        for d in range(2, math.isqrt(n) + 1):
            if not composite[d]:
                composite[d * d::d] = b"\x01" * len(range(d * d, n + 1, d))
        assert [k for k in range(n + 1) if _is_prime(k)] == [
            k for k in range(2, n + 1) if not composite[k]]

    @pytest.mark.parametrize("n, prime", [
        (2 ** 61 - 1, True),
        ((10 ** 9 + 7) * (10 ** 9 + 9), False),
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5 and 7
        (3825123056546413051, False),  # ... to the first 9 primes
        (318665857834031151167461, False),  # ... to the first 12 primes
        (PRIME_TEST_BOUND - 2, False),
        (PRIME_TEST_BOUND - 168, True),  # the largest prime below the bound
    ])
    def test_large(self, n, prime):
        assert _is_prime(n) is prime

    def test_refused_from_the_bound(self):
        with pytest.raises(ValueError, match=f"^prime_to must be below {PRIME_TEST_BOUND}, "):
            _is_prime(PRIME_TEST_BOUND)

