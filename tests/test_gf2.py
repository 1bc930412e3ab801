"""GF(2) representations: principal minors, D(C), M*B = D(C), and the
binary classifier."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from dmkit.catalog import make_named
from dmkit.census import count_census
from dmkit.errors import FormatError, NotADeltaMatroidError
from dmkit.gf2 import (
    SkewSymMatrixGF2,
    column_matroid,
    d_of_c,
    gf2_rank,
    is_binary_dm,
    parse_matrix,
    principal_nonsingular,
    representation_twist,
    serialize_matrix,
)
from dmkit.matroid import uniform_matroid


def matrix_of(labels: str, *rows: str) -> SkewSymMatrixGF2:
    return SkewSymMatrixGF2(
        tuple(labels),
        tuple(sum(1 << j for j, ch in enumerate(r) if ch == "1") for r in rows),
    )


def random_matrix(rng: random.Random, n: int) -> SkewSymMatrixGF2:
    rows = [0] * n
    for i in range(n):
        if rng.random() < 0.5:
            rows[i] |= 1 << i
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return SkewSymMatrixGF2(tuple("abcdefgh"[:n]), tuple(rows))


def all_matrices(n: int):
    """Every symmetric GF(2) matrix on n elements, 2^(n(n+1)/2) of them."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for bits in range(1 << len(cells)):
        rows = [0] * n
        for i, j in itertools.compress(cells, (bits >> b & 1 for b in range(len(cells)))):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        yield SkewSymMatrixGF2(tuple("abcdefgh"[:n]), tuple(rows))


class TestRank:
    def test_simple_ranks(self):
        assert gf2_rank([]) == 0
        assert gf2_rank([0b11, 0b10]) == 2
        assert gf2_rank([0b11, 0b11]) == 1
        assert gf2_rank([0b111, 0b011, 0b100]) == 2

    def test_rank_matches_brute_force(self, rng):
        for _ in range(100):
            n = rng.randrange(1, 6)
            rows = [rng.getrandbits(n) for _ in range(rng.randrange(1, 6))]
            # brute force: largest independent subset over GF(2)
            best = 0
            for r in range(len(rows) + 1):
                for combo in itertools.combinations(rows, r):
                    spans = {0}
                    ok = True
                    for v in combo:
                        if v in spans:
                            ok = False
                            break
                        spans |= {s ^ v for s in spans}
                    if ok:
                        best = max(best, r)
            assert gf2_rank(rows) == best


class TestPrincipalNonsingular:
    def test_empty_always(self, rng):
        assert principal_nonsingular(random_matrix(rng, 4), 0)

    def test_zero_matrix(self):
        z = matrix_of("abc", "000", "000", "000")
        for a in range(1, 8):
            assert not principal_nonsingular(z, a)

    def test_off_diagonal_pair(self):
        c = matrix_of("ab", "01", "10")
        assert principal_nonsingular(c, 0b11)
        assert not principal_nonsingular(c, 0b01)

    def test_symmetry_enforced(self):
        with pytest.raises(FormatError):
            matrix_of("ab", "01", "00")


class TestDofC:
    def test_zero_matrix(self):
        z = matrix_of("abc", "000", "000", "000")
        assert d_of_c(z).masks == frozenset({0})

    def test_identity_all_feasible(self):
        i3 = matrix_of("abc", "100", "010", "001")
        assert d_of_c(i3).masks == frozenset(range(8))

    def test_pair_matrix_gives_s2(self):
        c = matrix_of("ab", "01", "10")
        assert d_of_c(c).masks == frozenset({0, 3})

    def test_agrees_with_principal_quantifier(self, rng):
        # the matching-parity transform against the definitional subset
        # scan: every matrix up to four elements, seeded ones above
        seeded = [random_matrix(rng, n) for n in (5, 6, 7, 8) for _ in range(40)]
        for c in itertools.chain(*map(all_matrices, range(5)), seeded):
            n = c.n
            got = d_of_c(c)
            expected = frozenset(
                a for a in range(1 << n) if principal_nonsingular(c, a)
            )
            assert got.masks == expected
            assert got.family_bitmap == sum(1 << a for a in expected)

    def test_binary_delta_matroid_count(self):
        # each binary delta-matroid on n elements is D(C) twisted by a
        # feasible set for exactly |D(C)| pairs (C, feasible set), so there
        # are 2^n * sum 1/|D(C)| of them.  Up to four elements the census
        # counts them by the P-twist minor scan, which never forms a D(C).
        # The count is the product over k = 1..n of 2^k + 1 at every n
        # checked, as many as the Lagrangian subspaces of a 2n-dimensional
        # symplectic GF(2) space (observed, not proved here).
        for n in range(6):
            sizes = Counter(d_of_c(c).family_bitmap.bit_count() for c in all_matrices(n))
            total = (1 << n) * sum(Fraction(k, size) for size, k in sizes.items())
            assert total == math.prod((1 << k) + 1 for k in range(1, n + 1))
            if n <= 4:
                assert total == count_census(n).totals["binary_consistent"]

    def test_always_delta_matroid(self, rng):
        for _ in range(150):
            c = random_matrix(rng, rng.randrange(1, 7))
            assert d_of_c(c).is_delta_matroid()


class TestRepresentationTwist:
    def test_u12_example(self):
        c = representation_twist([0b1], ["a"], ["b"])
        assert c.rows == (0b10, 0b01)
        m = uniform_matroid(1, 2)
        assert d_of_c(c).masks == m.system.twist(["a"]).masks

    def test_zero_block(self):
        c = representation_twist([0b0, 0b0], ["a", "b"], ["c"])
        assert d_of_c(c).masks == frozenset({0})

    def test_free_matroid_no_columns(self):
        c = representation_twist([], [], ["a", "b"])
        # rank-0 representation: no basis rows; every element a loop
        assert d_of_c(c).masks == frozenset({0})

    def test_all_small_representations(self):
        # enumerate every (I|A) on at most 4 columns and check M*B = D(C)
        labels = "abcd"
        for total in range(1, 5):
            for r in range(0, total + 1):
                s = total - r
                basis = list(labels[:r])
                rest = list(labels[r : r + s])
                for bits in range(1 << (r * s)):
                    a_rows = [
                        (bits >> (i * s)) & ((1 << s) - 1) for i in range(r)
                    ]
                    rows = [(1 << i) | (a_rows[i] << r) for i in range(r)]
                    m = column_matroid(rows, basis + rest)
                    if m.rank != r:
                        continue
                    c = representation_twist(a_rows, basis, rest)
                    assert d_of_c(c).masks == m.system.twist(basis).masks

    def test_shape_mismatch(self):
        with pytest.raises(FormatError):
            representation_twist([0b1, 0b1], ["a"], ["b"])


class TestBinaryClassifier:
    def test_p_systems_fail(self):
        for i in range(1, 6):
            ok, witness = is_binary_dm(make_named(f"P{i}"))
            assert not ok and witness is not None, f"P{i}"

    def test_u24_twist_fails(self):
        m = uniform_matroid(2, 4)
        for basis in sorted(m.bases)[:2]:
            twisted = m.system.twist(m.system.members(basis))
            ok, _ = is_binary_dm(twisted)
            assert not ok

    def test_doc_outputs_pass(self, rng):
        for _ in range(40):
            c = random_matrix(rng, rng.randrange(1, 6))
            ok, witness = is_binary_dm(d_of_c(c))
            assert ok, (c, witness)

    def test_rejects_non_delta_matroid(self):
        with pytest.raises(NotADeltaMatroidError):
            is_binary_dm(make_named("T1"))

    def test_binary_matroids_pass_as_basis_systems(self):
        # graphic/binary matroids from explicit representations
        rows = [0b1101, 0b0111]
        m = column_matroid(rows, ["a", "b", "c", "d"])
        ok, _ = is_binary_dm(m.system)
        assert ok

    def test_twists_of_doc_consistent(self, rng):
        # every twist of a representable system classifies as binary
        for _ in range(15):
            c = random_matrix(rng, 4)
            d = d_of_c(c)
            for a in range(1 << 4):
                twisted = d.twist(d.members(a))
                ok, _ = is_binary_dm(twisted)
                assert ok


class TestMatrixIO:
    def test_round_trip(self, rng):
        for _ in range(20):
            c = random_matrix(rng, rng.randrange(1, 6))
            assert parse_matrix(serialize_matrix(c)) == c

    def test_bad_rows(self):
        with pytest.raises(FormatError):
            parse_matrix('{"labels":["a","b"],"rows":["01","1"]}')
        with pytest.raises(FormatError):
            parse_matrix('{"labels":["a"],"rows":["2"]}')

    @pytest.mark.parametrize("labels, rows", [('"ab"', '["01","10"]'), ('[1,2]', '["01","10"]'),
                                              ('["a",null]', '["01","10"]'), ('["a","b"]', '5'),
                                              ('["a","b"]', '"0110"')])
    def test_labels_and_rows_must_be_lists(self, labels, rows):
        with pytest.raises(FormatError):
            parse_matrix('{"labels":%s,"rows":%s}' % (labels, rows))
