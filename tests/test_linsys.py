import json

import numpy as np
import pytest

from commonsys import linsys
from commonsys.errors import (
    MalformedDocument,
    NoFreeVariables,
    NotOddPrime,
    RankDeficient,
)


def doc(p, matrix):
    return json.dumps({"p": p, "matrix": matrix})


class TestParse:
    def test_zero_row_is_rank_deficient(self):
        with pytest.raises(RankDeficient):
            linsys.parse_system(doc(3, [[1, 2, 1, 2], [0, 0, 0, 0]]))

    def test_phi_document(self):
        s = linsys.parse_system(
            doc(3, [[1, -1, 1, -1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, -1, 1, -1, 1]])
        )
        assert (s.t, s.m, s.num_params) == (9, 2, 7)
        assert s.matrix[0][1] == 2  # negative entries reduced mod p

    def test_single_row(self):
        s = linsys.parse_system(doc(3, [[1, 1, 2]]))
        assert (s.t, s.m, s.num_params) == (3, 1, 2)

    def test_not_odd_prime(self):
        for p in (2, 4, 9, 37, -3):
            with pytest.raises((NotOddPrime, MalformedDocument)):
                linsys.parse_system(doc(p, [[1, 1]]))

    def test_no_free_variables(self):
        with pytest.raises(NoFreeVariables):
            linsys.parse_system(doc(3, [[1, 0], [0, 1]]))

    def test_malformed(self):
        for text in (
            "not json",
            json.dumps([1, 2]),
            json.dumps({"p": 3}),
            doc(3, [[1, 2], [1]]),
            doc(3, [["a", 1]]),
            doc(3, []),
        ):
            with pytest.raises(MalformedDocument):
                linsys.parse_system(text)


def enumerate_scalar_kernel(system):
    """All solutions with n = 1 (entries in F_p), via the parameterization."""
    p, d = system.p, system.num_params
    for idx in range(p**d):
        params = []
        v = idx
        for _ in range(d):
            params.append(v % p)
            v //= p
        yield tuple(
            sum(c * y for c, y in zip(form, params)) % p for form in system.kernel
        )


def constants_solve(system):
    """True iff the constant tuple (1, ..., 1) is among the solutions the
    kernel parameterization enumerates."""
    return (1,) * system.t in set(enumerate_scalar_kernel(system))


class TestKernel:
    @pytest.mark.parametrize("name", linsys.PRESETS)
    @pytest.mark.parametrize("p", [3, 5])
    def test_kernel_solves_system_exhaustively(self, name, p):
        s = linsys.preset(name, p)
        seen = set()
        for sol in enumerate_scalar_kernel(s):
            seen.add(sol)
            for row in s.matrix:
                assert sum(c * x for c, x in zip(row, sol)) % p == 0
        assert len(seen) == p**s.num_params

    def test_kernel_covers_all_solutions(self):
        # converse: every solution appears in the parameterization
        s = linsys.preset("a4", 3)
        brute = set()
        for idx in range(3**s.t):
            x = []
            v = idx
            for _ in range(s.t):
                x.append(v % 3)
                v //= 3
            if all(sum(c * xi for c, xi in zip(row, x)) % 3 == 0 for row in s.matrix):
                brute.add(tuple(x))
        assert brute == set(enumerate_scalar_kernel(s))


class TestTranslationInvariance:
    """Constant tuples solve a system exactly when every row sums to 0 mod p;
    checked on the solutions of the kernel parameterization."""

    def test_ap3_true(self):
        assert constants_solve(linsys.preset("ap3"))

    def test_phi_false(self):
        assert not constants_solve(linsys.preset("phi"))

    def test_schur_false_mod3(self):
        # row-sum oracle: 1 + 1 - 1 = 1 != 0 mod 3
        assert not constants_solve(linsys.preset("schur", 3))

    @pytest.mark.parametrize("name", linsys.PRESETS)
    def test_invariant_under_row_operations(self, name):
        rng = np.random.default_rng(11)
        s = linsys.preset(name, 3)
        base = constants_solve(s)
        for _ in range(20):
            while True:
                a = rng.integers(0, 3, size=(s.m, s.m))
                if _rank_mod_p(a.tolist(), 3) == s.m:
                    break
            rows = (a @ np.array(s.matrix) % 3).tolist()
            mixed = linsys.LinearSystem.from_matrix(3, rows)
            assert constants_solve(mixed) == base


def _rank_mod_p(rows, p):
    return len(linsys._rref_mod_p([list(r) for r in rows], p)[1])


class TestFreeVariables:
    def test_zero_is_identity(self):
        phi = linsys.preset("phi")
        assert linsys.add_free_variables(phi, 0) is phi

    def test_padding(self):
        phi = linsys.preset("phi")
        ext = linsys.add_free_variables(phi, 3)
        assert (ext.t, ext.num_params) == (12, 10)
        assert all(row[-3:] == (0, 0, 0) for row in ext.matrix)

    def test_ap3_plus_one_parameterization(self):
        # solutions are exactly the tuples (x, x+d, x+2d, y)
        ext = linsys.add_free_variables(linsys.preset("ap3"), 1)
        expected = {
            (x % 3, (x + d) % 3, (x + 2 * d) % 3, y % 3)
            for x in range(3)
            for d in range(3)
            for y in range(3)
        }
        assert set(enumerate_scalar_kernel(ext)) == expected


class TestFactorDisjoint:
    def test_phi_splits(self):
        blocks, perm = linsys.factor_disjoint(linsys.preset("phi"))
        assert [(b.t, b.m) for b in blocks] == [(4, 1), (5, 1)]
        assert perm == list(range(9))
        assert blocks[0].matrix == linsys.preset("a4").matrix
        assert blocks[1].matrix == linsys.preset("a5").matrix

    def test_single_equation_is_one_block(self):
        s = linsys.preset("schur")
        blocks, _ = linsys.factor_disjoint(s)
        assert len(blocks) == 1 and blocks[0].matrix == s.matrix

    def test_shared_variable_stays_together(self):
        s = linsys.LinearSystem.from_matrix(3, [[1, 1, 0], [0, 1, 1]])
        blocks, _ = linsys.factor_disjoint(s)
        assert len(blocks) == 1 and blocks[0].m == 2

    def test_free_columns_become_blocks(self):
        ext = linsys.add_free_variables(linsys.preset("phi"), 2)
        blocks, perm = linsys.factor_disjoint(ext)
        assert [(b.t, b.m) for b in blocks] == [(4, 1), (5, 1), (1, 0), (1, 0)]
        assert sorted(perm) == list(range(11))

    @pytest.mark.parametrize("seed", range(8))
    def test_blocks_partition_and_params_add_up(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            rows = rng.integers(0, 3, size=(2, 6)).tolist()
            try:
                s = linsys.LinearSystem.from_matrix(3, rows)
                break
            except Exception:
                continue
        blocks, perm = linsys.factor_disjoint(s)
        assert sorted(perm) == list(range(s.t))
        assert sum(b.num_params for b in blocks) == s.num_params
        supports = [set() for _ in blocks]
        offset = 0
        for i, b in enumerate(blocks):
            supports[i] = set(perm[offset : offset + b.t])
            offset += b.t
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                assert not supports[i] & supports[j]
        # concatenation reproduces the matrix up to the returned column order
        rebuilt = {}
        offset = 0
        for b in blocks:
            for r in range(b.m):
                row = [0] * s.t
                for c in range(b.t):
                    row[perm[offset + c]] = b.matrix[r][c]
                rebuilt[tuple(row)] = rebuilt.get(tuple(row), 0) + 1
            offset += b.t
        original = {}
        for row in s.matrix:
            original[tuple(row)] = original.get(tuple(row), 0) + 1
        assert rebuilt == original
