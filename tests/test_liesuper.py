"""Lie superalgebra tests: axioms, constant extraction, and the PBW
straightening kernel cross-checked against the brute-force word rewriter."""

import os
import random

import pytest

from superpoints import (
    GF2,
    GF3,
    QQ,
    ClosureViolation,
    EvenTok,
    GrassmannAlgebra,
    GroupWord,
    InducedModule,
    LieSuperalgebraData,
    OddTok,
    StructuralError,
    SuperMatrix,
    char2_pair,
    check_axioms,
    defining_module,
    from_matrices,
    gl_lie,
    gl_pair,
    q2_pair,
    word_action,
)
from superpoints import liesuper
from superpoints.liesuper import (_basis_elements, _bracket, parity_pattern_ok,
                                   straighten_action, trivial_action)
from superpoints.sampling import rand_odd
from superpoints.serialize import load_lie, load_pair, loads
from superpoints.verify import check_module_axioms

from .oracles import (even_monomial_action_oracle, jacobi_and_square_oracle,
                      k_matmul_oracle, odd_monomial_action_oracle)
from .support import trivial_module


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def kmat(field, rows):
    return [[field.from_int(v) for v in r] for r in rows]


# ---------------------------------------------------------------------------
# axiom checking


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_gl_axioms_pass(field):
    for (p, q) in [(1, 1), (2, 1)]:
        rep = check_axioms(gl_lie(p, q, field))
        assert rep.ok, rep.summary()


def _fixture_pair_lie():
    with open(os.path.join(FIXTURES, "gl11_pair.json")) as fh:
        return load_pair(loads(fh.read())).lie


@pytest.mark.parametrize("make_lie", [lambda: gl_lie(1, 1, QQ), lambda: gl_lie(2, 1, QQ),
                                      _fixture_pair_lie],
                         ids=["gl11", "gl21", "gl11_pair.json"])
def test_gl_tables_over_q_are_ints(make_lie):
    """The constants, rho and straightening tables of gl(p|q) over Q are
    integral, so they run on machine ints: every raw value is an int."""
    lie = make_lie()
    values = [v for t in (lie.ee, lie.eo, lie.oo) for row in t for vec in row for v in vec]
    values += [v for vec in lie.q2 for v in vec]
    values += [v for m in lie.rho_even + lie.rho_odd for row in m for v in row]
    for key in range(1 << lie.d_minus):
        for j in range(lie.d_minus):
            values += lie.odd_action(j, key).values()
        for a in range(lie.d_plus):
            values += lie.even_action_basis(a, key).values()
    assert values and all(type(v) is int for v in values)


def test_abelian_passes():
    f = QQ
    z = f.from_int(0)
    lie = LieSuperalgebraData(
        f, 1, 2,
        ee=[[[z]]],
        eo=[[[z, z], [z, z]]],
        oo=[[[z], [z]], [[z], [z]]],
        q2=[[z], [z]],
    )
    assert check_axioms(lie).ok


def test_flipped_odd_bracket_fails_via_rho():
    """Flipping [Y1,Y2] alone still satisfies the abstract axioms (it is the
    isomorphic twist Y1 -> -Y1), so the checker pins the inconsistency where
    it lives: the stored matrices no longer represent the constants."""
    f = QQ
    good = gl_lie(1, 1, f)
    flipped_oo = [[list(v) for v in row] for row in good.oo]
    for i in range(2):
        for j in range(2):
            flipped_oo[i][j] = [f.neg(c) for c in flipped_oo[i][j]]
    bad = LieSuperalgebraData(f, good.d_plus, good.d_minus, good.ee, good.eo,
                              flipped_oo, good.q2, shape=good.shape,
                              rho_even=good.rho_even, rho_odd=good.rho_odd)
    rep = check_axioms(bad)
    assert not rep.ok
    assert any("rho[Y" in m for m in rep.failures)


def test_tampered_jacobi_fails():
    f = QQ
    good = gl_lie(1, 1, f)
    bad_eo = [list(list(v) for v in row) for row in good.eo]
    bad_eo[1][0] = [f.from_int(0), f.from_int(0)]  # kill [X2, Y1]
    bad = LieSuperalgebraData(f, 2, 2, good.ee, bad_eo, good.oo, good.q2)
    rep = check_axioms(bad)
    assert not rep.ok
    assert any("(c) Jacobi" in m or "(a)" in m or "(f)" in m for m in rep.failures)


def _tampered(rng, field, lie):
    """lie without rho, one entry of ee, eo, oo or q2 moved by a nonzero value."""
    tables = {"ee": [[list(v) for v in r] for r in lie.ee],
              "eo": [[list(v) for v in r] for r in lie.eo],
              "oo": [[list(v) for v in r] for r in lie.oo],
              "q2": [list(v) for v in lie.q2]}
    table = tables[rng.choice(sorted(tables))]
    vec = table[rng.randrange(len(table))]
    if isinstance(vec[0], list):
        vec = vec[rng.randrange(len(vec))]
    k = rng.randrange(len(vec))
    vec[k] = field.add(vec[k], field.from_int(rng.randrange(1, max(field.characteristic, 3))))
    return LieSuperalgebraData(field, lie.d_plus, lie.d_minus, tables["ee"], tables["eo"],
                               tables["oo"], tables["q2"])


def test_ad_relation_check_matches_the_jacobi_and_square_loops():
    """Tables with one entry changed, on gl(1|1), gl(2|1) and the char-2
    fixture over Q, F2 and F3: wherever (b) holds, check_axioms reports (c)
    exactly when a basis triple breaks graded Jacobi, and (c) or (f)
    exactly when Jacobi or [z^<2>,x] = [z,[z,x]] fails on the explicit
    loops of the oracle."""
    rng = random.Random(2026)
    bases = [(f, gl_lie(p, q, f)) for f in (QQ, GF2, GF3) for p, q in ((1, 1), (2, 1))]
    bases.append((GF2, char2_pair(GF2).lie))
    seen = set()
    for case in range(240):
        field, lie = bases[case % len(bases)]
        bad = _tampered(rng, field, lie)
        rep = check_axioms(bad)
        if any(m.startswith("(b)") for m in rep.failures):
            continue
        jacobi, square = jacobi_and_square_oracle(bad)
        got_c = any(m.startswith("(c)") for m in rep.failures)
        got_f = any(m.startswith("(f)") for m in rep.failures)
        assert got_c == jacobi, (case, rep.summary())
        assert (got_c or got_f) == (jacobi or square), (case, rep.summary())
        seen.add((jacobi, square))
    assert {(False, True), (True, True)} <= seen


def test_polarization_checks_the_diagonal():
    """(e) includes [Y_i,Y_i] = 2 Y_i^<2>: gl(1|1) with Y2^<2> moved to the
    central X1+X2 breaks it outside characteristic 2, and nothing else."""
    for field in (QQ, GF3, GF2):
        g = gl_lie(1, 1, field)
        one = field.from_int(1)
        lie = LieSuperalgebraData(field, 2, 2, g.ee, g.eo, g.oo, [g.q2[0], (one, one)])
        expected = [] if field.characteristic == 2 else ["(e) polarization fails on (Y2,Y2)"]
        assert check_axioms(lie).failures == expected


def test_rho_is_checked_after_axiom_failures():
    """An axiom failure does not hide the rho check: gl(1|1) with [X2,Y1]
    zeroed also names the rho relation it breaks."""
    g = gl_lie(1, 1, QQ)
    eo = [list(row) for row in g.eo]
    eo[1][0] = (QQ.from_int(0), QQ.from_int(0))
    bad = LieSuperalgebraData(QQ, 2, 2, g.ee, eo, g.oo, g.q2, shape=g.shape,
                              rho_even=g.rho_even, rho_odd=g.rho_odd)
    failures = check_axioms(bad).failures
    assert "rho[X2,Y1] mismatch" in failures
    assert any(m.startswith("(c)") for m in failures)


def test_char2_nonzero_square_passes():
    """gl(1|1) over F2 with Y1 = E12+E21, so Y1^<2> = X1+X2 != 0."""
    f = GF2
    lie = from_matrices(1, 1,
                        [kmat(f, [[1, 0], [0, 0]]), kmat(f, [[0, 0], [0, 1]])],
                        [kmat(f, [[0, 1], [1, 0]])], f)
    assert lie.q2[0] == (f.from_int(1), f.from_int(1))
    assert check_axioms(lie).ok


# ---------------------------------------------------------------------------
# constants from matrices


def test_from_matrices_gl11_constants():
    lie = gl_lie(1, 1, QQ)
    # odd basis: Y1 = E12, Y2 = E21; [Y1,Y2] = E11 + E22 = X1 + X4-ish
    # even basis: E11, E22 (row-major even positions)
    assert lie.oo[0][1] == (QQ.from_int(1), QQ.from_int(1))
    assert lie.q2[0] == (QQ.from_int(0), QQ.from_int(0))


def test_from_matrices_single_odd_line_closes():
    f = QQ
    lie = from_matrices(1, 1,
                        [kmat(f, [[1, 0], [0, 0]]), kmat(f, [[0, 0], [0, 1]])],
                        [kmat(f, [[0, 1], [0, 0]])], f)
    assert check_axioms(lie).ok
    assert lie.q2[0] == (f.from_int(0), f.from_int(0))


def test_from_matrices_closure_violation():
    f = QQ
    with pytest.raises(ClosureViolation, match=r"\[X1,Y1\] left the odd span"):
        from_matrices(1, 1, [kmat(f, [[1, 0], [0, 0]])],
                      [kmat(f, [[0, 1], [1, 0]])], f)


def test_gl_lie_makes_no_supermatrix_product(monkeypatch):
    """The structure constants are computed over raw k: no SuperMatrix
    product, so check_axioms' rho check (gl_bracket and gl_2op, which do
    use it) is an independent cross-check of them."""
    calls = []
    real = SuperMatrix.__mul__

    def counted(self, other):
        calls.append(self)
        return real(self, other)

    monkeypatch.setattr(SuperMatrix, "__mul__", counted)
    lie = gl_lie(2, 1, QQ)
    assert calls == []
    assert check_axioms(lie).ok
    assert calls  # the rho check multiplies supermatrices


def test_building_and_checking_gl21_count_their_multiplications(monkeypatch):
    """Deterministic op counts of a cold gl(2|1) over Q: the QQ.mul calls
    of gl_lie (its two row reductions scale no pivot row by 1 and update
    only at the pivot row's nonzeros) and of one check_module_axioms on the
    fresh algebra (which fills its straightening tables) do not grow."""
    calls = [0]
    real = QQ.mul

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(QQ, "mul", counted)
    lie = gl_lie(2, 1, QQ)
    assert calls[0] <= 114
    calls[0] = 0
    assert check_module_axioms(lie).ok
    assert calls[0] <= 1265


def test_relation_checks_count_their_sparse_sums(monkeypatch):
    """Deterministic add_into counts on gl(2|1) over Q: one cold
    check_module_axioms (the straightening tables it fills, then
    broken_relations) and check_axioms, whose only sparse sums in liesuper
    are its adjoint relation pass.  broken_relations builds each of the
    (d_plus + d_minus)^2 ordered products of two tables once, over the
    nonzero entries of the right factor, and adds each right-hand-side
    table once per relation, not once per key."""
    calls = [0]
    real = liesuper.add_into

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(liesuper, "add_into", counted)
    lie = gl_lie(2, 1, QQ)
    assert check_module_axioms(lie).ok
    assert calls[0] <= 653
    calls[0] = 0
    assert check_axioms(lie).ok
    assert calls[0] <= 325


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_from_matrices_constants_pass_the_rho_oracle(field):
    """check_axioms, including the SuperMatrix-based rho check, passes on
    every gl(p|q) with p + q <= 4 (empty spans included) and on the
    characteristic-2 pair."""
    for p, q in [(p, q) for p in range(5) for q in range(5 - p) if p + q]:
        rep = check_axioms(gl_lie(p, q, field))
        assert rep.ok, (p, q, rep.summary())
    if field.characteristic == 2:
        assert check_axioms(char2_pair(field).lie).ok


def _gauss_coords(field, columns, vec):
    """The coordinates of vec in the span of the independent columns, by
    plain Gauss-Jordan elimination on the dense rows [columns | vec]."""
    m = len(columns)
    rows = [list(r) + [v] for r, v in zip(zip(*columns), vec)] if m else [[v] for v in vec]
    for col in range(m):
        piv = next(i for i in range(col, len(rows)) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = field.inv(rows[col][col])
        rows[col] = [field.mul(inv, x) for x in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                g = row[col]
                rows[i] = [field.add(x, field.neg(field.mul(g, y)))
                           for x, y in zip(row, rows[col])]
    assert not any(r[m] for r in rows[m:]), "the vector left the span"
    return tuple(r[m] for r in rows[:m])


def _dense_constants(field, evens, odds):
    """(ee, eo, oo, q2) of the span of the k-matrices evens and odds, from
    dense products (k_matmul_oracle) and _gauss_coords."""
    spans = [[[v for row in m for v in row] for m in mats] for mats in (evens, odds)]

    def solve(parity, a, b, sign=None):
        """coordinates of ab + sign.ba (of ab when sign is None)."""
        flat = [v for row in k_matmul_oracle(field, a, b) for v in row]
        if sign is not None:
            ba = [v for row in k_matmul_oracle(field, b, a) for v in row]
            flat = [field.add(x, field.mul(field.from_int(sign), y)) for x, y in zip(flat, ba)]
        return _gauss_coords(field, spans[parity], flat)

    return (tuple(tuple(solve(0, x, y, -1) for y in evens) for x in evens),
            tuple(tuple(solve(1, x, y, -1) for y in odds) for x in evens),
            tuple(tuple(solve(0, x, y, 1) for y in odds) for x in odds),
            tuple(solve(0, y, y) for y in odds))


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_from_matrices_matches_a_dense_reference(field):
    """The sparse products and solver of from_matrices give the constants of
    dense products and a dense Gauss solve, on every gl(p|q) with
    p + q <= 4, on q(2) and, in characteristic 2, on char2_pair."""
    lies = [gl_lie(p, q, field) for p in range(5) for q in range(5 - p) if p + q]
    lies.append(q2_pair(field).lie)
    if field.characteristic == 2:
        lies.append(char2_pair(field).lie)
    for lie in lies:
        assert (lie.ee, lie.eo, lie.oo, lie.q2) == _dense_constants(
            field, lie.rho_even, lie.rho_odd), lie.shape


E11, E22, E12 = [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]]


@pytest.mark.parametrize("evens,odds,field,error,message", [
    ([[[1, 1], [0, 0]]], [E12], QQ, StructuralError,
     "an even generator is not even-homogeneous"),
    ([E11], [[[1, 1], [0, 0]]], QQ, StructuralError,
     "an odd generator is not odd-homogeneous"),
    ([E11, [[2, 0], [0, 0]]], [E12], QQ, StructuralError, "linearly dependent"),
    ([E11, E22], [E12, [[0, 3], [0, 0]]], QQ, StructuralError, "linearly dependent"),
    # char 2: [Y1,Y1] = 2 Y1.Y1 vanishes, Y1^<2> = E11 + E22 does not
    ([E11], [[[0, 1], [1, 0]]], GF2, ClosureViolation,
     r"Y1\^<2> left the even span"),
    ([], [[[0, 1], [1, 0]]], QQ, ClosureViolation,
     r"\[Y1,Y1\] is nonzero with empty even span"),
], ids=["even-inhomogeneous", "odd-inhomogeneous", "even-dependent", "odd-dependent",
        "square-leaves-span", "empty-even-span"])
def test_from_matrices_errors(evens, odds, field, error, message):
    with pytest.raises(error, match=message):
        from_matrices(1, 1, [kmat(field, m) for m in evens],
                      [kmat(field, m) for m in odds], field)


# ---------------------------------------------------------------------------
# straightening kernel vs brute-force oracle


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_straightening_matches_oracle(field):
    fixtures = [gl_lie(1, 1, field), gl_lie(2, 1, field)]
    if field.characteristic == 2:
        fixtures.append(from_matrices(
            1, 1,
            [kmat(field, [[1, 0], [0, 0]]), kmat(field, [[0, 0], [0, 1]])],
            [kmat(field, [[0, 1], [1, 0]])], field))
    # memo isolation: an induced module over the same lie fills its own
    # straightening tables first, and none of them may leak into wedge(g_1)
    pair = gl_pair(2, 1, field)
    module = InducedModule(pair, defining_module(pair))
    A = GrassmannAlgebra(field, 1)
    for j in range(pair.d_minus):
        w = GroupWord(pair, A, [OddTok(j, A.generator(1))])
        for mask in range(1 << pair.d_minus):
            for t in range(module.v0.dim):
                module.apply_word(w, {mask | t << pair.d_minus: A.one()})
    fixtures.append(pair.lie)
    for lie in fixtures:
        for j in range(lie.d_minus):
            for mask in range(1 << lie.d_minus):
                assert lie.odd_action(j, mask) == \
                    odd_monomial_action_oracle(lie, j, mask), (j, mask)
        for a in range(lie.d_plus):
            for mask in range(1 << lie.d_minus):
                assert lie.even_action_basis(a, mask) == \
                    even_monomial_action_oracle(lie, a, mask), (a, mask)


def test_straighten_spec_instances():
    lie = gl_lie(1, 1, QQ)
    # Y1 . vacuum = Ybar_1
    assert lie.odd_action(0, 0) == {0b01: QQ.from_int(1)}
    # Y2 . Ybar_1 = -Ybar_12, nothing on the vacuum line
    res = lie.odd_action(1, 0b01)
    assert res.get(0, QQ.from_int(0)) == QQ.from_int(0)
    assert res == {0b11: QQ.from_int(-1)}


# ---------------------------------------------------------------------------
# module structure


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_module_axioms(field):
    for lie in (gl_lie(1, 1, field), gl_lie(2, 1, field)):
        rep = check_module_axioms(lie)
        assert rep.ok, rep.summary()


@pytest.mark.parametrize("name,failures", [
    ("tampered_lie.json", ["action[Y1,Y2] != graded commutator",
                           "action[Y2,Y1] != graded commutator"]),
    ("flipped_bracket_lie.json", []),
    ("gl11_lie.json", []),
])
def test_module_axioms_on_fixtures(name, failures):
    """The module-axiom check fails exactly where the tampered odd-odd
    bracket disagrees with the straightening action."""
    with open(os.path.join(FIXTURES, name)) as fh:
        lie = load_lie(loads(fh.read()))
    assert check_module_axioms(lie).failures == failures


def test_square_relation_is_read_by_every_check():
    """Moving Y2^<2> of gl(1|1) off 0 breaks only the square relation, and
    each homomorphism check names it: rho (to the central X1+X2, which
    breaks no axiom but the (e) diagonal [Y2,Y2] = 2 Y2^<2>), the wedge(g_1)
    action (to X1) and omega (the identity onto the central variant)."""
    from superpoints import HarishChandraPair, PairMorphism, gl_block_diag

    g = gl_lie(1, 1, QQ)
    one, zero = QQ.from_int(1), QQ.from_int(0)

    def with_q2(v):
        return LieSuperalgebraData(QQ, 2, 2, g.ee, g.eo, g.oo, [g.q2[0], v], shape=g.shape,
                                   rho_even=g.rho_even, rho_odd=g.rho_odd)

    assert check_axioms(with_q2((one, one))).failures == [
        "(e) polarization fails on (Y2,Y2)", "rho(Y2^<2>) mismatch"]
    assert check_module_axioms(with_q2((one, zero))).failures == [
        "action(Y2^<2>) != action(Y2)^2"]
    ident = [[one, zero], [zero, one]]
    mor = PairMorphism(gl_pair(1, 1, QQ), HarishChandraPair(gl_block_diag(1, 1),
                                                            with_q2((one, one))),
                       ident, ident, lambda m: m)
    assert mor.check(samples=2).failures == ["omega(Y2^<2>) mismatch"]


def _broken_per_key(lie, tables, keys):
    """broken_relations by a separate sum for each (relation, key) pair,
    stopping at the first key in keys order on which the sum is nonzero."""
    f = lie.field
    out = []
    for name, (px, x), right, sign, (parity, coords) in lie.relations():
        tx = tables[px][x]
        ty = tx if right is None else tables[right[0]][right[1]]
        for m in keys:
            terms = [(c, tx[mid]) for mid, c in ty[m].items()]
            if right is not None:
                terms += [(f.mul(sign, c), ty[mid]) for mid, c in tx[m].items()]
            terms += [(f.neg(c), tables[parity][b][m]) for b, c in enumerate(coords) if c]
            acc = {}
            for c, row in terms:
                for k, v in row.items():
                    acc[k] = f.add(acc.get(k, f.from_int(0)), f.mul(c, v))
            if any(acc.values()):
                out.append((name, (px, x), right, m))
                break
    return out


def test_broken_relations_name_the_least_failing_key():
    """gl(2|1)'s wedge(g_1) tables, each a copy, changed at two keys: the
    one sum per relation reports the relations and the first failing key of
    the per-key loop, in the same order."""
    lie, f = gl_lie(2, 1, QQ), QQ
    keys = range(1 << lie.d_minus)
    tables = ([[dict(lie.even_action_basis(a, m)) for m in keys] for a in range(lie.d_plus)],
              [[dict(lie.odd_action(i, m)) for m in keys] for i in range(lie.d_minus)])
    assert list(lie.broken_relations(tables, keys)) == []
    tables[0][1][5][5] = f.add(tables[0][1][5].get(5, 0), f.from_int(2))
    tables[1][2][9][11] = f.from_int(-1)
    got = list(lie.broken_relations(tables, keys))
    assert got == _broken_per_key(lie, tables, keys)
    assert {key for *_, key in got} == {1, 4, 5, 8, 9}, got


def _wedge_tables(lie):
    """The wedge(g_1) action tables of lie, each row a copy, and their keys."""
    keys = range(1 << lie.d_minus)
    return keys, ([[dict(lie.even_action_basis(a, m)) for m in keys] for a in range(lie.d_plus)],
                  [[dict(lie.odd_action(i, m)) for m in keys] for i in range(lie.d_minus)])


def _adjoint_tables(lie):
    """check_axioms' adjoint tables: the key of X_a is a, of Y_i d_plus + i."""
    basis = [(p, v) for p, v, _ in _basis_elements(lie)]

    def ad(x):
        rows = [_bracket(lie, x, y) for y in basis]
        return [{pb * lie.d_plus + t: c for t, c in enumerate(b) if c} for pb, b in rows]

    return range(len(basis)), tuple([ad(x) for x in basis if x[0] == p] for p in (0, 1))


@pytest.mark.parametrize("tables_of,lie_of", [
    (_wedge_tables, lambda: gl_lie(1, 1, QQ)),
    (_wedge_tables, lambda: gl_lie(2, 1, QQ)),
    (_wedge_tables, lambda: q2_pair(QQ).lie),
    (_wedge_tables, lambda: q2_pair(GF3).lie),
    (_wedge_tables, lambda: char2_pair(GF2).lie),
    (_adjoint_tables, lambda: gl_lie(2, 1, QQ)),
    (_adjoint_tables, lambda: q2_pair(GF3).lie),
    (_adjoint_tables, lambda: char2_pair(GF2).lie),
], ids=["wedge-gl11", "wedge-gl21", "wedge-q2-Q", "wedge-q2-F3", "wedge-char2",
        "ad-gl21", "ad-q2-F3", "ad-char2"])
def test_broken_relations_match_the_per_key_loop(tables_of, lie_of):
    """On sound tables nothing is broken; after each seeded single-entry
    corruption (an added key, a removed key, an added key on the basis key
    0 and, off F_2, a changed value) broken_relations reports what the
    per-key loop reports, in the same order.  A corruption may leave a
    module (on char2_pair's adjoint tables, dropping [Y1,X1] does), but
    some corruption of each set breaks a relation."""
    lie = lie_of()
    f = lie.field
    keys, tables = tables_of(lie)
    assert list(lie.broken_relations(tables, keys)) == []
    rng = random.Random(2026)
    cells = [(p, i, m, k) for p, ts in enumerate(tables) for i, t in enumerate(ts)
             for m in keys for k in keys]
    entries = [c for c in cells if c[3] in tables[c[0]][c[1]][c[2]]]
    holes = [c for c in cells if c not in entries]
    nonzero = sorted({f.from_int(s) for s in range(1, 5)} - {f.from_int(0)})
    edits = [("added", rng.choice(holes)), ("removed", rng.choice(entries)),
             ("added", rng.choice([c for c in holes if c[2] == 0]))]
    if len(nonzero) > 1:  # over F_2 every entry is 1: no value can change
        edits.append(("changed", rng.choice(entries)))
    broken = []
    for kind, (p, i, m, k) in edits:
        row = tables[p][i][m]
        old = dict(row)
        if kind == "removed":
            del row[k]
        else:
            row[k] = rng.choice([v for v in nonzero if v != row.get(k)])
        got = list(lie.broken_relations(tables, keys))
        assert got == _broken_per_key(lie, tables, keys), (kind, p, i, m, k)
        broken += got
        row.clear()
        row.update(old)
    assert broken


def test_broken_relations_see_a_corruption_only_the_square_breaks():
    """Over F_2 with one odd direction, [Y1,Y1] is twice the square product,
    so an extra vacuum term in Y1.Ybar_1 breaks (Y1^<2>) alone, at key 0."""
    lie = char2_pair(GF2).lie
    keys, tables = _wedge_tables(lie)
    tables[1][0][1][0] = GF2.from_int(1)
    got = list(lie.broken_relations(tables, keys))
    assert got == _broken_per_key(lie, tables, keys) == [("(Y1^<2>)", (1, 0), None, 0)]


def test_exterior_dimension():
    """wedge(g_1) of gl(2|1) has dimension 2^4: the actions stay on the keys
    below 16, and the module induced from the trivial line has dim 16."""
    lie = gl_lie(2, 1, QQ)
    assert lie.d_minus == 4
    keys = range(16)
    assert all(k < 16 for m in keys for i in range(lie.d_minus) for k in lie.odd_action(i, m))
    assert all(k < 16 for m in keys for a in range(lie.d_plus)
               for k in lie.even_action_basis(a, m))
    pair = gl_pair(2, 1, QQ)
    assert InducedModule(pair, trivial_module(pair)).dim == 16


def test_semi_faithful_extraction_random():
    """Single-index coefficients of prod(1+eta_i Y_i).b are the etas, exactly."""
    rng = random.Random(13)
    pair = gl_pair(1, 1, QQ)
    A = GrassmannAlgebra(QQ, 4)
    for _ in range(100):
        etas = [rand_odd(A, rng) for _ in range(pair.d_minus)]
        w = GroupWord(pair, A, [OddTok(i, e) for i, e in enumerate(etas)])
        v = word_action(w, {0: A.one()}, pair.lie.odd_action, trivial_action)
        assert v[0] == A.one()
        for i in range(pair.d_minus):
            assert v.get(1 << i, A.zero()) == etas[i]
        assert parity_pattern_ok(v, pair.d_minus)


def test_straighten_action_linear_extension_sign():
    """(eta (x) Y).(c (x) w) carries (-1)^{|c|}: odd coefficients flip."""
    lie = gl_lie(1, 1, QQ)
    A = GrassmannAlgebra(QQ, 2)
    x1, x2 = A.generator(1), A.generator(2)
    moved = straighten_action(QQ, lie.odd_action, 0, {0b10: x2.terms})  # Y_1 on x2 (x) Ybar_2
    # Y1.Ybar_2 = Ybar_12; sign from moving Y1 past the odd x2 is -1
    assert moved == {0b11: (-x2).terms}


def test_word_action_even_tokens_fix_vacuum():
    rng = random.Random(3)
    pair = gl_pair(1, 1, QQ)
    A = GrassmannAlgebra(QQ, 3)
    g = pair.even_group.sample(A, rng)
    w = GroupWord(pair, A, [EvenTok(g)])
    v = word_action(w, {0: A.one()}, pair.lie.odd_action, trivial_action)
    assert v == {0: A.one()}


def test_induced_keys_parity():
    """On induced keys S | t << d_minus only S counts for parity."""
    rng = random.Random(19)
    pair = gl_pair(1, 1, QQ)
    A = GrassmannAlgebra(QQ, 3)
    dm = pair.d_minus
    module = InducedModule(pair, defining_module(pair))
    word = GroupWord(pair, A, [OddTok(0, rand_odd(A, rng)), OddTok(1, rand_odd(A, rng))])
    out = module.apply_word(word, module.vacuum_with(1, A))
    assert all(key >> dm == 1 for key in out) and 1 << dm in out
    assert parity_pattern_ok(out, dm)
    assert not parity_pattern_ok({1 << dm: rand_odd(A, rng)}, dm)


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_module_vectors_store_no_zero_coefficient(field):
    """Sums and products that vanish leave no zero coefficient behind, on
    wedge(g_1) and on the induced defining module (whose even points have
    zero entries on V0)."""
    pair = gl_pair(2, 1, field)
    A = GrassmannAlgebra(field, 2)
    x1, x2 = A.generator(1), A.generator(2)
    g = pair.even_group.sample(A, random.Random(7))
    module = InducedModule(pair, defining_module(pair))
    words = [
        [OddTok(0, x1), OddTok(0, x1)],  # x1 x1 = 0; in char 2 also x1 + x1 = 0
        [OddTok(0, x1), OddTok(0, -x1)],  # the identity
        [OddTok(0, x1), OddTok(1, x1)],
        [OddTok(1, x1), EvenTok(g), OddTok(0, x1), OddTok(1, x2)],
        [EvenTok(pair.identity_matrix(A))],
    ]
    for toks in words:
        w = GroupWord(pair, A, toks)
        vecs = [word_action(w, {0: A.one()}, pair.lie.odd_action, trivial_action)]
        vecs += [module.apply_word(w, module.vacuum_with(t, A)) for t in range(module.v0.dim)]
        for v in vecs:
            assert not any(c.is_zero() for c in v.values()), toks
    cancel = GroupWord(pair, A, words[1])
    assert word_action(cancel, {0: A.one()}, pair.lie.odd_action, trivial_action) == {0: A.one()}
