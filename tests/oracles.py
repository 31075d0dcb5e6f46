"""Independent brute-force oracles used to freeze expected values.

These deliberately share no code with the production kernels: the
straightening oracle rewrites words in the free algebra symbol by symbol,
the sign oracle counts transpositions on explicit index lists, the
subalgebra oracle enumerates spanning monomials, the regular
representation turns supermatrices into plain k-matrices (and solves
g Y_i g^-1 for the rows of Ad(g) there, inverting nothing), the
structure-constant oracle brackets every ordered pair of raw k-matrices by
dense products and a dense solve, and the axiom oracle runs graded Jacobi
and [z^<2>,x] = [z,[z,x]] as explicit loops over basis triples and probes.
The membership oracle is the one exception: it is ``GroupDescriptor.member``
as first written, with the whole body reduced at once, the reference for
the test that reduces it by blocks.
"""

from __future__ import annotations

import itertools

from superpoints.smat import is_invertible


# -- exterior product sign, by explicit sorted-merge ---------------------------


def merge_sign_oracle(idx_a, idx_b):
    """Sign of x_{a1}..x_{am} . x_{b1}..x_{bn} -> sorted, or 0 if they clash."""
    if set(idx_a) & set(idx_b):
        return 0
    seq = list(idx_a) + list(idx_b)
    sign = 1
    # bubble sort counting swaps
    for i in range(len(seq)):
        for j in range(len(seq) - 1):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


# -- membership in A_1^(n) by enumerating spanning monomials --------------------


def a1n_masks_oracle(rank, n):
    """All monomial bitmask members of A_1^(n) in Lambda_rank, enumerated:
    span products of n odd monomials, scale by even monomials, close under
    products."""
    odd_masks = [m for m in range(1, 1 << rank) if bin(m).count("1") % 2 == 1]
    even_masks = [m for m in range(1 << rank) if bin(m).count("1") % 2 == 0]

    def prod(ms):
        out = 0
        for m in ms:
            if out & m:
                return None
            out |= m
        return out

    base = set()
    for combo in itertools.product(odd_masks, repeat=n):
        p = prod(combo)
        if p is not None:
            base.add(p)
    # A_0-span
    spanned = set()
    for e in even_masks:
        for b in base:
            if not (e & b):
                spanned.add(e | b)
    # close under products, add the unit
    members = {0} | spanned
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                if not (a & b) and (a | b) not in members:
                    members.add(a | b)
                    changed = True
    return members


# -- brute-force straightening in U(g) -----------------------------------------
#
# Words are tuples of symbols ('o', i) / ('e', a) acting on the vacuum (or on
# e_t of an inducing module V0).  Rewrite rules are applied to explicit
# linear combinations until every word is an ascending odd monomial.


def straighten_oracle(lie, word, v0=None, t=0):
    """Straighten a word of basis symbols applied to the vacuum.

    Returns {mask: coefficient} over the PBW basis of the exterior module.
    Rules: kill trailing evens; push evens right by [X,Y] commutation;
    swap descending odd pairs via the odd-odd bracket; collapse repeats
    via the 2-operation.

    With v0, a list of raw k-matrices (v0[a] is X_a on V0, acting on
    columns), the word acts on e_t instead of the vacuum: a trailing X_a
    maps e_t to sum_r v0[a][r][t] e_r rather than to zero, and the result
    is keyed by (mask, t).
    """
    f = lie.field

    def _wadd(acc, word_, coeff):
        prev = acc.get(word_, f.from_int(0))
        v = f.add(prev, coeff)
        if v == f.from_int(0):
            acc.pop(word_, None)
        else:
            acc[word_] = v

    state = {(tuple(word), t): f.from_int(1)}
    done = {}
    budget = 200_000
    while state:
        budget -= 1
        if budget < 0:
            raise RuntimeError("oracle rewrite budget exhausted")
        (w, tw), c = next(iter(state.items()))
        del state[(w, tw)]
        # find rightmost even symbol
        epos = max((p for p, s in enumerate(w) if s[0] == "e"), default=None)
        if epos is not None:
            a = w[epos][1]
            if epos == len(w) - 1:
                # X . vacuum = 0; X . e_t = sum_r v0[a][r][t] e_r
                if v0 is not None:
                    for r, row in enumerate(v0[a]):
                        if row[tw] != f.from_int(0):
                            _wadd(state, (w[:-1], r), f.mul(c, row[tw]))
                continue
            nxt = w[epos + 1]
            rest = w[:epos], w[epos + 2:]
            if nxt[0] == "o":
                i = nxt[1]
                # X_a Y_i = Y_i X_a + [X_a, Y_i]
                _wadd(state, (rest[0] + (("o", i), ("e", a)) + rest[1], tw), c)
                for m, cm in enumerate(lie.eo[a][i]):
                    if cm != f.from_int(0):
                        _wadd(state, (rest[0] + (("o", m),) + rest[1], tw), f.mul(c, cm))
            else:
                b = nxt[1]
                # X_a X_b = X_b X_a + [X_a, X_b]
                _wadd(state, (rest[0] + (("e", b), ("e", a)) + rest[1], tw), c)
                for m, cm in enumerate(lie.ee[a][b]):
                    if cm != f.from_int(0):
                        _wadd(state, (rest[0] + (("e", m),) + rest[1], tw), f.mul(c, cm))
            continue
        # pure odd word: find first descent or repeat
        pos = next((p for p in range(len(w) - 1) if w[p][1] >= w[p + 1][1]), None)
        if pos is None:
            mask = 0
            for s in w:
                mask |= 1 << s[1]
            _wadd(done, mask if v0 is None else (mask, tw), c)
            continue
        i, j = w[pos][1], w[pos + 1][1]
        pre, post = w[:pos], w[pos + 2:]
        if i == j:
            # Y_i Y_i = Y_i^<2>
            for m, cm in enumerate(lie.q2[i]):
                if cm != f.from_int(0):
                    _wadd(state, (pre + (("e", m),) + post, tw), f.mul(c, cm))
        else:
            # Y_i Y_j = -Y_j Y_i + [Y_i, Y_j]
            _wadd(state, (pre + (("o", j), ("o", i)) + post, tw), f.neg(c))
            for m, cm in enumerate(lie.oo[i][j]):
                if cm != f.from_int(0):
                    _wadd(state, (pre + (("e", m),) + post, tw), f.mul(c, cm))
    return done


def odd_monomial_action_oracle(lie, gen_index, mask, v0=None, t=0):
    """Y_gen acting on the PBW basis vector Ybar_mask (x) e_t (e_t only
    with v0), via the word oracle."""
    word = [("o", gen_index)]
    for i in range(lie.d_minus):
        if mask >> i & 1:
            word.append(("o", i))
    return straighten_oracle(lie, word, v0, t)


def even_monomial_action_oracle(lie, basis_index, mask):
    word = [("e", basis_index)]
    for i in range(lie.d_minus):
        if mask >> i & 1:
            word.append(("o", i))
    return straighten_oracle(lie, word)


# -- supermatrices as k-matrices on A (x) k^{p|q} -------------------------------
#
# The action (a (x) E)(b (x) v) = (-1)^{|E||b|} ab (x) Ev of A (x) End(k^{p|q})
# on the free module A (x) k^{p|q} is an algebra map, so under it the twisted
# supermatrix product becomes the plain matrix product, and it is faithful.


def supermatrix_rep_oracle(field, rank, p, entries):
    """The 2^rank (p+q) square k-matrix of a supermatrix over Lambda_rank.

    entries[i][j] is the (i, j) entry as a plain {mask: value} dict of raw
    field values.  Basis vector x^b (x) e_j has index b * (p+q) + j.
    """
    n = len(entries)
    size = (1 << rank) * n
    zero = field.from_int(0)
    out = [[zero] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            pos_parity = (i >= p) + (j >= p)
            for a, c in entries[i][j].items():
                idx_a = [t for t in range(rank) if a >> t & 1]
                for b in range(1 << rank):
                    idx_b = [t for t in range(rank) if b >> t & 1]
                    sign = merge_sign_oracle(idx_a, idx_b)
                    if sign == 0:
                        continue
                    if pos_parity * len(idx_b) % 2:
                        sign = -sign
                    r, col = (a | b) * n + i, b * n + j
                    v = c if sign > 0 else field.neg(c)
                    out[r][col] = field.add(out[r][col], v)
    return out


def k_matmul_oracle(field, x, y):
    """Plain product of two square matrices of raw field values (zero
    entries of either factor are skipped)."""
    zero = field.from_int(0)
    out = []
    for row in x:
        acc = [zero] * len(y[0])
        for t, c in enumerate(row):
            if c != zero:
                for k, w in enumerate(y[t]):
                    if w != zero:
                        acc[k] = field.add(acc[k], field.mul(c, w))
        out.append(acc)
    return out


def _gauss_coords_oracle(field, columns, vec):
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


def structure_constants_oracle(field, evens, odds):
    """(ee, eo, oo, q2) of the span of the raw k-matrices evens and odds:
    every ordered pair bracketed on its own, ab + sign.ba from two dense
    products (k_matmul_oracle), with no use of graded antisymmetry, and
    solved by _gauss_coords_oracle."""
    spans = [[[v for row in m for v in row] for m in mats] for mats in (evens, odds)]

    def solve(parity, a, b, sign=None):
        """coordinates of ab + sign.ba (of ab when sign is None)."""
        flat = [v for row in k_matmul_oracle(field, a, b) for v in row]
        if sign is not None:
            ba = [v for row in k_matmul_oracle(field, b, a) for v in row]
            flat = [field.add(x, field.mul(field.from_int(sign), y)) for x, y in zip(flat, ba)]
        return _gauss_coords_oracle(field, spans[parity], flat)

    return (tuple(tuple(solve(0, x, y, -1) for y in evens) for x in evens),
            tuple(tuple(solve(1, x, y, -1) for y in odds) for x in evens),
            tuple(tuple(solve(0, x, y, 1) for y in odds) for x in odds),
            tuple(solve(0, y, y) for y in odds))


def ad_rows_oracle(field, rank, shape, odd_mats, g):
    """Ad(g) by rows in the regular representation: row i holds, for each
    j, the coefficient of Y_j in g Y_i g^-1 = sum_j c_ij Y_j as a
    {mask: value} dict.  g is a grid of {mask: value} dicts over
    Lambda_rank and odd_mats are the raw k-matrices of the Y_j.  Nothing is
    inverted: c_i solves rep(g) rep(Y_i) = sum_{j,m} c_ij[m] rep(x^m Y_j)
    rep(g) by _gauss_coords_oracle, with a column for every mask m, odd
    ones included."""
    p = shape[0]
    rep_g = supermatrix_rep_oracle(field, rank, p, g)

    def rep(mat, mask=0):
        """rep of the supermatrix x^mask . mat for a raw k-matrix mat."""
        return supermatrix_rep_oracle(field, rank, p,
                                      [[{mask: v} if v else {} for v in row] for row in mat])

    def flat(m):
        return [v for row in m for v in row]

    index = [(j, m) for j in range(len(odd_mats)) for m in range(1 << rank)]
    columns = [flat(k_matmul_oracle(field, rep(odd_mats[j], m), rep_g)) for j, m in index]
    rows = []
    for y in odd_mats:
        coords = _gauss_coords_oracle(field, columns, flat(k_matmul_oracle(field, rep_g, rep(y))))
        row = [{} for _ in odd_mats]
        for (j, m), c in zip(index, coords):
            if c:
                row[j][m] = c
        rows.append(row)
    return rows


# -- axioms (c) and (f) by explicit loops ----------------------------------------
#
# Elements are (parity, coordinate list) pairs; brackets are read straight
# off the structure-constant tables of a LieSuperalgebraData.


def _bracket_oracle(lie, x, y):
    """[x, y] of homogeneous elements, with [Y, X] = -[X, Y]."""
    f = lie.field
    (px, vx), (py, vy) = x, y
    if px > py:
        p, v = _bracket_oracle(lie, y, x)
        return p, [f.neg(c) for c in v]
    table, n = {(0, 0): (lie.ee, lie.d_plus), (0, 1): (lie.eo, lie.d_minus),
                (1, 1): (lie.oo, lie.d_plus)}[px, py]
    out = [f.from_int(0)] * n
    for a, ca in enumerate(vx):
        for b, cb in enumerate(vy):
            if not (ca and cb):
                continue
            for k, t in enumerate(table[a][b]):
                out[k] = f.add(out[k], f.mul(f.mul(ca, cb), t))
    return (px + py) % 2, out


def _square_oracle(lie, w):
    """(sum w_i Y_i)^<2> = sum w_i^2 Y_i^<2> + sum_{i<j} w_i w_j [Y_i,Y_j]."""
    f = lie.field
    out = [f.from_int(0)] * lie.d_plus
    for i, wi in enumerate(w):
        terms = [(f.mul(wi, wi), lie.q2[i])]
        terms += [(f.mul(wi, w[j]), lie.oo[i][j]) for j in range(i + 1, len(w))]
        for c, v in terms:
            out = [f.add(u, f.mul(c, t)) for u, t in zip(out, v)]
    return out


def jacobi_and_square_oracle(lie):
    """(Jacobi fails, (f) fails): graded Jacobi
    (-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]] = 0
    on every basis triple, and [z^<2>,x] = [z,[z,x]] on every basis x for
    odd z among the basis and the pairwise sums Y_i + Y_j."""
    f = lie.field
    zero, one, minus = f.from_int(0), f.from_int(1), f.from_int(-1)

    def unit(n, k):
        return [one if t == k else zero for t in range(n)]

    basis = ([(0, unit(lie.d_plus, a)) for a in range(lie.d_plus)]
             + [(1, unit(lie.d_minus, i)) for i in range(lie.d_minus)])

    def br(x, y):
        return _bracket_oracle(lie, x, y)

    def sign(pa, pb):
        return minus if pa * pb else one

    def jacobi_fails():
        for x in basis:
            for y in basis:
                for z in basis:
                    terms = [(sign(x[0], z[0]), br(x, br(y, z))[1]),
                             (sign(y[0], x[0]), br(y, br(z, x))[1]),
                             (sign(z[0], y[0]), br(z, br(x, y))[1])]
                    if any(f.add(f.add(f.mul(terms[0][0], u), f.mul(terms[1][0], v)),
                                 f.mul(terms[2][0], w))
                           for u, v, w in zip(terms[0][1], terms[1][1], terms[2][1])):
                        return True
        return False

    def square_fails():
        odds = [v for p, v in basis if p]
        probes = odds + [[f.add(a, b) for a, b in zip(odds[i], odds[j])]
                         for i in range(len(odds)) for j in range(i + 1, len(odds))]
        for z in probes:
            z2 = (0, _square_oracle(lie, z))
            for x in basis:
                lhs, rhs = br(z2, x)[1], br((1, z), br((1, z), x))[1]
                if lhs != rhs:
                    return True
        return False

    return jacobi_fails(), square_fails()


# -- group membership, every check over the whole matrix ---------------------------


def member_oracle(group, m):
    """Whether m is a point of the group descriptor, by its first
    definition: the shape, the even entry-parity pattern on every cell
    (``is_even_homogeneous``), the zero cells, the tied cells, then
    ``is_invertible`` on the whole body."""
    if m.shape != group.shape or not m.is_even_homogeneous():
        return False
    grid = m.grid
    return (all(not grid[i][j] for i, j in group._zeros)
            and all(grid[i][j] == grid[a][b] for (i, j), (a, b) in group._ties)
            and is_invertible(m))
