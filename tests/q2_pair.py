"""The queer pair (diag(g, g), q(2)) inside gl(2|2), built in test code.

q(2) (Kac, "Lie superalgebras", 1977) has evens E_ij + E_{2+i,2+j} and odds
E_{i,2+j} + E_{2+i,j}; its even group is diag(g, g) with g in GL_2(A_0).
Unlike gl(p|q), G+ does not preserve a splitting of g_1 into abelian
halves, so the product (Ad g Y_a)(Ad g Y_b)(Ad g Y_c) in U(g) leaves
[Y_j,Y_k] and Y_j^<2> terms in g_0 that act on what stands to their right.
"""

from superpoints import HarishChandraPair, SuperMatrix, from_matrices
from superpoints.smat import GroupDescriptor, gl_block_diag, is_invertible


def _unit_sum(field, cells):
    rows = [[field.from_int(0)] * 4 for _ in range(4)]
    for r, c in cells:
        rows[r][c] = field.from_int(1)
    return rows


def _member(m):
    return (m.diagonal_blocks_only() and is_invertible(m)
            and all(m.rows[i][j] == m.rows[2 + i][2 + j] for i in range(2) for j in range(2)))


def _sample(desc, algebra, rng):
    rows = gl_block_diag(2, 2).sample(algebra, rng).mutable()
    for i in range(2):
        for j in range(2):
            rows[2 + i][2 + j] = rows[i][j]
    return SuperMatrix(desc.shape, algebra, rows)


def q2_pair(field) -> HarishChandraPair:
    idx = [(i, j) for i in range(2) for j in range(2)]
    evens = [_unit_sum(field, [(i, j), (2 + i, 2 + j)]) for i, j in idx]
    odds = [_unit_sum(field, [(i, 2 + j), (2 + i, j)]) for i, j in idx]
    group = GroupDescriptor("diag(g,g) in GL2xGL2", (2, 2), _member, _sample, tangent_dim=4)
    return HarishChandraPair(group, from_matrices(2, 2, evens, odds, field))
