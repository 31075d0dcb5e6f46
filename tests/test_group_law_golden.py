"""Golden results of the group law and the induced-module action.

For seeded triples (a, b, c) of normal forms -- 12 on gl(2|1) over
Lambda_4(F_3) and 6 on q(2) over Lambda_4(Q) -- the file
``fixtures/golden/group_law.json`` holds gp_mul(a, b), gp_mul(ab, c) and
gp_inv(a) (``serialize.dump_normal_form``), and ab acting on every vacuum
1 (x) e_t of the defining module's induced module (key -> ``to_str()``).
The test rebuilds them and compares the JSON text byte for byte.

Regenerate the file (only when the expected results really change) with

    PYTHONPATH=src python -m tests.test_group_law_golden
"""

import json
import random
from pathlib import Path

from superpoints import GF3, QQ, GrassmannAlgebra, gl_pair, normal_form, q2_pair
from superpoints.gp import InducedModule, defining_module, gp_inv, gp_mul
from superpoints.serialize import dump_normal_form
from superpoints.verify import random_word

GOLDEN = Path(__file__).resolve().parent.parent / "fixtures" / "golden" / "group_law.json"

# (name, pair builder, field, number of triples)
CASES = [("gl(2|1) over Lambda_4(F3)", lambda: gl_pair(2, 1, GF3), GF3, 12),
         ("q(2) over Lambda_4(Q)", lambda: q2_pair(QQ), QQ, 6)]


def _vector(v):
    return {str(key): c.to_str() for key, c in sorted(v.items())}


def group_law_results():
    out = {}
    for name, build, field, count in CASES:
        pair, algebra = build(), GrassmannAlgebra(field, 4)
        module = InducedModule(pair, defining_module(pair))
        rng = random.Random(0)
        rows = []
        for _ in range(count):
            a, b, c = (normal_form(random_word(pair, algebra, rng, max_len=5))
                       for _ in range(3))
            ab = gp_mul(a, b)
            rows.append({
                "ab": dump_normal_form(ab),
                "ab_c": dump_normal_form(gp_mul(ab, c)),
                "inv_a": dump_normal_form(gp_inv(a)),
                "ab_on_vacuum": [
                    _vector(module.apply_normal_form(ab, module.vacuum_with(t, algebra)))
                    for t in range(module.v0.dim)],
            })
        out[name] = rows
    return out


def render():
    return json.dumps(group_law_results(), indent=2, sort_keys=True) + "\n"


def test_group_law_matches_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
