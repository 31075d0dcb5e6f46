"""Acceptance criteria, one test per criterion, exact (zero tolerance).

Each test prints a single PASS/FAIL line (run pytest with -s to stream
them).  Sample counts and coefficient ranks are the contract sizes; every
assertion is an exact identity, so there are no tolerances to tune.
"""

import random
import time

from superpoints import (
    GF2,
    GF3,
    QQ,
    GrassmannAlgebra,
    InducedModule,
    SuperNumbers,
    char2_pair,
    defining_module,
    normal_form,
    reorder_symbolic,
    roundtrip_phi_psi,
    roundtrip_psi_phi,
)
from superpoints.verify import (
    basis_independence,
    cached_gl_pair,
    oracle_triangle,
    random_word,
    suite_gl_split,
    suite_pbw,
    suite_semidirect,
    suite_tang_group,
    uniqueness_suite,
)

SEED = 2026


def report(name, ok, t0, extra=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {name}: {status} ({time.time() - t0:.1f}s)"
    if extra:
        line += f" {extra}"
    print(line)
    return ok


def test_criterion_1_tang_group_suite():
    t0 = time.time()
    rep = suite_tang_group(seed=SEED)
    assert report("1 tang-group identities (a)-(g)", rep.ok, t0), rep.summary()


def test_criterion_2_gl_splitting():
    t0 = time.time()
    rep = suite_gl_split(seed=SEED)
    assert report("2 GL(2|2) global splitting x300", rep.ok, t0), rep.summary()


def test_criterion_3_oracle_triangle():
    t0 = time.time()
    st = {}
    rep = oracle_triangle(seed=SEED, stats=st)
    ok = rep.ok and st["max_passes"] <= st["bound"]
    assert report("3 oracle triangle x500 (Lambda_4)", ok, t0,
                  f"max passes {st['max_passes']}/{st['bound']}"), rep.summary()
    test_criterion_3_oracle_triangle.stats = st


def test_criterion_4_uniqueness_group_axioms():
    t0 = time.time()
    rep = uniqueness_suite(seed=SEED)
    assert report("4 uniqueness and group axioms x200", rep.ok, t0), rep.summary()


def test_criterion_5_roundtrips():
    t0 = time.time()
    pair = cached_gl_pair(1, 1, QQ)
    A = GrassmannAlgebra(QQ, 3)
    rep1 = roundtrip_phi_psi(pair, A, samples=64, seed=SEED)
    rep2 = roundtrip_psi_phi(pair, A, samples=200, seed=SEED + 1)
    ok = rep1.ok and rep2.ok
    assert report("5 round-trips (constants exact; 200 GL(1|1) points)",
                  ok, t0), rep1.summary() + rep2.summary()


def test_criterion_6_pbw_induced():
    t0 = time.time()
    rep = suite_pbw(seed=SEED)
    pair = cached_gl_pair(1, 1, QQ)
    module = InducedModule(pair, defining_module(pair))
    ok = rep.ok and module.dim == 2 ** pair.d_minus * 2
    assert report("6 PBW carrier, module axioms, eta extraction x100",
                  ok, t0), rep.summary()


def test_criterion_7_semidirect_splittings():
    t0 = time.time()
    rep = suite_semidirect(seed=SEED)
    assert report("7 semidirect splittings over k[eta] and Lambda_3",
                  rep.ok, t0), rep.summary()


def test_criterion_8_termination_bound():
    """The rewriting engine stays within N+1 passes on every fixture; the
    guard never trips (a trip raises NonTermination and fails the run)."""
    t0 = time.time()
    worst = 0
    for field, rank in ((QQ, 3), (QQ, 4), (GF2, 4), (GF3, 4)):
        A = GrassmannAlgebra(field, rank)
        pair = cached_gl_pair(1, 1, field)
        rng = random.Random(SEED + rank)
        for _ in range(40):
            w = random_word(pair, A, rng, 12)
            st = {}
            reorder_symbolic(w, stats=st)
            assert st["passes"] <= A.nilpotency_bound + 1
            worst = max(worst, st["passes"])
    # super-numbers: nilpotency bound 1, guard 2
    SN = SuperNumbers(QQ)
    pair = cached_gl_pair(1, 1, QQ)
    rng = random.Random(SEED)
    for _ in range(20):
        w = random_word(pair, SN, rng, 8)
        st = {}
        reorder_symbolic(w, stats=st)
        assert st["passes"] <= SN.nilpotency_bound + 1
        worst = max(worst, st["passes"])
    assert report("8 termination bound (N+1 passes, guard silent)", True, t0,
                  f"worst passes {worst}")


def test_criterion_9_characteristic_free():
    t0 = time.time()
    failures = []
    for field in (GF2, GF3):
        rep = suite_tang_group(seed=SEED, fields=(field,))
        failures += [f"{field}/tang: {m}" for m in rep.failures]
        st = {}
        rep = oracle_triangle(seed=SEED, field=field, stats=st)
        failures += [f"{field}/triangle: {m}" for m in rep.failures]
        if st["max_passes"] > st["bound"]:
            failures.append(f"{field}: pass bound exceeded")
        rep = uniqueness_suite(seed=SEED, field=field)
        failures += [f"{field}/uniqueness: {m}" for m in rep.failures]
        rep = suite_pbw(seed=SEED, fields=(field,))
        failures += [f"{field}/pbw: {m}" for m in rep.failures]
    # the nonzero 2-operation fixture (Y = E12+E21 over F2), both routes
    pair = char2_pair(GF2)
    A = GrassmannAlgebra(GF2, 4)
    rng = random.Random(SEED)
    for t in range(100):
        w = random_word(pair, A, rng, 10)
        if normal_form(w) != reorder_symbolic(w):
            failures.append(f"char2 fixture: routes disagree on word {t}")
    ok = not failures
    assert report("9 characteristic-free (F2, F3, nonzero 2-op)", ok, t0), failures[:10]


def test_criterion_10_basis_independence():
    t0 = time.time()
    rep = basis_independence(seed=SEED)
    assert report("10 basis independence ({Y1+-Y2}, reversal; Q and F3)",
                  rep.ok, t0), rep.summary()
