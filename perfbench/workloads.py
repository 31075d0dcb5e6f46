"""Program set-up and the three workloads, called through superpoints' public API.

Each workload has three parts:

* ``build()`` -- the workload's part of the set-up (pairs, modules), which
  ``setup`` runs after the shared part;
* ``inputs(state, rng, n)`` -- ``n`` op inputs drawn from the workload seed
  before timing starts;
* ``op(state, item, routes)`` -- one closed-loop operation.  It raises
  ``CheckFailed`` when an exact check fails; any other exception raised by
  the program counts as a failed op too.

Why each workload exists, and which layers it is predicted to move, is in
README.md beside this file.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")

# Imported after run.py has put the checkout's src/ on sys.path.
import superpoints  # noqa: E402
from superpoints import (  # noqa: E402
    GF3,
    QQ,
    EvenTok,
    GrassmannAlgebra,
    GroupWord,
    InducedModule,
    NormalForm,
    OddTok,
    cli,
    defining_module,
    gl_lie,
    gp_inv,
    gp_mul,
    serialize,
    validate_pair,
    verify,
)
from superpoints.sampling import rand_odd  # noqa: E402


class CheckFailed(Exception):
    """An exact check of the benchmark failed on the program's output."""


def _check(ok, what):
    if not ok:
        raise CheckFailed(what)


def _fixture_text(name):
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
        return fh.read()


def random_word(pair, algebra, rng, length):
    """A word of exactly `length` tokens, each drawn as verify.random_word
    draws it: even with probability 0.3, else an odd token."""
    toks = []
    for _ in range(length):
        if rng.random() < 0.3:
            toks.append(EvenTok(pair.even_group.sample(algebra, rng)))
        else:
            toks.append(OddTok(rng.randrange(pair.d_minus), rand_odd(algebra, rng)))
    return GroupWord(pair, algebra, toks)


def setup(workload):
    """Everything a run does before its first op.

    Loads the committed fixtures through serialize, validates the fixture
    pair, runs the golden check, then builds the workload's state.  The
    golden check runs the ``normal-form --oracle both`` CLI in-process and
    byte-compares its stdout with the committed golden file; ``--golden`` is
    not used, because the CLI creates a missing golden file and passes.
    Returns ``(seconds spent loading fixtures through serialize, state)``
    and raises ``CheckFailed`` if a check fails.
    """
    t0 = time.perf_counter()
    pair = serialize.load_pair(serialize.loads(_fixture_text("gl11_pair.json"), "gl11_pair.json"))
    algebra = serialize.load_coeff(serialize.loads(_fixture_text("coeff_l2.json"), "coeff_l2.json"))
    serialize.load_word(serialize.loads(_fixture_text("swap_word.json"), "swap_word.json"),
                        pair, algebra)
    load_s = time.perf_counter() - t0
    rep = validate_pair(pair)
    _check(rep.ok, "fixture pair fails validate_pair: " + rep.summary())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([
            "normal-form",
            "--pair", os.path.join(FIXTURES, "gl11_pair.json"),
            "--coeff", os.path.join(FIXTURES, "coeff_l2.json"),
            "--word", os.path.join(FIXTURES, "swap_word.json"),
            "--oracle", "both",
        ])
    _check(code == 0, f"normal-form exited {code}")
    with open(os.path.join(FIXTURES, "golden", "swap_word_nf.json"), "rb") as fh:
        want = fh.read()
    _check(out.getvalue().encode("utf-8") == want,
           "normal-form output differs from fixtures/golden/swap_word_nf.json")
    return load_s, workload.build()


# ---------------------------------------------------------------------------
# triangle-q: the oracle triangle (acceptance criterion 3)


class TriangleQ:
    """One op sends a random word over Lambda_4(Q) through all three
    normal-form routes and checks that they agree exactly, that the normal
    form re-evaluates to the word, and that rewriting stays within the
    N+1 pass bound (criterion 8).

    Tokens are drawn as ``verify.random_word`` draws them (30% even), but the
    lengths 1..12 and the two pairs are stratified: every block of 24 words
    holds each (pair, length) once, in a random order.  A word's cost grows
    about tenfold from length 1 to 12, so drawing lengths independently
    would let the seed alone move the mean cost of a run by several percent.
    """

    name = "triangle-q"
    pool = 1200
    trace_ops = 72
    max_len = 12

    def build(self):
        return {
            "pairs": [verify.cached_gl_pair(1, 1, QQ), verify.cached_gl_pair(2, 1, QQ)],
            "algebra": GrassmannAlgebra(QQ, 4),
        }

    def inputs(self, state, rng, n):
        pairs, algebra = state["pairs"], state["algebra"]
        strata = [(pair, length) for pair in pairs for length in range(1, self.max_len + 1)]
        words = []
        while len(words) < n:
            block = list(strata)
            rng.shuffle(block)
            words += [random_word(pair, algebra, rng, length) for pair, length in block]
        return words[:n]

    def op(self, state, word, routes):
        """``routes`` receives the seconds spent in each route and the
        rewriting statistics of this word."""
        t0 = time.perf_counter()
        a = superpoints.normal_form(word)
        t1 = time.perf_counter()
        stats = {}
        b = superpoints.reorder_symbolic(word, stats=stats)
        t2 = time.perf_counter()
        c = superpoints.strip_matrix_factorization(word.pair, word.rho_matrix())
        t3 = time.perf_counter()
        routes["module"] = t1 - t0
        routes["rewrite"] = t2 - t1
        routes["strip"] = t3 - t2
        routes["passes"] = stats["passes"]
        routes["rewrites"] = stats["rewrites"]
        _check(a == b, "module route != rewriting route")
        _check(a == c, "module route != matrix stripping")
        _check(a.rho_matrix() == word.rho_matrix(),
               "normal form does not re-evaluate to the word")
        bound = state["algebra"].nilpotency_bound + 1
        _check(stats["passes"] <= bound,
               f"rewriting used {stats['passes']} passes, bound {bound}")


# ---------------------------------------------------------------------------
# group-f3: group law on normal forms (acceptance criteria 4 and 9)


class GroupF3:
    """One op takes a sampled triple of normal forms over Lambda_4(F_3) on
    gl(2|1) and checks associativity, the inverse law, and that the induced
    (defining) module is a representation: acting by ab is acting by b then
    by a.

    The pool holds 60 normal forms of words of each length 1..5, and every
    block of 300 triples uses each of them once in each position, so that
    the seed moves which elements are visited more than how much work a run
    does."""

    name = "group-f3"
    pool = 1000
    trace_ops = 30
    nf_pool = 300
    max_len = 5

    def build(self):
        pair = verify.cached_gl_pair(2, 1, GF3)
        algebra = GrassmannAlgebra(GF3, 4)
        return {
            "pair": pair,
            "algebra": algebra,
            "module": InducedModule(pair, defining_module(pair)),
            "identity": NormalForm.identity(pair, algebra),
        }

    def inputs(self, state, rng, n):
        pair, algebra = state["pair"], state["algebra"]
        nfs = [superpoints.normal_form(random_word(pair, algebra, rng, 1 + t % self.max_len))
               for t in range(self.nf_pool)]
        triples = []
        while len(triples) < n:
            triples += zip(*(rng.sample(nfs, len(nfs)) for _ in range(3)))
        return triples[:n]

    def op(self, state, triple, routes):
        a, b, c = triple
        ab = gp_mul(a, b)
        _check(gp_mul(ab, c) == gp_mul(a, gp_mul(b, c)), "associativity fails")
        _check(gp_mul(a, gp_inv(a)) == state["identity"], "a . a^-1 is not the identity")
        module, algebra = state["module"], state["algebra"]
        for t in range(module.v0.dim):
            vac = module.vacuum_with(t, algebra)
            _check(module.apply_normal_form(ab, vac)
                   == module.apply_normal_form(a, module.apply_normal_form(b, vac)),
                   f"induced module: ab and a(b .) differ on vacuum {t}")


# ---------------------------------------------------------------------------
# pbw-cold: cold straightening tables


class PbwCold:
    """One op builds a fresh gl(2|1) Lie superalgebra over Q and checks the
    exterior-module axioms on every basis pair, so every straightening table
    is built, not read.  The input is the same for every seed."""

    name = "pbw-cold"
    pool = 1
    trace_ops = 60

    def build(self):
        return {}

    def inputs(self, state, rng, n):
        return [(2, 1)] * n

    def op(self, state, shape, routes):
        rep = verify.check_module_axioms(gl_lie(shape[0], shape[1], QQ))
        _check(rep.ok, "module axioms: " + rep.summary())


WORKLOADS = {w.name: w for w in (TriangleQ(), GroupF3(), PbwCold())}
