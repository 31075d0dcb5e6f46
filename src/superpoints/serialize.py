"""JSON fixture schemas and exact (de)serialization.

Every fixture carries ``"schema": 1`` and is validated strictly: unknown
keys are rejected, so a typo fails loudly instead of silently defaulting.
All scalars and coefficient-algebra elements travel as the textual exact
format of the coeff module (golden files are byte-stable because element
serialization is canonically ordered).  A coefficient algebra is
``{"type": "grassmann", "field", "rank"}`` or ``{"type": "super_numbers",
"field"}``; the dual numbers over Lambda_r are the grassmann algebra of
rank r + 2, so they need no type of their own.

Every block shape a fixture names, a lie ``shape`` or an even group's p and
q, must have p + q <= MAX_BLOCK_SIZE, checked before any matrix is read or
any group is built.  8 is the largest p + q at which a gl(p|q) or sl(p|q)
with p, q >= 1 keeps d_minus = 2pq within gp.MAX_LAW_D_MINUS = 15, the cap
of the compiled group law (gl(1|7)); past 8, 2pq >= 2(p + q - 1) >= 16.  The
largest pair the tests use is gl(4|2) (p + q = 6), the fixtures use gl(1|1)
and gl(2|1), and the planned catalogue stays within 8: osp(1|2) has
p + q = 3, q(n) and p(n) have p + q = 2n with d_minus = n^2 (law up to
n = 3), and sl(m|n) is bounded as gl(m|n) is.
"""

from __future__ import annotations

import json

from .coeff import GrassmannAlgebra, SuperNumbers, field_by_name, parse_element
from .errors import SchemaError, StructuralError
from .liesuper import LieSuperalgebraData, from_matrices
from .shcp import HarishChandraPair
from .smat import BUILTIN_GROUPS, SuperMatrix
from .gp import EvenTok, GroupWord, NormalForm, OddTok

SCHEMA_VERSION = 1
MAX_BLOCK_SIZE = 8


def _require_keys(obj, required, optional=(), where="fixture"):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}")


def _check_schema(obj, where):
    if obj.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"{where}: schema version must be {SCHEMA_VERSION}")


def _list(v, where):
    if not isinstance(v, list):
        raise SchemaError(f"{where}: expected a list")
    return v


def _is_int(v):
    """An int that is not a bool: JSON true and false load as bool, an int subclass."""
    return isinstance(v, int) and not isinstance(v, bool)


def _block_size(p, q, where):
    if p + q > MAX_BLOCK_SIZE:
        raise SchemaError(f"{where}: p + q = {p + q} exceeds {MAX_BLOCK_SIZE}")


def _shape(v, where):
    if not isinstance(v, list) or len(v) != 2 or not all(_is_int(c) and c >= 0 for c in v):
        raise SchemaError(f"{where}: shape must be [p, q]")
    _block_size(*v, where)
    return tuple(v)


# -- fields and coefficient algebras -----------------------------------------


def load_field(tag, where="field"):
    if not isinstance(tag, str):
        raise SchemaError(f"{where}: field tag must be a string")
    try:
        return field_by_name(tag)
    except StructuralError as e:
        raise SchemaError(f"{where}: {e}") from None


def load_coeff(obj, where="coeff") -> GrassmannAlgebra:
    # any other key passes here; the check of the type names the unknown ones
    _require_keys(obj, ["type"], obj if isinstance(obj, dict) else (), where)
    t = obj["type"]
    if t == "grassmann":
        _require_keys(obj, ["type", "field", "rank"], (), where)
        if not _is_int(obj["rank"]):
            raise SchemaError(f"{where}: rank must be an integer")
        field = load_field(obj["field"], where)
        try:
            return GrassmannAlgebra(field, obj["rank"])
        except StructuralError as e:
            raise SchemaError(f"{where}: {e}") from None
    if t == "super_numbers":
        _require_keys(obj, ["type", "field"], (), where)
        return SuperNumbers(load_field(obj["field"], where))
    raise SchemaError(f"{where}: unknown coefficient algebra type {t!r}")


def dump_coeff(algebra) -> dict:
    if isinstance(algebra, SuperNumbers):
        return {"type": "super_numbers", "field": algebra.field.name}
    return {"type": "grassmann", "field": algebra.field.name, "rank": algebra.rank}


# -- matrices ------------------------------------------------------------------


def load_scalar_matrix(field, rows, where="matrix", n=None):
    """A matrix of base-field values; n, when given, is its required size n x n."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SchemaError(f"{where}: expected a list of rows")
    if n is not None and (len(rows) != n or any(len(r) != n for r in rows)):
        raise SchemaError(f"{where}: expected {n}x{n} entries")
    try:
        return [[field.parse(str(v)) for v in row] for row in rows]
    except (StructuralError, ValueError) as e:
        raise SchemaError(f"{where}: bad scalar literal ({e})") from None


def load_matrix(shape, algebra, rows, where="matrix") -> SuperMatrix:
    n = shape[0] + shape[1]
    if not isinstance(rows, list) or len(rows) != n or any(
            not isinstance(r, list) or len(r) != n for r in rows):
        raise SchemaError(f"{where}: expected {n}x{n} entries")
    try:
        entries = [[parse_element(algebra, str(v)) for v in row] for row in rows]
    except StructuralError as e:
        raise SchemaError(f"{where}: bad entry ({e})") from None
    return SuperMatrix(shape, algebra, entries)


def dump_matrix(m: SuperMatrix):
    return m.to_strings()


# -- Lie superalgebra fixtures ---------------------------------------------------


def load_lie(obj, where="lie") -> LieSuperalgebraData:
    _require_keys(obj, ["schema", "field", "kind"],
                  ["shape", "even", "odd", "d_plus", "d_minus",
                   "ee", "eo", "oo", "q2", "rho"], where)
    _check_schema(obj, where)
    field = load_field(obj["field"], where)
    kind = obj["kind"]
    if kind == "matrices":
        _require_keys(obj, ["schema", "field", "kind", "shape", "even", "odd"], (), where)
        shape = _shape(obj["shape"], where)
        n = shape[0] + shape[1]
        even = [load_scalar_matrix(field, m, f"{where}.even[{i}]", n)
                for i, m in enumerate(_list(obj["even"], f"{where}.even"))]
        odd = [load_scalar_matrix(field, m, f"{where}.odd[{i}]", n)
               for i, m in enumerate(_list(obj["odd"], f"{where}.odd"))]
        return from_matrices(shape[0], shape[1], even, odd, field)
    if kind == "constants":
        _require_keys(obj, ["schema", "field", "kind", "d_plus", "d_minus",
                            "ee", "eo", "oo", "q2"], ["rho", "shape"], where)
        if not all(_is_int(obj[k]) and obj[k] >= 0 for k in ("d_plus", "d_minus")):
            raise SchemaError(f"{where}: d_plus and d_minus must be non-negative integers")
        shape = _shape(obj["shape"], where) if "shape" in obj else None

        def table(key):
            """A square table of k-vectors: each of its rows is a matrix."""
            return [load_scalar_matrix(field, row, f"{where}.{key}")
                    for row in _list(obj[key], f"{where}.{key}")]

        ee, eo, oo = table("ee"), table("eo"), table("oo")
        q2 = load_scalar_matrix(field, obj["q2"], f"{where}.q2")
        rho_even = rho_odd = None
        if "rho" in obj:
            _require_keys(obj["rho"], ["even", "odd"], (), f"{where}.rho")
            rho_even = [load_scalar_matrix(field, m, f"{where}.rho.even")
                        for m in _list(obj["rho"]["even"], f"{where}.rho.even")]
            rho_odd = [load_scalar_matrix(field, m, f"{where}.rho.odd")
                       for m in _list(obj["rho"]["odd"], f"{where}.rho.odd")]
        try:
            return LieSuperalgebraData(field, obj["d_plus"], obj["d_minus"],
                                       ee, eo, oo, q2, shape=shape,
                                       rho_even=rho_even, rho_odd=rho_odd)
        except StructuralError as e:
            raise SchemaError(f"{where}: {e}") from None
    raise SchemaError(f"{where}: unknown lie fixture kind {kind!r}")


# -- pair fixtures ------------------------------------------------------------


def load_group(obj, where="even_group"):
    _require_keys(obj, ["name", "p", "q"], (), where)
    name = obj["name"]
    if not isinstance(name, str) or name not in BUILTIN_GROUPS:
        raise SchemaError(f"{where}: unknown group {name!r}; "
                          f"builtins: {sorted(BUILTIN_GROUPS)}")
    if not all(_is_int(obj[k]) and obj[k] >= 0 for k in ("p", "q")):
        raise SchemaError(f"{where}: p and q must be non-negative integers")
    _block_size(obj["p"], obj["q"], where)
    return BUILTIN_GROUPS[name](obj["p"], obj["q"])


def load_pair(obj, where="pair") -> HarishChandraPair:
    _require_keys(obj, ["schema", "even_group", "lie"], (), where)
    _check_schema(obj, where)
    group = load_group(obj["even_group"], where + ".even_group")
    lie = load_lie(obj["lie"], where + ".lie")
    try:
        return HarishChandraPair(group, lie)
    except StructuralError as e:
        raise SchemaError(f"{where}: {e}") from None


# -- words ----------------------------------------------------------------------


def load_word(obj, pair, algebra, where="word") -> GroupWord:
    _require_keys(obj, ["schema", "tokens"], (), where)
    _check_schema(obj, where)
    toks = []
    for t, entry in enumerate(_list(obj["tokens"], f"{where}.tokens")):
        loc = f"{where}.tokens[{t}]"
        if not isinstance(entry, dict) or len(entry) != 1:
            raise SchemaError(f"{loc}: token must be a one-key object")
        if "odd" in entry:
            spec = entry["odd"]
            if not (isinstance(spec, list) and len(spec) == 2
                    and _is_int(spec[0])):
                raise SchemaError(f"{loc}: odd token is [index, eta-string]")
            try:
                eta = parse_element(algebra, str(spec[1]))
            except StructuralError as e:
                raise SchemaError(f"{loc}: {e}") from None
            toks.append(OddTok(spec[0] - 1, eta))  # fixtures are 1-based
        elif "even" in entry:
            toks.append(EvenTok(load_matrix(pair.shape, algebra, entry["even"], loc)))
        else:
            raise SchemaError(f"{loc}: token key must be 'odd' or 'even'")
    try:
        return GroupWord(pair, algebra, toks)
    except StructuralError as e:
        raise SchemaError(f"{where}: {e}") from None


def dump_normal_form(nf: NormalForm) -> dict:
    """The normal form as a fixture object; SchemaError when a value is too
    large for the textual format."""
    try:
        return {
            "schema": SCHEMA_VERSION,
            "orientation": nf.orientation,
            "etas": [e.to_str() for e in nf.etas],
            "g_plus": dump_matrix(nf.g_plus),
        }
    except StructuralError as e:
        raise SchemaError(f"normal form cannot be written: {e}") from None


def loads(text, where="fixture"):
    """The JSON value of text; SchemaError for invalid JSON and for nesting
    deeper than the decoder's recursion limit (about 1,000 levels)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{where}: invalid JSON ({e})") from None
    except RecursionError:
        raise SchemaError(f"{where}: JSON nested too deeply") from None
