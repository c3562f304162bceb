"""The three benchmark workloads: their checks, inputs and expected verdicts.

Every check is one ``gsmon`` command line, run in-process through
``gsmon.cli.main(argv)``.  Each carries the exit code and the verdict the
paper predicts; the digest of its JSON output at the seed commit lives in
``expected.json`` (see ``record.py``).

A workload seed picks one of ``VARIANTS`` input variants: the ``--seed``
values handed to the checks and, for ``ci-kernels``, the generated kernel
documents.  Digests are recorded per variant, so every seed can be checked
byte for byte.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

VARIANTS = 8


def variant_of(seed: int) -> int:
    return seed % VARIANTS


@dataclass(frozen=True)
class Check:
    """One CLI invocation with the outcome the paper predicts."""

    key: str  # stable id, used for the recorded digest
    argv: tuple
    exit_code: int
    verdict: Optional[Callable[[dict], bool]]  # predicate on the JSON report
    kernel_path: Optional[str] = None  # left out of the digest


# ---------------------------------------------------------------------------
# Verdict predicates


def _first(doc):
    return doc["checks"][0]


def passes(doc) -> bool:
    return doc["summary"] == "pass" and all(c["passed"] for c in doc["checks"])


def fails_with_cone(doc) -> bool:
    """An exhaustive pullback refuted by a cone with zero or several mediators."""
    w = _first(doc)["witness"]
    return doc["summary"] == "fail" and len(w["cone"]) == 2 and w["mediators"] != 1


def fails_with_m_cone(doc) -> bool:
    """The pullback for M fails on a cone of the shape ((0, p), (q, 0))."""
    w = _first(doc)["witness"]
    (zx, p), (q, zz) = w["cone"]
    zero = "M{zero}"
    return (
        doc["summary"] == "fail"
        and zx == zero
        and zz == zero
        and p != zero
        and q != zero
        and w["mediators"] == 0
    )


def three_conditions_agree(doc) -> bool:
    """Weak affinity, effect groups and the assoc pullback all hold."""
    return passes(doc) and _first(doc)["note"] == (
        "t1_group=True; effect_groups=True; assoc_pullback=True"
    )


CLASSIFICATION = {
    "Id": "affine",
    "D": "affine",
    "M": "not_weakly_affine",
    "M*": "weakly_affine_not_affine",
    "P": "not_weakly_affine",
    "P*": "affine",
    "writer:Z2": "weakly_affine_not_affine",
    "writer:Z3": "weakly_affine_not_affine",
    "writer:AND": "not_weakly_affine",
    "F": "not_weakly_affine",
}


def classification_table(doc) -> bool:
    kinds = {c["name"][len("classify["):-1]: c["kind"] for c in doc["checks"]}
    return passes(doc) and kinds == CLASSIFICATION


def ci_verdict(holds: bool, method: str):
    def check(doc) -> bool:
        c = _first(doc)
        return c["holds"] is holds and c["method"] == method

    return check


def li_verdict(vacuous: bool):
    def check(doc) -> bool:
        c = _first(doc)
        note = "vacuous-pass" if vacuous else "premises hold"
        return passes(doc) and c["note"].startswith(note)

    return check


# ---------------------------------------------------------------------------
# exhaustive-writer
#
# Why: the exhaustive `squares` cone loop scans every apex for every
# compatible cone, and the writer law checks make millions of `extend`,
# `make` and `finset.product` calls.  This is where index-and-join, product
# interning and writer payloads as indices show.  The two early failures
# guard the rule that a faster cone loop reports the same first witness.


def _check_seed(seed: int) -> str:
    return str(11 + 7 * variant_of(seed))


def exhaustive_writer(seed: int, workdir: str) -> list:
    s = _check_seed(seed)

    def pullback(monad, sizes, exit_code, verdict):
        return Check(
            f"assoc[{monad};{sizes}]",
            ("check", "pullback", "--square", "assoc", "--monad", monad,
             "--sizes", sizes, "--seed", s),
            exit_code,
            verdict,
        )

    return [
        pullback("writer:Z2xZ2", "2,2,2", 0, passes),
        pullback("writer:Z4", "2,2,2", 0, passes),
        pullback("writer:Z3", "2,2,3", 0, passes),
        pullback("writer:AND", "2,2,2", 1, fails_with_cone),
        pullback("P", "1,1,1", 1, fails_with_cone),
        Check("laws[writer:Z2;1,3]",
              ("check", "laws", "--monad", "writer:Z2", "--sizes", "1,3", "--seed", s),
              0, passes),
        Check("laws[writer:Z2xZ2;1,2]",
              ("check", "laws", "--monad", "writer:Z2xZ2", "--sizes", "1,2", "--seed", s),
              0, passes),
        Check("theorem[writer:Z3]",
              ("check", "theorem", "--monad", "writer:Z3", "--seed", s),
              0, three_conditions_agree),
        Check("prop21", ("check", "prop21", "--seed", s), 0, passes),
    ]


# ---------------------------------------------------------------------------
# random-measure
#
# Why: seeded randomized checks on M*, M and D go through the mediator
# solver and bypass the exhaustive cone loop; `make`/`validate` re-coercing
# Fractions and `product` dominate.  A cone-loop change must read "no
# change" here.


def random_measure(seed: int, workdir: str) -> list:
    s = _check_seed(seed)
    return [
        Check("assoc[M*;3,3,3]",
              ("check", "pullback", "--square", "assoc", "--monad", "M*", "--sizes",
               "3,3,3", "--mode", "random", "--trials", "2500", "--seed", s),
              0, passes),
        Check("assoc[M;2,2,2]",
              ("check", "pullback", "--square", "assoc", "--monad", "M", "--sizes",
               "2,2,2", "--mode", "random", "--seed", s),
              1, fails_with_m_cone),
        Check("theorem[M*]",
              ("check", "theorem", "--monad", "M*", "--mode", "random", "--trials",
               "1000", "--sizes", "2,2,2;3,3,3", "--seed", s),
              0, three_conditions_agree),
        Check("strong-affine[D;3,3]",
              ("check", "pullback", "--square", "strong-affine", "--monad", "D",
               "--sizes", "3,3", "--mode", "random", "--trials", "2500", "--seed", s),
              0, passes),
        Check("laws[M*]",
              ("check", "laws", "--monad", "M*", "--mode", "random", "--trials",
               "500", "--seed", s),
              0, passes),
        Check("classify", ("classify", "--all", "--seed", s), 0, classification_table),
    ]


# ---------------------------------------------------------------------------
# ci-kernels
#
# Why: CI and localised-independence queries on kernels read from JSON use
# `kernels.compose`/`tensor`, `Kernel.__init__` re-validation, every CI
# method and `jsonio`, and `monads.validate` at the trust boundary, where
# validation must stay.  A change that drops validation to speed up
# random-measure shows here as a slower path or as failed rejections.

# (monad id, extra CLI arguments, CI method the verdict must name)
CI_MONADS = (
    ("M*", (), "equivalence"),
    ("D", (), "equivalence"),
    ("writer:Z3", (), "equivalence"),
    ("M", (), "rank1"),
    ("P*", ("--method", "exhaustive"), "exhaustive_search"),
    ("writer:Z2", ("--method", "exhaustive"), "exhaustive_search"),
)
KERNELS_PER_SHAPE = 8  # per monad and factor count; the first is generic unless writer


def _shape(j):
    """Domain size, |Y|, and whether an M kernel ends in a zero column, for
    the j-th kernel of a monad and factor count.  The same in every variant,
    so that variants differ in values, not in the amount of work."""
    return 1 + j % 3, 3 if j % 4 == 2 else 2, j % 2 == 1


def _rat(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _factors(n, y_size):
    sizes = {"X": 2, "Y": y_size, "Z": 2}
    names = "XYZ"[:n]
    return [
        {"name": name, "elements": [f"{name.lower()}{i}" for i in range(sizes[name])]}
        for name in names
    ]


def _cells(factors):
    return [",".join(c) for c in itertools.product(*(f["elements"] for f in factors))]


def _vec(rng, size, zeros):
    lo = 0 if zeros else 1
    return [Fraction(rng.randint(lo, 9), rng.randint(1, 4)) for _ in range(size)]


def _outer(vecs):
    out = []
    for combo in itertools.product(*vecs):
        t = Fraction(1)
        for v in combo:
            t *= v
        out.append(t)
    return out


def _forced_minor(n):
    """Cells of a 2x2 minor with determinant 1 in the (X..)|last-factor
    flattening, which no product-form table has."""
    if n == 2:
        return {"x0,y0": 2, "x0,y1": 1, "x1,y0": 1, "x1,y1": 1}
    return {"x0,y0,z0": 2, "x0,y0,z1": 1, "x1,y0,z0": 1, "x1,y0,z1": 1}


def _measure_column(monad, rng, factors, cells, product_form, first, zero):
    n = len(factors)
    if product_form:
        if zero:
            table = [Fraction(0)] * len(cells)
        else:
            vecs = [_vec(rng, len(f["elements"]), zeros=monad == "M") for f in factors]
            if monad == "D":
                vecs = [[x / sum(v) for x in v] for v in vecs]
                scale = Fraction(1)
            else:
                scale = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            table = [scale * t for t in _outer(vecs)]
    elif monad == "M" and n == 2 and first:
        table = [Fraction(1) if c in ("x0,y0", "x1,y1") else Fraction(0) for c in cells]
    else:
        table = _vec(rng, len(cells), zeros=True)
        if first:
            forced = _forced_minor(n)
            table = [Fraction(forced[c]) if c in forced else t for c, t in zip(cells, table)]
        if not any(table):
            table[0] = Fraction(1)
        if monad == "D":
            total = sum(table)
            table = [t / total for t in table]
    return {"entries": {c: _rat(t) for c, t in zip(cells, table) if t != 0}}


def _subset(rng, elems):
    while True:
        s = [e for e in elems if rng.random() < 0.5]
        if s:
            return s


def _powerset_column(rng, factors, cells, product_form, first):
    n = len(factors)
    if product_form:
        parts = [_subset(rng, f["elements"]) for f in factors]
        elems = [",".join(c) for c in itertools.product(*parts)]
    elif first:
        elems = ["x0,y0", "x1,y1"] if n == 2 else ["x0,y0,z0", "x1,y0,z1"]
    else:
        elems = _subset(rng, cells)
    return {"elements": sorted(elems)}


def _writer_column(monad, rng, cells):
    labels = [str(i) for i in range(int(monad[len("writer:Z"):]))]
    return {"a": rng.choice(labels), "x": rng.choice(cells)}


def _kernel_doc(monad, rng, n, product_form, dom_size=2, y_size=2, zero_last=False):
    factors = _factors(n, y_size)
    cells = _cells(factors)
    dom = [f"a{i}" for i in range(dom_size)]
    columns = {}
    for i, a in enumerate(dom):
        if monad.startswith("writer:"):
            col = _writer_column(monad, rng, cells)
        elif monad == "P*":
            col = _powerset_column(rng, factors, cells, product_form, i == 0)
        else:
            zero = monad == "M" and zero_last and i == dom_size - 1
            col = _measure_column(monad, rng, factors, cells, product_form, i == 0, zero)
        columns[a] = col
    return {
        "monad": monad,
        "dom": {"name": "A", "elements": dom},
        "cod": {"factors": factors},
        "columns": columns,
    }


def _malformed_docs(rng):
    """One document for each rejection the trust boundary must make."""
    neg = _kernel_doc("M*", rng, 2, True)
    first = next(iter(neg["columns"].values()))["entries"]
    first[next(iter(first))] = "-1/2"

    unnormalized = _kernel_doc("D", rng, 2, True)
    col = next(iter(unnormalized["columns"].values()))["entries"]
    for c in col:
        col[c] = _rat(Fraction(col[c]) * 2)

    over_bound = _kernel_doc("M*", rng, 2, True)
    over_bound["monad"] = "F(B=3)"
    for col in over_bound["columns"].values():
        col["entries"] = {c: 1 for c in col["entries"]}
    next(iter(over_bound["columns"].values()))["entries"]["x0,y0"] = 5

    unknown = _kernel_doc("M*", rng, 3, True)
    next(iter(unknown["columns"].values()))["entries"]["x9,y0,z0"] = "1"

    return [
        ("negative-M*", neg, ("check", "ci", "--partition", "X|Y")),
        ("unnormalized-D", unnormalized, ("check", "ci", "--partition", "X|Y")),
        ("over-bound-F", over_bound, ("check", "ci", "--partition", "X|Y", "--bound", "3")),
        ("unknown-element", unknown, ("check", "local-independence")),
    ]


def ci_kernels(seed: int, workdir: str) -> list:
    """Generate the variant's kernel documents into `workdir` and return
    one CI or localised-independence query per (document, question)."""
    v = variant_of(seed)
    rng = random.Random(f"ci-kernels/{v}")
    checks = []

    def write(name, doc):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    for monad, extra, method in CI_MONADS:
        writer = monad.startswith("writer:")
        for n in (2, 3):
            for j in range(KERNELS_PER_SHAPE):
                product_form = writer or j > 0
                name = f"{monad.replace(':', '_').replace('*', 'star')}-{n}f-{j}"
                path = write(name, _kernel_doc(monad, rng, n, product_form, *_shape(j)))
                if n == 2:
                    checks.append(Check(
                        f"ci[{name};X|Y]",
                        ("check", "ci", "--kernel", path, "--partition", "X|Y") + extra,
                        0 if product_form else 1,
                        ci_verdict(product_form, method),
                        kernel_path=path,
                    ))
                else:
                    checks.append(Check(
                        f"li[{name}]",
                        ("check", "local-independence", "--kernel", path) + extra,
                        0,
                        li_verdict(vacuous=not product_form),
                        kernel_path=path,
                    ))
                    checks.append(Check(
                        f"ci[{name};X|Y|Z]",
                        ("check", "ci", "--kernel", path, "--partition", "X|Y|Z") + extra,
                        0 if product_form else 1,
                        ci_verdict(product_form, method),
                        kernel_path=path,
                    ))
    for name, doc, args in _malformed_docs(rng):
        path = write(name, doc)
        checks.append(Check(
            f"reject[{name}]",
            args[:2] + ("--kernel", path) + args[2:],
            2,
            None,
            kernel_path=path,
        ))
    rng.shuffle(checks)
    return checks


WORKLOADS = {
    "exhaustive-writer": exhaustive_writer,
    "random-measure": random_measure,
    "ci-kernels": ci_kernels,
}
