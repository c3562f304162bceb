"""Command-line front end.

Subcommands: classify, check {laws|theorem|pullback|ci|local-independence|
prop21}, report.  All randomized checks are seeded (flag --seed, else the
GSMON_SEED environment variable, else 42) and emit byte-identical JSON for
identical configurations.  Exit codes: 0 all checks pass, 1 a property
violation was found, 2 usage or input error, 3 an internal invariant broke
(a re-verified witness, mediator or certificate failed its check).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .errors import GsmonError, InvariantViolation, MalformedInput
from .independence import check_ci, check_local_independence
from .jsonio import dump_json, kernel_from_json, load_json, write_text
from .monads import ALL_MONAD_IDS, check_monad_laws, classify, get_instance
from .monoid import MONOID_LIBRARY, get_monoid, group_pullback_agreement
from .report import require_mode
from .squares import build_square, check_pullback, theorem_harness

VERSION = "0.1.0"


def positive_int(text: str) -> int:
    """argparse type: ASCII digits only, with a value of at least 1."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def seed_int(text: str) -> int:
    """argparse type: ASCII digits with an optional leading '-'."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def default_seed() -> int:
    raw = os.environ.get("GSMON_SEED")
    if raw is None:
        return 42
    try:
        return seed_int(raw)
    except argparse.ArgumentTypeError:
        raise GsmonError(f"GSMON_SEED must be an integer, got {raw!r}")


def _parse_sizes(text: str) -> list:
    try:
        sizes = [positive_int(v.strip()) for v in text.split(",") if v.strip()]
    except argparse.ArgumentTypeError as exc:
        raise GsmonError(f"bad --sizes value {text!r}: {exc}")
    if not sizes:
        raise GsmonError(f"bad --sizes value {text!r}: no entries")
    return sizes


def _parse_triples(text: str) -> list:
    triples = [_parse_sizes(part) for part in text.split(";") if part.strip()]
    if not triples:
        raise GsmonError(f"bad --sizes value {text!r}: no entries")
    return triples


def _normalize_mode(mode: str) -> str:
    mode = "randomized" if mode == "random" else mode
    require_mode(mode)
    return mode


def _parse_partition(expr: str, factors) -> list:
    """Turn "X,Y|Z" (factor names or 0-based indices) into index blocks."""
    names = [f.name for f in factors] if factors else []
    blocks = []
    for chunk in expr.split("|"):
        block = []
        for token in chunk.split(","):
            token = token.strip()
            if not token:
                continue
            if token in names:
                block.append(names.index(token))
            elif token.isascii() and token.isdigit():
                block.append(int(token))
            else:
                raise GsmonError(f"unknown factor {token!r} in partition {expr!r}")
        if block:
            blocks.append(block)
    if not blocks:
        raise GsmonError(f"empty partition expression {expr!r}")
    return blocks


def _document(config: dict, checks: list) -> dict:
    summary = "pass" if all(c["passed"] for c in checks) else "fail"
    return {
        "tool": f"gsmon {VERSION}",
        "config": config,
        "checks": checks,
        "summary": summary,
    }


def _emit(doc: dict, fmt: str, out) -> int:
    if fmt == "markdown":
        text = _markdown(doc)
        if out:
            write_text(out, text)
        else:
            sys.stdout.write(text)
    else:
        text = dump_json(doc, out)
        if not out:
            sys.stdout.write(text)
    return 0 if doc["summary"] == "pass" else 1


def _markdown(doc: dict) -> str:
    lines = [
        f"# {doc['tool']} report",
        "",
        f"Summary: **{doc['summary']}**",
        "",
        "| check | verdict | mode | trials | reference | note |",
        "|---|---|---|---|---|---|",
    ]
    for c in doc["checks"]:
        verdict = "pass" if c["passed"] else "FAIL"
        lines.append(
            "| {name} | {verdict} | {mode} | {trials} | {ref} | {note} |".format(
                name=c.get("name", "?"),
                verdict=verdict,
                mode=c.get("mode", ""),
                trials=c.get("trials", 0),
                ref=c.get("reference", ""),
                note=c.get("note", "").replace("|", "/"),
            )
        )
    if "warning" in doc:
        lines += ["", f"Warning: {doc['warning']}"]
    lines.append("")
    return "\n".join(lines)


def _emit_check(args, config: dict, entry: dict, reference: str) -> int:
    """Write the document of one check whose JSON is `entry`."""
    entry["reference"] = reference
    return _emit(_document(config, [entry]), args.format, args.out)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_classify(args) -> int:
    ids = ALL_MONAD_IDS if args.all or not args.monad else [args.monad]
    instances = [get_instance(monad_id, bound=args.bound) for monad_id in ids]
    checks = []
    for inst in instances:
        cls = classify(inst, trials=args.trials, seed=args.seed)
        entry = cls.to_json()
        entry["name"] = f"classify[{inst.id}]"
        entry["passed"] = True
        entry["mode"] = "direct"
        entry["trials"] = args.trials if cls.evidence == "solver-asserted" else 0
        entry["note"] = f"{cls.kind}; {entry.get('note') or cls.note}"
        entry["reference"] = "internal monoid of T over the unit"
        checks.append(entry)
    config = {
        "command": "classify",
        "monads": [inst.id for inst in instances],
        "trials": args.trials,
        "seed": args.seed,
        "bound": args.bound,
    }
    return _emit(_document(config, checks), args.format, args.out)


def cmd_check_laws(args) -> int:
    inst = get_instance(args.monad, bound=args.bound)
    mode = _normalize_mode(args.mode)
    sizes = _parse_sizes(args.sizes)
    report = check_monad_laws(inst, sizes, mode=mode, trials=args.trials, seed=args.seed)
    config = {
        "command": "check laws",
        "monad": inst.id,
        "sizes": sizes,
        "mode": mode,
        "trials": args.trials,
        "seed": args.seed,
    }
    return _emit_check(args, config, report.to_json(), "monad, functor and commutativity laws")


def cmd_check_theorem(args) -> int:
    inst = get_instance(args.monad, bound=args.bound)
    mode = _normalize_mode(args.mode)
    triples = _parse_triples(args.sizes)
    report = theorem_harness(inst, triples, mode=mode, trials=args.trials, seed=args.seed)
    config = {
        "command": "check theorem",
        "monad": inst.id,
        "sizes": triples,
        "mode": mode,
        "trials": args.trials,
        "seed": args.seed,
    }
    return _emit_check(
        args, config, report.to_json(), "weak affinity / effect groups / associativity pullback"
    )


def cmd_check_pullback(args) -> int:
    inst = get_instance(args.monad, bound=args.bound)
    mode = _normalize_mode(args.mode)
    sizes = _parse_sizes(args.sizes)
    square = build_square(args.square, inst, sizes)
    report = check_pullback(square, mode=mode, trials=args.trials, seed=args.seed)
    config = {
        "command": "check pullback",
        "square": args.square,
        "monad": inst.id,
        "sizes": sizes,
        "mode": mode,
        "trials": args.trials,
        "seed": args.seed,
    }
    return _emit_check(args, config, report.to_json(), f"{args.square} square universal property")


def cmd_check_ci(args) -> int:
    kernel, factors = kernel_from_json(load_json(args.kernel), bound=args.bound)
    if factors is None:
        raise GsmonError('the kernel codomain must list its "factors" for a CI check')
    partition = _parse_partition(args.partition, factors)
    result = check_ci(kernel, factors, partition, method=args.method)
    entry = result.to_json()
    entry["name"] = f"ci[{kernel.inst.id}]"
    entry["passed"] = True  # a decided query is a successful run either way
    entry["mode"] = "direct"
    entry["trials"] = 0
    entry["note"] = "holds" if result.holds else "does not hold"
    config = {
        "command": "check ci",
        "kernel": args.kernel,
        "partition": args.partition,
        "method": args.method,
    }
    _emit_check(args, config, entry, "conditional independence factorization")
    return 0 if result.holds else 1


def cmd_check_local_independence(args) -> int:
    kernel, factors = kernel_from_json(load_json(args.kernel), bound=args.bound)
    if factors is None or len(factors) != 3:
        raise GsmonError("local-independence needs a kernel with exactly three codomain factors")
    report = check_local_independence(kernel, factors, method=args.method)
    config = {
        "command": "check local-independence",
        "kernel": args.kernel,
        "method": args.method,
    }
    return _emit_check(args, config, report.to_json(), "localised independence property")


def cmd_check_prop21(args) -> int:
    if args.monoid:
        suite = [get_monoid(args.monoid)]
    else:
        suite = list(MONOID_LIBRARY.values())
    report = group_pullback_agreement(suite)
    config = {"command": "check prop21", "monoids": [m.name for m in suite]}
    return _emit_check(
        args, config, report.to_json(), "group law vs. associativity-square pullback"
    )


def cmd_report(args) -> int:
    checks = []
    versions = set()
    for path in args.inputs:
        doc = load_json(path)
        # The merge reads `tool` as a string and each check's boolean
        # `passed` and string `note`: anything else is not a gsmon document.
        entries = doc.get("checks") if isinstance(doc, dict) else None
        if not (isinstance(entries, list) and isinstance(doc.get("tool", ""), str) and all(
            isinstance(c, dict)
            and type(c.get("passed")) is bool
            and isinstance(c.get("note", ""), str)
            for c in entries
        )):
            raise MalformedInput(f"{path} is not a gsmon document")
        versions.add(doc.get("tool", "unknown"))
        checks.extend(entries)
    merged = _document({"command": "report", "inputs": list(args.inputs)}, checks)
    if len(versions) > 1:
        merged["warning"] = "inputs produced by different tool versions: " + ", ".join(
            sorted(versions)
        )
    _emit(merged, args.format, args.out)
    return 0  # merging is not itself a check


# ---------------------------------------------------------------------------
# Argument parsing


OPTIONS = {
    "mode": dict(default="exhaustive", help="exhaustive or random"),
    "trials": dict(type=positive_int, default=500),
    "sizes": dict(default="2,2,2"),
    "bound": dict(type=positive_int, default=16, help="multiplicity bound for F"),
}
CHECK_OPTIONS = ("mode", "trials", "sizes", "bound")


def _add_common(p, seed, *options):
    """--seed, --format and --out, then the named entries of OPTIONS."""
    p.add_argument("--seed", type=seed_int, default=seed)
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.add_argument("--out", default=None)
    for name in options:
        p.add_argument(f"--{name}", **OPTIONS[name])


def build_parser(seed: "int | None") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsmon",
        description="Exact checks for gs-monoidal Kleisli categories of finite-set monads.",
    )
    parser.add_argument("--version", action="version", version=f"gsmon {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="affine / weakly affine / neither")
    p_classify.add_argument("--monad", default=None)
    p_classify.add_argument("--all", action="store_true")
    _add_common(p_classify, seed, "trials", "bound")
    p_classify.set_defaults(handler=cmd_classify)

    p_check = sub.add_parser("check", help="run a verification suite")
    csub = p_check.add_subparsers(dest="suite", required=True)

    p_laws = csub.add_parser("laws")
    p_laws.add_argument("--monad", required=True)
    _add_common(p_laws, seed, *CHECK_OPTIONS)
    p_laws.set_defaults(handler=cmd_check_laws)

    p_thm = csub.add_parser("theorem")
    p_thm.add_argument("--monad", required=True)
    _add_common(p_thm, seed, *CHECK_OPTIONS)
    p_thm.set_defaults(handler=cmd_check_theorem, sizes="1,1,1;2,1,1;2,2,2")

    p_pb = csub.add_parser("pullback")
    p_pb.add_argument(
        "--square",
        required=True,
        choices=["assoc", "strong-affine", "positivity"],
    )
    p_pb.add_argument("--monad", required=True)
    _add_common(p_pb, seed, *CHECK_OPTIONS)
    p_pb.set_defaults(handler=cmd_check_pullback)

    p_ci = csub.add_parser("ci")
    p_ci.add_argument("--kernel", required=True)
    p_ci.add_argument("--partition", required=True)
    p_ci.add_argument("--method", default="auto")
    _add_common(p_ci, seed, "bound")
    p_ci.set_defaults(handler=cmd_check_ci)

    p_li = csub.add_parser("local-independence")
    p_li.add_argument("--kernel", required=True)
    p_li.add_argument("--method", default="auto")
    _add_common(p_li, seed, "bound")
    p_li.set_defaults(handler=cmd_check_local_independence)

    p_p21 = csub.add_parser("prop21")
    p_p21.add_argument("--monoid", default=None)
    _add_common(p_p21, seed)
    p_p21.set_defaults(handler=cmd_check_prop21)

    p_rep = sub.add_parser("report", help="merge prior JSON reports")
    p_rep.add_argument("--inputs", nargs="*", default=[])
    _add_common(p_rep, seed)
    p_rep.set_defaults(handler=cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; a --seed left out parses to None."""
    return build_parser(None)


def main(argv=None) -> int:
    """Run one command line; may be called many times in one process, and
    reads GSMON_SEED on each call."""
    try:
        seed = default_seed()
        args = _parser().parse_args(argv)
        if args.seed is None:
            args.seed = seed
        return args.handler(args)
    except InvariantViolation as exc:
        print(f"gsmon: internal error: {exc}", file=sys.stderr)
        return 3
    except GsmonError as exc:
        print(f"gsmon: error: {exc}", file=sys.stderr)
        return 2


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
