"""Command-line entry point.

Exit codes: 0 affirmative/success, 1 negative verdict, 2 usage or input
error.  Verdict-bearing commands print JSON with --json; outputs are
byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from pathlib import Path

from .bitset import layer_selectors
from .catalog import ExminorClassId, excluded_minor_set, make_named, twist_classes
from .census import DEFAULT_CHUNK, REGISTRY, count_census, run_streaming, verify_equivalence
from .errors import AmbientHypothesisError, DmkitError, InvalidIndexSetError
from .gf2 import d_of_c, is_binary_dm, parse_matrix
from .higgs import build_higgs_dm, classify_higgs, higgs_lift
from .latticepath import (
    Region,
    lpdm,
    parse_region,
    region_dual,
    region_minor,
    region_svg,
    serialize_region,
)
from .matroid import Matroid
from .minorscan import classify_by_exminors
from .setsystem import SetSystem, parse_set_system, serialize_set_system
from .stacks import classify_stack

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
# Families a sampled census draws when --count is not given.
DEFAULT_COUNT = 10000


def _read_system(path: str) -> SetSystem:
    return parse_set_system(Path(path).read_text(encoding="utf-8"))


def _read_region(path: str) -> Region:
    return parse_region(Path(path).read_text(encoding="utf-8"))


def _read_matroid(path: str) -> Matroid:
    return Matroid.from_system(_read_system(path))


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _emit_system(system: SetSystem, args) -> None:
    _write_or_print(serialize_set_system(system, fmt=args.format), args.output)


def _split_labels(raw: str) -> list[str]:
    return [p for p in raw.replace(",", " ").split() if p]


def _index_set(raw: str) -> list[int]:
    """The layer indices of a comma separated --index-set."""
    out = []
    for part in _split_labels(raw):
        try:
            out.append(int(part))
        except ValueError:
            raise InvalidIndexSetError(f"index {part!r} is not an integer") from None
    return out


def _class_choices() -> list[str]:
    return [c.value for c in ExminorClassId]


def _with_witness(payload: dict, witness) -> dict:
    """The verdict payload plus its minor witness, when there is one."""
    if witness is not None:
        payload["witness"] = {
            "delete": list(witness.deleted),
            "contract": list(witness.contracted),
            "target": witness.target_name,
        }
    return payload


def cmd_check(args) -> int:
    system = _read_system(args.file)
    cid = ExminorClassId(args.cls)
    try:
        member, witness = classify_by_exminors(system, cid, cap=args.cap)
    except AmbientHypothesisError as exc:
        payload = {"class": cid.value, "error": f"hypothesis violation: {exc}"}
        print(json.dumps(payload) if args.json else payload["error"], file=sys.stderr)
        return EXIT_ERROR
    payload = _with_witness({"class": cid.value, "member": member}, witness)
    print(json.dumps(payload) if args.json else _verdict_text(payload))
    return EXIT_YES if member else EXIT_NO


def _verdict_text(payload: dict) -> str:
    if payload.get("member"):
        return f"member of class {payload['class']}"
    w = payload.get("witness")
    if w:
        return (
            f"not in class {payload['class']}: minor isomorphic to {w['target']} "
            f"(delete {w['delete'] or '[]'}, contract {w['contract'] or '[]'})"
        )
    return f"not in class {payload['class']}"


def cmd_minor(args) -> int:
    system = _read_system(args.file)
    result = system.minor(_split_labels(args.delete), _split_labels(args.contract))
    _emit_system(result, args)
    return EXIT_YES


def cmd_twist(args) -> int:
    system = _read_system(args.file)
    _emit_system(system.twist(_split_labels(args.set)), args)
    return EXIT_YES


def cmd_dual(args) -> int:
    _emit_system(_read_system(args.file).dual(), args)
    return EXIT_YES


def cmd_higgs_lift(args) -> int:
    q = _read_matroid(args.quotient)
    lift = _read_matroid(args.lift)
    result = higgs_lift(q, lift, args.index)
    _emit_system(result.system, args)
    return EXIT_YES


def cmd_higgs_build(args) -> int:
    q = _read_matroid(args.quotient)
    lift = _read_matroid(args.lift)
    _emit_system(build_higgs_dm(q, lift, _index_set(args.index_set)), args)
    return EXIT_YES


def cmd_higgs_classify(args) -> int:
    system = _read_system(args.file)
    cls = classify_higgs(system)
    payload = {
        "kind": cls.kind,
        "index_set": sorted(cls.index_set) if cls.index_set is not None else None,
        "k": cls.k,
        "failing_layer": cls.failing_layer,
    }
    print(json.dumps(payload) if args.json else
          f"classification: {cls.kind}"
          + (f", K={sorted(cls.index_set)}" if cls.index_set else "")
          + (f", first failing layer {cls.failing_layer}" if cls.failing_layer is not None else ""))
    return EXIT_YES if cls.is_higgs else EXIT_NO


def cmd_lattice_build(args) -> int:
    region = _read_region(args.file)
    result = lpdm(region)
    _emit_system(result.system, args)
    return EXIT_YES


def cmd_lattice_svg(args) -> int:
    region = _read_region(args.file)
    _write_or_print(region_svg(region), args.output)
    return EXIT_YES


def cmd_lattice_dual(args) -> int:
    region = _read_region(args.file)
    _write_or_print(serialize_region(region_dual(region)), args.output)
    return EXIT_YES


def cmd_lattice_minor(args) -> int:
    region = _read_region(args.file)
    result = region_minor(region, args.element, args.op)
    _write_or_print(serialize_region(result), args.output)
    return EXIT_YES


def cmd_stack_classify(args) -> int:
    system = _read_system(args.file)
    flags = classify_stack(system)
    sel = layer_selectors(system.n)
    layers = [{"size": size, "feasible": (system.family_bitmap & sel[size]).bit_count()}
              for size in system.layer_sizes]
    payload = {
        "matroid_stack": flags.matroid_stack,
        "paving_system": flags.paving_system,
        "sparse_paving_system": flags.sparse_paving_system,
        "quotient_system": flags.quotient_system,
        "even": flags.even,
        "delta_matroid": flags.delta_matroid,
        "rank_gaps": list(flags.rank_gaps),
        "gaps_within_bounds": flags.gaps_within_bounds,
        "proper_layers": layers,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_YES if flags.matroid_stack else EXIT_NO


def cmd_binary_check(args) -> int:
    system = _read_system(args.file)
    member, witness = is_binary_dm(system)
    payload = _with_witness({"binary": member}, witness)
    print(json.dumps(payload) if args.json else
          ("binary delta-matroid" if member else
           f"not binary: minor isomorphic to {witness.target_name}"))
    return EXIT_YES if member else EXIT_NO


def cmd_binary_dofc(args) -> int:
    matrix = parse_matrix(Path(args.file).read_text(encoding="utf-8"))
    _emit_system(d_of_c(matrix), args)
    return EXIT_YES


def _print_report(report, args) -> None:
    if args.json:
        doc = json.loads(report.to_json())
        if args.timestamps:
            doc["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        print(json.dumps(doc, separators=(", ", ": ")))
    else:
        print(report.summary())


def _refuse_ignored(route: str, ignored: list[tuple[str, bool]]) -> bool:
    """Print the refusal of the given options a route ignores, if any;
    True when there was one."""
    given = [flag for flag, present in ignored if present]
    if given:
        print(f"census: {route}; drop {', '.join(given)}", file=sys.stderr)
    return bool(given)


def _refuse_stamp(args) -> bool:
    return not args.json and _refuse_ignored("only a JSON report carries a stamp",
                                             [("--timestamps", args.timestamps)])


def cmd_census_run(args) -> int:
    for option, value in (("jobs", args.jobs), ("chunk", args.chunk)):
        if value is not None and value < 1:
            print(f"census: --{option} needs at least 1, got {option} = {value}",
                  file=sys.stderr)
            return EXIT_ERROR
    if _refuse_stamp(args) or args.mode == "sampled" and _refuse_ignored(
            "a sampled run is never deduplicated", [("--no-dedupe", args.no_dedupe)]):
        return EXIT_ERROR
    streamed = args.mode == "exhaustive" and (args.long or args.resume or args.jobs > 1)
    chunk = (f"--chunk {args.chunk}", args.chunk is not None)
    sample = [(f"--seed {args.seed}", args.seed is not None),
              (f"--count {args.count}", args.count is not None)]
    if args.mode == "sampled":
        refused = _refuse_ignored("a sampled run is neither streamed nor checkpointed", [
            (f"--resume {args.resume}", args.resume is not None),
            ("--long", args.long),
            (f"--jobs {args.jobs}", args.jobs != 1), chunk])
    elif streamed:
        refused = _refuse_ignored("a streamed run draws no sample and evaluates every "
                                  "family index", [*sample, ("--no-dedupe", args.no_dedupe)])
    else:
        refused = _refuse_ignored("an exhaustive run draws no sample and is streamed only "
                                  "with --long, --resume or --jobs above 1", [*sample, chunk])
    if refused:
        return EXIT_ERROR
    if args.n > 4 and args.mode == "exhaustive" and not args.long:
        print(
            "census: exhaustive n > 4 needs --long (n = 5 is 2^32 families; exdelta "
            "streams about 240 000 families/s per job on a Xeon core, about 5 hours)",
            file=sys.stderr,
        )
        return EXIT_ERROR
    if streamed:
        report = run_streaming(
            args.n, args.theorem,
            checkpoint_path=args.resume,
            chunk=args.chunk or DEFAULT_CHUNK,
            jobs=args.jobs,
        )
    else:
        report = verify_equivalence(
            args.n, args.theorem, args.mode, seed=args.seed or 0,
            count=DEFAULT_COUNT if args.count is None else args.count,
            dedupe=not args.no_dedupe,
        )
    _print_report(report, args)
    return EXIT_YES if report.ok else EXIT_NO


def cmd_census_count(args) -> int:
    if _refuse_stamp(args) or args.mode == "exhaustive" and _refuse_ignored(
            "an exhaustive count draws no sample",
            [(f"--seed {args.seed}", args.seed is not None),
             (f"--count {args.count}", args.count is not None)]):
        return EXIT_ERROR
    report = count_census(args.n, args.mode, seed=args.seed or 0,
                          count=DEFAULT_COUNT if args.count is None else args.count)
    _print_report(report, args)
    return EXIT_YES if report.ok else EXIT_NO


def _write_entries(entries, args) -> int:
    """Catalog entries as a JSON list of names and systems."""
    payload = [{"name": e.name, "system": json.loads(serialize_set_system(e.system))}
               for e in entries]
    _write_or_print(json.dumps(payload, separators=(", ", ": ")), args.output)
    return EXIT_YES


def cmd_catalog_dump(args) -> int:
    return _write_entries(excluded_minor_set(ExminorClassId(args.cls), args.cap), args)


def cmd_catalog_make(args) -> int:
    _emit_system(make_named(args.name), args)
    return EXIT_YES


def cmd_catalog_twists(args) -> int:
    return _write_entries(twist_classes(make_named(args.name), args.name), args)


def _add_output_argument(p: argparse.ArgumentParser) -> None:
    """-o, on the commands that write through _write_or_print."""
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")


def _add_system_output_arguments(p: argparse.ArgumentParser) -> None:
    """-o and --format, on the commands that write a set system through
    _emit_system."""
    _add_output_argument(p)
    p.add_argument("--format", choices=["json", "compact"], default="json")


def _add_json_argument(p: argparse.ArgumentParser) -> None:
    """--json, on the verdict and report commands."""
    p.add_argument("--json", action="store_true", help="machine-readable verdicts")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    main() call in the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dmkit",
        description="Delta-matroid toolkit: set systems, Higgs lifts, "
        "lattice-path constructions, and excluded-minor classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("check", "excluded-minor class membership"), ("scan", "alias of check")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--class", dest="cls", required=True, choices=_class_choices())
        p.add_argument("--cap", type=int, default=None)
        p.add_argument("file")
        _add_json_argument(p)
        p.set_defaults(func=cmd_check)

    p = sub.add_parser("minor", help="normal-form minor S\\X/Y")
    p.add_argument("--delete", default="", help="comma separated labels")
    p.add_argument("--contract", default="", help="comma separated labels")
    p.add_argument("file")
    _add_system_output_arguments(p)
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser("twist", help="partial dual on a subset")
    p.add_argument("--set", required=True, help="comma separated labels")
    p.add_argument("file")
    _add_system_output_arguments(p)
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("dual", help="twist on the whole ground set")
    p.add_argument("file")
    _add_system_output_arguments(p)
    p.set_defaults(func=cmd_dual)

    higgs = sub.add_parser("higgs", help="Higgs lift operations").add_subparsers(
        dest="subcommand", required=True
    )
    p = higgs.add_parser("lift")
    p.add_argument("--quotient", required=True, help="basis-system file of Q")
    p.add_argument("--lift", required=True, help="basis-system file of L")
    p.add_argument("-i", "--index", type=int, required=True)
    _add_system_output_arguments(p)
    p.set_defaults(func=cmd_higgs_lift)
    p = higgs.add_parser("build")
    p.add_argument("--quotient", required=True)
    p.add_argument("--lift", required=True)
    p.add_argument("--index-set", required=True, help="comma separated layer indices")
    _add_system_output_arguments(p)
    p.set_defaults(func=cmd_higgs_build)
    p = higgs.add_parser("classify")
    p.add_argument("file")
    _add_json_argument(p)
    p.set_defaults(func=cmd_higgs_classify)

    lattice = sub.add_parser("lattice", help="lattice-path regions").add_subparsers(
        dest="subcommand", required=True
    )
    p = lattice.add_parser("build")
    p.add_argument("file")
    _add_system_output_arguments(p)
    p.set_defaults(func=cmd_lattice_build)
    p = lattice.add_parser("svg")
    p.add_argument("file")
    _add_output_argument(p)
    p.set_defaults(func=cmd_lattice_svg)
    p = lattice.add_parser("dual")
    p.add_argument("file")
    _add_output_argument(p)
    p.set_defaults(func=cmd_lattice_dual)
    p = lattice.add_parser("minor")
    p.add_argument("--element", type=int, required=True)
    p.add_argument("--op", choices=["delete", "contract"], required=True)
    p.add_argument("file")
    _add_output_argument(p)
    p.set_defaults(func=cmd_lattice_minor)

    stack = sub.add_parser("stack", help="layer classification").add_subparsers(
        dest="subcommand", required=True
    )
    p = stack.add_parser("classify")
    p.add_argument("file")
    _add_json_argument(p)
    p.set_defaults(func=cmd_stack_classify)

    binary = sub.add_parser("binary", help="GF(2) representability").add_subparsers(
        dest="subcommand", required=True
    )
    p = binary.add_parser("check")
    p.add_argument("file")
    _add_json_argument(p)
    p.set_defaults(func=cmd_binary_check)
    p = binary.add_parser("dofc")
    p.add_argument("file", help="skew-symmetric matrix JSON")
    _add_system_output_arguments(p)
    p.set_defaults(func=cmd_binary_dofc)

    census = sub.add_parser("census", help="exhaustive verification").add_subparsers(
        dest="subcommand", required=True
    )
    p = census.add_parser("run")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theorem", required=True, choices=sorted(REGISTRY))
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--seed", type=int, default=None, help="sampled runs only (default 0)")
    p.add_argument("--count", type=int, default=None,
                   help=f"sampled runs only (default {DEFAULT_COUNT})")
    p.add_argument("--no-dedupe", action="store_true", default=None,
                   help="evaluate every family index, not one per isomorphism class")
    p.add_argument("--long", action="store_true",
                   help="allow exhaustive n = 5 runs (2^32 families, about 240 000 "
                   "families/s per job for exdelta)")
    p.add_argument("--resume", default=None, help="checkpoint file for long runs")
    p.add_argument("--chunk", type=int, default=None,
                   help=f"streamed runs only (default {DEFAULT_CHUNK})")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for exhaustive index-range scans")
    p.add_argument("--timestamps", action="store_true",
                   help="include a wall-clock stamp in JSON output")
    _add_json_argument(p)
    p.set_defaults(func=cmd_census_run)
    p = census.add_parser("count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--seed", type=int, default=None, help="sampled counts only (default 0)")
    p.add_argument("--count", type=int, default=None,
                   help=f"sampled counts only (default {DEFAULT_COUNT})")
    p.add_argument("--timestamps", action="store_true",
                   help="include a wall-clock stamp in JSON output")
    _add_json_argument(p)
    p.set_defaults(func=cmd_census_count)

    cat = sub.add_parser("catalog", help="named systems and tables").add_subparsers(
        dest="subcommand", required=True
    )
    p = cat.add_parser("dump")
    p.add_argument("--class", dest="cls", required=True, choices=_class_choices())
    p.add_argument("--cap", type=int, default=8)
    _add_output_argument(p)
    p.set_defaults(func=cmd_catalog_dump)
    p = cat.add_parser("make")
    p.add_argument("--name", required=True)
    _add_system_output_arguments(p)
    p.set_defaults(func=cmd_catalog_make)
    p = cat.add_parser("twists")
    p.add_argument("--name", required=True)
    _add_output_argument(p)
    p.set_defaults(func=cmd_catalog_twists)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DmkitError as exc:
        print(f"dmkit: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"dmkit: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
