"""Command-line entry point: load, verify, analyze, classify, report.

Exit codes: 0 success, 1 validation/domain failure, 2 resource-budget
failure.  Reports are deterministic for a given configuration; JSON output
sorts all keys.
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from .ambient import Ambi
from .cohomology import h3, h3_via_uber
from .errors import DomainError, FusionkitError, ResourceError, ValidationError
from .fields import Field
from .feudal import detect_feudal, enumerate_feudal, gamma, phi
from .groups import identify_group, named_group
from .rules import (
    adjoint_subrule,
    automorphisms,
    nilpotency_class,
    simple_currents,
    universal_grading,
    verify_fusion_rule,
)
from .systems import (
    DEFAULT_BUDGET_BITS,
    apply_gauge,
    enumerate_fusion_systems_bruteforce,
    verify_fusion_system,
)
from .uber import (
    check_existence_obstructions,
    enumerate_uber,
    psi,
    reconstruct,
)


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = jsonio.dumps(report)
    else:
        lines = []

        def walk(prefix, val):
            if isinstance(val, dict):
                for k in sorted(val):
                    walk(f"{prefix}{k}.", val[k])
            elif isinstance(val, list) and val and isinstance(val[0], (dict, list)):
                for i, v in enumerate(val):
                    walk(f"{prefix}{i}.", v)
            else:
                lines.append(f"{prefix[:-1]}: {val}")

        walk("", report)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _group_arg(spec: str):
    if spec.endswith(".json") or "/" in spec:
        return jsonio.group_from_dict(jsonio.load_document(spec))
    return named_group(spec)


# ---- subcommand handlers ------------------------------------------------------


def cmd_rule_verify(args) -> dict:
    rule = jsonio.load_rule(args.path)
    rep = verify_fusion_rule(rule)
    return {
        "path": str(args.path),
        "passed": rep.passed,
        "associative": rep.associative,
        "assoc_witnesses": [list(w) for w in rep.assoc_witnesses],
        "unit_ok": rep.unit_ok,
        "duals_ok": rep.duals_ok,
        "products_nonempty": rep.products_nonempty,
        "unit_unique": rep.unit_unique,
        "dual_involutive": rep.dual_involutive,
        "multiplicity_free": rep.multiplicity_free,
    }


def cmd_rule_analyze(args) -> dict:
    rule = jsonio.load_rule(args.path)
    rep = verify_fusion_rule(rule)
    if not rep.passed:
        raise ValidationError(f"not a fusion rule: {rep.summary()}")
    sc, index = simple_currents(rule)
    ad = adjoint_subrule(rule)
    grading = universal_grading(rule)
    fr = detect_feudal(rule)
    out = {
        "labels": list(rule.labels),
        "order": rule.n,
        "multiplicity_free": rule.is_multiplicity_free,
        "simple_currents": sorted(rule.labels[i] for i in sc),
        "simple_current_index": index,
        "adjoint_subrule": sorted(rule.labels[i] for i in ad),
        "adjoint_size": len(ad),
        "nilpotency_class": nilpotency_class(rule),
        "universal_grading": {
            "order": len(grading.group),
            "isomorphic_to": identify_group(grading.group),
            "cosets": [sorted(rule.labels[i] for i in c) for c in grading.cosets],
        },
        "automorphisms": len(automorphisms(rule)) if rule.n <= 10 else None,
    }
    if fr is not None:
        out["feudal"] = {
            "serfs": sorted(rule.labels[i] for i in fr.serfs),
            "lords": sorted(rule.labels[i] for i in fr.lords),
            "properly_feudal": index == 2,
            "grading_count": fr.grading_count,
        }
    return out


def cmd_feudal_phi(args) -> dict:
    h = jsonio.load_hom_datum(args.path)
    fr = phi(h)
    return {
        "rule": jsonio.rule_to_dict(fr.rule),
        "serfs": sorted(fr.rule.labels[i] for i in fr.serfs),
        "lords": sorted(fr.rule.labels[i] for i in fr.lords),
    }


def cmd_feudal_gamma(args) -> dict:
    rule = jsonio.load_rule(args.path)
    fr = detect_feudal(rule)
    if fr is None:
        raise DomainError("rule carries no feudal structure")
    return jsonio.hom_datum_to_dict(gamma(fr))


def cmd_feudal_enumerate(args) -> dict:
    res = enumerate_feudal(args.max_order)
    return {
        "max_order": args.max_order,
        "count": len(res.rules),
        "warnings": res.warnings,
        "classes": [
            {
                "order": fr.rule.n,
                "serfs": len(fr.serfs),
                "lords": len(fr.lords),
                "source": h.source.name,
                "target": h.target.name,
                "kernel_size": len(h.kernel_ids),
                "rule": jsonio.rule_to_dict(fr.rule),
            }
            for fr, h in zip(res.rules, res.hom_data)
        ],
    }


def cmd_fsys_verify(args) -> dict:
    f = jsonio.load_system(args.path)
    rep = verify_fusion_system(f)
    return {
        "path": str(args.path),
        "passed": rep.passed,
        "invertibility_ok": rep.invertibility_ok,
        "pentagon_ok": rep.pentagon_ok,
        "pentagon_checked": rep.pentagon_checked,
        "pentagon_failures": [list(w) for w in rep.pentagon_failures[:8]],
        "triangle_ok": rep.triangle_ok,
        "rigidity_ok": rep.rigidity_ok,
        "unit_matrices_ok": rep.one_top_ok,
    }


def cmd_fsys_gauge_apply(args) -> dict:
    f = jsonio.load_system(args.path)
    xi = jsonio.gauge_from_dict(jsonio.load_document(args.xi), rule=f.rule, field=f.field)
    out = apply_gauge(f, xi)
    return jsonio.system_to_dict(out)


def cmd_fsys_enumerate(args) -> dict:
    rule = jsonio.load_rule(args.rule)
    field = Field(args.p)
    systems = enumerate_fusion_systems_bruteforce(rule, field, budget_bits=args.budget_bits)
    return {
        "rule": str(args.rule),
        "p": args.p,
        "budget_bits": args.budget_bits,
        "count": len(systems),
        "systems": [
            {",".join(rule.labels[i] for i in k): int(v) for k, v in sorted(f.coeffs.items())}
            for f in systems
        ],
    }


def cmd_uber_psi(args) -> dict:
    f = jsonio.load_system(args.path)
    return jsonio.uber_to_dict(psi(f))


def cmd_uber_reconstruct(args) -> dict:
    u = jsonio.load_uber(args.path)
    f = reconstruct(u)
    rep = verify_fusion_system(f)
    out = jsonio.system_to_dict(f)
    out["verified"] = rep.passed
    return out


def cmd_uber_obstructions(args) -> dict:
    rule = jsonio.load_rule(args.rule)
    fr = detect_feudal(rule)
    if fr is None:
        raise DomainError("rule carries no feudal structure")
    return check_existence_obstructions(fr, Field(args.p)).to_dict()


def cmd_uber_classify(args) -> dict:
    rule = jsonio.load_rule(args.rule)
    fr = detect_feudal(rule)
    if fr is None:
        raise DomainError("rule carries no feudal structure")
    field = Field(args.p)
    obst = check_existence_obstructions(fr, field)
    out = {
        "rule": str(args.rule),
        "p": args.p,
        "obstructions": obst.to_dict(),
    }
    if not obst.clear:
        out.update(gauge_classes=0, equivalence_classes=0, classes=[])
        return out
    cls = enumerate_uber(Ambi(fr, field))
    rule_doc = jsonio.rule_to_dict(fr.rule)  # every class shares it
    out.update(
        gauge_classes=cls.gauge_classes,
        equivalence_classes=cls.equivalence_classes,
        orbits=cls.orbits,
        lattice=cls.lattice,
        classes=[
            {"invariants": inv, "uber": jsonio.uber_to_dict(u, rule_doc)}
            for inv, u in zip(cls.invariants, cls.class_reps)
        ],
    )
    return out


def cmd_cohom_h3(args) -> dict:
    g = _group_arg(args.group)
    field = Field(args.p)
    direct = h3(g, field)
    report = direct.to_dict()
    if args.via_uber:
        serfs = None
        if args.via_uber != "auto":
            sub = _group_arg(args.via_uber)
            from .groups import homomorphisms

            for f in homomorphisms(sub, g):
                if len(set(f.tolist())) == len(sub) and 2 * len(sub) == len(g):
                    serfs = frozenset(int(x) for x in f.tolist())
                    break
            if serfs is None:
                raise DomainError(f"{args.via_uber} is not an index-2 subgroup of {args.group}")
        else:
            subs = g.index2_subgroups()
            if not subs:
                raise DomainError(f"{args.group} has no index-2 subgroup")
            serfs = subs[0]
        report["via_uber"] = h3_via_uber(g, serfs, field, direct).to_dict()
    return report


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1 with one `error:` line, like
    every other bad input, instead of a usage block and exit 2."""

    def error(self, message):
        raise ValidationError(message)


_PATH = ("path", {})
_RULE_P = (("--rule", {"required": True}), ("--p", {"type": int, "required": True}))

# command -> (help, {sub-command -> (handler, argument specs)}), in help order;
# an argument spec is (name, add_argument keywords).
_COMMANDS = {
    "rule": (
        "fusion-rule structure",
        {"verify": (cmd_rule_verify, (_PATH,)), "analyze": (cmd_rule_analyze, (_PATH,))},
    ),
    "feudal": (
        "serf/lord structure and the hom dictionary",
        {
            "phi": (cmd_feudal_phi, (_PATH,)),
            "gamma": (cmd_feudal_gamma, (_PATH,)),
            "enumerate": (cmd_feudal_enumerate, (("--max-order", {"type": int, "required": True}),)),
        },
    ),
    "fsys": (
        "fusion systems",
        {
            "verify": (cmd_fsys_verify, (_PATH,)),
            "gauge-apply": (cmd_fsys_gauge_apply, (_PATH, ("--xi", {"required": True}))),
            "enumerate": (
                cmd_fsys_enumerate,
                (*_RULE_P, ("--budget-bits", {"type": int, "default": DEFAULT_BUDGET_BITS})),
            ),
        },
    ),
    "uber": (
        "uberderivations and classification",
        {
            "psi": (cmd_uber_psi, (_PATH,)),
            "reconstruct": (cmd_uber_reconstruct, (_PATH,)),
            "classify": (cmd_uber_classify, _RULE_P),
            "obstructions": (cmd_uber_obstructions, _RULE_P),
        },
    ),
    "cohom": (
        "group cohomology",
        {
            "h3": (
                cmd_cohom_h3,
                (
                    ("--group", {"required": True}),
                    ("--p", {"type": int, "required": True}),
                    ("--via-uber", {"default": None, "help": "an index-2 subgroup name, or 'auto'"}),
                ),
            ),
        },
    ),
}
_GLOBAL_OPTIONS = ("--format", "--out")  # each takes one value


def _build(commands: dict) -> _Parser:
    """The parser tree of commands, a table shaped like _COMMANDS."""
    ap = _Parser(prog="fusionkit", description=__doc__)
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--out", default=None, help="write the report to a file")
    groups = ap.add_subparsers(dest="command", required=True)
    for command, (help_, leaves) in commands.items():
        subs = groups.add_parser(command, help=help_).add_subparsers(dest="sub", required=True)
        for sub, (fn, specs) in leaves.items():
            leaf = subs.add_parser(sub)
            for name, kw in specs:
                leaf.add_argument(name, **kw)
            leaf.set_defaults(fn=fn)
    return ap


def build_parser() -> argparse.ArgumentParser:
    """The full parser tree: every command and sub-command."""
    return _build(_COMMANDS)


def _branch(argv: list) -> dict | None:
    """The one-leaf table of the (command, sub) pair argv selects, or None.

    The scan is conservative: before the pair it skips only the global
    options with their values (--opt V or --opt=V), so any other token there
    (-h, an abbreviation, a stray value) falls back to the full tree.
    """
    i = 0
    while i < len(argv) and argv[i].split("=", 1)[0] in _GLOBAL_OPTIONS:
        i += 1 if "=" in argv[i] else 2
    command, sub = (argv[i : i + 2] + [None, None])[:2]
    if command not in _COMMANDS or sub not in _COMMANDS[command][1]:
        return None
    help_, leaves = _COMMANDS[command]
    return {command: (help_, {sub: leaves[sub]})}


def _parse(argv: list) -> argparse.Namespace:
    """argv parsed as the full tree parses it, building only the branch it
    selects (the root, a group and a leaf) when _branch finds one.  The
    branch's parsers are the full tree's, built from the same specs, so
    every message, exit code and help text is the full tree's too."""
    return _build(_branch(argv) or _COMMANDS).parse_args(argv)


def main(argv=None) -> int:
    """Run one command (argv, or sys.argv[1:]) and return its exit code.

    The parser is built per call: only the branch of the selected command
    (see _parse), with every message, exit code and help text that of the
    full tree, build_parser.
    """
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        report = args.fn(args)
    except ResourceError as e:
        sys.stderr.write(f"resource budget exceeded: {e}\n")
        return 2
    except FusionkitError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    _emit(report, args)
    return 0


def console_main() -> None:
    sys.exit(main())
