"""Command-line front end.

Every command prints a deterministic report for fixed arguments (and
seed), as text or as JSON validating against the bundled schema.  Exit
codes: 0 for success / mathematical yes, 1 for mathematical no verdicts
(with a witness where one exists), 2 for usage errors.

The working precision is --prec, default series.DEFAULT_PREC.
Out-of-range arguments (a precision or a size below 1, a negative sample
count, a characteristic that is not prime) are usage errors, rejected
before any arithmetic runs.  ``section synth`` and ``hanke`` need a
precision of at least 2, since T itself is not known modulo T^1, and
``hanke`` needs --r below --prec, since T^r is zero modulo T^prec.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import gcd

from . import brauer as br
from .autk import LocalFieldAuto
from .cyclic import CyclicAlgebra
from .descent import hanke_test_deg3
from .gftower import _is_prime, build_tower, subfield_generator
from .rootdatum import (ExtensionProblem, FiniteGroupTable, SimpleType,
                        TitsIndexDescriptor, extension_splits, ses_verdict)
from .sections import SectionContext, verify_section
from .series import DEFAULT_PREC, LaurentSeries


def at_least(k: int):
    """The argument type of an integer that is at least k."""
    def integer(text: str) -> int:
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be at least {k}, got {value}")
        return value
    return integer


def parse_series(text: str, tower, j: int, prec: int) -> LaurentSeries:
    """Parse ``c0 + c1*T + g^3*T^2 + T^-1`` style input over F_{p^j}.

    ``g`` denotes the designated generator of F_{p^j}^x; integer
    coefficients reduce mod p.
    """
    gen = subfield_generator(tower, j)
    pairs = {}
    for raw in text.replace(" ", "").split("+"):
        if not raw:
            continue
        coeff = tower.one()
        expo = 0
        for factor in raw.split("*"):
            if factor.startswith("T"):
                expo += 1 if factor == "T" else int(factor[2:])
            elif factor.startswith("g"):
                coeff = coeff * (gen if factor == "g" else gen ** int(factor[2:]))
            else:
                coeff = coeff * tower.from_int(int(factor))
        lg = pairs.get(expo)
        cur = tower.zero() if lg is None else type(coeff)(tower, lg)
        pairs[expo] = (cur + coeff).log
    return LaurentSeries.from_pairs(tower, j, list(pairs.items()), prec)


def _emit(args, command: str, parameters: dict, result: dict, exit_code: int) -> int:
    if args.output == "json":
        doc = {"command": command, "parameters": parameters,
               "exit_code": exit_code, "result": result}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key, value in result.items():
            print(f"{key}: {value}")
    return exit_code


# -- command handlers ------------------------------------------------------

def _cmd_brauer(args) -> int:
    A = br.CSADescriptor(args.d, args.r)
    if args.op == "inv":
        inv = br.invariant(A)
        return _emit(args, "brauer inv", {"d": args.d, "r": args.r},
                     {"invariant": str(inv)}, 0)
    if args.op == "wedderburn":
        a, div = br.wedderburn(A)
        return _emit(args, "brauer wedderburn", {"d": args.d, "r": args.r},
                     {"matrix_size": a, "division_algebra": repr(div),
                      "is_division": a == 1}, 0)
    a2 = br.base_change_csa(A, args.m)
    _, div = br.wedderburn(a2)
    return _emit(args, "brauer basechange",
                 {"d": args.d, "r": args.r, "m": args.m},
                 {"algebra": repr(a2), "invariant": str(br.invariant(a2)),
                  "division_part": repr(div)}, 0)


def _cmd_split_check(args) -> int:
    if args.charp and (args.p is None or args.i is None):
        raise ValueError("split-check --charp needs --p and --i")
    if args.subfield and args.m is None:
        raise ValueError("split-check --subfield needs --m")
    if args.charp:
        _require_prime(args.p)
        ok = br.splits_globally_charp(args.n, args.d, args.p, args.i)
        result = {"verdict": "SPLIT" if ok else "NON-SPLIT"}
        if not ok:
            result["witness_subfield_degree"] = br.non_split_witness(
                args.n, args.d, args.p, args.i)
        return _emit(args, "split-check",
                     {"mode": "charp", "n": args.n, "d": args.d,
                      "p": args.p, "i": args.i}, result, 0 if ok else 1)
    ok = br.splits_over_subfield(args.n, args.d, args.m)
    return _emit(args, "split-check",
                 {"mode": "subfield", "n": args.n, "d": args.d, "m": args.m},
                 {"verdict": "SPLIT" if ok else "NON-SPLIT",
                  "gcd": gcd(args.n * args.d, args.m)},
                 0 if ok else 1)


def _cmd_descent_form(args) -> int:
    form = br.descent_form(args.n, args.d, args.r, args.m)
    if form is None:
        return _emit(args, "descent-form",
                     {"n": args.n, "d": args.d, "r": args.r, "m": args.m},
                     {"verdict": "NO-FORM",
                      "witness_gcd": gcd(args.n * args.d, args.m)}, 1)
    return _emit(args, "descent-form",
                 {"n": args.n, "d": args.d, "r": args.r, "m": args.m},
                 {"verdict": "FORM", "form": repr(form)}, 0)


def _cmd_nrd(args) -> int:
    _require_prime(args.p)
    parts = args.element.split(";")
    if len(parts) != args.d:
        raise ValueError(f"element needs {args.d} components")
    tower = build_tower(args.p, args.i, args.d, 1)
    alg = CyclicAlgebra(tower, args.i, args.d, args.r, args.prec)
    comps = [parse_series(part, tower, args.i * args.d, args.prec)
             for part in parts]
    elt = alg.from_components(comps)
    return _emit(args, "nrd",
                 {"p": args.p, "i": args.i, "d": args.d, "r": args.r,
                  "prec": args.prec, "element": args.element},
                 {"reduced_norm": repr(elt.reduced_norm())}, 0)


def _require_prime(p: int):
    if not _is_prime(p):
        raise ValueError(f"--p must be a prime, got {p}")


def _cmd_section_synth(args) -> int:
    _require_prime(args.p)
    params = {"p": args.p, "i": args.i, "d": args.d, "r": args.r, "n": args.n,
              "prec": args.prec, "seed": args.seed, "samples": args.samples}
    if not br.splits_globally_charp(args.n, args.d, args.p, args.i):
        witness = br.non_split_witness(args.n, args.d, args.p, args.i)
        return _emit(args, "section synth", params,
                     {"verdict": "NON-SPLIT",
                      "detail": "no section exists; refusing to synthesize",
                      "witness_subfield_degree": witness}, 1)
    ctx = SectionContext(args.p, args.i, args.d, args.r, args.n, args.prec)
    report = verify_section(ctx, samples=args.samples, seed=args.seed)
    result = {"verdict": "VERIFIED" if report.all_passed else "CHECK-FAILED",
              "context": report.context,
              "checks": [c.to_dict() for c in report.checks]}
    if args.output == "text":
        print(f"section synthesis for SL_{args.n}(A({args.d},{args.r})) over "
              f"F_{{{args.p}^{args.i}}}((T)), prec {args.prec}")
        for line in report.lines():
            print(line)
        print("verdict:", result["verdict"])
        return 0 if report.all_passed else 1
    return _emit(args, "section synth", params, result,
                 0 if report.all_passed else 1)


def _cmd_hanke(args) -> int:
    _require_prime(args.p)
    if args.r >= args.prec:
        raise ValueError(f"--r {args.r} must be below --prec {args.prec}: "
                         "T^r is zero modulo T^prec")
    tower = build_tower(args.p, args.i, 3, 1)
    a = LaurentSeries.T_power(tower, args.i, args.r, args.prec)
    image = parse_series(args.alpha, tower, args.i, args.prec)
    alpha = LocalFieldAuto(tower, args.i, args.frob, image)
    ok, witness = hanke_test_deg3(args.i, a, alpha)
    params = {"p": args.p, "i": args.i, "r": args.r, "alpha": args.alpha,
              "frob": args.frob, "prec": args.prec}
    if not ok:
        return _emit(args, "hanke", params, {"in_aut_g": False}, 1)
    g_rows = [[repr(e) for e in row] for row in witness["g"].rows]
    # branch 1 names the inner equation alpha(a)/a = N(lambda), the one
    # hanke_test_deg3 solves
    return _emit(args, "hanke", params,
                 {"in_aut_g": True, "branch": 1,
                  "lambda": repr(witness["lambda"]), "g": g_rows}, 0)


def _cmd_extension_split(args) -> int:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.load(sys.stdin)
    group, normal = FiniteGroupTable.from_json_dict(data)
    prob = ExtensionProblem(group, normal)
    splits, comp = extension_splits(prob)
    return _emit(args, "extension split",
                 {"order": group.order, "normal_order": len(normal)},
                 {"splits": splits,
                  "complement_elements": sorted(comp) if comp else None},
                 0 if splits else 1)


def _cmd_ses_verdict(args) -> int:
    idx = TitsIndexDescriptor(args.g, SimpleType(args.family, args.rank,
                                                 args.isogeny))
    tower = None
    if args.tower_file:
        with open(args.tower_file, "r", encoding="utf-8") as fh:
            group, normal = FiniteGroupTable.from_json_dict(json.load(fh))
        tower = ExtensionProblem(group, normal)
    verdict = ses_verdict(idx, tower)
    params = {"g": args.g, "family": args.family, "rank": args.rank,
              "isogeny": args.isogeny}
    return _emit(args, "ses-verdict", params, verdict,
                 0 if verdict["splits"] else 1)


# -- parser ---------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state in it and returns a fresh Namespace for each call."""
    top = argparse.ArgumentParser(
        prog="autsplit",
        description="Exact splitting analysis for semilinear automorphisms "
                    "of SL_n over local function fields.")
    top.add_argument("--output", choices=("text", "json"), default="text")
    sub = top.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("brauer", help="Brauer class arithmetic")
    pb.add_argument("op", choices=("inv", "wedderburn", "basechange"))
    pb.add_argument("--d", type=at_least(1), required=True)
    pb.add_argument("--r", type=int, required=True)
    pb.add_argument("--m", type=at_least(1), default=1)
    pb.set_defaults(func=_cmd_brauer)

    ps = sub.add_parser("split-check", help="splitting criteria")
    mode = ps.add_mutually_exclusive_group(required=True)
    mode.add_argument("--charp", action="store_true")
    mode.add_argument("--subfield", action="store_true")
    ps.add_argument("--n", type=at_least(1), required=True)
    ps.add_argument("--d", type=at_least(1), required=True)
    ps.add_argument("--p", type=at_least(1))
    ps.add_argument("--i", type=at_least(1))
    ps.add_argument("--m", type=at_least(1))
    ps.set_defaults(func=_cmd_split_check)

    pd = sub.add_parser("descent-form", help="descend SL_n(A(d,r)) to a subfield")
    for flag, kind in (("--n", at_least(1)), ("--d", at_least(1)),
                       ("--r", int), ("--m", at_least(1))):
        pd.add_argument(flag, type=kind, required=True)
    pd.set_defaults(func=_cmd_descent_form)

    pn = sub.add_parser("nrd", help="reduced norm of an algebra element")
    for flag, kind in (("--p", at_least(1)), ("--i", at_least(1)),
                       ("--d", at_least(1)), ("--r", int)):
        pn.add_argument(flag, type=kind, required=True)
    pn.add_argument("--prec", type=at_least(1), default=DEFAULT_PREC)
    pn.add_argument("--element", required=True,
                    help="semicolon-separated u-components, e.g. '1+T;T^-1'")
    pn.set_defaults(func=_cmd_nrd)

    psec = sub.add_parser("section", help="splitting section synthesis")
    ssub = psec.add_subparsers(dest="section_op", required=True)
    psy = ssub.add_parser("synth")
    for flag, kind in (("--p", at_least(1)), ("--i", at_least(1)),
                       ("--d", at_least(1)), ("--r", int),
                       ("--n", at_least(1))):
        psy.add_argument(flag, type=kind, required=True)
    psy.add_argument("--prec", type=at_least(2), default=str(DEFAULT_PREC),
                     help="work modulo T^PREC; at least 2 (default %(default)s)")
    psy.add_argument("--seed", type=int, default=0)
    psy.add_argument("--samples", type=at_least(0), default=20)
    psy.set_defaults(func=_cmd_section_synth)

    ph = sub.add_parser("hanke", help="degree-3 outer automorphism test")
    ph.add_argument("--p", type=at_least(1), required=True)
    ph.add_argument("--i", type=at_least(1), required=True)
    ph.add_argument("--r", type=int, default=1)
    ph.add_argument("--alpha", required=True, help="image of T, e.g. 'T+T^2'")
    ph.add_argument("--frob", type=int, default=0,
                    help="residue Frobenius power of alpha")
    ph.add_argument("--prec", type=at_least(2), default=str(DEFAULT_PREC),
                    help="work modulo T^PREC; at least 2 (default %(default)s)")
    ph.set_defaults(func=_cmd_hanke)

    pe = sub.add_parser("extension", help="finite group extension tools")
    esub = pe.add_subparsers(dest="extension_op", required=True)
    pes = esub.add_parser("split")
    pes.add_argument("--file", help="JSON {order, table, normal_subset}")
    pes.set_defaults(func=_cmd_extension_split)

    pv = sub.add_parser("ses-verdict", help="based root datum sequence verdict")
    pv.add_argument("--g", type=int, required=True)
    pv.add_argument("--family", required=True)
    pv.add_argument("--rank", type=int, required=True)
    pv.add_argument("--isogeny", default="simply_connected")
    pv.add_argument("--tower-file")
    pv.set_defaults(func=_cmd_ses_verdict)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
