"""Command-line entry point: argument parsing and output formatting only.

Subcommands: semigroup, hstar, bounds, ghw, improved, curve, verify (checks in
:mod:`agb.verify`), each defined once in ``_COMMANDS``; a call builds the
parser of the one command it runs.  Exit codes: 0 success, 1 domain error
(class name on stderr) or a failed write to stdout, 2 usage.  Flags change
formatting, never numbers.
"""

import argparse
import io
import json
import os
import sys

from . import bounds as bounds_mod
from . import evalcode
from .errors import AgbError, SchemaError, UnreadableFile, _json_int
from .hstar import HStar
from .semigroup import NumericalSemigroup
from .verify import run_verification


def _parse_gens(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad generator list: {text!r}")


def _parse_r(text: str):
    if text == "all":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'all', got {text!r}")


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines(payload):
            print(line)
    # a failed write, such as to a reader that quit early, shows up here,
    # inside main, not at exit
    sys.stdout.flush()


def _write(out: str) -> None:
    # in buffer-sized pieces: a reader that closed the pipe then raises
    # BrokenPipeError, where one larger write reports a short write and goes on
    for at in range(0, len(out), io.DEFAULT_BUFFER_SIZE):
        sys.stdout.write(out[at:at + io.DEFAULT_BUFFER_SIZE])
    sys.stdout.flush()


def _resolve_hstar(parser: argparse.ArgumentParser, args) -> HStar:
    S = NumericalSemigroup.from_generators(args.gens)
    mode = args.mode
    if mode in ("equiv-divisor", "isometry-dual"):
        if args.n is None:
            parser.error(f"--n is required for mode {mode}")
        if args.file is not None:
            parser.error(f"--file does not apply to mode {mode}")
        if mode == "equiv-divisor":
            return HStar.from_equiv_divisor(S, args.n)
        return HStar.from_isometry_dual(S, args.n)
    if args.file is None:
        parser.error(f"--file is required for mode {mode}")
    try:
        with open(args.file, encoding="utf-8") as fh:
            obj = json.load(fh)
        n = _json_int(obj["n"], "n")
        key = "members" if mode == "explicit" else "ell"
        payload = [_json_int(v, key) for v in obj[key]]
    except OSError as exc:
        raise UnreadableFile(f"cannot read {args.file}: {exc.strerror}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed input file {args.file}: {exc}") from exc
    if args.n is not None and args.n != n:
        parser.error(f"--n {args.n} conflicts with n={n} from {args.file}")
    if mode == "explicit":
        return HStar.from_explicit(S, n, payload)
    return HStar.from_abundance(S, n, payload)


# -- commands: the flags each adds to its parser, then its handler --------


def _semigroup_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gens", type=_parse_gens, required=True)
    parser.add_argument("--up-to", type=int, default=None, dest="up_to")
    parser.add_argument("--json", action="store_true")


def _cmd_semigroup(parser, args) -> int:
    S = NumericalSemigroup.from_generators(args.gens)
    payload = {
        "generators": list(S.generators),
        "genus": S.genus,
        "gaps": list(S.gaps),
        "frobenius": S.frobenius,
        "symmetric": S.is_symmetric(),
    }
    if args.up_to is not None:
        payload["elements"] = S.elements_up_to(args.up_to)

    def text(p):
        yield f"generators: {','.join(str(g) for g in p['generators'])}"
        yield f"genus: {p['genus']}"
        yield f"gaps: {' '.join(str(l) for l in p['gaps']) or '-'}"
        yield f"frobenius: {p['frobenius']}"
        yield f"symmetric: {p['symmetric']}"
        if "elements" in p:
            yield f"elements: {' '.join(str(m) for m in p['elements'])}"

    _emit(payload, args.json, text)
    return 0


def _hstar_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gens", type=_parse_gens, required=True,
                        help="comma-separated semigroup generators")
    parser.add_argument("--n", type=int, default=None, help="code length")
    parser.add_argument("--mode", required=True,
                        choices=["equiv-divisor", "isometry-dual", "explicit",
                                 "abundance"])
    parser.add_argument("--file", default=None,
                        help="JSON input for explicit/abundance modes")
    parser.add_argument("--json", action="store_true")


def _cmd_hstar(parser, args) -> int:
    hs = _resolve_hstar(parser, args)
    payload = {
        "n": hs.n,
        "mode": hs.mode.value,
        "members": list(hs.members),
        "isometry_dual": hs.is_isometry_dual(),
        "pi": hs.pi_value(),
    }

    def text(p):
        yield f"n: {p['n']}"
        yield f"mode: {p['mode']}"
        yield f"members: {' '.join(str(m) for m in p['members'])}"
        yield f"isometry_dual: {p['isometry_dual']}"
        yield f"pi: {p['pi']}"

    _emit(payload, args.json, text)
    return 0


def _cmd_bounds(parser, args) -> int:
    hs = _resolve_hstar(parser, args)
    table = bounds_mod.bound_table(hs)
    iso = table.d_ord is not None
    columns = [table.m, table.lambda_count, table.d_star, table.goppa]
    if iso:
        columns.append(table.d_ord)
    # JSON equal to json.dumps(payload, indent=2), pinned in test_golden.py
    if args.json:
        row = ('    {\n      "i": %d,\n      "m_i": %d,\n'
               '      "lambda_count": %d,\n      "d_star": %d,\n'
               '      "goppa": %d' + (',\n      "d_ord": %d' if iso else "")
               + "\n    }")
        head = '{\n  "n": %d,\n  "mode": %s,\n  "rows": [\n' % (
            hs.n, json.dumps(hs.mode.value))
        sep, tail = ",\n", "\n  ]\n}\n"
    else:
        row = "%4d %5d %7d %7d %6d" + (" %6d" if iso else "")
        head = ("   i   m_i  lambda  d_star  goppa"
                + ("  d_ord" if iso else "") + "\n")
        sep, tail = "\n", "\n"
    rows = map(row.__mod__, zip(range(1, hs.n + 1), *columns))
    _write(head + sep.join(rows) + tail)
    return 0


def _ghw_flags(parser: argparse.ArgumentParser) -> None:
    _hstar_flags(parser)
    parser.add_argument("--r", type=_parse_r, required=True,
                        help="an integer r, or 'all' for every r <= i")
    parser.add_argument("--i", type=int, required=True)
    parser.add_argument("--node-cap", type=int,
                        default=bounds_mod.DEFAULT_NODE_CAP, dest="node_cap")


def _cmd_ghw(parser, args) -> int:
    hs = _resolve_hstar(parser, args)
    if args.r == "all":
        # i < 1 still asks for (1, i), so it fails the index check
        pairs = [(r, args.i) for r in range(1, max(args.i, 1) + 1)]
        table = bounds_mod.ghw_table(hs, pairs, node_cap=args.node_cap)
        payload = {"i": args.i, "bounds": [e.bound for e in table.entries]}

        def text(p):
            for r, bound in enumerate(p["bounds"], start=1):
                yield f"{r}: {bound}"
    else:
        value = bounds_mod.ghw_bound(hs, args.i, args.r,
                                     node_cap=args.node_cap)
        payload = {"r": args.r, "i": args.i, "bound": value}

        def text(p):
            yield f"r: {p['r']}"
            yield f"i: {p['i']}"
            yield f"bound: {p['bound']}"

    _emit(payload, args.json, text)
    return 0


def _improved_flags(parser: argparse.ArgumentParser) -> None:
    _hstar_flags(parser)
    parser.add_argument("--delta", type=int, required=True)


def _cmd_improved(parser, args) -> int:
    hs = _resolve_hstar(parser, args)
    prof = bounds_mod.improved_profile(hs, args.delta)
    payload = {"delta": prof.delta, "dimension": prof.dimension,
               "monotone": prof.monotone, "indices": list(prof.indices)}

    def text(p):
        yield f"delta: {p['delta']}"
        yield f"dimension: {p['dimension']}"
        yield f"monotone: {p['monotone']}"
        yield f"indices: {' '.join(str(i) for i in p['indices'])}"

    _emit(payload, args.json, text)
    return 0


def _curve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("family", choices=["hermitian"])
    parser.add_argument("--q0", type=int, required=True)
    parser.add_argument("--emit-table", default=None, dest="emit_table")
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--emit-matrix", default=None, dest="emit_matrix")
    parser.add_argument("--json", action="store_true")


def _cmd_curve(parser, args) -> int:
    if args.emit_matrix and args.m is None:
        parser.error("--emit-matrix requires --m")
    table = evalcode.hermitian_table(args.q0)
    payload = {
        "curve": "hermitian",
        "q0": args.q0,
        "p": table.field.p,
        "k": table.field.k,
        "n": table.n,
        "genus": table.genus,
        "generators": list(table.semigroup.generators),
    }
    if args.emit_table:
        evalcode.save_table(table, args.emit_table)
        payload["table_file"] = args.emit_table
    if args.m is not None:
        c = evalcode.code(table, args.m)
        payload["m"] = args.m
        payload["dimension"] = c.dimension
        if args.emit_matrix:
            from .gf import save_matrix
            save_matrix(c.matrix, args.emit_matrix)
            payload["matrix_file"] = args.emit_matrix

    def text(p):
        for key in ("curve", "q0", "p", "k", "n", "genus"):
            yield f"{key}: {p[key]}"
        yield f"generators: {','.join(str(g) for g in p['generators'])}"
        for key in ("table_file", "m", "dimension", "matrix_file"):
            if key in p:
                yield f"{key}: {p[key]}"

    _emit(payload, args.json, text)
    return 0


def _verify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("family", choices=["hermitian"])
    parser.add_argument("--q0", type=int, required=True)
    parser.add_argument("--max-dim", type=int, default=None, dest="max_dim")
    parser.add_argument("--ghw", type=int, default=None)
    parser.add_argument("--json", action="store_true")


def _verify_json(payload: dict) -> str:
    """json.dumps(payload, indent=2) and a newline, one template per check."""
    # the two strings through json.dumps, whose C encoder takes a bare str
    record = ('    {\n      "name": %s,\n      "ok": %s,\n'
              '      "detail": %s\n    }')
    checks = ",\n".join(
        record % (json.dumps(c["name"]), "true" if c["ok"] else "false",
                  json.dumps(c["detail"]))
        for c in payload["checks"])
    return '{\n  "checks": %s,\n  "all_ok": %s\n}\n' % (
        "[\n%s\n  ]" % checks if checks else "[]",
        "true" if payload["all_ok"] else "false")


def _cmd_verify(parser, args) -> int:
    checks = run_verification(evalcode.hermitian_table(args.q0),
                              max_dim=args.max_dim, ghw_r=args.ghw)
    payload = {"checks": checks, "all_ok": all(c["ok"] for c in checks)}

    def text(p):
        for c in p["checks"]:
            mark = "ok  " if c["ok"] else "FAIL"
            yield f"{mark} {c['name']}: {c['detail']}"
        yield "all checks passed" if p["all_ok"] else "SOME CHECKS FAILED"

    if args.json:
        _write(_verify_json(payload))
    else:
        _emit(payload, False, text)
    return 0 if payload["all_ok"] else 1


# name: (help line, a function adding its flags, handler(parser, args))
_COMMANDS = {
    "semigroup": ("semigroup invariants", _semigroup_flags, _cmd_semigroup),
    "hstar": ("construct and validate a jump set", _hstar_flags, _cmd_hstar),
    "bounds": ("per-index bound table", _hstar_flags, _cmd_bounds),
    "ghw": ("generalized-weight bound", _ghw_flags, _cmd_ghw),
    "improved": ("improved-code profile", _improved_flags, _cmd_improved),
    "curve": ("built-in evaluation tables", _curve_flags, _cmd_curve),
    "verify": ("brute-force cross-validation report", _verify_flags,
               _cmd_verify),
}


def _usage_exit(argv) -> None:
    """Print the top-level help or usage error: with no command first in
    ``argv``, the bare subparsers cannot parse it, so argparse exits."""
    parser = argparse.ArgumentParser(
        prog="agb",
        description="Order-type bounds for one-point evaluation codes, "
                    "computed from numerical-semigroup data.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        subs.add_parser(name, help=help_line)
    parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:
        _usage_exit(argv)
    _, add_flags, handler = _COMMANDS[argv[0]]
    parser = argparse.ArgumentParser(prog=f"agb {argv[0]}")
    add_flags(parser)
    args = parser.parse_args(argv[1:])
    try:
        return handler(parser, args)
    except AgbError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # stdout failed: a reader that closed it needs no message, any other
        # fault gets one line; on devnull the flush at exit cannot fail
        if not isinstance(exc, BrokenPipeError):
            print(f"OSError: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
