"""Command line front end.

Each subcommand reads JSON inputs, runs the exact-arithmetic library, and
prints a single JSON document (or a text/csv rendering of it).  All
randomness flows from the --seed flag, so two runs with the same inputs and
seed produce byte-identical output.

Quiver arguments accept either a path to a quiver JSON file or a Dynkin name
such as "A2" or "D4".  Point files are the JSON emitted by `sample` and
`reflect`; they embed the quiver and, when known, the deformation parameter,
so downstream commands need no extra flags.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .errors import QuiverLabError, RangeViolation, ShapeMismatch
from .fields import field_from_name
from .quiver import (
    Quiver,
    WeightVec,
    _check_len,
    _json_entry,
    _json_path,
    _weyl_order,
    cartan_data,
    dominance,
    dynkin_quiver,
    is_finite_type,
    variety_dimension,
)
from .repspace import DimData, FramedPoint, sample_fiber

# paths, covariants, reflection and strata are imported by the commands
# that call them, so that a command starts on the modules it uses.

_DYNKIN = re.compile(r"^[AaDd]\d+$")


# -- argument helpers ----------------------------------------------------------


def _int_vec(text):
    return tuple(int(tok) for tok in text.split(","))


def _weight_token(tok):
    try:
        f = Fraction(str(tok))
    except ZeroDivisionError:  # argparse reports a ValueError as a usage error
        raise ValueError(f"{tok!r} has a zero denominator") from None
    return int(f) if f.denominator == 1 else f


def _weight_vec(text):
    return WeightVec(tuple(_weight_token(tok) for tok in text.split(",")))


def _vertex_token(tok):
    try:
        return int(tok)
    except ValueError:
        return tok


def _read_json(path, what):
    """The JSON document in the file `path`; one that is not JSON is a
    QuiverLabError that names the file and its role `what`."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise QuiverLabError(f"{what} file {path} is not JSON: {e}") from None


def _load_quiver(name):
    if os.path.exists(name):
        return Quiver.from_json(_read_json(name, "quiver"))
    if _DYNKIN.match(name):
        return dynkin_quiver(name)
    raise RangeViolation(f"quiver {name!r}: no such file and not a Dynkin name")


def _load_point(args, path=None):
    """(point, lambda, m) from the point file `path`, args.point by default;
    a --lambda or --m flag wins over the weight the file embeds.  A command
    that takes --lambda needs one of the two for its first point."""
    obj = _read_json(args.point if path is None else path, "point")
    s, lam, m = FramedPoint.from_json(obj), _point_weight(obj, "lambda"), _point_weight(obj, "m")
    flags = vars(args)
    lam, m = flags.get("lam") or lam, flags.get("m") or m
    if lam is None and path is None and "lam" in flags:
        raise RangeViolation("no --lambda given and none embedded in the point file")
    return s, lam, m


def _point_weight(obj, key):
    """The optional weight `key` of a point file, a list of integers or
    fraction strings; a malformed one is a QuiverLabError that names it."""
    if key not in obj:
        return None
    xs = _json_entry(obj, "point", key, kind="weight", error=ShapeMismatch)
    try:
        return WeightVec(tuple(_weight_token(x) for x in xs))
    except (ValueError, ZeroDivisionError):
        raise ShapeMismatch(f"point JSON entry {_json_path((key,))} must be a list of "
                            f"integers or fractions, not {xs!r}") from None


def _point_payload(s, lam=None, m=None, extra=None):
    obj = s.to_json()
    if lam is not None:
        obj["lambda"] = [str(c) for c in lam.coords]
    if m is not None:
        obj["m"] = [str(c) for c in m.coords]
    if extra:
        obj.update(extra)
    return obj


# -- output --------------------------------------------------------------------


def _flatten(obj, prefix, out):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _flatten(item, f"{prefix}[{i}]", out)
    else:
        out.append(f"{prefix} = {obj}")


def _render(args, payload, csv_rows):
    if args.format == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.format == "text":
        lines = []
        _flatten(payload, "", lines)
        return "\n".join(lines) + "\n"
    rows = [",".join(str(cell) for cell in row) for row in csv_rows]
    return "\n".join(rows) + "\n"


# -- subcommands ---------------------------------------------------------------


def _cmd_info(args):
    q = _load_quiver(args.quiver)
    cd = cartan_data(q)
    finite = is_finite_type(cd)
    payload = {
        "vertices": list(q.vertices),
        "arrow_count": len(q.arrows),
        "adjacency": [list(r) for r in cd.adjacency],
        "cartan": [list(r) for r in cd.cartan],
        "finite_type": finite,
    }
    if args.weyl:
        payload["weyl_order"] = _weyl_order(cd) if finite else None
    if args.d is not None or args.v is not None:
        if args.d is None or args.v is None:
            raise RangeViolation("--d and --v must be given together")
        dom = dominance(cd, args.d, args.v)
        payload.update(
            {
                "variety_dimension": variety_dimension(cd, args.d, args.v),
                "space_dimension": DimData(args.d, args.v).space_dimension(q),
                "dominant": dom.dominant,
                "regular": dom.regular,
                "slacks": list(dom.slacks),
            }
        )
    return payload, None


def _cmd_sample(args):
    q = _load_quiver(args.quiver)
    if args.m is not None:  # m is only written to the point file
        _check_len(q, args.m, "m")
    field = field_from_name(args.field)
    s = sample_fiber(
        q,
        DimData(args.d, args.v),
        args.lam,
        seed=args.seed,
        field=field,
        height=args.height,
        retries=args.retries,
    )
    return _point_payload(s, args.lam, args.m), None


def _cmd_reflect(args):
    from .reflection import reflect_point

    s, lam, m = _load_point(args)
    res = reflect_point(s, args.vertex, lam, m, side=args.side)
    return _point_payload(res.point, res.lam, res.m, extra={"side": res.side}), None


def _cmd_reflect_word(args):
    from .reflection import reflect_word

    s, lam, m = _load_point(args)
    word = [_vertex_token(tok) for tok in args.word.split(",")]
    out = reflect_word(s, word, lam, m)
    steps = [[vert, side] for vert, side in out.steps]
    return _point_payload(out.point, out.lam, out.m, extra={"steps": steps}), None


def _cmd_invariants(args):
    from .paths import lusztig_invariants

    s, _, _ = _load_point(args)
    inv = lusztig_invariants(s, args.max_len)
    entries = [
        {"key": list(key), "value": s.field.dump(val)} for key, val in sorted(inv)
    ]
    rows = [("kind", "path", "row", "col", "value")]
    for e in entries:
        key = e["key"]
        if key[0] == "tr":
            rows.append(("tr", key[1], "", "", e["value"]))
        else:
            rows.append(("fr", key[1], key[2], key[3], e["value"]))
    return {"max_len": args.max_len, "entries": entries}, rows


def _cmd_covariant(args):
    from .covariants import ChiData, eval_covariant, validate_chi_data

    if args.point is not None:
        s, _, _ = _load_point(args)
        q = s.quiver
        dims = s.dims
    else:
        if args.quiver is None:
            raise RangeViolation("need a point file or --quiver")
        q = _load_quiver(args.quiver)
        s = None
        dims = None
        if args.d is not None and args.v is not None:
            dims = DimData(args.d, args.v)
    chi = ChiData.from_json(q, _read_json(args.chi, "chi-data"))
    payload = {"weight": list(chi.weight())}
    if s is not None:
        val = eval_covariant(chi, s)
        payload["value"] = s.field.dump(val)
        payload["nonzero"] = val != s.field.zero()
    if args.m is not None:
        if dims is None:
            raise RangeViolation("chi-goodness needs dims (a point file or --d/--v)")
        violations = validate_chi_data(chi, args.m, dims, q)
        payload["violations"] = violations
        payload["chi_good"] = not violations
    return payload, None


def _cmd_check_coxeter(args):
    from .reflection import check_coxeter

    q = _load_quiver(args.quiver)
    rep = check_coxeter(q, args.d, args.v, args.lam, args.m, trials=args.trials, seed=args.seed)
    rows = [("kind", "vertices", "trials", "passes", "ok", "skipped")]
    rows += [(c.kind, " ".join(str(v) for v in c.vertices), c.trials, c.passes, c.ok, c.skipped)
             for c in rep.checks]
    checks = [{**c._asdict(), "ok": c.ok} for c in rep.checks]
    return {"generic": rep.generic, "all_pass": rep.all_pass, "checks": checks}, rows


def _cmd_reduce(args):
    from .reflection import reduce_to_dominant

    q = _load_quiver(args.quiver)
    tr = reduce_to_dominant(q, args.d, args.v, args.lam, args.m)
    payload = {
        "steps": [
            {"vertex": st.vertex, "kind": st.kind, "v_after": list(st.v_after)}
            for st in tr.steps
        ],
        "v": list(tr.v.coords),
        "lambda": [str(c) for c in tr.lam.coords],
        "m": [str(c) for c in tr.m.coords] if tr.m is not None else None,
        "word": list(tr.word),
        "dominant": tr.dominant,
        "empty": tr.empty,
    }
    return payload, None


def _cmd_strata(args):
    from .strata import codim_report, stratum_dimension

    q = _load_quiver(args.quiver)
    if args.v_prime is not None:
        dim = stratum_dimension(q, args.d, args.v, args.v_prime)
        return {"d": args.d, "v": args.v, "v_prime": args.v_prime, "dimension": dim}, None
    rep = codim_report(q, args.d, args.v)
    rows = [("v_prime", "dimension", "codimension")]
    rows += [(" ".join(str(c) for c in st.v_prime), st.dimension, st.codimension)
             for st in rep.strata]
    strata = [st._asdict() for st in rep.strata]
    return {**rep._asdict(), "strata": strata, "codim_ge_1": rep.codim_ge_1,
            "codim_ge_2": rep.codim_ge_2}, rows


def _cmd_count(args):
    from .strata import count_points_Fq, growth_slope

    q = _load_quiver(args.quiver)
    dims = DimData(args.d, args.v)
    for c in args.lam.coords:
        if not isinstance(c, int):
            raise RangeViolation("point counts need integer lambda coordinates")
    results = [count_points_Fq(q, dims, args.lam, p, budget=args.budget) for p in args.p]
    rows = [("p", "label", "count")]
    for res in results:
        rows += [(res.p, " ".join(str(x) for x in vp), c) for vp, c in res.strata]
        rows.append((res.p, "total", res.total))
    per_prime = [{**res._asdict(), "strata": [{"v_plus": list(vp), "count": c}
                                              for vp, c in res.strata]} for res in results]
    payload = {"per_prime": per_prime}
    if len(results) >= 2:
        slopes = {}
        if all(r.total > 0 for r in results):
            slopes["total"] = growth_slope({r.p: r.total for r in results})
        labels = set.intersection(*(set(vp for vp, _ in r.strata) for r in results))
        strata_slopes = {}
        for vp in sorted(labels):
            strata_slopes[",".join(str(x) for x in vp)] = growth_slope(
                {r.p: r.stratum_count(vp) for r in results}
            )
        slopes["strata"] = strata_slopes
        payload["slopes"] = slopes
    return payload, rows


def _cmd_verify(args):
    from .reflection import verify_Z_conditions

    s, lam, _ = _load_point(args)
    s2, _, _ = _load_point(args, args.point2)
    rep = verify_Z_conditions(s, s2, args.vertex, lam)
    return {**rep._asdict(), "all_pass": rep.all_pass}, None


# -- parser --------------------------------------------------------------------


def _arg(*flags, **kwargs):
    """One add_argument call, kept as data."""
    return flags, kwargs


_COMMON = (
    _arg("--format", choices=("json", "text", "csv"), default="json",
         help="output rendering (csv only for tabular commands)"),
    _arg("-o", "--output", help="write to this file instead of stdout"),
)
# the representation space, for commands that read no point file
_SPACE = (
    _arg("--quiver", required=True),
    _arg("--d", type=_int_vec, required=True),
    _arg("--v", type=_int_vec, required=True),
)
_PARAMS = (
    _arg("--lambda", dest="lam", type=_weight_vec, required=True),
    _arg("--m", type=_weight_vec),
)
# a point file; these lambda and m override the ones it embeds
_POINT = (
    _arg("point"),
    _arg("--lambda", dest="lam", type=_weight_vec),
    _arg("--m", type=_weight_vec),
)

# name -> (handler, summary, arguments after _COMMON), in the order the usage lists
_COMMANDS = {
    "info": (_cmd_info, "Cartan data, finite type, dimensions", (
        _arg("--quiver", required=True),
        _arg("--d", type=_int_vec),
        _arg("--v", type=_int_vec),
        _arg("--weyl", action="store_true", help="also report the order of the Weyl group"),
    )),
    "sample": (_cmd_sample, "sample a point on the lambda moment fiber", (
        *_SPACE, *_PARAMS,
        _arg("--seed", type=int, default=0),
        _arg("--field", default="Q", help="Q, Q(i), or Fp:<prime>"),
        _arg("--height", type=int, default=10),
        _arg("--retries", type=int, default=25),
    )),
    "reflect": (_cmd_reflect, "reflect a point at one vertex", (
        *_POINT,
        _arg("--vertex", type=_vertex_token, required=True),
        _arg("--side", choices=("auto", "kernel", "cokernel"), default="auto"),
    )),
    "reflect-word": (_cmd_reflect_word, "reflect along a word of vertices", (
        *_POINT,
        _arg("--word", required=True, help="comma separated vertices, leftmost first"),
    )),
    "invariants": (_cmd_invariants, "Lusztig invariants of a point", (
        _arg("point"),
        _arg("--max-len", type=int, default=4),
    )),
    "covariant": (_cmd_covariant, "evaluate or validate chi-data", (
        _arg("point", nargs="?"),
        _arg("--chi", required=True, help="chi-data JSON file"),
        _arg("--quiver"),
        _arg("--d", type=_int_vec),
        _arg("--v", type=_int_vec),
        _arg("--m", type=_weight_vec, help="also check chi-goodness for this weight"),
    )),
    "check-coxeter": (_cmd_check_coxeter, "Coxeter relation report", (
        *_SPACE, *_PARAMS,
        _arg("--trials", type=int, default=50),
        _arg("--seed", type=int, default=0),
    )),
    "reduce": (_cmd_reduce, "dominance reduction trace", (*_SPACE, *_PARAMS)),
    "strata": (_cmd_strata, "stratum dimensions and codimensions", (
        *_SPACE,
        _arg("--v-prime", type=_int_vec, help="report a single stratum"),
    )),
    "count": (_cmd_count, "stratum point counts of the fiber over F_p", (
        *_SPACE,
        _arg("--lambda", dest="lam", type=_weight_vec, required=True),
        _arg("--p", "--prime", dest="p", type=_int_vec, required=True,
             help="comma separated primes"),
        _arg("--budget", type=int, help="override the enumeration budget"),
    )),
    "verify": (_cmd_verify, "check the reflection conditions on a pair", (
        _arg("point"),
        _arg("point2"),
        _arg("--vertex", type=_vertex_token, required=True),
        _arg("--lambda", dest="lam", type=_weight_vec),
    )),
}


def _build_parser(command=None):
    """The parser of every subcommand, or, given a command name, the same
    top parser holding that one subparser."""
    top = argparse.ArgumentParser(prog="quiverlab", description=__doc__)
    # with one subparser the metavar keeps every command in the top usage line
    # that an unrecognized argument prints; with all of them it stays unset,
    # so that a missing or unknown command is named "argument command"
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        func, summary, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flags, kwargs in (*_COMMON, *arguments):
            p.add_argument(*flags, **kwargs)
    return top


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        payload, csv_rows = args.func(args)
    except (QuiverLabError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.format == "csv" and csv_rows is None:
        print("error: csv output is not available for this command", file=sys.stderr)
        return 2
    text = _render(args, payload, csv_rows)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.output}: {e.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


main = run


if __name__ == "__main__":
    sys.exit(main())
