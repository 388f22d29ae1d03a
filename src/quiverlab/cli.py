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

from .covariants import ChiData, eval_covariant, validate_chi_data
from .errors import QuiverLabError, RangeViolation, ShapeMismatch
from .fields import field_from_name
from .paths import lusztig_invariants
from .quiver import (
    Quiver,
    RootVec,
    WeightVec,
    _check_len,
    _json_path,
    cartan_data,
    dominance,
    dynkin_quiver,
    enumerate_weyl,
    is_finite_type,
    variety_dimension,
)
from .reflection import (
    check_coxeter,
    reduce_to_dominant,
    reflect_point,
    reflect_word,
    verify_Z_conditions,
)
from .repspace import DimData, FramedPoint, sample_fiber
from .strata import codim_report, count_points_Fq, growth_slope, stratum_dimension

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


def _load_quiver(name):
    if os.path.exists(name):
        with open(name) as fh:
            return Quiver.from_json(json.load(fh))
    if _DYNKIN.match(name):
        return dynkin_quiver(name)
    raise RangeViolation(f"quiver {name!r}: no such file and not a Dynkin name")


def _load_point(path):
    with open(path) as fh:
        obj = json.load(fh)
    return FramedPoint.from_json(obj), _point_weight(obj, "lambda"), _point_weight(obj, "m")


def _point_weight(obj, key):
    """The optional weight `key` of a point file, a list of integers or
    fraction strings; a malformed one is a QuiverLabError that names it."""
    if key not in obj:
        return None
    xs = obj[key]
    if isinstance(xs, list) and all(type(x) in (int, str) for x in xs):
        try:
            return WeightVec(tuple(_weight_token(x) for x in xs))
        except (ValueError, ZeroDivisionError):
            pass
    raise ShapeMismatch(f"point JSON entry {_json_path((key,))} must be a list of "
                        f"integers or fractions, not {xs!r}")


def _resolve_lambda(args, embedded):
    if args.lam is not None:
        return args.lam
    if embedded is not None:
        return embedded
    raise RangeViolation("no --lambda given and none embedded in the point file")


def _point_payload(s, lam=None, m=None, extra=None):
    obj = s.to_json()
    if lam is not None:
        obj["lambda"] = [str(c) for c in lam.coords]
    if m is not None:
        obj["m"] = [str(c) for c in m.coords]
    if extra:
        obj.update(extra)
    return obj


def _dims(args):
    return DimData(WeightVec(args.d), RootVec(args.v))


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
        payload["weyl_order"] = len(enumerate_weyl(q)) if finite else None
    if args.d is not None or args.v is not None:
        if args.d is None or args.v is None:
            raise RangeViolation("--d and --v must be given together")
        d, v = WeightVec(args.d), RootVec(args.v)
        dom = dominance(cd, d, v)
        payload.update(
            {
                "variety_dimension": variety_dimension(cd, d, v),
                "space_dimension": DimData(d, v).space_dimension(q),
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
        _dims(args),
        args.lam,
        seed=args.seed,
        field=field,
        height=args.height,
        retries=args.retries,
    )
    return _point_payload(s, args.lam, args.m), None


def _cmd_reflect(args):
    s, plam, pm = _load_point(args.point)
    lam = _resolve_lambda(args, plam)
    m = args.m if args.m is not None else pm
    res = reflect_point(s, args.vertex, lam, m, side=args.side)
    return _point_payload(res.point, res.lam, res.m, extra={"side": res.side}), None


def _cmd_reflect_word(args):
    s, plam, pm = _load_point(args.point)
    lam = _resolve_lambda(args, plam)
    m = args.m if args.m is not None else pm
    word = [_vertex_token(tok) for tok in args.word.split(",")]
    out = reflect_word(s, word, lam, m)
    steps = [[vert, side] for vert, side in out.steps]
    return _point_payload(out.point, out.lam, out.m, extra={"steps": steps}), None


def _cmd_invariants(args):
    s, _, _ = _load_point(args.point)
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
    if args.point is not None:
        s, _, _ = _load_point(args.point)
        q = s.quiver
        dims = s.dims
    else:
        if args.quiver is None:
            raise RangeViolation("need a point file or --quiver")
        q = _load_quiver(args.quiver)
        s = None
        dims = None
        if args.d is not None and args.v is not None:
            dims = _dims(args)
    with open(args.chi) as fh:
        chi = ChiData.from_json(q, json.load(fh))
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
    q = _load_quiver(args.quiver)
    rep = check_coxeter(
        q,
        WeightVec(args.d),
        RootVec(args.v),
        args.lam,
        args.m,
        trials=args.trials,
        seed=args.seed,
    )
    rows = [("kind", "vertices", "trials", "passes", "ok", "skipped")]
    rows += [(c.kind, " ".join(str(v) for v in c.vertices), c.trials, c.passes, c.ok, c.skipped)
             for c in rep.checks]
    checks = [{**c._asdict(), "ok": c.ok} for c in rep.checks]
    return {"generic": rep.generic, "all_pass": rep.all_pass, "checks": checks}, rows


def _cmd_reduce(args):
    q = _load_quiver(args.quiver)
    tr = reduce_to_dominant(q, WeightVec(args.d), RootVec(args.v), args.lam, args.m)
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
    q = _load_quiver(args.quiver)
    d, v = WeightVec(args.d), RootVec(args.v)
    if args.v_prime is not None:
        dim = stratum_dimension(q, d, v, RootVec(args.v_prime))
        return {"d": args.d, "v": args.v, "v_prime": args.v_prime, "dimension": dim}, None
    rep = codim_report(q, d, v)
    rows = [("v_prime", "dimension", "codimension")]
    rows += [(" ".join(str(c) for c in st.v_prime), st.dimension, st.codimension)
             for st in rep.strata]
    strata = [st._asdict() for st in rep.strata]
    return {**rep._asdict(), "strata": strata, "codim_ge_1": rep.codim_ge_1,
            "codim_ge_2": rep.codim_ge_2}, rows


def _cmd_count(args):
    q = _load_quiver(args.quiver)
    dims = _dims(args)
    for c in args.lam.coords:
        if not isinstance(c, int):
            raise RangeViolation("point counts need integer lambda coordinates")
    per_prime = []
    rows = [("p", "label", "count")]
    results = []
    for p in args.p:
        res = count_points_Fq(q, dims, args.lam, p, budget=args.budget)
        results.append(res)
        strata = [
            {"v_plus": list(vp), "count": c} for vp, c in res.strata
        ]
        per_prime.append(
            {
                "p": res.p,
                "space_dimension": res.space_dimension,
                "total": res.total,
                "strata": strata,
            }
        )
        for vp, c in res.strata:
            rows.append((p, " ".join(str(x) for x in vp), c))
        rows.append((p, "total", res.total))
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
    s, plam, _ = _load_point(args.point)
    s2, _, _ = _load_point(args.point2)
    lam = _resolve_lambda(args, plam)
    rep = verify_Z_conditions(s, s2, args.vertex, lam)
    return {**rep._asdict(), "all_pass": rep.all_pass}, None


# -- parser --------------------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text", "csv"), default="json",
        help="output rendering (csv only for tabular commands)",
    )
    common.add_argument("-o", "--output", help="write to this file instead of stdout")
    # the representation space, for commands that read no point file
    space = argparse.ArgumentParser(add_help=False)
    space.add_argument("--quiver", required=True)
    space.add_argument("--d", type=_int_vec, required=True)
    space.add_argument("--v", type=_int_vec, required=True)
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--lambda", dest="lam", type=_weight_vec, required=True)
    params.add_argument("--m", type=_weight_vec)
    # a point file; these lambda and m override the ones it embeds
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("point")
    point.add_argument("--lambda", dest="lam", type=_weight_vec)
    point.add_argument("--m", type=_weight_vec)

    top = argparse.ArgumentParser(prog="quiverlab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, func, summary, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        p.set_defaults(func=func)
        return p

    p = cmd("info", _cmd_info, "Cartan data, finite type, dimensions")
    p.add_argument("--quiver", required=True)
    p.add_argument("--d", type=_int_vec)
    p.add_argument("--v", type=_int_vec)
    p.add_argument("--weyl", action="store_true", help="also enumerate the Weyl group")

    p = cmd("sample", _cmd_sample, "sample a point on the lambda moment fiber", space, params)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="Q", help="Q, Q(i), or Fp:<prime>")
    p.add_argument("--height", type=int, default=10)
    p.add_argument("--retries", type=int, default=25)

    p = cmd("reflect", _cmd_reflect, "reflect a point at one vertex", point)
    p.add_argument("--vertex", type=_vertex_token, required=True)
    p.add_argument("--side", choices=("auto", "kernel", "cokernel"), default="auto")

    p = cmd("reflect-word", _cmd_reflect_word, "reflect along a word of vertices", point)
    p.add_argument("--word", required=True, help="comma separated vertices, leftmost first")

    p = cmd("invariants", _cmd_invariants, "Lusztig invariants of a point")
    p.add_argument("point")
    p.add_argument("--max-len", type=int, default=4)

    p = cmd("covariant", _cmd_covariant, "evaluate or validate chi-data")
    p.add_argument("point", nargs="?")
    p.add_argument("--chi", required=True, help="chi-data JSON file")
    p.add_argument("--quiver")
    p.add_argument("--d", type=_int_vec)
    p.add_argument("--v", type=_int_vec)
    p.add_argument("--m", type=_weight_vec, help="also check chi-goodness for this weight")

    p = cmd("check-coxeter", _cmd_check_coxeter, "Coxeter relation report", space, params)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    cmd("reduce", _cmd_reduce, "dominance reduction trace", space, params)

    p = cmd("strata", _cmd_strata, "stratum dimensions and codimensions", space)
    p.add_argument("--v-prime", type=_int_vec, help="report a single stratum")

    p = cmd("count", _cmd_count, "stratum point counts of the fiber over F_p", space)
    p.add_argument("--lambda", dest="lam", type=_weight_vec, required=True)
    p.add_argument(
        "--p", "--prime", dest="p", type=_int_vec, required=True,
        help="comma separated primes",
    )
    p.add_argument("--budget", type=int, help="override the enumeration budget")

    p = cmd("verify", _cmd_verify, "check the reflection conditions on a pair")
    p.add_argument("point")
    p.add_argument("point2")
    p.add_argument("--vertex", type=_vertex_token, required=True)
    p.add_argument("--lambda", dest="lam", type=_weight_vec)

    return top


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


main = run


if __name__ == "__main__":
    sys.exit(main())
