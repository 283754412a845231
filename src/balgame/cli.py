"""Command-line front end.

Subcommands: threshold, signs, coloring, witness, maximal, simulate,
play.  Exit codes: 0 success/verified, 1 verification failure, 2 usage
error.  Identical inputs and seeds give byte-identical output.
"""

import argparse
import json
import sys

from . import balance, coloring, fixtures, game, threshold, witness
from .core import (SizeLimitError, canonical_family, format_pointset,
                   parse_family, parse_pointset, vector_to_bits, vsum, zero)


def _emit(args, payload, text_fn):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text_fn(payload))


def cmd_threshold(args):
    rows = []
    ns = [args.n] if args.n is not None else list(range(2, 13))
    for n in ns:
        rep = threshold.critical_M(n)
        rows.append(rep.as_dict())
    if args.verify:
        for n in ns:
            if args.n is None and n > 4:  # an explicit --n is not skipped
                continue
            res = threshold.cross_validate(n, margin=args.margin)
            if not res["flip_exact"]:
                print("cross-validation FAILED for n=%d" % n, file=sys.stderr)
                return 1
            rows[ns.index(n)]["cross_validated"] = True

    def text(rs):
        hdr = "%4s  %-14s  %12s  %12s  %s" % ("n", "class", "r", "M_crit",
                                              "raw bound")
        lines = [hdr]
        for r in rs:
            lines.append("%4d  %-14s  %12d  %12d  %s"
                         % (r["n"], r["class"], r["r"], r["M_crit"],
                            r["raw_bound"]))
        return "\n".join(lines)

    _emit(args, rows, text)
    return 0


def cmd_signs(args):
    if args.odd is not None:
        n = args.odd
        sa = balance.odd_signs(n)
        reported = list(sa.signed_sum())
        payload = {"n": n, "kind": "odd-majority", "signed_sum": reported}
    else:
        n = args.middle
        sa, defect = balance.balance_middle_cached(n)
        reported = list(defect)
        payload = {"n": n, "kind": "middle-layer", "defect": reported}
    rows = [(s, v) for v, s in zip(sa.family.members, sa.signs)]
    table = fixtures.format_sign_table(rows)
    if args.verify:
        # re-add the rows as printed, not the construction's own sum
        printed = fixtures.parse_sign_table(table)
        total = vsum([v for _, v in printed], n, [s for s, _ in printed])
        if list(total) != reported:
            print("sign table FAILED verification: rows sum to %s, not %s"
                  % (list(total), reported), file=sys.stderr)
            return 1
        payload["verified"] = True
    if args.json:
        payload["table"] = [["+" if s == 1 else "-", vector_to_bits(v)]
                            for s, v in rows]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write(table)
        if "defect" in payload:
            print("# defect: %s" % (payload["defect"],))
    return 0


def cmd_coloring(args):
    c = coloring.color_msets(args.m)
    rep = coloring.verify_coloring(c)
    design = coloring.format_design(c)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(design)
    if args.json:
        print(json.dumps(rep, indent=2, sort_keys=True))
    else:
        if not args.out:
            sys.stdout.write(design)
        print("# defect class: %s, defect: %s"
              % (rep["defect_class"], rep["defect"]))
    return 0 if rep["ok"] else 1


def cmd_witness(args):
    with open(args.family) as fh:
        fam = parse_family(fh.read())
    with open(args.set) as fh:
        pts = parse_pointset(fh.read(), n=fam.dim)
    certs = []
    failures = 0
    for x in witness.extreme_points(pts):
        try:
            cert = witness.translate_witness(pts, fam, x)
            certs.append(cert.as_dict())
        except witness.NotApplicableError:
            certs.append({"x": list(x), "skipped": "no strict normal"})
        except witness.TheoremContradictionError as exc:
            certs.append({"x": list(x), "error": str(exc)})
            failures += 1
    print(json.dumps({"family": fam.label, "witnesses": certs},
                     indent=2, sort_keys=True))
    return 1 if failures else 0


def cmd_maximal(args):
    with open(args.family) as fh:
        fam = parse_family(fh.read())
    lo, hi = [], []
    for part in args.window.split(";"):
        a, b = part.split(":")
        lo.append(int(a))
        hi.append(int(b))
    w = game.Window(tuple(lo), tuple(hi))
    cert = game.maximal_vclosed_subset(w, fam)
    doc = cert.as_dict()
    doc["origin_safe"] = zero(fam.dim) in cert.safe
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(json.dumps(doc, sort_keys=True))
        if args.dump:
            sys.stdout.write(format_pointset(cert.safe))
    return 0


def _game_setup(args):
    """Check the options `simulate` and `play` share, before any family
    is built; return the family, M and the region."""
    n = args.n
    balance.check_size(n)
    if args.rounds < 0:
        raise ValueError("--rounds must be >= 0, got %d" % args.rounds)
    if args.M is not None and args.M < 0:
        raise ValueError("region must contain the origin: --M must be "
                         ">= 0, got %d" % args.M)
    f = canonical_family(n)
    m = args.M if args.M is not None else threshold.critical_M(n).m_crit
    return f, m, game.GameRegion(n, (m,) * n)


def cmd_simulate(args):
    n = args.n
    f, m, region = _game_setup(args)
    t, s0, _m = balance.chooser_translate(n)
    chooser = game.ChooserEngine(f, t, s0)
    if args.pusher == "random":
        pusher = game.RandomPusher(f, seed=args.seed)
    else:
        v = game.verdict(region, f)
        if v.winner != "pusher":
            print("rank pusher unavailable: Chooser wins this region",
                  file=sys.stderr)
            return 2
        pusher = game.PusherEngine(v.certificate, region)
    tr = game.simulate(region, f, chooser, pusher, args.rounds)
    payload = {"n": n, "M": m, "rounds_played": len(tr.rounds),
               "outcome": tr.outcome, "final": list(tr.final)}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if tr.outcome == "survived" else 1


def _prompt_eps(z, v, region):
    while True:
        raw = input("offer %s at z=%s (slack %s); your sign [+/-]: "
                    % (v, z, region.slack(z))).strip()
        if raw in ("+", "+1", "1"):
            return 1
        if raw in ("-", "-1"):
            return -1
        print("please answer + or -")


def _prompt_offer(z, f, region):
    while True:
        raw = input("position z=%s (slack %s); offer index 0..%d: "
                    % (z, region.slack(z), len(f) - 1)).strip()
        try:
            k = int(raw)
            if 0 <= k < len(f):
                return f.members[k]
        except ValueError:
            pass
        print("enter a member index between 0 and %d" % (len(f) - 1))


def cmd_play(args):
    n = args.n
    f, m, region = _game_setup(args)
    print("balancing game: n=%d, M=%d, family of %d vectors" % (n, m, len(f)))
    for i, v in enumerate(f.members):
        print("  [%d] %s" % (i, v))
    if args.human == "chooser":
        pusher = game.RandomPusher(f, seed=args.seed)
        chooser = lambda v, z: _prompt_eps(z, v, region)  # noqa: E731
    else:
        t, s0, _m = balance.chooser_translate(n)
        chooser = game.ChooserEngine(f, t, s0)
        pusher = lambda z: _prompt_offer(z, f, region)  # noqa: E731
    try:
        tr = game.simulate(region, f, chooser, pusher, args.rounds)
    except EOFError:
        print("error: input ended before the game did", file=sys.stderr)
        return 2
    print("outcome: %s after %d rounds, final position %s"
          % (tr.outcome, len(tr.rounds), tr.final))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="balgame",
        description="balancing game toolkit: thresholds, sign tables, "
                    "witnesses, colorings, simulation")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("threshold", help="critical M table")
    p.add_argument("--n", type=int)
    p.add_argument("--verify", action="store_true",
                   help="cross-validate small n against the game solver")
    p.add_argument("--margin", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("signs", help="sign tables")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--odd", type=int)
    g.add_argument("--middle", type=int)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_signs)

    p = sub.add_parser("coloring", help="Red/Blue m-set design")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coloring)

    p = sub.add_parser("witness", help="translate witnesses for a V-closed set")
    p.add_argument("--family", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("maximal", help="maximal V-closed subset of a window")
    p.add_argument("--family", required=True)
    p.add_argument("--window", required=True,
                   help="per-coordinate lo:hi, joined with ';'")
    p.add_argument("--dump", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("simulate", help="scripted game simulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int)
    p.add_argument("--pusher", choices=["random", "rank"], default="random")
    p.add_argument("--rounds", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("play", help="interactive terminal game")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int)
    p.add_argument("--human", choices=["pusher", "chooser"],
                   default="pusher")
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_play)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, SizeLimitError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
