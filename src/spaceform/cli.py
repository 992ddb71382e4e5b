"""Command-line surface.

Subcommands: validate, orders, isomorphic, fingerprint, certify-pair,
search, construct, crosscheck.  A command ends with a status ("ok" or
"error"), a JSON payload and diagnostics.  By default stdout holds the
indented payload and stderr one "# " line per diagnostic; with --json stdout
holds one canonical line, the record {"status", "payload", "diagnostics"},
whose diagnostics are those stderr lines without "# ".  The exit code is 0
iff status is ok.  Library errors and OSErrors (an --out path that cannot be
a directory) become an error record with exit code 1, and so does an
interrupt (Ctrl-C): a search's pool workers ignore SIGINT and are terminated
by the parent, which writes no table.  Size refusals come from three limits:
spectra.EVALUATION_LIMIT (group walks, F-value vectors, Molien series),
factorint's trial-division bound, and groups.BRUTE_FORCE_LIMIT (orders
--brute).  SPACEFORM_PRIME_SEED shifts the deterministic scans for the
certificate prime (above 10^18), breaking byte-reproducibility between
differently-seeded runs, and for the Molien prime, which no output shows.
It leaves the one-point screen's own prime below 2^30 alone: equal F_G agree
mod every prime = 1 (mod |G|), so that prime never reaches an output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .errors import CertificationFailed, SpaceformError
from .groups import (
    is_fixed_point_free,
    is_isomorphic,
    order_set_bruteforce,
    order_set_formula,
    validate_type1,
)
from .search import (
    SearchConfig,
    certify_pair,
    construct_theorem42_pairs,
    crosscheck_table,
    run_search,
    write_results,
)
from .spectra import SumRep, fingerprint, molien_coefficients


def _reduce_r(m: int, r: int, diags: list[str]) -> int:
    if not 0 <= r < m:
        diags.append(f"r={r} reduced to {r % m} mod m={m}")
    return r % m


def _cmd_validate(args, diags) -> tuple[str, object]:
    g = validate_type1(args.m, args.n, _reduce_r(args.m, args.r, diags))
    payload = {
        "m": g.m, "n": g.n, "r": g.r, "d": g.d, "order": g.order,
        "fixed_point_free": is_fixed_point_free(g), "cyclic": g.is_cyclic,
    }
    return "ok", payload


def _cmd_orders(args, diags) -> tuple[str, object]:
    g = validate_type1(args.m, args.n, _reduce_r(args.m, args.r, diags))
    payload = {"m": g.m, "n": g.n, "r": g.r, "d": g.d, "orders": list(order_set_formula(g))}
    if args.brute:
        brute = list(order_set_bruteforce(g))
        payload["brute"] = brute
        payload["equal"] = brute == payload["orders"]
    return "ok", payload


def _cmd_isomorphic(args, diags) -> tuple[str, object]:
    g1 = validate_type1(args.m, args.n, _reduce_r(args.m, args.r1, diags))
    g2 = validate_type1(args.m, args.n, _reduce_r(args.m, args.r2, diags))
    payload = {
        "m": args.m, "n": args.n, "r1": g1.r, "r2": g2.r,
        "d1": g1.d, "d2": g2.d, "isomorphic": is_isomorphic(g1, g2),
    }
    return "ok", payload


def _parse_reps(text: str) -> tuple[tuple[int, int], ...]:
    """An argparse type: "k1,l1;k2,l2;..." as ((k1, l1), (k2, l2), ...)."""
    try:
        pairs = [chunk.split(",") for chunk in text.split(";")]
        return tuple((int(k), int(l)) for k, l in pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f'{text!r} is not of the form "k1,l1;k2,l2;..."') from None


def _int_at_least(low: int):
    """An argparse type: an integer >= low."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return integer


def _cmd_fingerprint(args, diags) -> tuple[str, object]:
    g = validate_type1(args.m, args.n, _reduce_r(args.m, args.r, diags))
    rep = SumRep.from_pairs(g, args.reps)
    payload = fingerprint(rep).to_dict()
    if args.kmolien is not None:
        payload = {"fingerprint": payload,
                   "molien": list(molien_coefficients(rep, args.kmolien).coefficients)}
    return "ok", payload


def _cmd_certify_pair(args, diags) -> tuple[str, object]:
    g1 = validate_type1(args.m, args.n, _reduce_r(args.m, args.r1, diags))
    g2 = validate_type1(args.m, args.n, _reduce_r(args.m, args.r2, diags))
    try:
        cert = certify_pair(g1, g2)
    except CertificationFailed as exc:
        diags.append(str(exc))
        return "error", {"refuted": True, "failed_check": exc.check, "detail": exc.detail}
    if args.kmolien is not None:
        m1 = molien_coefficients(SumRep.rho11(g1), args.kmolien).coefficients
        m2 = molien_coefficients(SumRep.rho11(g2), args.kmolien).coefficients
        if m1 != m2:
            diags.append("molien coefficients differ")
            return "error", {"refuted": True, "failed_check": "molien"}
        diags.append(f"molien coefficients agree through k={args.kmolien}")
    return "ok", cert.to_dict()


def _pairs_result(certs, out, diags, **header) -> tuple[str, object]:
    """The pair table of a search or construction, noting where it was written."""
    if out:
        diags.append(f"wrote {len(certs)} certificates and pairs.csv to {out}")
    rows = [[c.N, c.m, c.n, c.d, c.r1, c.r2] for c in certs]
    return "ok", {**header, "pair_count": len(certs), "rows": rows}


def _cmd_search(args, diags) -> tuple[str, object]:
    certs = run_search(SearchConfig(n_max=args.nmax, jobs=args.jobs, output_path=args.out))
    return _pairs_result(certs, args.out, diags, n_max=args.nmax)


def _cmd_construct(args, diags) -> tuple[str, object]:
    if args.out:
        os.makedirs(args.out, exist_ok=True)  # a bad path fails before the construction
    certs = construct_theorem42_pairs(args.mmax)
    if args.out:
        write_results(args.out, certs)
    return _pairs_result(certs, args.out, diags, m_max=args.mmax)


def _cmd_crosscheck(args, diags) -> tuple[str, object]:
    certs = run_search(SearchConfig(n_max=args.nmax, jobs=args.jobs))
    return "ok", crosscheck_table(certs)


@lru_cache(maxsize=None)  # one parser per process, however often main runs in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spaceform",
        description="Exact isospectrality engine for Type I spherical space forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive, nonnegative = _int_at_least(1), _int_at_least(0)

    def add(name, handler, help_, rs=()):
        """A subcommand; with rs, it takes the positionals m, n and then rs."""
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(handler=handler)
        sp.add_argument("--json", action="store_true", help="compact canonical JSON output")
        if rs:
            sp.add_argument("m", type=positive)
            sp.add_argument("n", type=positive)
        for arg in rs:
            sp.add_argument(arg, type=int)
        return sp

    add("validate", _cmd_validate, "validate (m, n, r) and report d, fixed-point-freeness", ("r",))
    add("isomorphic", _cmd_isomorphic, "isomorphism test for two groups with equal (m, n)", ("r1", "r2"))

    sp = add("orders", _cmd_orders, "set of element orders, optionally with brute-force check", ("r",))
    sp.add_argument("--brute", action="store_true")

    sp = add("fingerprint", _cmd_fingerprint, "deterministic F_G(z) evaluation record", ("r",))
    sp.add_argument("--reps", type=_parse_reps, default=((1, 1),),
                    help='summands "k1,l1;k2,l2;..." (default 1,1)')
    sp.add_argument("--kmolien", type=nonnegative, default=None, help="also emit Molien coefficients up to K")

    sp = add("certify-pair", _cmd_certify_pair, "full certificate or refutation for a pair", ("r1", "r2"))
    sp.add_argument("--kmolien", type=nonnegative, default=None, help="extra Molien agreement check up to K")

    sp = add("search", _cmd_search, "find all isospectral non-isomorphic pairs with N <= nmax")
    sp.add_argument("--nmax", type=positive, required=True)
    sp.add_argument("--out", type=str, default=None, help="directory for pairs.csv + certificates")
    sp.add_argument("--jobs", type=positive, default=1)

    sp = add("construct", _cmd_construct, "Theorem-4.2 pairs (n = 2d, r1 r2 = -1) up to mmax")
    sp.add_argument("--mmax", type=positive, required=True)
    sp.add_argument("--out", type=str, default=None)

    sp = add("crosscheck", _cmd_crosscheck, "flag every found pair with Theorem-4.2 applicability")
    sp.add_argument("--nmax", type=positive, required=True)
    sp.add_argument("--jobs", type=positive, default=1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    diags: list[str] = []
    try:
        status, payload = args.handler(args, diags)
    except (SpaceformError, OSError, KeyboardInterrupt) as exc:
        message = "interrupted" if isinstance(exc, KeyboardInterrupt) else str(exc)
        status, payload = "error", {"error": type(exc).__name__, "message": message}
        diags.append(message)
    if args.json:
        record = {"status": status, "payload": payload, "diagnostics": diags}
        sys.stdout.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        sys.stderr.writelines(f"# {line}\n" for line in diags)
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    raise SystemExit(main())
