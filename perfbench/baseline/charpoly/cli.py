"""Command-line front end.

Subcommands: ``expand`` (one coefficient vector), ``primaries`` (the
r-primary table), ``char`` (one exact character value), ``table`` (the
expansion table of one partition over several cycle lengths, plus the
dimension row), and ``verify`` (the invariant sweeps).

Exit codes: 0 on success, 1 when ``verify`` finds a counterexample, 2 on
usage errors (malformed partitions, size mismatches, bad bounds).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from . import stability
from .characters import CycleType, character_mn
from .partitions import Partition
from .stability import format_terms
from .tableaux import a_coeff
from .verification import Bounds, render_report, report_json_dict, run_suites


def golden_dir() -> Path:
    """Directory holding the byte-exact golden outputs.

    Overridable through the CHARPOLY_GOLDEN_DIR environment variable;
    defaults to the golden/ directory at the repository root.
    """
    env = os.environ.get("CHARPOLY_GOLDEN_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[2] / "golden"


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated descending partition; "" is the empty one."""
    text = text.strip()
    if not text:
        return Partition()
    return Partition(int(piece) for piece in text.split(","))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _fmt_parts(lam: Sequence[int]) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


def _latex_partition(lam: Partition) -> str:
    return "\\emptyset" if not lam else "(" + ",".join(str(p) for p in lam) + ")"


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(args) -> int:
    lam = parse_partition(args.lam)
    exp = stability.char_poly(lam, args.r)
    if args.format == "json":
        print(exp.to_json())
    elif args.format == "latex":
        print(stability.latex_expansion_line(exp))
    else:
        print(f"lambda={_fmt_parts(lam)} r={exp.r} k={exp.k} shift={exp.shift}")
        print(f"b = {_fmt_parts(exp.b)}")
        print(f"chi = {format_terms(exp.b, f'n-{exp.r}')}")
    return 0


def cmd_primaries(args) -> int:
    rows = []
    for h in range(args.max_h + 1):
        for sp in stability.r_primary(args.r, h):
            rows.append((h, sp))
    if args.format == "json":
        doc = {
            "r": args.r,
            "max_h": args.max_h,
            "primaries": [
                {
                    "h": h,
                    "nu": list(sp.partition),
                    "sign": sp.sign,
                    "family": sp.family.value,
                }
                for h, sp in rows
            ],
        }
        print(json.dumps(doc, separators=(",", ":")))
    elif args.format == "latex":
        for h, sp in rows:
            sign = "+1" if sp.sign > 0 else "-1"
            print(
                f"\\[\\varepsilon^{{{args.r}}}_{{{_latex_partition(sp.partition)}}} = {sign}"
                f" \\quad (h = {h},\\ \\text{{{sp.family.value}}})\\]"
            )
    else:
        for h, sp in rows:
            sign = "+" if sp.sign > 0 else "-"
            print(
                f"h={h} nu={_fmt_parts(sp.partition)} sign={sign} family={sp.family.value}"
            )
    return 0


def cmd_char(args) -> int:
    mu = parse_partition(args.mu)
    ct = CycleType(parse_partition(args.ct))
    print(character_mn(mu, ct))
    return 0


def _stable_tail_start(lam: Partition, r_list: list[int]) -> int | None:
    """Index in r_list where a provably infinite run of identical
    coefficient vectors starts, or None.

    The vectors stabilize for every cycle length above the tail value
    exactly when they already match through k + 1, since past k the
    vector is the plain tableau-count one.
    """
    k = lam.size
    vectors = [stability.char_poly(lam, r).b for r in r_list]
    start = len(r_list) - 1
    while start > 0 and vectors[start - 1] == vectors[-1]:
        start -= 1
    r_start = r_list[start]
    reference = vectors[start]
    for r in range(r_start, max(r_start, k + 1) + 1):
        if stability.char_poly(lam, r).b != reference:
            return None
    return start


def cmd_table(args) -> int:
    lam = parse_partition(args.lam)
    r_list = [int(piece) for piece in args.r_list.split(",")]
    if any(r < 1 for r in r_list):
        raise ValueError(f"cycle lengths must be >= 1, got {r_list}")
    k = lam.size
    expansions = [stability.char_poly(lam, r) for r in r_list]
    dim = stability.dim_poly(lam)
    a_vec = [a_coeff(lam, h) for h in range(k + 1)]
    if args.format == "json":
        doc = {
            "lambda": list(lam),
            "k": k,
            "rows": [exp.to_json_dict() for exp in expansions],
            "dim": {"shift": dim.shift, "coeffs": list(dim.coeffs)},
        }
        print(json.dumps(doc, separators=(",", ":")))
    elif args.format == "latex":
        ascending = all(a < b for a, b in zip(r_list, r_list[1:]))
        tail = _stable_tail_start(lam, r_list) if ascending and len(r_list) > 1 else None
        for idx, exp in enumerate(expansions):
            if tail is not None and idx == tail:
                print(stability.latex_expansion_line(exp, collapsed_from=exp.r))
                break
            print(stability.latex_expansion_line(exp))
        print(stability.latex_dimension_line(lam))
    else:
        print(f"lambda={_fmt_parts(lam)} k={k}")
        for exp in expansions:
            terms = format_terms(exp.b, f"n-{exp.r}")
            print(f"r={exp.r} shift={exp.shift} b={_fmt_parts(exp.b)} chi = {terms}")
        print(
            f"dim shift=0 a={_fmt_parts(a_vec)} f = {format_terms(a_vec, 'n')}"
        )
    return 0


def cmd_verify(args) -> int:
    bounds = Bounds(max_k=args.max_k, max_r=args.max_r, n_window=args.n_window)
    started = time.monotonic()
    results = run_suites(bounds, jobs=args.jobs)
    elapsed = time.monotonic() - started
    ok = all(r.ok for r in results if not r.report_only)
    if args.format == "json":
        print(json.dumps(report_json_dict(results), separators=(",", ":")))
    else:
        print(render_report(results))
        print(f"# elapsed: {elapsed:.2f}s")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charpoly",
        description="Exact character polynomials of symmetric groups on cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="coefficient vector of one (lambda, r) expansion")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS",
                   help='partition as descending comma list, e.g. "3,3"; "" is empty')
    p.add_argument("--r", type=_positive_int, required=True, help="cycle length")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("primaries", help="r-primary partitions with signs up to a size")
    p.add_argument("--r", type=_positive_int, required=True, help="cycle length")
    p.add_argument("--max-h", dest="max_h", type=_nonneg_int, required=True)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_primaries)

    p = sub.add_parser("char", help="one exact character value")
    p.add_argument("--mu", required=True, metavar="PARTS", help="shape partition")
    p.add_argument("--ct", required=True, metavar="PARTS",
                   help="cycle type incl. fixed points, e.g. 2,1,1")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("table", help="expansion table over several cycle lengths")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    p.add_argument("--r-list", dest="r_list", required=True, metavar="R,R,...")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the invariant sweeps")
    p.add_argument("--max-k", dest="max_k", type=_positive_int, default=8)
    p.add_argument("--max-r", dest="max_r", type=_positive_int, default=6)
    p.add_argument("--n-window", dest="n_window", type=_positive_int, default=7)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="suite-level parallelism; 1 keeps runs single-process")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
