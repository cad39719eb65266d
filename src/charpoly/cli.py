"""Command-line front end.

Subcommands: ``expand`` (one coefficient vector), ``primaries`` (the
r-primary table), ``char`` (one exact character value), ``table`` (the
expansion table of one partition over several cycle lengths, plus the
dimension row), and ``verify`` (the invariant sweeps).  The library
computes; this module writes the text, JSON and LaTeX of every command
but ``verify``, whose report ``verification`` writes.

Exit codes: 0 on success, 1 when ``verify`` finds a counterexample, 2 on
usage errors (malformed partitions or integers, size mismatches, bad
bounds or cycle lengths, shapes past a size cap), 3 on any other
exception, which is an internal error and is reported as one
``internal error: ...`` line on stderr.
Each command turns its inputs into library values, and checks them,
before it computes anything, raising ``UsageError`` for a bad one; only
``UsageError`` exits 2, so a library error raised mid-compute, even a
``NotWeaklyDecreasing`` or ``SizeMismatch``, is an internal error.

``--mu``, ``--lambda`` and ``--ct`` take comma lists of integers, read
by one parser, in which a token c^m stands for m copies of c (the
exponent notation of Macdonald, *Symmetric Functions*, I.1), with c at
least 1 and m at least 0: ``--ct 5,1^69995`` is a 5-cycle and 69,995
fixed points, which written out would pass the 128 KiB limit Linux puts
on one argument.  A partition is read token by token, in order, each
c^m written out as m copies of c; ``--ct``, whose cycle lengths come in
any order, is read per distinct token, so a cycle type of n cycles costs
Python work per distinct length, not per cycle.

Each option is declared once, in ``_COMMANDS``.  A well-formed request
(a command, then ``--flag value`` pairs) is read straight from that
table by ``_parse_request``, without importing argparse.  Anything else
(help, usage errors, abbreviations, ``--flag=value``) goes to the
argparse tree that ``build_parser`` makes from the same table, so help
and error messages are argparse's own.
"""

from __future__ import annotations

import sys
import time
from functools import cache
from itertools import groupby, repeat
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Sequence

from . import stability
from .characters import CycleType, character_mn
from .partitions import NotWeaklyDecreasing, Partition

if TYPE_CHECKING:
    import argparse

    from .stability import CharPolyExpansion


class UsageError(ValueError):
    """A command-line value that is not of the accepted form."""


# the most parts the c^m tokens of one option may stand for.  One
# argument of 128 KiB (Linux's limit) holds at most 65,536 written-out
# parts, and 70,000 is the first round figure past that which admits
# ``5,1^69995``: so c^m reaches about the sizes written-out lists did.
_MAX_POWER_PARTS = 70_000

# the largest mu_1 + len(mu) ``char`` takes.  MN holds a shape as a bead
# set, an int of mu_1 + len(mu) bits, so memory grows with it.  10^8
# admits every shape c^m can write and a first row ten times the
# README's one-row example; the README gives what the cap costs.
_MAX_CHAR_SPAN = 100_000_000

# the largest |lambda| ``expand`` and ``table`` take.  A row holds k + 1
# coefficients, and on shapes of few columns their digits grow with k
# too, so the output grows about as k^2.  10^4 admits every shape the
# README and the tests expand; the README gives what the cap costs.
_MAX_EXPAND_SIZE = 10_000


def _int_or_none(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _read_power(token: str) -> tuple[int, int]:
    """(c, m) of a token c^m, which stands for m copies of c (Macdonald's
    exponent notation): c at least 1 and m at least 0, each read by
    ``int``."""
    base, _, exponent = token.partition("^")
    c, m = _int_or_none(base), _int_or_none(exponent)
    if not base.strip():
        reason = "no c before '^'"
    elif not exponent.strip():
        reason = "no m after '^'"
    elif "^" in exponent:
        reason = "more than one '^'"
    elif c is None:
        reason = "c is not an integer"
    elif m is None:
        reason = "m is not an integer"
    elif c < 1:
        reason = f"c must be >= 1, got {c}"
    elif m < 0:
        reason = f"m must be >= 0, got {m}"
    else:
        return c, m
    raise UsageError(f"c^m token {token!r}: {reason}")


def _read_int(token: str) -> int:
    try:
        return int(token)
    except ValueError as exc:  # int's own message, as for any integer option
        raise UsageError(exc) from None


def _check_power_parts(parts: int) -> None:
    """Reject c^m tokens that stand for more than ``_MAX_POWER_PARTS``
    parts in all."""
    if parts > _MAX_POWER_PARTS:
        raise UsageError(f"c^m tokens stand for more than {_MAX_POWER_PARTS} parts")


def _check_cap(name: str, value: int, cap: int) -> None:
    """Reject a request whose ``name`` is past its cap, before any computing."""
    if value > cap:
        raise UsageError(f"{name} = {value} is past the cap of {cap}")


def _written_out(tokens: list[str]) -> list[int]:
    """Every part the tokens stand for, in order: each c^m as m copies of
    c, checked against the cap before it is written out."""
    parts, powered = [], 0
    for token in tokens:
        if "^" in token:
            c, m = _read_power(token)
            powered += m
            _check_power_parts(powered)
            parts += repeat(c, m)
        else:
            parts.append(_read_int(token))
    return parts


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated descending partition; "" is the empty one.
    A token c^m stands for m copies of c, so "3,1^4" is "3,1,1,1,1".

    A list that is not a partition is a usage error, with the message
    ``Partition`` gives the written-out parts."""
    text = text.strip()
    if not text:
        return Partition()
    try:
        return Partition(_written_out(text.split(",")))
    except NotWeaklyDecreasing as exc:
        raise UsageError(exc) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        import argparse

        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# before Python 3.10.7 there is no limit: 0, which means none, and nothing to set
_get_max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_max_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)


class _exact_output:
    """Print integers of any size: lift Python's int-to-str digit limit
    until the block ends.  Enter it only once the inputs are parsed, so
    that the limit still guards parsing.  A plain class, not a generator
    context manager, which costs several times the get and set it wraps."""

    __slots__ = ("_old",)

    def __enter__(self) -> None:
        self._old = _get_max_digits()
        _set_max_digits(0)

    def __exit__(self, *exc_info) -> None:
        _set_max_digits(self._old)


def _fmt_parts(lam: Sequence[int | str]) -> str:
    return "[" + ",".join(map(str, lam)) + "]"


def _latex_partition(lam: Partition) -> str:
    return "\\emptyset" if not lam else "(" + ",".join(str(p) for p in lam) + ")"


def _shape_in_n(lam: Partition) -> str:
    """Render the stable shape (n - k, lam) as it appears under chi or f,
    e.g. "(n-6,3,3)"; the empty partition gives "(n)"."""
    lam = Partition(lam)
    if not lam:
        return "(n)"
    return f"(n-{lam.size}" + "".join(f",{p}" for p in lam) + ")"


def _format_terms(b: Sequence[int | str], arg: str, latex: bool = False) -> str:
    """Render sum of (-1)^h b[h] C(arg, k-h) as text ("5C(n-2,6) -5C(n-2,5)")
    or LaTeX ("5\\binom{n-2}{6} -5\\binom{n-2}{5}"), skipping zero terms.

    Each b[h] is an int or its decimal string, so that a caller that also
    prints the vector converts each coefficient once."""
    k = len(b) - 1
    pieces = []
    for h, bh in enumerate(b):
        digits = str(bh)
        if digits == "0":
            continue
        negative = (digits[0] == "-") != (h % 2 == 1)
        if latex:
            binom = f"\\binom{{{arg}}}{{{k - h}}}"
        else:
            binom = f"C({arg},{k - h})"
        sign = "-" if negative else ("+" if pieces else "")
        pieces.append(f"{sign}{digits.lstrip('-')}{binom}")
    return " ".join(pieces) if pieces else "0"


def _latex_expansion_line(exp: CharPolyExpansion, *, collapsed_from: int | None = None) -> str:
    """One display-math line in the style of the worked (3,3) table.

    With ``collapsed_from`` the line stands for every cycle length >= that
    value: the subscript becomes "r >= a" and the shift is the symbol r.
    """
    if collapsed_from is not None:
        sigma = f"\\sigma_{{r\\geq{collapsed_from}}}"
        arg = "n-r"
    else:
        sigma = f"\\sigma_{{{exp.r}}}"
        arg = f"n-{exp.r}"
    terms = _format_terms(exp.b, arg, latex=True)
    return f"\\[\\chi^{{{_shape_in_n(exp.lam)}}}({sigma}) = {terms}\\]"


def _latex_dimension_line(lam: Partition) -> str:
    """The dimension row: f^{(n-k,lam)} in the plain binomial basis."""
    a = stability.a_vector(lam)
    return f"\\[f^{{{_shape_in_n(lam)}}} = {_format_terms(a, 'n', latex=True)}\\]"


def _expansion_json(exp: CharPolyExpansion) -> dict:
    return {"lambda": list(exp.lam), "r": exp.r, "k": exp.k, "shift": exp.r, "b": list(exp.b)}


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(args) -> int:
    lam = parse_partition(args.lam)
    _check_cap("|lambda|", lam.size, _MAX_EXPAND_SIZE)
    exp = stability.char_poly(lam, args.r)
    with _exact_output():
        if args.format == "json":
            import json

            print(json.dumps(_expansion_json(exp), separators=(",", ":")))
        elif args.format == "latex":
            print(_latex_expansion_line(exp))
        else:
            print(f"lambda={_fmt_parts(lam)} r={exp.r} k={exp.k} shift={exp.r}")
            # each coefficient is written out once and printed twice:
            # int-to-str is quadratic in the digit count
            b = list(map(str, exp.b))
            print(f"b = {_fmt_parts(b)}")
            print(f"chi = {_format_terms(b, f'n-{exp.r}')}")
    return 0


def _stream_json(head: str, items: Iterable, tail: str) -> None:
    """Print ``head``, the JSON array of ``items`` and ``tail``, one item at
    a time: the bytes json.dumps gives for the whole document, without
    holding it."""
    import json

    print(head + "[", end="")
    sep = ""
    for item in items:
        print(sep + json.dumps(item, separators=(",", ":")), end="")
        sep = ","
    print("]" + tail)


def cmd_primaries(args) -> int:
    # each row is written as it is made, and r_primary memoizes nothing,
    # so memory does not grow with --max-h
    rows = ((h, sp) for h in range(args.max_h + 1) for sp in stability.r_primary(args.r, h))
    if args.format == "json":
        items = ({"h": h, "nu": list(sp.partition), "sign": sp.sign, "family": sp.family.value}
                 for h, sp in rows)
        _stream_json(f'{{"r":{args.r},"max_h":{args.max_h},"primaries":', items, "}")
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


def _cut_last_run(text: str) -> tuple[list[str], str, int]:
    """The tokens of a nonempty comma list before its last run of equal
    tokens, that token, and the run's length.  The run, most often the
    fixed points of a cycle type, is cut off by two string scans, making
    no token of it; when some token that ends with the last one lies
    before the run, only the last token is cut."""
    last = text[text.rfind(",") + 1:]
    copies = text.count(last + ",") + 1  # the tokens that end with the last one
    if not ("," + text).endswith(("," + last) * copies):
        copies = 1
    head = len(text) - (len(last) + 1) * copies  # -1 when the run is the whole list
    return (text[:head].split(",") if head >= 0 else []), last, copies


def _parse_cycle_type(text: str) -> CycleType:
    """Parse a comma list of cycle lengths in any order, each at least 1;
    a token c^m stands for m cycles of length c, so "5,1^3" is "5,1,1,1".

    The last run of equal tokens, most often the fixed points, is cut off
    by string scans; the tokens before it are sorted and counted in C.
    Each distinct token is read once, in the order it first appears, so
    that the first bad one words the error.  The cycle type is built from
    the count of each length, with no list of its n cycles."""
    text = text.strip()
    if not text:
        return CycleType()
    head, last, copies = _cut_last_run(text)
    counts = dict.fromkeys(head, 0)
    counts.update((token, len(list(run))) for token, run in groupby(sorted(head)))
    counts[last] = counts.get(last, 0) + copies
    lengths: dict[int, int] = {}
    powered = 0
    for token, count in counts.items():
        if "^" in token:
            c, m = _read_power(token)
            count *= m
            powered += count
        else:
            c = _read_int(token)
        lengths[c] = lengths.get(c, 0) + count
    _check_power_parts(powered)
    if min(lengths) < 1:
        raise UsageError(f"cycle lengths must be >= 1, got {_written_out(text.split(','))}")
    return CycleType.of_counts(lengths)


def cmd_char(args) -> int:
    mu = parse_partition(args.mu)
    _check_cap("mu_1 + len(mu)", mu[0] + len(mu) if mu else 0, _MAX_CHAR_SPAN)
    ct = _parse_cycle_type(args.ct)
    if mu.size != ct.n:
        raise UsageError(f"|mu| = {mu.size} but cycle type fills {ct.n}")
    value = character_mn(mu, ct)
    with _exact_output():
        print(value)
    return 0


def cmd_table(args) -> int:
    lam = parse_partition(args.lam)
    _check_cap("|lambda|", lam.size, _MAX_EXPAND_SIZE)
    r_list = _written_out(args.r_list.split(","))
    if any(r < 1 for r in r_list):
        raise UsageError(f"cycle lengths must be >= 1, got {r_list}")
    k = lam.size
    # one row per listed r; lam's record keeps each vector, so a repeated r is a read
    expansions = [stability.char_poly(lam, r) for r in r_list]
    with _exact_output():
        if args.format == "json":
            # row by row, as text and LaTeX are, so no document of
            # len(r_list) vectors is held
            dim = stability.dim_poly(lam)
            _stream_json(f'{{"lambda":{_fmt_parts(lam)},"k":{k},"rows":',
                         map(_expansion_json, expansions),
                         f',"dim":{{"shift":{dim.shift},"coeffs":{_fmt_parts(dim.coeffs)}}}}}')
        elif args.format == "latex":
            collapsible = len(r_list) > 1 and all(a < b for a, b in zip(r_list, r_list[1:]))
            tail = stability.stable_tail_start(lam, expansions) if collapsible else None
            for idx, exp in enumerate(expansions):
                if tail is not None and idx == tail:
                    print(_latex_expansion_line(exp, collapsed_from=exp.r))
                    break
                print(_latex_expansion_line(exp))
            print(_latex_dimension_line(lam))
        else:
            print(f"lambda={_fmt_parts(lam)} k={k}")
            # as in cmd_expand, each coefficient is written out once
            for exp in expansions:
                b = list(map(str, exp.b))
                terms = _format_terms(b, f"n-{exp.r}")
                print(f"r={exp.r} shift={exp.r} b={_fmt_parts(b)} chi = {terms}")
            a_vec = list(map(str, stability.a_vector(lam)))
            print(
                f"dim shift=0 a={_fmt_parts(a_vec)} f = {_format_terms(a_vec, 'n')}"
            )
    return 0


# The largest bounds ``verify`` accepts, so that every accepted run ends;
# the README gives what they cost.
_VERIFY_CAPS = {"max_k": 14, "max_r": 14, "n_window": 100}


def cmd_verify(args) -> int:
    for name, cap in _VERIFY_CAPS.items():
        value = getattr(args, name)
        if value > cap:
            raise UsageError(f"--{name.replace('_', '-')} must be <= {cap}, got {value}")
    from .verification import Bounds, render_report, report_json_dict, run_suites

    bounds = Bounds(max_k=args.max_k, max_r=args.max_r, n_window=args.n_window)
    started = time.monotonic()
    results = run_suites(bounds, jobs=args.jobs)
    elapsed = time.monotonic() - started
    ok = all(r.ok for r in results)
    if args.format == "json":
        import json

        print(json.dumps(report_json_dict(results), separators=(",", ":")))
    else:
        print(render_report(results))
        for r in results:
            print(f"# suite {r.name} {r.seconds:.3f}s")
        print(f"# elapsed: {elapsed:.2f}s")
        peak = _peak_rss_mb(children=args.jobs > 1)
        if peak is not None:
            print(f"# peak_rss: {peak:.2f} MB")
    return 0 if ok else 1


def _peak_rss_mb(children: bool) -> float | None:
    """The peak resident memory of this process in MB, or with
    ``children`` the larger of that and the peak of its largest
    waited-for child, as ``getrusage`` counts them (``ru_maxrss`` is in
    bytes on macOS and in KiB elsewhere); None where ``resource`` is
    missing."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


# ---------------------------------------------------------------------------
# wiring

_FORMATS = ("text", "json", "latex")

# name -> (help, description, func, options): the one declaration of each
# subcommand.  An option is its flag and the keyword arguments argparse's
# ``add_argument`` takes for it; ``build_parser`` passes them on, and
# ``_parse_request`` reads dest, type, choices, default and required from
# them as argparse would.
_COMMANDS = {
    "expand": ("coefficient vector of one (lambda, r) expansion", None, cmd_expand, (
        ("--lambda", dict(dest="lam", required=True, metavar="PARTS",
                          help='partition as descending comma list, e.g. "3,3"; "" is empty; '
                               'c^m is m copies of c, e.g. "3^2"')),
        ("--r", dict(type=_positive_int, required=True, help="cycle length")),
        ("--format", dict(choices=_FORMATS, default="text")),
    )),
    "primaries": ("r-primary partitions with signs up to a size", None, cmd_primaries, (
        ("--r", dict(type=_positive_int, required=True, help="cycle length")),
        ("--max-h", dict(dest="max_h", type=_nonneg_int, required=True)),
        ("--format", dict(choices=_FORMATS, default="text")),
    )),
    "char": ("one exact character value", None, cmd_char, (
        ("--mu", dict(required=True, metavar="PARTS",
                      help="shape partition as descending comma list, e.g. 3,3,3; c^m is m "
                           "copies of c, e.g. 4,1^3")),
        ("--ct", dict(required=True, metavar="PARTS",
                      help="cycle lengths incl. fixed points, in any order; c^m is m cycles "
                           "of length c, e.g. 2,1,1 or 5,1^69995")),
    )),
    "table": ("expansion table over several cycle lengths", None, cmd_table, (
        ("--lambda", dict(dest="lam", required=True, metavar="PARTS",
                          help='partition as descending comma list; c^m is m copies of c')),
        ("--r-list", dict(dest="r_list", required=True, metavar="R,R,...",
                          help="cycle lengths, one row each, e.g. 2,3,4; c^m is m copies "
                               "of c")),
        ("--format", dict(choices=_FORMATS, default="text")),
    )),
    "verify": (
        "run the invariant sweeps",
        "Run the invariant sweeps.  Each bound has a cap, and a value past "
        "it exits 2.",
        cmd_verify,
        (
            ("--max-k", dict(dest="max_k", type=_positive_int, default=8,
                             help="largest partition size swept, at most "
                                  f"{_VERIFY_CAPS['max_k']}")),
            ("--max-r", dict(dest="max_r", type=_positive_int, default=6,
                             help=f"largest cycle length swept, at most {_VERIFY_CAPS['max_r']}")),
            ("--n-window", dict(dest="n_window", type=_positive_int, default=7,
                                help="values of n checked per polynomial, at most "
                                     f"{_VERIFY_CAPS['n_window']}")),
            ("--jobs", dict(type=_positive_int, default=1,
                            help="suite-level parallelism; 1 keeps runs single-process")),
            ("--format", dict(choices=("text", "json"), default="text")),
        ),
    ),
}


def _request_table(func, options) -> tuple:
    """What ``_parse_request`` reads of one command's options, as argparse
    takes them from the same keyword arguments: {flag: (dest, type or
    None, choices or None)}, the namespace of a request that gives no
    optional flag (``func`` and each optional dest's default), and the set
    of required flags."""
    flags, defaults, required = {}, {"func": func}, set()
    for flag, spec in options:
        dest = spec.get("dest", flag[2:].replace("-", "_"))
        flags[flag] = (dest, spec.get("type"), spec.get("choices"))
        if spec.get("required"):
            required.add(flag)
        else:
            defaults[dest] = spec.get("default")
    return flags, defaults, frozenset(required)


# command -> its request table, built once
_REQUESTS = {name: _request_table(func, options)
             for name, (_, _, func, options) in _COMMANDS.items()}


def _parse_request(argv: Sequence[str]) -> SimpleNamespace | None:
    """The request ``argv`` makes, read straight from its command's
    table in ``_REQUESTS``, or None when argparse must decide.

    Only the plain form is read here: a command, then ``--flag value``
    pairs, each flag one of the command's own names, spelled out and given
    at most once, no value starting with "-", each value accepted by its
    type and its choices, and every required flag given.  argparse reads
    such an argv to the same values.  Everything else (help,
    abbreviations, ``--flag=value``, repeats, positionals, a bad value)
    is left to argparse, so that its help and its error messages stay
    its own.
    """
    request = _REQUESTS.get(argv[0]) if argv else None
    if request is None:
        return None
    flags, defaults, required = request
    given = dict(zip(argv[1::2], argv[2::2]))
    # a flag given twice, a last one alone, or a required one missing
    if 2 * len(given) != len(argv) - 1 or not given.keys() >= required:
        return None
    values = defaults.copy()
    for flag, text in given.items():
        option = flags.get(flag)
        if option is None or text.startswith("-"):  # not the command's flag, or no flag
            return None
        dest, kind, choices = option
        value = text
        if kind is not None:
            try:
                value = kind(text)
            except Exception:  # ValueError or ArgumentTypeError: argparse words it
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, the top level and every subcommand, built from
    ``_COMMANDS`` on the first call and shared after it.

    ``main`` needs it only for what ``_parse_request`` leaves to argparse:
    help, every usage error argparse reports, and the spellings only
    argparse reads.  A well-formed request builds no parser and imports
    no argparse.  Sharing is safe: parsing returns a fresh namespace each
    time, no default is mutable, and help text reads the terminal width
    when it is formatted, not here.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="charpoly",
        description="Exact character polynomials of symmetric groups on cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, description, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, description=description)
        for flag, spec in options:
            command.add_argument(flag, **spec)
        command.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_request(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        for name, value in list(vars(args).items()):
            if value == []:
                # argparse in some Python versions drops an option's lone
                # "--" value ("--ct=--") and leaves []; put back what was typed
                setattr(args, name, "--")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
