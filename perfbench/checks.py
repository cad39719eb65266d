"""Independent checks of the outputs of timed requests.

Each check reaches the answer by a route other than the one the request
timed:

* ``verify``: the report, without its ``#`` lines, equals the committed
  reference report, which ends in ``PASS 29/29``.
* ``char``: the value equals the vertical-strip expansion
  ``character_recpart`` and, at a transposition, Frobenius's formula.
* ``expand``/``table``: every printed polynomial, parsed back from its
  text, JSON or LaTeX form, has leading coefficient ``dim_syt(lam)`` and
  equals ``character_mn`` at n = k + lam_1 + r (the dimension row: at
  n = k + lam_1 + 1, against the hook formula).

A check returns ``None`` when the output is right and a short reason
when it is not.  The caller imports ``charpoly`` from the checkout.
"""

from __future__ import annotations

import json
import re
from math import comb
from pathlib import Path

from charpoly.characters import (
    CycleType,
    character_frobenius_transposition,
    character_mn,
    character_recpart,
)
from charpoly.partitions import Partition
from charpoly.tableaux import dim_syt

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_TERM = re.compile(r"([+-]?\d+)(?:C\(([^,()]+),(\d+)\)|\\binom\{([^{}]+)\}\{(\d+)\})")
_SIGMA = re.compile(r"\\sigma_\{(?:(\d+)|r\\geq(\d+))\}")


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _partition(text: str) -> Partition:
    return Partition(int(p) for p in text.split(",")) if text.strip() else Partition()


def _terms(text: str) -> list[tuple[int, str, int]]:
    """(coefficient, binomial argument, lower index) of a rendered sum."""
    terms = []
    for coeff, arg_text, low_text, arg_tex, low_tex in _TERM.findall(text):
        terms.append((int(coeff), arg_text or arg_tex, int(low_text or low_tex)))
    if not terms and text.strip() not in ("0", ""):
        raise ValueError(f"unparsed terms {text!r}")
    return terms


def _evaluate(terms, n: int, r: int) -> int:
    total = 0
    for coeff, arg, low in terms:
        shift = {"n": 0, "n-r": r}.get(arg)
        if shift is None:
            shift = int(arg.removeprefix("n-"))
        total += coeff * comb(n - shift, low)
    return total


def _b_terms(b: list[int], shift: str) -> list[tuple[int, str, int]]:
    k = len(b) - 1
    return [(bh if h % 2 == 0 else -bh, shift, k - h) for h, bh in enumerate(b)]


def _check_cycle_poly(lam: Partition, r: int, terms) -> str | None:
    """A polynomial claimed to be chi^{(n-k, lam)} at an r-cycle."""
    k = lam.size
    lead = sum(c for c, _, low in terms if low == k)
    if lead != dim_syt(lam):
        return f"r={r}: leading coefficient {lead} != dim_syt {dim_syt(lam)}"
    n = k + (lam[0] if lam else 0) + r
    mu = Partition((n - k,) + tuple(lam))
    expected = character_mn(mu, CycleType((r,) + (1,) * (n - r)))
    got = _evaluate(terms, n, r)
    return None if got == expected else f"r={r}: {got} != character_mn {expected} at n={n}"


def _check_dim_poly(lam: Partition, terms) -> str | None:
    k = lam.size
    n = k + (lam[0] if lam else 0) + 1
    expected = dim_syt(Partition((n - k,) + tuple(lam)))
    got = _evaluate(terms, n, 0)
    return None if got == expected else f"dimension {got} != hook formula {expected} at n={n}"


def _claims(argv: list[str], out: str) -> list[tuple[str, int | None, list]]:
    """The polynomials an expand/table output states: (kind, r, terms)."""
    fmt = _option(argv, "--format")
    lines = out.strip().splitlines()
    claims: list[tuple[str, int | None, list]] = []
    if fmt == "json":
        doc = json.loads(out)
        rows = [doc] if argv[0] == "expand" else doc["rows"]
        for row in rows:
            claims.append(("cycle", row["r"], _b_terms(row["b"], f"n-{row['r']}")))
        if argv[0] == "table":
            coeffs = doc["dim"]["coeffs"]
            claims.append(("dim", None, [(c, "n", m) for m, c in enumerate(coeffs)]))
    elif fmt == "latex":
        r_list = [int(_option(argv, "--r"))] if argv[0] == "expand" else [
            int(r) for r in _option(argv, "--r-list").split(",")]
        for line in lines:
            lhs, rhs = line.removeprefix("\\[").removesuffix("\\]").split(" = ", 1)
            if lhs.startswith("f^"):
                claims.append(("dim", None, _terms(rhs)))
                continue
            fixed, collapsed = _SIGMA.search(lhs).groups()
            if fixed:
                claims.append(("cycle", int(fixed), _terms(rhs)))
            else:
                for r in r_list:
                    if r >= int(collapsed):
                        claims.append(("cycle", r, _terms(rhs)))
    else:
        for line in lines:
            if line.startswith("r="):
                r = int(line.split()[0].removeprefix("r="))
                claims.append(("cycle", r, _terms(line.split(" chi = ", 1)[1])))
            elif line.startswith("chi = "):
                claims.append(("cycle", int(_option(argv, "--r")), _terms(line[6:])))
            elif line.startswith("dim "):
                claims.append(("dim", None, _terms(line.split(" f = ", 1)[1])))
    return claims


def check_expand(argv: list[str], out: str) -> str | None:
    lam = _partition(_option(argv, "--lambda"))
    claims = _claims(argv, out)
    if argv[0] == "expand":
        wanted = {int(_option(argv, "--r"))}
    else:
        wanted = {int(r) for r in _option(argv, "--r-list").split(",")}
    stated = {r for kind, r, _ in claims if kind == "cycle"}
    if stated != wanted:
        return f"rows for r in {sorted(stated)}, asked for {sorted(wanted)}"
    if argv[0] == "table" and sum(kind == "dim" for kind, _, _ in claims) != 1:
        return "no dimension row"
    for kind, r, terms in claims:
        problem = (_check_cycle_poly(lam, r, terms) if kind == "cycle"
                   else _check_dim_poly(lam, terms))
        if problem:
            return problem
    return None


def check_char(argv: list[str], out: str) -> str | None:
    mu = _partition(_option(argv, "--mu"))
    ct = CycleType(_partition(_option(argv, "--ct")))
    got = int(out)
    lam = Partition(mu[1:])
    expected = character_recpart(lam, ct)
    if got != expected:
        return f"{got} != character_recpart {expected}"
    cycles = ct.multiplicities()
    if cycles.get(2) == 1 and cycles.keys() <= {1, 2}:
        frobenius = character_frobenius_transposition(mu)
        if got != frobenius:
            return f"{got} != Frobenius {frobenius}"
    return None


def reference_report(argv: list[str]) -> str:
    bounds = "-".join(_option(argv, flag) for flag in ("--max-k", "--max-r", "--n-window"))
    return (REFERENCE_DIR / f"verify-{bounds}.txt").read_text()


def check_verify(argv: list[str], out: str) -> str | None:
    report = "".join(line for line in out.splitlines(keepends=True)
                     if not line.startswith("#"))
    return None if report == reference_report(argv) else "report differs from the reference"


CHECKS = {"verify": check_verify, "expand": check_expand, "table": check_expand,
          "char": check_char}


def check(argv: list[str], code: int | None, out: str) -> str | None:
    """Why the output of one request is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        return CHECKS[argv[0]](argv, out)
    except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
