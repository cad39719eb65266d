import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from importlib.resources import files
from math import comb
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import charpoly.characters as characters
from charpoly.characters import (
    CycleType,
    character_frobenius_transposition,
    character_recpart,
)
import charpoly.cli as cli
from charpoly.cli import main, parse_partition
from charpoly.partitions import NotWeaklyDecreasing, Partition, _known_valid
from charpoly.stability import SignedPartition
from charpoly.tableaux import dim_syt
import charpoly.stability as stability
import charpoly.verification as verification

REFERENCE_REPORTS = sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference").glob("verify-*.txt")
)


def load_schema(name):
    return json.loads((files("charpoly") / "schemas" / name).read_text())


def _modules_after(statement):
    """Names of the modules a fresh interpreter holds after ``statement``."""
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return set(proc.stdout.split())


# prepended to a fresh interpreter's code: ``built`` lists the prog of
# each ArgumentParser made after it
_COUNT_PARSERS = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
"""


class TestImportBudget:
    def test_cli_import_skips_unused_modules(self):
        loaded = _modules_after("import charpoly.cli")
        assert "charpoly.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "fractions", "decimal", "json",
                             "argparse", "gettext", "locale"}

    def test_cli_import_skips_verification(self):
        # the oracles load only when ``verify`` runs
        assert "charpoly.verification" not in _modules_after("import charpoly.cli")

    @pytest.mark.parametrize("argv", [
        ["expand", "--lambda", "3,3", "--r", "2", "--format", "json"],
        ["primaries", "--r", "3", "--max-h", "4"],
        ["char", "--mu", "2,1", "--ct", "2,1"],
        ["table", "--lambda", "2,1", "--r-list", "1,2", "--format", "latex"],
        ["verify", "--max-k", "2", "--max-r", "2", "--n-window", "1", "--jobs", "1"],
    ], ids=lambda argv: argv[0])
    def test_well_formed_request_skips_argparse(self, argv):
        # a request in the plain form is read without argparse, and so
        # without the gettext and locale it loads on its first message
        loaded = _modules_after(
            "import contextlib, io, charpoly.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert charpoly.cli.main({argv!r}) == 0"
        )
        assert "charpoly.cli" in loaded
        assert not loaded & {"argparse", "gettext", "locale"}

    def test_help_loads_argparse(self):
        loaded = _modules_after(
            "import contextlib, io, charpoly.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.suppress(SystemExit):\n"
            "    charpoly.cli.main(['char', '--help'])"
        )
        assert "argparse" in loaded

    def test_cli_import_builds_no_parser(self):
        # neither the import nor a well-formed request builds a parser, so
        # start-up and the request do not pay for one
        code = _COUNT_PARSERS + """
import charpoly.cli
print(len(built))
charpoly.cli.main(["char", "--mu", "1", "--ct", "1"])
print(len(built))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.split() == ["0", "1", "0"]

    def test_only_argparse_cases_build_the_tree(self):
        # well-formed requests of every command build no parser; the first
        # usage error builds the full tree (top level and all five
        # subcommands) once, and later errors reuse it
        code = _COUNT_PARSERS + """
import contextlib, io
import charpoly.cli
with contextlib.redirect_stdout(io.StringIO()):
    charpoly.cli.main(["expand", "--lambda", "2", "--r", "2"])
    charpoly.cli.main(["primaries", "--r", "2", "--max-h", "2"])
    charpoly.cli.main(["table", "--lambda", "2", "--r-list", "2"])
    charpoly.cli.main(["verify", "--max-k", "1", "--max-r", "1", "--n-window", "1"])
print(built)
with contextlib.redirect_stderr(io.StringIO()):
    for argv in (["char", "--mu", "1"], ["char", "--mu", "1", "--ct"]):
        try:
            charpoly.cli.main(argv)
        except SystemExit as exc:
            print(exc.code)
print(built)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.splitlines() == [
            "[]", "2", "2",
            "['charpoly', 'charpoly expand', 'charpoly primaries', 'charpoly char', "
            "'charpoly table', 'charpoly verify']",
        ]

    def test_check_only_helpers_live_in_verification(self):
        # the enumerators, the strip decode and interpolation are not on
        # the path every request imports
        code = """
import charpoly, charpoly.cli
from charpoly import binom_poly, partitions
print(sorted(set(vars(partitions)) & {"partitions_of", "subpartitions", "skew_hooks", "SkewHook"}))
print(sorted(set(vars(binom_poly)) & {"interpolate", "reshift"}))
print(hasattr(charpoly, "skew_hooks"))
from charpoly.verification import (
    SkewHook, interpolate, partitions_of, reshift, skew_hooks, subpartitions)
print(sorted({f.__module__ for f in (
    SkewHook, interpolate, partitions_of, reshift, skew_hooks, subpartitions)}))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.splitlines() == ["[]", "[]", "False", "['charpoly.verification']"]

    def test_verification_import_skips_dataclasses(self):
        loaded = _modules_after("import charpoly.verification")
        assert "charpoly.verification" in loaded
        assert "dataclasses" not in loaded


class TestBenchmarkImports:
    def test_benchmark_scripts_run_on_this_library(self):
        # perfbench/ is a frozen copy that imports library names; a change
        # that drops one of them must fail here, not in the benchmark run
        root = Path(__file__).resolve().parents[1]
        # every request of every workload, through the benchmark's own
        # output checks, so an output the benchmark would reject fails here
        code = f"""
import json, sys
sys.path[:0] = [{str(root / "src")!r}, {str(root / "perfbench")!r}]
import checks, spans, worker
spans.Tracer().install()
requests = [argv for name in ("verify", "expand", "char") for argv in json.loads(
    open({str(root / "perfbench" / "requests")!r} + f"/{{name}}.json").read())]
assert len(requests) == 44, len(requests)
_, _, results = worker.run_requests(requests)
for argv, res in zip(requests, results):
    problem = checks.check(argv, res["code"], res["out"])
    assert problem is None, (argv, problem, res["err"])
worker.cache_stats()
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_every_library_name_the_benchmark_imports_resolves(self):
        # the static half: every ``charpoly`` import anywhere in the
        # scripts, in function bodies too, and every layer the tracer wraps
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        names = set()
        for script in ("checks", "test_smoke", "run", "worker"):
            for node in ast.walk(ast.parse((bench / f"{script}.py").read_text())):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("charpoly"):
                    names.update((node.module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Import):
                    names.update((alias.name, None) for alias in node.names
                                 if alias.name.startswith("charpoly"))
        assert ("charpoly.characters", "character_recpart") in names
        (layers,) = [ast.literal_eval(node.value)
                     for node in ast.parse((bench / "spans.py").read_text()).body
                     if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]]
        names.update((f"charpoly.{layer}", None) for layer in layers)
        missing = sorted(
            f"{module}.{name}" if name else module
            for module, name in names
            if not _resolves(module, name)
        )
        assert missing == []


def _resolves(module, name):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(mod, name)


# spellings of c and of m in c^m, and of plain parts, that int() reads
_SPELLED = {1: ["1", "01", "+1", " 1"], 2: ["2", "02", " 2", "2 "], 3: ["3", "+3"]}


@st.composite
def _power_items(draw, parts):
    """(value, token, plain spelling) items: a plain token, or a c^m token
    and the m copies of c it stands for."""
    items = []
    for _ in range(draw(st.integers(0, 6))):
        c = draw(parts)
        token = draw(st.sampled_from(_SPELLED.get(c, [str(c)])))
        if c >= 1 and draw(st.booleans()):
            m = draw(st.integers(0, 4))
            m_token = draw(st.sampled_from([str(m), f"+{m}", f" {m}", f"0{m}"]))
            items.append((c, f"{token}^{m_token}", [token] * m))
        else:
            items.append((c, token, [token]))
    return items


def _ints_by_token(text):
    # the integer-list reader the shared token reader replaced
    try:
        return list(map(int, text.split(",")))
    except ValueError as exc:
        raise cli.UsageError(exc) from None


def _parse_partition_by_token(text):
    # the parse the distinct-token one replaced: every token read in order
    text = text.strip()
    if not text:
        return Partition()
    try:
        return Partition(_ints_by_token(text))
    except NotWeaklyDecreasing as exc:
        raise cli.UsageError(exc) from None


def _both_spellings(items):
    """The text with its c^m tokens, and the same list written out."""
    return (",".join(token for _, token, _ in items),
            ",".join(t for _, _, plain in items for t in plain))


class TestParsePartition:
    def test_basic(self):
        assert parse_partition("3,3") == Partition([3, 3])
        assert parse_partition("") == Partition()
        assert parse_partition(" 4,2,1 ") == Partition([4, 2, 1])

    def test_rejects_increasing(self):
        # a usage error, with the message the library gives the tuple
        with pytest.raises(cli.UsageError, match=r"^parts 2, 3 increase in \(2, 3\)$"):
            parse_partition("2,3")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_partition("3,x")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        ["1", "2", "4", "01", " 1", "+1", "0", "-1", "x", "", "\u0661", "9" * 4301]
    ), max_size=10), st.booleans())
    def test_same_as_reading_every_token(self, tokens, descending):
        if descending:
            # valid partitions more often: the short integers in descending order
            tokens.sort(key=lambda t: int(t) if len(t) < 9 and t.strip().lstrip("+-").isdigit()
                        else 0, reverse=True)
        text = ",".join(tokens)
        assert _parsed(parse_partition, text) == _parsed(_parse_partition_by_token, text)

    @settings(max_examples=300, deadline=None)
    @given(_power_items(st.integers(0, 4)), st.booleans())
    def test_power_is_its_copies(self, items, descending):
        # value, or the usage error of the written-out parts
        if descending:
            items.sort(key=lambda item: -item[0])
        powers, plain = _both_spellings(items)
        assert _parsed(parse_partition, powers) == _parsed(parse_partition, plain)


class TestExpand:
    @pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json"), ("latex", "tex")])
    def test_golden(self, golden, fmt, ext):
        got = _captured_main(["expand", "--lambda", "3,3", "--r", "2", "--format", fmt])
        assert got == (0, (golden / f"expand_33_r2.{ext}").read_text())

    def test_json_record(self, run_cli):
        code, out, _ = run_cli("expand", "--lambda", "3,3", "--r", "2", "--format", "json")
        assert code == 0
        assert out == '{"lambda":[3,3],"r":2,"k":6,"shift":2,"b":[5,5,3,1,0,0,0]}\n'
        jsonschema.validate(json.loads(out), load_schema("expansion.schema.json"))

    def test_empty_partition_constant(self, run_cli):
        code, out, _ = run_cli("expand", "--lambda", "", "--r", "3")
        assert code == 0
        assert "b = [1]" in out

    def test_r_one_alternative_dimension(self, run_cli):
        code, out, _ = run_cli("expand", "--lambda", "3,3", "--r", "1", "--format", "text")
        assert code == 0
        assert "chi = 5C(n-1,6) -3C(n-1,4) +2C(n-1,3)" in out

    def test_malformed_partition_exits_2(self, run_cli):
        code, _, err = run_cli("expand", "--lambda", "1,3", "--r", "2")
        assert code == 2
        assert "error" in err.lower()

    def test_nonpositive_r_exits_2(self, run_cli):
        code, _, _ = run_cli("expand", "--lambda", "3,3", "--r", "0")
        assert code == 2


class TestModuleSplit:
    def test_stability_computes_cli_renders(self):
        # output formats are decided in cli alone, the stable-tail proof
        # in stability alone, and the package exports are these (coeff_b,
        # the definition oracle, lives in verification)
        code = """
import charpoly, charpoly.cli, charpoly.stability
print(sorted(set(vars(charpoly.stability)) & {
    "shape_in_n", "format_terms", "latex_expansion_line", "latex_dimension_line"}))
print(hasattr(charpoly.stability.CharPolyExpansion, "to_json_dict"))
print(hasattr(charpoly.cli, "_stable_tail_start"))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.splitlines() == ["[]", "False", "False"]
        proc = subprocess.run([sys.executable, "-c", "import charpoly; print(dir(charpoly))"],
                              capture_output=True, text=True, check=True)
        assert ast.literal_eval(proc.stdout) == [
            "BinomPoly", "CycleType", "NotWeaklyDecreasing", "Partition", "SizeMismatch",
            "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
            "__package__", "__path__", "__spec__", "__version__", "binom_poly",
            "char_poly", "character_mn", "characters", "dim_poly", "dim_syt",
            "partitions", "r_primary", "skew_syt_count", "stability", "tableaux",
        ]


class TestPrimaries:
    def test_r3_golden(self, run_cli, golden):
        code, out, _ = run_cli("primaries", "--r", "3", "--max-h", "8")
        assert code == 0
        assert out == (golden / "primaries_r3.txt").read_text()

    def test_r3_json_golden_and_schema(self, run_cli, golden):
        code, out, _ = run_cli("primaries", "--r", "3", "--max-h", "8", "--format", "json")
        assert code == 0
        assert out == (golden / "primaries_r3.json").read_text()
        jsonschema.validate(json.loads(out), load_schema("primaries.schema.json"))

    def test_r1_has_gap_at_one(self, run_cli):
        code, out, _ = run_cli("primaries", "--r", "1", "--max-h", "2")
        assert code == 0
        assert out.splitlines() == [
            "h=0 nu=[] sign=+ family=column",
            "h=2 nu=[2] sign=- family=type3",
        ]

    def test_r2_single_rows_positive(self, run_cli):
        code, out, _ = run_cli("primaries", "--r", "2", "--max-h", "3")
        assert code == 0
        assert out.splitlines() == [
            "h=0 nu=[] sign=+ family=column",
            "h=1 nu=[1] sign=+ family=column",
            "h=2 nu=[2] sign=+ family=type2",
            "h=3 nu=[3] sign=+ family=type3",
        ]

    def test_r3_latex_golden(self, golden):
        # the empty primary is written \emptyset
        got = _captured_main(["primaries", "--r", "3", "--max-h", "8", "--format", "latex"])
        assert got == (0, (golden / "primaries_r3.tex").read_text())

    def test_latex_lines(self, run_cli):
        code, out, _ = run_cli("primaries", "--r", "3", "--max-h", "3", "--format", "latex")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("\\[") and line.endswith("\\]") for line in lines)
        assert "\\varepsilon^{3}_{(2,1)} = +1" in out

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_streamed_json_is_one_document(self, r):
        # item by item, the output is the document json.dumps gives, and
        # r_primary keeps no cache for a row to land in
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["primaries", "--r", str(r), "--max-h", "25", "--format", "json"]) == 0
        assert not hasattr(stability.r_primary, "cache_info")
        doc = {
            "r": r,
            "max_h": 25,
            "primaries": [
                {"h": h, "nu": list(sp.partition), "sign": sp.sign, "family": sp.family.value}
                for h in range(26)
                for sp in stability.r_primary(r, h)
            ],
        }
        assert out.getvalue() == json.dumps(doc, separators=(",", ":")) + "\n"


class TestChar:
    def test_transposition_zero(self, run_cli):
        code, out, _ = run_cli("char", "--mu", "3,3,3", "--ct", "2,1,1,1,1,1,1,1")
        assert (code, out.strip()) == (0, "0")

    def test_trivial(self, run_cli):
        code, out, _ = run_cli("char", "--mu", "9", "--ct", "3,3,3")
        assert (code, out.strip()) == (0, "1")

    def test_hook_on_full_cycle(self, run_cli):
        code, out, _ = run_cli("char", "--mu", "2,1,1", "--ct", "4")
        assert (code, out.strip()) == (0, "1")

    def test_cycle_lengths_in_any_order(self, run_cli):
        # a cycle type is a multiset of lengths: --ct need not descend
        for mu, ct in (("2,1", "1,2"), ("3,1", "1,2,1")):
            descending = ",".join(sorted(ct.split(","), key=int, reverse=True))
            code, out, err = run_cli("char", "--mu", mu, "--ct", ct)
            assert (code, err) == (0, "")
            assert (code, out, err) == run_cli("char", "--mu", mu, "--ct", descending)

    def test_size_mismatch_exits_2(self, run_cli):
        code, _, err = run_cli("char", "--mu", "2,1", "--ct", "4")
        assert code == 2
        assert "error" in err.lower()

    def test_many_fixed_points(self, run_cli):
        # peeling one fixed point per recursion level overflowed the stack near n = 1100
        ct = CycleType([3] + [1] * 1997)
        code, out, err = run_cli("char", "--mu", "1994,3,3", "--ct", ",".join(map(str, ct.cycles)))
        assert (code, err) == (0, "")
        assert int(out) == character_recpart(Partition([3, 3]), ct)

    def test_many_nontrivial_cycles(self, run_cli):
        # 1000 2-cycles; the old peel took one stack frame per cycle and
        # exited 3 with RecursionError.  chi^(m,m)(2^m) = (-1)^m C(m, m/2)
        code, out, err = run_cli("char", "--mu", "1000,1000", "--ct", ",".join(["2"] * 1000))
        assert (code, err) == (0, "")
        assert int(out) == comb(1000, 500)


    def test_stable_shape_at_ten_thousand(self):
        ct = CycleType([4] + [1] * 9996)
        argv = ["char", "--mu", "9994,2,2,2", "--ct", ",".join(map(str, ct.cycles))]
        assert _captured_main(argv) == (0, f"{character_recpart(Partition([2, 2, 2]), ct)}\n")

    @pytest.mark.parametrize("mu", [(9994, 3, 3), (1,) * 300])
    def test_transposition_at_large_n(self, mu):
        ct = "2," + ",".join(["1"] * (sum(mu) - 2))
        argv = ["char", "--mu", ",".join(map(str, mu)), "--ct", ct]
        want = character_frobenius_transposition(Partition(mu))
        assert _captured_main(argv) == (0, f"{want}\n")


def _parse_cycle_type_by_token(text):
    # the parse the counting one replaced: every token read in order
    text = text.strip()
    lengths = _ints_by_token(text) if text else []
    if lengths and min(lengths) < 1:
        raise cli.UsageError(f"cycle lengths must be >= 1, got {lengths}")
    return CycleType(lengths)


def _parsed(parse, text):
    try:
        return parse(text)
    except cli.UsageError as exc:
        return f"UsageError: {exc}"


class _ListedCycleType:
    # CycleType before it kept its fixed points as a count: all the
    # lengths as one sorted Partition
    __slots__ = ("cycles",)

    def __init__(self, cycles=()):
        cycles = sorted(cycles, reverse=True)
        parts = _known_valid(cycles) if cycles and cycles[-1] >= 1 else Partition(cycles)
        object.__setattr__(self, "cycles", parts)

    def __hash__(self):
        # CycleType hashes as its tuple (support, fixed), which the
        # listed cycles give as the lengths >= 2 and the count of 1s
        support = _known_valid([c for c in self.cycles if c > 1])
        return hash((support, self.cycles.count(1)))

    def __repr__(self):
        return f"CycleType(cycles={self.cycles!r})"

    @property
    def n(self):
        return self.cycles.size

    def multiplicities(self):
        return dict(Counter(self.cycles))


def _parse_cycle_type_listing(text, cycle_type=CycleType):
    # the parse that built the cycle type from a list of its n cycles
    text = text.strip()
    tokens = text.split(",") if text else []
    counts = Counter(tokens)
    try:
        values = {token: int(token) for token in counts}
    except ValueError as exc:
        raise cli.UsageError(exc) from None
    if values and min(values.values()) < 1:
        raise cli.UsageError(f"cycle lengths must be >= 1, got {list(map(values.get, tokens))}")
    cycles = []
    for token, count in counts.items():
        cycles += [values[token]] * count
    return cycle_type(cycles)


def _surface(ct):
    """Everything a caller can read off a cycle type, the key order included."""
    counts = ct.multiplicities()
    return hash(ct), repr(ct), ct.cycles, type(ct.cycles), ct.n, counts, list(counts)


_CYCLE_TOKENS = ["1", "2", "3", "7", "01", " 2", "+3", "2 ", "", "0", "-1", "-0", "x", "1.5"]


class TestParseCycleType:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        ["1", "2", "4", "01", " 1", "+1", "0", "-1", "x", "", "\u0661", "9" * 4301]
    ), max_size=10))
    def test_same_as_reading_every_token(self, tokens):
        text = ",".join(tokens)
        assert _parsed(cli._parse_cycle_type, text) == _parsed(_parse_cycle_type_by_token, text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_CYCLE_TOKENS), max_size=12), st.randoms())
    def test_same_as_listing_every_cycle(self, tokens, rng):
        rng.shuffle(tokens)
        text = ",".join(tokens)
        new, old = _parsed(cli._parse_cycle_type, text), _parsed(_parse_cycle_type_listing, text)
        if isinstance(old, str):
            assert new == old
            return
        assert new == old and _surface(new) == _surface(old)
        assert _surface(new) == _surface(_parse_cycle_type_listing(text, _ListedCycleType))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 6), max_size=12), st.randoms())
    def test_constructor_same_as_listed_class(self, lengths, rng):
        rng.shuffle(lengths)
        want = _surface(_ListedCycleType(lengths))
        for cycles in (lengths, tuple(lengths), iter(lengths), Partition(sorted(lengths)[::-1])):
            ct = CycleType(cycles)
            assert _surface(ct) == want
            assert ct == CycleType.of_counts(Counter(lengths))

    @settings(max_examples=300, deadline=None)
    @given(_power_items(st.integers(0, 4)), st.randoms())
    def test_power_is_its_copies(self, items, rng):
        # in any order, mixed with plain tokens; a plain 0 is an error
        # whose message lists the written-out lengths
        rng.shuffle(items)
        powers, plain = _both_spellings(items)
        new, old = _parsed(cli._parse_cycle_type, powers), _parsed(cli._parse_cycle_type, plain)
        assert new == old
        if not isinstance(new, str):
            assert _surface(new) == _surface(old)
            assert _surface(new) == _surface(_parse_cycle_type_listing(plain, _ListedCycleType))


class TestPowerNotation:
    """c^m is m copies of c, in --ct, --mu and --lambda alike."""

    @pytest.mark.parametrize("token, message", [
        ("1^", "c^m token '1^': no m after '^'"),
        ("^3", "c^m token '^3': no c before '^'"),
        ("2^-1", "c^m token '2^-1': m must be >= 0, got -1"),
        ("2^x", "c^m token '2^x': m is not an integer"),
        ("0^2", "c^m token '0^2': c must be >= 1, got 0"),
        ("x^2", "c^m token 'x^2': c is not an integer"),
        ("2^3^4", "c^m token '2^3^4': more than one '^'"),
        ("1^70001", "c^m tokens stand for more than 70000 parts"),
    ])
    @pytest.mark.parametrize("flag", ["--mu", "--ct", "--lambda"])
    def test_malformed_power_exits_2(self, token, message, flag, capsys):
        argv = {"--mu": ["char", "--mu", f"3,{token}", "--ct", "3"],
                "--ct": ["char", "--mu", "3", "--ct", f"3,{token}"],
                "--lambda": ["expand", "--lambda", f"3,{token}", "--r", "2"]}[flag]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_first_bad_token_in_order_is_reported(self, capsys):
        # the distinct tokens are read out of order; the error is still
        # the first bad token's
        assert main(["char", "--mu", "3", "--ct", "3,1,1,y,1,x,1^,1"]) == 2
        assert capsys.readouterr().err == "error: invalid literal for int() with base 10: 'y'\n"
        assert main(["char", "--mu", "3", "--ct", "3,1^,1,y"]) == 2
        assert capsys.readouterr().err == "error: c^m token '1^': no m after '^'\n"

    def test_zero_copies(self, run_cli):
        # 1^0 writes no fixed point, so it is allowed when n = r
        assert run_cli("char", "--mu", "3", "--ct", "3,1^0") == (0, "1\n", "")
        assert _captured_main(["expand", "--lambda", "3,3,1^0", "--r", "2"]) == _captured_main(
            ["expand", "--lambda", "3,3", "--r", "2"])

    @pytest.mark.parametrize("text", ["3,1^1000000000,0", "3,1^35000,1^35001,0"])
    @pytest.mark.parametrize("parse", [parse_partition, cli._parse_cycle_type])
    def test_parts_past_the_cap_build_no_list(self, parse, text):
        # the cap is checked before the token that passes it is written
        # out: a billion parts written out would take 8 GB
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(cli.UsageError,
                               match=r"^c\^m tokens stand for more than 70000 parts$"):
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_parts_at_the_cap(self):
        assert parse_partition("3,1^35000,1^35000") == Partition([3] + [1] * 70_000)
        assert cli._parse_cycle_type("1^35000,3,1^35000") == CycleType.of_counts({3: 1, 1: 70_000})

    @staticmethod
    def _count_int_calls(monkeypatch):
        calls = []

        def counting_int(*args):
            calls.append(args)
            return int(*args)

        monkeypatch.setattr(cli, "int", counting_int, raising=False)
        return calls

    def test_int_called_once_per_distinct_token(self, monkeypatch):
        calls = self._count_int_calls(monkeypatch)
        want = CycleType.of_counts({3: 1, 1: 10**5})
        assert cli._parse_cycle_type("3," + ",".join(["1"] * 10**5)) == want
        assert len(calls) == 2
        calls.clear()
        cli._parse_cycle_type("1,3,2,2,1^2,1,1")
        assert len(calls) <= 5  # 1, 3 and 2, and 1^2 reads both c and m

    def test_partition_reads_each_token_once(self, monkeypatch):
        # in order, one int per plain token and two per c^m token, which
        # is written out with no int per part
        calls = self._count_int_calls(monkeypatch)
        assert parse_partition("3,2,2,1^50000,1") == Partition([3, 2, 2] + [1] * 50_001)
        assert calls == [("3",), ("2",), ("2",), ("1",), ("50000",), ("1",)]

    def test_large_n_through_execve(self, run_cli):
        # written out, the cycle type is 139,991 bytes, past Linux's
        # 128 KiB limit on one argument string
        assert len(",".join(["5"] + ["1"] * 69995)) == 139_991
        assert run_cli("char", "--mu", "69999,1", "--ct", "5,1^69995") == (0, "69994\n", "")


class TestSizeCaps:
    """A shape past a size cap exits 2 before anything is computed."""

    @staticmethod
    def _no_compute(monkeypatch):
        def never(*args):
            raise AssertionError("computed past a cap")

        monkeypatch.setattr(cli, "character_mn", never)
        monkeypatch.setattr(stability, "char_poly", never)

    @pytest.mark.parametrize("argv, message", [
        (["char", "--mu", "100000000", "--ct", "100000000"],
         "mu_1 + len(mu) = 100000001 is past the cap of 100000000"),
        (["char", "--mu", "99999999,1", "--ct", "99999999,1"],
         "mu_1 + len(mu) = 100000001 is past the cap of 100000000"),
        (["char", "--mu", "1000000000000", "--ct", "1000000000000"],
         "mu_1 + len(mu) = 1000000000001 is past the cap of 100000000"),
        (["expand", "--lambda", "10001", "--r", "2"], "|lambda| = 10001 is past the cap of 10000"),
        (["expand", "--lambda", "2^5000,1", "--r", "2"],
         "|lambda| = 10001 is past the cap of 10000"),
        (["table", "--lambda", "5001,5000", "--r-list", "2", "--format", "json"],
         "|lambda| = 10001 is past the cap of 10000"),
    ])
    def test_past_the_cap_exits_2(self, argv, message, monkeypatch, capsys):
        self._no_compute(monkeypatch)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_char_at_the_cap_is_accepted(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "character_mn", lambda mu, ct: seen.append(mu) or 0)
        assert _quiet_main(["char", "--mu", "99999998,1", "--ct", "99999998,1"]) == 0
        assert seen == [Partition([99_999_998, 1])]

    @pytest.mark.parametrize("lam", ["10000", "5000,5000", "1^10000"])
    def test_expand_at_the_cap_runs(self, lam):
        assert _quiet_main(["expand", "--lambda", lam, "--r", "2", "--format", "latex"]) == 0


class TestExitCodes:
    def test_bad_integer_exits_2(self, run_cli):
        code, _, err = run_cli("table", "--lambda", "3,3", "--r-list", "2,x")
        assert code == 2
        assert err.startswith("error:")

    def test_nonpositive_cycle_length_exits_2(self, run_cli):
        code, _, err = run_cli("table", "--lambda", "3,3", "--r-list", "2,0")
        assert code == 2
        assert err.startswith("error:")

    def test_zero_cycle_length_exits_2(self, run_cli):
        # a zero must not vanish as a trailing partition part
        code, out, err = run_cli("char", "--mu", "3", "--ct", "3,0")
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [["char", "--mu=", "--ct=--"],
                                      ["char", "--mu=--", "--ct=1"],
                                      ["table", "--lambda=3", "--r-list=--"]])
    def test_lone_double_dash_value_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_internal_error_exits_3(self, monkeypatch, capsys):
        def broken(lam, r):
            raise ValueError("library bug")

        monkeypatch.setattr(stability, "char_poly", broken)
        code = main(["expand", "--lambda", "3,3", "--r", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "internal error: ValueError: library bug\n"

    @pytest.mark.parametrize("argv, message", [
        (["expand", "--lambda", "1,3", "--r", "2"], "parts 1, 3 increase in (1, 3)"),
        (["table", "--lambda", "2,-1", "--r-list", "1"], "negative part -1 in (2, -1)"),
        (["char", "--mu", "2,1", "--ct", "4"], "|mu| = 3 but cycle type fills 4"),
    ])
    def test_inputs_are_checked_before_any_compute(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("error, message", [
        (characters.SizeMismatch, "|mu| = 3 but cycle type fills 4"),
        (NotWeaklyDecreasing, "parts 1, 2 increase in (1, 2)"),
    ])
    def test_library_error_after_parsing_exits_3(self, error, message, monkeypatch, capsys):
        # raised mid-compute, either is a bug, not a usage error
        def broken(mu, ct):
            raise error(message)

        monkeypatch.setattr(cli, "character_mn", broken)
        code = main(["char", "--mu", "2,1", "--ct", "2,1"])
        assert (code, *capsys.readouterr()) == (
            3, "", f"internal error: {error.__name__}: {message}\n")


_STAIRCASE_80 = ",".join(map(str, range(80, 0, -1)))


class TestLargeIntegers:
    """Exact results past Python's 4,300-digit int-to-str limit."""

    @pytest.mark.parametrize("argv", [
        ["char", "--mu", _STAIRCASE_80, "--ct", ",".join(["1"] * 3240)],
        ["expand", "--lambda", _STAIRCASE_80, "--r", "5"],
        ["expand", "--lambda", _STAIRCASE_80, "--r", "5", "--format", "json"],
        ["expand", "--lambda", _STAIRCASE_80, "--r", "5", "--format", "latex"],
        ["table", "--lambda", _STAIRCASE_80, "--r-list", "5"],
    ])
    def test_output_of_any_size(self, argv):
        # f^lambda of the 80-row staircase has 6,276 digits; it is b[0] of
        # every expansion and the value of char at the identity
        limit = sys.get_int_max_str_digits()
        code, out = _captured_main(argv)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        with cli._exact_output():
            dim = str(dim_syt(Partition(range(80, 0, -1))))
        assert len(dim) > limit
        assert dim in out

    @pytest.mark.parametrize("argv", [
        ["expand", "--lambda", "9" * 4301, "--r", "2"],
        ["expand", "--lambda", "3", "--r", "9" * 4301],
        ["char", "--mu", "1", "--ct", "9" * 4301],
        ["table", "--lambda", "3", "--r-list", "2," + "9" * 4301],
    ])
    def test_inputs_past_the_limit_exit_2(self, argv):
        # run after a large output in the same process: the limit is back
        big = ["char", "--mu", _STAIRCASE_80, "--ct", ",".join(["1"] * 3240)]
        assert _captured_main(big)[0] == 0
        assert _captured_exit(argv) == (2, "")


def _captured_main(argv):
    """(exit code, stdout) of ``main(argv)`` run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _quiet_main(argv):
    return _captured_main(argv)[0]


# every subcommand and format, with argparse exits (a missing option,
# --help) between the runs that succeed
_REUSE_REQUESTS = [
    ["expand", "--lambda", "3,3", "--r", "2"],
    ["char", "--mu", "2,1"],
    ["expand", "--lambda", "3,3", "--r", "2", "--format", "json"],
    ["expand", "--lambda", "2,1", "--r", "3", "--format", "latex"],
    ["char", "--help"],
    ["primaries", "--r", "3", "--max-h", "4"],
    ["primaries", "--r", "2", "--max-h", "3", "--format", "json"],
    ["primaries", "--r", "3", "--max-h", "3", "--format", "latex"],
    ["char", "--mu", "3,3,3", "--ct", "2,1,1,1,1,1,1,1"],
    ["char", "--mu", "2,3", "--ct", "1,1,1,1,1"],
    ["table", "--lambda", "3,3", "--r-list", "2,3,4,5"],
    ["table", "--lambda", "2,1", "--r-list", "1,2", "--format", "json"],
    ["table", "--lambda", "3,3", "--r-list", "2,3,4,5", "--format", "latex"],
    ["verify", "--max-k", "2", "--max-r", "2", "--n-window", "1"],
    ["expand", "--r", "2"],
    ["verify", "--max-k", "2", "--max-r", "2", "--n-window", "1", "--format", "json"],
]


def _exit_out_err(argv, run=main):
    """(exit code, stdout, stderr) of ``run(argv)`` in this process, where
    an argparse exit gives its ``SystemExit`` code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _captured_exit(argv):
    """(exit code, stdout) of ``main(argv)``, as ``_exit_out_err`` gives it."""
    return _exit_out_err(argv)[:2]


def _without_comments(text):
    # text ``verify`` ends in ``#`` lines of seconds, which differ per run
    return "".join(line for line in text.splitlines(True) if not line.startswith("#"))


class TestParserReuse:
    def test_reused_parser_matches_fresh_process(self, run_cli, monkeypatch):
        # help is wrapped to COLUMNS, which the subprocesses inherit
        monkeypatch.setenv("COLUMNS", "80")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        try:
            got = [_captured_exit(argv) for argv in _REUSE_REQUESTS]
            built_by_first_pass = len(built)
            again = [_captured_exit(argv) for argv in _REUSE_REQUESTS]
        finally:
            cli.build_parser.cache_clear()
        assert built_by_first_pass > 0
        assert len(built) == built_by_first_pass
        got = [(code, _without_comments(out)) for code, out in got]
        assert [(code, _without_comments(out)) for code, out in again] == got
        want = [(code, _without_comments(out))
                for code, out, _ in (run_cli(*argv) for argv in _REUSE_REQUESTS)]
        assert got == want
        assert [code for code, _ in got].count(2) == 3
        code, out = got[4]  # char --help
        assert code == 0 and out.startswith("usage: charpoly char")


def _tree_main(argv):
    """``main`` with argparse reading every argv: the full tree parses
    it.  The reference for ``TestRouting`` and ``TestParseRequestFuzz``."""
    args = cli.build_parser().parse_args(argv)
    for name, value in list(vars(args).items()):
        if value == []:
            setattr(args, name, "--")
    try:
        return args.func(args)
    except cli.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 3


# help, top-level errors, left-over arguments, lone "--" values,
# abbreviations, repeats and bad values, each of which argparse treats
# in its own way
_ROUTING_ARGV = [
    [], ["-h"], ["--help"], ["bogus"], ["cha", "--mu", "1", "--ct", "1"],
    ["-x", "char"], ["--", "char", "--mu", "1", "--ct", "1"],
    ["char"], ["char", "-h"], ["char", "--mu", "1", "-h", "--ct", "1"],
    ["char", "--mu", "1", "--ct", "1", "--x"],
    ["char", "--mu", "1", "--ct", "1", "--", "x"],
    ["char", "--mu", "1", "--ct", "1", "extra"],
    ["char", "--mu", "1", "--ct=--"], ["char", "--mu", "1", "--ct", "--"],
    ["char", "--m", "2,1", "--c", "2,1"], ["expand", "--lam", "3,3", "--r", "2"],
    ["char", "-mu", "1", "--ct", "1"],
    ["char", "--mu", "1", "--mu", "2", "--ct", "1", "--ct", "2"],
    ["expand", "--lambda", "3,3", "--r", "2", "--format", "xml"],
    ["expand", "--lambda", "3,3", "--r", "x"],
    ["primaries", "--r", "3", "--max-h", "-1"],
    ["verify", "--max-k", "15"], ["verify", "--max-k", "0"], ["verify", "--help"],
    ["expand", "--lambda", "", "--r", "+2"], ["expand", "--lambda", "3,3", "--r=2"],
    ["char", "--mu", "2,1", "--ct", " 1,2"],
]


class TestRouting:
    @pytest.mark.parametrize("argv", _ROUTING_ARGV, ids=" ".join)
    def test_same_exit_and_output_as_the_full_tree(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert _exit_out_err(argv) == _exit_out_err(argv, run=_tree_main)


# values each flag takes in a request that runs (but verify has no latex
# format); verify's bounds stay at most 2, so that every drawn sweep is short
_GOOD_VALUES = {
    "--lambda": ["3,3", "2,1", "1", ""], "--r": ["1", "2", "3"],
    "--format": ["text", "json", "latex"], "--max-h": ["0", "2", "4"],
    "--mu": ["2,1", "3", "1,1", ""], "--ct": ["2,1", "1,1,1", "3", "1,2"],
    "--r-list": ["1,2", "2", "3,1"], "--max-k": ["1", "2"], "--max-r": ["1", "2"],
    "--n-window": ["1", "2"], "--jobs": ["1", "2"],
}
# values argparse and the plain reader might take differently: blank,
# signed, zero, dash-led, non-integer, a non-ASCII digit (ARABIC-INDIC
# DIGIT TWO, which int() reads as 2) and bad --format choices
_ODD_VALUES = ["", " 2", "+2", "0", "-1", "-x", "-h", "--", "x", "\u0662", "xml", "TEXT"]
_STRAY_TOKENS = ["-h", "--help", "--bogus", "extra", "--"]
_VERIFY_BOUNDS = ("--max-k", "--max-r", "--n-window")


@st.composite
def _request_argvs(draw):
    """An argv for one of the five commands: a well-formed request, or one
    changed in up to two places by an odd value, an abbreviated or
    ``--flag=value`` spelling, a repeated flag, a dropped flag or a stray
    token (help, an unknown flag, a positional, a lone "--").  ``verify``
    keeps its three bounds, so that it never sweeps at its defaults."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[command][3]
    flags = [flag for flag, _ in options]
    picked = [flag for flag, spec in options
              if spec.get("required") or flag in _VERIFY_BOUNDS or draw(st.booleans())]
    # (flag, value, how it is written)
    groups = [(flag, draw(st.sampled_from(_GOOD_VALUES[flag])), "pair")
              for flag in draw(st.permutations(picked))]
    changes = ["value", "spelling", "repeat", "drop", "stray"]
    for change in draw(st.lists(st.sampled_from(changes), max_size=2)):
        i = draw(st.integers(0, len(groups) - 1))
        flag, value, style = groups[i]
        if change == "value":
            groups[i] = (flag, draw(st.sampled_from(_ODD_VALUES)), style)
        elif change == "spelling" and style != "stray":
            groups[i] = (flag, value, draw(st.sampled_from(["abbreviated", "equals"])))
        elif change == "repeat":
            again = draw(st.sampled_from(flags))
            value = draw(st.sampled_from(_GOOD_VALUES[again] + _ODD_VALUES))
            groups.insert(draw(st.integers(0, len(groups))), (again, value, "pair"))
        elif change == "drop" and len(groups) > 1 and flag not in _VERIFY_BOUNDS:
            del groups[i]
        elif change == "stray":
            token = draw(st.sampled_from(_STRAY_TOKENS))
            groups.insert(draw(st.integers(0, len(groups))), (None, token, "stray"))
    argv = [command]
    for flag, value, style in groups:
        argv += {"pair": [flag, value], "abbreviated": [flag and flag[:-1], value],
                 "equals": [f"{flag}={value}"], "stray": [value]}[style]
    return argv


def _in_process_pool(started):
    """A stand-in for ProcessPoolExecutor that maps in this process and
    appends each pool's ``max_workers`` to ``started``: no test starts
    real processes for a large --jobs."""

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return InProcessPool


class TestParseRequestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_request_argvs())
    def test_same_exit_and_output_as_the_full_tree(self, argv):
        # help is wrapped to COLUMNS; --jobs 2 runs its suites in process
        import concurrent.futures

        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("COLUMNS", "80")
            mp.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool([]))
            got, want = _exit_out_err(argv), _exit_out_err(argv, run=_tree_main)
        assert (got[0], _without_comments(got[1]), got[2]) == (
            want[0], _without_comments(want[1]), want[2])


@st.composite
def _char_args(draw):
    """(mu, ct) texts for ``char`` with |mu| <= 30: cycle types summing to
    |mu| or not, unordered, with zeros or negatives, or not integers."""
    mu = sorted(draw(st.lists(st.integers(1, 12), max_size=8).filter(lambda xs: sum(xs) <= 30)),
                reverse=True)
    cycles = []
    left = sum(mu)
    while left:
        cycles.append(draw(st.integers(1, left)))
        left -= cycles[-1]
    cycles = draw(st.permutations(cycles)) if draw(st.booleans()) else sorted(cycles, reverse=True)
    cycles += draw(st.lists(st.integers(-2, 3), max_size=2))
    ct = ",".join(map(str, cycles))
    ct = draw(st.one_of(st.just(ct), st.text(alphabet="0123,- x", max_size=8)))
    return ",".join(map(str, mu)), ct


class TestCharFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_char_args())
    def test_exit_is_success_or_usage_error(self, args):
        mu, ct = args
        got = _captured_main(["char", f"--mu={mu}", f"--ct={ct}"])
        assert got[0] in (0, 2)
        if re.fullmatch(r"[1-9]\d*(,[1-9]\d*)*", ct):
            # a valid cycle type in any order reads as its descending form
            descending = ",".join(sorted(ct.split(","), key=int, reverse=True))
            assert _captured_main(["char", f"--mu={mu}", f"--ct={descending}"]) == got


class TestTable:
    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    def test_r_list_reads_c_to_the_m(self, fmt):
        argv = ["table", "--lambda", "3,3", "--format", fmt, "--r-list"]
        assert _captured_main([*argv, "2^2,3"]) == _captured_main([*argv, "2,2,3"])

    def test_r_list_error_text_for_a_plain_token(self, run_cli):
        code, out, err = run_cli("table", "--lambda", "3,3", "--r-list", "2,x")
        assert (code, out) == (2, "")
        assert err == "error: invalid literal for int() with base 10: 'x'\n"

    def test_text_golden(self, run_cli, golden):
        code, out, _ = run_cli("table", "--lambda", "3,3", "--r-list", "2,3,4,5")
        assert code == 0
        assert out == (golden / "table_33.txt").read_text()

    def test_latex_golden(self, run_cli, golden):
        code, out, _ = run_cli(
            "table", "--lambda", "3,3", "--r-list", "2,3,4,5", "--format", "latex"
        )
        assert code == 0
        assert out == (golden / "table_33.tex").read_text()

    def test_json_golden_and_schema(self, run_cli, golden):
        code, out, _ = run_cli(
            "table", "--lambda", "3,3", "--r-list", "2,3,4,5", "--format", "json"
        )
        assert code == 0
        assert out == (golden / "table_33.json").read_text()
        jsonschema.validate(json.loads(out), load_schema("table.schema.json"))

    @pytest.mark.parametrize("lam, name", [("10,8,6,4,2", "108642"), ("6,5,4,3,2,1", "654321")])
    @pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json"), ("latex", "tex")])
    def test_expand_workload_golden(self, golden, lam, name, fmt, ext):
        got = _captured_main(
            ["table", "--lambda", lam, "--r-list", "1,2,3,4,5,6,7,8", "--format", fmt]
        )
        assert got == (0, (golden / f"table_{name}.{ext}").read_text())

    def test_empty_partition_rows(self, run_cli):
        code, out, _ = run_cli("table", "--lambda", "", "--r-list", "2")
        assert code == 0
        assert "r=2 shift=2 b=[1]" in out
        assert "dim shift=0 a=[1]" in out

    def test_column_matches_first_closed_form(self, run_cli):
        code, out, _ = run_cli("table", "--lambda", "1,1", "--r-list", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["b"] == [1, 1, 0]

    @pytest.mark.parametrize("lam, r_list, calls", [
        ("6,5,4,3,2,1", "1,2,3,4,5,6,7,8", 9),
        ("3,3", "2,3,4,5", 4),
    ])
    def test_latex_expands_each_r_once(self, monkeypatch, lam, r_list, calls):
        # one kernel sum per listed r and per missing r the tail check
        # needs, then one for the dimension row at r = lam_1 + len(lam)
        # unless that r was summed already
        seen = []
        real = stability._b_vector

        def counting(lam, rec, r, top):
            seen.append(r)
            return real(lam, rec, r, top)

        stability._record.cache_clear()
        monkeypatch.setattr(stability, "_b_vector", counting)
        assert _quiet_main(["table", "--lambda", lam, "--r-list", r_list, "--format", "latex"]) == 0
        shape = parse_partition(lam)
        stable = shape[0] + len(shape)
        rows, dimension = seen[:calls], seen[calls:]
        assert len(rows) == len(set(rows)) == calls
        assert dimension == ([] if stable in rows else [stable])

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    def test_repeated_r_expands_once(self, monkeypatch, fmt):
        # lam's record keeps each finished vector, so a repeated r is read
        # back, not summed again
        seen = []
        real = stability._b_vector

        def counting(lam, rec, r, top):
            seen.append(r)
            return real(lam, rec, r, top)

        stability._record.cache_clear()
        monkeypatch.setattr(stability, "_b_vector", counting)
        argv = ["table", "--lambda", "3,3", "--r-list", "2,2,2,3", "--format", fmt]
        code, out = _captured_main(argv)
        assert code == 0
        # the dimension row reads char_poly at r = lam_1 + len(lam)
        assert seen == [2, 3, 5]
        # still one row per listed r
        row = {"text": "\nr=2 ", "json": '"r":2,', "latex": "\\sigma_{2}"}[fmt]
        assert out.count(row) == 3

    def test_json_streams_rows(self):
        # row by row, as text is: the peak stays near the text one instead
        # of growing with len(r_list) x |lambda|
        import tracemalloc

        stability.char_poly(Partition([120]), 1)
        argv = ["table", "--lambda", "120", "--r-list", "1^300", "--format"]
        peaks = {}
        for fmt in ("text", "json"):
            with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
                tracemalloc.start()
                try:
                    assert main([*argv, fmt]) == 0
                    peaks[fmt] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks["json"] < peaks["text"] + 2**19, peaks

    def test_collapse_marks_stable_tail(self, run_cli):
        _, out, _ = run_cli(
            "table", "--lambda", "3,3", "--r-list", "2,3,4,5,6", "--format", "latex"
        )
        assert "\\sigma_{r\\geq5}" in out
        assert "\\sigma_{6}" not in out


class TestVerify:
    def test_small_sweep_passes(self, run_cli):
        code, out, _ = run_cli(
            "verify", "--max-k", "3", "--max-r", "2", "--n-window", "2"
        )
        assert code == 0
        assert "PASS" in out

    def test_tiny_sweep_passes(self, run_cli):
        code, out, _ = run_cli(
            "verify", "--max-k", "1", "--max-r", "1", "--n-window", "1"
        )
        assert code == 0

    def test_deterministic_reports(self, run_cli):
        args = ("verify", "--max-k", "3", "--max-r", "2", "--n-window", "2")
        runs = [run_cli(*args) for _ in range(2)]
        cleaned = [
            [line for line in out.splitlines() if not line.startswith("#")]
            for _, out, _ in runs
        ]
        assert cleaned[0] == cleaned[1]

    def test_jobs_do_not_change_report(self, run_cli):
        base = ("verify", "--max-k", "3", "--max-r", "2", "--n-window", "2")
        _, seq, _ = run_cli(*base)
        _, par, _ = run_cli(*base, "--jobs", "2")
        strip = lambda out: [l for l in out.splitlines() if not l.startswith("#")]
        assert strip(seq) == strip(par)

    def test_jobs_capped_at_one_process_per_suite(self, monkeypatch):
        import concurrent.futures

        started = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(started))
        bounds = verification.Bounds(3, 2, 2)
        many = verification.run_suites(bounds, jobs=10_000)
        one = verification.run_suites(bounds, jobs=1)
        assert started == [len(verification.SUITES)]
        assert verification.render_report(many) == verification.render_report(one)

    def test_suite_seconds_in_text_mode(self, run_cli):
        code, out, _ = run_cli(
            "verify", "--max-k", "2", "--max-r", "2", "--n-window", "1"
        )
        assert code == 0
        lines = out.splitlines()
        suites = [l.split()[2] for l in lines if l.startswith("# suite ")]
        assert suites == [name for name, _ in verification.SUITES]
        assert all(re.fullmatch(r"# suite \S+ \d+\.\d{3}s", l)
                   for l in lines if l.startswith("# suite "))
        assert lines[-2].startswith("# elapsed: ")
        assert re.fullmatch(r"# peak_rss: \d+\.\d{2} MB", lines[-1])

    @pytest.mark.parametrize("jobs, want", [("1", "2.00"), ("2", "5.00")])
    def test_peak_rss_counts_children_only_with_jobs(self, jobs, want, monkeypatch, capsys):
        import concurrent.futures

        peaks = {"self": 2048, "children": 5120}  # KiB, as Linux counts them
        fake = SimpleNamespace(RUSAGE_SELF="self", RUSAGE_CHILDREN="children",
                               getrusage=lambda who: SimpleNamespace(ru_maxrss=peaks[who]))
        monkeypatch.setitem(sys.modules, "resource", fake)
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool([]))
        assert main(["verify", "--max-k", "1", "--max-r", "1", "--n-window", "1",
                     "--jobs", jobs]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"# peak_rss: {want} MB"
        # macOS counts ru_maxrss in bytes
        monkeypatch.setattr(sys, "platform", "darwin")
        assert cli._peak_rss_mb(children=True) == 5120 / 2**20

    def test_peak_rss_line_left_out_without_resource(self, monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "resource", None)  # import raises ImportError
        assert main(["verify", "--max-k", "1", "--max-r", "1", "--n-window", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("# elapsed: ")
        assert not any("peak_rss" in line for line in lines)

    def test_suite_result_starts_empty(self):
        a, b = verification.SuiteResult("x"), verification.SuiteResult("y")
        assert (a.checks, a.failures, a.report_only, a.disagreements) == (0, [], False, 0)
        assert a.ok
        if not a.check(False):
            a.fail("first")
        assert a.failures == ["first"] and not a.ok
        assert b.failures == []
        # the verdict reads the count, not the descriptions
        assert not b.check(False) and b.failures == [] and not b.ok

    def test_band_line_names_its_first_disagreement(self):
        band = verification.SuiteResult("recpart_band", report_only=True)
        if not band.check(True):
            band.fail("never described")
        if not band.check(False):
            band.fail("lam=[1] support=[2] n=3: recpart 1 != mn 0")
        if not band.check(False):
            band.fail("lam=[2] support=[2] n=4: recpart 2 != mn 1")
        quiet = verification.SuiteResult("main_band", report_only=True)
        if not quiet.check(True):
            quiet.fail("never described")
        assert verification.render_report([band, quiet]).splitlines() == [
            f"band {'recpart_band':<32}      3 checks, 2 disagreements (report only); "
            "first: lam=[1] support=[2] n=3: recpart 1 != mn 0",
            f"band {'main_band':<32}      1 checks, 0 disagreements (report only)",
            "PASS 0/0 properties, 4 checks",
        ]

    def test_check_each_matches_check(self):
        rng = random.Random(11)
        for _ in range(200):
            one, each = verification.SuiteResult("one"), verification.SuiteResult("each")
            for b in range(rng.randrange(1, 5)):
                conditions = [rng.random() < 0.7 for _ in range(rng.randrange(8))]
                for j, ok in enumerate(conditions):
                    if not one.check(ok):
                        one.fail(f"{b}:{j}")
                for j in each.check_each(iter(conditions)):
                    each.fail(f"{b}:{j}")
            assert (each.checks, each.disagreements, each.failures) == (
                one.checks, one.disagreements, one.failures
            )

    def test_json_report_matches_golden(self, run_cli, golden):
        code, out, _ = run_cli("verify", "--format", "json")
        assert code == 0
        assert out == (golden / "verify_8_6_7.json").read_text()

    def test_json_report_schema(self, run_cli):
        code, out, _ = run_cli(
            "verify", "--max-k", "2", "--max-r", "2", "--n-window", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("verify.schema.json"))
        assert doc["ok"] is True

    def test_flipped_sign_is_caught(self, monkeypatch, capsys):
        # mutation check: one wrong r-sign must fail the run with a counterexample
        real = stability.r_primary

        def flipped(r, h):
            out = real(r, h)
            if r == 2 and h == 4:
                out = [
                    SignedPartition(sp.partition, -sp.sign, sp.family)
                    if sp.partition == Partition([2, 2])
                    else sp
                    for sp in out
                ]
            return out

        # the oracles' memo of primaries would serve tuples made before
        # the patch, and keep the flipped ones after it
        verification._r_primary.cache_clear()
        monkeypatch.setattr(stability, "r_primary", flipped)
        try:
            code = main(["verify", "--max-k", "5", "--max-r", "3", "--n-window", "2"])
        finally:
            verification._r_primary.cache_clear()
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "lam=" in out

    def test_every_accepted_bound_runs(self):
        # every bound the CLI accepts must run; --max-r >= 7 once raised SizeMismatch
        for max_k in range(1, 5):
            for max_r in range(1, 10):
                for n_window in (1, 2):
                    bounds = verification.Bounds(max_k, max_r, n_window)
                    results = verification.run_suites(bounds)
                    assert all(r.ok for r in results), (bounds, results)

    @pytest.mark.parametrize("flag, cap", [("--max-k", 14), ("--max-r", 14), ("--n-window", 100)])
    def test_bound_past_its_cap_exits_2_before_any_suite(self, flag, cap, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(verification, "run_suites", lambda *a, **kw: ran.append(a))
        assert main(["verify", flag, str(cap + 1)]) == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert captured.err == f"error: {flag} must be <= {cap}, got {cap + 1}\n"
        code, help_text = _captured_exit(["verify", "--help"])
        assert code == 0 and f"at most {cap}" in " ".join(help_text.split())

    def test_band_disagreement_is_described_not_fatal(self, monkeypatch, capsys):
        real_polys, real_eval = verification.recpart_polys, verification.eval_poly

        def marked_polys(lam, supports):
            # the recpart polynomials, each tagged with the end of the band window
            end = lam.size + (lam[0] if lam else 0) + 6
            return {sup: SimpleNamespace(shift=p.shift, coeffs=p.coeffs, band_end=end)
                    for sup, p in real_polys(lam, supports).items()}

        def off_in_band(p, n):
            # wrong only below k + lam_1 + 6, the window of recpart_band
            value = real_eval(p, n)
            return value + 1 if n < getattr(p, "band_end", n) else value

        # the suites share one batch of recpart polynomials per lam, made
        # when first asked, so the memo must not hold unmarked ones, nor keep
        # the marked ones afterwards
        verification._recpart.cache_clear()
        monkeypatch.setattr(verification, "recpart_polys", marked_polys)
        monkeypatch.setattr(verification, "eval_poly", off_in_band)
        try:
            code = main(["verify", "--max-k", "4", "--max-r", "3", "--n-window", "1",
                         "--format", "json"])
        finally:
            verification._recpart.cache_clear()
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, load_schema("verify.schema.json"))
        props = {p["name"]: p for p in doc["properties"]}
        band = props["recpart_band"]
        assert (code, doc["ok"], band["ok"]) == (0, True, True)
        assert band["disagreements"] == band["checks"] > 3
        assert len(band["failures"]) == 3
        assert all(f.startswith("lam=") and "recpart" in f for f in band["failures"])
        assert props["recpart_vs_mn"]["disagreements"] == 0

    @pytest.mark.parametrize("reference", REFERENCE_REPORTS, ids=lambda p: p.stem)
    def test_matches_reference_report(self, reference, capsys):
        max_k, max_r, n_window = reference.stem.split("-")[1:]
        code = main(["verify", "--max-k", max_k, "--max-r", max_r, "--n-window", n_window])
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
        assert code == 0
        assert strip(capsys.readouterr().out) == strip(reference.read_text())

    @pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
    def test_small_report_under_each_supported_python(self, python):
        # pyproject.toml admits Python >= 3.10; the other tests run under one interpreter
        path = shutil.which(python)
        if path is None or subprocess.run([path, "-c", "pass"], capture_output=True).returncode:
            pytest.skip(f"no runnable {python}")
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [path, "-m", "charpoly.cli", "verify", "--max-k", "4", "--max-r", "3",
             "--n-window", "2"],
            capture_output=True, text=True, cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        reference = root / "perfbench" / "reference" / "verify-4-3-2.txt"
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
        assert proc.returncode == 0, proc.stderr
        assert strip(proc.stdout) == strip(reference.read_text())
