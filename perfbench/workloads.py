"""The request lists of the benchmark workloads.

A request is one ``charpoly`` command line.  Each workload draws its
requests from a fixed pool with ``random.Random(seed)``, so a seed
always gives the same list, and the expensive part of every list is
the same for every seed: the seed varies only inputs whose cost is
close to that of the ones they replace, or the order of requests whose
summed cost does not depend on it, which keeps run-to-run spread down.
``DEFAULT_SEED`` reproduces the lists committed under
``perfbench/requests/``.

Sizes: ``full`` is what the benchmark measures; ``tiny`` runs every
request type in about a second and exists for the smoke tests.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
WORKLOADS = ("verify", "expand", "char")
SIZES = ("full", "tiny")
FORMATS = ("text", "json", "latex")

# verify: the documented default bounds.  --max-r stays at 6 because
# every --max-r >= 7 exits 2 in the verify sweep (an open defect).
VERIFY_BOUNDS = {"full": (8, 6, 7), "tiny": (4, 3, 2)}

# expand: a few large shapes whose tables fill a skew-count cache of
# more than 100k entries, and cheap rectangles and hooks drawn by seed.
EXPAND_CORE = {
    "full": ((10, 8, 6, 4, 2), (6, 5, 4, 3, 2, 1)),
    "tiny": ((3, 3), (2, 1)),
}
EXPAND_EXTRAS = (
    (4, 4), (5, 5), (3, 3, 3), (4, 4, 4), (6, 6), (2, 2, 2, 2, 2),
    (5, 1, 1), (4, 1, 1, 1), (7, 1), (3, 1, 1, 1, 1, 1), (6, 1, 1, 1), (8, 1, 1),
)
EXPAND_DRAWN = {"full": 4, "tiny": 1}
EXPAND_MAX_R = {"full": 8, "tiny": 3}

# char: (n - k, lam) at one r-cycle padded with fixed points.  Sizes stay
# well below n ~ 1100, where the Murnaghan-Nakayama recursion over fixed
# points raises RecursionError (an open defect).  Every n runs every
# shape at every r, so each n has transpositions, which the check
# compares against Frobenius's formula.  The seed only orders the
# requests: the memoised recursion fills the union of the requests'
# sub-problems whatever the order, so every seed costs the same.
CHAR_SIZES = {"full": (100, 200, 300), "tiny": (10, 20)}
CHAR_SHAPES = ((3, 3), (2, 2, 2), (4, 2))
CHAR_R = (2, 3, 4)


def _parts(lam) -> str:
    return ",".join(str(p) for p in lam)


def verify_requests(rng: random.Random, size: str) -> list[list[str]]:
    max_k, max_r, n_window = VERIFY_BOUNDS[size]
    return [["verify", "--max-k", str(max_k), "--max-r", str(max_r),
             "--n-window", str(n_window), "--jobs", "1"]]


def expand_requests(rng: random.Random, size: str) -> list[list[str]]:
    max_r = EXPAND_MAX_R[size]
    r_list = ",".join(str(r) for r in range(1, max_r + 1))
    out = []
    for lam in EXPAND_CORE[size]:
        for fmt in FORMATS:
            out.append(["table", "--lambda", _parts(lam), "--r-list", r_list, "--format", fmt])
        out.append(["expand", "--lambda", _parts(lam), "--r", str(rng.randint(1, max_r)),
                    "--format", rng.choice(FORMATS)])
    for lam in rng.sample(EXPAND_EXTRAS, EXPAND_DRAWN[size]):
        out.append(["table", "--lambda", _parts(lam), "--r-list", r_list,
                    "--format", rng.choice(FORMATS)])
        out.append(["expand", "--lambda", _parts(lam), "--r", str(rng.randint(1, max_r)),
                    "--format", rng.choice(FORMATS)])
    return out


def char_requests(rng: random.Random, size: str) -> list[list[str]]:
    out = []
    for n in CHAR_SIZES[size]:
        for lam in CHAR_SHAPES:
            for r in CHAR_R:
                mu = (n - sum(lam),) + lam
                out.append(["char", "--mu", _parts(mu), "--ct", _parts((r,) + (1,) * (n - r))])
    rng.shuffle(out)
    return out


BUILDERS = {"verify": verify_requests, "expand": expand_requests, "char": char_requests}


def requests(workload: str, seed: int = DEFAULT_SEED, size: str = "full") -> list[list[str]]:
    """The request list of ``workload`` for ``seed`` at ``size``."""
    return BUILDERS[workload](random.Random(seed), size)
