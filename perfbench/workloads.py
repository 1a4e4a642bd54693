"""Workload inputs, drawn from the seed, and the ledger of known failures.

The seed chooses only inputs (Hubbard parameters, observable coefficients,
call order); the mix and the sizes are fixed, so the work per run does not
depend on it.
"""

from __future__ import annotations

import random

WORKLOADS = ("hubbard", "hubbard-large", "decompose", "verify")

HUBBARD_RUNGS = 4
LARGE_RUNGS = 5
LARGE_SECTOR = "e"
LARGE_E0 = -9.7006651521  # t = 1, mu = 0.5, geometric indexing
LARGE_CALLS = 2  # one 20 s call averages over too little of the host's speed drift

# (model, modes, region, operations per pass).  Most operations are
# two-mode Fibonacci fits (about 0.1 s each); the single-mode and
# non-Fibonacci ones take a few ms.  The 11 ``decompose --fixture``
# observables are added to every pass.
DECOMPOSE_REGIONS = (
    ("fibonacci", 3, (1, 2), 5),
    ("fibonacci", 3, (2, 3), 5),
    ("fibonacci", 3, (1, 3), 5),
    ("fibonacci", 4, (2, 3), 5),
    ("fibonacci", 5, (3,), 2),
    ("ising", 3, (2,), 2),
    ("ising", 3, (1, 2), 2),
    ("fermion", 4, (1, 2), 2),
)
DECOMPOSE_SETUPS = 2  # worker processes per run, each with its own set-up

VERIFY_SUITES = ("relations", "locality", "fock", "closure")
VERIFY_MODELS = (("fibonacci", 3), ("ising", 2), ("fermion", 3))
LADDER_MODELS = (("fibonacci", 8), ("ising", 6), ("fermion", 10))

# Operations that fail at the commit that introduced the benchmark, and the
# ROADMAP item that should fix each.  Only these may fail by raising or by
# exit code 2 while the run still counts as correct; a wrong output never does.
KNOWN_FAILURES = {
    "decompose ising n=3 {1,2}": "ROADMAP 4: Ising decomposition rejects a local observable as not local",
    "verify ising relations": "ROADMAP 4: the relations suite needs fibonacci_pair (exit 2)",
    "verify ising fock": "ROADMAP 4: the fock suite needs fibonacci_pair (exit 2)",
    "verify fermion fock": "ROADMAP 4: the fock suite needs fibonacci_pair (exit 2)",
}


def region_label(model: str, n: int, region) -> str:
    return f"decompose {model} n={n} {{{','.join(map(str, region))}}}"


def hubbard_ops(rng: random.Random, count: int) -> list[dict]:
    """Cold ``hubbard --rungs 4`` solves with (t, mu, indexing) from the seed."""
    ops = []
    for _ in range(count):
        t = round(rng.uniform(0.5, 1.5), 6)
        mu = round(rng.uniform(-1.0, 1.0), 6)
        indexing = rng.choice(("geometric", "paper"))
        ops.append({
            "label": "hubbard",
            "check": "hubbard",
            "model": "fibonacci",
            "n_modes": 2 * HUBBARD_RUNGS,
            "argv": ["hubbard", "--rungs", str(HUBBARD_RUNGS), "--t", repr(t),
                     "--mu", repr(mu), "--indexing", indexing, "--out", "{out}"],
        })
    return ops


def hubbard_large_op() -> dict:
    return {
        "label": "hubbard-large",
        "check": "hubbard-large",
        "model": "fibonacci",
        "n_modes": 2 * LARGE_RUNGS,
        "argv": ["hubbard", "--rungs", str(LARGE_RUNGS), "--sector", LARGE_SECTOR,
                 "--t", "1.0", "--mu", "0.5"],
    }


def verify_pass(rng: random.Random) -> list[dict]:
    """One pass: every verify suite and every ladder export, in seeded order."""
    ops = []
    for model, modes in VERIFY_MODELS:
        for suite in VERIFY_SUITES:
            ops.append({
                "label": f"verify {model} {suite}",
                "check": "verify",
                "model": model,
                "argv": ["verify", "--model", model, "--modes", str(modes), "--suite", suite],
            })
    for model, modes in LADDER_MODELS:
        ops.append({
            "label": f"ladder {model}",
            "check": "ladder",
            "model": model,
            "argv": ["ladder", "--model", model, "--modes", str(modes), "--out", "{out}"],
        })
    rng.shuffle(ops)
    return ops
