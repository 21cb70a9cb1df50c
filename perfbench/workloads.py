"""The four benchmark workloads: seeded configs, CLI steps and output checks.

Each workload is a sequence of ``folnerdom`` subcommands run on one
generated config.  The sizes are chosen so that one pass takes a few
seconds on a 2-core machine, which lets a run of the benchmark average
over many cold passes; the shape of each workload (depth, number
of materialized powers, which layer dominates) follows the shipped
configs it stands in for.

BENCHMARK.json lists two of them, z-certify and quotient-transfer, which
between them reach every layer.  lamplighter-certify (the lamplighter law
and convolve_at over a large power) and heisenberg-sweep-capped (the
Heisenberg law and the truncation path) stay runnable with --workload but
are left out of that list: the host's CPU speed drifts by 10-20% over
minutes, and only runs near the longest that the time budget allows for two
workloads keep run-to-run spread well inside the bounds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

# Outputs are compared byte for byte with this record, taken at DEFAULT_SEED
# on a commit whose outputs are the reference.
RECORD_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple  # CLI argument tuples; --config/--out/--seed are appended
    outputs: tuple  # every file the steps must leave in the output directory
    seeded: bool  # True when the generated config depends on the seed
    make_config: Callable[[int], dict]  # seed -> CLI config


def _chain_outputs(depth: int) -> tuple:
    sets = tuple(f"{t}_{n}.set" for n in range(1, depth + 1) for t in "FE")
    return sets + ("omega.csv", "chain.json", "dominance.json", "dominance.csv")


QUOTIENT_MODULUS = 24


def quotient_config(seed: int) -> dict:
    """Z acting on Z/24; the observable is a seeded rank-2 PSD integer matrix.

    With 24 | 2r for the largest convergence radius r = 32772, exactly one
    residue class gets one extra point of the ball, so the final
    convergence distance is at most 36/65545 < 1/1000 for every seed.
    """
    rng = random.Random(seed)
    m = QUOTIENT_MODULUS
    v = [rng.randint(-3, 3) for _ in range(m)]
    w = [rng.randint(-3, 3) for _ in range(m)]
    rows = [[str(v[i] * v[j] + w[i] * w[j]) for j in range(m)] for i in range(m)]
    return {
        "schema": 1,
        "group": "zd:1",
        "schedule": {"tail_base": 2, "length_base": 2, "depth": 2},
        "folner": {"kind": "balls", "radii": [2, 16]},
        "action": {"modulus": m},
        "simulate": {
            "observable": {"kind": "matrix", "rows": rows},
            "convergence_radii": [64, 512, 4096, 32772],
            "tolerance": "1/1000",
            "eps": "1/8",
            "kadison_trials": 25,
            "kadison_dim": 8,
        },
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "z-certify",
            "Z depth 3 with six materialized powers: dense exact convolution leads, the lamplighter law is bypassed",
            (("chain",), ("dominate",)),
            _chain_outputs(3),
            False,
            lambda seed: {
                "schema": 1,
                "group": "zd:1",
                "schedule": {"tail_base": 2, "length_base": 2, "depth": 3},
                "folner": {"kind": "balls", "radii": [1, 2, 4]},
            },
        ),
        Workload(
            "lamplighter-certify",
            "lamplighter depth 2: convolve_at over the large second power with inv/mul leads, as on the shipped config",
            (("chain",), ("dominate",)),
            _chain_outputs(2),
            False,
            lambda seed: {
                "schema": 1,
                "group": "lamplighter",
                "schedule": {"tail_base": 2, "length_base": 2, "depth": 2},
                "folner": {"kind": "balls", "radii": [1, 3]},
            },
        ),
        Workload(
            "quotient-transfer",
            "simulate on Z/24 with a seeded PSD matrix: exact matrix pushes lead, convolution is negligible",
            (("simulate",),),
            ("simulate.csv",),
            True,
            quotient_config,
        ),
        Workload(
            "heisenberg-sweep-capped",
            "Heisenberg sweep over two tail bases with a binding cap: truncation path and a mixed convolve/convolve_at profile",
            (("sweep", "--cap", "4000"),),
            ("sweep.csv",),
            False,
            lambda seed: {
                "schema": 1,
                "group": "heisenberg",
                "schedule": {"tail_base": 2, "length_base": 2, "depth": 2},
                "folner": {"kind": "balls", "radii": [1, 2]},
                "sweep": {"tail_bases": [2, 3]},
            },
        ),
    )
}


def load_record() -> dict:
    with open(RECORD_FILE) as fh:
        return json.load(fh)


def file_hashes(out_dir: str) -> dict:
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def _rows_ok(name: str, text: str) -> bool:
    """Every certified row of a CSV output passes.

    Convergence rows before the last are diagnostics (the distance at a
    small radius is expected to exceed the tolerance); the CLI counts only
    the final one, and so does this check.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return False
    if name == "simulate.csv":
        conv = [r for r in rows if r["check"] == "convergence"]
        checked = [r for r in rows if r["check"] != "convergence"] + conv[-1:]
        return len(conv) > 0 and all(r["ok"] == "true" for r in checked)
    return all(r["verdict"] == "pass" for r in rows)


def check_outputs(wl: Workload, seed: int, codes: list, out_dir: str, record: dict) -> list:
    """Return the reasons an invocation set failed; empty means correct.

    Exit codes must all be 0 and the output directory must hold exactly
    the workload's files.  Where the record applies (every seed for a
    workload whose inputs do not depend on the seed, DEFAULT_SEED
    otherwise) each file's sha256 must match it; every certified CSV row
    must pass in any case.
    """
    problems = [f"exit code {c}" for c in codes if c != 0]
    present = sorted(os.listdir(out_dir))
    if present != sorted(wl.outputs):
        problems.append(f"output files {present}, expected {sorted(wl.outputs)}")
        return problems
    if not wl.seeded or seed == DEFAULT_SEED:
        expected = record[wl.name]
        for name, digest in file_hashes(out_dir).items():
            if expected.get(name) != digest:
                problems.append(f"{name} differs from the recorded bytes")
    for name in wl.outputs:
        if name.endswith(".csv") and name != "omega.csv":
            with open(os.path.join(out_dir, name)) as fh:
                if not _rows_ok(name, fh.read()):
                    problems.append(f"{name} has a failing row")
    return problems
