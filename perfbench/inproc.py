"""Child-process side of the benchmark; run.py starts it in a fresh interpreter.

    python3 inproc.py setup CONFIG
        Import folnerdom, load CONFIG and build its chain (F_n, E_n, omega),
        plus the finite action when CONFIG has one: everything paid before
        the first convolution.  The parent times the whole process.

    python3 inproc.py run WORKLOAD CONFIG OUT SEED TRACE RESULT
        Run the workload's CLI steps in this process and write RESULT (JSON).
        With TRACE=1 every public function of the layer modules is wrapped
        in a span for the duration of the steps, the group laws are
        counted, and micro-timings of the group law and of the bilateral
        interior are taken afterwards.

folnerdom must be importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import random
import statistics
import sys
from collections import Counter
from time import perf_counter, perf_counter_ns

from folnerdom import cli
from folnerdom.actions import zd_mod_action
from folnerdom.chains import build_chain
from folnerdom.groups import Heisenberg, Lamplighter, Zd, group_from_token, word_ball
from folnerdom.schedules import Schedule
from folnerdom.sets import FiniteSubset, interior_bilateral, inverse_set, power

from workloads import WORKLOADS

# schedules is left out: no CLI hot path reaches SymbolicSize.
LAYERS = ("groups", "sets", "measures", "chains", "dominance", "actions", "cli")
METHOD_SPANS = (
    ("sets", "FiniteSubset", "serialize"),
    ("measures", "FinSupMeasure", "serialize_csv"),
    ("actions", "FiniteAction", "apply_push"),
    ("actions", "FiniteAction", "push_set"),
    ("actions", "FiniteAction", "push_measure"),
)
GROUP_CLASSES = (Zd, Heisenberg, Lamplighter)
GROUP_OPS = ("mul", "inv", "encode")
MICRO_SAMPLE = 2000
MICRO_REPEATS = 5


def workload_chain(cfg: dict):
    """The config's chain, built through public functions only."""
    group = group_from_token(cfg["group"])
    s = cfg["schedule"]
    sched = Schedule(tail_base=s["tail_base"], length_base=s["length_base"], depth=s["depth"])
    folner = [FiniteSubset(group, word_ball(group, r)) for r in cfg["folner"]["radii"]]
    return build_chain(folner, sched, sched.depth)


# -- counters read at span boundaries ---------------------------------------


def _product_hook(tr, args, out):
    tr.counts["sets.product.pairs"] += len(args[0]) * len(args[1])


def _convolve_hook(tr, args, out):
    tr.counts["measures.convolve.pairs"] += len(args[0]) * len(args[1])
    tr.counts["measures.truncated_powers"] += int(out.truncated)
    num_bits = max((v.bit_length() for v in out.numerators.values()), default=0)
    tr.powers.append([len(out), num_bits, out.denominator.bit_length(), out.truncated])


def _convolve_at_hook(tr, args, out):
    tr.counts["measures.convolve_at.pairs"] += len(args[0]) * len(out)


def _report_hook(tr, args, out):
    tr.counts["dominance.tainted_levels"] += int(out.tainted)


def _write_hook(tr, args, out):
    tr.counts["cli.bytes_written"] += len(args[1].encode())


HOOKS = {
    "sets.product": _product_hook,
    "measures.convolve": _convolve_hook,
    "measures.convolve_at": _convolve_at_hook,
    "dominance.dominance_report": _report_hook,
    "cli.atomic_write": _write_hook,
}


class Tracer:
    """Spans around the layers' public functions; counts of group-law calls.

    Spans are [name, parent index or -1, start, end] and stay in memory
    until the run ends.  Modules bind functions by direct import (cli binds
    dominance_report, dominance binds convolve_at, ...), so each function is
    replaced in every folnerdom module that binds it; restore() puts the
    originals back.  Time spent in counter hooks is recorded as its own
    "trace.hook" span so it is not charged to the caller's self time.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.powers: list = []  # per convolve result: support, num bits, den bits, truncated
        self._undo: list = []

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _span(self, name, fn):
        spans, stack, hook = self.spans, self.stack, HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(sid)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if hook is not None:
                start = perf_counter()
                hook(self, args, out)
                spans.append(["trace.hook", stack[-1] if stack else -1, start, perf_counter()])
            return out

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "folnerdom" or n.startswith("folnerdom.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"folnerdom.{layer}")
            for name, fn in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrapped = self._span(f"{layer}.{name}", fn)
                for m in modules:
                    if vars(m).get(name) is fn:
                        self._replace(m, name, wrapped)
        for layer, cls_name, meth in METHOD_SPANS:
            cls = getattr(importlib.import_module(f"folnerdom.{layer}"), cls_name)
            self._replace(cls, meth, self._span(f"{layer}.{meth}", getattr(cls, meth)))
        for cls in GROUP_CLASSES:
            for op in GROUP_OPS:
                self._replace(cls, op, self._count(f"groups.{op}.calls", vars(cls)[op]))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


# -- micro-timings --------------------------------------------------------------


def _ns_per_call(fn, arg_tuples) -> float:
    runs = []
    for _ in range(MICRO_REPEATS):
        start = perf_counter_ns()
        for args in arg_tuples:
            fn(*args)
        runs.append((perf_counter_ns() - start) / len(arg_tuples))
    return statistics.median(runs)


def micro_timings(cfg: dict, seed: int) -> dict:
    """Group law on a seeded sample of supp(omega); interior at the top level."""
    chain = workload_chain(cfg)
    group = chain.group
    support = sorted(chain.omega.numerators, key=group.encode)
    rng = random.Random(seed)
    xs = [rng.choice(support) for _ in range(MICRO_SAMPLE)]
    ys = [rng.choice(support) for _ in range(MICRO_SAMPLE)]
    singles = [(x,) for x in xs]
    n = chain.depth
    pad = inverse_set(power(chain.envelopes[n - 2], chain.schedule.N(n) - 2))
    Fn, En = chain.level(n)
    interior_s = []
    for _ in range(3):
        start = perf_counter()
        inner = interior_bilateral(pad, pad, En)
        interior_s.append(perf_counter() - start)
    return {
        "group": group.token(),
        "groups.mul_ns": _ns_per_call(group.mul, list(zip(xs, ys))),
        "groups.inv_ns": _ns_per_call(group.inv, singles),
        "groups.encode_ns": _ns_per_call(group.encode, singles),
        "sets.interior_bilateral.s": statistics.median(interior_s),
        "interior_contains_F": Fn.issubset(inner),
    }


def run_steps(name: str, cfg_path: str, out: str, seed: int, trace: bool) -> dict:
    wl = WORKLOADS[name]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        start = perf_counter()
        codes = [
            cli.main([*step, "--config", cfg_path, "--out", out, "--seed", str(seed)])
            for step in wl.steps
        ]
        wall = perf_counter() - start
    finally:
        if tracer:
            tracer.restore()
    result = {"wall_s": wall, "codes": codes}
    if tracer:
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        result.update(
            spans=tracer.spans,
            counts=dict(tracer.counts),
            powers=tracer.powers,
            micro=micro_timings(cfg, seed),
        )
    return result


def main(argv: list) -> int:
    if argv[0] == "setup":
        cfg = cli.load_config(argv[1])
        chain = workload_chain(cfg)
        if "action" in cfg:
            zd_mod_action(chain.group.d, cfg["action"]["modulus"])
        return 0
    name, cfg_path, out, seed, trace, result_path = argv[1:]
    result = run_steps(name, cfg_path, out, int(seed), trace == "1")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
