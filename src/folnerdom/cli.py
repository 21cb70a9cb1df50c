"""Configuration-driven command line: census, chain, dominate, simulate, sweep.

This is the package's only front end.  Every run is a pure function of
(config, seed): output files are byte-identical across repeats.  Exit
codes: 0 all checks pass, 2 a certified check failed (or, as for
argparse's own usage errors, the config is invalid), 3 a size cap or the
extraction budget stopped the run, or a level that read a power truncated
at the cap failed, which disproves nothing (``_level_code``); 2 outranks
3.  A subcommand ``cmd_*`` only computes: it returns its exit code and its
files, an ordered dict of output name -> text, and never sees ``--out``.
``main`` is the one writer, and a run writes all of its files or none: if
a write fails, ``main`` removes the files the run already put in place.
``main`` is also the single place where a cap hit (SizeCapExceeded, from
any stage of any subcommand) becomes exit 3 and a ``budget:`` line on
stderr, where a ConfigError becomes argparse's ``error: config: ...``
line and exit 2, and where an OSError, from writing the files only,
becomes exit 2 and ``error: cannot write <path>: ...``.  ``_build_chain``
is the single place where a chain is built from a config.

This module makes every certificate document: chain.json and
dominance.json share one header (``_document``).  ``_rat`` and ``_cell``
spell every value the CLI writes, in JSON and in CSV; floats never appear.
``_csv`` writes each CSV file from rows of values, and ``census`` and
``simulate`` read their exit codes from the rows they write.  The float
diagnostics are computed here too and go to stdout only: ``dominate``
prints min_scaled*|E_n|/|F_n| per level against the limit
(1/4)(1 - 3/e^2), and ``sweep`` prints the (1-r_n)^N(n) vs e^(-r_n N(n))
rows of each tail base.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .chains import Chain, build_chain, check_chain_identities, lamplighter_folner, lamplighter_ftilde
from .dominance import DominanceReport, dominance_report
from .errors import ConfigError, SizeCapExceeded
from .groups import Group, group_from_token, word_ball
from .schedules import Schedule, fn_size, ftilde_size
from .sets import FiniteSubset, is_symmetric_with_identity

if TYPE_CHECKING:
    from .actions import FiniteAction, Observable

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_BUDGET = 3

# (1/4)(1 - 3/e^2): the standard-schedule limit of min_scaled*|E_n|/|F_n|
REFERENCE_CONSTANT = 0.25 * (1 - 3 / math.e**2)

# A level's DominanceReport fields in dominance.csv's column order, each also
# its dominance.json key; only dominance.csv's header spells the last one
# "taint".  sweep.csv writes SWEEP_FIELDS after the tail base.
LEVEL_FIELDS = ("n", "card_F", "card_E", "N", "min_scaled", "bound", "c_emp", "verdict", "tainted")
SWEEP_FIELDS = ("n", "min_scaled", "bound", "c_emp", "verdict")


def _rat(v):
    """JSON form of a value: a rational as its numerator and denominator,
    each a string; None as "inf"; any other value as it is."""
    if v is None:
        return "inf"
    return {"num": str(v.numerator), "den": str(v.denominator)} if isinstance(v, Fraction) else v


def _cell(v) -> str:
    """CSV form of a value: a rational as "num/den" (always with the "/1"),
    None as "inf", a bool as true/false, any other value as ``str``."""
    if v is None:
        return "inf"
    if isinstance(v, bool):
        return "true" if v else "false"
    return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else str(v)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text: the header line, then one line of ``_cell`` values per row."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in (header, *rows))


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.umask(mask := os.umask(0))  # mkstemp's 0600 becomes a plain open's mode
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _document(chain: Chain, **fields) -> str:
    """A certificate document: the chain's header, then ``fields``."""
    doc = {
        "schema": 1,
        "group": chain.group.token(),
        "depth": chain.depth,
        "omega_total_mass": _rat(chain.omega.total_mass),
        **fields,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _decimal(value):
    """A JSON decimal or a config string as the rational it spells, not the
    nearest double; any other value as it is.  An exponent of larger
    magnitude than the interpreter's limit on integer digits is a
    ValueError, raised before Fraction builds 10^e, as for an integer
    literal with more digits; a limit of 0, or none (CPython before
    3.10.7), bounds nothing, and a non-integer exponent gets Fraction's own
    error."""
    if not isinstance(value, str):
        return value
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        exponent = int(value.lower().partition("e")[2])
    except ValueError:
        exponent = 0
    if limit and abs(exponent) > limit:
        raise ValueError(f"Exceeds the limit ({limit}) for the exponent of a decimal")
    return Fraction(value)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_decimal)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(cfg, dict) or type(cfg.get("schema")) is not int or cfg["schema"] != 1:
        raise ConfigError("schema must be 1")
    if not isinstance(cfg.get("group"), str):
        raise ConfigError("group token required")
    try:
        group_from_token(cfg["group"])
    except ValueError as exc:
        raise ConfigError(f"group: {exc}") from exc
    return cfg


def _whole(value, what: str, least: int) -> int:
    """``value`` if it is an integer >= ``least``; otherwise a ConfigError.
    JSON true and false, and decimals such as 2.5 or 1.0, are not integers."""
    if type(value) is not int or value < least:
        shown = f"{value.numerator}/{value.denominator}" if isinstance(value, Fraction) else repr(value)
        raise ConfigError(f"{what} must be an integer >= {least}, got {shown}")
    return value


def _wholes(values, what: str, least: int) -> list[int]:
    """A nonempty list of integers >= ``least``; otherwise a ConfigError."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{what} must be a nonempty list")
    return [_whole(v, what, least) for v in values]


def _section(parent: dict, key: str, what: str | None = None) -> dict:
    """The JSON object under ``key`` ({} when absent); otherwise a ConfigError."""
    sec = parent.get(key, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{what or key} must be a JSON object, got {sec!r}")
    return sec


def _schedule_from(cfg: dict, depth_flag: int | None) -> Schedule:
    s = _section(cfg, "schedule")
    return Schedule(
        tail_base=_whole(s.get("tail_base", 2), "schedule.tail_base", 2),
        length_base=_whole(s.get("length_base", 2), "schedule.length_base", 2),
        # certificates start at level 2
        depth=_whole(s.get("depth", 2) if depth_flag is None else depth_flag, "depth", 2),
    )


def _folner_sets(cfg: dict, group: Group, cap: int | None) -> list[FiniteSubset]:
    fol = _section(cfg, "folner")
    kind = fol.get("kind", "balls")
    if kind == "balls":
        radii = _wholes(fol.get("radii"), "folner.radii", 0)
        return [FiniteSubset(group, word_ball(group, r, cap)) for r in radii]
    if kind == "lamplighter":
        indices = _wholes(fol.get("indices"), "folner.indices", 1)
        return [lamplighter_folner(n, cap)[1] for n in indices]
    if kind == "custom":
        files = fol.get("files", [])
        if not isinstance(files, list) or not all(isinstance(p, str) for p in files):
            raise ConfigError("folner.files must be a list of file paths")
        sets = []
        for p in files:
            try:
                with open(p, newline="") as fh:  # no newline translation: CRLF is refused
                    sets.append(FiniteSubset.deserialize(fh.read()))
            except (OSError, ValueError) as exc:
                raise ConfigError(f"folner.files: {p}: {exc}") from exc
        return sets
    raise ConfigError(f"unknown folner kind {kind!r}")


def _build_chain(cfg: dict, cap: int | None, depth_flag: int | None) -> Chain:
    """The config's chain, the one ``chain`` writes and the other
    subcommands certify: its Folner sets, checked, then ``build_chain``,
    which runs the subsequence extraction when the config has an
    ``extract`` block.  Extraction out of budget is a cap hit."""
    group = group_from_token(cfg["group"])
    sched = _schedule_from(cfg, depth_flag)
    ex = _section(cfg, "extract")
    budget = _whole(ex.get("budget", 64), "extract.budget", 1) if "extract" in cfg else None
    Fsub = _folner_sets(cfg, group, cap)
    if any(F.group != group for F in Fsub):
        raise ConfigError(f"folner sets must lie in the config's group {group.token()}")
    for i, F in enumerate(Fsub, 1):
        if not is_symmetric_with_identity(F):
            raise ConfigError(f"folner set {i} must be symmetric and contain the identity")
    if len(Fsub) < sched.depth:
        raise ConfigError("fewer Folner sets than schedule depth")
    return build_chain(Fsub, sched, sched.depth, cap, budget)


def _action_from(cfg: dict, cap: int | None) -> FiniteAction:
    """The action on the config's quotient mod ``action.modulus``; a quotient
    of more than ``cap`` states is a cap hit, found at state cap + 1."""
    from .actions import FiniteAction

    m = _whole(_section(cfg, "action").get("modulus", 4), "action.modulus", 1)
    return FiniteAction(group_from_token(cfg["group"]), m, cap)


def _observable_from(spec: dict, act: FiniteAction) -> Observable:
    """The observable of the simulate section: an indicator of states, a
    JSON list of values, or a JSON list of matrix rows; it must be
    nonnegative (pointwise, or positive semidefinite), since the dominance
    transfer holds for positive observables only."""
    from .actions import Observable

    kind = spec.get("kind", "indicator")
    if kind not in ("indicator", "function", "matrix"):
        raise ConfigError(f"unknown observable kind {kind!r}")
    try:
        if kind == "indicator":
            states = spec.get("states", [0])
            if not all(type(i) is int and 0 <= i < act.size for i in states):
                raise ConfigError(f"states must lie in [0, {act.size})")
            x = Observable.indicator(act.size, states)
        elif kind == "function":
            if not isinstance(spec["values"], list):
                raise ConfigError("values must be a list")
            x = Observable.function(map(_decimal, spec["values"]))
        else:
            rows = spec["rows"]
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise ConfigError("rows must be a list of lists")
            x = Observable.matrix([map(_decimal, row) for row in rows])
    except KeyError as exc:
        raise ConfigError(f"observable.{exc.args[0]} required for kind={kind}") from exc
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"observable: {exc}") from exc
    if not x.is_nonnegative():
        raise ConfigError("observable must be nonnegative (positive semidefinite for a matrix)")
    return x


def _simulate_params(sim: dict, group: Group) -> tuple[list, Fraction, Fraction, int, int]:
    """(convergence indices, tolerance, eps, kadison_trials, kadison_dim) of
    the simulate section; lamplighter indices n give F~_n, others radii,
    and the key of the other kind of group is a ConfigError."""
    if group.kind == "lamplighter":
        key, other, default, least = "convergence_indices", "convergence_radii", [2, 5, 8], 1
    else:
        key, other, default, least = "convergence_radii", "convergence_indices", [1, 4, 16, 64], 0
    if other in sim:
        raise ConfigError(f"simulate.{other} does not apply to {group.token()}; use simulate.{key}")
    conv_ns = _wholes(sim.get(key, default), f"simulate.{key}", least)
    tol, eps = sim.get("tolerance", "1/1000"), sim.get("eps", "1/8")
    try:
        if isinstance(tol, bool) or isinstance(eps, bool):
            raise TypeError("JSON true and false are not rationals")
        tol, eps = Fraction(_decimal(tol)), Fraction(_decimal(eps))
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"simulate: tolerance and eps must be rationals: {exc}") from exc
    if tol < 0:
        raise ConfigError("simulate.tolerance must be nonnegative")
    if eps <= 0:
        raise ConfigError("simulate.eps must be positive")
    trials = _whole(sim.get("kadison_trials", 25), "simulate.kadison_trials", 0)
    dim = _whole(sim.get("kadison_dim", 3), "simulate.kadison_dim", 1)
    return conv_ns, tol, eps, trials, dim


def _cap_flag(text: str) -> int:
    """The argparse type of ``--cap``: an integer >= 0."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {cap}")
    return cap


def _worse(a: int, b: int) -> int:
    """The worse of two exit codes: a failed check outranks a cap hit."""
    return max(a, b, key=(EXIT_PASS, EXIT_BUDGET, EXIT_FAIL).index)


def _level_code(rep: DominanceReport, cap: int | None) -> int:
    """The exit code of one level.  A failing tainted level read a power
    truncated at the cap, so its values are lower bounds and its failure
    disproves nothing: a cap hit, with a ``budget:`` line, not a failure."""
    if rep.verdict == "pass":
        return EXIT_PASS
    if not rep.tainted:
        return EXIT_FAIL
    print(f"budget: level {rep.n} fails on a walk truncated at the cap, cap is {cap}", file=sys.stderr)
    return EXIT_BUDGET


def _identities_code(chain: Chain) -> int:
    """The exit code of the chain identities: one ``identity:`` line on
    stderr per failing identity, and EXIT_FAIL if there is any."""
    failures = check_chain_identities(chain)
    for message in failures:
        print(f"identity: {message}", file=sys.stderr)
    return EXIT_FAIL if failures else EXIT_PASS


def certify_levels(chain: Chain) -> tuple[list[DominanceReport], int]:
    """The certificates of levels 2..depth and the worst exit code among them."""
    reports = [dominance_report(chain, n) for n in range(2, chain.depth + 1)]
    worst = EXIT_PASS
    for rep in reports:
        worst = _worse(worst, _level_code(rep, chain.cap))
    return reports, worst


# -- subcommands -----------------------------------------------------------


def cmd_census(cfg: dict, cap: int | None, depth: int | None, seed: int) -> tuple[int, dict[str, str]]:
    """Lamplighter cardinalities vs closed forms; ball growth otherwise."""
    group = group_from_token(cfg["group"])
    nmax = _section(cfg, "census").get("max_index", 6) if depth is None else depth
    nmax = _whole(nmax, "census index", 1)
    if group.kind != "lamplighter":
        rows = [(n, len(word_ball(group, n, cap))) for n in range(0, nmax + 1)]
        return EXIT_PASS, {"census.csv": _csv(("n", "card_ball"), rows)}
    rows = []
    for n in range(1, nmax + 1):
        ft, f = map(len, lamplighter_folner(n, cap))
        rows.append((n, ft, ftilde_size(n), f, fn_size(n), ft == ftilde_size(n) and f == fn_size(n)))
    header = ("n", "card_ftilde", "formula_ftilde", "card_f", "formula_f", "match")
    return (EXIT_PASS if all(row[-1] for row in rows) else EXIT_FAIL), {"census.csv": _csv(header, rows)}


def cmd_chain(cfg: dict, cap: int | None, depth: int | None, seed: int) -> tuple[int, dict[str, str]]:
    """The chain's F_n and E_n sets, omega.csv and the chain.json
    manifest: per level |F_n|, |E_n|, N(n), t_n, r_n, plus the set files."""
    chain = _build_chain(cfg, cap, depth)
    sched = chain.schedule
    files, set_files, levels = {}, {}, []
    for n in range(1, chain.depth + 1):
        Fn, En = chain.level(n)
        for tag, S in (("F", Fn), ("E", En)):
            name = f"{tag}_{n}.set"
            files[name] = S.serialize()
            set_files[f"{tag}_{n}"] = name
        t, r = _rat(sched.t(n)), _rat(sched.r(n))
        levels.append({"n": n, "card_F": len(Fn), "card_E": len(En), "N": sched.N(n), "t": t, "r": r})
    files["omega.csv"] = chain.omega.serialize_csv()
    files["chain.json"] = _document(
        chain,
        tail_base=sched.tail_base,
        length_base=sched.length_base,
        levels=levels,
        set_files=set_files,
    )
    return EXIT_PASS, files


def cmd_dominate(cfg: dict, cap: int | None, depth: int | None, seed: int) -> tuple[int, dict[str, str]]:
    """Per-level dominance certificates and the chain identities; nonzero
    exit if any level or identity fails."""
    chain = _build_chain(cfg, cap, depth)
    reports, worst = certify_levels(chain)
    worst = _worse(worst, _identities_code(chain))
    rows = [attrgetter(*LEVEL_FIELDS)(rep) for rep in reports]
    levels = [dict(zip(LEVEL_FIELDS, map(_rat, row)), truncation_depth=chain.depth) for row in rows]
    for rep in reports:
        scaled = rep.min_scaled * Fraction(rep.card_E, rep.card_F)
        print(
            f"n={rep.n} min_scaled*|E_n|/|F_n|={float(scaled):.7f} "
            f"limit (1/4)(1-3/e^2)={REFERENCE_CONSTANT:.7f}"
        )
    header = (*LEVEL_FIELDS[:-1], "taint")
    return worst, {"dominance.json": _document(chain, levels=levels), "dominance.csv": _csv(header, rows)}


def cmd_simulate(cfg: dict, cap: int | None, depth: int | None, seed: int) -> tuple[int, dict[str, str]]:
    """Convergence, dominance transfer, weak (1,1) probe, Kadison battery;
    nothing is transferred from a failing top level or chain identity."""
    from .actions import (
        Observable,
        check_dominance,
        convergence_diagnostics,
        kadison_check,
        weak11_probe,
        zd_mod_action,
    )

    sim = _section(cfg, "simulate")
    act = _action_from(cfg, cap)
    conv_ns, tol, eps, trials, dim = _simulate_params(sim, act.group)
    if cap is not None and dim > cap:
        raise SizeCapExceeded("kadison quotient", dim, cap)
    x = _observable_from(_section(sim, "observable", "simulate.observable"), act)
    if x.size != act.size:
        raise ConfigError(f"observable has {x.size} states, the action has {act.size}")
    rng = random.Random(seed)
    # the convergence pushforwards come first, so that a cap their sets
    # exceed stops the run before the certificate work
    pushes = []
    for n in conv_ns:
        if act.group.kind == "lamplighter":
            pushes.append((n, act.push_set(lamplighter_ftilde(n, cap))))
        else:
            pushes.append((n, act.push_ball(n, cap)))
    chain = _build_chain(cfg, cap, depth)
    rep = dominance_report(chain, chain.depth)
    code = _worse(_level_code(rep, chain.cap), _identities_code(chain))
    if code != EXIT_PASS:
        print("dominance certificate failed; cannot transfer", file=sys.stderr)
        return code, {}

    averages = [(n, act.apply_push(push, x)) for n, push in pushes]
    diag = convergence_diagnostics(act, averages, x)
    rows = [("convergence", n, d.numerator, d.denominator, d <= tol) for n, d in diag]

    ok, slack = check_dominance(act, chain, chain.depth, x, rep.c_emp)
    rows.append(("dominance_transfer", chain.depth, slack.numerator, slack.denominator, ok))

    if x.kind == "function":
        _, mass, bound, wok = weak11_probe(act, averages, x, eps, rep.c_emp)
        rows.append(("weak11_mass", 0, mass.numerator, mass.denominator, wok))

    kact = zd_mod_action(1, dim)
    kpush = Observable("function", dim, (1,) * dim)  # uniform over Z/dim
    kad_fail = 0
    for _ in range(trials):
        raw = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
        half_sums = tuple(tuple(raw[i][j] + raw[j][i] for j in range(dim)) for i in range(dim))
        kad_fail += not kadison_check(kact, kpush, Observable("matrix", 2, half_sums))[0]
    rows.append(("kadison_failures", trials, kad_fail, 1, kad_fail == 0))

    # the convergence rows before the last are diagnostics, not checks
    code = EXIT_PASS if all(row[-1] for row in rows[len(diag) - 1 :]) else EXIT_FAIL
    return code, {"simulate.csv": _csv(("check", "n", "value_num", "value_den", "ok"), rows)}


def cmd_sweep(cfg: dict, cap: int | None, depth: int | None, seed: int) -> tuple[int, dict[str, str]]:
    """Dominance constants across a grid of tail bases.  The base c fixes
    only the weights t_n = (c-1)/c^n; E_n depends on N(n) and the extraction
    on eps_n, so the sets are built, and the chain identities checked, once,
    and each base certifies a chain of those sets under its own schedule."""
    bases = _wholes(_section(cfg, "sweep").get("tail_bases", [2, 3, 4]), "sweep.tail_bases", 2)
    first = dict(cfg, schedule=dict(_section(cfg, "schedule"), tail_base=bases[0]))
    built = _build_chain(first, cap, depth)
    rows = []
    worst = EXIT_PASS
    for i, c in enumerate(bases):
        sched = Schedule(c, built.schedule.length_base, built.depth)
        chain = Chain(built.folner, built.envelopes, sched, built.cap)
        reports, code = certify_levels(chain)
        worst = _worse(worst, code)
        if i == 0:
            worst = _worse(worst, _identities_code(chain))
        for rep in reports:
            rows.append((c, *attrgetter(*SWEEP_FIELDS)(rep)))
            # (1-r_n)^N(n) against its limit e^(-r_n N(n))
            r = chain.schedule.r(rep.n)
            power, limit = float((1 - r) ** rep.N), math.exp(-float(r * rep.N))
            print(
                f"tail_base={c} n={rep.n} r_N={float(r * rep.N):.4f} (1-r)^N={power:.6f} "
                f"e^-rN={limit:.6f} gap={abs(power - limit):.2e}"
            )
    return worst, {"sweep.csv": _csv(("tail_base", *SWEEP_FIELDS), rows)}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="folnerdom",
        description="Exact certificates for ergodic-average dominance on discrete amenable groups",
    )
    parser.add_argument("command", choices=["census", "chain", "dominate", "simulate", "sweep"])
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--cap", type=_cap_flag, default=None,
        help="size cap on any constructed set/support, on the states of the finite quotient that "
        "simulate acts on, and on the Z/kadison_dim of its Kadison battery",
    )
    parser.add_argument(
        "--depth", type=int, default=None,
        help="chain depth, overriding schedule.depth; for census, the largest index, overriding census.max_index",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized batteries")
    args = parser.parse_args(argv)

    handler = {
        "census": cmd_census,
        "chain": cmd_chain,
        "dominate": cmd_dominate,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
    }[args.command]
    try:
        code, files = handler(load_config(args.config), args.cap, args.depth, args.seed)
    except ConfigError as exc:
        parser.error(f"config: {exc}")
    except SizeCapExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    written = []
    try:
        for name, text in files.items():
            atomic_write(path := os.path.join(args.out, name), text)
            written.append(path)
    except OSError as exc:  # os.replace names the path second
        for path in written:  # all of the run's files or none
            os.unlink(path)
        parser.error(f"cannot write {exc.filename2 or exc.filename}: {exc.strerror}")
    return code


if __name__ == "__main__":
    sys.exit(main())
