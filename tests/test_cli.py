"""End-to-end CLI: subcommands, exit codes, determinism."""

from __future__ import annotations

import importlib.util
import json
import os
import shlex
import stat
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from folnerdom import cli, dominance
from folnerdom.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_PASS, _build_chain, load_config, main
from folnerdom.groups import Group, Heisenberg, Lamplighter, Zd
from folnerdom.sets import FiniteSubset

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def z_config(tmp_path):
    return write_config(
        tmp_path / "z.json",
        {
            "schema": 1,
            "group": "zd:1",
            "schedule": {"tail_base": 2, "length_base": 2, "depth": 2},
            "folner": {"kind": "balls", "radii": [2, 16]},
            "action": {"modulus": 8},
            "simulate": {
                "observable": {"kind": "indicator", "states": [0]},
                "convergence_radii": [8, 64, 512, 4096],
                "kadison_trials": 5,
            },
        },
    )


@pytest.fixture()
def ll_config(tmp_path):
    return write_config(
        tmp_path / "ll.json",
        {
            "schema": 1,
            "group": "lamplighter",
            "schedule": {"depth": 2},
            "folner": {"kind": "lamplighter", "indices": [1, 2]},
            "action": {"modulus": 3},
            "simulate": {
                "observable": {"kind": "indicator", "states": [0]},
                "convergence_indices": [2, 5],
                "kadison_trials": 5,
            },
        },
    )


def run(cmd, config, out, *extra):
    return main([cmd, "--config", config, "--out", str(out), *extra])


def test_config_schema_required(tmp_path):
    bad = write_config(tmp_path / "bad.json", {"group": "zd:1"})
    with pytest.raises(ValueError):
        load_config(bad)


def test_config_decimal_is_the_rational_it_spells(z_config, tmp_path):
    # a JSON decimal used to be read as the double nearest to it
    cfg = json.loads(Path(z_config).read_text())
    cfg["simulate"]["tolerance"] = 0.001
    cfg["note"] = 1e300  # an exponent under the limit on integer digits
    loaded = load_config(write_config(tmp_path / "dec.json", cfg))
    assert loaded["simulate"]["tolerance"] == Fraction(1, 1000)
    assert loaded["note"] == 10**300


def test_simulate_decimals_equal_rational_strings(z_config, tmp_path):
    # the same observable and tolerance, as JSON decimals and as "p/q" strings
    cfg = json.loads(Path(z_config).read_text())
    cfg["action"] = {"modulus": 4}
    cfg["simulate"].update(convergence_radii=[1, 8], kadison_trials=2)
    results = {}
    for name, values, tol in (
        ("decimal", [0.1, 0.2, 0.3, 0.4], 0.001),
        ("string", ["1/10", "1/5", "3/10", "2/5"], "1/1000"),
    ):
        cfg["simulate"].update(observable={"kind": "function", "values": values}, tolerance=tol)
        out = tmp_path / name
        code = run("simulate", write_config(tmp_path / f"{name}.json", cfg), out)
        results[name] = code, (out / "simulate.csv").read_bytes()
    assert results["decimal"] == results["string"]


def _set(section, **fields):
    return lambda cfg: cfg.setdefault(section, {}).update(fields)


def _put(section, value):
    return lambda cfg: cfg.__setitem__(section, value)


def _note(number):
    """The config's text with an unused key whose value is the JSON number
    ``number``, spelled as given."""
    return lambda cfg: json.dumps(cfg)[:-1] + f', "note": {number}}}'


def _keep(cfg):
    pass


def _lamplighter(indices=(1, 2), convergence_indices=(2, 5), modulus=3):
    """Edit into a small lamplighter config with the given index lists and
    quotient modulus."""

    def edit(cfg):
        cfg.update(group="lamplighter", folner={"kind": "lamplighter", "indices": list(indices)})
        cfg["action"] = {"modulus": modulus}
        cfg["simulate"].pop("convergence_radii")
        cfg["simulate"]["convergence_indices"] = list(convergence_indices)

    return edit


def _convergence(key, group_edit=_keep):
    """Edit: ``group_edit``, then [1] under simulate.``key`` as the only
    convergence list."""

    def edit(cfg):
        group_edit(cfg)
        for k in ("convergence_radii", "convergence_indices"):
            cfg["simulate"].pop(k, None)
        cfg["simulate"][key] = [1]

    return edit


def _observable(modulus, **spec):
    """Edit: the quotient mod ``modulus`` and the given observable."""

    def edit(cfg):
        cfg["action"] = {"modulus": modulus}
        cfg["simulate"]["observable"] = spec

    return edit


def _extract(radii, budget):
    """Edit: Folner balls of the given radii, picked by extraction under a budget."""

    def edit(cfg):
        cfg["folner"] = {"kind": "balls", "radii": radii}
        cfg["extract"] = {"budget": budget}

    return edit


# the exact message of the cases below that name one
CONFIG_ERRORS = {
    **{f"folner-files-{case}": "folner.files must be a list of file paths\n" for case in ("5", "fd-0", "string")},
    "function-values-string": "observable: values must be a list\n",
    "length-base-2.5": "schedule.length_base must be an integer >= 2, got 5/2\n",
    "length-base-2.0": "schedule.length_base must be an integer >= 2, got 2/1\n",
    "tolerance-negative": "simulate.tolerance must be nonnegative\n",
    "z-convergence-indices": "simulate.convergence_indices does not apply to zd:1; use simulate.convergence_radii\n",
    "lamplighter-convergence-radii": (
        "simulate.convergence_radii does not apply to lamplighter; use simulate.convergence_indices\n"
    ),
    "matrix-rows-strings": "observable: rows must be a list of lists\n",
    "group-zd-01": "group: unknown group token 'zd:01'\n",
    "group-zd-1_0": "group: unknown group token 'zd:1_0'\n",
    "group-zd-empty": "group: unknown group token 'zd:'\n",
    **{
        case: "observable must be nonnegative (positive semidefinite for a matrix)\n"
        for case in ("function-value-negative", "matrix-not-psd")
    },
    **{
        f"{case}-exponent-4301": f"{where}Exceeds the limit (4300) for the exponent of a decimal\n"
        for case, where in (
            ("tolerance", "simulate: tolerance and eps must be rationals: "),
            ("eps", "simulate: tolerance and eps must be rationals: "),
            ("value", "observable: "),
            ("row", "observable: "),
        )
    },
}


@pytest.mark.parametrize(
    "cmd,edit,flags",
    [
        pytest.param("dominate", lambda cfg: cfg.pop("schema"), (), id="no-schema"),
        pytest.param("dominate", _set("folner", kind="spheres"), (), id="unknown-folner-kind"),
        pytest.param("dominate", lambda cfg: cfg["folner"].pop("radii"), (), id="missing-radii"),
        pytest.param("dominate", None, (), id="missing-file"),  # no config written
        pytest.param(
            "dominate", _set("folner", kind="custom", files=["absent.set"]), (), id="missing-set-file"
        ),
        pytest.param("simulate", _set("action", modulus=0), (), id="modulus-0"),
        pytest.param("simulate", _set("simulate", tolerance="abc"), (), id="tolerance-abc"),
        pytest.param("simulate", _set("simulate", eps="abc"), (), id="eps-abc"),
        pytest.param("simulate", _set("simulate", kadison_dim=0), (), id="kadison-dim-0"),
        pytest.param(
            "simulate",
            _set("simulate", observable={"kind": "function", "values": [1, 0]}),
            (),
            id="observable-size",
        ),
        pytest.param(
            "simulate",
            _set("simulate", observable={"kind": "indicator", "states": [8]}),
            (),
            id="indicator-state-8",  # used to pass on the zero observable
        ),
        pytest.param("simulate", _set("simulate", convergence_radii=[]), (), id="no-radii"),
        pytest.param("dominate", _set("schedule", depth=1), (), id="config-depth-1"),
        pytest.param("sweep", _set("sweep", tail_bases=[]), (), id="no-tail-bases"),
        # --depth 0 used to fall back to the config's depth and pass
        pytest.param("dominate", _keep, ("--depth", "0"), id="dominate-depth-0"),
        # --depth 1 used to pass with "levels": [], certifying nothing
        pytest.param("dominate", _keep, ("--depth", "1"), id="dominate-depth-1"),
        pytest.param("sweep", _keep, ("--depth", "1"), id="sweep-depth-1"),
        # --depth 1 used to crash in finite_n_lower_bound
        pytest.param("simulate", _keep, ("--depth", "1"), id="simulate-depth-1"),
        pytest.param("census", _keep, ("--depth", "0"), id="census-depth-0"),
        # the values below used to end in a traceback with exit 1
        pytest.param("dominate", _set("folner", radii=[-1, 16]), (), id="negative-radius"),
        pytest.param(
            "simulate", _set("simulate", convergence_radii=[-1, 8]), (), id="negative-convergence-radius"
        ),
        pytest.param("dominate", _lamplighter(indices=[0, 2]), (), id="lamplighter-index-0"),
        pytest.param(
            "simulate", _lamplighter(convergence_indices=[0, 2]), (), id="lamplighter-convergence-index-0"
        ),
        # the key of the other kind of group used to be dropped for the defaults
        pytest.param("simulate", _convergence("convergence_indices"), (), id="z-convergence-indices"),
        pytest.param(
            "simulate", _convergence("convergence_radii", _lamplighter()), (), id="lamplighter-convergence-radii"
        ),
        pytest.param("dominate", _set("schedule", tail_base="2"), (), id="tail-base-string"),
        pytest.param("dominate", _set("schedule", length_base=2.5), (), id="length-base-2.5"),
        pytest.param("dominate", _set("schedule", length_base=2.0), (), id="length-base-2.0"),
        pytest.param("chain", _set("extract", budget="8"), (), id="extract-budget-string"),
        pytest.param("chain", _set("extract", budget=0), (), id="extract-budget-0"),
        # Folner sets from another group used to be certified (and crash simulate)
        pytest.param(
            "dominate", _set("folner", kind="lamplighter", indices=[1, 2]), (), id="dominate-wrong-group"
        ),
        pytest.param(
            "simulate", _set("folner", kind="lamplighter", indices=[1, 2]), (), id="simulate-wrong-group"
        ),
        # sections that are not JSON objects used to end in an AttributeError
        pytest.param("chain", _put("extract", True), (), id="extract-true"),
        pytest.param("dominate", _put("schedule", 3), (), id="schedule-3"),
        pytest.param("simulate", _put("simulate", []), (), id="simulate-list"),
        pytest.param("dominate", _put("folner", "balls"), (), id="folner-string"),
        pytest.param("simulate", _put("action", 4), (), id="action-4"),
        pytest.param("census", _put("census", 6), (), id="census-6"),
        pytest.param("sweep", _put("sweep", [2, 3]), (), id="sweep-list"),
        pytest.param("simulate", _set("simulate", observable="indicator"), (), id="observable-string"),
        # used to end in a TypeError
        pytest.param("sweep", _set("sweep", tail_bases=3), (), id="tail-bases-3"),
        # bad observable values used to end in a traceback with exit 1
        pytest.param(
            "simulate",
            _set("simulate", observable={"kind": "function", "values": ["1/0"] + ["0"] * 7}),
            (),
            id="observable-value-1-over-0",
        ),
        pytest.param(
            "simulate",
            _set("simulate", observable={"kind": "function", "values": [None] + [0] * 7}),
            (),
            id="observable-value-null",
        ),
        pytest.param(
            "simulate",
            _set("simulate", observable={"kind": "function", "values": [float("inf")] + [0] * 7}),
            (),
            id="observable-value-infinity",
        ),
        pytest.param("simulate", _set("simulate", tolerance=float("inf")), (), id="tolerance-infinity"),
        # used to write simulate.csv with every convergence row false and exit 2
        pytest.param("simulate", _set("simulate", tolerance="-1"), (), id="tolerance-negative"),
        pytest.param("simulate", _set("simulate", observable={"kind": "matrix", "rows": 5}), (), id="rows-5"),
        pytest.param(
            "simulate", _set("simulate", observable={"kind": "indicator", "states": 3}), (), id="states-3"
        ),
        # JSON true used to pass as the integer 1
        pytest.param("dominate", _set("folner", radii=[True, 16]), (), id="radius-true"),
        pytest.param("chain", _set("extract", budget=True), (), id="extract-budget-true"),
        pytest.param("simulate", _set("simulate", kadison_trials=True), (), id="kadison-trials-true"),
        pytest.param(
            "simulate", _set("simulate", observable={"kind": "indicator", "states": [True]}), (), id="state-true"
        ),
        pytest.param("dominate", _put("schema", True), (), id="schema-true"),
        pytest.param("dominate", _put("schema", 1.0), (), id="schema-1.0"),
        # JSON true and false used to pass as the rationals 1 and 0
        pytest.param("simulate", _set("simulate", tolerance=True), (), id="tolerance-true"),
        pytest.param("simulate", _set("simulate", eps=True), (), id="eps-true"),
        pytest.param(
            "simulate",
            _set("simulate", observable={"kind": "function", "values": [True, False, 1] + [0] * 5}),
            (),
            id="function-value-true",
        ),
        pytest.param(
            "simulate",
            _set("simulate", observable={"kind": "matrix", "rows": [[False] + [0] * 7] + [[0] * 8] * 7}),
            (),
            id="matrix-entry-false",
        ),
        # 5 used to end in a TypeError, [0] to read a set from standard input
        # and close it, and "ab" to open the files a and b
        pytest.param("dominate", _set("folner", kind="custom", files=5), (), id="folner-files-5"),
        pytest.param("dominate", _set("folner", kind="custom", files=[0]), (), id="folner-files-fd-0"),
        pytest.param("dominate", _set("folner", kind="custom", files="ab"), (), id="folner-files-string"),
        # the two below used to end in a ValueError with exit 1 after the chain
        # was built; "123" used to be read as the values (1, 2, 3) and pass,
        # and ["12", "21"] as the matrix [[1, 2], [2, 1]]
        pytest.param(
            "simulate", _observable(3, kind="function", values=[-1, 0, 0]), (), id="function-value-negative"
        ),
        pytest.param("simulate", _observable(2, kind="matrix", rows=[[0, 1], [1, 0]]), (), id="matrix-not-psd"),
        pytest.param("simulate", _observable(3, kind="function", values="123"), (), id="function-values-string"),
        pytest.param("simulate", _observable(2, kind="matrix", rows=["12", "21"]), (), id="matrix-rows-strings"),
        # each used to build 10^10000000 for some seconds, and pass
        pytest.param("chain", _note("1e10000000"), (), id="decimal-exponent-huge"),
        pytest.param("chain", _note("1e-10000000"), (), id="decimal-exponent-huge-negative"),
        # each used to be accepted: a string reached Fraction unbounded, and
        # "1e-10000000" took seconds there
        pytest.param("simulate", _set("simulate", tolerance="1e-4301"), (), id="tolerance-exponent-4301"),
        pytest.param("simulate", _set("simulate", eps="1e4301"), (), id="eps-exponent-4301"),
        pytest.param(
            "simulate", _observable(3, kind="function", values=["1e-4301", 0, 0]), (), id="value-exponent-4301"
        ),
        pytest.param(
            "simulate", _observable(2, kind="matrix", rows=[["1e4301", 0], [0, 0]]), (), id="row-exponent-4301"
        ),
        # used to be read as zd:1 and zd:10: a group token has the one
        # spelling that chain.json writes
        pytest.param("chain", _put("group", "zd:01"), (), id="group-zd-01"),
        pytest.param("chain", _put("group", "zd:1_0"), (), id="group-zd-1_0"),
        # used to leak int()'s "invalid literal for int() with base 10: ''"
        pytest.param("chain", _put("group", "zd:"), (), id="group-zd-empty"),
    ],
)
def test_invalid_config_is_usage_error(z_config, tmp_path, capsys, request, cmd, edit, flags):
    bad = tmp_path / "bad.json"
    if edit is not None:
        cfg = json.loads(Path(z_config).read_text())
        text = edit(cfg)  # _note's edits return the config's text; the others change cfg
        bad.write_text(text if isinstance(text, str) else json.dumps(cfg))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(cmd, str(bad), out, *flags)
    assert exc.value.code == 2  # argparse's usage-error code
    message = CONFIG_ERRORS.get(request.node.callspec.id, "")
    assert f"error: config: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["census", "chain", "dominate", "simulate", "sweep"])
def test_negative_cap_is_usage_error(z_config, tmp_path, capsys, cmd):
    # --cap -2 used to end in a traceback, and --cap -1 in exit 3
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(cmd, z_config, out, "--cap", "-1")
    assert exc.value.code == 2
    assert "error: argument --cap: must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "cmd,out,blocker",
    [
        # a file in the way of --out: used to end in a FileExistsError or
        # NotADirectoryError with exit 1
        pytest.param("chain", "file", "file", id="file"),
        pytest.param("chain", "file/sub", "file", id="under-a-file"),
        # a directory in the way of the last output file: used to leave the
        # files written before it, a partial certificate
        pytest.param("chain", "out", "out/chain.json", id="chain-json-a-directory"),
        pytest.param("dominate", "out", "out/dominance.csv", id="dominance-csv-a-directory"),
    ],
)
def test_unwritable_out_is_usage_error(z_config, tmp_path, capsys, cmd, out, blocker):
    blocked, top = tmp_path / blocker, out.split("/")[0]
    if blocker == top:
        blocked.write_text("")
        named = tmp_path / out
    else:
        blocked.mkdir(parents=True)
        named = blocked
    with pytest.raises(SystemExit) as exc:
        run(cmd, z_config, tmp_path / out)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"folnerdom: error: cannot write {named}: ")
    # the run leaves nothing but the blocker, as it found it
    left = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")}
    assert left == {"z.json", top, blocker}
    assert blocked.is_dir() or blocked.read_text() == ""


@pytest.mark.parametrize("error", [ValueError, OSError])
def test_value_error_in_computation_is_not_a_config_error(z_config, tmp_path, capsys, monkeypatch, error):
    # an OSError used to be reported as "cannot write None: ..." with exit 2
    def broken(*args):
        raise error("inside the computation")

    monkeypatch.setattr("folnerdom.cli.build_chain", broken)
    with pytest.raises(error, match="inside the computation"):
        run("dominate", z_config, tmp_path / "out")
    err = capsys.readouterr().err
    assert "cannot write" not in err and "error: config" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_output_files_have_the_mode_of_a_plain_write(z_config, tmp_path, umask):
    # mkstemp's mode 0600 used to reach every output file
    old = os.umask(umask)
    try:
        assert run("chain", z_config, tmp_path / "out") == EXIT_PASS
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in (tmp_path / "out").iterdir()}
    assert len(modes) == 6 and set(modes.values()) == {0o666 & ~umask}, modes


def test_census_lamplighter(ll_config, tmp_path):
    out = tmp_path / "out"
    assert run("census", ll_config, out, "--depth", "6") == EXIT_PASS
    lines = (out / "census.csv").read_text().strip().splitlines()
    assert lines[0].startswith("n,card_ftilde")
    assert len(lines) == 7
    assert all(line.endswith(",true") for line in lines[1:])


def test_census_z_ball_growth(z_config, tmp_path):
    out = tmp_path / "out"
    assert run("census", z_config, out, "--depth", "5") == EXIT_PASS
    lines = (out / "census.csv").read_text().strip().splitlines()
    assert lines[1] == "0,1" and lines[2] == "1,3"


def test_chain_outputs(z_config, tmp_path):
    out = tmp_path / "out"
    assert run("chain", z_config, out) == EXIT_PASS
    doc = json.loads((out / "chain.json").read_text())
    assert doc["schema"] == 1 and doc["depth"] == 2
    assert (out / "F_1.set").exists() and (out / "E_2.set").exists()
    assert (out / "omega.csv").read_text().startswith("# folnerdom-measure")


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_configs_build_their_chains(name, tmp_path):
    """Every config under configs/ is valid and its chain builds; the README
    commands certify them in CI."""
    config, out = str(CONFIGS / name), tmp_path / "out"
    assert run("chain", config, out) == EXIT_PASS
    doc = json.loads((out / "chain.json").read_text())
    assert doc["depth"] == load_config(config)["schedule"]["depth"]


@pytest.mark.parametrize(
    "cmd,edit,flags,what",
    [
        pytest.param("census", _keep, ("--cap", "10"), "word_ball", id="census-10"),
        pytest.param("chain", _keep, ("--cap", "40"), "E_2", id="chain-40"),
        pytest.param("dominate", _keep, ("--cap", "40"), "E_2", id="dominate-40"),
        pytest.param("sweep", _keep, ("--cap", "40"), "E_2", id="sweep-40"),
        # simulate hits the cap in its convergence balls, before the certificate
        pytest.param("simulate", _keep, ("--cap", "100"), "word_ball", id="simulate-100"),
        # the Kadison battery's Z/61 is over the cap; |E_2| = 49 and the
        # convergence balls (3, 9 and 33 elements) fit under it
        pytest.param(
            "simulate", _set("simulate", convergence_radii=[1, 4, 16], kadison_dim=61), ("--cap", "60"),
            "kadison quotient: needs 61 elements, cap is 60\n", id="simulate-kadison-60",
        ),
        # simulate needs only F~_n: F~_5 (384 elements) fits, F~_8 does not
        pytest.param(
            "simulate", _lamplighter(convergence_indices=(2, 5, 8)), ("--cap", "1000"),
            "lamplighter F~_n: needs 4608 elements", id="simulate-lamplighter-1000",
        ),
        # the quotient has 14 * 2^14 states; it used to be built in full first
        pytest.param(
            "simulate", _lamplighter(modulus=14), ("--cap", "10"),
            "quotient: needs 11 elements or more, cap is 10\n", id="simulate-quotient-10",
        ),
        # the pairwise set product stops at the first row past the cap, so
        # 304 is a lower bound: P^-1 F_2 has 360 elements
        pytest.param(
            "chain", _lamplighter(), ("--cap", "300"),
            "E_2 (set product): needs 304 elements or more, cap is 300\n", id="chain-lamplighter-300",
        ),
        # radius 2 is the one candidate the budget allows, and it is not
        # eps_2-invariant enough: |E_2 \ F_2| / |F_2| = 8/5
        pytest.param(
            "chain", _extract([1, 2, 3, 16], 1), (), "extraction step 2 (best ratio 8/5, budget 1)",
            id="chain-extract-budget-1",
        ),
        pytest.param(
            "dominate", _extract([1, 2, 3, 16], 1), (), "extraction step 2 (best ratio 8/5, budget 1)",
            id="dominate-extract-budget-1",
        ),
        pytest.param(
            "dominate", _extract([1, 2, 3], 64), (), "extraction step 2 (best ratio 8/7, budget 64)",
            id="dominate-extract-out-of-sets",  # the Folner sets run out first
        ),
        # a cap hit while choosing F_2 names its level, as without extraction:
        # radius 16 gives P^-1 F_2 = [-18, 18]
        pytest.param(
            "chain", _extract([1, 2, 3, 16], 64), ("--cap", "34"),
            "E_2 (set product): needs 37 elements, cap is 34\n", id="chain-extract-cap-34",
        ),
    ],
)
def test_cap_hit_exits_budget(z_config, tmp_path, capsys, cmd, edit, flags, what):
    cfg = json.loads(Path(z_config).read_text())
    edit(cfg)
    config = write_config(tmp_path / "edited.json", cfg)
    out = tmp_path / "out"
    assert run(cmd, config, out, *flags) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith(f"budget: {what}")
    assert not out.exists()


@pytest.mark.parametrize(
    "group,flags,code,err",
    [
        # used to end in a MemoryError: the generators, 2d tuples of length
        # d, were built with the group, and the ball's closed form summed
        # d + 1 terms
        pytest.param(
            "zd:100000", ("--cap", "1000"), EXIT_BUDGET, "budget: word_ball: needs 200001 elements, cap is 1000\n",
            id="zd-100000-cap-1000",
        ),
        # used to end in an OverflowError from (0,) * d
        pytest.param(
            "zd:100000000000000000000", (), 2,
            f"folnerdom: error: config: group: dimension must be between 1 and {sys.maxsize}\n", id="zd-1e20",
        ),
    ],
)
def test_huge_dimension_ends_at_once(tmp_path, capsys, group, flags, code, err):
    config = write_config(
        tmp_path / "big.json", {"schema": 1, "group": group, "folner": {"kind": "balls", "radii": [1, 2]}}
    )
    out = tmp_path / "out"
    start = time.monotonic()
    try:
        got = run("chain", config, out, *flags)
    except SystemExit as exc:
        got = exc.code
    assert time.monotonic() - start < 2
    assert got == code
    assert capsys.readouterr().err.endswith(err)
    assert not out.exists()


def test_simulate_checks_its_balls_before_the_chain(z_config, tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the chain was built before the convergence balls")

    monkeypatch.setattr("folnerdom.cli._build_chain", never)
    out = tmp_path / "out"
    # the radius-4096 ball has 8193 elements
    assert run("simulate", z_config, out, "--cap", "4000") == EXIT_BUDGET
    assert capsys.readouterr().err == "budget: word_ball: needs 8193 elements, cap is 4000\n"
    assert not out.exists()


def test_extraction_chain_is_the_certified_chain(z_config, tmp_path):
    # dominate used to skip the extract block and certify F_2 = [-2, 2];
    # an empty block used to skip the extraction, though its budget defaults to 64
    for i, block in enumerate(({"budget": 64}, {})):
        cfg = json.loads(Path(z_config).read_text())
        cfg.update(folner={"kind": "balls", "radii": [1, 2, 3, 16]}, extract=block)
        config = write_config(tmp_path / f"extract{i}.json", cfg)
        assert run("chain", config, tmp_path / f"chain{i}") == EXIT_PASS
        assert run("dominate", config, tmp_path / f"dom{i}") == EXIT_PASS
        chain = json.loads((tmp_path / f"chain{i}" / "chain.json").read_text())["levels"]
        dom = json.loads((tmp_path / f"dom{i}" / "dominance.json").read_text())["levels"]
        sizes = {lvl["n"]: (lvl["card_F"], lvl["card_E"]) for lvl in chain}
        assert sizes[2] == (33, 41)  # F_2 = [-16, 16], the first radius with ratio < 1/4
        assert {lvl["n"]: (lvl["card_F"], lvl["card_E"]) for lvl in dom} == {2: sizes[2]}


def test_extraction_builds_each_envelope_once(monkeypatch):
    calls = []
    product = Zd.product

    def counted(self, *args):
        calls.append(args)
        return product(self, *args)

    monkeypatch.setattr(Zd, "product", counted)
    chain = _build_chain(load_config(str(CONFIGS / "z_extract.json")), None, None)
    # one for the pad [-2, 2], two for the envelope of each of radii 2, 3, 16
    assert len(calls) == 7
    assert len(chain.folner[1]) == 33 and len(chain.envelopes[1]) == 41


@pytest.mark.parametrize("config,tail_base", [("lamplighter_depth2.json", 3), ("z_extract.json", 4)])
def test_omega_is_in_lowest_terms(config, tail_base):
    # over the common denominator of its weighted parts, each of these
    # omegas has a common factor, which the measure's constructor divides out
    cfg = load_config(str(CONFIGS / config))
    cfg["schedule"] = dict(cfg["schedule"], tail_base=tail_base)
    chain = _build_chain(cfg, None, None)
    omega = chain.omega
    assert gcd(omega.denominator, *omega.numerators.values()) == 1
    parts = lcm(*(chain.schedule.t(n).denominator * len(E) for n, E in enumerate(chain.envelopes, 1)))
    assert omega.denominator < parts


def test_custom_folner_sets_must_be_symmetric(z_config, tmp_path, capsys):
    # dominate used to pass this chain, though its E_2 is not symmetric
    files = []
    for n, (lo, hi) in enumerate(((-2, 2), (0, 39)), 1):
        path = tmp_path / f"F_{n}.set"
        path.write_text(FiniteSubset.of(Zd(1), ((i,) for i in range(lo, hi + 1))).serialize())
        files.append(str(path))
    cfg = json.loads(Path(z_config).read_text())
    cfg["folner"] = {"kind": "custom", "files": files}
    config = write_config(tmp_path / "custom.json", cfg)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run("dominate", config, out)
    assert exc.value.code == 2
    assert "error: config: folner set 2 must be symmetric" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "listing",
    [
        "",
        "folnerdom-set zd:1 1\n01\n",
        "folnerdom-set zd:1 1\n0200\n",
        "folnerdom-set zd:1 1\n010000\n",
        # the rest spell {-6, 0, 6}, which is listed "folnerdom-set zd:1 3\n0100\n010b\n010c\n"
        "folnerdom-set zd:1 3\n010b\n010c\n018000\n",
        "folnerdom-set zd:1 3\n010b\n0100\n010c\n",
        "folnerdom-set zd:1 3\n0100\n010B\n010C\n",
        "folnerdom-set zd:1 +3\n0100\n010b\n010c\n",
        "folnerdom-set zd:1 3\r\n0100\r\n010b\r\n010c\r\n",
        "folnerdom-set zd:1 3\n0100\n010b\n010c",
        # a varint one byte past the default limit on integer digits
        "folnerdom-set zd:1 1\n01" + "80" * 4300 + "01\n",
    ],
    ids=[
        "empty-file",
        "truncated-element",
        "heisenberg-tag",
        "trailing-bytes",
        "overlong-varint",
        "unsorted",
        "upper-case",
        "plus-count",
        "crlf",
        "no-final-newline",
        "varint-past-the-limit",
    ],
)
def test_malformed_custom_folner_file_is_usage_error(z_config, tmp_path, capsys, listing):
    # the first two used to end in an IndexError traceback with exit 1, and
    # from overlong-varint to no-final-newline the listings used to be read
    path = tmp_path / "F.set"
    path.write_text(listing, newline="")
    cfg = json.loads(Path(z_config).read_text())
    cfg["folner"] = {"kind": "custom", "files": [str(path), str(path)]}
    config = write_config(tmp_path / "custom.json", cfg)
    out = tmp_path / "out"
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run("dominate", config, out)
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    assert f"error: config: folner.files: {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "group,folner",
    [
        ("zd:1", {"kind": "balls", "radii": [2, 16]}),
        ("heisenberg", {"kind": "balls", "radii": [1, 2]}),
        ("lamplighter", {"kind": "lamplighter", "indices": [1, 2]}),
    ],
    ids=["zd", "heisenberg", "lamplighter"],
)
def test_custom_folner_roundtrip(tmp_path, group, folner):
    # the chain read back from its own F_n files writes the same files, so
    # every group's decoder runs end to end
    cfg = {"schema": 1, "group": group, "schedule": {"depth": 2}, "folner": folner}
    chain_out = tmp_path / "chain"
    assert run("chain", write_config(tmp_path / "c.json", cfg), chain_out) == EXIT_PASS
    cfg["folner"] = {"kind": "custom", "files": [str(chain_out / f"F_{n}.set") for n in (1, 2)]}
    custom_out = tmp_path / "custom"
    assert run("chain", write_config(tmp_path / "custom.json", cfg), custom_out) == EXIT_PASS
    files = sorted(p.name for p in chain_out.iterdir())
    assert files == sorted(p.name for p in custom_out.iterdir())
    for name in files:
        assert (custom_out / name).read_bytes() == (chain_out / name).read_bytes(), name


def test_dominate_deterministic(z_config, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("dominate", z_config, out1) == EXIT_PASS
    assert run("dominate", z_config, out2) == EXIT_PASS
    for name in ("dominance.json", "dominance.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    doc = json.loads((out1 / "dominance.json").read_text())
    lvl = doc["levels"][0]
    assert lvl["verdict"] == "pass"
    assert set(lvl["min_scaled"]) == {"num", "den"}
    # no floats in certificate fields
    text = (out1 / "dominance.json").read_text()
    assert "e-" not in text and "0." not in text
    # the float diagnostic goes to stdout only
    assert {p.name for p in out1.iterdir()} == {"dominance.json", "dominance.csv"}
    scaled = Fraction(int(lvl["min_scaled"]["num"]), int(lvl["min_scaled"]["den"]))
    scaled *= Fraction(lvl["card_E"], lvl["card_F"])
    printed = capsys.readouterr().out
    assert f"n=2 min_scaled*|E_n|/|F_n|={float(scaled):.7f}" in printed
    assert "0.1484985" in printed


def test_dominate_fails_on_a_broken_identity(z_config, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("folnerdom.cli.check_chain_identities", lambda chain: ["F_2 not inside E_2"])
    out = tmp_path / "out"
    assert run("dominate", z_config, out) == EXIT_FAIL
    assert capsys.readouterr().err == "identity: F_2 not inside E_2\n"
    # the level certificates are still written, as for a failing level
    assert {p.name for p in out.iterdir()} == {"dominance.json", "dominance.csv"}
    assert json.loads((out / "dominance.json").read_text())["levels"][0]["verdict"] == "pass"


@pytest.mark.parametrize("cmd", ["sweep", "simulate"])
def test_sweep_and_simulate_fail_on_a_broken_identity(z_config, tmp_path, capsys, monkeypatch, cmd):
    calls = []

    def broken(chain):
        calls.append(chain)
        return ["F_2 not inside E_2"]

    monkeypatch.setattr("folnerdom.cli.check_chain_identities", broken)
    out = tmp_path / "out"
    assert run(cmd, z_config, out) == EXIT_FAIL
    err = capsys.readouterr().err
    # the sets do not depend on the tail base, so sweep checks its first chain only
    assert len(calls) == 1
    if cmd == "sweep":
        assert err == "identity: F_2 not inside E_2\n"
        # the rows are still written, as dominate writes its certificates
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4 and all(row.endswith(",pass") for row in rows[1:])
    else:
        # simulate transfers nothing from the chain, as from a failing level
        assert err == "identity: F_2 not inside E_2\ndominance certificate failed; cannot transfer\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "cmd,tainted,code",
    [
        ("dominate", {2}, EXIT_BUDGET),
        ("dominate", set(), EXIT_FAIL),
        ("simulate", {2}, EXIT_BUDGET),
        ("simulate", set(), EXIT_FAIL),
        ("sweep", {2, 3, 4}, EXIT_BUDGET),
        ("sweep", set(), EXIT_FAIL),
        # a failed exact level outranks a tainted one, in either order
        ("sweep", {2}, EXIT_FAIL),
        ("sweep", {3, 4}, EXIT_FAIL),
    ],
)
def test_failing_level_exit_code_follows_its_taint(z_config, tmp_path, capsys, monkeypatch, cmd, tainted, code):
    # no shipped config reaches a failing tainted level, so every level fails
    # here, tainted on the tail bases in ``tainted``; the cap of 60 truncates
    # the walk (omega^(2) has 97 atoms) and keeps the balls of radius <= 16
    report = dominance.dominance_report
    monkeypatch.setattr(
        "folnerdom.cli.dominance_report",
        lambda chain, n: report(chain, n)._replace(verdict="fail", tainted=chain.schedule.tail_base in tainted),
    )
    cfg = json.loads(Path(z_config).read_text())
    cfg["simulate"]["convergence_radii"] = [8, 16]
    out = tmp_path / "out"
    assert run(cmd, write_config(tmp_path / "small.json", cfg), out, "--cap", "60") == code
    budget = [line for line in capsys.readouterr().err.splitlines() if line.startswith("budget:")]
    assert budget == ["budget: level 2 fails on a walk truncated at the cap, cap is 60"] * len(tainted)
    # the failing rows are still written, tainted or not; simulate transfers nothing
    written = {"dominate": {"dominance.json", "dominance.csv"}, "sweep": {"sweep.csv"}, "simulate": set()}
    assert {p.name for p in out.glob("*")} == written[cmd]
    if cmd == "dominate":
        assert (out / "dominance.csv").read_text().splitlines()[1].endswith(f",fail,{str(bool(tainted)).lower()}")


def test_dominate_truncates_only_the_walk_under_its_cap(z_config, tmp_path):
    # |E_2| = 49 fits under both caps; omega^(2) has 97 atoms, so a cap of
    # 60 truncates the walk: the level stays a pass, as a certified lower
    # bound, and is marked tainted
    assert run("dominate", z_config, tmp_path / "c60", "--cap", "60") == EXIT_PASS
    row = (tmp_path / "c60" / "dominance.csv").read_text().splitlines()[1]
    assert row == "2,33,49,4,4065765/30118144,363/3136,30118144/4065765,pass,true"
    assert json.loads((tmp_path / "c60" / "dominance.json").read_text())["levels"][0]["tainted"]
    # a cap the walk fits under changes nothing
    assert run("dominate", z_config, tmp_path / "c97", "--cap", "97") == EXIT_PASS
    assert run("dominate", z_config, tmp_path / "exact") == EXIT_PASS
    exact = (tmp_path / "exact" / "dominance.json").read_bytes()
    assert (tmp_path / "c97" / "dominance.json").read_bytes() == exact
    assert json.loads(exact)["levels"][0]["tainted"] is False


# every kernel each group overrides, and so has a faster path than the
# base-class loop, its reference
OVERRIDES = {Zd: ("ball", "ball_counts", "convolve", "product"), Heisenberg: (), Lamplighter: ()}


def use_reference_kernels(monkeypatch):
    """From here on every group runs the base-class kernels."""
    for cls, names in OVERRIDES.items():
        for name in names:
            monkeypatch.setattr(cls, name, getattr(Group, name))


def test_every_override_has_a_reference_path():
    law = {"mul", "inv", "encode", "token", "quotient"}
    for cls, names in OVERRIDES.items():
        public = {name for name, value in vars(cls).items() if callable(value) and not name.startswith("_")}
        assert public - law == set(names), cls


@pytest.mark.parametrize("group,cap", [("zd:1", None), ("zd:1", 20), ("zd:2", None), ("zd:2", 200)])
def test_fast_path_equals_reference_path(tmp_path, capsys, monkeypatch, group, cap):
    # the caps truncate only the walk: omega^(2) has 25 atoms on Z and 313 on Z^2
    cfg = {
        "schema": 1,
        "group": group,
        "folner": {"kind": "balls", "radii": [1, 2]},
        "action": {"modulus": 3},
        "simulate": {"convergence_radii": [1, 4], "tolerance": "1/10", "kadison_trials": 3},
    }
    config = write_config(tmp_path / "c.json", cfg)
    flags = () if cap is None else ("--cap", str(cap))

    def outputs(path):
        seen = {}
        for cmd in ("chain", "dominate", "sweep", "simulate"):
            code = run(cmd, config, tmp_path / path / cmd, *flags)
            files = {p.name: p.read_bytes() for p in (tmp_path / path / cmd).iterdir()}
            seen[cmd] = code, capsys.readouterr(), files
        return seen

    fast = outputs("fast")
    use_reference_kernels(monkeypatch)
    assert outputs("reference") == fast
    assert [code for code, _, _ in fast.values()] == [EXIT_PASS] * 4
    assert (b",pass,true" in fast["dominate"][2]["dominance.csv"]) == (cap is not None)


def test_dominate_reads_the_top_power_once_per_level(tmp_path, monkeypatch):
    calls = []
    convolve_at = dominance.convolve_at

    def counted(mu, nu, points):
        calls.append(mu)
        return convolve_at(mu, nu, points)

    monkeypatch.setattr(dominance, "convolve_at", counted)
    config = str(CONFIGS / "z_depth3.json")
    assert run("dominate", config, tmp_path / "out", "--depth", "2") == EXIT_PASS
    assert len(calls) == 1  # one certified level, items 1 and 2 together


def test_simulate_pass_and_seeded(z_config, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run("simulate", z_config, out1, "--seed", "7") == EXIT_PASS
    assert run("simulate", z_config, out2, "--seed", "7") == EXIT_PASS
    assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()
    rows = (out1 / "simulate.csv").read_text().strip().splitlines()
    assert any(r.startswith("dominance_transfer") and r.endswith("true") for r in rows)
    assert any(r.startswith("kadison_failures") and r.endswith("true") for r in rows)


def test_simulate_fail_on_tight_tolerance(z_config, tmp_path):
    cfg = json.loads(Path(z_config).read_text())
    cfg["simulate"]["convergence_radii"] = [4, 8]
    cfg["simulate"]["tolerance"] = "1/1000000"
    tight = write_config(tmp_path / "tight.json", cfg)
    assert run("simulate", tight, tmp_path / "o") == EXIT_FAIL


def test_simulate_lamplighter(ll_config, tmp_path):
    out = tmp_path / "out"
    assert run("simulate", ll_config, out) == EXIT_PASS
    rows = (out / "simulate.csv").read_text().strip().splitlines()
    conv = [r for r in rows if r.startswith("convergence,5")]
    # m = 3 divides 5 + 1: the average equals the projection exactly
    assert conv and conv[0] == "convergence,5,0,1,true"


def test_simulate_zero_tolerance_is_valid(z_config, tmp_path):
    # balls of 3 and 9 points cover Z/3 evenly, so each average equals the
    # projection exactly and a tolerance of 0 passes
    cfg = json.loads(Path(z_config).read_text())
    cfg["action"] = {"modulus": 3}
    cfg["simulate"].update(convergence_radii=[1, 4], tolerance=0)
    out = tmp_path / "o"
    assert run("simulate", write_config(tmp_path / "zero.json", cfg), out) == EXIT_PASS
    conv = [r for r in (out / "simulate.csv").read_text().splitlines() if r.startswith("convergence,")]
    assert conv == ["convergence,1,0,1,true", "convergence,4,0,1,true"]


def test_simulate_heisenberg(tmp_path):
    # 27 states: (a, b, c) mod 3 under the Heisenberg law of groups.py
    config = write_config(
        tmp_path / "heis.json",
        {
            "schema": 1,
            "group": "heisenberg",
            "schedule": {"depth": 2},
            "folner": {"kind": "balls", "radii": [1, 2]},
            "action": {"modulus": 3},
            "simulate": {
                "observable": {"kind": "indicator", "states": [0, 3]},
                "convergence_radii": [1, 2, 4],
                "tolerance": "1/2",
                "kadison_trials": 5,
            },
        },
    )
    out = tmp_path / "out"
    assert run("simulate", config, out) == EXIT_PASS
    # reference bytes, computed with the law written out mod 3 apart from groups.py
    assert (out / "simulate.csv").read_text() == (
        "check,n,value_num,value_den,ok\n"
        "convergence,1,44,135,true\n"
        "convergence,2,74,459,true\n"
        "convergence,4,4,135,true\n"
        "dominance_transfer,2,100847457721,405666410051,true\n"
        "weak11_mass,0,0,1,true\n"
        "kadison_failures,5,0,1,true\n"
    )


def test_sweep(z_config, tmp_path, capsys):
    cfg = json.loads(Path(z_config).read_text())
    cfg["sweep"] = {"tail_bases": [2, 3]}
    sw = write_config(tmp_path / "sw.json", cfg)
    out = tmp_path / "out"
    assert run("sweep", sw, out) == EXIT_PASS
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("tail_base")
    assert len(lines) == 3  # header + one level per base
    assert all(line.endswith(",pass") for line in lines[1:])
    # one limit-diagnostics row on stdout per certified level, no extra file
    assert [p.name for p in out.iterdir()] == ["sweep.csv"]
    printed = [line for line in capsys.readouterr().out.splitlines() if " r_N=" in line]
    assert [line.split()[:2] for line in printed] == [["tail_base=2", "n=2"], ["tail_base=3", "n=2"]]


# the heisenberg-sweep-capped benchmark config: the cap of 4000 truncates the walk
HEISENBERG_SWEEP = {
    "schema": 1,
    "group": "heisenberg",
    "schedule": {"tail_base": 2, "length_base": 2, "depth": 2},
    "folner": {"kind": "balls", "radii": [1, 2]},
    "sweep": {"tail_bases": [2, 3]},
}


@pytest.mark.parametrize(
    "config,flags",
    [
        pytest.param("z_depth3.json", ("--depth", "2"), id="z-depth-2"),
        pytest.param("z_extract.json", (), id="extraction"),
        pytest.param("z_extract.json", ("--cap", "60"), id="extraction-cap-60"),
        pytest.param(None, ("--cap", "4000"), id="heisenberg-cap-4000"),
    ],
)
def test_sweep_equals_dominate_at_each_tail_base(tmp_path, config, flags):
    # sweep builds the sets once; at each tail base c its rows must be the
    # certificates of dominate on the config with schedule.tail_base = c
    cfg = HEISENBERG_SWEEP if config is None else json.loads((CONFIGS / config).read_text())
    assert run("sweep", write_config(tmp_path / "sweep.json", cfg), tmp_path / "sweep", *flags) == EXIT_PASS
    swept = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    expected = []
    for c in cfg.get("sweep", {}).get("tail_bases", [2, 3, 4]):
        at_c = dict(cfg, schedule=dict(cfg["schedule"], tail_base=c))
        assert run("dominate", write_config(tmp_path / f"{c}.json", at_c), tmp_path / str(c), *flags) == EXIT_PASS
        for row in (tmp_path / str(c) / "dominance.csv").read_text().splitlines()[1:]:
            n, _card_F, _card_E, _N, *certificate, _taint = row.split(",")
            expected.append(",".join([str(c), n, *certificate]))
    assert swept == expected


def test_sweep_builds_its_chain_once(z_config, tmp_path, monkeypatch):
    # each tail base used to rebuild, and re-read, every set
    calls = []
    build = cli.build_chain
    monkeypatch.setattr("folnerdom.cli.build_chain", lambda *args: calls.append(args) or build(*args))
    cfg = json.loads(Path(z_config).read_text())
    cfg["sweep"] = {"tail_bases": [2, 3, 4]}
    assert run("sweep", write_config(tmp_path / "sweep.json", cfg), tmp_path / "out") == EXIT_PASS
    assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 4
    assert len(calls) == 1


def test_readme_diagnostics_block_is_what_the_cli_prints(tmp_path, capsys):
    # the commands of the README's Diagnostics block, each followed by its stdout
    section = README.read_text().split("\n## Diagnostics\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    runs = []
    for line in block.splitlines():
        if line.startswith("$ "):
            runs.append((shlex.split(line[2:]), []))
        else:
            runs[-1][1].append(line)
    assert [argv[:2] for argv, _ in runs] == [["folnerdom", "dominate"], ["folnerdom", "sweep"]]
    for i, (argv, expected) in enumerate(runs):
        argv = argv[1:]
        argv[argv.index("--config") + 1] = str(README.parent / argv[argv.index("--config") + 1])
        argv[argv.index("--out") + 1] = str(tmp_path / str(i))
        assert main(argv) == EXIT_PASS
        assert capsys.readouterr().out.splitlines() == expected


# Runs in a fresh ``python -S`` (no site, so no .pth file imports anything):
# which modules the four cold subcommands without an action load, and
# which a cold simulate loads.
STARTUP_PROBE = """
import json, sys
from folnerdom import cli
loaded = lambda: {m: m in sys.modules for m in ("dataclasses", "inspect", "folnerdom.actions")}
config, out = sys.argv[1:]
codes = [cli.main([cmd, "--config", config, "--out", out]) for cmd in ("census", "chain", "dominate", "sweep")]
after_certify = loaded()
codes.append(cli.main(["simulate", "--config", config, "--out", out]))
after_simulate = loaded()
print(json.dumps([codes, after_certify, after_simulate]))
"""


def test_cold_certify_loads_no_dataclasses_and_no_actions(z_config, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", STARTUP_PROBE, z_config, str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    codes, after_certify, after_simulate = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [EXIT_PASS] * 5
    assert after_certify == {"dataclasses": False, "inspect": False, "folnerdom.actions": False}
    assert after_simulate == {"dataclasses": False, "inspect": False, "folnerdom.actions": True}
    # the finite lemmas are test code: no package module holds them
    assert importlib.util.find_spec("folnerdom.lemmas") is None
