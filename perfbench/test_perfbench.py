"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inproc  # noqa: E402
import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, _rows_ok, check_outputs, load_record  # noqa: E402


def _cli_pass(name: str, seed: int, tmp_path: Path) -> tuple[list, Path]:
    out = tmp_path / "out"
    out.mkdir()
    return [c.code for c in run.Run(name, seed, tmp_path, {}).cli_steps(out)], out


def test_flipped_byte_counts_as_failure(tmp_path):
    wl = WORKLOADS["lamplighter-certify"]
    codes, out = _cli_pass(wl.name, 7, tmp_path)
    record = load_record()
    assert check_outputs(wl, 7, codes, str(out), record) == []
    target = out / "omega.csv"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    assert check_outputs(wl, 7, codes, str(out), record) == ["omega.csv differs from the recorded bytes"]


def test_missing_or_extra_output_and_bad_exit_fail(tmp_path):
    wl = WORKLOADS["heisenberg-sweep-capped"]
    (tmp_path / "sweep.csv").write_text("tail_base,n,min_scaled,bound,c_emp,verdict\n")
    (tmp_path / ".tmp-x").write_text("")
    problems = check_outputs(wl, DEFAULT_SEED, [3], str(tmp_path), load_record())
    assert problems[0] == "exit code 3" and "output files" in problems[1]


def test_simulate_rows():
    head = "check,n,value_num,value_den,ok\n"
    early_miss = "convergence,64,1,2,false\nconvergence,65536,1,9000,true\n"
    assert _rows_ok("simulate.csv", head + early_miss + "kadison_failures,25,0,1,true\n")
    assert not _rows_ok("simulate.csv", head + "convergence,64,1,2,false\n")
    assert not _rows_ok("simulate.csv", head + early_miss + "dominance_transfer,2,-1,1,false\n")


def test_rusage_is_per_child(tmp_path):
    big = run.spawn(["-c", "b = bytearray(96 << 20); b[::4096] = b'x' * len(b[::4096])"], tmp_path / "log")
    small = run.spawn(["-c", "pass"], tmp_path / "log")
    assert big.code == small.code == 0
    assert big.rss_mb > 90
    assert small.rss_mb < 60


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    from folnerdom import cli, dominance, measures
    from folnerdom.groups import Zd

    originals = (dominance.convolve_at, measures.convolve, cli.dominance_report, Zd.mul)
    cfg = tmp_path / "z.json"
    cfg.write_text(
        '{"schema": 1, "group": "zd:1", "schedule": {"tail_base": 2, "length_base": 2, "depth": 2},'
        ' "folner": {"kind": "balls", "radii": [1, 2]}}'
    )
    tracer = inproc.Tracer()
    tracer.install()
    try:
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    finally:
        tracer.restore()
    assert (dominance.convolve_at, measures.convolve, cli.dominance_report, Zd.mul) == originals
    table = run.self_times(tracer.spans)
    # reached only through module-level names bound by direct import
    for name in ("cli.cmd_dominate", "dominance.dominance_report", "measures.convolve_at", "measures.convolve"):
        assert table[name][1] >= 1, name
    assert table["measures.convolve"][1] == len(tracer.powers) == 2
    assert tracer.counts["groups.mul.calls"] > 0
    assert tracer.counts["measures.convolve.pairs"] > 0


def test_self_time_subtracts_children():
    spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0], ["b", 0, 5.0, 6.0]]
    table = run.self_times(spans)
    assert table["a"][0] == pytest.approx(6.0)
    assert table["b"][0] == pytest.approx(3.0) and table["b"][1] == 2
    assert table["c"][0] == pytest.approx(1.0)
