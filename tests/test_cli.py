"""Command-line interface, configuration, and export-format checks."""

import argparse
import dataclasses
import inspect
import pathlib
import shlex
import struct
import warnings

import numpy as np
import pytest

from lieb2b import bethe, cli, exceptional, holonomy, serialize
from lieb2b.bethe import solve_k_real
from lieb2b.config import ConfigError, RunConfig, parse_config
from lieb2b.continuation import CutSegment, GridSpec, build_sheet
from lieb2b.exceptional import ExceptionalPointError
from lieb2b.holonomy import TruncationSpec, ep_loop_holonomy, m_n_analytic
from lieb2b.bethe import Parity
from lieb2b.serialize import (ExportRecord, SerializationError, csv_table,
                              cycle_document, format_float, holonomy_document,
                              parse_csv_table, parse_cycle_document,
                              parse_holonomy_document, parse_record,
                              parse_sheet_document, sheet_document)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The `lieb2b ...` lines of README's "Command line" code block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [ln for ln in block.splitlines() if ln.startswith("lieb2b ")]


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv_lines(text: str) -> dict:
    out = {}
    for ln in text.strip().splitlines():
        key, _, val = ln.partition(" = ")
        out[key] = val
    return out


class TestSolve:
    def test_free_value_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--n", 2, "--g", 0.0)
        assert code == 0
        doc = kv_lines(out)
        assert doc["k_re"] == "2.0"
        assert doc["k_im"] == "0.0"
        assert doc["energy"] == "2.0"
        assert doc["parity"] == "even"

    def test_strong_coupling_approaches_next_integer(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--n", 2, "--g", 1e6)
        assert code == 0
        assert abs(float(kv_lines(out)["k_re"]) - 3.0) < 1e-3

    def test_bound_branch(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--n", 0, "--g", -10.0)
        assert code == 0
        doc = kv_lines(out)
        assert abs(float(doc["k_im"]) + 10.0) / 10.0 < 0.1
        assert abs(float(doc["k_re"])) < 1e-8
        assert float(doc["energy"]) < -40.0

    def test_invalid_level_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--n", -1, "--g", 0.0)
        assert code == 2
        assert "error" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "solve.txt"
        code, out, _ = run_cli(capsys, "solve", "--n", 2, "--g", 0.0,
                               "--out", target)
        assert code == 0
        assert out == ""
        assert kv_lines(target.read_text())["k_re"] == "2.0"


    def test_out_file_in_a_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "solve.txt"
        code, out, err = run_cli(capsys, "solve", "--n", 2, "--g", 0.0,
                                 "--out", target)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert not target.parent.exists()


class TestEps:
    def test_even_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "eps", "--parity", "even",
                               "--n-max", 8)
        assert code == 0
        record = parse_record(out)
        assert record.command == "eps"
        assert record.config_hash == RunConfig().config_hash()
        columns, rows = parse_csv_table(record.payload)
        assert list(columns) == ["n", "g_re", "g_im", "k_re", "k_im",
                                 "residual_bethe", "residual_r"]
        assert [r[0] for r in rows] == [2, 4, 6, 8]
        for row in rows:
            assert row[1] < 0.0          # Re g in the left half plane
            assert row[2] < 0.0          # lower-half convention
            assert row[5] < 1e-10 and row[6] < 1e-10

    def test_odd_catalog_respects_bound_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "eps", "--parity", "odd",
                               "--n-max", 9)
        assert code == 0
        _, rows = parse_csv_table(parse_record(out).payload)
        assert [r[0] for r in rows] == [3, 5, 7, 9]
        for row in rows:
            assert row[1] < -2.0 / np.pi

    @pytest.mark.parametrize("argv", [("eps", "--n-max", 8), ("sheet", "--n", 0, "--points", 3)])
    def test_a_failed_rung_exits_2_with_nothing_on_stdout(self, capsys, monkeypatch, argv):
        # the default sheet window reaches |Im g| = 4, so the bound label's
        # cuts walk up to rung 6, the first point deeper than the window
        accept = exceptional._accept_root

        def refuse_6(parity, n, g):
            if n == 6:
                raise ExceptionalPointError("rung 6 refused")
            return accept(parity, n, g)

        monkeypatch.setattr(exceptional, "_accept_root", refuse_6)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "rung 6 refused" in err

    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "eps", "--n-max", 6, "--out", a)
        run_cli(capsys, "eps", "--n-max", 6, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestSheet:
    def test_grid_matches_axis_solver(self, capsys):
        code, out, _ = run_cli(capsys, "sheet", "--n", 4,
                               "--re-min", -2.0, "--re-max", 1.0,
                               "--im-min", -1.0, "--im-max", 1.0,
                               "--points", 9)
        assert code == 0
        record = parse_record(out)
        assert record.command == "sheet"
        cuts, columns, rows = parse_sheet_document(record.payload)
        assert columns == ["g_re", "g_im", "k_re", "k_im"]
        assert len(rows) == 81
        axis = {r[0]: complex(r[2], r[3]) for r in rows if r[1] == 0.0}
        assert axis[1.0] == solve_k_real(4, 1.0).k
        assert axis[-2.0] == solve_k_real(4, -2.0).k

    def test_cut_segment_is_recorded(self, capsys, golden_eps):
        code, out, _ = run_cli(capsys, "sheet", "--n", 4, "--points", 7)
        assert code == 0
        cuts, _, rows = parse_sheet_document(parse_record(out).payload)
        assert len(cuts) == 1
        re, im_lo, im_hi, kind, bp = cuts[0]
        assert kind == "exceptional"
        assert abs(bp - golden_eps[4].g_ep) < 1e-8
        assert im_hi == bp.imag and im_lo == -4.0
        assert len(rows) == 49

    def test_export_larger_than_a_block_re_parses_bit_for_bit(self, capsys):
        # 71 x 71 rows; the column at Re g = 0 holds the ground sheet's
        # real branch point, so it is aborted and its cells are NaN
        window = dict(re_min=-3.5, re_max=3.5, im_min=-4.0, im_max=0.5)
        code, out, _ = run_cli(capsys, "sheet", "--n", 0, "--points", 71,
                               *(f"--{k.replace('_', '-')}={v}" for k, v in window.items()))
        assert code == 0
        sheet = build_sheet(0, GridSpec(**window, n_re=71, n_im=71))
        assert np.isnan(sheet.k).sum() == 71
        _, columns, rows = parse_sheet_document(parse_record(out).payload)
        assert len(rows) == 5041 > serialize.BLOCK_ROWS
        table = np.array(rows).T.reshape(4, 71, 71)
        expected = np.broadcast_arrays(sheet.re_axis[None, :], sheet.im_axis[:, None],
                                       sheet.k.real, sheet.k.imag)
        for got, want in zip(table, expected):
            assert np.array_equal(got.view(np.int64), np.ascontiguousarray(want).view(np.int64))


class TestHolonomy:
    def test_ep_loop_document(self, capsys):
        code, out, _ = run_cli(capsys, "holonomy", "--contour", "ep-loop",
                               "--n", 2, "--trunc", 8)
        assert code == 0
        record = parse_record(out)
        levels, matrix, perm, phases = parse_holonomy_document(record.payload)
        assert levels == (0, 2, 4, 6, 8, 10, 12, 14)
        assert perm == {n: {0: 2, 2: 0}.get(n, n) for n in levels}
        # the exact signs of M(2), not the transport matrix's entries
        assert phases == {n: -1.0 if n == 2 else 1.0 for n in levels}
        target = m_n_analytic(2, TruncationSpec(Parity.EVEN, 8)).matrix
        assert np.max(np.abs(matrix - target)) < 2e-2

    def test_wide_ep_loop_reads_its_pair(self, capsys):
        # level 2's column of the transport matrix peaks at modulus 0.896
        # here, but the circle encloses g_ep(2) alone
        code, out, err = run_cli(capsys, "holonomy", "--n", 2, "--radius", 1.0)
        assert (code, err) == (0, "")
        levels, _, perm, phases = parse_holonomy_document(parse_record(out).payload)
        assert perm == {n: {0: 2, 2: 0}.get(n, n) for n in levels}
        assert phases == {n: -1.0 if n == 2 else 1.0 for n in levels}

    def test_chain_document(self, capsys):
        code, out, _ = run_cli(capsys, "holonomy", "--contour", "chain",
                               "--ns", "2,4", "--trunc", 10)
        assert code == 0
        levels, _, perm, phases = parse_holonomy_document(parse_record(out).payload)
        assert perm[0] == 2 and perm[2] == 4 and perm[4] == 0
        assert all(perm[n] == n for n in (6, 8, 10, 12, 14, 16, 18))
        assert phases == {n: 1.0 for n in levels}

    def test_empty_contour_is_identity(self, capsys):
        code, out, _ = run_cli(capsys, "holonomy", "--contour", "empty",
                               "--g0", 1.0, "--trunc", 6)
        assert code == 0
        levels, matrix, perm, _ = parse_holonomy_document(
            parse_record(out).payload)
        assert perm == {n: n for n in levels}
        # a real loop of the configured radius about g0: identity to
        # criterion 9's bound, not by construction
        assert np.max(np.abs(matrix - np.eye(6))) < 1e-8

    @pytest.mark.parametrize("argv", [
        ("--g0", 5e-4),                      # around the even family's g = 0
        ("--parity", "odd", "--g0", -0.637),  # around the odd family's -2/pi
        ("--g0", -3.0, "--radius", 2.5),     # around the EP of n = 2
    ])
    def test_empty_contour_around_a_branch_point_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "holonomy", "--contour", "empty",
                                 "--trunc", 4, *argv)
        assert code == 2
        assert out == ""
        assert "branch point" in err

    @pytest.mark.parametrize("command, contour", [("holonomy", "empty"),
                                                  ("cycle", "eps")])
    @pytest.mark.parametrize("g0", ["inf", "nan"])
    def test_non_finite_base_point_exits_2(self, capsys, command, contour, g0):
        code, out, err = run_cli(capsys, command, "--contour", contour,
                                 "--g0", g0, "--trunc", 4)
        assert code == 2
        assert out == ""
        assert g0 in err and "not a finite coupling" in err

    @pytest.mark.parametrize("ns, message", [
        ("", "needs at least one level"),
        ("2,,4", "comma-separated integers"),
        ("2,four", "comma-separated integers"),
    ])
    def test_malformed_chain_levels_exit_2(self, capsys, ns, message):
        code, out, err = run_cli(capsys, "holonomy", "--contour", "chain",
                                 "--ns", ns, "--trunc", 4)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("contour", ["empty", "ep-loop"])
    @pytest.mark.parametrize("radius", [-0.5, 1e-6])
    def test_radius_below_the_floor_exits_2(self, capsys, contour, radius):
        code, out, err = run_cli(capsys, "holonomy", "--contour", contour,
                                 "--radius", radius, "--trunc", 4)
        assert code == 2
        assert out == ""
        assert "below the floor" in err

    @pytest.mark.parametrize("argv, level", [
        (("--n", 30, "--trunc", 12), 30),
        (("--contour", "chain", "--ns", "2,3", "--trunc", 6), 3),
    ])
    def test_level_outside_the_truncation_exits_2_before_transport(
            self, capsys, monkeypatch, argv, level):
        def refused(*args, **kwargs):
            raise AssertionError("transport ran for a level outside the truncation")

        monkeypatch.setattr(holonomy, "transport", refused)
        code, out, err = run_cli(capsys, "holonomy", *argv)
        assert (code, out) == (2, "")
        assert f"level {level} is not in this truncation" in err


class TestCycle:
    def test_hermitian_document_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--contour", "hermitian",
                               "--g0", 1.0, "--trunc", 8)
        assert code == 0
        record = parse_record(out)
        doc = parse_cycle_document(record.payload)
        assert doc["permutation"] == {n: n + 2 for n in doc["levels"]}
        assert doc["exiting"] == (14,)
        assert doc["kbar"] == 0
        for n in doc["levels"]:
            assert doc["energy_after"][n] > doc["energy_before"][n]
        rebuilt = cycle_document(doc["g0"], doc["kbar"], doc["levels"],
                                 doc["permutation"], doc["phases"],
                                 doc["energy_before"], doc["energy_after"],
                                 doc["exiting"])
        assert rebuilt == record.payload

    def test_eps_contour_document(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--contour", "eps",
                               "--g0", 4.0, "--n-ep", 1, "--trunc", 12)
        assert code == 0
        doc = parse_cycle_document(parse_record(out).payload)
        assert doc["permutation"][0] == 2
        assert doc["permutation"][2] == 0
        assert doc["phases"][2] == -1.0
        assert all(doc["permutation"][n] == n for n in doc["levels"][2:])
        assert doc["exiting"] == ()

    def test_eps_contour_around_no_point_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "cycle", "--contour", "eps",
                                 "--g0", 4.0, "--n-ep", 0, "--trunc", 4)
        assert code == 2
        assert out == ""
        assert "at least one exceptional point" in err


class TestOracleCheck:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--g", 0.5,
                               "--trunc", 6)
        assert code == 0
        assert out.rstrip().endswith("PASS")
        assert "even" in out and "odd" in out

    @pytest.mark.parametrize("g", [0.0, -0.6366197723675814])
    def test_real_branch_point_exits_2(self, capsys, g):
        # RuntimeWarnings are errors in this suite, so none is raised
        code, out, err = run_cli(capsys, "oracle-check", "--g", g)
        assert code == 2
        assert "real branch point" in err and "Traceback" not in err

    @pytest.mark.parametrize("g", [1e-3, -0.6356])
    def test_passes_next_to_the_real_branch_points(self, capsys, g):
        code, out, _ = run_cli(capsys, "oracle-check", "--g", g)
        assert code == 0
        assert out.rstrip().endswith("PASS")

    @pytest.mark.parametrize("g", [-300.0, -1e4])
    def test_deep_bound_coupling_exits_2(self, capsys, g):
        # sin(pi k) of the bound level overflows there; RuntimeWarnings
        # are errors in this suite, so none is raised
        code, out, err = run_cli(capsys, "oracle-check", "--g", g, "--trunc", 4)
        assert (code, out) == (2, "")
        assert "overflows past pi |Im k| = 709.783" in err

    def test_passes_just_inside_the_overflow_limit(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--g", -220.0, "--trunc", 4)
        assert code == 0
        assert out.rstrip().endswith("PASS")

    def test_nan_difference_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "overlap_connection_oracle",
                            lambda n, *args, **kwargs: np.full((n, n), np.nan))
        code, out, _ = run_cli(capsys, "oracle-check", "--trunc", 4)
        assert code == 2
        assert "difference = nan" in out
        assert out.rstrip().endswith("FAIL")


class TestConfig:
    def test_config_file_with_defaults_keeps_hash(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment line\nloop_radius = 1e-3\n\ntruncation = 12\n")
        _, out, _ = run_cli(capsys, "eps", "--config", path)
        assert parse_record(out).config_hash == RunConfig().config_hash()

    def test_changed_key_changes_hash(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("truncation = 10\n")
        _, out, _ = run_cli(capsys, "eps", "--config", path)
        assert parse_record(out).config_hash != RunConfig().config_hash()
        assert parse_record(out).config_hash == \
            RunConfig(truncation=10).config_hash()

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("solver_tolerance = 1e-12\n")
        code, _, err = run_cli(capsys, "eps", "--config", path)
        assert code == 2 and "unknown key" in err

    def test_invalid_value_exits_2(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("loop_radius = -1.0\n")
        code, _, _ = run_cli(capsys, "eps", "--config", path)
        assert code == 2

    @pytest.mark.parametrize("name", ["missing.cfg", "."])
    def test_unreadable_config_file_exits_2(self, capsys, tmp_path, name):
        # a missing file, and a directory in place of a file
        code, out, err = run_cli(capsys, "solve", "--n", 2, "--g", 1.0,
                                 "--config", tmp_path / name)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eps", "holonomy", "cycle"])
    def test_unknown_parity_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--parity", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("key", [
        "loop_radius", "grid_re_min", "grid_re_max", "grid_im_min", "grid_im_max"])
    def test_non_finite_float_key_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            RunConfig(**{key: value})

    def test_infinite_loop_radius_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("loop_radius = inf\n")
        code, out, err = run_cli(capsys, "holonomy", "--config", path, "--trunc", 4)
        assert (code, out) == (2, "")
        assert "loop_radius must be finite" in err

    def test_every_key_is_a_setting_flag(self):
        # a key no flag sets would be a setting no command ever varies
        subcommands = next(a for a in cli.build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for p in subcommands.choices.values() for a in p._actions}
        keys = [f.name for f in dataclasses.fields(RunConfig)]
        assert len(keys) == 8 and set(keys) <= dests

    @pytest.mark.parametrize("key", [
        "solver_tol", "transport_rtol", "oracle_dg", "quadrature_nodes", "proxy_infinity"])
    def test_retired_key_is_unknown(self, capsys, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 1\n")
        code, out, err = run_cli(capsys, "eps", "--config", path)
        assert (code, out) == (2, "")
        assert "unknown key" in err and key in err

    def test_tolerance_constants_are_the_library_defaults(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert RunConfig.solver_tol == bethe.RESIDUAL_TARGET == default(solve_k_real, "tol") \
            == default(build_sheet, "tol")
        assert RunConfig.transport_rtol == holonomy.TRANSPORT_RTOL \
            == default(holonomy.transport, "rtol") == default(ep_loop_holonomy, "rtol")
        with pytest.raises(TypeError):
            RunConfig(solver_tol=1e-8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().transport_rtol = 1e-8

    def test_parse_rejects_duplicates_and_garbage(self):
        with pytest.raises(ConfigError):
            parse_config("truncation = 8\ntruncation = 10\n")
        with pytest.raises(ConfigError):
            parse_config("truncation ten\n")
        with pytest.raises(ConfigError):
            parse_config("truncation = ten\n")

    def test_hash_ignores_comments_and_order(self):
        a = parse_config("truncation = 10\nloop_radius = 2e-3\n")
        b = parse_config("# swapped\nloop_radius = 2e-3\ntruncation = 10\n")
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize("command, flag, key, value", [
        (("eps",), "--n-max", "ep_n_max", 4),
        (("sheet", "--n", 2), "--re-min", "grid_re_min", -2.0),
        (("sheet", "--n", 2), "--re-max", "grid_re_max", 0.5),
        (("sheet", "--n", 2), "--im-min", "grid_im_min", -2.0),
        (("sheet", "--n", 2), "--im-max", "grid_im_max", 0.25),
        (("sheet", "--n", 2), "--points", "grid_points", 7),
        (("holonomy", "--contour", "empty"), "--radius", "loop_radius", 2e-3),
        (("holonomy", "--contour", "ep-loop"), "--trunc", "truncation", 6),
        (("cycle",), "--trunc", "truncation", 6),
        (("oracle-check",), "--trunc", "truncation", 4),
    ])
    def test_flag_and_config_key_are_one_setting(self, capsys, tmp_path,
                                                 command, flag, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        by_flag = run_cli(capsys, *command, flag, value)
        by_file = run_cli(capsys, *command, "--config", path)
        assert by_flag == by_file
        assert by_flag[0] == 0
        if command[0] != "oracle-check":  # a plain report, no record
            assert parse_record(by_flag[1]).config_hash == \
                RunConfig(**{key: value}).config_hash()

    @pytest.mark.parametrize("command, defaults", [
        (("eps",), ("--n-max", 8)),
        (("sheet", "--n", 2), ("--re-min", -3.0, "--re-max", 1.0, "--im-min", -4.0,
                               "--im-max", 0.5, "--points", 41)),
        (("holonomy",), ("--trunc", 12, "--radius", 1e-3)),
        (("cycle",), ("--trunc", 12)),
        (("oracle-check",), ("--trunc", 12)),
    ])
    def test_flags_at_their_defaults_change_nothing(self, capsys, command, defaults):
        assert run_cli(capsys, *command, *defaults) == run_cli(capsys, *command)

    @pytest.mark.parametrize("command, flag, key, value", [
        (("sheet", "--n", 2), "--points", "grid_points", 1),
        (("holonomy",), "--trunc", "truncation", 1),
        (("cycle",), "--trunc", "truncation", 1),
        (("oracle-check",), "--trunc", "truncation", 1),
        (("eps",), "--n-max", "ep_n_max", 1),
        (("holonomy",), "--radius", "loop_radius", 1e-6),
        (("holonomy",), "--radius", "loop_radius", -0.5),
        (("holonomy",), "--radius", "loop_radius", float("nan")),
    ])
    def test_invalid_setting_exits_2_by_flag_or_file(self, capsys, tmp_path,
                                                     command, flag, key, value):
        with pytest.raises(ConfigError) as exc:
            RunConfig(**{key: value})
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        for argv in ((flag, value), ("--config", path)):
            assert run_cli(capsys, *command, *argv) == (2, "", f"error: {exc.value}\n")

    @pytest.mark.parametrize("key, value", [
        ("grid_re_min", -2e6), ("grid_re_max", 2e6), ("grid_im_min", -1e300),
        ("grid_im_max", 1e7)])
    def test_grid_window_beyond_the_domain_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})

    def test_sheet_far_below_the_domain_exits_2(self, capsys):
        # far outside |g| <= 1e6 the bound labels' kernel overflows and
        # n = 2's deep columns abort to NaN cells
        for n in (0, 2):
            code, out, err = run_cli(capsys, "sheet", "--n", n, "--im-min=-1e300")
            assert (code, out) == (2, "") and "grid_im_min" in err


class TestCouplingDomain:
    @pytest.mark.parametrize("argv", [
        ("solve", "--n", 0, "--g=-1e155"),
        ("solve", "--n", 2, "--g", 1e7),
        ("oracle-check", "--g", 1e7, "--trunc", 4),
        ("cycle", "--g0", 1e7, "--trunc", 4),
        ("holonomy", "--contour", "empty", "--g0", 1e7, "--trunc", 4),
        # the default circle about the edge reaches 1e-3 past it
        ("holonomy", "--contour", "empty", "--g0", 1e6, "--trunc", 4),
    ])
    def test_coupling_outside_the_domain_exits_2(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "outside the coupling domain |Re g|, |Im g| <= 1e+06" in err

    def test_bound_level_answers_at_the_edge(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--n", 0, "--g=-1e6")
        assert code == 0
        doc = kv_lines(out)
        assert float(doc["k_re"]) == 0.0 and abs(float(doc["k_im"]) + 1e6) < 1.0
        assert float(doc["scaled_residual"]) <= 1e-10

    def test_hermitian_cycle_answers_at_the_edge(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--contour", "hermitian",
                               "--g0=-1e6", "--trunc", 4)
        assert code == 0
        doc = parse_cycle_document(parse_record(out).payload)
        assert doc["permutation"] == {n: n + 2 for n in doc["levels"]}

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("g0", [450.0, 1000.0, -1000.0, 999999.0, -999999.0])
    def test_empty_contour_far_out_is_identity(self, capsys, parity, g0):
        # the collision momentum is deep on these circles: F's phase must
        # not overflow on the way to the branch-point probe
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "holonomy", "--contour", "empty",
                                     f"--g0={g0}", "--parity", parity, "--trunc", 6)
        assert (code, err) == (0, "")
        levels, matrix, perm, _ = parse_holonomy_document(parse_record(out).payload)
        assert perm == {n: n for n in levels}
        assert np.max(np.abs(matrix - np.eye(6))) < 1e-8


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_0(capsys, tmp_path, line):
    # a later --out wins over one the line gives
    argv = shlex.split(line)[1:]
    code, out, err = run_cli(capsys, *argv, "--out", tmp_path / "out.txt")
    assert (code, out, err) == (0, "", "")
    assert (tmp_path / "out.txt").stat().st_size > 0


class TestSerialize:
    def test_csv_round_trip_preserves_types(self):
        columns = ("n", "value", "tag")
        rows = [(2, 0.1 + 0.2, "ok"), (4, -1.3101e2, "failed: X")]
        text = csv_table(columns, rows)
        cols, parsed = parse_csv_table(text)
        assert cols == list(columns)
        assert parsed == [tuple(r) for r in rows]
        assert isinstance(parsed[0][0], int)
        assert isinstance(parsed[0][1], float)

    def test_csv_rejects_bad_rows(self):
        with pytest.raises(SerializationError):
            csv_table(("a", "b"), [(1,)])
        with pytest.raises(SerializationError):
            csv_table(("a",), [("x,y",)])

    def test_csv_float_rows_match_the_per_cell_rule(self):
        def per_cell(columns, rows):
            # the cell-by-cell formatting every row went through before
            # plain-float rows were joined from their reprs
            out = [",".join(columns)]
            for row in rows:
                cells = []
                for cell in row:
                    if isinstance(cell, str):
                        cells.append(cell)
                    elif isinstance(cell, (int, np.integer)):
                        cells.append(str(int(cell)))
                    else:
                        cells.append(format_float(cell))
                out.append(",".join(cells))
            return "\n".join(out) + "\n"

        columns = ("a", "b", "c", "d")
        rows = [(0.1 + 0.2, float("nan"), float("inf"), -float("inf")),
                (-0.0, 0.0, 5e-324, 1.7976931348623157e308),
                (np.float64(0.1), np.float64(-0.0), np.float64("nan"), 2.5),
                (np.float32(0.1), 1, np.int64(-7), True),
                ("tag", 1.5, 2, np.float64(1e-300)),
                (1.0, 2.0, 3.0, 4.0)]
        assert csv_table(columns, rows) == per_cell(columns, rows)
        for row in rows:
            assert csv_table(columns, [row]) == per_cell(columns, [row])
        with pytest.raises(SerializationError):
            csv_table(columns, [(1.0, 2.0, 3.0)])

        # more than two blocks: repeats in every float column, both zeros
        # and NaNs of either sign and a set payload in one column, and one
        # cell in each of two columns that leaves the float dedupe
        nan_bits = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF800000000BEEF)
        nans = [struct.unpack("<d", struct.pack("<Q", b))[0] for b in nan_bits]
        n_rows = 10_000
        assert n_rows > 2 * serialize.BLOCK_ROWS
        rng = np.random.default_rng(3)
        pool = rng.normal(size=50).tolist() + [0.0, -0.0, 5e-324, -5e-324]
        rows = [[pool[i] for i in rng.integers(len(pool), size=4)]
                for _ in range(n_rows)]
        for r, value in enumerate([0.0, -0.0, *nans] * 3):
            rows[r * 661][1] = value
        rows[5000][2] = np.float64(-0.0)
        rows[9999][3] = "tag"
        assert csv_table(columns, rows) == per_cell(columns, rows)

    def test_csv_header_from_a_generator(self):
        assert csv_table((c for c in "ab"), [(1.0, 2.0)]) == "a,b\n1.0,2.0\n"

    def test_holonomy_document_is_bitwise_stable(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        levels = (0, 2, 4, 6)
        perm = {0: 2, 2: 0, 4: 4, 6: 6}
        phases = {0: 1.0 + 0.0j, 2: -1.0 + 0.0j, 4: 1.0, 6: 1.0}
        text = holonomy_document(levels, m, perm, phases)
        lv, m2, p2, ph2 = parse_holonomy_document(text)
        assert lv == levels
        assert np.array_equal(m, m2)
        assert p2 == perm
        assert ph2 == {a: complex(z) for a, z in phases.items()}

    def test_empty_permutation_and_phases_round_trip(self):
        text = holonomy_document((0, 2), np.eye(2), {}, {})
        assert "permutation,\nphases,\n" in text
        assert parse_holonomy_document(text)[2:] == ({}, {})
        doc = parse_cycle_document(cycle_document(1.0, 0, (0, 2), {}, {}, {}, {}, ()))
        assert doc["permutation"] == {} and doc["phases"] == {}

    @pytest.mark.parametrize("line", ["permutation,0->2,2", "permutation,0->x",
                                      "phases,0:1.0+0.0j,2", "phases,0:one"])
    def test_malformed_permutation_or_phases_item_is_rejected(self, line):
        with pytest.raises(SerializationError, match="malformed item"):
            parse_holonomy_document(f"levels,0,2\nrow 0,1.0,0.0,0.0,0.0\n"
                                    f"row 1,0.0,0.0,1.0,0.0\n{line}\n")

    def test_writer_bytes_are_pinned(self):
        # fixed inputs, exact text: any change to a writer's bytes fails here
        nan, inf = float("nan"), float("inf")
        i64, f64 = np.int64, np.float64
        assert csv_table(("n", "a", "b", "tag"), [
            (i64(2), nan, inf, "ok"), (3, -inf, -0.0, "x"),
            (i64(-7), 5e-324, f64(0.1), "y"), (0, f64(-0.0), f64(nan), "z"),
            (1, 0.1 + 0.2, 1.5, "w")]) == (
            "n,a,b,tag\n2,nan,inf,ok\n3,-inf,-0.0,x\n-7,5e-324,0.1,y\n"
            "0,-0.0,nan,z\n1,0.30000000000000004,1.5,w\n")

        cuts = [CutSegment(-0.5, -1.0, -0.25, "exceptional", complex(-0.5, -0.25)),
                CutSegment(f64(0.0), 0.0, 5e-324, "real-axis", complex(-0.0, 0.0))]
        columns = ("g_re", "g_im", "k_re", "k_im")
        assert sheet_document(cuts, columns, [
            (-0.5, -0.0, nan, nan), (0.0, 5e-324, inf, -inf),
            (1.0, 0.5, 2.0, -1e-300)]) == (
            "cut,-0.5,-1.0,-0.25,exceptional,-0.5,-0.25\n"
            "cut,0.0,0.0,5e-324,real-axis,-0.0,0.0\n"
            "g_re,g_im,k_re,k_im\n-0.5,-0.0,nan,nan\n0.0,5e-324,inf,-inf\n"
            "1.0,0.5,2.0,-1e-300\n")
        assert sheet_document([], columns, [(1.0, 0.0, 2.0, -0.0)]) == (
            "g_re,g_im,k_re,k_im\n1.0,0.0,2.0,-0.0\n")

        m = np.array([[nan + 1j * inf, -0.0 - 0.0j, 5e-324 + 0j],
                      [1.0, -inf + 1j * nan, 0.1j],
                      [f64(2.5), complex(0.0, -0.0), 1e300 - 1e-300j]])
        assert holonomy_document(
            (i64(0), 2, i64(4)), m, {i64(4): i64(0), 0: 4, 2: 2},
            {i64(4): complex(-1.0, -0.0), 0: complex(nan, inf),
             2: complex(5e-324, -5e-324)}) == (
            "levels,0,2,4\nrow 0,nan,inf,-0.0,0.0,5e-324,0.0\n"
            "row 1,1.0,0.0,nan,nan,0.0,0.1\nrow 2,2.5,0.0,0.0,-0.0,1e+300,-1e-300\n"
            "permutation,0->4,2->2,4->0\n"
            "phases,0:nan+infj,2:5e-324-5e-324j,4:-1.0-0.0j\n")
        assert holonomy_document((1, 3), np.eye(2)) == (
            "levels,1,3\nrow 0,1.0,0.0,0.0,0.0\nrow 1,0.0,0.0,1.0,0.0\n")

        assert cycle_document(
            f64(-0.0), i64(1), (1, i64(3)), {i64(3): 1, 1: i64(3)},
            {1: complex(1.0, -0.0), i64(3): complex(nan, -inf)},
            {1: -inf, i64(3): 5e-324}, {i64(3): nan, 1: f64(0.1)}, ()) == (
            "g0,-0.0\nkbar,1\nlevels,1,3\npermutation,1->3,3->1\n"
            "phases,1:1.0-0.0j,3:nan-infj\nenergy_before,1,-inf\n"
            "energy_before,3,5e-324\nenergy_after,1,0.1\nenergy_after,3,nan\n"
            "exiting,\n")
        assert cycle_document(1.0, 0, (0, 2), {0: 2, 2: 4}, {0: 1 + 0j, 2: 1 + 0j},
                              {0: 0.5, 2: 2.0}, {0: 2.0, 2: 8.0}, (i64(2),)) == (
            "g0,1.0\nkbar,0\nlevels,0,2\npermutation,0->2,2->4\n"
            "phases,0:1.0+0.0j,2:1.0+0.0j\nenergy_before,0,0.5\n"
            "energy_before,2,2.0\nenergy_after,0,2.0\nenergy_after,2,8.0\n"
            "exiting,2\n")

    def test_record_round_trip(self):
        record = ExportRecord("eps", "deadbeef", "n,g\n2,1.0\n")
        back = parse_record(record.render())
        assert back == record

    def test_malformed_header_is_rejected(self):
        with pytest.raises(SerializationError):
            parse_record("# schema_version = 1\n# cmd = eps\n# config_hash = x\n")
        with pytest.raises(SerializationError):
            parse_record("no header at all\n")

    @pytest.mark.parametrize("parse, text", [
        (parse_cycle_document, "g0,x\n"),
        (parse_cycle_document, "levels,0,x\n"),
        (parse_cycle_document, "energy_before,0\n"),
        (parse_cycle_document, "g1,1.0\n"),
        (parse_holonomy_document, "levels,a\n"),
        (parse_holonomy_document, "levels,0\nrow 0,1.0,x\n"),
        (parse_holonomy_document, "row 0,1.0,0.0\n"),
        (parse_holonomy_document, "levels,0\nrow 0,1.0,0.0\nrow 1,1.0,0.0\n"),
        (parse_holonomy_document, "levels,0,2\nrow 0,1.0,0.0,0.0\nrow 1,0.0,0.0,1.0,0.0\n"),
        (parse_holonomy_document, "levels,0,2\nrow 0,1.0,0.0,0.0,0.0\n"),
        (parse_holonomy_document, "levels,0\nrow 0,1.0,0.0\nphase,0:1.0+0.0j\n"),
        (parse_sheet_document, "cut,1,2,3\ng_re\n1.0\n"),
        (parse_sheet_document, "cut,x,0,0,exceptional,0,0\ng_re\n1.0\n"),
        (parse_sheet_document, "cut,1,2,3,k,4,5\n"),
        (parse_csv_table, ""),
        (parse_csv_table, "a,b\n1,2\n3\n"),
        (parse_record, "# schema_version = 1\n# command = eps\n"),
        (parse_record, "# schema_version = 1\n#command = eps\n# config_hash = x\n"),
        (parse_record, "# schema_version = one\n# command = eps\n# config_hash = x\n"),
    ])
    def test_every_malformed_line_is_a_serialization_error(self, parse, text):
        with pytest.raises(SerializationError):
            parse(text)
