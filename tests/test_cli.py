import json
import math
import os
import re
import subprocess
import sys

import pytest

import aactk
from aactk import cli, scan
from aactk.errors import DivisibilityBug

# A child Python finds the package under test the way this process did.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(aactk.__file__))}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestVerifyCommand:
    def test_aac_json(self, capsys):
        code, out, _ = run(capsys, "verify", "aac", "--p", "13")
        assert code == 0
        (rec,) = parse_lines(out)
        assert rec == {
            "holds": True,
            "lhs": 5,
            "notes": [],
            "p": 13,
            "params": {},
            "rhs": 5,
            "stmt": "AAC_EQ2",
        }

    def test_aac1952(self, capsys):
        code, out, _ = run(capsys, "verify", "aac1952", "--p", "5", "--n", "2")
        assert code == 0
        (rec,) = parse_lines(out)
        assert rec["holds"] and rec["lhs"] == rec["rhs"] == 4

    def test_cor53_flags_printed_form(self, capsys):
        code, out, _ = run(capsys, "verify", "cor53", "--p", "5", "--m", "2")
        assert code == 0
        (rec,) = parse_lines(out)
        assert rec["holds"] and rec["notes"] == ["printed-form-differs"]

    def test_thm51_emits_two_records(self, capsys):
        code, out, _ = run(capsys, "verify", "thm51", "--p", "13", "--m", "2")
        assert code == 0
        recs = parse_lines(out)
        assert [r["stmt"] for r in recs] == ["THM51_R", "THM51_N"]

    def test_thm21_with_lists(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm21", "--p", "5", "--a", "6,4", "--b", "2,8"
        )
        assert code == 0
        (rec,) = parse_lines(out)
        assert rec["holds"] and rec["lhs"] == 3

    def test_aac_above_1e4(self, capsys):
        code, out, _ = run(capsys, "verify", "aac", "--p", "10009")
        assert code == 0
        (rec,) = parse_lines(out)
        assert rec["holds"] and rec["lhs"] == rec["rhs"]

    def test_bad_int_list_exit_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "thm21", "--p", "5", "--a", "6,x", "--b", "2,8"
        )
        assert code == 2 and "PreconditionViolation" in err

    def test_thm56_auto_factorization(self, capsys):
        code, out, _ = run(capsys, "verify", "thm56", "--p", "13", "--r", "4")
        assert code == 0
        (rec,) = parse_lines(out)
        assert rec["holds"]
        assert rec["params"]["abar"] * rec["params"]["bbar"] % 169 == 4

    def test_precondition_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "aac", "--p", "14")
        assert code == 2
        assert "NotPrime" in err
        code, _, err = run(capsys, "verify", "aac1952", "--p", "13", "--n", "4")
        assert code == 2
        assert "NotNonResidue" in err

    def test_missing_param_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "cor53", "--p", "5")
        assert code == 2
        assert "--m" in err

    def test_gen_eisenstein(self, capsys):
        code, out, _ = run(capsys, "verify", "gen-eisenstein", "--p", "7", "--m", "3")
        assert code == 0
        (rec,) = parse_lines(out)
        assert rec["holds"]

    def test_csv_and_table_formats(self, capsys):
        code, out, _ = run(capsys, "verify", "aac", "--p", "5", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header.split(",")[0] == "holds"
        code, out, _ = run(capsys, "verify", "aac", "--p", "5", "--format", "table")
        assert code == 0
        assert out.splitlines()[0].startswith("holds")


# statement -> a complete argv after the statement name, one that holds
VALID = {
    "aac": ["--p", "13"],
    "thm21": ["--p", "13", "--a", "1,3,4,9,10,12", "--b", "2,5,6,7,8,11"],
    "thm51": ["--p", "13", "--m", "2"],
    "cor53": ["--p", "13", "--m", "2"],
    "thm54": ["--p", "13", "--M", "15"],
    "eisenstein": ["--p", "13"],
    "gen-eisenstein": ["--p", "7", "--m", "3"],
    "thm56": ["--p", "13", "--r", "4"],
    "aac1952": ["--p", "13", "--n", "2"],
}


class TestVerifierTable:
    def test_every_statement_has_a_valid_invocation(self, capsys):
        assert list(VALID) == list(cli.VERIFIERS)
        for stmt, argv in VALID.items():
            code, out, _ = run(capsys, "verify", stmt, *argv)
            assert code == 0 and out, stmt

    @pytest.mark.parametrize(
        "stmt, opt", [(s, o) for s, v in cli.VERIFIERS.items() for o in v.options]
    )
    def test_missing_option_exit_2(self, capsys, stmt, opt):
        argv = VALID[stmt]
        i = argv.index(f"--{opt}")
        code, out, err = run(capsys, "verify", stmt, *argv[:i], *argv[i + 2 :])
        assert code == 2 and out == ""
        assert f"--{opt}" in err

    def test_every_missing_option_is_named(self, capsys):
        code, _, err = run(capsys, "verify", "thm21", "--p", "5")
        assert code == 2 and "--a" in err and "--b" in err

    def test_derived_options_need_not_be_given(self, capsys):
        _, auto, _ = run(capsys, "verify", "thm56", "--p", "13", "--r", "4")
        (rec,) = parse_lines(auto)
        abar, bbar = str(rec["params"]["abar"]), str(rec["params"]["bbar"])
        for extra in (["--abar", abar], ["--bbar", bbar], ["--abar", abar, "--bbar", bbar]):
            code, out, _ = run(capsys, "verify", "thm56", "--p", "13", "--r", "4", *extra)
            assert code == 0 and out == auto

    def test_choices_come_from_the_tables(self):
        sub = cli.build_parser()._subparsers._group_actions[0].choices
        (stmt,) = [a for a in sub["verify"]._actions if a.dest == "statement"]
        (kind,) = [a for a in sub["scan"]._actions if a.dest == "kind"]
        assert stmt.choices == list(cli.VERIFIERS)
        assert kind.choices == list(scan.KINDS)

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "aac", "--p", "13"],
            ["verify", "thm21", "--p", "5", "--a", "1,4", "--b", "2,3", "--format", "csv"],
            ["verify", "thm56", "--p", "13", "--r", "4", "--abar", "2"],
            ["verify", "nope", "--p", "5"],
            ["verify", "aac"],
            ["verify", "aac", "--p", "five"],
            ["scan", "aac", "--max", "100"],
            ["scan", "density", "--x", "1000", "--min", "10", "--block", "50"],
            ["scan", "gaac", "--max", "20", "--checkpoint", "ck.jsonl", "--jobs", "2"],
            ["scan", "aac"],
            ["scan"],
            ["scan", "aac", "--max", "100", "--bogus"],
            ["scan", "aac", "--max", "100", "extra"],
            ["scan", "aac", "--ma", "100"],
            ["scan", "aac", "--max"],
            ["scan", "-h"],
            ["scan", "aac", "--max", "1", "--he"],
            ["report", "--in", "x.jsonl"],
            ["report", "--in", "x.jsonl", "--format", "yaml"],
            ["unit", "--d", "13"],
            ["class-number", "--disc", "40", "--format", "table"],
            ["class-number"],
            [],
            ["-h"],
            ["nope"],
            ["--p", "5", "verify"],
        ],
    )
    def test_subcommand_parser_parses_as_the_top_level_parser(self, capsys, argv):
        def outcome(parse):
            try:
                result = vars(parse(argv))
            except SystemExit as exc:
                result = exc.code
            captured = capsys.readouterr()
            return result, captured.out, captured.err

        assert outcome(cli.parse_args) == outcome(cli.build_parser().parse_args)

    def test_calls_do_not_share_options(self, capsys, tmp_path):
        _, csv_out, _ = run(capsys, "verify", "aac", "--p", "5", "--format", "csv")
        _, json_out, _ = run(capsys, "verify", "aac", "--p", "5")
        assert csv_out.startswith("holds,")
        assert parse_lines(json_out)[0]["stmt"] == "AAC_EQ2"

        ck = tmp_path / "gaac.jsonl"
        run(capsys, "scan", "gaac", "--max", "20", "--checkpoint", str(ck), "--jobs", "1")
        written = ck.read_bytes()
        code, out, err = run(capsys, "scan", "gaac", "--max", "20", "--jobs", "1")
        assert code == 0 and ck.read_bytes() == written
        assert out.encode() == written and "gaac scan: counted=" in err


class TestScanCommand:
    def test_gaac_finds_1817(self, capsys, tmp_path):
        ck = tmp_path / "gaac.jsonl"
        code, out, _ = run(
            capsys, "scan", "gaac", "--max", "2000", "--checkpoint", str(ck), "--jobs", "1"
        )
        assert code == 1  # a failure is a finding, exit 1
        assert "failed=1" in out
        assert '"D":1817' in out
        records = [json.loads(l) for l in ck.read_text().splitlines()]
        fails = [r for r in records if not r["holds"]]
        assert len(fails) == 1 and fails[0]["D"] == 1817

    def test_aac_scan_clean(self, capsys, tmp_path):
        ck = tmp_path / "aac.jsonl"
        code, out, _ = run(
            capsys, "scan", "aac", "--max", "2000", "--checkpoint", str(ck), "--jobs", "1"
        )
        assert code == 0
        assert "failed=0" in out
        records = [json.loads(l) for l in ck.read_text().splitlines()]
        assert all(r["u_mod_p"] != 0 for r in records)

    def test_eisenstein_scan(self, capsys):
        code, _, err = run(capsys, "scan", "eisenstein", "--max", "500", "--jobs", "1")
        assert code == 0
        assert "failed=0" in err

    def test_density_scan_summary(self, capsys):
        code, _, err = run(capsys, "scan", "density", "--x", "10000", "--jobs", "1")
        assert code == 0
        assert "ratio=0.32" in err

    def test_x_is_another_name_for_max(self, capsys, tmp_path):
        outputs = []
        for bound in ("--x", "--max"):
            ck = tmp_path / f"density{bound}.jsonl"
            argv = ("scan", "density", bound, "3000", "--checkpoint", str(ck), "--jobs", "1")
            code, out, _ = run(capsys, *argv)
            outputs.append((code, re.sub(r"elapsed=\S+", "", out), ck.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_resume_after_torn_write(self, capsys, tmp_path):
        full = tmp_path / "full.jsonl"
        code, _, _ = run(
            capsys, "scan", "gaac", "--max", "300", "--checkpoint", str(full), "--jobs", "1"
        )
        content = full.read_text()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(content[: len(content) // 2].rstrip("\n")[:-7])
        code, _, _ = run(
            capsys, "scan", "gaac", "--max", "300", "--checkpoint", str(torn), "--jobs", "1"
        )
        assert code == 0
        want = sorted(json.loads(l)["D"] for l in content.splitlines())
        got = sorted(json.loads(l)["D"] for l in torn.read_text().splitlines())
        assert want == got

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "scan", "aac", "--max", "600", "--jobs", "1")
        _, out2, _ = run(capsys, "scan", "aac", "--max", "600", "--jobs", "1")
        assert out1 == out2

    def test_parallel_matches_serial(self, capsys):
        # each scan has at least 64 items, so --jobs 3 really uses a pool
        for argv in (
            ["gaac", "--max", "800"],
            ["aac", "--max", "2000"],
            ["eisenstein", "--max", "3000"],
            ["density", "--x", "10000", "--block", "100"],
        ):
            _, serial, _ = run(capsys, "scan", *argv, "--jobs", "1")
            _, parallel, _ = run(capsys, "scan", *argv, "--jobs", "3")
            assert len(serial.splitlines()) >= 64, argv
            assert serial == parallel, argv

    @pytest.mark.parametrize("cut", ["newline", "mid-line"])
    def test_torn_tail_truncated_in_place(self, capsys, tmp_path, cut):
        fresh = tmp_path / "fresh.jsonl"
        run(capsys, "scan", "aac", "--max", "400", "--checkpoint", str(fresh), "--jobs", "1")
        data = fresh.read_bytes()
        end = data.index(b"\n", len(data) // 2)  # a line's newline
        torn_bytes = data[:end] if cut == "newline" else data[: end - 5]
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(torn_bytes)
        cli.load_checkpoint(str(torn), tolerate_torn_tail=True)
        repaired = torn.read_bytes()
        assert torn_bytes.startswith(repaired) and repaired.endswith(b"\n")
        assert len(repaired) < len(torn_bytes)
        code, _, _ = run(
            capsys, "scan", "aac", "--max", "400", "--checkpoint", str(torn), "--jobs", "1"
        )
        assert code == 0
        assert torn.read_bytes() == data

    def test_resume_refuses_a_record_of_another_kind(self, capsys, tmp_path):
        ck = tmp_path / "gaac.jsonl"
        run(capsys, "scan", "gaac", "--max", "200", "--checkpoint", str(ck), "--jobs", "1")
        before = ck.read_bytes()
        code, _, err = run(
            capsys, "scan", "aac", "--max", "200", "--checkpoint", str(ck), "--jobs", "1"
        )
        assert code == 2 and "not a aac record" in err
        assert ck.read_bytes() == before

    def test_resume_refuses_another_block_size(self, capsys, tmp_path):
        ck = tmp_path / "density.jsonl"
        base = ["scan", "density", "--x", "3000", "--checkpoint", str(ck), "--jobs", "1"]
        code, out, _ = run(capsys, *base, "--block", "1000")
        assert code == 0 and "count=964 " in out
        before = ck.read_bytes()
        code, _, err = run(capsys, *base, "--block", "700")
        assert code == 2 and "not an item of this density scan" in err
        assert ck.read_bytes() == before

    def test_narrower_resume_ignores_records_outside_the_range(self, capsys, tmp_path):
        ck = tmp_path / "gaac.jsonl"
        run(capsys, "scan", "gaac", "--max", "2000", "--checkpoint", str(ck), "--jobs", "1")
        before = ck.read_bytes()
        code, out, _ = run(
            capsys, "scan", "gaac", "--max", "100", "--checkpoint", str(ck), "--jobs", "1"
        )
        counted = sum(1 for D in range(3, 101, 2) if math.isqrt(D) ** 2 != D)
        assert code == 0 and f"counted={counted} held={counted} failed=0 " in out
        assert ck.read_bytes() == before

    def test_needs_bound(self, capsys):
        code, _, err = run(capsys, "scan", "gaac")
        assert code == 2

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, tmp_path, jobs):
        ck = tmp_path / "g.jsonl"
        argv = ("scan", "gaac", "--max", "200", "--jobs", jobs, "--checkpoint", str(ck))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "--jobs" in err
        assert not ck.exists()


class TestResumeChecks:
    """Crafted checkpoints whose lines pass their crc but not the record checks."""

    @staticmethod
    def crafted(capsys, tmp_path, kind, edit, extra=None):
        """A checkpoint of `scan kind --max 2000` with one record edited
        (and `extra` fields appended as one more record), each line with
        a fresh crc."""
        ck = tmp_path / f"{kind}.jsonl"
        run(capsys, "scan", kind, "--max", "2000", "--checkpoint", str(ck), "--jobs", "1")
        records = [cli._check_crc(json.loads(line)) for line in ck.read_text().splitlines()]
        key = "D" if kind == "gaac" else "p"
        target = 1817 if kind == "gaac" else 13
        (i,) = [i for i, r in enumerate(records) if r[key] == target]
        if extra is not None:
            records.append({**records[i], **extra})
        records[i].update(edit)
        ck.write_text("".join(cli._canonical(cli._with_crc(r)) + "\n" for r in records))
        return ck

    @pytest.mark.parametrize(
        "kind, edit, extra, message",
        [
            ("gaac", {"D": "1817"}, None, "D is str, not int"),
            ("gaac", {"D": 1817.0}, None, "D is float, not int"),
            ("gaac", {"v1_mod_D": True}, None, "v1_mod_D is bool, not int"),
            ("gaac", {"h4D": None}, None, "h4D is NoneType, not int"),
            ("gaac", {"holds": 0}, None, "holds is int, not bool"),
            ("gaac", {"holds": True}, None, "breaks 0 <= v1_mod_D < D and holds =="),
            ("gaac", {"v1_mod_D": 1817, "holds": False}, None, "breaks 0 <= v1_mod_D < D"),
            ("gaac", {}, {"v1_mod_D": 5, "holds": True}, "differ for one item"),
            ("aac", {"p": "13"}, None, "p is str, not int"),
            ("aac", {"u_mod_p": 0}, None, "breaks 0 <= u_mod_p < p and holds == (u_mod_p != 0)"),
            ("aac", {"u_mod_p": 14}, None, "breaks 0 <= u_mod_p < p"),
            ("aac", {}, {"u_mod_p": 2}, "differ for one item"),
        ],
    )
    def test_a_record_that_fails_a_check_exits_3(self, capsys, tmp_path, kind, edit, extra, message):
        ck = self.crafted(capsys, tmp_path, kind, edit, extra)
        before = ck.read_bytes()
        code, out, err = run(
            capsys, "scan", kind, "--max", "2000", "--checkpoint", str(ck), "--jobs", "1"
        )
        assert code == 3 and out == "" and err.count("\n") == 1
        assert "checkpoint corrupt" in err and message in err
        assert ("1817" if kind == "gaac" else "13") in err  # names the record
        assert ck.read_bytes() == before

    def test_identical_duplicates_are_taken_once(self, capsys, tmp_path):
        ck = self.crafted(capsys, tmp_path, "gaac", {}, {})
        code, out, _ = run(
            capsys, "scan", "gaac", "--max", "2000", "--checkpoint", str(ck), "--jobs", "1"
        )
        counted = sum(1 for D in range(3, 2001, 2) if math.isqrt(D) ** 2 != D)
        assert code == 1 and f"counted={counted} held={counted - 1} failed=1 " in out


class TestReportCommand:
    def test_round_trip_counts(self, capsys, tmp_path):
        ck = tmp_path / "r.jsonl"
        run(capsys, "scan", "gaac", "--max", "100", "--checkpoint", str(ck), "--jobs", "1")
        code, out_json, _ = run(capsys, "report", "--in", str(ck), "--format", "json")
        assert code == 0
        code, out_csv, _ = run(capsys, "report", "--in", str(ck), "--format", "csv")
        assert code == 0
        assert len(parse_lines(out_json)) == len(out_csv.splitlines()) - 1

    def test_deterministic_rendering(self, capsys, tmp_path):
        ck = tmp_path / "r.jsonl"
        run(capsys, "scan", "gaac", "--max", "60", "--checkpoint", str(ck), "--jobs", "1")
        _, a, _ = run(capsys, "report", "--in", str(ck), "--format", "table")
        _, b, _ = run(capsys, "report", "--in", str(ck), "--format", "table")
        assert a == b

    def test_empty_checkpoint(self, capsys, tmp_path):
        ck = tmp_path / "empty.jsonl"
        ck.write_text("")
        code, out, _ = run(capsys, "report", "--in", str(ck), "--format", "table")
        assert code == 0 and out == ""

    def test_single_record(self, capsys, tmp_path):
        ck = tmp_path / "one.jsonl"
        run(capsys, "scan", "gaac", "--min", "3", "--max", "3", "--checkpoint", str(ck), "--jobs", "1")
        code, out, _ = run(capsys, "report", "--in", str(ck), "--format", "table")
        assert code == 0
        assert len(out.splitlines()) == 3  # header, rule, one row

    def test_corruption_mid_file_exit_3(self, capsys, tmp_path):
        ck = tmp_path / "bad.jsonl"
        run(capsys, "scan", "gaac", "--max", "60", "--checkpoint", str(ck), "--jobs", "1")
        lines = ck.read_text().splitlines()
        lines[1] = lines[1].replace('"holds":true', '"holds":false')
        ck.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "report", "--in", str(ck), "--format", "json")
        assert code == 3
        assert "corrupt" in err.lower()


class TestUnitAndClassNumber:
    def test_unit_prime(self, capsys):
        code, out, _ = run(capsys, "unit", "--d", "13")
        assert code == 0
        (rec,) = parse_lines(out)
        assert rec["kind"] == "fundamental-unit"
        assert (rec["t"], rec["u"], rec["norm"]) == (3, 1, -1)

    def test_unit_nonprime(self, capsys):
        code, out, _ = run(capsys, "unit", "--d", "99")
        assert code == 0
        (rec,) = parse_lines(out)
        assert rec["kind"] == "pell" and (rec["u1"], rec["v1"]) == (10, 1)

    def test_class_number(self, capsys):
        code, out, _ = run(capsys, "class-number", "--disc", "40")
        assert code == 0
        (rec,) = parse_lines(out)
        assert rec["h_forms"] == rec["h_dirichlet"] == 2 and rec["agree"]

    def test_class_number_disagreement_exits_4(self, capsys, monkeypatch):
        h = cli.quadfield.class_number_dirichlet(40)
        monkeypatch.setattr(cli.quadfield, "class_number_dirichlet", lambda d: h + 1)
        code, out, err = run(capsys, "class-number", "--disc", "40")
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and "ComputationBug" in err and "h = 2" in err and "h = 3" in err

    def test_class_number_that_does_not_round_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.quadfield, "_lsum", lambda d: -1.0)
        code, out, err = run(capsys, "class-number", "--disc", "229")
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and "ComputationBug" in err and "not within 0.25" in err

    def test_class_number_nonfundamental(self, capsys):
        # 7268 = 4 * 1817 = 4 mod 16: only the form count is reported
        code, out, _ = run(capsys, "class-number", "--disc", "7268")
        assert code == 0
        (rec,) = parse_lines(out)
        assert rec["h_forms"] == 2 and "h_dirichlet" not in rec

    def test_class_number_of_4D_with_D_1_mod_4_has_a_descent_route(self, capsys):
        # 7268 = 4 * 1817, 1817 = 1 mod 8: h(4D) = h(D)
        code, out, _ = run(capsys, "class-number", "--disc", "7268")
        assert code == 0
        (rec,) = parse_lines(out)
        assert rec == {"agree": True, "disc": 7268, "h_descent": 2, "h_forms": 2}

    def test_class_number_descent_disagreement_exits_4(self, capsys, monkeypatch):
        descent = cli.quadfield.class_number_4D
        monkeypatch.setattr(cli.quadfield, "class_number_4D", lambda D, unit: descent(D, unit) + 1)
        code, out, err = run(capsys, "class-number", "--disc", "7268")
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and "ComputationBug" in err and "the descent" in err
        assert "h = 2" in err and "h = 3" in err

    @pytest.mark.parametrize("disc", ["-2", "-1", "0"])
    def test_class_number_of_a_nonpositive_disc_is_a_usage_error(self, capsys, disc):
        code, out, err = run(capsys, "class-number", "--disc", disc)
        assert code == 2 and out == "" and "BadDiscriminant" in err

    def test_class_number_of_a_form_list_missing_a_form_exits_4(self, capsys, monkeypatch):
        reduced_forms = cli.quadfield.reduced_forms
        monkeypatch.setattr(cli.quadfield, "reduced_forms", lambda disc: reduced_forms(disc)[1:])
        code, out, err = run(capsys, "class-number", "--disc", "839964")
        assert code == 4 and out == "" and "ComputationBug" in err


class TestCheckpointHelpers:
    def test_crc_round_trip(self):
        rec = {"D": 3, "holds": True}
        stamped = cli._with_crc(rec)
        assert cli._check_crc(dict(stamped)) == rec

    def test_crc_detects_change(self):
        stamped = cli._with_crc({"D": 3, "holds": True})
        stamped["holds"] = False
        with pytest.raises(cli.CheckpointCorrupt):
            cli._check_crc(stamped)


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aactk", "verify", "aac", "--p", "5"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        rec = json.loads(proc.stdout)
        assert rec["holds"] and rec["stmt"] == "AAC_EQ2"


def test_scans_do_not_import_numpy(tmp_path):
    # numpy is imported lazily by the residue tables; no scan kind but
    # eisenstein reads them, so a scan must not pay its import
    script = (
        "import sys, aactk, aactk.cli\n"
        "for argv in (['scan', 'gaac', '--max', '200'], ['scan', 'aac', '--max', '2000'],\n"
        "             ['scan', 'density', '--x', '20000']):\n"
        "    aactk.cli.main(argv + ['--jobs', '1'])\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_runs_do_not_import_mpmath(tmp_path):
    # only unit_identity_check reads mpmath, and it imports it itself
    script = (
        "import sys, contextlib, io, aactk, aactk.cli\n"
        "assert 'mpmath' not in sys.modules\n"
        "for argv in (['scan', 'gaac', '--max', '200', '--jobs', '1'],\n"
        "             ['scan', 'aac', '--max', '2000', '--jobs', '1'],\n"
        "             ['scan', 'density', '--x', '20000', '--jobs', '1'],\n"
        "             ['scan', 'eisenstein', '--max', '2000', '--jobs', '1'],\n"
        "             ['verify', 'aac', '--p', '13'], ['verify', 'thm51', '--p', '13', '--m', '2'],\n"
        "             ['class-number', '--disc', '40']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert aactk.cli.main(argv) in (0, 1), argv\n"
        "print('mpmath' in sys.modules)\n"
        "assert aactk.cyclotomic.unit_identity_check(13, 2)\n"
        "print('mpmath' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["False", "True"]


class TestExitCodes:
    def test_internal_failure_exit_4(self, capsys, monkeypatch):
        def broken(p):
            raise DivisibilityBug("(A + B) / p is not an integer")

        monkeypatch.setattr(cli.congruences, "verify_aac", broken)
        code, _, err = run(capsys, "verify", "aac", "--p", "13")
        assert code == 4 and "DivisibilityBug" in err

    def test_non_aactk_exception_exit_4(self, capsys, monkeypatch):
        def broken(p):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli.congruences, "verify_aac", broken)
        code, _, err = run(capsys, "verify", "aac", "--p", "13")
        assert code == 4
        assert err == "error: internal failure: TypeError: unsupported operand\n"

    def test_big_decimal_inputs_accepted(self, capsys):
        # arbitrary-size decimal input must parse; precondition failure is fine
        code, _, err = run(capsys, "verify", "aac", "--p", str(10**40))
        assert code == 2 and "NotPrime" in err
