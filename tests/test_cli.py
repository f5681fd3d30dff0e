"""End-to-end CLI behavior through real subprocesses."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# sha256 of `verify-all --profile full --format json` with every elapsed_us
# removed: pins each value, status and the case order of the full report.
FULL_REPORT_SHA256 = "ed4ae7cdd87f314670fa99595cfdc7e0af6dffc7380373e25a5b837c59cb83dd"


def run_cli(*args: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "fubini", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCompute:
    def test_fubini_number(self):
        code, out, _ = run_cli("compute", "fubini-number", "--n", "5")
        assert code == 0
        assert out.strip() == "541"

    def test_fubini_poly_plain(self):
        code, out, _ = run_cli("compute", "fubini-poly", "--n", "4")
        assert code == 0
        assert out.strip() == "24y^4 + 36y^3 + 14y^2 + y"

    def test_fubini_poly_json(self):
        code, out, _ = run_cli("compute", "fubini-poly", "--n", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == ["0", "1", "14", "36", "24"]

    def test_fubini_poly_at_point(self):
        code, out, _ = run_cli("compute", "fubini-poly", "--n", "2", "--at", "-3/7")
        assert code == 0
        assert out.strip() == "-3/49"

    def test_stirling_numbers(self):
        code, out, _ = run_cli("compute", "stirling2", "--n", "4", "--k", "2")
        assert (code, out.strip()) == (0, "7")
        code, out, _ = run_cli("compute", "stirling1", "--n", "4", "--k", "2")
        assert (code, out.strip()) == (0, "11")

    def test_bernoulli(self):
        code, out, _ = run_cli("compute", "bernoulli", "--n", "4")
        assert (code, out.strip()) == (0, "-1/30")

    def test_p_bernoulli(self):
        code, out, _ = run_cli("compute", "p-bernoulli", "--n", "1", "--p", "1")
        assert (code, out.strip()) == (0, "-1/3")

    def test_apostol_plain(self):
        code, out, _ = run_cli("compute", "apostol", "--n", "2")
        assert code == 0
        assert out.strip() == "(-2λ)/(λ-1)^2"

    def test_apostol_json(self):
        code, out, _ = run_cli("compute", "apostol", "--n", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["value"] == {"num": ["1"], "den": ["-1", "1"]}

    def test_apostol_at_point(self):
        code, out, _ = run_cli("compute", "apostol", "--n", "2", "--at", "2")
        assert (code, out.strip()) == (0, "-4")

    def test_two_var_csv(self):
        code, out, _ = run_cli(
            "compute", "fubini-two-var", "--n", "1", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "value"]
        assert json.loads(rows[1][1]) == [["0", "1"], ["1", "0"]]

    def test_missing_parameter_is_usage_error(self):
        code, _, err = run_cli("compute", "fubini-number")
        assert code == 2
        assert "required" in err

    def test_bad_rational_is_usage_error(self):
        code, _, _ = run_cli("compute", "fubini-poly", "--n", "2", "--at", "1.5")
        assert code == 2

    def test_unknown_object_is_usage_error(self):
        code, _, _ = run_cli("compute", "euler-number", "--n", "2")
        assert code == 2

    def test_pole_evaluation_is_rejected(self):
        code, _, err = run_cli("compute", "apostol", "--n", "2", "--at", "1")
        assert code == 2
        assert "pole" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bernoulli", "--n", "4", "--at", "3"),
            ("fubini-number", "--n", "5", "--at", "-1/2"),
            ("fubini-two-var", "--n", "2", "--at", "1"),
            ("p-bernoulli", "--n", "1", "--p", "1", "--at", "2"),
            ("fubini-poly", "--n", "4", "--k", "2"),
            ("apostol", "--n", "2", "--k", "1"),
            ("bernoulli", "--n", "4", "--p", "2"),
            ("stirling2", "--n", "4", "--k", "2", "--p", "1"),
        ],
    )
    def test_option_the_object_does_not_take_is_usage_error(self, argv):
        code, out, err = run_cli("compute", *argv)
        assert code == 2
        assert out == ""
        assert f"does not apply to {argv[0]}" in err

    def test_m_option_is_not_accepted(self):
        code, out, _ = run_cli("compute", "binomial", "--n", "4", "--k", "2", "--m", "3")
        assert code == 2
        assert out == ""

    def test_readme_compute_examples_still_run(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        examples = [
            line.split("#")[0].split()[1:]
            for line in readme.splitlines()
            if line.startswith("fubini compute ")
        ]
        assert len(examples) >= 9
        for argv in examples:
            code, out, err = run_cli(*argv)
            assert (code, err) == (0, ""), argv
            assert out.strip()


class TestTable:
    def test_bernoulli_csv(self):
        code, out, _ = run_cli("table", "bernoulli", "--n-max", "4")
        assert code == 0
        assert out == "n,value\n0,1\n1,-1/2\n2,1/6\n3,0\n4,-1/30\n"

    def test_bernoulli_json(self):
        code, out, _ = run_cli("table", "bernoulli", "--n-max", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["rows"] == [["0", "1"], ["1", "-1/2"], ["2", "1/6"]]

    def test_fubini_table(self):
        code, out, _ = run_cli("table", "fubini", "--n-max", "5")
        assert out.splitlines()[-1] == "5,541"

    def test_p_bernoulli_table_requires_p_max(self):
        code, _, _ = run_cli("table", "p-bernoulli", "--n-max", "3")
        assert code == 2
        code, out, _ = run_cli(
            "table", "p-bernoulli", "--n-max", "1", "--p-max", "1"
        )
        assert code == 0
        assert "1,1,-1/3" in out.splitlines()


class TestVerifyCommands:
    def test_verify_single_identity(self):
        code, out, _ = run_cli("verify", "eq33_lemma2", "--m-max", "5")
        assert code == 0
        assert "0 failed" in out

    def test_verify_json_schema(self):
        code, out, _ = run_cli(
            "verify", "eq26_integral", "--n-max", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 3 and doc["failed"] == 0
        report = doc["reports"][0]
        assert set(report) == {"identity", "params", "status", "lhs", "rhs", "elapsed_us"}
        assert report["status"] == "pass"

    def test_verify_csv_header(self):
        code, out, _ = run_cli(
            "verify", "eq26_integral", "--n-max", "2", "--format", "csv"
        )
        assert out.splitlines()[0] == "identity,params,status,lhs,rhs,elapsed_us"

    def test_verify_reports_skips(self):
        code, out, _ = run_cli(
            "verify", "eq19_reflection", "--n-max", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["skipped"] > 0
        skipped = [r for r in doc["reports"] if r["status"] == "skipped-precondition"]
        assert all(r["params"]["y"] == "-1" for r in skipped)

    def test_zero_case_run_is_usage_error(self):
        code, out, err = run_cli("verify", "eq26_integral", "--n-max", "-5")
        assert code == 2
        assert out == ""
        assert "no case" in err

    @pytest.mark.parametrize("samples", ["0", "1000"])
    def test_samples_out_of_range_is_usage_error(self, samples):
        code, out, err = run_cli("verify", "ab_split", "--samples", samples)
        assert code == 2
        assert out == ""
        assert "samples must be between 1 and 25" in err

    def test_full_report_digest(self):
        code, out, _ = run_cli("verify-all", "--profile", "full", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for r in doc["reports"]:
            del r["elapsed_us"]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == FULL_REPORT_SHA256

    def test_unknown_identity_is_usage_error(self):
        code, _, err = run_cli("verify", "eq_bogus")
        assert code == 2
        assert "unknown identity" in err

    def test_unknown_profile_is_usage_error(self):
        code, _, _ = run_cli("verify-all", "--profile", "bogus")
        assert code == 2

    def test_list_identities_json(self):
        code, out, _ = run_cli("list-identities", "--format", "json")
        assert code == 0
        entries = json.loads(out)
        assert len(entries) >= 37
        by_id = {e["identity"]: e for e in entries}
        assert by_id["eq24_corrected_split"]["corrected"] is True
        assert by_id["eq26_integral"]["corrected"] is False

    def test_list_identities_csv(self):
        code, out, _ = run_cli("list-identities", "--format", "csv")
        assert out.splitlines()[0] == "identity,corrected,statement"
