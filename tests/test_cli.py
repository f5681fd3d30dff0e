"""End-to-end CLI behavior through real subprocesses."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fubini import cli
from fubini import registry as rg
from fubini.exact import Poly

REPO = Path(__file__).resolve().parent.parent

# sha256 of `verify-all --profile full --format json` with every elapsed_us
# removed: pins each value, status and the case order of the full report.
FULL_REPORT_SHA256 = "ed4ae7cdd87f314670fa99595cfdc7e0af6dffc7380373e25a5b837c59cb83dd"
# The same digest for `verify-all --profile quick --format json` (1304 cases).
QUICK_REPORT_SHA256 = "c75767630cdafb6175acbe4b12ff370392b9732f054f22497410b2765a87dc7e"

# sha256 of the output of each command in the plain, json and csv formats.
# For `verify`, elapsed_us is removed first: from each json report, and as
# the last csv column (the digest is then taken of the remaining rows as
# JSON).  Pins every compute object, with --at where it applies, and the
# Bernoulli and Fubini queries whose indices pass combinat.MEMO_ROWS.
OUTPUT_SHA256 = {
    "compute stirling1 --n 12 --k 5": (
        "a86dee65a2ca647acb73887ad92150e48b1bc15d8ba62b36ea39ac4ad17e02db",
        "756178af88037c8cb1fbc9787c3395d86f3fdeeff9de142d8e4cc1d8ab87ebfe",
        "513c13e07c74a57a6b7c56da4321528b1ab3ea44502c692ab5498dd5f20bf63d",
    ),
    "compute stirling2 --n 12 --k 5": (
        "ddbba01958204615769d749ffe161c2f3af279c2faa56d7bf0817ae7f25b066d",
        "932ac21555614cb7cdc194e60471f038c7e05936990943218ebfece3b6871f3c",
        "eb1c82837ebd6f897f2bf76befce4aff24a541c2d1b1a7c9141c21e4c4172875",
    ),
    "compute stirling2 --n 900 --k 5": (
        "e2ddbc62cd9c6fa1ddb9fcb4ce94c0f4dee2ac7a01d07fe00fc5adce60ee4c56",
        "a22ffe35e11be069b5eb7e817e887530e3713f7b7ae3cfbb89f610b70c0105db",
        "dacf32b6ef55278d970cc3b039b77e49c199d75469ab988cf480cdc0bedfc18d",
    ),
    "compute stirling2 --n 3000 --k 1500": (
        "b3694834a1f44306157360aa8c8e0a7b9707cd13d0d5668ddc79eaca72151100",
        "68666a19f661032b872f2d902df1e7563d013b46707631f3edc9d3322861cec7",
        "d064b98afb39173155a7d536ac72bcb90c3fac45101433ad0d9eef9fb147c218",
    ),
    "compute binomial --n 30 --k 11": (
        "df9a59833ee1cad67920adc3033916d9e5e582041010bdaa36ee63fddd1bb90b",
        "6746f0feec17bedc0add03c3997f0b7c10fd9a855d406448090f82ab7dd02ab3",
        "d9c631d7030da9760de2c56c218d0e9fb409b002098ece56bb910f763ed8c85f",
    ),
    "compute fubini-number --n 20": (
        "c45d3d76aa9056db6b384b474f727b074a6abd2015f699cf6e4062f74087f14a",
        "70e3303c439ce3782e9b431933d23fe0faea19f541f65ac324e1cacfad8d18b9",
        "8f3f94f9500e3a0dbc172890189cfa4f189d66184dd061727c73072d968ba0a9",
    ),
    # Above MEMO_ROWS: the power sum of fubini_number.
    "compute fubini-number --n 1000": (
        "e699f3ca3926975ffb93217ce373b88f7eb3153597cf94991d1308aab99a578c",
        "a3b80df8505188179194ced9fe4a45f877773e7c64b2cbfb3d4136a6df49c189",
        "ee765cab50687751defa5ee48144fc7438008248593ae2e46b0d1a5eaefecd5e",
    ),
    "compute fubini-poly --n 12": (
        "e953749c5c80d63f91f4888cf27b37090c4f90ceb96219aea6a36b232c0258e2",
        "3a40ce19e8e455d6c4d1068e763f0273f3356a121e11ce23ba2bbdd211767cdb",
        "84ce25d37b568de1b431bbc4352f4274c768c882bc0627ecd66453d40ce6c8be",
    ),
    "compute fubini-poly --n 12 --at -3/7": (
        "c3abe59760689b1d9893922486fb148da69a5e1186acdf3924f0c341aa40a642",
        "d8de62a44da6085a9a508eb189fe8722f20e6e2a9f9423e22e620d1124efb902",
        "d50d5d4666c2677b4b872437d49d083ee5c7e37b7894a9a37a5fa5b695b00455",
    ),
    "compute fubini-two-var --n 6": (
        "3c6f678ad62494cdadcde11c35f947f686b3775cd09b6ecd414e227fde3b12cb",
        "775733c2939d637988b5e19a4a06152ddcef6af07e5cfebb1a45515e73794dc4",
        "0642dc3237e8a840a42c86f556c9e7078751f99a98aa65e0183a93d5dfc9bebb",
    ),
    "compute bernoulli --n 24": (
        "589fda1f3ebce1653489209b3a9d1eb6ab72c411085ef7064707209b6acdc310",
        "2fdc8487f8bba0428abc44ca7ea3caba9098eddc44a26f8e5e80a46c7c39b4ea",
        "25c52deeac28bcd18c41bc52a36a2a5dc5fff3e9b9d110ff9a20ef5d28c4d4e0",
    ),
    "compute bernoulli --n 300": (
        "835cfac00e38e22667a54985c927fbd461000067ac02893333845c2d44e6c995",
        "4a06768151fcb5a4a5a492937cd1fe196ad2dc4c448ea306a7425e71d2df91ae",
        "47512f85ae3864820d45a163b3ef9be616655ef236711f32fd4cdb8942b083e3",
    ),
    # Above MEMO_ROWS B_n comes from zeta(n); these digests were taken on the
    # tangent route.
    "compute bernoulli --n 2000": (
        "64681a52cd532321459e7e30cdeba7927ac5c1ba3492ed7a23d4c3474a17f8ae",
        "cbe3b3d2f49b5cbf4e964ebb70cace607373147e8636c647eb2e52b89420baff",
        "605cd981e72c8ca742a837d803e7dbf408456def3f606e851c79fb0cd5348fe7",
    ),
    "compute p-bernoulli --n 9 --p 4": (
        "aa3526daefdeea483ef8b0203b5f066035c087eeb84ec41a240dfea9d1fbb1e0",
        "d87b9d95db1128ddea68bb4b0f033f3a3e8247dd8d4cecbabb4ffda538498f79",
        "cb0e455f837ef3f0f609eae5ebade6a4f2cbf4abdba4c8585742f945d76aca95",
    ),
    "compute p-bernoulli --n 200 --p 30": (
        "654677b601a513ee8fbc441c914174c080e882c75f7dca5721a1311744005051",
        "97e52eafe6057f526e03e682555ea7768f3bfe91b5e3d8a3433f1d61e5288de2",
        "ab181d0c738ab3ce56d805f3174b4a0c0ddbae4d0a6d3106f39f7e418aa79f71",
    ),
    "compute apostol --n 6": (
        "89f7cff27298edeb4215246fe667c48cdbcfee7b2f0e7fef3277d68c397ecaf8",
        "6e27927689f2d5dd99b7af8b6bd20963bb5cd10b5e6fc155dbecfcf941809c11",
        "d470d1f6117cf8687be3bffe175d6d3fe46a6b3e77867df0d1b29d1a52450e5d",
    ),
    "compute apostol --n 6 --at 5/2": (
        "520837fb576168262c3fa83529e114c3c382305211cb4dc35d51a1ed57b40cd4",
        "f3af8b03d74a0436d91d419bbafc5ab1696b2747d146e5f21ca3a3d48383dda5",
        "5825eced549e41505d2bc7f07d5bccfeac2cdb870622a596485bff8790f9821b",
    ),
    "compute apostol --n 20": (
        "e8f63f41ec8beef46300cedcecf46d0353838ffbc10a0d6fc26fa59b51925bac",
        "2d6267c76c46a6776a94f69508d8e15ed354f457910c42998c5c68a5a0ffcc54",
        "1cae182bd26854d20037edd97f41dc8f244e40bcb9ad1d3cf2c1d157bbe61a5f",
    ),
    "compute apostol --n 40": (
        "ba816abb20fa36e555edf084d608c58e7b978b3c02fbbbd2d4b8c3035ca53b91",
        "c559f2b2edbeb9810442ef5fa107d308e3c419864737cd6ac74239464f447f8c",
        "bec5258152485df1d0820c9585fa55633bcf156451cd66d7ca811a212637980e",
    ),
    "compute apostol --n 100": (
        "4322463723e7d70e9ce9004582c27e92bd17efd40f113e85be3bb1aad4dcb743",
        "67bcf614fdc140ed481bc01b4ea5ad43eb81e94cb97651420265acc26b2f654e",
        "aca59c0390270058a500562b8f9fc1de29d95031b07dc2df794066a5f01bfa7b",
    ),
    "compute apostol --n 200": (
        "38dba0e4e2fc7187f0ed898add85faa471239f597621b013103ebd28346ed338",
        "8c445b8ecc1563b62df5ecce4c8fede4342547d0366463dfb408ccdcf170465c",
        "15ed2a89a7fda4bc7227b03ae81d059d10fb7f66b2b2e361597e8e026d34d7b7",
    ),
    "verify eq24_corrected_split": (
        "6fe437a1331cdcb792c07789b9d9766ba5ef28f1f95c9a37b225f785bc9bf81c",
        "6c5461e9f09229a7b7ffd0c39d1b0d395c36fc9ce0c3d9721fb99861b08614a0",
        "67e554d0de6796936f67c6fad1eeaaae2f96afc87ce88f261bb2ad81fd2f19c0",
    ),
    "list-identities": (
        "a5e0d377b8998fe2419e7d5e134fcc8228370bbd3316db0b774a9b475c53330b",
        "c1b0b45138015244a157534c6327fd184421a5abbf2c40abbb1674e66e7510fc",
        "6a8759f3fc1f9ff4bb12259e884357b95da9eeb75de79fa6de5838eefcdf8b08",
    ),
    "table bernoulli --n-max 120": (
        "e4bdab7b539c667f8eacbe5ba121b86b46bd33332c3c88453d38c3ac841088d9",
        "f0dc74db82a929430b05da48a6141926a741a59ae3f638755c6e622b027f4789",
        "28f2235559f9479c12e50c9c9662c61011b007cd699065e29a45155be31ccd33",
    ),
    # Rolled Stirling rows, below and across MEMO_ROWS.
    "table fubini --n-max 200": (
        "b6312043efc1f90e8615c2139c0ea74b50a0b5b3174614e31bee34de295331d1",
        "5fa9056258e374b82fc8bc1b937e59bcdc8a25fb29830ccde17ee5876c36d787",
        "928dc8c3f1e7e048f94d7d58ea2a7f00fe8352ced0bd5807a1b2c0fce8907e80",
    ),
    "table p-bernoulli --n-max 6 --p-max 3": (
        "f0018e1f47a09a93797ee66e30e5a5020c5b2cbaca806f0861f8cc14fc7663b8",
        "27ccee6e1c9e3e69615a572cca376c1a6f09c50ed8e2c1c280d44ce794f6448e",
        "e4a9e848f2ce00f77120afa4f78900c1c90136aaf0569db9a13316836f356ab4",
    ),
    # Windows below, at and across MEMO_ROWS.
    "table p-bernoulli --n-max 300 --p-max 12": (
        "14fd9708bf77367433b25078ad2b8d5cf9772c8b23f68976bde6f1f98d9cb91f",
        "8a323b2414d7381280ec769b73b3e655d11a35faa56751df40c6f3a548f0aa04",
        "bedfe0731447ab74d5e6efab1edb3c9360b46e1f070ba13ce5532e720f8ad1b5",
    ),
}


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

    def test_fubini_table_rolls_the_rows_above_memo_rows(self, monkeypatch):
        # An ascending table steps one Stirling row per index; the power sum
        # behind fubini_number would redo n powers at every index.
        expected = [str(cli.fp.fubini_number(n)) for n in range(71)]

        def refuse(*args):
            raise AssertionError("table fubini read the power sum")

        monkeypatch.setattr(cli.fp, "fubini_two_var_eval", refuse)
        out = _main_output(["table", "fubini", "--n-max", "70", "--format", "json"])
        assert json.loads(out)["rows"] == [[str(n), v] for n, v in enumerate(expected)]

    def test_p_bernoulli_table_requires_p_max(self):
        code, _, _ = run_cli("table", "p-bernoulli", "--n-max", "3")
        assert code == 2
        code, out, _ = run_cli(
            "table", "p-bernoulli", "--n-max", "1", "--p-max", "1"
        )
        assert code == 0
        assert "1,1,-1/3" in out.splitlines()

    @pytest.mark.parametrize("family", ["bernoulli", "fubini"])
    def test_p_max_on_a_family_without_p_is_usage_error(self, family):
        code, out, err = run_cli("table", family, "--n-max", "2", "--p-max", "5")
        assert code == 2
        assert out == ""
        assert f"--p-max does not apply to {family}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("fubini", "--n-max", "-3"),
            ("bernoulli", "--n-max", "-1"),
            ("p-bernoulli", "--n-max", "-1", "--p-max", "2"),
            ("p-bernoulli", "--n-max", "2", "--p-max", "-1"),
        ],
    )
    def test_empty_range_is_usage_error(self, argv):
        code, out, err = run_cli("table", *argv)
        assert code == 2
        assert out == ""
        assert f"the bounds select no case of {argv[0]}" in err

    def test_reader_closing_the_pipe_exits_141_quietly(self):
        # About 170 kB of output, more than a pipe buffer holds, so the
        # writer is still writing when the read end closes after one line.
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fubini", "table", "fubini", "--n-max", "400"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=REPO,
        )
        assert proc.stdout.readline() == b"n,value\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""


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

    # lambda = 1 is the first sample point and -1 the second; ab_split skips
    # both and ab_sum_products the first, so these runs check nothing.
    @pytest.mark.parametrize(
        "identity, samples", [("ab_split", "2"), ("ab_sum_products", "1")]
    )
    def test_run_of_only_skipped_cases_is_usage_error(self, identity, samples):
        code, out, err = run_cli("verify", identity, "--samples", samples)
        assert code == 2
        assert out == ""
        assert f"the bounds select only skipped cases of {identity}" in err

    def test_one_checked_case_is_enough(self):
        code, out, _ = run_cli("verify", "ab_split", "--samples", "3")
        assert code == 0
        assert "0 failed" in out

    @pytest.mark.parametrize(
        "identity, flag", [("eq26_integral", "--k-max"), ("eq33_lemma2", "--samples")]
    )
    def test_unused_bound_flag_is_usage_error(self, identity, flag):
        code, out, err = run_cli("verify", identity, flag, "3")
        assert code == 2
        assert out == ""
        assert f"{flag} does not apply to {identity}" in err

    def test_quadrature_oracle_imports_neither_scipy_nor_numpy(self):
        probe = (
            "import sys\n"
            "from fubini import cli\n"
            "code = cli.main(['verify', 'ab_quadrature_oracle'])\n"
            "print(code, sorted(m for m in sys.modules"
            " if m.partition('.')[0] in ('scipy', 'numpy')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=REPO
        )
        assert proc.returncode == 0, proc.stderr
        assert "ab_quadrature_oracle: 6 cases, 0 failed" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize(
        "argv", [["verify", "eq11_recurrence"], ["verify-all", "--profile", "quick"]]
    )
    def test_plain_output_renders_no_passed_case(self, argv, monkeypatch):
        # Plain output prints a case's sides only when it failed, so a run
        # without failures never turns a value into text.
        expected = _main_output(argv)

        def refuse(value):
            raise AssertionError("a passed case was rendered")

        monkeypatch.setattr(rg, "serialize_value", refuse)
        assert _main_output(argv) == expected

    def test_full_report_digest(self):
        code, out, _ = run_cli("verify-all", "--profile", "full", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for r in doc["reports"]:
            del r["elapsed_us"]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == FULL_REPORT_SHA256

    def test_quick_report_digest(self):
        code, out, _ = run_cli("verify-all", "--profile", "quick", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 1304
        for r in doc["reports"]:
            del r["elapsed_us"]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == QUICK_REPORT_SHA256

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


def _main(argv: list[str], capsys):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` run in process."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# Every subcommand and the options it takes, as `--help` must name them.
SUBCOMMAND_OPTIONS = {
    "compute": ["--n", "--k", "--p", "--at", "--format"],
    "table": ["--n-max", "--p-max", "--format"],
    "verify": ["--profile", "--n-max", "--m-max", "--k-max", "--p-max", "--samples", "--format"],
    "verify-all": ["--profile", "--format"],
    "list-identities": ["--format"],
    "catalog": [],
}


class TestParsing:
    @pytest.mark.parametrize(
        "spaced, joined",
        [
            (
                ["compute", "fubini-poly", "--n", "4", "--format", "json"],
                ["compute", "fubini-poly", "--n=4", "--format=json"],
            ),
            (
                ["compute", "p-bernoulli", "--n", "3", "--p", "2", "--format", "csv"],
                ["compute", "p-bernoulli", "--p=2", "--n=3", "--format=csv"],
            ),
            (
                ["table", "p-bernoulli", "--n-max", "2", "--p-max", "1"],
                ["table", "p-bernoulli", "--n-max=2", "--p-max=1"],
            ),
            (
                ["verify", "eq33_lemma2", "--m-max", "3", "--profile", "quick"],
                ["verify", "eq33_lemma2", "--m-max=3", "--profile=quick"],
            ),
        ],
    )
    def test_equals_form_gives_the_same_result(self, spaced, joined, capsys):
        code, out, err = _main(spaced, capsys)
        assert (code, err) == (0, "")
        assert _main(joined, capsys) == (0, out, "")

    def test_negative_rational_value_in_equals_form(self, capsys):
        argv = ["compute", "fubini-poly", "--n", "2", "--at=-3/7"]
        assert _main(argv, capsys) == (0, "-3/49\n", "")

    def test_negative_integer_value_reaches_the_command(self, capsys):
        code, out, err = _main(["table", "fubini", "--n-max", "-3"], capsys)
        assert (code, out) == (2, "")
        assert "the bounds select no case of fubini" in err

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["compute", "bernoulli", "--n", "4", "--bogus", "1"],
            ["compute", "bernoulli", "--n"],
            ["compute", "bernoulli", "--n", "x"],
            ["compute", "bernoulli", "--n", "4", "--format", "xml"],
            ["compute", "fubini-poly", "--n", "2", "--at", "1.5"],
            ["compute", "euler-number", "--n", "2"],
            ["verify-all", "--profile", "bogus"],
            ["compute"],
            ["table"],
            ["verify"],
            ["verify-all"],
            ["compute", "bernoulli", "fubini", "--n", "3"],
            ["catalog", "extra"],
            ["compute", "bernoulli", "--n", "4", "--form", "json"],
        ],
    )
    def test_parse_error_prints_usage_and_exits_2(self, argv, capsys):
        code, out, err = _main(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: fubini")
        assert "error: " in err

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_top_level_help_names_every_subcommand(self, flag, capsys):
        code, out, err = _main([flag], capsys)
        assert (code, err) == (0, "")
        for command in SUBCOMMAND_OPTIONS:
            assert command in out

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_OPTIONS))
    def test_subcommand_help_names_every_option(self, command, flag, capsys):
        code, out, err = _main([command, flag], capsys)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: fubini {command}")
        for option in SUBCOMMAND_OPTIONS[command]:
            assert option in out
        words = " ".join(out.split())
        if command == "compute":
            assert "evaluate at a rational point, e.g. -3/7" in words
        if command == "verify":
            assert "number of rational grid points to use (the fixed grid has 25)" in words


    def test_compute_imports_no_argument_parser(self):
        # argparse, and the gettext and locale modules it loads, cost more
        # than a small compute query.
        probe = (
            "import sys\n"
            "from fubini import cli\n"
            "code = cli.main(['compute', 'bernoulli', '--n', '4'])\n"
            "print(code, sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=REPO
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["-1/30", "0 []"]


def _without_elapsed(out: str, fmt: str) -> str:
    if fmt == "json":
        doc = json.loads(out)
        for r in doc["reports"]:
            del r["elapsed_us"]
        return json.dumps(doc)
    if fmt == "csv":
        return json.dumps([row[:-1] for row in csv.reader(io.StringIO(out))])
    return out


@pytest.mark.parametrize("command", sorted(OUTPUT_SHA256))
def test_output_digests(command):
    digests = []
    for fmt in ("plain", "json", "csv"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(command.split() + ["--format", fmt]) == 0
        out = buf.getvalue()
        if command.startswith("verify"):
            out = _without_elapsed(out, fmt)
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == OUTPUT_SHA256[command]


# A rational whose numerator and denominator have more digits than Python's
# default int <-> str limit (4300).  Their decimal forms are written out
# directly, so the test itself needs no lifted limit; gcd(HUGE_NUM,
# HUGE_DEN) = gcd(HUGE_NUM, 7) = 1.
HUGE_NUM, HUGE_NUM_TEXT = 10**5000 + 1, "1" + "0" * 4999 + "1"
HUGE_DEN, HUGE_DEN_TEXT = 10**5001 + 3, "1" + "0" * 5000 + "3"
HUGE_TEXT = f"{HUGE_NUM_TEXT}/{HUGE_DEN_TEXT}"


def _main_output(argv: list[str]) -> str:
    buf = io.StringIO()
    limit = sys.get_int_max_str_digits()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    assert sys.get_int_max_str_digits() == limit
    return buf.getvalue()


def _only_value(out: str, fmt: str) -> str:
    if fmt == "json":
        doc = json.loads(out)
        return doc["value"] if "value" in doc else doc["rows"][-1][-1]
    if fmt == "csv":
        return list(csv.reader(io.StringIO(out)))[-1][-1]
    return out.split()[-1]


class TestValuesBeyondTheDigitLimit:
    def test_library_keeps_the_default_limit(self):
        with pytest.raises(ValueError):
            str(HUGE_NUM)

    def test_limit_is_restored_after_a_usage_error(self, capsys):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "bernoulli"])
        assert exc.value.code == 2
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_compute_prints_a_huge_integer(self, fmt):
        # C(17000, 8500) has 5115 digits.
        out = _main_output(["compute", "binomial", "--n", "17000", "--k", "8500", "--format", fmt])
        text = _only_value(out, fmt)
        assert len(text) >= 5000
        lifted = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert int(text) == math.comb(17000, 8500)
        finally:
            sys.set_int_max_str_digits(lifted)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_compute_prints_a_huge_rational(self, fmt, monkeypatch):
        monkeypatch.setattr(cli.bn, "bernoulli", lambda n: Fraction(HUGE_NUM, HUGE_DEN))
        out = _main_output(["compute", "bernoulli", "--n", "3", "--format", fmt])
        assert _only_value(out, fmt) == HUGE_TEXT

    @pytest.mark.parametrize("family", ["bernoulli", "fubini"])
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_table_prints_huge_values(self, family, fmt, monkeypatch):
        # The Bernoulli table reads the tangent route at every index.
        monkeypatch.setattr(cli.bn, "bernoulli_tangent", lambda n: Fraction(HUGE_NUM, HUGE_DEN))
        monkeypatch.setattr(cli.fp, "fubini_poly", lambda n: Poly.constant(HUGE_NUM))
        out = _main_output(["table", family, "--n-max", "2", "--format", fmt])
        expected = HUGE_TEXT if family == "bernoulli" else HUGE_NUM_TEXT
        assert _only_value(out, fmt) == expected
