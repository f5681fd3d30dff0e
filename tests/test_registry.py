"""Identity catalog behavior: contents, determinism, fault sensitivity."""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fubini.apostol
import fubini.bernoulli_numbers
import fubini.combinat
import fubini.polynomials
from fubini import cli
from fubini import registry as rg
from fubini.combinat import MEMO_ROWS
from fubini.exact import Poly, RatFunc

REQUIRED_IDS = [
    "eq1_series", "eq4_shift", "eq5_binomial", "eq6_alt_binomial", "eq7_x1",
    "eq9_xneg1", "eq12_products_numbers", "eq13_products_poly",
    "eq13_general_xy", "eq15_special_values", "eq17_alt_products",
    "eq18_two_var_reflection", "eq19_reflection", "eq21_explicit",
    "eq23_two_y", "eq24_corrected_split", "eq25_moment", "eq26_integral",
    "eq28_parity", "eq30_product_integral", "eq32_bernoulli", "eq33_lemma2",
    "eq84_split", "eq85_number_split", "eq86_number_split_neg2", "double_sum",
    "pb_relation", "pb_odd_explicit", "pb_even_explicit", "ab_routes",
    "ab_guoqi", "ab_split", "ab_sum_products", "ab_moment_integral",
    "ab_product_integral", "stirling_inverse", "stirling_cross",
]

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "docs" / "identities.md"

CORRECTED_IDS = {
    "eq24_corrected_split", "pb_odd_explicit", "pb_even_explicit",
    "ab_guoqi", "ab_product_integral", "stirling_cross",
}


class TestCatalogContents:
    def test_size_and_required_ids(self):
        entries = rg.list_identities()
        assert len(entries) >= 37
        ids = {e.identity_id for e in entries}
        for required in REQUIRED_IDS:
            assert required in ids

    def test_corrected_flags(self):
        for entry in rg.list_identities():
            assert entry.corrected == (entry.identity_id in CORRECTED_IDS)

    def test_statements_are_informative(self):
        for entry in rg.list_identities():
            assert len(entry.statement) > 10

    def test_corrected_entries_carry_printed_witness(self):
        for identity in CORRECTED_IDS:
            entry = rg.REGISTRY[identity]
            cases = entry.cases(entry.full)
            assert any("printed" in c for c in cases)

    def test_listing_is_sorted(self):
        ids = [e.identity_id for e in rg.list_identities()]
        assert ids == sorted(ids)

    def test_default_grids_select_cases(self):
        for entry in rg.list_identities():
            for bounds in (entry.quick, entry.full):
                if bounds.samples:
                    assert 1 <= bounds.samples <= len(rg.SAMPLE_GRID)
                assert entry.cases(bounds), entry.identity_id

    def test_profiles_read_the_same_bounds(self):
        for entry in rg.list_identities():
            assert entry.quick.used() == entry.full.used(), entry.identity_id

    def test_catalog_size(self):
        entries = rg.list_identities()
        assert len(entries) == 41
        assert {e.identity_id for e in entries if e.corrected} == CORRECTED_IDS
        for profile, total in (("quick", 1304), ("full", 6858)):
            bounds = [e.quick if profile == "quick" else e.full for e in entries]
            assert sum(len(e.cases(b)) for e, b in zip(entries, bounds)) == total

    def test_witness_params_carry_printed(self):
        for identity in CORRECTED_IDS:
            entry = rg.REGISTRY[identity]
            printed = [c for c in entry.cases(entry.quick) if "printed" in c]
            assert printed == [{**params, "printed": 1} for params, _ in entry.witnesses]

    @pytest.mark.parametrize(
        "identity, field, value",
        [
            ("stirling_cross", "erratum", ""),
            ("eq26_integral", "erratum", "a note without witnesses"),
            ("eq84_split", "aux_label", ""),
            ("eq26_integral", "aux_label", "unread n"),
        ],
    )
    def test_entry_data_must_pair_up(self, identity, field, value):
        with pytest.raises(ValueError, match="go together"):
            rg.RegistryEntry(**{**rg.REGISTRY[identity]._asdict(), field: value})


class TestVerify:
    def test_eq26_full_grid_passes(self):
        reports = rg.verify("eq26_integral", profile="full")
        assert len(reports) == 30
        assert all(r.status == rg.PASS for r in reports)

    def test_eq13_poly_serializes_polynomials(self):
        reports = rg.verify("eq13_products_poly", profile="full")
        assert all(r.status == rg.PASS for r in reports)
        assert reports[0].lhs.startswith("[")

    def test_eq24_skips_singular_points(self):
        reports = rg.verify("eq24_corrected_split", profile="full")
        skipped = {
            (r.params["n"], r.params["y"])
            for r in reports
            if r.status == rg.SKIP
        }
        assert all(y in (Fraction(-1, 2), Fraction(-1)) for _, y in skipped)
        assert skipped, "singular grid points must be reported as skipped"
        assert all(r.status != rg.FAIL for r in reports)

    @pytest.mark.parametrize(
        "identity, overrides",
        [
            ("eq85_number_split", {"n_max": 100}),
            ("eq86_number_split_neg2", {"n_max": 100}),
            ("ab_routes", {"n_max": 100}),
            ("ab_guoqi", {"n_max": 100}),
            ("eq21_explicit", {"n_max": 70}),
            ("pb_odd_explicit", {"n_max": 40, "p_max": 3}),  # reads F_2n
            ("double_sum", {"n_max": 70, "m_max": 3}),
        ],
    )
    def test_grids_past_the_memo_pass(self, identity, overrides):
        # Each grid reads some F_n with n >= 70 > MEMO_ROWS, rebuilt on each
        # call rather than memoised.
        assert MEMO_ROWS < 70
        reports = rg.verify(identity, overrides=overrides)
        assert [r for r in reports if r.status != rg.PASS] == []

    def test_unknown_identity(self):
        with pytest.raises(KeyError):
            rg.verify("eq_nonexistent")

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            rg.verify("eq26_integral", profile="exhaustive")
        with pytest.raises(ValueError):
            rg.verify_all("exhaustive")

    def test_bound_overrides(self):
        reports = rg.verify("eq26_integral", overrides={"n_max": 5})
        assert len(reports) == 5

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ValueError, match="no case"):
            rg.verify("eq26_integral", overrides={"n_max": -5})

    @pytest.mark.parametrize("samples", [0, len(rg.SAMPLE_GRID) + 1])
    def test_samples_outside_grid_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            rg.verify("ab_split", overrides={"samples": samples})

    @pytest.mark.parametrize(
        "identity, bound", [("eq26_integral", "k_max"), ("eq33_lemma2", "samples")]
    )
    def test_unused_bound_is_rejected(self, identity, bound):
        with pytest.raises(ValueError, match=f"{bound} does not apply to {identity}"):
            rg.verify(identity, overrides={bound: 3})

    @pytest.mark.parametrize("identity, samples", [("ab_split", 2), ("ab_sum_products", 1)])
    def test_only_skipped_cases_are_rejected(self, identity, samples):
        with pytest.raises(ValueError, match="only skipped cases"):
            rg.verify(identity, overrides={"samples": samples})

    def test_overrides_beyond_enumeration_cap_skip(self):
        reports = rg.verify("eq14_enumeration", overrides={"n_max": 12, "aux_max": 0})
        statuses = {r.params["n"]: r.status for r in reports if "blocks" not in r.params}
        assert statuses[10] == rg.PASS
        assert statuses[11] == rg.SKIP
        assert statuses[12] == rg.SKIP

    def test_skipped_reports_have_empty_sides(self):
        reports = rg.verify("eq19_reflection", profile="quick")
        skipped = [r for r in reports if r.status == rg.SKIP]
        assert skipped
        assert all(r.lhs == "" and r.rhs == "" for r in skipped)

    def test_reports_sorted_by_params(self):
        reports = rg.verify("eq25_moment", profile="quick")
        keys = [rg._case_sort_key(r.params) for r in reports]
        assert keys == sorted(keys)

    def test_witness_cases_pass_because_printed_forms_fail(self):
        for identity in CORRECTED_IDS:
            reports = rg.verify(identity, profile="quick")
            witnesses = [r for r in reports if "printed" in r.params]
            assert witnesses
            assert all(r.status == rg.PASS for r in witnesses)


class TestVerifyAll:
    def test_quick_profile_all_pass(self):
        run = rg.verify_all("quick")
        assert run.failed == 0
        assert run.ok
        assert run.passed + run.skipped == len(run.reports)

    def test_deterministic_reports(self):
        def canon(run):
            doc = run.to_json_dict()
            for report in doc["reports"]:
                report["elapsed_us"] = 0
            return json.dumps(doc, sort_keys=True)

        first = canon(rg.verify_all("quick"))
        second = canon(rg.verify_all("quick"))
        assert first == second

    def test_sabotaged_bernoulli_is_detected(self, monkeypatch):
        real = fubini.bernoulli_numbers.bernoulli

        def sabotaged(n):
            if n == 2:
                return Fraction(1, 7)
            return real(n)

        monkeypatch.setattr(fubini.bernoulli_numbers, "bernoulli", sabotaged)
        run = rg.verify_all("quick")
        assert run.failed >= 1
        assert not run.ok


class TestStirlingFaults:
    @pytest.fixture
    def wrong_rows(self, monkeypatch, forget):
        """S2(7,3) and S2(8,3) one too large.  Every stored row is built
        first, so no row is rolled from a wrong one."""
        stirling2_row = fubini.combinat.stirling2_row
        stirling2_row(fubini.combinat.MEMO_ROWS)
        for n in (7, 8):
            row = list(stirling2_row.terms[n])
            row[3] += 1
            monkeypatch.setitem(stirling2_row.terms, n, tuple(row))
        forget(fubini.polynomials.fubini_poly, fubini.polynomials.fubini_two_var)
        monkeypatch.setattr(fubini.bernoulli_numbers, "_bernoulli_cache", {})

    def test_wrong_stirling_entries_fail_eq26_and_eq32(self, wrong_rows):
        # Both entries read the Stirling sum as the integral of F_n, and
        # compare it with routes that read no Stirling row: eq26 with the
        # tangent numbers, eq32 with the binomial recurrence.
        for identity in ("eq26_integral", "eq32_bernoulli"):
            reports = rg.verify(identity, profile="full")
            assert {r.params["n"] for r in reports if r.status == rg.FAIL} == {7, 8}, identity

    def test_wrong_stirling_entries_fail_eq13_general_xy_from_n_6(self, wrong_rows):
        # The right side reads the BiPoly F_{n+1}(x;y), whose rows hold F_7
        # and F_8 from n = 6 on; the left side is the power sum, which reads
        # no Stirling row.
        reports = rg.verify("eq13_general_xy", profile="full")
        assert {r.params["n"] for r in reports if r.status == rg.FAIL} == set(range(6, 16))

    def test_plain_output_prints_both_sides_of_a_failed_case(self, wrong_rows, capsys):
        # The integral of F_n gains 3! * (-1/4) at n = 7 and 8.
        assert cli.main(["verify", "eq26_integral", "--profile", "full"]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("fail")]
        assert fails == [
            f"{rg.FAIL:<21} eq26_integral n=7  lhs=-3/2 rhs=0",
            f"{rg.FAIL:<21} eq26_integral n=8  lhs=-23/15 rhs=-1/30",
        ]


class TestPowerSumFaults:
    def test_wrong_power_sum_at_n_7_fails_every_fubini_number_reader(self, monkeypatch):
        # fubini_number reads the power sum at (0, 1) at every index, so a
        # wrong F_7 there fails each entry that reads a Fubini number, and
        # no entry that reads the power sum at other points only.
        real = fubini.polynomials.fubini_two_var_eval

        def wrong(n, x, y):
            value = real(n, x, y)
            return value + 1 if (n, x, y) == (7, 0, 1) else value

        monkeypatch.setattr(fubini.polynomials, "fubini_two_var_eval", wrong)
        run = rg.verify_all("full")
        assert {r.identity for r in run.reports if r.status == rg.FAIL} == {
            "eq1_series", "eq5_binomial", "eq6_alt_binomial", "eq12_products_numbers",
            "eq14_enumeration", "eq15_special_values", "eq17_alt_products",
            "eq85_number_split", "eq86_number_split_neg2",
        }


class TestFubiniPolyFaults:
    def test_wrong_memo_entry_fails_ab_routes_at_n_8(self, forget):
        # apostol_bernoulli reads F_7 from the fubini_poly memo and
        # apostol_via_fubini from the derivative recurrence, so the two
        # routes disagree exactly at index 8.  forget puts both memos back
        # when the test ends.
        fubini_poly = fubini.polynomials.fubini_poly
        forget(fubini_poly, fubini.apostol.apostol_bernoulli)
        nums = list(fubini_poly(7).numerators)
        nums[3] += 1
        fubini_poly.memo[7] = Poly(nums)
        reports = rg.verify("ab_routes")
        assert [r.params for r in reports if r.status == rg.FAIL] == [{"n": 8}]


class TestBernoulliFaults:
    # The Bernoulli sums read the binomial recurrence up to MEMO_ROWS, and
    # B_{n,0} = B_n compares them with the tangent route, as eq26 compares
    # the integral of F_n with it, so a wrong B_n in either route fails at
    # least two entries.
    def test_wrong_tangent_value_fails_eq26_and_pb_zero_at_n_10(self):
        # In a fresh interpreter, so that no store holds a value built from
        # B_10 before it is corrupted.
        probe = (
            "from fubini import bernoulli_numbers as bn, registry as rg\n"
            "for n in range(bn.MEMO_ROWS + 1):\n"
            "    bn.bernoulli(n)\n"
            "bn._bernoulli_cache[10] += 1\n"
            "for identity in ('eq26_integral', 'pb_relation'):\n"
            "    reports = rg.verify(identity, profile='full')\n"
            "    print(identity, [r.params for r in reports if r.status == rg.FAIL])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=REPO
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "eq26_integral [{'n': 10}]",
            "pb_relation [{'n': 10}]",
        ]

    def test_wrong_recurrence_value_fails_eq32_and_the_bernoulli_sums(self, forget):
        # forget puts the stored terms back whole when the test ends.
        numerators = fubini.bernoulli_numbers._recurrence_numerators
        forget(numerators)
        numerators(MEMO_ROWS)
        for m in range(10, MEMO_ROWS + 1):
            nums = numerators.terms[m]
            numerators.terms[m] = [*nums[:10], nums[10] + nums[0], *nums[11:]]
        run = rg.verify_all("full")
        assert {r.identity for r in run.reports if r.status == rg.FAIL} == {
            "eq25_moment", "eq28_parity", "eq30_product_integral", "eq32_bernoulli",
            "double_sum", "pb_relation", "pb_odd_explicit", "pb_even_explicit",
            "ab_moment_integral", "ab_product_integral",
        }


class TestCatalogDocument:
    def test_docs_match_registry(self, capsys):
        """docs/identities.md is generated: `fubini catalog > docs/identities.md`."""
        assert cli.main(["catalog"]) == 0
        assert capsys.readouterr().out == DOC.read_text()

    def test_every_statement_appears_in_document(self):
        doc = DOC.read_text()
        for entry in rg.list_identities():
            assert entry.identity_id in doc
            assert entry.statement.split("  ")[0] in doc

    def test_agreeing_uncorrected_variant_fails_the_catalog(self, monkeypatch, capsys):
        entry = rg.REGISTRY["stirling_cross"]
        ((params, _),) = entry.witnesses
        witnesses = ((params, lambda p: rg.Check("ne", 1, 1)),)
        agreeing = rg.RegistryEntry(**{**entry._asdict(), "witnesses": witnesses})
        monkeypatch.setitem(rg.REGISTRY, "stirling_cross", agreeing)
        assert cli.main(["catalog"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "stirling_cross" in err

    def test_catalog_takes_no_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["catalog", "--format", "json"])
        assert exc.value.code == 2


class TestRecords:
    def test_records_are_frozen(self):
        entry = rg.REGISTRY["eq26_integral"]
        report = rg.verify("eq26_integral", profile="quick")[0]
        run = rg.VerificationRun("quick", (report,))
        records = [
            (entry.quick, "n_max"), (rg.Check.skip(), "mode"), (report, "status"),
            (run, "profile"), (entry, "erratum"),
        ]
        for record, field in records:
            for name in (field, "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, 1)

    def test_reports_survive_pickle_and_copy(self):
        for value in (rg.verify("eq26_integral", profile="quick"), rg.verify_all("quick")):
            for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert twin == value
                assert repr(twin) == repr(value)  # the same record classes, too

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # Compared with the modules loaded before the import, so that one a
        # site hook already loaded does not count.
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import fubini, fubini.cli\n"
            "added = set(sys.modules) - before\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in added))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=REPO
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"]


class TestSerialization:
    def test_scalars(self):
        assert rg.serialize_value(Fraction(-3, 7)) == "-3/7"
        assert rg.serialize_value(5) == "5"
        assert rg.serialize_value(None) == ""

    def test_polynomials(self):
        assert rg.serialize_value(Poly([0, 1, 2])) == '["0","1","2"]'

    def test_ratfunc_sorted_keys(self):
        f = RatFunc(Poly([1]), order=1)
        assert rg.serialize_value(f) == '{"den":["-1","1"],"num":["1"]}'

    def test_report_json_shape(self):
        report = rg.verify("eq26_integral", overrides={"n_max": 1})[0]
        doc = report.to_json_dict()
        assert list(doc) == ["identity", "params", "status", "lhs", "rhs", "elapsed_us"]
        assert doc["identity"] == "eq26_integral"
        assert doc["params"] == {"n": 1}
        assert doc["status"] == "pass"
        assert doc["lhs"] == "-1/2"
        assert report.lhs == rg.serialize_value(report.check.lhs)
