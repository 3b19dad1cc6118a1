import contextlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latcert import quadform
from latcert.certificate import (
    MAX_DEGREE_BOUND,
    CertificateInput,
    check_S4_low_degree,
    enumerate_low_degree,
    normalize_polarization,
    report_document,
    run_certificate,
)
from latcert.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_UNKNOWN,
    load_document,
    main,
)
from latcert.discgroup import discriminant_group, smith_normal_form
from latcert.isometry import MAX_K_MAX
from latcert.lattice import GramLattice
from latcert.matrices import from_rows, mat_mul, mat_vec
from latcert.oracle import DEFAULT_BOX_RADIUS, MAX_BOX_RADIUS, brute_low_degree

from .conftest import (
    DATA_DIR,
    HANG_CHECK_N,
    HANG_ORBIT_T,
    PAPER_GRAM,
    deadline,
    mat_pow,
    nondegenerate_lattices,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

BUNDLED = (
    "gizatullin.json",
    "hyperbolic_plane.json",
    "minus_two_class.json",
    "low_degree_control.json",
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_paper_document_passes(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "check", str(data_dir / "gizatullin.json"))
        assert code == EXIT_PASS
        assert "verdict: pass" in out

    def test_paper_document_with_verify(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "check", str(data_dir / "gizatullin.json"), "--verify"
        )
        assert code == EXIT_PASS
        assert "mismatch" not in out

    def test_hyperbolic_plane_fails(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "check", str(data_dir / "hyperbolic_plane.json")
        )
        assert code == EXIT_FAIL
        assert "verdict: fail" in out

    def test_json_format_parses_and_matches_text_verdict(self, capsys, data_dir):
        path = str(data_dir / "gizatullin.json")
        code, out, _ = run_cli(capsys, "check", path, "--format", "json")
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["format_version"] == "1"
        assert doc["verdict"] == "pass"
        assert [s["id"] for s in doc["steps"]] == ["S1", "S2", "S3", "S4", "S5"]
        assert doc["derived"]["det"] == -384
        assert doc["derived"]["signature"] == [1, 1]
        assert doc["derived"]["invariant_factors"] == [4, 96]
        assert doc["derived"]["disc_action_order"] == 4
        assert doc["derived"]["dominant_root"] == "5 + 2*sqrt(6)"
        assert "timing" in doc

    def test_json_output_stable_modulo_timing(self, capsys, data_dir):
        path = str(data_dir / "gizatullin.json")
        _, out1, _ = run_cli(capsys, "check", path, "--format", "json")
        _, out2, _ = run_cli(capsys, "check", path, "--format", "json")
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timing"), d2.pop("timing")
        assert d1 == d2

    def test_truncated_file(self, capsys, tmp_path):
        bad = tmp_path / "truncated.json"
        bad.write_text('{"gram": [[4, 20], [20')
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == EXIT_ERROR
        assert "malformed JSON" in err

    def test_integer_past_the_digit_limit_is_malformed_json(self, capsys, tmp_path):
        # json.load raises a plain ValueError, not a JSONDecodeError, for
        # an integer literal longer than the interpreter's limit
        bad = tmp_path / "long.json"
        bad.write_text(
            '{"gram": [[4, 20], [20, ' + "1" * 4301 + ']], "polarization": [1, 0]}'
        )
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run_cli(capsys, "check", str(bad))
        finally:
            sys.set_int_max_str_digits(previous)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: malformed JSON in input document: ")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.json"))
        assert code == EXIT_ERROR
        assert "error" in err

    def test_degree_bound_flag(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "check",
            str(data_dir / "gizatullin.json"),
            "--degree-bound",
            "4",
            "--format",
            "json",
        )
        assert code == EXIT_PASS
        doc = json.loads(out)
        s4 = next(s for s in doc["steps"] if s["id"] == "S4")
        assert s4["details"]["classes"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "gizatullin.json", "--degree-bound", "0"),
            ("enumerate", "gizatullin.json", "--bound", "0"),
            ("enumerate", "gizatullin.json", "--bound", "-1"),
        ],
    )
    def test_nonpositive_bound_flag_rejected(self, capsys, data_dir, argv):
        cmd, name, *flags = argv
        code, _, err = run_cli(capsys, cmd, str(data_dir / name), *flags)
        assert code == EXIT_ERROR
        assert "degree_bound must be >= 1" in err


class TestVerify:
    def _check_verify(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "check", str(path), "--verify", "--format", "json"
        )
        return code, json.loads(out)

    def test_s2_witness_outside_box_agrees(self, capsys, tmp_path):
        # S2 fails with (-29718, -3805), far outside the radius-50 box,
        # 21 steps around the reduced cycle.
        doc = {
            "gram": [[2, 0], [0, -122]],
            "polarization": [1, 0],
            "search_bound": 5000,
        }
        code, report = self._check_verify(capsys, tmp_path, doc)
        assert code == EXIT_FAIL
        s2 = report["steps"][1]
        assert s2["status"] == "fail"
        assert s2["witness"] == [{"target": -2, "vector": [-29718, -3805]}]
        assert report["verify"]["values_box_scan"]["status"] == "agree"

    def test_negated_polarization_agrees(self, capsys, tmp_path):
        doc = {
            "gram": [[4, 20], [20, 4]],
            "polarization": [-1, 0],
            "isometry": [[10, 1], [-1, 0]],
        }
        code, report = self._check_verify(capsys, tmp_path, doc)
        assert code == EXIT_PASS
        assert report["verdict"] == "pass"
        statuses = {k: v["status"] for k, v in report["verify"].items()}
        assert statuses == {
            "values_box_scan": "confirmed",
            "low_degree_enumeration": "agree",
            "disc_action_order": "agree",
        }

    @pytest.mark.parametrize(
        "gram, radius, complete, status, code",
        [
            # content 4: -2 is not represented, and 1 is the least radius
            ([[4, 20], [20, 4]], 1, True, "confirmed", EXIT_PASS),
            # content 2: the box the unit s^2 - 40u^2 = 4, (s, u) = (38, 6), gives
            ([[4, 0], [0, -10]], 5, True, "confirmed", EXIT_FAIL),
            # content 2: 2x^2 - 41y^2 takes no value +-1, and the
            # Pell-class search runs on it as it is, already reduced
            ([[4, 0], [0, -82]], 13, True, "confirmed", EXIT_PASS),
            # the derived box is wider than MAX_BOX_RADIUS: refute-only scan
            ([[4, 0], [0, -94]], DEFAULT_BOX_RADIUS, False, "agree", EXIT_PASS),
        ],
    )
    def test_values_box_scan_radius_is_derived(
        self, capsys, tmp_path, gram, radius, complete, status, code
    ):
        doc = {"gram": gram, "polarization": [1, 0]}
        got, report = self._check_verify(capsys, tmp_path, doc)
        assert got == code
        assert report["verify"]["values_box_scan"] == {
            "status": status,
            "box_radius": radius,
            "complete": complete,
            "witnesses": {},
        }

    def test_wrong_no_at_one_target_is_a_mismatch_when_s2_fails(
        self, capsys, data_dir, monkeypatch
    ):
        # S2 fails at t = 0 either way, so a wrong "no" at t = -2 showed
        # only if each target the box finds is held against S2's answer
        honest = quadform.represents_value

        def wrong_at_minus_two(g, t, search_bound):
            if t == -2:
                return quadform.Representation("no")
            return honest(g, t, search_bound)

        monkeypatch.setattr(quadform, "represents_value", wrong_at_minus_two)
        code, out, _ = run_cli(
            capsys, "check", str(data_dir / "hyperbolic_plane.json"), "--verify"
        )
        assert code == EXIT_FAIL
        assert "verify values_box_scan: mismatch" in out

    def test_box_radius_field_rejected(self, capsys, tmp_path):
        # the scan's radius is derived, so a document may no longer set it
        path = tmp_path / "doc.json"
        path.write_text(
            json.dumps(
                {
                    "gram": [[4, 20], [20, 4]],
                    "polarization": [1, 0],
                    "box_radius": 50,
                }
            )
        )
        code, out, err = run_cli(capsys, "check", str(path), "--verify")
        assert code == EXIT_ERROR
        assert out == ""
        assert "unknown field(s) in input document: box_radius" in err


class TestLowDegreeBoxLimit:
    """The low-degree oracle scan of check --verify is refused with exit
    3 when its box radius would exceed MAX_BOX_RADIUS; enumerate lists
    S4's exact degree windows and is bounded by MAX_DEGREE_BOUND only."""

    # [[4, 0], [0, -96]] (the datum, reduced) in the basis (h, v + 3000*h):
    # det -384, passes check, but degree bound 16 needs a box radius of 3005
    FAR_BASIS = {
        "gram": [[4, 12000], [12000, 35999904]],
        "polarization": [1, 0],
    }
    # the datum's basis vectors h = (1, 0) and v + 3000*h = (3005, -1),
    # with v = (5, -1) orthogonal to h
    FAR_TO_DATUM = ((1, 3005), (0, -1))

    def test_enumerate_just_under_limit_runs(self, capsys, data_dir):
        # the oracle's box radius would be 199; enumerate scans no box
        code, out, _ = run_cli(
            capsys, "enumerate", str(data_dir / "gizatullin.json"), "--bound", "390"
        )
        assert code == EXIT_PASS
        assert out.splitlines()[0] == "(1, 0) degree=4 square=4 = 1*h"

    def test_enumerate_past_the_box_limit_lists_what_s4_lists(
        self, capsys, data_dir
    ):
        # the oracle's box radius would be 206
        path = str(data_dir / "gizatullin.json")
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "enumerate", path, "--bound", "400", "--format", "json"
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_PASS and err == ""
        code, doc, _ = run_cli(
            capsys, "check", path, "--degree-bound", "400", "--format", "json"
        )
        s4 = json.loads(doc)["steps"][3]
        assert json.loads(out) == s4["details"]["classes"]
        assert len(json.loads(out)) > 3

    def test_verify_over_limit_rejected(self, capsys, data_dir):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys,
            "check",
            str(data_dir / "gizatullin.json"),
            "--verify",
            "--degree-bound",
            "400",
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ERROR
        assert out == ""
        assert "radius of 206" in err and f"limit is {MAX_BOX_RADIUS}" in err

    def test_far_basis_checks_but_is_not_verified(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self.FAR_BASIS))
        code, _, _ = run_cli(capsys, "check", str(path))
        assert code == EXIT_PASS
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "check", str(path), "--verify")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ERROR
        assert out == ""
        assert "radius of 3005" in err

    def test_far_basis_enumerates_the_datums_classes(
        self, capsys, data_dir, tmp_path
    ):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self.FAR_BASIS))
        code, out, _ = run_cli(capsys, "enumerate", str(path), "--format", "json")
        assert code == EXIT_PASS
        far = json.loads(out)
        code, out, _ = run_cli(
            capsys, "enumerate", str(data_dir / "gizatullin.json"), "--format", "json"
        )
        datum = json.loads(out)
        assert len(far) == len(datum) == 3
        for c, d in zip(far, datum):
            assert list(mat_vec(self.FAR_TO_DATUM, c.pop("coords"))) == d.pop("coords")
            assert c == d


class TestEnumerate:
    """enumerate prints S4's listing, and refuses what S4's
    precondition refuses."""

    @pytest.mark.parametrize(
        "gram", [[[4, 1], [1, -1564544606]], [[4, 0], [0, -96]], [[4, 2], [2, -2]]]
    )
    def test_bound_1024_lists_what_s4_lists(self, capsys, tmp_path, gram):
        # 255, 13,329 and 75,527 classes; check spends S5's whole automorph
        # budget on the first and stops at S2 on the last, so S4's step
        # function is the reference
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"gram": gram, "polarization": [1, 0]}))
        s4 = check_S4_low_degree(GramLattice(gram), (1, 0), 1024)
        classes = s4.details["classes"]
        argv = ("enumerate", str(path), "--bound", "1024", "--format")
        code, out, _ = run_under_alarm(1.0, capsys, *argv, "json")
        assert code == EXIT_PASS
        assert json.loads(out) == classes
        code, out, _ = run_under_alarm(1.0, capsys, *argv, "text")
        assert code == EXIT_PASS
        lines = out.splitlines()
        assert len(lines) == len(classes)
        for line, c in zip(lines, classes):
            tail = (
                f" = {c['multiple_of_h']}*h"
                if c["multiple_of_h"] is not None
                else " (not a multiple of h)"
            )
            coords = tuple(c["coords"])
            assert line == f"{coords} degree={c['degree']} square={c['square']}{tail}"

    @pytest.mark.parametrize("bound", ["1", "16", "400"])
    def test_json_is_json_dumps_byte_for_byte(self, capsys, data_dir, bound):
        # the classes are printed one by one, never held as one string
        path = str(data_dir / "gizatullin.json")
        argv = ("enumerate", path, "--bound", bound, "--format", "json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_PASS
        classes = enumerate_low_degree(GramLattice(PAPER_GRAM), (1, 0), int(bound))
        assert out == json.dumps([c._asdict() for c in classes], sort_keys=True) + "\n"
        assert (len(classes) > 0) == (bound != "1")

    @pytest.mark.parametrize(
        "gram,polarization,message",
        [
            ([[2, 0], [0, 2]], [1, 0], "orthogonal direction not negative"),
            ([[2, 1], [1, -2]], [0, 1], "polarization must have positive norm"),
            ([[0, 1], [1, 0]], [1, 0], "polarization must have positive norm"),
        ],
    )
    def test_refusals(self, capsys, tmp_path, gram, polarization, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"gram": gram, "polarization": polarization}))
        code, out, err = run_cli(capsys, "enumerate", str(path))
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_equals_the_oracle_within_its_box(self, capsys, tmp_path):
        # random Grams of either signature, any nonzero h: where the
        # oracle scans a box of radius <= MAX_BOX_RADIUS, enumerate
        # prints its classes, and where it refuses, enumerate refuses
        # with the same message
        rng = random.Random(2111)
        path = tmp_path / "doc.json"
        listed = refused = 0
        while listed < 150 or refused < 50:
            a, b, c = (rng.randint(-12, 12) for _ in range(3))
            h = [rng.randint(-3, 3), rng.randint(-3, 3)]
            if a * c == b * b or h == [0, 0]:
                continue
            g = GramLattice([[a, b], [b, c]])
            bound = rng.randint(1, 60)
            hn, _ = normalize_polarization(h)
            try:
                classes = brute_low_degree(g, hn, bound)
                expected = json.loads(json.dumps([x._asdict() for x in classes]))
            except ValueError as exc:
                expected = str(exc)
                if "limit is" in expected:
                    continue
            doc = {"gram": [[a, b], [b, c]], "polarization": h}
            path.write_text(json.dumps(doc))
            argv = ("enumerate", str(path), "--bound", str(bound), "--format", "json")
            code, out, err = run_cli(capsys, *argv)
            if isinstance(expected, str):
                assert (code, out, err) == (EXIT_ERROR, "", f"error: {expected}\n")
                refused += 1
            else:
                assert (code, json.loads(out)) == (EXIT_PASS, expected), (doc, bound)
                listed += 1


@pytest.mark.parametrize("cmd", ["check", "disc"])
@pytest.mark.parametrize("gram", [[[4]], [[2, 0, 0], [0, 2, 0], [0, 0, -2]]])
def test_gram_other_than_2x2_rejected(capsys, tmp_path, cmd, gram):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"gram": gram, "polarization": [1] * len(gram)}))
    code, out, err = run_cli(capsys, cmd, str(path))
    assert code == EXIT_ERROR
    assert out == ""
    assert f"rank {len(gram)}" in err


@pytest.mark.parametrize("cmd", ["check", "disc", "orbit", "enumerate"])
@pytest.mark.parametrize("isometry", [[[10, 1, 5], [-1, 0, 7]], [[10], [-1, 0]]])
def test_isometry_other_than_2x2_rejected(capsys, tmp_path, cmd, isometry):
    # orbit used to drop the third column silently, or die with IndexError
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps(
            {"gram": [[4, 20], [20, 4]], "polarization": [1, 0], "isometry": isometry}
        )
    )
    code, out, err = run_cli(capsys, cmd, str(path))
    assert code == EXIT_ERROR
    assert out == ""
    assert "isometry must be a 2x2 matrix" in err


@pytest.mark.parametrize("cmd", ["check", "disc", "orbit", "enumerate"])
@pytest.mark.parametrize("polarization", [[1, 0, 0], [1]])
def test_polarization_other_than_2_entries_rejected(
    capsys, tmp_path, cmd, polarization
):
    # disc used to accept [1, 0, 0]; check and enumerate failed only in
    # lattice.inner, with a message that did not name the field
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps(
            {
                "gram": [[4, 20], [20, 4]],
                "polarization": polarization,
                "isometry": [[10, 1], [-1, 0]],
            }
        )
    )
    code, out, err = run_cli(capsys, cmd, str(path))
    assert code == EXIT_ERROR
    assert out == ""
    assert "polarization must have 2 entries" in err


@pytest.mark.parametrize("cmd", ["check", "disc", "orbit", "enumerate"])
def test_zero_polarization_rejected_by_every_command(capsys, tmp_path, cmd):
    # disc exited 0 and orbit printed an all-zero orbit
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps(
            {
                "gram": [[4, 20], [20, 4]],
                "polarization": [0, 0],
                "isometry": [[10, 1], [-1, 0]],
            }
        )
    )
    code, out, err = run_cli(capsys, cmd, str(path))
    assert code == EXIT_ERROR
    assert out == ""
    assert "polarization must be nonzero" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_orbit_too_long_to_print_leaves_stdout_empty(capsys, tmp_path, fmt):
    # with sigma^60 as the isometry, orbit entries pass 4300 digits by k = 80
    sigma_60 = mat_pow(((10, 1), (-1, 0)), 60)
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps(
            {
                "gram": [[4, 20], [20, 4]],
                "polarization": [1, 0],
                "isometry": [list(row) for row in sigma_60],
            }
        )
    )
    code, out, err = run_cli(
        capsys, "orbit", str(path), "--k-max", "80", "--format", fmt
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert "lower --k-max" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["check", "disc"])
def test_determinant_past_print_limit_prints_nothing(capsys, tmp_path, command, fmt):
    # entries of 2,151 digits and |det| = 16*b^2 + 8 of 4,301: the text
    # formats used to print their first lines before failing on det
    b = math.isqrt((10**4300 - 8) // 4) + 1
    doc = tmp_path / "long_det.json"
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        doc.write_text(
            json.dumps({"gram": [[4, 2 * b], [2 * b, -2]], "polarization": [1, 0]})
        )
        code, out, err = run_cli(capsys, command, str(doc), "--format", fmt)
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == EXIT_ERROR
    assert out == ""
    assert "(4300 digits)" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_orbit_past_print_limit_is_refused_at_once(capsys, data_dir, fmt):
    # entries of sigma^k h pass 4300 digits near k = 4300; the refusal
    # must come before formatting, which would take over a second to
    # reach the first entry past the limit
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "orbit",
        str(data_dir / "gizatullin.json"),
        "--k-max",
        "5000",
        "--format",
        fmt,
    )
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_ERROR
    assert out == ""
    limit = sys.get_int_max_str_digits()
    assert f"exceed the {limit}-digit limit" in err and "lower --k-max" in err


def test_square_discriminant_with_huge_coefficient_is_fast(capsys, tmp_path):
    # 2*P^2*x^2 - 2*y^2 with P = 10^9 + 7: S2 used to trial-divide
    # 4*P^2 up to 2*P and ran for minutes.
    p = 10**9 + 7
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps({"gram": [[2 * p * p, 0], [0, -2]], "polarization": [1, 0]})
    )
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "check", str(path), "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_FAIL
    s2 = json.loads(out)["steps"][1]
    assert s2["status"] == "fail"
    assert s2["witness"] == [
        {"target": 0, "vector": [1, p]},
        {"target": -2, "vector": [0, -1]},
    ]


def run_under_alarm(seconds, capsys, *argv):
    """run_cli, with a TimeoutError if it runs past `seconds`."""
    with deadline(seconds, " ".join(argv)):
        return run_cli(capsys, *argv)


def test_eighteen_digit_entry_answers_within_a_second(capsys, tmp_path):
    # D ~ 4.9e17 has a huge fundamental unit; the walk of the reduced
    # cycle stops after search_bound steps
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps(
            {"gram": [[2, 1], [1, -246913578024691356]], "polarization": [1, 0]}
        )
    )
    code, out, _ = run_under_alarm(
        1.0, capsys, "check", str(path), "--format", "json"
    )
    assert code == EXIT_UNKNOWN
    s2 = json.loads(out)["steps"][1]
    assert s2["details"]["t=-2"] == {
        "status": "unknown",
        "reason": "reduced-cycle",
        "steps": 1000,
    }


class TestAutomorphBudget:
    """S5's scan for the least u of t^2 - D*u^2 = 4 stops at
    search_bound^2. Hang 1, [[4, 0], [0, -244]], has u = 226,153,980
    and ran for about 50 s; [[4, 2], [2, -136]] has u = 1,039,424,
    just past the default 1000^2 and inside 1020^2 = 1,040,400."""

    def check_s5(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_under_alarm(
            1.0, capsys, "check", str(path), "--format", "json"
        )
        return code, json.loads(out)["steps"][4]

    def test_hang_one_is_unknown_within_a_second(self, capsys, tmp_path):
        doc = {"gram": [[4, 0], [0, -244]], "polarization": [1, 0]}
        code, s5 = self.check_s5(capsys, tmp_path, doc)
        assert code == EXIT_UNKNOWN
        assert s5["status"] == "unknown"
        assert "search_bound" in s5["details"]["reason"]

    @pytest.mark.parametrize(
        "extra,code,status",
        [({}, EXIT_UNKNOWN, "unknown"), ({"search_bound": 1020}, EXIT_PASS, "pass")],
    )
    def test_search_bound_raises_the_reach(self, capsys, tmp_path, extra, code, status):
        doc = {"gram": [[4, 2], [2, -136]], "polarization": [1, 0], **extra}
        got, s5 = self.check_s5(capsys, tmp_path, doc)
        assert (got, s5["status"]) == (code, status)
        if status == "pass":
            # M = [[., -c*u], [a*u, .]] for f0 = x^2 + x*y - 34*y^2
            (_, q), (r, _) = s5["details"]["isometry"]
            assert (r, q) == (1039424, 34 * 1039424)


class TestFactoringBound:
    """Discriminants with a prime factor far above the trial-division
    bound: S5 and orbit trial-divided them for minutes."""

    N = HANG_CHECK_N
    D = N * N + 1
    A = 2 * N * N + 1
    DOC = {
        "gram": [[4, 0], [0, -4 * D]],
        "polarization": [1, 0],
        "isometry": [[A, 2 * D * N], [2 * N, A]],
    }

    def test_check_passes(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self.DOC))
        code, out, _ = run_under_alarm(2.0, capsys, "check", str(path))
        assert code == EXIT_PASS
        root = f"{self.A} + {2 * self.N}*sqrt({self.D})"
        assert f"  dominant_root={root}" in out.splitlines()

    def test_orbit_exits_zero(self, capsys, tmp_path):
        # orbit once took this hang on a non-isometry, [[T, 1], [-2, 0]]
        # on the datum; it now refuses those (the test below)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self.DOC))
        code, out, _ = run_under_alarm(
            2.0, capsys, "orbit", str(path), "--k-max", "1"
        )
        assert code == EXIT_PASS
        root = f"{self.A} + {2 * self.N}*sqrt({self.D})"
        assert out.splitlines()[-1] == f"dominant root: {root}"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("isometry", [[[2, 1], [1, 1]], [[HANG_ORBIT_T, 1], [-2, 0]]])
def test_orbit_refuses_a_matrix_that_is_not_an_isometry(
    capsys, tmp_path, fmt, isometry
):
    # orbit printed the orbit and char poly of any 2x2 matrix and exited
    # 0, where check fails S5 on it with "matrix is not an isometry"
    doc = {"gram": [[4, 20], [20, 4]], "polarization": [1, 0], "isometry": isometry}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_under_alarm(2.0, capsys, "orbit", str(path), "--format", fmt)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: matrix is not an isometry of the lattice\n"
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == EXIT_FAIL
    assert "  S5: fail  witness=matrix is not an isometry" in out.splitlines()


class TestDegreeBoundLimit:
    """S4 lists about degree_bound^2 classes, so a bound above
    MAX_DEGREE_BOUND is refused with exit 3 by every command that reads
    one, before any work; a bound of 10**6 used to run past 20 s."""

    def test_check_document_with_huge_degree_bound(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(
            json.dumps(
                {
                    "gram": [[4, 20], [20, 4]],
                    "polarization": [1, 0],
                    "isometry": [[10, 1], [-1, 0]],
                    "degree_bound": 1000000,
                }
            )
        )
        code, out, err = run_under_alarm(2.0, capsys, "check", str(path))
        assert code == EXIT_ERROR
        assert out == ""
        assert f"degree_bound must be at most {MAX_DEGREE_BOUND}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--degree-bound", "1025"),
            ("check", "--degree-bound", "1000000", "--verify"),
            ("enumerate", "--bound", "1025"),
            ("enumerate", "--bound", "1000000"),
        ],
    )
    def test_flag_over_limit_rejected(self, capsys, data_dir, argv):
        cmd, *flags = argv
        path = str(data_dir / "gizatullin.json")
        code, out, err = run_under_alarm(2.0, capsys, cmd, path, *flags)
        assert code == EXIT_ERROR
        assert out == ""
        assert f"at most {MAX_DEGREE_BOUND}" in err

    def test_check_at_the_limit_runs(self, capsys, data_dir):
        path = str(data_dir / "gizatullin.json")
        code, out, _ = run_cli(capsys, "check", path, "--degree-bound", "1024")
        # past the paper's bound 16 the datum has classes off Z*h
        assert code == EXIT_FAIL
        assert "  S4: fail" in out


@pytest.mark.parametrize("d", ["10000000019", "1000000007"])
def test_pell_past_print_limit_is_refused_in_bounded_time(capsys, d):
    # the walk used to run past 60 s (d = 10000000019), or for 1.5 s
    # before str() refused x (d = 1000000007); it now stops once y is
    # too long to print
    code, out, err = run_under_alarm(2.0, capsys, "pell", d)
    assert code == EXIT_ERROR
    assert out == ""
    limit = sys.get_int_max_str_digits()
    assert f"x^2 - {d}*y^2 = 1 exceed the {limit}-digit limit" in err


def run_child(code, env_changes=(), timeout=60):
    """python -c code with src/ on the path and the int-to-str limit at
    the interpreter's default unless env_changes sets it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env.update(env_changes)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_orbit_past_print_limit_keeps_no_entry_past_it(data_dir):
    # the walk used to keep all 20,001 entries, about k digits each,
    # before refusing them: 272 MB of peak RSS. The child reports its
    # VmHWM, not ru_maxrss, which Linux carries over exec from the
    # forking process (this test process).
    path = str(data_dir / "gizatullin.json")
    proc = run_child(
        "import sys\n"
        "from latcert.cli import main\n"
        f"code = main(['orbit', {path!r}, '--k-max', '20000'])\n"
        "status = open('/proc/self/status').read()\n"
        "print(status.split('VmHWM:')[1].split()[0])\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == EXIT_ERROR
    limit = sys.int_info.default_max_str_digits
    assert proc.stderr == (
        f"error: orbit entries up to --k-max 20000 exceed the {limit}-digit "
        "limit for printing an integer; lower --k-max\n"
    )
    assert int(proc.stdout) < 60 * 1024  # in kB


def test_orbit_k_max_over_the_cap_is_refused_at_once(capsys, data_dir):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "orbit",
        str(data_dir / "gizatullin.json"),
        "--k-max",
        str(MAX_K_MAX + 1),
    )
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_ERROR
    assert out == ""
    assert err == f"error: k_max must be between 1 and {MAX_K_MAX}\n"


def test_orbit_of_finite_order_at_the_cap_stays_small(tmp_path):
    # -I keeps every entry at the size of h, so the walk runs all
    # MAX_K_MAX + 1 steps; 3*10^7 of them used to fill 8 GB
    doc = {"gram": [[4, 20], [20, 4]], "polarization": [1, 0]}
    doc["isometry"] = [[-1, 0], [0, -1]]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = run_child(
        "import contextlib, io, sys\n"
        "from latcert.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = main(['orbit', {str(path)!r}, '--k-max', '{MAX_K_MAX}'])\n"
        "status = open('/proc/self/status').read()\n"
        "print(len(out.getvalue().splitlines()))\n"
        "print(status.split('VmHWM:')[1].split()[0])\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == EXIT_PASS, proc.stderr
    lines, peak_kb = map(int, proc.stdout.split())
    assert lines == MAX_K_MAX + 2  # k = 0..MAX_K_MAX and the char poly
    assert peak_kb < 60 * 1024


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_orbit_prints_each_entry_as_it_is_formatted(tmp_path, fmt):
    # the whole output used to be formatted before any of it was printed:
    # a peak RSS of about 70 MB for JSON and 45 MB for text at this size,
    # against about 31 MB for the process with the walk's list alone
    doc = {"gram": [[4, 20], [20, 4]], "polarization": [1, 0]}
    doc["isometry"] = [[-1, 0], [0, -1]]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["orbit", str(path), "--k-max", str(MAX_K_MAX), "--format", fmt]
    proc = run_child(
        "import os, sys\n"
        "from latcert.cli import main\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        f"code = main({argv!r})\n"
        "status = open('/proc/self/status').read()\n"
        "print(status.split('VmHWM:')[1].split()[0], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert int(proc.stderr) < 40 * 1024  # in kB


@pytest.mark.parametrize("isometry", [[[10, 1], [-1, 0]], [[-1, 0], [0, -1]]])
def test_orbit_json_is_the_sorted_dump_of_its_document(capsys, tmp_path, isometry):
    # printed piece by piece, with and without a dominant root, it is
    # still json.dumps(doc, sort_keys=True)
    doc = {"gram": [[4, 20], [20, 4]], "polarization": [1, 0], "isometry": isometry}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "orbit", str(path), "--k-max", "7", "--format=json")
    assert code == EXIT_PASS
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_pell_with_the_print_limit_off_uses_its_default():
    # with PYTHONINTMAXSTRDIGITS=0 the walk used to run the whole period
    # of sqrt(d) and print 127,822 characters
    off = {"PYTHONINTMAXSTRDIGITS": "0"}
    proc = run_child(
        "from latcert.cli import main; raise SystemExit(main(['pell', '10000000019']))",
        off,
        timeout=2,
    )
    assert proc.returncode == EXIT_ERROR
    assert proc.stdout == ""
    limit = sys.int_info.default_max_str_digits
    assert f"exceed the {limit}-digit limit" in proc.stderr
    proc = run_child(
        "from latcert.cli import main; raise SystemExit(main(['pell', '24']))", off
    )
    assert (proc.returncode, proc.stdout) == (EXIT_PASS, "(5, 1)\n")


@pytest.mark.parametrize("name", BUNDLED)
def test_library_report_matches_cli_json(capsys, data_dir, name):
    path = str(data_dir / name)
    raw = json.loads((data_dir / name).read_text())
    inp = CertificateInput(
        gram=GramLattice.from_rows(raw["gram"]),
        polarization=tuple(raw["polarization"]),
        isometry=from_rows(raw["isometry"]) if raw.get("isometry") else None,
        **{k: raw[k] for k in ("degree_bound", "search_bound") if k in raw},
    )
    library = json.loads(json.dumps(report_document(inp, run_certificate(inp))))
    _, out, _ = run_cli(capsys, "check", path, "--format", "json")
    cli = json.loads(out)
    assert set(library.pop("timing")) == set(cli.pop("timing"))
    assert library == cli


class TestDocumentValidation:
    def test_unknown_field_rejected(self, tmp_path):
        doc = tmp_path / "extra.json"
        doc.write_text(
            '{"gram": [[4, 20], [20, 4]], "polarization": [1, 0], "zzz": 1}'
        )
        with pytest.raises(ValueError, match="zzz"):
            load_document(str(doc))

    def test_missing_gram(self, tmp_path):
        doc = tmp_path / "missing.json"
        doc.write_text('{"polarization": [1, 0]}')
        with pytest.raises(ValueError, match="gram"):
            load_document(str(doc))

    def test_float_entries_rejected(self, tmp_path):
        doc = tmp_path / "floats.json"
        doc.write_text('{"gram": [[4.0, 20], [20, 4]], "polarization": [1, 0]}')
        with pytest.raises(ValueError, match="integer"):
            load_document(str(doc))

    def test_returns_the_input_of_the_document_literal(self, data_dir):
        assert load_document(str(data_dir / "gizatullin.json")) == CertificateInput(
            gram=GramLattice.from_rows([[4, 20], [20, 4]]),
            polarization=(1, 0),
            isometry=((10, 1), (-1, 0)),
            degree_bound=16,
        )

    @pytest.mark.parametrize(
        "doc",
        [json.loads((DATA_DIR / name).read_text()) for name in BUNDLED]
        + [
            {"gram": gram, "polarization": [1, 0]}
            for gram in (
                "x",
                [[4, 20], [20]],
                [[4.0, 20], [20, 4]],
                [[True, 20], [20, 4]],
                [[4, 20], [21, 4]],
                [[2, 2], [2, 2]],
                [[4, 20, 0], [20, 4, 0], [0, 0, 2]],
            )
        ]
        + [
            {"gram": [[4, 20], [20, 4]], "polarization": [1, 0], **field}
            for field in (
                {"polarization": [0, 0]},
                {"polarization": [1, 0, 0]},
                {"polarization": ["1", 0]},
                {"isometry": [[10, 1], [-1]]},
                {"isometry": [[10, 1], [-1, 0.0]]},
                {"degree_bound": True},
                {"degree_bound": 0},
                {"degree_bound": 2000},
                {"search_bound": "1000"},
                {"gram": [[2, 2], [2, 2]], "polarization": [0, 0]},
            )
        ],
    )
    def test_library_and_document_share_the_field_rules(self, tmp_path, doc):
        # past the JSON-object rules, load_document is CertificateInput
        def outcome(build):
            try:
                return build()
            except ValueError as exc:
                return str(exc)

        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        expected = outcome(lambda: CertificateInput(**doc))
        assert outcome(lambda: load_document(str(path))) == expected

    def test_degree_bound_override(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(
            '{"gram": [[4, 20], [20, 4]], "polarization": [1, 0], '
            '"degree_bound": 8, "search_bound": 7}'
        )
        inp = load_document(str(doc), degree_bound=5)
        assert (inp.degree_bound, inp.search_bound) == (5, 7)

    @pytest.mark.parametrize("key", ["degree_bound", "search_bound"])
    @pytest.mark.parametrize("value", ["true", "false", "1.0", '"1"'])
    def test_bound_that_is_not_an_integer_rejected(
        self, capsys, tmp_path, key, value
    ):
        # "degree_bound": true used to run as bound 1
        path = tmp_path / "doc.json"
        path.write_text(
            '{"gram": [[4, 20], [20, 4]], "polarization": [1, 0], '
            f'"isometry": [[10, 1], [-1, 0]], "{key}": {value}}}'
        )
        code, out, err = run_cli(capsys, "check", str(path), "--verify")
        assert code == EXIT_ERROR
        assert out == ""
        assert f"field {key} must be a positive integer" in err


class TestOtherSubcommands:
    def test_pell(self, capsys):
        code, out, _ = run_cli(capsys, "pell", "24")
        assert code == EXIT_PASS
        assert out.strip() == "(5, 1)"

    def test_pell_square_errors(self, capsys):
        code, _, err = run_cli(capsys, "pell", "25")
        assert code == EXIT_ERROR
        assert "square" in err

    def test_disc(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "disc", str(data_dir / "gizatullin.json"), "--format", "json"
        )
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["invariant_factors"] == [4, 96]
        assert doc["order"] == 384

    def test_orbit(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "orbit",
            str(data_dir / "gizatullin.json"),
            "--k-max",
            "3",
            "--format",
            "json",
        )
        assert code == EXIT_PASS
        doc = json.loads(out)
        degrees = [entry["degree"] for entry in doc["orbit"]]
        assert degrees == [4, 20, 196, 1940]
        assert doc["dominant_root"] == "5 + 2*sqrt(6)"

    def test_orbit_without_isometry_errors(self, capsys, data_dir):
        code, _, err = run_cli(
            capsys, "orbit", str(data_dir / "hyperbolic_plane.json")
        )
        assert code == EXIT_ERROR
        assert "isometry" in err

    def test_enumerate(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "enumerate",
            str(data_dir / "gizatullin.json"),
            "--format",
            "json",
        )
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert [c["coords"] for c in doc] == [[1, 0], [2, 0], [3, 0]]

    def test_enumerate_lists_what_s4_lists(self, capsys, data_dir, tmp_path):
        # S4 scans the sign-normalized polarization; so does enumerate
        doc = json.loads((data_dir / "gizatullin.json").read_text())
        doc["polarization"] = [-1, 0]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "enumerate", str(path), "--format", "json")
        assert code == EXIT_PASS
        listed = json.loads(out)
        code, out, _ = run_cli(capsys, "check", str(path), "--format", "json")
        assert code == EXIT_PASS
        s4 = json.loads(out)["steps"][3]
        assert listed == s4["details"]["classes"]
        assert [c["coords"] for c in listed] == [[1, 0], [2, 0], [3, 0]]


class TestExitCodeContract:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("gizatullin.json", EXIT_PASS),
            ("hyperbolic_plane.json", EXIT_FAIL),
            ("minus_two_class.json", EXIT_FAIL),
            ("low_degree_control.json", EXIT_FAIL),
        ],
    )
    def test_bundled_documents(self, capsys, data_dir, name, expected):
        code, _, _ = run_cli(capsys, "check", str(data_dir / name))
        assert code == expected

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("check",),
            ("check", "gizatullin.json", "--degree-bound", "abc"),
            ("check", "gizatullin.json", "--bogus"),
            ("orbit", "gizatullin.json", "--k-max", "many"),
            ("nosuchcommand",),
        ],
    )
    def test_usage_errors_exit_3(self, capsys, data_dir, argv):
        # argparse exits 2, which check uses for "unknown"
        argv = [str(data_dir / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert "usage:" in err

    @pytest.mark.parametrize("argv", [("--help",), ("check", "--help"), ("--version",)])
    def test_help_and_version_exit_0(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_PASS
        assert out

    @pytest.mark.parametrize("cmd", ["check", "disc", "orbit", "enumerate"])
    def test_deeply_nested_document_is_malformed_json(self, capsys, tmp_path, cmd):
        # json.load raises RecursionError here, which used to escape as a
        # traceback and exit 1, check's "fail"
        path = tmp_path / "deep.json"
        path.write_text('{"gram": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run_cli(capsys, cmd, str(path))
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: malformed JSON in input document: ")


# det(U*G) < 0, with zero generator coordinates; det(U*G) < 0 and cyclic;
# the datum; two 2-torsion factors
DISC_EXAMPLES = (
    [[-6, -6], [-6, -4]],
    [[4, 1], [1, -76]],
    [[4, 20], [20, 4]],
    [[2, 0], [0, -2]],
)


def fraction_generators(g: GramLattice) -> list[list[str]]:
    """The columns of (U*G)^(-1) at the invariant factors > 1, entry by
    entry as str(Fraction), with U from smith_normal_form."""
    snf = smith_normal_form(g.entries)
    (a, b), (c, d) = mat_mul(snf.U, g.entries)
    scale = a * d - b * c
    columns = ((d, -c), (-b, a))  # of adj(U*G)
    return [
        [str(Fraction(x, scale)) for x in column]
        for column, f in zip(columns, snf.diagonal)
        if f > 1
    ]


def test_disc_examples_cover_negative_scale_and_zero_coordinates():
    groups = [discriminant_group(GramLattice.from_rows(r)) for r in DISC_EXAMPLES]
    assert any(g.scale < 0 and len(g.invariant_factors) == 2 for g in groups)
    assert any(g.scale < 0 and len(g.invariant_factors) == 1 for g in groups)
    assert any(x == 0 for g in groups if g.scale < 0 for c in g.columns for x in c)


@pytest.fixture(scope="module")
def disc_doc(tmp_path_factory):
    return tmp_path_factory.mktemp("disc") / "doc.json"


@given(
    g=st.one_of(
        nondegenerate_lattices(), nondegenerate_lattices(-(10**12), 10**12)
    )
)
@example(g=GramLattice.from_rows(DISC_EXAMPLES[0]))
@example(g=GramLattice.from_rows(DISC_EXAMPLES[1]))
@example(g=GramLattice.from_rows(DISC_EXAMPLES[2]))
@example(g=GramLattice.from_rows(DISC_EXAMPLES[3]))
@settings(max_examples=200, deadline=None)
def test_disc_generators_print_as_fractions(disc_doc, g):
    disc_doc.write_text(
        json.dumps({"gram": [list(r) for r in g.entries], "polarization": [1, 0]})
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["disc", str(disc_doc), "--format", "json"])
    assert code == EXIT_PASS
    assert json.loads(out.getvalue())["generators"] == fraction_generators(g)
