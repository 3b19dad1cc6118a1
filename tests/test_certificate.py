import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from latcert.certificate import (
    MAX_DEGREE_BOUND,
    CertificateInput,
    _degree_window,
    check_S1_lattice,
    check_S2_no_0_minus2,
    check_S3_polarization,
    check_S4_low_degree,
    check_S5_isometry,
    enumerate_low_degree,
    report_document,
    run_certificate,
)
from latcert import certificate, cli, quadform
from latcert.discgroup import discriminant_group
from latcert.isometry import is_isometry
from latcert.lattice import GramLattice, inner, norm
from latcert.matrices import from_rows
from latcert.oracle import brute_action_order, brute_low_degree

from .conftest import (
    CONSTRUCTION_PATHS,
    DATA_DIR,
    identity,
    mat_pow,
    rebuild,
    unimodular_inverse,
)


GOLDEN_REPORTS = DATA_DIR.parent / "tests" / "golden" / "reports.jsonl"
BOUND = quadform.DEFAULT_SEARCH_BOUND
POLARIZATION_TYPE = "field polarization must be an integer array"
ISOMETRY_TYPE = "field isometry must be a 2D integer array"
GRAM_TYPE = "field gram must be a 2D integer array"


class TestS1:
    def test_paper_lattice(self, paper_lattice):
        assert check_S1_lattice(paper_lattice).status == "pass"

    def test_odd_lattice(self):
        result = check_S1_lattice(GramLattice.from_rows([[1, 0], [0, -1]]))
        assert result.status == "fail"
        assert "even" in result.witness

    def test_definite_lattice(self):
        result = check_S1_lattice(GramLattice.from_rows([[2, 0], [0, 2]]))
        assert result.status == "fail"
        assert "signature" in result.witness


class TestS2:
    def test_paper_lattice(self, paper_lattice):
        result = check_S2_no_0_minus2(paper_lattice, 1000)
        assert result.status == "pass"
        assert result.details["t=0"]["reason"] == "nonsquare-discriminant"
        assert result.details["t=-2"]["reason"] == "content-divisibility"

    def test_content_filtered_control(self):
        # 4x^2 + 20xy + 4y^2: primitive part has nonsquare discriminant 21
        g = GramLattice.from_rows([[4, 10], [10, 4]])
        assert check_S2_no_0_minus2(g, 1000).status == "pass"

    def test_minus_two_class(self):
        g = GramLattice.from_rows([[2, 0], [0, -2]])
        result = check_S2_no_0_minus2(g, 1000)
        assert result.status == "fail"
        by_target = {w["target"]: w["vector"] for w in result.witness}
        assert norm(g, by_target[-2]) == -2
        assert norm(g, by_target[0]) == 0


class TestS3:
    def test_paper_polarization(self, paper_lattice):
        assert check_S3_polarization(paper_lattice, (1, 0)).status == "pass"

    def test_imprimitive(self, paper_lattice):
        result = check_S3_polarization(paper_lattice, (2, 0))
        assert result.status == "fail"
        assert "primitive" in result.witness

    def test_second_basis_vector(self, paper_lattice):
        assert check_S3_polarization(paper_lattice, (0, 1)).status == "pass"

    def test_negated_polarization_is_normalized(self, paper_lattice):
        result = check_S3_polarization(paper_lattice, (-1, 0))
        assert result.status == "pass"
        assert result.details["normalized"] is True


class TestS4:
    def test_paper_lattice_multiples_only(self, paper_lattice):
        result = check_S4_low_degree(paper_lattice, (1, 0), 16)
        assert result.status == "pass"
        classes = result.details["classes"]
        assert [c["coords"] for c in classes] == [[1, 0], [2, 0], [3, 0]]
        assert [c["degree"] for c in classes] == [4, 8, 12]
        assert [c["multiple_of_h"] for c in classes] == [1, 2, 3]

    def test_control_lattice_fails_with_witness(self):
        g = GramLattice.from_rows([[4, 6], [6, 4]])
        result = check_S4_low_degree(g, (1, 0), 16)
        assert result.status == "fail"
        assert result.witness["coords"] == [0, 1]
        assert result.witness["degree"] == 6
        assert result.witness["square"] == 4

    def test_window_algebra_matches_case_analysis(self, paper_lattice):
        # degree 4(m + 5n) < 16 with square > 0 forces n = 0: the window
        # inequality for m = 1 - 5n is 1 - 24n^2 > 0
        for n in range(-3, 4):
            m = 1 - 5 * n
            positive = 1 - 24 * n * n > 0
            assert (norm(paper_lattice, (m, n)) > 0) == positive

    @pytest.mark.parametrize(
        "gram", [[[4, -2], [-2, -14]], [[4, -3], [-3, -14]], [[4, 2], [2, -14]]]
    )
    def test_negative_pairing_matches_oracle(self, gram):
        # h = (1, 0) pairs to G*h = (4, b); with b < 0 every listed class
        # must still have positive degree.
        g = GramLattice.from_rows(gram)
        pipeline = enumerate_low_degree(g, (1, 0), 16)
        oracle = brute_low_degree(g, (1, 0), 16)
        assert pipeline == oracle
        assert all(inner(g, c.coords, (1, 0)) == c.degree for c in pipeline)

    @pytest.mark.parametrize("bound", [4, 8, 12, 16, 24])
    def test_matches_oracle(self, paper_lattice, bound):
        pipeline = enumerate_low_degree(paper_lattice, (1, 0), bound)
        oracle = brute_low_degree(paper_lattice, (1, 0), bound)
        assert [(c.coords, c.degree) for c in pipeline] == [
            (c.coords, c.degree) for c in oracle
        ]

    def test_integer_window_matches_fraction_window(self):
        # The window as computed with Fraction endpoints before it moved
        # to integer floor/ceiling division; the classes listed depend
        # only on (k_lo, k_hi).
        def fraction_window(a_coef, b_coef, disc):
            center = Fraction(-b_coef, 2 * a_coef)
            half = Fraction(math.isqrt(disc) + 1, 2 * abs(a_coef))
            return math.floor(center - half) - 1, math.ceil(center + half) + 1

        rng = random.Random(20111020)
        for _ in range(5000):
            size = 10 ** rng.choice((1, 3, 12, 40))
            a_coef = -rng.randint(1, size)
            b_coef = rng.randint(-size, size)
            disc = rng.randint(1, size * size)
            assert _degree_window(a_coef, b_coef, disc) == fraction_window(
                a_coef, b_coef, disc
            )

    def test_monotone_in_degree_bound(self, paper_lattice):
        shorter = enumerate_low_degree(paper_lattice, (1, 0), 12)
        longer = enumerate_low_degree(paper_lattice, (1, 0), 16)
        assert [c for c in longer if c.degree < 12] == shorter


class TestS5:
    def test_paper_isometry(self, paper_lattice, sigma):
        result = check_S5_isometry(paper_lattice, (1, 0), sigma, BOUND)
        assert result.status == "pass"
        assert result.details["disc_action_order"] == 4
        assert result.details["char_poly"] == {"trace": 10, "det": 1}
        assert result.details["dominant_root"] == "5 + 2*sqrt(6)"
        assert "5 + 4*sqrt(6)" in result.details["eigenvalue_discrepancy"]

    def test_identity_fails(self, paper_lattice):
        result = check_S5_isometry(paper_lattice, (1, 0), ((1, 0), (0, 1)), BOUND)
        assert result.status == "fail"
        assert "finite order 1" in result.witness
        assert "fixes the polarization" in result.witness

    def test_non_isometry_fails(self, paper_lattice):
        result = check_S5_isometry(paper_lattice, (1, 0), ((1, 1), (0, 1)), BOUND)
        assert result.status == "fail"
        assert "not an isometry" in result.witness

    def test_sigma_power_60_is_fast_and_exact(self, paper_lattice, sigma):
        # tr^2 - 4 is about 10^120 here; factoring it used to hang
        start = time.perf_counter()
        report = run_certificate(
            CertificateInput(
                gram=paper_lattice,
                polarization=(1, 0),
                isometry=mat_pow(sigma, 60),
            )
        )
        assert time.perf_counter() - start < 1.0
        assert report.verdict == "pass"
        details = report.step("S5").details
        assert details["disc_action_order"] == 1
        p = 271891392002959497725800139549408786173817792813331457080001
        assert details["char_poly"] == {"trace": 2 * p, "det": 1}
        q = math.isqrt((p * p - 1) // 6)
        assert 6 * q * q == p * p - 1
        assert details["dominant_root"] == f"{p} + {q}*sqrt(6)"

    def test_never_unknown_on_golden_inputs(self):
        # n divides 2, 4 or 6 on S5's path (the proof is in the docstring
        # of discgroup.action_order), so action_order always finds it. All
        # but 8 golden inputs that reach S5 have their least u at most
        # 396,000, inside the default budget u <= BOUND^2; the 8 are the
        # census pairs [[4, 1], [1, c]] whose S2 "no" needs a walk of the
        # reduced cycle, and their u is past 10^6. Census pairs whose
        # golden report skips S5 are left out: S1-S3 do not all pass.
        statuses = []
        unknown = set()
        for line in GOLDEN_REPORTS.read_text().splitlines():
            entry = json.loads(line)
            doc = entry["input"]
            if entry["report"]["steps"][4]["status"] == "skipped":
                continue
            g = GramLattice(doc["gram"])
            inp = CertificateInput(g, doc["polarization"], doc.get("isometry"))
            result = check_S5_isometry(g, inp.polarization, inp.isometry, BOUND)
            if result.status == "unknown":
                reason = f"no automorph with u <= search_bound^2 = {BOUND**2}"
                assert result.details == {"reason": reason}, doc
                unknown.add(doc["gram"][1][1])
                continue
            assert result.status in ("pass", "fail"), doc
            if result.status == "pass":
                n = result.details["disc_action_order"]
                assert type(n) is int and n in (1, 2, 3, 4, 6), doc
            statuses.append((entry["family"], result.status))
        assert statuses.count(("sigma^k", "pass")) == 64
        assert statuses.count(("census", "pass")) == 221
        assert unknown == {-120, -138, -180, -222, -264, -268, -270, -292}

    def test_no_order_is_an_invariant_error(self, monkeypatch, paper_lattice, sigma):
        monkeypatch.setattr(certificate, "action_order", lambda action: None)
        with pytest.raises(RuntimeError, match="no order"):
            check_S5_isometry(paper_lattice, (1, 0), sigma, BOUND)

    @pytest.mark.parametrize(
        "rows,isometry",
        [
            ([[6, 3], [3, -6]], None),  # v.G.v has content 6
            ([[6, 3], [3, -6]], ((1, 1), (1, 2))),
            ([[2, 0], [0, -2]], None),  # discriminant 16, a square
            ([[2, 0], [0, -2]], ((-1, 0), (0, -1))),
        ],
    )
    def test_outside_the_precondition_raises(self, rows, isometry):
        g = GramLattice.from_rows(rows)
        assert isometry is None or is_isometry(g, isometry)
        with pytest.raises(ValueError, match="S5 needs S1-S3"):
            check_S5_isometry(g, (1, 0), isometry, BOUND)
        report = run_certificate(CertificateInput(g, (1, 0), isometry))
        assert report.step("S5").status == "skipped"

    def test_isometry_search_when_absent(self, paper_lattice):
        result = check_S5_isometry(paper_lattice, (1, 0), None, BOUND)
        assert result.status == "pass"
        assert result.details["disc_action_order"] == 4

    def test_cyclic_discriminant_group(self):
        # L*/L = Z/305: the action is 2x2 over the factors (1, 305)
        g = GramLattice.from_rows([[4, 1], [1, -76]])
        report = run_certificate(CertificateInput(gram=g, polarization=(1, 0)))
        assert report.verdict == "pass"
        s5 = report.step("S5").details
        assert discriminant_group(g).invariant_factors == (305,)
        assert s5["disc_action_order"] == 2
        assert brute_action_order(g, from_rows(s5["isometry"])) == 2

    def test_no_fraction_on_the_certificate_path(
        self, monkeypatch, paper_lattice, sigma
    ):
        # S1-S5, the report and `disc` run in integers; the only Fraction
        # left is a half-integer dominant root, and these roots are integral.
        built = []
        original = Fraction.__new__

        def spy(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", spy)
        inputs = [
            CertificateInput(paper_lattice, (1, 0), isometry=mat_pow(sigma, k))
            for k in range(1, 65)
        ]
        inputs.append(
            CertificateInput(GramLattice.from_rows([[4, 1], [1, -76]]), (1, 0))
        )
        for inp in inputs:
            report = run_certificate(inp)
            assert report.verdict == "pass"
            report_document(inp, report)
        assert cli.main(["disc", str(DATA_DIR / "gizatullin.json")]) == 0
        assert built == []

    def test_automorph_generator_always_qualifies(self):
        # Every even indefinite [[2a,b],[b,2c]] with |a|, |c| <= 8,
        # 0 <= b <= 11 whose primitive form f0 has a nonsquare discriminant,
        # and every h of positive norm among six, at search_bound 45: the
        # scan stops at u = 2025, and no form here has its least u in
        # 2000..2025. With an automorph, S5 passes with the generator itself
        # when v.G.v has content 2k = 2 or 4, and refuses the rest (18 of
        # which have an order on L*/L past 6) with ValueError; without one,
        # S5 is "unknown" and its reason names search_bound.
        polarizations = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1))
        cases = refused = unknown = 0
        for a, b, c in itertools.product(range(-8, 9), range(12), range(-8, 9)):
            if 4 * a * c - b * b >= 0:
                continue
            k = math.gcd(a, b, c)
            f0 = quadform.BinaryForm(a // k, b // k, c // k)
            d = f0.discriminant
            if math.isqrt(d) ** 2 == d:
                continue
            g = GramLattice.from_rows([[2 * a, b], [b, 2 * c]])
            gen = quadform.automorph_generator(f0, 45)
            for h in polarizations:
                if norm(g, h) <= 0:
                    continue
                if k > 2:
                    with pytest.raises(ValueError, match="content 2 or 4"):
                        check_S5_isometry(g, h, None, 45)
                    cases += gen is not None
                    refused += gen is not None
                    continue
                result = check_S5_isometry(g, h, None, 45)
                if gen is None:
                    assert result.status == "unknown", (a, b, c, h)
                    assert "search_bound" in result.details["reason"]
                    unknown += 1
                    continue
                cases += 1
                assert result.status == "pass", (a, b, c, h)
                assert result.details["isometry"] == [list(r) for r in gen]
        assert (cases, refused, unknown) == (4488, 154, 1212)


class TestRunCertificate:
    def test_paper_input_passes(self, paper_lattice, sigma):
        report = run_certificate(
            CertificateInput(gram=paper_lattice, polarization=(1, 0), isometry=sigma)
        )
        assert report.verdict == "pass"
        assert all(s.status == "pass" for s in report.steps)
        assert len(report.steps) == 5
        assert any("Saint-Donat" in note for note in report.notes)

    def test_imprimitive_polarization_fails_at_s3(self, paper_lattice):
        report = run_certificate(
            CertificateInput(gram=paper_lattice, polarization=(2, 0))
        )
        assert report.verdict == "fail"
        assert report.step("S3").status == "fail"
        assert report.step("S4").status == "skipped"
        assert report.step("S5").status == "skipped"

    def test_timing_covers_steps_that_ran(self, paper_lattice):
        report = run_certificate(
            CertificateInput(gram=paper_lattice, polarization=(2, 0))
        )
        assert list(report.timing) == ["S1", "S2", "S3"]
        assert all(ms >= 0 for ms in report.timing.values())

    def test_hyperbolic_plane_fails_at_s2(self):
        g = GramLattice.from_rows([[0, 1], [1, 0]])
        report = run_certificate(CertificateInput(gram=g, polarization=(1, 1)))
        assert report.verdict == "fail"
        assert report.step("S2").status == "fail"
        witness = report.step("S2").witness[0]
        assert norm(g, witness["vector"]) == witness["target"]

    def test_stable_under_basis_swap(self, paper_lattice, sigma):
        # swapping h1 and h2 conjugates the whole datum
        swap = ((0, 1), (1, 0))
        from latcert.matrices import mat_mul

        swapped_sigma = mat_mul(swap, mat_mul(sigma, swap))
        report = run_certificate(
            CertificateInput(
                gram=paper_lattice, polarization=(0, 1), isometry=swapped_sigma
            )
        )
        assert report.verdict == "pass"

    def test_stable_under_isometry_inverse(self, paper_lattice, sigma):
        report = run_certificate(
            CertificateInput(
                gram=paper_lattice,
                polarization=(1, 0),
                isometry=unimodular_inverse(sigma),
            )
        )
        assert report.verdict == "pass"

    def test_rejects_zero_polarization(self, paper_lattice):
        with pytest.raises(ValueError):
            CertificateInput(gram=paper_lattice, polarization=(0, 0))

    @pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
    @pytest.mark.parametrize(
        "change,message",
        [
            ({"polarization": (0, 0)}, "polarization must be nonzero"),
            ({"degree_bound": 0}, "degree_bound must be >= 1"),
            (
                {"degree_bound": MAX_DEGREE_BOUND + 1},
                f"degree_bound must be at most {MAX_DEGREE_BOUND}",
            ),
            ({"polarization": (1, 0, 0)}, "polarization must have 2 entries"),
            ({"isometry": identity(3)}, "isometry must be a 2x2 matrix"),
            ({"search_bound": 0}, "search_bound must be >= 1"),
            ({"search_bound": -5}, "search_bound must be >= 1"),
            # int() truncated these, or S3 and S5 died with TypeError
            ({"polarization": (1.0, 0)}, POLARIZATION_TYPE),
            ({"polarization": ("1", 0)}, POLARIZATION_TYPE),
            ({"polarization": 5}, POLARIZATION_TYPE),
            ({"isometry": ((10.0, 1), (-1, 0))}, ISOMETRY_TYPE),
            ({"isometry": ((10, 1), 5)}, ISOMETRY_TYPE),
            ({"isometry": 5}, ISOMETRY_TYPE),
            # True ran as bound 1
            ({"degree_bound": True}, "field degree_bound must be a positive integer"),
            ({"degree_bound": 16.0}, "field degree_bound must be a positive integer"),
            ({"search_bound": "1000"}, "field search_bound must be a positive integer"),
            # a gram left as given made run_certificate die with AttributeError
            ({"gram": "x"}, GRAM_TYPE),
            ({"gram": None}, GRAM_TYPE),
            ({"gram": [[True, 20], [20, 4]]}, GRAM_TYPE),
            ({"gram": [[4.0, 20], [20, 4]]}, GRAM_TYPE),
            ({"gram": [["4", 20], [20, 4]]}, GRAM_TYPE),
            ({"gram": [[4, 20, 0], [20, 4, 0], [0, 0, 2]]}, "must be 2x2"),
            ({"gram": [[4, 20], [21, 4]]}, "not symmetric"),
            ({"gram": [[2, 2], [2, 2]]}, "degenerate"),
        ],
    )
    def test_every_construction_path_validates_input(
        self, paper_lattice, path, change, message
    ):
        valid = CertificateInput(gram=paper_lattice, polarization=(1, 0))
        with pytest.raises(ValueError, match=message):
            rebuild(path, valid, **change)

    @pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
    @pytest.mark.parametrize("rows", [[[4, 20], [20, 4]], ((4, 20), (20, 4))])
    def test_gram_rows_become_a_gram_lattice(self, paper_lattice, sigma, path, rows):
        valid = CertificateInput(paper_lattice, (1, 0), sigma)
        inp = rebuild(path, valid, gram=rows)
        assert inp == valid and type(inp.gram) is GramLattice
        assert run_certificate(inp) == run_certificate(valid)

    def test_gram_lattice_is_kept_as_it_is(self, paper_lattice):
        assert CertificateInput(paper_lattice, (1, 0)).gram is paper_lattice

    def test_bad_gram_is_reported_before_the_other_fields(self):
        with pytest.raises(ValueError, match="degenerate"):
            CertificateInput([[2, 2], [2, 2]], (0, 0), degree_bound=0)

    def test_lists_are_stored_as_tuples(self, paper_lattice, sigma):
        # S5 compares the tuple M*h with h, which a list h never equals
        inp = CertificateInput(paper_lattice, [1, 0], [[10, 1], [-1, 0]])
        assert inp == CertificateInput(paper_lattice, (1, 0), sigma)
        assert type(inp.polarization) is tuple and type(inp.isometry[0]) is tuple

    def test_degree_bound_limit_itself_is_accepted(self, paper_lattice):
        # S4 lists about degree_bound^2 classes; the limit keeps that bounded
        inp = CertificateInput(
            paper_lattice, (1, 0), degree_bound=MAX_DEGREE_BOUND
        )
        assert inp.degree_bound == MAX_DEGREE_BOUND == 1024
        with pytest.raises(ValueError, match="at most 1024"):
            CertificateInput(paper_lattice, (1, 0), degree_bound=10**6)

    def test_input_defaults_and_immutability(self, paper_lattice):
        inp = CertificateInput(paper_lattice, (1, 0))
        assert (inp.isometry, inp.degree_bound, inp.search_bound) == (
            None,
            16,
            1000,
        )
        with pytest.raises(AttributeError):
            inp.degree_bound = 8
        with pytest.raises(AttributeError):
            inp.note = "no instance dict"

    def test_report_and_steps_are_immutable(self, paper_lattice):
        report = run_certificate(
            CertificateInput(gram=paper_lattice, polarization=(1, 0))
        )
        with pytest.raises(AttributeError):
            report.verdict = "fail"
        with pytest.raises(AttributeError):
            report.steps[0].status = "fail"

    def test_report_equality_ignores_timing(self, paper_lattice, sigma):
        report = run_certificate(
            CertificateInput(gram=paper_lattice, polarization=(1, 0), isometry=sigma)
        )
        retimed = report._replace(timing={"S1": 1e9})
        assert report == retimed
        assert not report != retimed
        assert report != report._replace(verdict="unknown")

    def test_report_determinism(self, paper_lattice, sigma):
        inp = CertificateInput(
            gram=paper_lattice, polarization=(1, 0), isometry=sigma
        )
        assert run_certificate(inp) == run_certificate(inp)

    def test_fail_witnesses_revalidate(self):
        g = GramLattice.from_rows([[4, 6], [6, 4]])
        report = run_certificate(CertificateInput(gram=g, polarization=(1, 0)))
        witness = report.step("S4").witness
        c = tuple(witness["coords"])
        assert inner(g, c, (1, 0)) == witness["degree"]
        assert norm(g, c) == witness["square"]
