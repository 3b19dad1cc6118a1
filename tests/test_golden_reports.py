"""Pinned certificate reports: `report_document` without `timing` must
equal, field for field, the documents in golden/reports.jsonl.

Each line holds one input, in the shape of an input document, and its
report:
  - the paper Gram with polarization (1, 0) and sigma^k, k = 1..64
  - the four bundled documents in data/
  - every census-window pair [[4,b],[b,2c]] (0 <= b <= 2, |det| <= 1200,
    h = (1, 0), no isometry) whose certificate finished within 50 ms,
    best of three, when the file was written

The census pairs are listed in the file, so the test does not depend
on timing. To rewrite the file after a deliberate change of the
reports, run `PYTHONPATH=src python3 tests/test_golden_reports.py`.
"""

import json
import math
import pathlib
import signal
import sys
import time

from latcert.certificate import CertificateInput, report_document, run_certificate

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "reports.jsonl"
DATA_DIR = ROOT / "data"

PAPER_GRAM = [[4, 20], [20, 4]]
PAPER_SIGMA = [[10, 1], [-1, 0]]
SIGMA_K_MAX = 64
CENSUS_DET_MAX = 1200
CENSUS_MS = 50


def report_without_timing(doc):
    inp = CertificateInput(**doc)
    report = report_document(inp, run_certificate(inp))
    del report["timing"]
    return json.loads(json.dumps(report))


def test_reports_match_golden():
    lines = GOLDEN.read_text().splitlines()
    families = [json.loads(line)["family"] for line in lines]
    assert families.count("sigma^k") == SIGMA_K_MAX
    assert families.count("document") == 4
    for line in lines:
        entry = json.loads(line)
        assert report_without_timing(entry["input"]) == entry["report"], entry[
            "input"
        ]


def test_s5_order_divides_two_four_or_six():
    # With k the content of v.G.v and D0 the discriminant of v.G.v / k,
    # n divides 2 (k = 2), 4 (k = 4, 4 | D0) or 6 (k = 4, D0 odd); the
    # proof is in the docstring of latcert.discgroup.action_order.
    counts = {2: 0, 4: 0, 6: 0}
    for line in GOLDEN.read_text().splitlines():
        entry = json.loads(line)
        s5 = entry["report"]["steps"][4]
        if s5["status"] != "pass":
            continue
        (a, b), (_, d) = entry["input"]["gram"]
        k = math.gcd(a, 2 * b, d)
        d0 = (4 * b * b - 4 * a * d) // (k * k)
        bound = 2 if k == 2 else 4 if d0 % 4 == 0 else 6
        assert k in (2, 4), entry["input"]
        assert bound % s5["details"]["disc_action_order"] == 0, entry["input"]
        counts[bound] += 1
    assert counts == {2: 83, 4: 124, 6: 44}


def _sigma_powers():
    power = [[1, 0], [0, 1]]
    for _ in range(SIGMA_K_MAX):
        power = [
            [sum(power[i][k] * PAPER_SIGMA[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        yield power


def _census_window():
    for b in range(3):
        c = 0 if b else -1
        while b * b - 8 * c <= CENSUS_DET_MAX:
            yield {"gram": [[4, b], [b, 2 * c]], "polarization": [1, 0]}
            c -= 1


def _best_of_three_ms(doc):
    """Best of three certificate runs in ms, or None when one run takes
    longer than a second (an op past its deadline)."""

    class TooLong(BaseException):
        pass

    def alarm(*_):
        raise TooLong

    inp = CertificateInput(**doc)
    best = None
    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        for _ in range(3):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            try:
                run_certificate(inp)
            except TooLong:
                return None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            ms = (time.perf_counter() - start) * 1000
            best = ms if best is None else min(best, ms)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return best


def write_golden():
    entries = [
        ("sigma^k", {"gram": PAPER_GRAM, "polarization": [1, 0], "isometry": m})
        for m in _sigma_powers()
    ]
    for path in sorted(DATA_DIR.glob("*.json")):
        doc = json.loads(path.read_text())
        entries.append(("document", doc))
    for doc in _census_window():
        ms = _best_of_three_ms(doc)
        if ms is not None and ms < CENSUS_MS:
            entries.append(("census", doc))
    with GOLDEN.open("w") as out:
        for family, doc in entries:
            line = {"family": family, "input": doc, "report": report_without_timing(doc)}
            out.write(json.dumps(line, separators=(",", ":")) + "\n")
    print(f"wrote {len(entries)} reports to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
