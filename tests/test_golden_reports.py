"""Pinned certificate reports: `report_document` without `timing` must
equal, field for field, the documents in golden/reports.jsonl.

Each line holds one input, in the shape of an input document, and its
report:
  - the paper Gram with polarization (1, 0) and sigma^k, k = 1..64
  - the four bundled documents in data/
  - 415 census-window pairs [[4,b],[b,2c]] (0 <= b <= 2, |det| <= 1200,
    h = (1, 0), no isometry)

The writer takes its census inputs from the census lines already in
the file, so a rewrite does not depend on the machine, and with the
reports unchanged it leaves the file byte for byte as it was. To
rewrite the file after a deliberate change of the reports, run
`PYTHONPATH=src python3 tests/test_golden_reports.py`. To change the
census set, add or delete census lines in the file and rewrite it; a
new line needs only its "family" and "input", as the rewrite computes
its "report".
"""

import json
import math
import pathlib
import sys

from latcert.certificate import CertificateInput, report_document, run_certificate

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "reports.jsonl"
DATA_DIR = ROOT / "data"

PAPER_GRAM = [[4, 20], [20, 4]]
PAPER_SIGMA = [[10, 1], [-1, 0]]
SIGMA_K_MAX = 64


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
    assert counts == {2: 118, 4: 124, 6: 44}


def _sigma_powers():
    power = [[1, 0], [0, 1]]
    for _ in range(SIGMA_K_MAX):
        power = [
            [sum(power[i][k] * PAPER_SIGMA[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        yield power


def golden_lines():
    """The lines of golden/reports.jsonl as the writer computes them:
    the sigma^k inputs, the documents, then the census inputs that the
    file lists, each with its report."""
    entries = [
        ("sigma^k", {"gram": PAPER_GRAM, "polarization": [1, 0], "isometry": m})
        for m in _sigma_powers()
    ]
    for path in sorted(DATA_DIR.glob("*.json")):
        entries.append(("document", json.loads(path.read_text())))
    for line in GOLDEN.read_text().splitlines():
        entry = json.loads(line)
        if entry["family"] == "census":
            entries.append(("census", entry["input"]))
    return [
        json.dumps(
            {"family": family, "input": doc, "report": report_without_timing(doc)},
            separators=(",", ":"),
        )
        for family, doc in entries
    ]


def test_rewrite_leaves_the_file_unchanged():
    assert golden_lines() == GOLDEN.read_text().splitlines()


def write_golden():
    lines = golden_lines()
    GOLDEN.write_text("".join(line + "\n" for line in lines))
    print(f"wrote {len(lines)} reports to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
