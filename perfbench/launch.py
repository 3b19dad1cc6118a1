"""Traced latcert CLI process for the benchmark's `cli` workload.

    python3 perfbench/launch.py SPANS_OUT ARGS...

Installs the span recorder, runs latcert.cli.main(ARGS), writes the spans
to SPANS_OUT and exits with main's exit code. Needs src/ on PYTHONPATH.
"""

import sys

import spans

if __name__ == "__main__":
    recorder = spans.Recorder()
    recorder.install()
    import latcert.cli

    try:
        code = latcert.cli.main(sys.argv[2:])
    finally:
        recorder.dump(sys.argv[1])
    sys.exit(code)
