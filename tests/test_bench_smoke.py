"""The benchmark's own oracles, on every tier-1 run.

``python3 perfbench/run.py --smoke`` runs each workload, untraced and then
traced, in its own process on a two-country corpus.  A workload passes only
when its process exits 0 and its last line reports ``"correct": true``: the
flagship answer equals central evaluation as a multiset, each request gets
exactly one provenance record, and every other oracle of the run holds.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_benchmark_smoke_run_is_correct():
    done = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    report = done.stdout[-4000:] + done.stderr[-4000:]
    assert done.returncode == 0, report
    verdicts = [line.partition(":")[0] for line in done.stdout.splitlines()
                if line.startswith(("PASS", "FAIL"))]
    assert verdicts == ["PASS flagship", "PASS lookups", "PASS pipeline-build"], report
