"""Output bytes pinned on the seed-1 fixtures.

The digests were taken before mapping and validation moved to term ids, so
a change to either that alters one byte of the pipeline's output, report or
PROV file, or of ``energyde validate``'s report, fails here, as does a
change to one byte of what ``energyde query`` prints.  The pipeline
runs in its own directory with relative paths, so the run id and the paths
in the report do not depend on where the test runs.  PROV timestamps are
masked.
"""

import hashlib
import re
import shutil

import pytest

from energyde.cli import main
from energyde.pipeline import load_pipeline_config, run_pipeline

QUERY_OUTPUT = {  # graph, query -> sha256 of what ``energyde query`` prints
    ("tso.nt", "sq1.rq"):
        "989959c8c3257f7a244b93034180ef54dfed2ce32647ecf4f8a69a3d0da07ce7",
    ("reference.nt", "sq2.rq"):
        "f66523c47b603641636503793d10619d85bad170a48d76ecd3d756d11561598d",
}
PIPELINE_OUTPUT = "bfccc5373353475fa7af345c5dc1087e6f7fd3445d99992883defffcf7d1465d"
PIPELINE_REPORT = "c63af04621663b33334a4c118e9f3c2da63b131d77d767ece365f7c060ad3d07"
PIPELINE_PROV = "82c09b8d183fa400df077c29e970367c0d28e8bb32241d39c874dacee6a29f93"
VALIDATE_DEFECTIVE = "c8d105164a7323b2d95428053137027b3b718a5d8bc4ee9b63069ef39fc0ecac"

_TIMESTAMP = re.compile(r'"[^"]*"\^\^<http://www\.w3\.org/2001/XMLSchema#dateTime>')


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_pipeline_bytes(fixture_dir, tmp_path, monkeypatch):
    shutil.copytree(fixture_dir, tmp_path / "work")
    monkeypatch.chdir(tmp_path / "work")
    report = run_pipeline(load_pipeline_config("pipeline.yaml"))
    assert report["loaded"] is True
    with open("graphs/tso.nt", "rb") as fh:
        assert sha256(fh.read()) == PIPELINE_OUTPUT
    with open("report.json", "rb") as fh:
        assert sha256(fh.read()) == PIPELINE_REPORT
    with open("graphs/tso.prov.nt", encoding="utf-8") as fh:
        prov = _TIMESTAMP.sub('"T"', fh.read())
    assert sha256(prov.encode()) == PIPELINE_PROV


def test_validate_report_bytes(fixture_dir, capsys):
    code = main(["validate",
                 "--graph", str(fixture_dir / "graphs" / "capacity_defective.nt"),
                 "--shapes", str(fixture_dir / "shapes" / "capacity.yaml")])
    assert code == 1
    assert sha256(capsys.readouterr().out.encode()) == VALIDATE_DEFECTIVE


@pytest.mark.parametrize("graph, query", sorted(QUERY_OUTPUT))
def test_query_output_bytes(fixture_dir, capsys, graph, query):
    code = main(["query", "--graph", str(fixture_dir / "graphs" / graph),
                 "--query", str(fixture_dir / "queries" / query)])
    assert code == 0
    assert sha256(capsys.readouterr().out.encode()) == QUERY_OUTPUT[graph, query]
