import copy
import csv
import hashlib
import json
import shutil
from collections import Counter
from decimal import Decimal

import pytest

from energyde import mapping, pipeline
from energyde.config import Section
from energyde.connector.messages import parse_rfc3339
from energyde.pipeline import (LinkingSpec, PipelineError, PreprocessStep,
                               canonical_decimal, link_entities,
                               load_pipeline_config, preprocess, run_pipeline)
from energyde.rdf import (Graph, IRI, Literal, Triple, load_graph,
                          parse_ntriples)
from energyde.vocab import OWL_SAMEAS, PROV, RDFS_LABEL

EX = "http://example.org/"


def step(kind, **raw):
    return PreprocessStep.read(Section(dict(raw, kind=kind), "test", PipelineError))


class TestPreprocess:
    def test_rename_field(self):
        rows, errors = preprocess([{"a": "1"}], [step("rename-field",
                                                      **{"from": "a",
                                                         "to": "b"})])
        assert rows == [{"b": "1"}] and not errors

    def test_scale_numeric_canonical_decimal(self):
        rows, errors = preprocess(
            [{"v": "2.50"}], [step("scale-numeric", field="v", factor="0.4")])
        assert rows == [{"v": "1"}] and not errors

    def test_scale_identity(self):
        records = [{"v": "3.14"}, {"v": None}, {"w": "x", "v": "0"}]
        rows, errors = preprocess(records,
                                  [step("scale-numeric", field="v", factor=1)])
        assert rows == records and not errors

    def test_scale_non_numeric_reports_and_drops(self):
        rows, errors = preprocess(
            [{"v": "abc"}, {"v": "2"}],
            [step("scale-numeric", field="v", factor=10)])
        assert rows == [{"v": "20"}]
        assert len(errors) == 1

    # a value is a number when it is a finite xsd:double lexical form, in
    # ASCII: NaN and Infinity are no xsd:decimal, summing sNaN raises, and
    # Decimal alone would read underscores, spaces and non-ASCII digits
    @pytest.mark.parametrize("value", ["NaN", "sNaN", "-Infinity", "inf", "abc", "1,5",
                                       "1_000", " 5 ", "5\n", "１２", "١٢",
                                       "1E" + "9" * 19])
    @pytest.mark.parametrize("made", [step("scale-numeric", field="v", factor=10),
                                      step("aggregate", group_by=["g"], sum="v")],
                             ids=["scale-numeric", "aggregate"])
    def test_non_finite_value_is_non_numeric(self, made, value):
        rows, errors = preprocess([{"g": "a", "v": value}, {"g": "a", "v": "2"}], [made])
        assert rows == [{"g": "a", "v": "20"} if made.kind == "scale-numeric"
                        else {"g": "a", "v": "2"}]
        assert errors == [f"{made.kind}: record 0: non-numeric v={value!r}"]

    @pytest.mark.parametrize("factor", ["NaN", "Infinity", "0", "abc", "1_0"])
    def test_scale_factor_that_is_no_finite_non_zero_number_rejected(self, factor):
        with pytest.raises(PipelineError, match="factor: not a number, or zero"):
            step("scale-numeric", field="v", factor=factor)

    def test_drop_missing_identity_on_complete_rows(self):
        records = [{"a": "1"}, {"a": "2"}]
        rows, _ = preprocess(records, [step("drop-missing", field="a")])
        assert rows == records

    def test_drop_missing_removes_null_rows(self):
        rows, _ = preprocess([{"a": None}, {"a": "2"}],
                             [step("drop-missing", field="a")])
        assert rows == [{"a": "2"}]

    def test_aggregate_hand_sum_of_fixture_hours(self, fixture_dir):
        with open(fixture_dir / "raw" / "plant_production.csv") as fh:
            records = [{k: (v or None) for k, v in row.items()}
                       for row in csv.DictReader(fh)]
        rows, errors = preprocess(
            records, [step("aggregate", group_by=["plant", "date"],
                           sum="measure")])
        assert not errors
        expected = {}
        for r in records:
            key = (r["plant"], r["date"])
            expected[key] = expected.get(key, Decimal(0)) + Decimal(r["measure"])
        assert len(rows) == len(expected)
        for r in rows:
            assert Decimal(r["measure"]) == expected[(r["plant"], r["date"])]

    def test_steps_compose_in_order(self):
        steps = [step("rename-field", **{"from": "x", "to": "v"}),
                 step("scale-numeric", field="v", factor=2),
                 step("drop-missing", field="v")]
        records = [{"x": "3"}, {"x": None}]
        combined, _ = preprocess(records, steps)
        staged = records
        for s in steps:
            staged, _ = preprocess(staged, [s])
        assert combined == staged == [{"v": "6"}]

    @pytest.mark.parametrize("kinds", [
        ["rename-field"], ["scale-numeric"], ["aggregate"], ["drop-missing"],
        ["rename-field", "scale-numeric", "aggregate", "drop-missing"]])
    def test_input_records_are_left_as_they_were(self, kinds):
        made = {"rename-field": step("rename-field", **{"from": "x", "to": "y"}),
                "scale-numeric": step("scale-numeric", field="v", factor=2),
                "aggregate": step("aggregate", group_by=["k"], sum="v"),
                "drop-missing": step("drop-missing", field="v")}
        records = [{"k": "a", "x": "1", "v": "2"}, {"k": "a", "x": None, "v": "3"},
                   {"k": "b", "x": "4", "v": None}, {"k": "b", "v": "z"}]
        before = copy.deepcopy(records)
        preprocess(records, [made[kind] for kind in kinds])
        assert records == before

    # the arithmetic is exact: a result the 28-digit decimal context would
    # round, or that overflows, is a record error, not a traceback
    @pytest.mark.parametrize("value, factor", [
        ("9E999999", 10), ("1234567890123456789012345678.9", 2)],
        ids=["overflow", "rounded"])
    def test_scale_that_is_not_exact_drops_its_record(self, value, factor):
        rows, errors = preprocess([{"v": value}, {"v": "2"}],
                                  [step("scale-numeric", field="v", factor=factor)])
        assert rows == [{"v": str(2 * factor)}]
        assert errors == [f"scale-numeric: record 0: v={value!r} scaled by "
                          f"{factor} is not exact"]

    @pytest.mark.parametrize("values", [
        ["9E999999", "9E999999"], ["1234567890123456789012345678.9", "0.01"]],
        ids=["overflow", "rounded"])
    def test_aggregate_that_is_not_exact_drops_its_group(self, values):
        records = [{"g": "a", "v": values[0]}, {"g": "b", "v": "1"},
                   {"g": "a", "v": values[1]}, {"g": "a", "v": "5"}]
        rows, errors = preprocess(records, [step("aggregate", group_by=["g"], sum="v")])
        assert rows == [{"g": "b", "v": "1"}]
        assert errors == ["aggregate: group {'g': 'a'}: the sum of v is not exact"]

    def test_exact_result_of_28_digits_is_kept(self):
        value = "1234567890123456789012345678"
        rows, errors = preprocess([{"g": "a", "v": value}],
                                  [step("scale-numeric", field="v", factor="1E+3"),
                                   step("aggregate", group_by=["g"], sum="v")])
        assert rows == [{"g": "a", "v": value + "000"}] and not errors

    def test_zero_scale_factor_rejected(self):
        with pytest.raises(PipelineError):
            step("scale-numeric", field="v", factor=0)

    def test_aggregate_needs_group_by(self):
        with pytest.raises(PipelineError):
            step("aggregate", group_by=[], sum="v")

    def test_canonical_decimal_forms(self):
        assert canonical_decimal(Decimal("2.500")) == "2.5"
        assert canonical_decimal(Decimal("1E+2")) == "100"
        assert canonical_decimal(Decimal("0.0")) == "0"


class TestLinking:
    SPEC = LinkingSpec(label_predicate=RDFS_LABEL, reference_path="unused")

    def ref(self, *pairs):
        g = Graph()
        for node, label in pairs:
            g.insert(Triple(IRI(EX + node), IRI(RDFS_LABEL), Literal(label)))
        return g

    def test_exact_label_match_links(self):
        local = self.ref(("mine", "Wind"))
        links, ambiguous = link_entities(local, self.ref(("theirs", "Wind")),
                                         self.SPEC)
        assert links == [Triple(IRI(EX + "mine"), IRI(OWL_SAMEAS), IRI(EX + "theirs"))]
        assert not ambiguous
        assert list(local.match(IRI(EX + "mine"), IRI(OWL_SAMEAS),
                                IRI(EX + "theirs")))

    def test_no_match_no_links(self):
        local = self.ref(("mine", "Wind"))
        links, _ = link_entities(local, self.ref(("theirs", "Solar")),
                                 self.SPEC)
        assert links == []

    def test_case_sensitive(self):
        local = self.ref(("mine", "wind"))
        links, _ = link_entities(local, self.ref(("theirs", "Wind")),
                                 self.SPEC)
        assert links == []

    def test_ambiguous_label_reported_and_linked_to_all(self):
        local = self.ref(("mine", "Wind"))
        reference = self.ref(("t1", "Wind"), ("t2", "Wind"))
        links, ambiguous = link_entities(local, reference, self.SPEC)
        assert sorted(link.object.value for link in links) == [EX + "t1", EX + "t2"]
        assert ambiguous == ["Wind"]

    def test_label_that_is_an_iri_is_skipped(self):
        local = self.ref(("mine", "Wind"))
        local.insert(Triple(IRI(EX + "other"), IRI(RDFS_LABEL), IRI(EX + "Wind")))
        reference = self.ref(("theirs", "Wind"))
        reference.insert(Triple(IRI(EX + "iri"), IRI(RDFS_LABEL), IRI(EX + "Wind")))
        links, ambiguous = link_entities(local, reference, self.SPEC)
        assert links == [Triple(IRI(EX + "mine"), IRI(OWL_SAMEAS), IRI(EX + "theirs"))]
        assert not ambiguous

    def test_rerun_adds_nothing(self):
        local = self.ref(("mine", "Wind"))
        reference = self.ref(("theirs", "Wind"))
        link_entities(local, reference, self.SPEC)
        size = len(local)
        links, _ = link_entities(local, reference, self.SPEC)
        assert links == [] and len(local) == size


class TestRunPipeline:
    @pytest.fixture()
    def workdir(self, fixture_dir, tmp_path):
        work = tmp_path / "work"
        shutil.copytree(fixture_dir, work)
        return work

    def test_fixture_pipeline_loads(self, workdir):
        config = load_pipeline_config(workdir / "pipeline.yaml")
        report = run_pipeline(config)
        assert report["conforms"] is True
        assert report["loaded"] is True
        assert report["aborted_stage"] is None
        assert (workdir / "graphs" / "tso.nt").exists()
        assert report["stages"]["linking"]["links"] > 0

    def test_idempotent_rerun(self, workdir):
        config = load_pipeline_config(workdir / "pipeline.yaml")
        first = run_pipeline(config)
        second = run_pipeline(config)
        assert first["stages"]["load"]["digest"] == \
            second["stages"]["load"]["digest"]
        output = (workdir / "graphs" / "tso.nt").read_bytes()
        assert second["stages"]["load"]["digest"] == \
            hashlib.sha256(output).hexdigest()

    def test_the_graph_is_serialized_once(self, workdir, monkeypatch):
        # the linked text is the mapped lines with the links' lines merged
        # in: the bytes a second serialization of the whole graph would give
        serialize = pipeline.serialize_ntriples
        sizes = []

        def counting(graph):
            sizes.append(len(graph))
            return serialize(graph)

        monkeypatch.setattr(pipeline, "serialize_ntriples", counting)
        report = run_pipeline(load_pipeline_config(workdir / "pipeline.yaml"))
        links = report["stages"]["linking"]["links"]
        assert links > 0 and sizes == [report["stages"]["load"]["triples"] - links]
        output = (workdir / "graphs" / "tso.nt").read_text(encoding="utf-8")
        assert serialize(parse_ntriples(output)) == output

    # the pipeline-side names the benchmark's tracer wraps, each a module
    # attribute the pipeline must call through, or its per-layer time reads 0
    TRACED = [(pipeline, "read_records"), (pipeline, "preprocess"),
              (mapping, "apply_triple_map"), (pipeline, "link_entities"),
              (pipeline, "load_graph"), (pipeline, "validate"),
              (pipeline, "serialize_ntriples")]

    def test_every_traced_name_is_called(self, workdir, monkeypatch):
        calls = Counter()
        for module, name in self.TRACED:
            def counting(*args, _call=getattr(module, name),
                         _name=f"{module.__name__}.{name}", **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        report = run_pipeline(load_pipeline_config(workdir / "pipeline.yaml"))
        assert report["loaded"] and report["stages"]["linking"]["links"] > 0
        assert sorted(calls) == sorted(f"{module.__name__}.{name}"
                                       for module, name in self.TRACED)

    def test_output_equals_manual_stage_composition(self, workdir):
        from energyde.mapping import apply_triple_map, load_mapping, read_records
        config = load_pipeline_config(workdir / "pipeline.yaml")
        run_pipeline(config)
        loaded = load_graph(workdir / "graphs" / "tso.nt")

        source, steps = config.sources[0]
        rows, _ = preprocess(read_records(source), steps)
        doc = load_mapping(config.mapping_path)
        manual = Graph()
        for tmap in doc.maps:
            apply_triple_map(tmap, rows, manual)
        reference = load_graph(config.linking.reference_path)
        link_entities(manual, reference, config.linking)
        as_set = lambda g: {(t.subject, t.predicate, t.object) for t in g}
        assert as_set(manual) == as_set(loaded)

    def test_block_policy_skips_load(self, workdir):
        # blank one measure: the mapping skips the null, so the focus node
        # fails its measure min-count and the block policy must hold back load
        raw = workdir / "raw" / "capacity.csv"
        lines = raw.read_text().splitlines()
        header = lines[0].split(",")
        i = header.index("measure")
        cells = lines[1].split(",")
        cells[i] = ""
        lines[1] = ",".join(cells)
        raw.write_text("\n".join(lines) + "\n")
        config = load_pipeline_config(workdir / "pipeline.yaml")
        out = workdir / "graphs" / "tso.nt"
        out.unlink()
        report = run_pipeline(config)
        assert report["conforms"] is False
        assert report["loaded"] is False
        assert report["stages"]["load"]["skipped"] is True
        assert not out.exists()

    def test_warn_policy_still_loads(self, workdir):
        config_text = (workdir / "pipeline.yaml").read_text()
        (workdir / "pipeline.yaml").write_text(
            config_text.replace("on_violation: block", "on_violation: warn"))
        shapes = workdir / "shapes" / "capacity.yaml"
        shapes.write_text(shapes.read_text() + """
      - {path: http://w3id.org/energy/nonexistent, min_count: 1}
""")
        config = load_pipeline_config(workdir / "pipeline.yaml")
        report = run_pipeline(config)
        assert report["conforms"] is False
        assert report["loaded"] is True

    def test_report_and_provenance_written(self, workdir):
        config = load_pipeline_config(workdir / "pipeline.yaml")
        run_pipeline(config)
        report = json.loads((workdir / "report.json").read_text())
        assert set(report["stages"]) >= {"staging", "preprocess", "mapping",
                                         "linking", "validation", "load"}
        prov = parse_ntriples((workdir / "graphs" / "tso.prov.nt").read_text())
        assert len(prov) > 0
        stages = {t.subject.value for t in prov
                  if t.predicate.value.endswith("startedAtTime")}
        assert len(stages) >= 5

    def test_each_activity_starts_when_the_one_before_it_ended(self, workdir):
        report = run_pipeline(load_pipeline_config(workdir / "pipeline.yaml"))
        times = {}
        for t in load_graph(report["provenance"]):
            if t.predicate.value in (PROV + "startedAtTime", PROV + "endedAtTime"):
                stage = t.subject.value.rpartition("/")[2]
                times[stage, t.predicate.value] = parse_rfc3339(t.object.lexical)
        order = ["staging", "preprocess", "mapping", "linking", "validation", "load"]
        assert list(report["stages"]) == order
        assert {stage for stage, _ in times} == set(order)
        for stage in order:
            assert times[stage, PROV + "startedAtTime"] <= times[stage, PROV + "endedAtTime"]
        for before, after in zip(order, order[1:]):
            assert times[after, PROV + "startedAtTime"] == times[before, PROV + "endedAtTime"]

    def test_staging_content_addressed(self, workdir):
        config = load_pipeline_config(workdir / "pipeline.yaml")
        run_pipeline(config)
        src = workdir / "raw" / "capacity.csv"
        digest = hashlib.sha256(src.read_bytes()).hexdigest()
        assert (workdir / "staging" / f"{digest}.csv").exists()

    def test_one_run_id_however_the_config_path_is_written(self, workdir,
                                                            monkeypatch):
        monkeypatch.chdir(workdir)
        activities = []
        for path in ("pipeline.yaml", workdir / "pipeline.yaml"):
            report = run_pipeline(load_pipeline_config(path))
            prov = load_graph(report["provenance"])
            activities.append({t.subject for t in prov
                               if t.predicate.value.endswith("startedAtTime")})
        assert len(activities[0]) >= 5 and activities[0] == activities[1]

    def test_map_over_a_file_no_source_names_reads_its_raw_records(self, workdir):
        # the row with no country would fall to the pipeline source's
        # drop-missing step; this file is no pipeline source, so it stays
        (workdir / "raw" / "extra.csv").write_text(
            "country,type,measure,year\n,WindPower,5,2020\nRS,Solar,7,2021\n")
        mapping = workdir / "mappings" / "pipeline.yaml"
        mapping.write_text(mapping.read_text() + """
  - source: {path: ../raw/extra.csv, format: csv}
    subject: {template: "http://example.org/extra/{type}"}
    po:
      - {predicate: http://example.org/measure, field: measure}
""")
        report = run_pipeline(load_pipeline_config(workdir / "pipeline.yaml"))
        assert report["loaded"] is True
        loaded = load_graph(workdir / "graphs" / "tso.nt")
        assert {(t.subject.value, t.object.lexical)
                for t in loaded.match(predicate=IRI(EX + "measure"))} == \
            {(EX + "extra/WindPower", "5"), (EX + "extra/Solar", "7")}
        records = (workdir / "raw" / "capacity.csv").read_text().count("\n") - 1
        assert report["stages"]["preprocess"]["records_in"] == records

    def test_missing_input_rejected_at_config_load(self, workdir):
        (workdir / "raw" / "capacity.csv").unlink()
        with pytest.raises(Exception):
            load_pipeline_config(workdir / "pipeline.yaml")
