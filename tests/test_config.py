import copy
import shutil
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from energyde.cli import main
from energyde.config import ConfigError, read_document
from energyde.connector.contracts import load_contracts
from energyde.connector.node import load_node_config
from energyde.federation import load_catalog
from energyde.mapping import load_mapping
from energyde.pipeline import load_pipeline_config
from energyde.scenario import NodeSet, load_scenario
from energyde.shapes import load_shapes

# each loader with the fixture document it reads
LOADERS = {
    "mapping": ("mappings/capacity.yaml", load_mapping),
    "shapes": ("shapes/capacity.yaml", load_shapes),
    "contracts": ("contracts/contracts.yaml", load_contracts),
    "node config": ("nodes/tso.yaml", load_node_config),
    "pipeline config": ("pipeline.yaml", load_pipeline_config),
    "catalog": ("catalog_full.yaml", load_catalog),
    "scenario": ("scenario.yaml", load_scenario),
    "nodes file": ("nodes.yaml", NodeSet),
}

# each loader's parsed document -> the input files it names
INPUTS = {
    "mapping": lambda doc: [tmap.source.path for tmap in doc.maps],
    "shapes": lambda shapes: [],
    "contracts": lambda store: [],
    "node config": lambda config: config.graph_paths + [config.contracts_path],
    "pipeline config": lambda config: (
        [config.mapping_path, config.shapes_path, config.linking.reference_path]
        + [source.path for source, _ in config.sources]),
    "catalog": lambda catalog: [],
    "scenario": lambda steps: [path for step in steps
                               for path in (step.query, step.graph, step.catalog)
                               if path is not None],
    "nodes file": lambda nodes: [path for config in nodes._configs
                                 for path in INPUTS["node config"](config)],
}

_leaf = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=12))
_value = st.one_of(_leaf, st.lists(_leaf, max_size=3),
                   st.dictionaries(st.text(max_size=8), _leaf, max_size=3))


def key_paths(node, prefix=()):
    """Every key path in a parsed YAML document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def corpus(fixture_dir, tmp_path_factory):
    work = tmp_path_factory.mktemp("config") / "work"
    shutil.copytree(fixture_dir, work)
    return work


@pytest.mark.parametrize("name", LOADERS)
def test_fixture_documents_load(corpus, name):
    relative, load = LOADERS[name]
    load(corpus / relative)


@pytest.mark.parametrize("name", LOADERS)
def test_every_input_path_a_document_names_exists(corpus, name, tmp_path,
                                                  monkeypatch):
    # each path is joined with its document's directory when it is read,
    # so it names its file from any working directory
    relative, load = LOADERS[name]
    monkeypatch.chdir(tmp_path)
    names = INPUTS[name](load((corpus / relative).resolve()))
    missing = [str(path) for path in names if not Path(path).is_file()]
    assert not missing


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_random_value_loads_or_is_a_config_error(corpus, name, data):
    relative, load = LOADERS[name]
    source = corpus / relative
    doc = yaml.safe_load(source.read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(sorted(key_paths(doc), key=repr)))
    mutated = copy.deepcopy(doc)
    target = mutated
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(_value)
    # a sibling file, so relative paths in the document still resolve
    changed = source.with_name("mutated-" + source.name)
    changed.write_text(yaml.safe_dump(mutated), encoding="utf-8")
    try:
        load(changed)
    except ConfigError as exc:
        assert str(exc).startswith(str(changed)), exc


def where(path) -> str:
    """A key path as a config message writes it."""
    text = "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path)
    return text.lstrip(".") or "top level"


@pytest.mark.parametrize("name", LOADERS)
def test_an_unknown_key_in_any_mapping_is_refused(corpus, name):
    relative, load = LOADERS[name]
    source = corpus / relative
    doc = yaml.safe_load(source.read_text(encoding="utf-8"))
    # every mapping but a ``prefixes`` map, whose keys are labels
    paths = [path for path in [(), *key_paths(doc)]
             if isinstance(reduce(getitem, path, doc), dict)
             and path[-1:] != ("prefixes",)]
    missed = []
    for path in paths:
        mutated = copy.deepcopy(doc)
        reduce(getitem, path, mutated)["unread"] = 1
        changed = source.with_name("unknown-key-" + source.name)
        changed.write_text(yaml.safe_dump(mutated), encoding="utf-8")
        expected = f"{where(path)}: unknown keys ['unread']"
        try:
            load(changed)
            missed.append((where(path), "accepted"))
        except ConfigError as exc:
            if not str(exc).endswith(expected):
                missed.append((where(path), str(exc)))
    assert not missed


@pytest.mark.parametrize("extra, message", [
    # a node's catalog entry is derived from its graph, so a config that
    # lists classes is refused rather than served as another catalog
    ("classes: [http://example.org/C]\n", "top level: unknown keys ['classes']"),
    ("listen: {hots: 127.0.0.1}\n", "listen: unknown keys ['hots']"),
    # ``graphs`` is the one spelling of the node's graph files
    ("graph: x.nt\n", "top level: unknown keys ['graph']"),
])
def test_a_node_config_with_an_unknown_key_exits_2(corpus, capsys, extra, message):
    source = corpus / "nodes" / "tso.yaml"
    doc = yaml.safe_load(source.read_text(encoding="utf-8"))
    doc.update(yaml.safe_load(extra))
    changed = source.with_name("unknown-key-" + source.name)
    changed.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["provenance", "audit", "--node-config", str(changed)]) == 2
    err = capsys.readouterr().err
    assert f"{changed}: {message}" in err, err


@pytest.mark.parametrize("text, message", [
    ("a: [", "not valid YAML"),
    ("", "top level: expected a mapping, got NoneType"),
    ("- a", "top level: expected a mapping, got list"),
])
def test_read_document_rejects(text, message):
    with pytest.raises(ConfigError, match=message):
        read_document(text)


def test_messages_start_at_the_key_path():
    doc = read_document("a: {b: [{c: x}, 3]}")
    with pytest.raises(ConfigError, match=r"^a\.b\[1\]: expected a mapping, got int$"):
        doc.section("a").sections("b")
    first = read_document("a: {b: [{c: x}]}").section("a").sections("b")[0]
    with pytest.raises(ConfigError, match=r"^a\.b\[0\]\.d: missing$"):
        first.get("d")
