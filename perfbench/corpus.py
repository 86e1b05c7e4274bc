"""Seeded, scalable corpus for the benchmark.

Starts from ``energyde.fixtures.generate_fixtures(seed)`` and grows it: the
raw capacity CSV gets ``countries x types x years`` records and the reference
(wiki) node gets a subclass entry and a label for every production type, half
of them renewable.  The TSO graph is then built by the real pipeline.  The
same seed and scale always give byte-identical inputs.
"""

from __future__ import annotations

import csv
import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from energyde import vocab
from energyde.fixtures import generate_fixtures
from energyde.rdf import IRI, Literal, Triple, load_graph, save_graph

YEARS = ("2018", "2019", "2020", "2021", "2022")
FLAGSHIP_YEAR = "2020"
# the fixture's own types first; WindPower is renewable and Coal and Hydro are
# not in the fixture's reference graph, and the corpus keeps that
TYPES = ("WindPower", "Coal", "Hydro", "Solar", "Gas", "Biomass", "Nuclear",
         "Geothermal", "Oil", "Lignite", "Marine", "WindOffshore", "HydroPumped",
         "HydroRiver", "Waste", "Peat", "CoalGas", "OtherRenewable", "ShaleOil",
         "Other")
NON_RENEWABLE_WD = vocab.WD + "Q24436"
EXPIRED_CONTRACT = "expired-2019"
# the fixture's expired contract names the supplier node; re-pointed at the
# tso node so that the tso node's refusal is decided by the contract window
_EXPIRED_FIXTURE = ("  - id: expired-2019\n    provider: supplier\n    consumer: tso\n"
                    "    resource: supplier-graph\n")
_EXPIRED_TSO = ("  - id: expired-2019\n    provider: tso\n    consumer: tso\n"
                "    resource: tso-graph\n")

# what the tso node's catalog entry must list (mapping + linking + load graph)
TSO_CLASSES = frozenset({vocab.GENERATION_CAPACITY, vocab.ENERGY + "LoadMeasurement"})
TSO_PREDICATES = frozenset({
    vocab.RDF_TYPE, vocab.RDFS_LABEL, vocab.OWL_SAMEAS, vocab.PRODUCTION_TYPE,
    vocab.COUNTRY, vocab.MEASURE, vocab.AGG_YEAR, vocab.ENERGY + "sourceDataset",
    vocab.ENERGY + "zone"})


@dataclass
class Corpus:
    root: Path
    countries: tuple
    renewable: frozenset          # production type names
    measures: dict                # (country, type, year) -> measure string

    @property
    def expected_tso_triples(self) -> int:
        # six per capacity record, one label per type, one sameAs per type
        return 6 * len(self.measures) + 2 * len(TYPES)

    @property
    def expected_flagship_rows(self) -> int:
        return len(self.countries) * len(self.renewable)

    def capacity_iri(self, country: str, ptype: str, year: str) -> str:
        return f"{vocab.ENERGY}capacity/{country}/{ptype}/{year}"

    def path(self, relative: str) -> Path:
        return self.root / relative


def _countries(n: int) -> tuple:
    fixed = ("RS", "DE", "AT", "HU")
    return fixed[:n] + tuple(f"K{i:03d}" for i in range(n - len(fixed)))


def _label_iri(index: int, ptype: str) -> str:
    # the fixture's reference graph already labels these three
    known = {"WindPower": "Q43302", "Coal": "Q24489", "Hydro": "Q80638"}
    return vocab.WD + known.get(ptype, f"Q9{index:05d}")


def generate_corpus(seed: int, root, countries: int = 100) -> Corpus:
    """Write the scaled workspace under ``root`` (which must not exist) and
    return its description.  The TSO graph is not built here."""
    root = Path(root)
    generate_fixtures(seed, root)
    rng = random.Random(f"perfbench-{seed}")
    names = _countries(countries)
    measures = {}
    with open(root / "raw" / "capacity.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["country", "type", "measure", "year"])
        for country in names:
            for ptype in TYPES:
                for year in YEARS:
                    measure = str(rng.randrange(50, 5000))
                    measures[(country, ptype, year)] = measure
                    writer.writerow([country, ptype, measure, year])

    candidates = [t for t in TYPES if t not in ("WindPower", "Coal", "Hydro")]
    renewable = frozenset(["WindPower"] + rng.sample(candidates, len(TYPES) // 2 - 1))
    reference_path = root / "graphs" / "reference.nt"
    reference = load_graph(reference_path)
    for index, ptype in enumerate(TYPES):
        parent = vocab.RENEWABLE_ENERGY if ptype in renewable else NON_RENEWABLE_WD
        reference.insert(Triple(IRI(vocab.ENERGY + ptype), IRI(vocab.SUBCLASS_OF),
                                IRI(parent)))
        reference.insert(Triple(IRI(_label_iri(index, ptype)), IRI(vocab.RDFS_LABEL),
                                Literal(ptype)))
    save_graph(reference, reference_path)

    contracts = root / "contracts" / "contracts.yaml"
    text = contracts.read_text(encoding="utf-8")
    if _EXPIRED_FIXTURE not in text:
        raise RuntimeError("fixture contracts changed: expired-2019 entry not found")
    contracts.write_text(text.replace(_EXPIRED_FIXTURE, _EXPIRED_TSO), encoding="utf-8")

    # the fixture's own small TSO graph; the pipeline builds the scaled one
    (root / "graphs" / "tso.nt").unlink()
    return Corpus(root=root, countries=names, renewable=renewable, measures=measures)


def copy_workspace(corpus: Corpus, root) -> Corpus:
    """A copy of a corpus workspace that no pipeline or node has run in yet:
    inputs only, no pipeline output, no provenance logs."""
    shutil.copytree(corpus.root, root)
    return replace(corpus, root=Path(root))
