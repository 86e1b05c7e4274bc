"""IRI constants for the shared energy-domain vocabulary.

The ``energy:`` namespace is ``http://w3id.org/energy/``.  CIM-derived terms
live under a project-local namespace because the upstream model is a UML
taxonomy, not a set of resolvable IRIs.
"""

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"
PROV = "http://www.w3.org/ns/prov#"

ENERGY = "http://w3id.org/energy/"
CIM = "http://w3id.org/energy/cim/"
WD = "http://www.wikidata.org/entity/"
WDT = "http://www.wikidata.org/prop/direct/"

RDF_TYPE = RDF + "type"
RDFS_LABEL = RDFS + "label"
OWL_SAMEAS = OWL + "sameAs"

XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DATETIME = XSD + "dateTime"
RDF_LANGSTRING = RDF + "langString"

# energy: terms used by the generation-capacity data and queries
GENERATION_CAPACITY = ENERGY + "GenerationCapacity"
PRODUCTION_TYPE = ENERGY + "productionType"
COUNTRY = ENERGY + "country"
MEASURE = ENERGY + "measure"
AGG_YEAR = ENERGY + "agg_year"

# CIM-derived classes
CIM_POWER_SYSTEM_RESOURCE = CIM + "PowerSystemResource"
CIM_ACTIVE_POWER = CIM + "ActivePower"
CIM_RESERVE_REQ = CIM + "ReserveReq"
CIM_AGREEMENT = CIM + "Agreement"
CIM_BALANCE_SUPPLIER = CIM + "BalanceSupplier"

# external reference vocabulary
SUBCLASS_OF = WDT + "P279"
RENEWABLE_ENERGY = WD + "Q12705"

WIND_POWER = ENERGY + "WindPower"

PREFIXES = {
    "rdf": RDF,
    "rdfs": RDFS,
    "owl": OWL,
    "xsd": XSD,
    "prov": PROV,
    "energy": ENERGY,
    "cim": CIM,
    "wd": WD,
    "wdt": WDT,
}

