"""IDS-style data-space connector: framed messages, usage contracts,
provenance logging, node server and client."""
