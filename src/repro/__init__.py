"""DCWS — Distributed Cooperative Web Server.

A complete Python reproduction of *"Scalable Web Server Design for
Distributed Data Management"* (Scott M. Baker & Bongki Moon, Univ. of
Arizona TR 98-8 / ICDE 1999): application-level web-server load balancing
by dynamic hyperlink rewriting.

Top-level map (see README.md and DESIGN.md):

- :mod:`repro.core`      — LDG, GLT, Algorithm 1, migration policy,
  ``~migrate`` naming, consistency timers (the paper's contribution);
- :mod:`repro.html`      — HTML tokenizer/parser/rewriter/serializer;
- :mod:`repro.http`      — HTTP messages, URLs, piggyback headers;
- :mod:`repro.server`    — the transport-free engine + the real
  event-loop socket server + document stores;
- :mod:`repro.sim`       — the discrete-event cluster simulator;
- :mod:`repro.datasets`  — the four evaluation corpora (MAPUG, SBLog,
  LOD, Sequoia) plus a synthetic generator;
- :mod:`repro.client`    — the Algorithm 2 hyperlink-walking benchmark;
- :mod:`repro.baselines` — round-robin DNS and TCP-router comparators;
- :mod:`repro.bench`     — drivers regenerating every table and figure.

Quick use::

    from repro.datasets import build_lod
    from repro.sim.cluster import ClusterConfig, SimCluster

    result = SimCluster(build_lod(), ClusterConfig(servers=8,
                                                   clients=192)).run()
    print(result.steady_cps())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
