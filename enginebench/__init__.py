"""One seeded benchmark for the relational graph engine.

``python3 enginebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds its inputs from the seed, drives the engine through
its public API from a single closed-loop client, checks every result
against a plain-Python oracle, and prints one JSON result line.

* :mod:`enginebench.workloads` — the three workloads (why each exists and
  which layer it loads is written beside it) and their oracles;
* :mod:`enginebench.layers` — the traced run: timing probes around each
  layer's public functions, per-layer self time and counts;
* :mod:`enginebench.run` — the command: environment pinning, set-up and
  measurement loop, metrics and report.
* :mod:`enginebench.hostspeed` — the calibration kernel that scales every
  end-to-end time to one reference host speed.
"""
