"""Correctness tooling: dynamic race detection + whole-repo static analysis.

Two complementary layers:

* :mod:`repro.checker.shadow` -- a dynamic race detector.  Per-word
  shadow memory attached to every :class:`~repro.bdm.memory.GlobalArray`
  classifies same-superstep conflicts precisely (read-after-write,
  write-after-write, write-after-read) and reports them with full
  provenance: array name, owning processor, conflicting pids, phase
  label, and the exact element ranges involved.
* :mod:`repro.checker.engine` -- the static analysis engine that runs
  five whole-repo rule families over every file: ASYNC1xx (asyncio
  hygiene), RES2xx (resource lifetime: shm segments, pools, sockets),
  ERR3xx (error-boundary hygiene), COST4xx (BDM cost-model
  consistency) and OBS5xx (observability hygiene).  Selection by family
  or rule ID, JSON and SARIF 2.1.0 emitters, and a baseline file for
  grandfathered findings.  See docs/CHECKER.md for the full catalog.

This package re-exports nothing: the simulator imports only
:mod:`~repro.checker.shadow`, so ``import repro`` does not load the
static analyzer.  Its entry point is ``repro check`` on the command
line, or :func:`repro.checker.engine.run_check` and the engine's
``analyze_*`` functions for programmatic use.
"""
