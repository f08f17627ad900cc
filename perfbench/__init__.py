"""Host-time benchmark of the ``repro`` simulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in a fresh interpreter and prints its metrics; the
workloads live in :mod:`perfbench.workloads`, the measurement harness in
:mod:`perfbench.harness`, the host-speed scaling of its times in
:mod:`perfbench.hostspeed` and the traced per-layer pass in
:mod:`perfbench.layers`.  ``python3 perfbench/selftest.py`` checks the
benchmark itself on smoke-sized inputs.
"""
