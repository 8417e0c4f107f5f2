"""The repository's benchmark: three workloads, measured from outside.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads, the metrics and the
layer map; nothing here is imported by the library under ``src/``.
"""
