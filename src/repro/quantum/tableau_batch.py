"""The stabilizer simulator under its batched name.

Serial and batched execution are one class,
:class:`repro.quantum.stabilizer.StabilizerSimulator`.
"""

from repro.quantum.stabilizer import StabilizerSimulator

# Kept because the benchmark's layer wrappers (perfbench/spans.py) import it.
BatchedStabilizerSimulator = StabilizerSimulator
