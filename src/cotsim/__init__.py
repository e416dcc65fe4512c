"""Deterministic fault-injection simulator for a COTS FPGA+VPU co-processing payload."""

__version__ = "0.1.0"
