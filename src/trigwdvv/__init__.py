"""Trigonometric BC_n prepotentials and numerical verification of their WDVV structure."""

__version__ = "0.2.0"
