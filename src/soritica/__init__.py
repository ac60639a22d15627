"""Exact external-number arithmetic and a multi-semantics Sorites workbench."""

__version__ = "0.1.0"
