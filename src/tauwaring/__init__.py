"""Exact Ramanujan tau computation with verifiable additive-representation
certificates over the integers and over Z/p."""

__version__ = "0.1.0"
