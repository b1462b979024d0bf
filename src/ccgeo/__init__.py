"""Numerical toolkit for Carnot-Caratheodory geometry of weighted
Hormander vector-field systems on half-space charts: balls, metrics,
boundary restriction, and scaling maps."""

__version__ = "0.1.0"
