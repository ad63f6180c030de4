"""Desk-scale density-matrix toolkit for spin-ensemble oracle search,
multiple-quantum spectroscopy, and operator-splitting verification."""
