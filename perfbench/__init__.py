"""Seeded end-to-end and per-layer benchmark for iccamon (see README.md)."""
