"""Individual-tree forest inventory from airborne LiDAR and hyperspectral data."""

__version__ = "0.1.0"
