"""Airborne LiDAR sense-and-detect toolkit.

Gather-GEMM sparse convolution engines, pillar feature encoding,
altitude-stratified anchors, a digital-twin scan simulator with
physics-informed augmentation, tracking-by-detection, and the evaluation
metric stack, all verifiable against brute-force oracles at desk scale.
"""

__version__ = "0.1.0"
