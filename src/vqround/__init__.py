"""Adaptive-rounding weight quantization with codebook reparameterization.

The pipeline: per-row affine quantization, a curvature-compensated
rounding-matrix initialization, K-means reparameterization of the
latent rounding matrix into a small trainable codebook, blockwise or
end-to-end codebook optimization, and an analysis suite that checks the
transform's contraction/saturation properties and compares worst-case
errors against low-rank and Kronecker baselines.
"""

__version__ = "0.1.0"
