"""Collaborative filtering with outer-product interaction maps and a small
stride-2 convolution tower, trained with pairwise ranking loss.

Everything is plain float64 numpy with hand-derived backward passes; no
autodiff framework is involved. The `gradcheck` module provides the
finite-difference oracle that validates every analytic gradient.
"""

__version__ = "0.1.0"
