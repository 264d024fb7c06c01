"""Filter bank fusion frames.

Oversampled filter banks whose channels act as orthogonal projections,
characterized through polyphase and Zak matrices, composed into multi-level
transforms, and cross-checked against a dense brute-force oracle.
"""

__version__ = "0.1.0"
