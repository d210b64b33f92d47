"""Multivariate time-series forecasting with hypernetwork-generated final layers.

A channel-embedding hypernetwork produces the per-channel weights of a base
forecasting model's last linear layer; after training the generated weights
are baked into the base model so inference pays nothing for the mechanism (a
baked DLinear folds its two final layers into one W and serves the centred
product W (x - mean) + mean, through which RevIN's scale cancels).
"""

__version__ = "0.1.0"
