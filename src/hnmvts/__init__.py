"""Multivariate time-series forecasting with hypernetwork-generated final layers.

A channel-embedding hypernetwork produces the per-channel weights of a base
forecasting model's last linear layer; after training the generated weights
are baked into the base model so inference pays nothing for the mechanism (a
baked DLinear serves RevIN plus its two final layers folded into one product).
"""

__version__ = "0.1.0"
