"""Volunteer-network behavior analytics.

Two-part pipeline over sharing-platform transaction logs: (1) cluster key
users' donors-ratio time series into behavioral archetypes, and (2)
predict from three months of early activity whether a user's giving trend
will stay stable or change, with Shapley-value explanations.
"""

__version__ = "0.1.0"
