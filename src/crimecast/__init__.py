"""Quarterly crime-trend forecasting with news-derived event signals."""

__version__ = "0.1.0"
