"""Quantify narrative and selection bias of news outlets.

Fits a Bayesian Poisson latent-position model to per-outlet article counts
by independence Metropolis-Hastings, derives a selection index and adjusted
engagement from the fits, and relates both to retweeter-audience communities
detected with Louvain.
"""

__version__ = "0.1.0"

from . import corpus, latent, metrics, network, synth  # noqa: F401
