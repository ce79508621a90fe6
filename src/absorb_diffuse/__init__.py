"""Absorbing-state discrete diffusion sequence modeling on verifiable planning tasks.

Subpackages:
    autodiff    reverse-mode automatic differentiation over numpy arrays
    model       transformer denoiser (bidirectional) and autoregressive baseline
    diffusion   forward corruption process, training losses, ELBO
    decoding    parallel easy-first decoding and left-to-right sampling
    tasks       synthetic task generators, verifiers, tokenization
    harness     experiment configs, training loop, evaluation, analysis, CLI
"""

__version__ = "0.1.0"
