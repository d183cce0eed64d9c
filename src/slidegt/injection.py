"""Task-aware refinement of shared node embeddings.

Each task keeps a trainable bank of latent tokens.  Node embeddings query the
bank through cross-attention (tokens serve as both keys and values), and the
mixed-in signal passes through the usual residual + layer-norm + feed-forward
sandwich.  Because every node row attends over the same token bank, the
operation is strictly row-local: node i's output depends on node i's input
and the bank, nothing else.
"""

from __future__ import annotations

from . import tensor as T
from .attention import MultiHeadWeights, attend
from .errors import ConfigError
from .nn import FeedForward, LayerNorm, normal_param


class TokenBank:
    """Trainable latent tokens for one task (or shared across tasks)."""

    def __init__(self, rng, count, dim):
        if count < 1:
            raise ConfigError(f"token bank needs at least one token, got {count}")
        self.tokens = normal_param(rng, (count, dim))

    def parameters(self, prefix):
        return [(f"{prefix}.tokens", self.tokens)]


class InjectionBlock:
    """Cross-attention onto a token bank with residual + feed-forward refit."""

    def __init__(self, rng, dim, heads, scale_scores=True):
        self.attn = MultiHeadWeights(rng, dim, heads, scale_scores)
        self.ln_mix = LayerNorm(dim)
        self.ff = FeedForward(rng, dim, 2 * dim)
        self.ln_out = LayerNorm(dim)

    def __call__(self, h_shared, bank):
        mixed = attend(self.attn, h_shared, bank.tokens)
        z = self.ln_mix(T.add(h_shared, mixed))
        return self.ln_out(T.add(z, self.ff(z)))

    def parameters(self, prefix):
        return (self.attn.parameters(f"{prefix}.attn")
                + self.ln_mix.parameters(f"{prefix}.ln_mix")
                + self.ff.parameters(f"{prefix}.ff")
                + self.ln_out.parameters(f"{prefix}.ln_out"))
