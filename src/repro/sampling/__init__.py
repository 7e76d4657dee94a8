"""Dataset-sampling substrate (the Z-order competitor's machinery)."""

from repro.sampling.morton import morton_codes, interleave_bits
from repro.sampling.zorder_sample import zorder_sample, sample_size_for_eps
from repro.sampling.random_sample import random_sample
from repro.sampling.coreset import Coreset, grid_coreset, coreset_for_delta

__all__ = [
    "morton_codes",
    "interleave_bits",
    "zorder_sample",
    "sample_size_for_eps",
    "random_sample",
    "Coreset",
    "grid_coreset",
    "coreset_for_delta",
]
