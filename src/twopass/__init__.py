"""Two-pass decoding toolkit for CTC posterior streams.

First pass: prefix beam search over wordpiece posteriors with optional
shallow fusion of an external n-gram LM and subtraction of an internal-LM
estimate. Second pass: phoneme forced alignment of each hypothesis against
an acoustic posterior stream, combined log-linearly with the first-pass
scores to re-rank the N-best list.

The API is the modules themselves (core, decoder, aligner, fusion, ngram,
metrics, synth, cli); the package root re-exports nothing.
"""

__version__ = "0.1.0"
