"""Word error rate scoring, oracle selection, relative reduction, and
perplexity-bucketed error analysis.

WER uses unit-cost Levenshtein alignment; the backtrace prefers substitution
over deletion over insertion when costs tie. Corpus WER aggregates error
counts before dividing. Words are compared only in wer, after normalize
(lowercase plus whitespace split, nothing else) on both sides.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import NBestList, Vocabulary, detokenize, tokenize
from .ngram import NGramModel


def normalize(text: str) -> tuple[str, ...]:
    return tuple(text.lower().split())


@dataclass(frozen=True)
class ErrorCounts:
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    ref_length: int = 0

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        if self.ref_length == 0:
            raise ValueError("WER undefined for empty reference total")
        return self.errors / self.ref_length

    def __add__(self, other: "ErrorCounts") -> "ErrorCounts":
        return ErrorCounts(
            self.substitutions + other.substitutions,
            self.deletions + other.deletions,
            self.insertions + other.insertions,
            self.ref_length + other.ref_length)


def wer(reference, hypothesis) -> ErrorCounts:
    """Levenshtein error counts of hypothesis words against reference words."""
    ref = normalize(" ".join(reference))
    hyp = normalize(" ".join(hypothesis))
    if not ref:
        raise ValueError("empty reference")
    r, h = len(ref), len(hyp)
    dp = [[0] * (h + 1) for _ in range(r + 1)]
    for i in range(1, r + 1):
        dp[i][0] = i
    for j in range(1, h + 1):
        dp[0][j] = j
    for i in range(1, r + 1):
        row = dp[i]
        prev = dp[i - 1]
        ri = ref[i - 1]
        for j in range(1, h + 1):
            sub = prev[j - 1] + (0 if ri == hyp[j - 1] else 1)
            dele = prev[j] + 1
            ins = row[j - 1] + 1
            row[j] = sub if sub <= dele else dele
            if ins < row[j]:
                row[j] = ins
    subs = dels = inss = 0
    i, j = r, h
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            if dp[i - 1][j - 1] + cost == dp[i][j]:
                subs += cost
                i -= 1
                j -= 1
                continue
        if i > 0 and dp[i - 1][j] + 1 == dp[i][j]:
            dels += 1
            i -= 1
            continue
        inss += 1
        j -= 1
    return ErrorCounts(subs, dels, inss, r)


def corpus_counts(pairs) -> ErrorCounts:
    """Aggregate error counts over (reference, hypothesis) pairs."""
    total = ErrorCounts()
    for ref, hyp in pairs:
        total = total + wer(ref, hyp)
    return total


def oracle_wer(nbest: NBestList, reference, vocab: Vocabulary) -> ErrorCounts:
    """Error counts of the minimum-error hypothesis in the list.

    Ties go to the higher-ranked hypothesis. Hypotheses that do not
    detokenize are skipped; ValueError if none does.
    """
    best = None
    for hyp in nbest.hypotheses:
        try:
            words = detokenize(hyp.tokens, vocab)
        except ValueError:
            continue
        counts = wer(reference, words)
        if best is None or counts.errors < best.errors:
            best = counts
    if best is None:
        raise ValueError("no hypothesis of %s detokenizes" % nbest.utterance_id)
    return best


def werr(baseline_wer: float, new_wer: float) -> float:
    """Relative WER reduction (baseline - new) / baseline, as a fraction."""
    if baseline_wer <= 0.0:
        raise ValueError("werr requires a positive baseline WER")
    return (baseline_wer - new_wer) / baseline_wer


@dataclass(frozen=True)
class BucketStats:
    bucket: int
    size: int
    mean_ppl: float
    baseline_wer: float
    fused_wer: float
    werr: float


def ppl_buckets(corpus, bucket_lm: NGramModel, k: int,
                vocab: Vocabulary) -> list[BucketStats]:
    """Bucket utterances by reference perplexity and compare systems.

    corpus is a sequence of (reference words, baseline hyp words, fused hyp
    words) triples. References, as written, are re-tokenized into pieces and
    scored with bucket_lm; utterances are sorted by perplexity ascending and
    split into k contiguous buckets, the first (n mod k) buckets taking one
    extra item. A bucket with zero baseline WER reports a WERR of 0.0.
    OverflowError if a perplexity, or a bucket's mean of them, overflows.
    """
    corpus = list(corpus)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(corpus) < k:
        raise ValueError("fewer utterances than buckets")
    scored = []
    for ref, base, fused in corpus:
        pieces = [vocab.symbol(t) for t in tokenize(ref, vocab)]
        scored.append((bucket_lm.perplexity(pieces), ref, base, fused))
    scored.sort(key=lambda item: item[0])
    n = len(scored)
    base_size = n // k
    extra = n % k
    out = []
    pos = 0
    for b in range(k):
        size = base_size + (1 if b < extra else 0)
        chunk = scored[pos:pos + size]
        pos += size
        mean_ppl = sum(item[0] for item in chunk) / size
        if mean_ppl == math.inf:
            raise OverflowError("mean perplexity of bucket %d overflows float64" % b)
        base_counts = corpus_counts((ref, hyp) for _, ref, hyp, _ in chunk)
        fused_counts = corpus_counts((ref, hyp) for _, ref, _, hyp in chunk)
        b_wer = base_counts.wer
        f_wer = fused_counts.wer
        reduction = werr(b_wer, f_wer) if b_wer > 0.0 else 0.0
        out.append(BucketStats(b, size, mean_ppl, b_wer, f_wer, reduction))
    return out
