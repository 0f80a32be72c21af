"""Reference implementations that only tests use.

ctc_label_prob is the exact CTC forward sum that the decoder tests and
acceptance checks 02-03 compare the beam search against; tune_weights is
the one-call form of grid search plus weight selection;
reference_viterbi_align is the forced-alignment recursion that indexes a
float64 numpy row per cell, which aligner.viterbi_align must reproduce bit
for bit; reference_am_score is one such alignment per hypothesis, whose
scores and exceptions aligner.AmScorer must reproduce for a whole list
and for a run of lists scored in chunks;
reference_prefix_beam_search is the scalar per-(prefix, symbol)
beam search whose tokens and score bits decoder.prefix_beam_search must
reproduce. log_add is the scalar log-sum rule those oracles use, which
core.log_add_array maps over arrays. random_arpa_lm is a seeded sparse
backoff model read through load_arpa, unlike train_add_one's, which has
every n-gram's backoff and no gaps.
"""
import math
import os
import tempfile

from twopass.aligner import PronGraph, expand_pronunciations
from twopass.core import (
    MINUS_INF,
    AlignmentError,
    Hypothesis,
    NBestList,
    OOVError,
    PosteriorMatrix,
    ScoreBundle,
    detokenize,
)
from twopass.fusion import grid_search, select_weights
from twopass.ngram import SENTENCE_END, SENTENCE_START, load_arpa


def log_add(a: float, b: float) -> float:
    """Stable log(exp(a) + exp(b)) for scalars, tolerating -inf."""
    if a == MINUS_INF:
        return b
    if b == MINUS_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def ctc_label_prob(posteriors: PosteriorMatrix, labels) -> float:
    """Exact log P(labels | posteriors): forward sum over all alignments.

    labels are non-blank token ids; raises AlignmentError when the sequence
    (plus blanks forced between repeats) cannot fit in the frame count.
    """
    labels = tuple(labels)
    t_frames = posteriors.frames
    n_symbols = posteriors.symbols
    for lab in labels:
        if lab == 0:
            raise ValueError("labels must not contain blank")
        if not (0 < lab < n_symbols):
            raise ValueError("label id %d out of range" % lab)
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    if len(labels) + repeats > t_frames:
        raise AlignmentError("sequence too long to align")
    values = posteriors.values
    if not labels:
        return float(values[:, 0].astype(float).sum())
    # Expanded state sequence: blank, l1, blank, l2, ..., blank.
    expanded = [0]
    for lab in labels:
        expanded.extend((lab, 0))
    n_states = len(expanded)
    row = values[0].astype(float).tolist()
    alpha = [MINUS_INF] * n_states
    alpha[0] = row[0]
    alpha[1] = row[expanded[1]]
    for t in range(1, t_frames):
        row = values[t].astype(float).tolist()
        nxt = [MINUS_INF] * n_states
        for s in range(n_states):
            best = alpha[s]
            if s >= 1:
                best = log_add(best, alpha[s - 1])
            if s >= 2 and expanded[s] != 0 and expanded[s] != expanded[s - 2]:
                best = log_add(best, alpha[s - 2])
            if best != MINUS_INF:
                nxt[s] = best + row[expanded[s]]
        alpha = nxt
    return log_add(alpha[-1], alpha[-2])


def tune_weights(dev, grid, vocab):
    """(best weights, best corpus WER) of grid_search, by select_weights."""
    return select_weights(grid_search(dev, grid, vocab))


def reference_viterbi_align(posteriors: PosteriorMatrix, graph: PronGraph,
                            log_prior_shift=None) -> tuple[float, tuple[int, ...]]:
    """(log-score, per-frame phoneme ids) of the best path through graph.

    Reads each emission as a numpy float64 scalar, row[phoneme_ids[s]], in
    the same addition order as viterbi_align; same exceptions.
    """
    t_frames = posteriors.frames
    n_states = len(graph.phoneme_ids)
    for ph in graph.phoneme_ids:
        if not (0 <= ph < posteriors.symbols):
            raise ValueError("phoneme id %d outside posterior matrix" % ph)
    if t_frames < graph.min_path_states():
        raise AlignmentError("utterance too short to align")

    rows = posteriors.values.astype(float)
    if log_prior_shift is not None:
        shift = list(log_prior_shift)
        if len(shift) != posteriors.symbols:
            raise ValueError("log_prior_shift length mismatch")
        rows = rows - [shift]
    delta = [MINUS_INF] * n_states
    row0 = rows[0]
    for s, charge in graph.entries:
        cand = charge + row0[graph.phoneme_ids[s]]
        if cand > delta[s]:
            delta[s] = cand
    back: list[list[int]] = []
    for t in range(1, t_frames):
        row = rows[t]
        nxt = [MINUS_INF] * n_states
        bp = [-1] * n_states
        for s in range(n_states):
            best = delta[s]  # self-loop
            best_p = s
            for p, charge in graph.preds[s]:
                cand = delta[p] + charge
                if cand > best:
                    best = cand
                    best_p = p
            if best != MINUS_INF:
                nxt[s] = best + row[graph.phoneme_ids[s]]
                bp[s] = best_p
        delta = nxt
        back.append(bp)

    best_final = None
    best_score = MINUS_INF
    for s in sorted(graph.finals):
        if delta[s] > best_score:
            best_score = delta[s]
            best_final = s
    if best_final is None or best_score == MINUS_INF:
        raise AlignmentError("utterance too short to align")
    states = [best_final]
    for bp in reversed(back):
        states.append(bp[states[-1]])
    states.reverse()
    alignment = tuple(graph.phoneme_ids[s] for s in states)
    return float(best_score), alignment


def reference_am_score(hypothesis, posteriors, lexicon, vocab, options) -> float:
    """Acoustic log-score of one hypothesis: detokenize, expand its own
    pronunciation graph and align it with reference_viterbi_align. A
    dangling, empty, OOV or too-short hypothesis raises under the strict
    policy and scores frames * floor_log_prob under floor."""
    try:
        words = detokenize(hypothesis.tokens, vocab)
        if not words:
            raise AlignmentError("empty hypothesis")
        graph = expand_pronunciations(
            words, lexicon, allow_silence=options.allow_silence,
            silence_phoneme=options.silence_phoneme)
        return reference_viterbi_align(
            posteriors, graph, log_prior_shift=options.phoneme_log_priors)[0]
    except (OOVError, AlignmentError):
        if options.oov_policy == "floor":
            return posteriors.frames * options.floor_log_prob
        raise


def reference_prefix_beam_search(posteriors, config, utterance_id="utt"):
    """Frozen per-(prefix, symbol) loop the array decoder must reproduce."""
    syms = posteriors.vocab.symbols
    lm, ilm = config.lm, config.ilm
    w_lm = config.weights.lambda_lm
    w_ilm = config.weights.lambda_ilm
    n_symbols = len(syms)

    def fused(entry):
        return log_add(entry[0], entry[1]) + w_lm * entry[2] - w_ilm * entry[3]

    beams = {(): [0.0, MINUS_INF, 0.0, 0.0]}
    for t in range(posteriors.frames):
        row = posteriors.values[t].astype(float).tolist()
        nxt = {}
        for prefix, (p_b, p_nb, s_lm, s_ilm) in beams.items():
            total = log_add(p_b, p_nb)
            entry = nxt.get(prefix)
            if entry is None:
                entry = nxt[prefix] = [MINUS_INF, MINUS_INF, s_lm, s_ilm]
            entry[0] = log_add(entry[0], total + row[0])
            last = prefix[-1] if prefix else -1
            for c in range(1, n_symbols):
                if c == last:
                    entry[1] = log_add(entry[1], p_nb + row[c])
                    contrib = p_b + row[c]
                else:
                    contrib = total + row[c]
                if contrib == MINUS_INF:
                    continue
                ext = prefix + (c,)
                child = nxt.get(ext)
                if child is None:
                    c_lm = s_lm
                    c_ilm = s_ilm
                    if lm is not None or ilm is not None:
                        ctx = (SENTENCE_START,) + tuple(syms[i] for i in prefix)
                        if lm is not None:
                            c_lm = s_lm + lm.conditional(ctx, syms[c])
                        if ilm is not None:
                            c_ilm = s_ilm + ilm.conditional(ctx, syms[c])
                    child = nxt[ext] = [MINUS_INF, MINUS_INF, c_lm, c_ilm]
                child[1] = log_add(child[1], contrib)
        if len(nxt) > config.beam_width:
            kept = sorted(nxt.items(), key=lambda kv: (-fused(kv[1]), kv[0]))
            beams = dict(kept[:config.beam_width])
        else:
            beams = nxt

    ranked = sorted(beams.items(), key=lambda kv: (-fused(kv[1]), kv[0]))
    hyps = []
    for prefix, (p_b, p_nb, s_lm, s_ilm) in ranked[:config.n_best]:
        hyps.append(Hypothesis(
            prefix, ScoreBundle(e2e=log_add(p_b, p_nb), lm=s_lm, ilm=s_ilm)))
    return NBestList(utterance_id, tuple(hyps))


def random_arpa_lm(rng, tokens, order):
    """A seeded sparse backoff model over tokens plus <s> and </s>, written
    as ARPA text and read back with load_arpa.

    About half of the n-grams one order down are contexts with explicit
    children, each with about half of the vocabulary; an n-gram below the
    top order has a backoff weight about two times in three, and a weight
    can exceed one. Log10 values are drawn in [-3, 0), except -0.0 for the
    first token's unigram and for the first child of each context that
    starts with that token. A child outside the vocabulary, which
    load_arpa accepts, is added now and then.
    """
    vocab = sorted(set(tokens) | {SENTENCE_START, SENTENCE_END})

    def value():
        return repr(float(rng.uniform(-3.0, 0.0)))

    def backoff(k):
        if k == order or rng.random() < 1 / 3:
            return ""
        return "\t" + repr(float(rng.uniform(-2.0, 0.5)))

    sections = [[("-0.0" if i == 0 else value()) + "\t" + tok + backoff(1)
                 for i, tok in enumerate(vocab)]]
    contexts = [(tok,) for tok in vocab]
    for k in range(2, order + 1):
        lines, grams = [], []
        for ctx in contexts:
            if rng.random() < 0.5:
                continue
            children = [tok for tok in vocab if rng.random() < 0.5]
            if rng.random() < 0.2:
                children.append("oov-" + ctx[-1])
            for j, tok in enumerate(children):
                gram = ctx + (tok,)
                logp = "-0.0" if j == 0 and ctx[0] == vocab[0] else value()
                lines.append(logp + "\t" + " ".join(gram) + backoff(k))
                grams.append(gram)
        sections.append(lines)
        contexts = grams
    text = ["\\data\\"] + ["ngram %d=%d" % (k, len(lines))
                              for k, lines in enumerate(sections, start=1)]
    for k, lines in enumerate(sections, start=1):
        text += ["", "\\%d-grams:" % k] + lines
    text += ["", "\\end\\", ""]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sparse.arpa")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(text))
        return load_arpa(path)
