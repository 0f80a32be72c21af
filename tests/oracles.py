"""Reference implementations that only tests use.

ctc_label_prob is the exact CTC forward sum that the decoder tests and
acceptance checks 02-03 compare the beam search against; tune_weights is
the one-call form of grid search plus weight selection;
reference_viterbi_align is the forced-alignment recursion that indexes a
float64 numpy row per cell, which aligner.viterbi_align must reproduce bit
for bit.
"""
from twopass.aligner import PronGraph
from twopass.core import MINUS_INF, AlignmentError, PosteriorMatrix, log_add
from twopass.fusion import grid_search, select_weights


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
