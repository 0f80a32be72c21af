"""Command-line front end: synth | decode | rescore | tune | score | buckets.

Exit codes: 0 success, 1 usage error, 2 data error. Results go to stdout or
the requested output files; the effective configuration and progress notes
are logged to stderr. An optional "key = value" config file supplies flag
defaults; flags given on the command line take precedence. Utterance-level
parallelism is available through --jobs (default 1); outputs are
order-stable regardless of the worker count.
"""
from __future__ import annotations

import argparse
import logging
import multiprocessing
import os
import sys

from . import core, fusion, metrics, synth
from .aligner import AlignOptions
from .decoder import BeamConfig, prefix_beam_search
from .core import FormatError, FusionWeights, ToolkitError
from .ngram import load_arpa, train_add_one, write_arpa

log = logging.getLogger("twopass")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError on bad usage; keeps its actions by dest for
    _apply_config."""

    def __init__(self, *args, **kwargs):
        self.actions_by_dest: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.actions_by_dest[action.dest] = action
        return action

    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError("%s: %s" % (self.prog, message))


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated floats") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _build_parsers() -> tuple[_Parser, dict[str, _Parser]]:
    top = _Parser(prog="twopass", description=__doc__)
    sub = top.add_subparsers(dest="command", metavar="command")
    parsers: dict[str, _Parser] = {}

    p = parsers["synth"] = sub.add_parser(
        "synth", help="generate a synthetic corpus with posterior matrices")
    p.add_argument("--config", help="key = value defaults file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--vocab-size", type=int, default=40)
    p.add_argument("--phonemes", type=int, default=12)
    p.add_argument("--zipf", type=float, default=1.0)
    p.add_argument("--train-utts", type=int, default=200)
    p.add_argument("--dev-utts", type=int, default=50)
    p.add_argument("--test-utts", type=int, default=100)
    p.add_argument("--min-len", type=int, default=2)
    p.add_argument("--max-len", type=int, default=5)
    p.add_argument("--frames-min", type=int, default=2)
    p.add_argument("--frames-max", type=int, default=3)
    p.add_argument("--blank-prob", type=float, default=0.3)
    p.add_argument("--silence-prob", type=float, default=0.3)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--rare-quantile", type=float, default=0.2)
    p.add_argument("--pron-min", type=int, default=2)
    p.add_argument("--pron-max", type=int, default=4)
    p.add_argument("--second-pron-prob", type=float, default=0.3)
    p.add_argument("--confusion-lo", type=float, default=0.5)
    p.add_argument("--confusion-hi", type=float, default=0.95)
    p.add_argument("--ngram-order", type=int, default=2)

    p = parsers["decode"] = sub.add_parser(
        "decode", help="first-pass CTC prefix beam search")
    p.add_argument("--config")
    p.add_argument("--posteriors", help="single FPM1 file")
    p.add_argument("--utt-id", help="utterance id for --posteriors (default: file stem)")
    p.add_argument("--list", dest="list_file", help="utt_id TAB fpm-path manifest")
    p.add_argument("--vocab", required=True)
    p.add_argument("--beam", type=int, default=8)
    p.add_argument("--nbest", type=int, default=None,
                   help="hypotheses to keep (default min(10, beam))")
    p.add_argument("--lm", help="external LM in ARPA format")
    p.add_argument("--ilm", help="internal LM estimate in ARPA format")
    p.add_argument("--lambda-lm", type=float, default=0.0)
    p.add_argument("--lambda-ilm", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = parsers["rescore"] = sub.add_parser(
        "rescore", help="second-pass alignment scoring and re-ranking")
    p.add_argument("--config")
    p.add_argument("--nbest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--phoneme-posteriors", help="single FPM1 file")
    p.add_argument("--list", dest="list_file", help="utt_id TAB fpm-path manifest")
    p.add_argument("--phoneme-vocab", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--lambda-am", type=float, default=0.0)
    p.add_argument("--lambda-lm", type=float, default=0.0)
    p.add_argument("--lambda-ilm", type=float, default=0.0)
    p.add_argument("--word-lm", help="ARPA word LM replacing the lm component")
    p.add_argument("--allow-silence", action="store_true")
    p.add_argument("--silence", default=synth.SILENCE,
                   help="silence phoneme symbol (with --allow-silence)")
    p.add_argument("--oov", choices=("strict", "floor"), default="strict")
    p.add_argument("--floor-logp", type=float,
                   default=AlignOptions().floor_log_prob)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = parsers["tune"] = sub.add_parser(
        "tune", help="grid-search fusion weights on a scored dev N-best")
    p.add_argument("--config")
    p.add_argument("--nbest", required=True, help="dev N-best with am scores")
    p.add_argument("--ref", required=True, help="dev reference transcripts")
    p.add_argument("--vocab", required=True)
    p.add_argument("--grid-am", type=_float_list, default=None)
    p.add_argument("--grid-lm", type=_float_list, default=None)
    p.add_argument("--grid-ilm", type=_float_list, default=None)
    p.add_argument("--report", help="per-point TSV report path")

    p = parsers["score"] = sub.add_parser(
        "score", help="corpus WER of hypotheses against references")
    p.add_argument("--config")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", help="hypothesis transcript TSV")
    p.add_argument("--nbest", help="N-best file; top-1 scored, oracle printed")
    p.add_argument("--vocab", help="wordpiece vocabulary (with --nbest)")
    p.add_argument("--report", help="per-utterance TSV report path")

    p = parsers["buckets"] = sub.add_parser(
        "buckets", help="perplexity-bucketed WER comparison")
    p.add_argument("--config")
    p.add_argument("--ref", required=True)
    p.add_argument("--baseline-nbest", required=True)
    p.add_argument("--fused-nbest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--lm", required=True, help="bucketing LM in ARPA format")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--report", required=True)
    return top, parsers


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in core.read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError("%s: line %d: expected key = value" % (path, lineno))
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config(parser: _Parser, path: str) -> None:
    values = _read_config_file(path)
    coerced = {}
    for key, raw in values.items():
        action = parser.actions_by_dest.get(key)
        if action is None:
            raise _UsageError("unknown config key: %s" % key)
        if action.nargs == 0:
            if raw.lower() not in ("true", "false", "0", "1"):
                raise _UsageError("config key %s expects true/false" % key)
            coerced[key] = raw.lower() in ("true", "1")
        elif action.type is not None:
            try:
                coerced[key] = action.type(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise _UsageError("config key %s: %s" % (key, exc)) from None
        else:
            coerced[key] = raw
    parser.set_defaults(**coerced)


def _log_effective(args: argparse.Namespace) -> None:
    pairs = sorted(
        (k, v) for k, v in vars(args).items() if k not in ("command",))
    log.info("effective config: %s",
             " ".join("%s=%s" % (k, v) for k, v in pairs))


# --- synth ---------------------------------------------------------------

def _cmd_synth(args) -> int:
    if args.seed is None:
        raise _UsageError("synth: --seed is required (flag or config)")
    config = synth.SynthConfig(
        seed=args.seed, vocab_size=args.vocab_size, phoneme_count=args.phonemes,
        zipf_exponent=args.zipf, train_utts=args.train_utts,
        dev_utts=args.dev_utts, test_utts=args.test_utts,
        len_range=(args.min_len, args.max_len),
        frames_per_symbol=(args.frames_min, args.frames_max),
        blank_prob=args.blank_prob, silence_prob=args.silence_prob,
        alpha=args.alpha, delta=args.delta, rare_quantile=args.rare_quantile,
        pron_len_range=(args.pron_min, args.pron_max),
        second_pron_prob=args.second_pron_prob,
        confusion_share=(args.confusion_lo, args.confusion_hi),
        ngram_order=args.ngram_order)
    corpus = synth.gen_corpus(config)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    post_dir = os.path.join(out, "posteriors")
    os.makedirs(post_dir, exist_ok=True)
    for split in ("train", "dev", "test"):
        core.write_transcripts(corpus.split(split), os.path.join(out, "%s.tsv" % split))
    core.write_lines(os.path.join(out, "lexicon.tsv"), corpus.lexicon_lines)
    core.save_vocabulary(corpus.wordpiece_vocab, os.path.join(out, "wordpieces.txt"))
    core.save_vocabulary(corpus.phoneme_vocab, os.path.join(out, "phonemes.txt"))
    if corpus.train:
        piece_sents = [
            [core.WORD_BOUNDARY + w for w in words] for _, words in corpus.train]
        piece_vocab = [s for s in corpus.wordpiece_vocab.symbols if s != core.BLANK]
        write_arpa(
            train_add_one(piece_sents, config.ngram_order, vocabulary=piece_vocab),
            os.path.join(out, "wordpiece_lm.arpa"))
        word_sents = [list(words) for _, words in corpus.train]
        word_vocab = [w[len(core.WORD_BOUNDARY):] for w in piece_vocab]
        write_arpa(
            train_add_one(word_sents, config.ngram_order, vocabulary=word_vocab),
            os.path.join(out, "word_lm.arpa"))
    else:
        log.info("no training utterances; skipping LM files")
    for split in ("dev", "test"):
        utts = corpus.split(split)
        for mode, tag in (("e2e", "e2e"), ("phoneme", "phoneme")):
            entries = []
            for index, (utt, words) in enumerate(utts):
                matrix = synth.gen_posteriors(
                    words, config, corpus, mode, split, index)
                path = os.path.join(post_dir, "%s.%s.fpm" % (utt, tag))
                core.write_posteriors(matrix, path)
                entries.append((utt, path))
            core.write_manifest(
                entries, os.path.join(out, "%s_%s.list" % (split, tag)))
    log.info("synth wrote %d train / %d dev / %d test utterances to %s",
             len(corpus.train), len(corpus.dev), len(corpus.test), out)
    return 0


# --- decode --------------------------------------------------------------

_WORKER_STATE: dict = {}


def _install_state(state: dict) -> None:
    _WORKER_STATE.clear()
    _WORKER_STATE.update(state)


def _decode_task(task):
    utt, path = task
    matrix = core.load_posteriors(path, _WORKER_STATE["vocab"])
    return prefix_beam_search(matrix, _WORKER_STATE["config"], utterance_id=utt)


def _run_pool(tasks, worker, state, jobs):
    """worker over tasks in order, with state installed in every process."""
    if jobs <= 1:
        _install_state(state)
        return [worker(task) for task in tasks]
    with multiprocessing.Pool(jobs, initializer=_install_state, initargs=(state,)) as pool:
        return list(pool.imap(worker, tasks, chunksize=8))


def _input_tasks(args) -> list[tuple[str, str]]:
    if (args.posteriors is None) == (args.list_file is None):
        raise _UsageError("give exactly one of --posteriors or --list")
    if args.posteriors is not None:
        utt = args.utt_id
        if utt is None:
            utt = os.path.splitext(os.path.basename(args.posteriors))[0]
        return [(utt, args.posteriors)]
    return core.load_manifest(args.list_file)


def _cmd_decode(args) -> int:
    vocab = core.load_vocabulary(args.vocab)
    lm = load_arpa(args.lm) if args.lm else None
    ilm = load_arpa(args.ilm) if args.ilm else None
    config = BeamConfig(
        beam_width=args.beam, n_best=args.nbest,
        weights=FusionWeights(0.0, args.lambda_lm, args.lambda_ilm),
        lm=lm, ilm=ilm)
    tasks = _input_tasks(args)
    results = _run_pool(
        tasks, _decode_task, {"vocab": vocab, "config": config}, args.jobs)
    core.write_nbest(results, vocab, args.out)
    log.info("decoded %d utterances -> %s", len(results), args.out)
    return 0


# --- rescore -------------------------------------------------------------

def _rescore_task(task):
    nbest, path = task
    matrix = core.load_posteriors(path, _WORKER_STATE["ph_vocab"])
    return fusion.rescore_nbest(
        nbest, matrix, _WORKER_STATE["lexicon"], _WORKER_STATE["vocab"],
        _WORKER_STATE["weights"], _WORKER_STATE["options"])


def _cmd_rescore(args) -> int:
    vocab = core.load_vocabulary(args.vocab)
    ph_vocab = core.load_vocabulary(args.phoneme_vocab)
    lexicon = core.load_lexicon(args.lexicon, ph_vocab)
    nbest_lists = core.load_nbest(args.nbest, vocab)
    if (args.phoneme_posteriors is None) == (args.list_file is None):
        raise _UsageError("give exactly one of --phoneme-posteriors or --list")
    if args.phoneme_posteriors is not None:
        if len(nbest_lists) != 1:
            raise _UsageError(
                "--phoneme-posteriors handles a single utterance; use --list")
        paths = {nbest_lists[0].utterance_id: args.phoneme_posteriors}
    else:
        paths = dict(core.load_manifest(args.list_file))
    silence_id = None
    if args.allow_silence:
        silence_id = ph_vocab.id_of(args.silence)
    options = AlignOptions(
        allow_silence=args.allow_silence, silence_phoneme=silence_id,
        oov_policy=args.oov, floor_log_prob=args.floor_logp)
    weights = FusionWeights(args.lambda_am, args.lambda_lm, args.lambda_ilm)
    if args.word_lm:
        word_lm = load_arpa(args.word_lm)
        nbest_lists = [
            fusion.score_with_word_lm(nb, word_lm, vocab) for nb in nbest_lists]
    tasks = []
    for nb in nbest_lists:
        if nb.utterance_id not in paths:
            raise FormatError(
                "no phoneme posteriors listed for %s" % nb.utterance_id)
        tasks.append((nb, paths[nb.utterance_id]))
    results = _run_pool(tasks, _rescore_task, {
        "ph_vocab": ph_vocab, "lexicon": lexicon, "vocab": vocab,
        "weights": weights, "options": options}, args.jobs)
    core.write_nbest(results, vocab, args.out)
    log.info("rescored %d utterances -> %s", len(results), args.out)
    return 0


# --- tune ----------------------------------------------------------------

def _load_references(path) -> list[tuple[str, tuple[str, ...]]]:
    """Reference transcripts in file order; an empty one is a data fault."""
    refs = core.load_transcripts(path)
    for utt, words in refs:
        if not words:
            raise FormatError("%s: empty reference for %s" % (path, utt))
    return refs


def _cmd_tune(args) -> int:
    vocab = core.load_vocabulary(args.vocab)
    nbest_lists = core.load_nbest(args.nbest, vocab)
    if not nbest_lists:
        raise FormatError("%s: no N-best lists" % args.nbest)
    refs = dict(_load_references(args.ref))
    dev = []
    for nb in nbest_lists:
        if nb.utterance_id not in refs:
            raise FormatError("no reference for %s" % nb.utterance_id)
        dev.append((nb, refs[nb.utterance_id]))
    if args.grid_am is None and args.grid_lm is None and args.grid_ilm is None:
        grid = fusion.default_weight_grid()
    else:
        grid = [
            FusionWeights(a, l, i)
            for a in (args.grid_am or [0.0])
            for l in (args.grid_lm or [0.0])
            for i in (args.grid_ilm or [0.0])]
    if any(w.lambda_am != 0.0 for w in grid) and any(
            h.scores.am is None for nb in nbest_lists for h in nb.hypotheses):
        raise FormatError(
            "%s: hypotheses lack am scores (rescore the list first)" % args.nbest)
    results = fusion.grid_search(dev, grid, vocab)
    if args.report:
        core.write_lines(args.report, (
            "%s\t%s\t%s\t%.6f" % (w.lambda_am, w.lambda_lm, w.lambda_ilm, dev_wer)
            for w, dev_wer in results))
    best, best_wer = fusion.select_weights(results)
    print("selected lambda_am=%.3f lambda_lm=%.3f lambda_ilm=%.3f dev_wer=%.6f"
          % (best.lambda_am, best.lambda_lm, best.lambda_ilm, best_wer))
    return 0


# --- score ---------------------------------------------------------------

def _cmd_score(args) -> int:
    refs = _load_references(args.ref)
    if (args.hyp is None) == (args.nbest is None):
        raise _UsageError("give exactly one of --hyp or --nbest")
    rows = []
    oracle_total = None
    if args.hyp is not None:
        hyps = dict(core.load_transcripts(args.hyp))
        for utt, ref in refs:
            if utt not in hyps:
                raise FormatError("no hypothesis for %s" % utt)
            rows.append((utt, metrics.wer(ref, hyps[utt])))
    else:
        if args.vocab is None:
            raise _UsageError("--nbest requires --vocab")
        vocab = core.load_vocabulary(args.vocab)
        lists = {nb.utterance_id: nb for nb in core.load_nbest(args.nbest, vocab)}
        oracle_total = metrics.ErrorCounts()
        for utt, ref in refs:
            if utt not in lists:
                raise FormatError("no hypotheses for %s" % utt)
            nb = lists[utt]
            top_words = core.detokenize(nb.top().tokens, vocab)
            rows.append((utt, metrics.wer(ref, top_words)))
            oracle_total = oracle_total + metrics.oracle_wer(nb, ref, vocab)
    total = metrics.ErrorCounts()
    for _, counts in rows:
        total = total + counts
    if args.report:
        core.write_lines(args.report, (
            "%s\t%d\t%d\t%d\t%d\t%.4f" % (
                utt, c.substitutions, c.deletions, c.insertions, c.ref_length, c.wer)
            for utt, c in rows))
    print("corpus WER %.4f" % total.wer)
    if oracle_total is not None:
        print("oracle WER %.4f" % oracle_total.wer)
    return 0


# --- buckets -------------------------------------------------------------

def _cmd_buckets(args) -> int:
    vocab = core.load_vocabulary(args.vocab)
    refs = _load_references(args.ref)
    base = {nb.utterance_id: nb
            for nb in core.load_nbest(args.baseline_nbest, vocab)}
    fused = {nb.utterance_id: nb
             for nb in core.load_nbest(args.fused_nbest, vocab)}
    bucket_lm = load_arpa(args.lm)
    corpus = []
    for utt, ref in refs:
        if utt not in base or utt not in fused:
            raise FormatError("no hypotheses for %s" % utt)
        corpus.append((
            ref,
            core.detokenize(base[utt].top().tokens, vocab),
            core.detokenize(fused[utt].top().tokens, vocab)))
    stats = metrics.ppl_buckets(corpus, bucket_lm, args.k, vocab)
    core.write_lines(args.report, (
        "%d\t%.4f\t%.4f\t%.4f\t%.4f" % (
            s.bucket, s.mean_ppl, s.baseline_wer, s.fused_wer, s.werr)
        for s in stats))
    log.info("bucket report -> %s", args.report)
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "decode": _cmd_decode,
    "rescore": _cmd_rescore,
    "tune": _cmd_tune,
    "score": _cmd_score,
    "buckets": _cmd_buckets,
}


def main(argv=None) -> int:
    if not logging.getLogger().handlers and not log.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    argv = list(sys.argv[1:] if argv is None else argv)
    top, parsers = _build_parsers()
    try:
        if argv and argv[0] in parsers:
            sub = parsers[argv[0]]
            config_path = None
            for i, arg in enumerate(argv):
                if arg == "--config" and i + 1 < len(argv):
                    config_path = argv[i + 1]
                elif arg.startswith("--config="):
                    config_path = arg.split("=", 1)[1]
            if config_path is not None:
                _apply_config(sub, config_path)
        try:
            args = top.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        if args.command is None:
            raise _UsageError("twopass: a subcommand is required")
        _log_effective(args)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ToolkitError, OSError) as exc:  # before ValueError: some are both
        print("twopass: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("twopass: invalid arguments: %s" % exc, file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
