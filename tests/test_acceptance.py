"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The end-to-end criteria train real models on a synthetic corpus; the whole
file is budgeted to run well under ten minutes on a desktop CPU.
"""

import math
import time

import numpy as np

from mdpp import bruteforce, dpp, evaluation, multi_dpp, summarizer, training
from mdpp.data_model import AnnotationSet, MultiViewSequence, ShotList, Summary, SummaryBudget
from mdpp.dpp import DppKernel
from mdpp.encoder import (
    evaluate_loss,
    from_vector,
    init_params,
    loss_and_grad,
    param_count,
    to_vector,
)
from mdpp.evaluation import frame_f1, oracle_summary, pairwise_consensus, tolerant_f1
from mdpp.multi_dpp import ViewStreams
from mdpp.summarizer import knapsack_shots
from mdpp.synth import SynthConfig, generate
from mdpp.training import SplitPlan, TrainConfig, round_robin_splits, targets_from_summary

BASE_SEED = 20260815


def _report(capsys, number, name, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} {name} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_dpp_normalization(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        kernel = bruteforce.random_kernel(rng, n)
        total = sum(
            math.exp(dpp.log_prob(kernel, s)) for s in bruteforce.all_subsets(n)
        )
        worst = max(worst, abs(total - 1.0))
    elapsed = time.monotonic() - started
    ok = worst < 1e-9 and elapsed < 30.0
    _report(capsys, 1, "DPP normalization over 200 random kernels",
            ok, f"max |sum-1| {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_reduction_and_invariance(capsys):
    rng = np.random.default_rng(BASE_SEED + 1)
    exact = True
    for _ in range(20):
        n, dprime = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        feats = 2.0 * rng.normal(size=(1, n, dprime))
        quality = rng.uniform(0.2, 0.9, size=(1, n))
        streams = ViewStreams(features=feats, quality=quality)
        single = DppKernel(phi=feats[0].T, q=quality[0])
        subset = sorted(rng.choice(n, size=min(2, n), replace=False).tolist())
        if multi_dpp.multi_dpp_log_prob(streams, subset) != dpp.log_prob(single, subset):
            exact = False

    worst = 0.0
    for _ in range(50):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 9))
        streams = ViewStreams(
            features=rng.normal(size=(m, n, 4)),
            quality=rng.uniform(0.2, 0.9, size=(m, n)),
        )
        subset = sorted(rng.choice(n, size=min(3, n), replace=False).tolist())
        base = multi_dpp.multi_dpp_log_prob(streams, subset)
        perm = rng.permutation(m)
        shuffled = ViewStreams(features=streams.features[perm], quality=streams.quality[perm])
        worst = max(worst, abs(multi_dpp.multi_dpp_log_prob(shuffled, subset) - base))
    ok = exact and worst < 1e-9
    _report(capsys, 2, "M=1 reduction exact, view permutation invariant",
            ok, f"reduction exact={exact}, max perm delta {worst:.3e}")


def test_criterion_3_gradient_fidelity(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(BASE_SEED + 2)
    params = init_params(3, hidden_size=4, output_dim=3, seed=BASE_SEED)
    seq = MultiViewSequence(
        sequence_id="grad", features=rng.normal(size=(2, 6, 3)).astype(np.float32)
    )
    y = np.zeros((2, 6), dtype=np.uint8)
    y[0, 1] = y[1, 1] = y[1, 4] = 1

    _, grad_joint = loss_and_grad(params, seq, y, lam=1.0)
    _, grad_bce = loss_and_grad(params, seq, y, lam=0.0)
    joint_vec, bce_vec = to_vector(grad_joint), to_vector(grad_bce)
    dpp_vec = joint_vec - bce_vec

    losses = {
        "bce": (lambda p: evaluate_loss(p, seq, y, lam=0.0).total, bce_vec),
        "dpp": (lambda p: evaluate_loss(p, seq, y, lam=1.0).dpp_nll, dpp_vec),
        "joint": (lambda p: evaluate_loss(p, seq, y, lam=1.0).total, joint_vec),
    }
    h = 1e-5
    vec = to_vector(params)
    worst = {name: 0.0 for name in losses}
    for i in range(vec.size):
        plus, minus = vec.copy(), vec.copy()
        plus[i] += h
        minus[i] -= h
        p_plus, p_minus = from_vector(params, plus), from_vector(params, minus)
        for name, (fn, gvec) in losses.items():
            fd = (fn(p_plus) - fn(p_minus)) / (2 * h)
            err = abs(fd - gvec[i]) / max(abs(fd), abs(gvec[i]), 1e-3)
            worst[name] = max(worst[name], err)
    elapsed = time.monotonic() - started
    ok = max(worst.values()) < 1e-4 and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _report(capsys, 3, "analytic gradients vs central differences",
            ok, f"max rel err {detail}, {elapsed:.1f}s")


def test_criterion_4_parameter_count_invariance(capsys):
    rng = np.random.default_rng(BASE_SEED + 3)
    d, hidden, dprime = 3, 4, 3
    params = init_params(d, hidden_size=hidden, output_dim=dprime, seed=0)
    counts = {}
    for m in (1, 2, 3, 5):
        seq = MultiViewSequence(
            sequence_id=f"m{m}", features=rng.normal(size=(m, 5, d)).astype(np.float32)
        )
        y = np.zeros((m, 5), dtype=np.uint8)
        y[:, 1] = 1
        y[0, 3] = 1
        _, grad = loss_and_grad(params, seq, y, lam=1.0)
        counts[m] = grad.count()
    ok = set(counts.values()) == {param_count(d, hidden, dprime)} == {372}
    _report(capsys, 4, "parameter count identical for M in {1,2,3,5}",
            ok, f"counts {sorted(set(counts.values()))}")


def test_criterion_5_exactness_oracles(capsys):
    rng = np.random.default_rng(BASE_SEED + 4)

    knapsack_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 16))
        lengths = rng.integers(1, 7, size=n).tolist()
        scores = rng.integers(0, 1000, size=n).astype(float).tolist()
        budget = int(rng.integers(0, sum(lengths) + 2))
        if knapsack_shots(lengths, scores, budget) != bruteforce.exhaustive_knapsack(
            lengths, scores, budget
        ):
            knapsack_ok = False

    kts_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 13))
        feats = rng.normal(size=(n, 3))
        for m in range(min(4, n)):
            _, cost = bruteforce.kts_fixed_m(feats, m)
            _, brute = bruteforce.exhaustive_segmentation(feats, m)
            if abs(cost - brute) > 1e-9 * max(1.0, abs(brute)):
                kts_ok = False

    oracle_ok = True
    for _ in range(50):
        m, n = 2, 8
        users = tuple(
            (f"u{k}", tuple(
                (int(i) // n, int(i) % n)
                for i in rng.choice(m * n, size=int(rng.integers(1, 5)), replace=False)
            ))
            for k in range(int(rng.integers(1, 4)))
        )
        annotations = AnnotationSet(sequence_id="s", stage=3, users=users)
        shots = [ShotList(boundaries=tuple(range(1, n + 1)))] * m
        summary = oracle_summary(annotations, shots, SummaryBudget(fraction=1.0 / n))
        user_sets = [set(sels) for _, sels in users]

        def mean_f1(frames):
            return float(np.mean([evaluation._set_f1(frames, u) for u in user_sets]))

        best, best_frames = 0.0, set()
        for shot, view in sorted((t, v) for v in range(m) for t in range(n)):
            trial = {(view, shot)}
            if mean_f1(trial) > best:
                best, best_frames = mean_f1(trial), trial
        if summary.selection_set != best_frames:
            oracle_ok = False

    greedy_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 11))
        kernel = DppKernel(phi=np.eye(n), q=rng.uniform(dpp.QUALITY_FLOOR, 1.0, size=n))
        factor = kernel.phi * kernel.q
        if sorted(dpp.greedy_map(factor)) != bruteforce.exhaustive_map(factor):
            greedy_ok = False
    # q < 1 makes every MAP above empty; diag(sqrt(d)) factors have MAP {d > 1}
    nonempty = 0
    for _ in range(50):
        factor = np.diag(np.sqrt(rng.uniform(0.2, 3.0, size=int(rng.integers(1, 11)))))
        best = bruteforce.exhaustive_map(factor)
        nonempty += bool(best)
        if sorted(dpp.greedy_map(factor)) != best:
            greedy_ok = False
    greedy_ok = greedy_ok and nonempty > 0

    ok = knapsack_ok and kts_ok and oracle_ok and greedy_ok
    _report(capsys, 5, "exactness oracles (knapsack, KTS, oracle summary, greedy MAP)",
            ok, f"knapsack={knapsack_ok} kts={kts_ok} oracle={oracle_ok} greedy={greedy_ok} "
            f"({nonempty}/50 factor MAPs nonempty)")


def test_criterion_6_protocol_fixtures(capsys):
    predicted = Summary(selections=tuple((0, t) for t in range(1, 11)))
    truth = Summary(selections=tuple((0, t) for t in range(6, 16)))
    interval_ok = frame_f1(predicted, truth) == (0.5, 0.5, 0.5)

    annotations = AnnotationSet(
        sequence_id="s", stage=3,
        users=(
            ("a", ((0, 0), (0, 1))),
            ("b", ((0, 0), (0, 1))),
            ("c", ((0, 0), (1, 1))),
        ),
    )
    consensus = pairwise_consensus(annotations)
    consensus_ok = abs(consensus - 2.0 / 3.0) <= 1e-12

    rng = np.random.default_rng(BASE_SEED + 5)
    taus = np.linspace(0.0, 1.0, 9)
    monotone_ok = True
    for _ in range(50):
        m, n = 3, 10
        seq = MultiViewSequence(
            sequence_id="s", features=rng.normal(size=(m, n, 4)).astype(np.float32)
        )

        def pick():
            k = int(rng.integers(1, 7))
            flat = rng.choice(m * n, size=k, replace=False)
            return Summary(selections=tuple((int(i) // n, int(i) % n) for i in flat))

        predicted, truth = pick(), pick()
        scores = [tolerant_f1(predicted, truth, seq, float(t)) for t in taus]
        if not all(a <= b + 1e-12 for a, b in zip(scores, scores[1:])):
            monotone_ok = False

    ok = interval_ok and consensus_ok and monotone_ok
    _report(capsys, 6, "protocol fixtures (interval F1, consensus, tau sweep)",
            ok, f"interval={interval_ok} consensus={consensus:.12f} monotone={monotone_ok}")


def test_criterion_7_round_robin(capsys):
    ids = [f"c{i}" for i in range(6)]
    plans = round_robin_splits(ids)
    count_ok = len(plans) == 30
    pairs = {(p.val_collection, p.test_collection) for p in plans}
    disjoint_ok = all(
        sorted((*p.train_collections, p.val_collection, p.test_collection)) == sorted(ids)
        and p.val_collection != p.test_collection
        and len(p.train_collections) == 4
        for p in plans
    )
    exhaustive_ok = len(pairs) == 30
    ok = count_ok and disjoint_ok and exhaustive_ok
    _report(capsys, 7, "round-robin: 6 collections give 30 disjoint exhaustive plans",
            ok, f"plans={len(plans)} unique val/test pairs={len(pairs)}")


# -- end-to-end corpus (shared by criteria 8 and 9) ---------------------------

_CORPUS_CONFIG = dict(
    num_views=3, num_steps=300, feature_dim=16, num_events=5,
    event_length_min=6, event_length_max=9, overlap_mode="independent",
    noise_sigma=0.05,
)
_NUM_COLLECTIONS, _PER_COLLECTION = 8, 4
_cache = {}


def _build_corpus():
    collections, test_pairs = {}, []
    for c in range(_NUM_COLLECTIONS):
        examples = []
        for i in range(_PER_COLLECTION):
            seed = BASE_SEED + 100 * c + i
            sequence, annotations = generate(SynthConfig(seed=seed, **_CORPUS_CONFIG))
            gt = Summary(selections=annotations.users[0][1])
            examples.append(targets_from_summary(sequence, gt))
            if c == _NUM_COLLECTIONS - 1:
                test_pairs.append((sequence, gt))
        collections[f"c{c}"] = examples
    plan = SplitPlan(
        train_collections=tuple(f"c{i}" for i in range(6)),
        val_collection="c6", test_collection="c7",
    )
    return collections, plan, test_pairs


def _mean_test_f1(params, test_pairs):
    scores = []
    for sequence, gt in test_pairs:
        predicted = summarizer.summarize_supervised(
            params, sequence, SummaryBudget(), max_segments=20, penalty_coeff=0.05
        )
        scores.append(frame_f1(predicted, gt)[2])
    return float(np.mean(scores))


def _train_and_score(lam):
    collections, plan, test_pairs = _build_corpus()
    initial = init_params(16, hidden_size=16, output_dim=64, seed=BASE_SEED)
    config = TrainConfig(seed=BASE_SEED, lam=lam)
    result = training.train(initial, collections, plan, config)
    return _mean_test_f1(result.params, test_pairs), test_pairs


def _full_model_f1():
    if "full" not in _cache:
        _cache["full"] = _train_and_score(lam=1.0)
    return _cache["full"]


def test_criterion_8_end_to_end_directional(capsys):
    started = time.monotonic()
    full_f1, test_pairs = _full_model_f1()
    ce_f1, _ = _train_and_score(lam=0.0)
    random_scores = []
    for i, (sequence, gt) in enumerate(test_pairs):
        predicted = summarizer.baseline_random(sequence, SummaryBudget(), seed=BASE_SEED + i)
        random_scores.append(frame_f1(predicted, gt)[2])
    random_f1 = float(np.mean(random_scores))
    elapsed = time.monotonic() - started
    ok = full_f1 >= 2.0 * random_f1 and full_f1 >= ce_f1 - 0.02 and elapsed < 600.0
    _report(capsys, 8, "trained model beats random 2x and CE-only within slack",
            ok, f"full {full_f1:.4f}, ce-only {ce_f1:.4f}, random {random_f1:.4f}, {elapsed:.0f}s")


def test_criterion_9_determinism(capsys):
    first, _ = _full_model_f1()
    repeat, _ = _train_and_score(lam=1.0)  # full rebuild, same seeds
    ok = f"{first:.4f}" == f"{repeat:.4f}"
    _report(capsys, 9, "same-seed rerun reproduces the printed F1",
            ok, f"{first:.4f} vs {repeat:.4f}")
