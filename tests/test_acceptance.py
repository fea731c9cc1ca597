"""Acceptance suite for the engine-level guarantees.

One test per criterion, in order. Each prints a single pass/fail line; run
with `pytest tests/test_acceptance.py -s` to see them. Tolerances and time
budgets are asserted, not just reported.
"""

import math
import time

import numpy as np
from oracles import oracle_topk

from progemb import dataio
from progemb.cli import main
from progemb.encoder import (
    MaeDecoder,
    Tokenizer,
    ToyEncoder,
    encode,
    save_checkpoint,
)
from progemb.evaluation import RankedList, average_precision, evaluate_run, mrr_at_k, ndcg_at_k, recall_at_k
from progemb.loss import (
    HyperParams,
    MomentumState,
    batch_threshold,
    info_nce,
    loss_gradients,
    progressive_loss,
    update_momentum,
)
from progemb.mining import Passage, mine_hard_negatives
from progemb.synthetic import make_clustered_corpus
from progemb.training import TrainingExample, finetune, pretrain


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} {status}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# --- criterion 1: analytic gradients vs central finite differences --------

def _frozen_value(q, p, z, weights, scales, tau):
    """Loss with weights and scales held fixed, as a plain function of the
    embeddings; used as the finite-difference target."""
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    pn = p / np.linalg.norm(p, axis=1, keepdims=True)
    zn = z / np.linalg.norm(z, axis=2, keepdims=True)
    pos = np.sum(qn * pn, axis=1)
    neg = np.einsum("bd,bnd->bn", qn, zn)
    shifted = (scales * neg - pos[:, None]) / tau
    high = np.maximum(0.0, shifted.max(axis=1))
    lse = high + np.log(
        np.exp(-high) + np.exp(shifted - high[:, None]).sum(axis=1)
    )
    return float(np.sum(weights * lse))


def _with_cosine(q_unit, v, target):
    """Unit vector with the requested cosine to q_unit, in the (q_unit, v) plane."""
    perp = v - np.dot(v, q_unit) * q_unit
    norm = np.linalg.norm(perp)
    if norm < 1e-12:
        pick = np.zeros_like(q_unit)
        pick[int(np.argmin(np.abs(q_unit)))] = 1.0
        perp = pick - np.dot(pick, q_unit) * q_unit
        norm = np.linalg.norm(perp)
    perp = perp / norm
    return target * q_unit + math.sqrt(1.0 - target * target) * perp


def _fd_gradients(q, p, z, weights, scales, tau, h=1e-6):
    grads = []
    for arr in (q, p, z):
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = _frozen_value(q, p, z, weights, scales, tau)
            flat[i] = orig - h
            down = _frozen_value(q, p, z, weights, scales, tau)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(101)
    taus = (1.0, 0.1, 0.01)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        b = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        d = int(rng.integers(2, 9))
        tau = taus[i % 3]
        q = rng.normal(size=(b, d))
        p = rng.normal(size=(b, d))
        z = rng.normal(size=(b, n, d))
        qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        pn = p / np.linalg.norm(p, axis=1, keepdims=True)
        zn = z / np.linalg.norm(z, axis=2, keepdims=True)
        pos = np.sum(qn * pn, axis=1)
        neg = np.einsum("bd,bnd->bn", qn, zn)
        # rotate the first hard negative to sit within a few tau of its
        # positive: a fully saturated batch has gradients so small that the
        # 1e-6 finite-difference step measures only rounding noise
        for row in range(b):
            target = float(np.clip(pos[row] + tau * rng.uniform(-3.0, 2.0), -0.999, 0.999))
            zn[row, 0] = _with_cosine(qn[row], zn[row, 0], target)
            z[row, 0] = zn[row, 0]
            neg[row, 0] = float(np.dot(qn[row], zn[row, 0]))
        sigma = batch_threshold(pos, beta=0.1)
        t = float(rng.uniform(0.0, 0.8))
        _, record = progressive_loss(pos, neg, sigma, t, tau)

        analytic = loss_gradients(q, p, z, sigma, t, HyperParams(0.5, 0.1, tau))
        fd = _fd_gradients(q, p, z, record.weights, record.scales, tau)
        for got, want in zip((analytic.query, analytic.positive, analytic.negative), fd):
            scale = max(1e-6, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-5 and elapsed < 10.0,
        f"max relative gradient error {worst:.2e} over 100 instances in {elapsed:.1f}s",
    )


# --- criterion 2: vectorized loss vs per-query scalar oracle --------------

def _scalar_progressive(pos, neg, sigma, t, tau):
    total = 0.0
    for qi in range(len(pos)):
        p = float(pos[qi])
        if sigma <= 0.0 or p >= sigma:
            w = 1.0
        else:
            w = min(max(p / sigma, 0.0), 1.0)
        denom = math.exp(p / tau)
        for n in neg[qi]:
            n = float(n)
            a = 1.0 if (p < sigma or n < p) else t + p
            denom += math.exp(a * n / tau)
        total += -w * math.log(math.exp(p / tau) / denom)
    return total


def test_vectorized_loss_matches_scalar_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        b = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        pos = rng.uniform(-1.0, 1.0, size=b)
        neg = rng.uniform(-1.0, 1.0, size=(b, n))
        sigma = batch_threshold(pos, beta=float(rng.uniform(0.0, 0.3)))
        t = float(rng.uniform(0.0, 1.0))
        # naive scalar exponentials cap the usable temperature range
        tau = float(rng.uniform(0.02, 1.0))
        got, _ = progressive_loss(pos, neg, sigma, t, tau)
        want = _scalar_progressive(pos, neg, sigma, t, tau)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst <= 1e-10 and elapsed < 5.0,
        f"max |vectorized - scalar| {worst:.2e} over 1000 instances in {elapsed:.1f}s",
    )


# --- criterion 3: reduction to the plain contrastive loss -----------------

def test_reduces_to_infonce_on_easy_batches():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        center = float(rng.uniform(0.3, 0.85))
        # spread below beta keeps every positive at or above the threshold,
        # and every negative strictly below its positive
        pos = rng.uniform(center, center + 0.08, size=b)
        neg = rng.uniform(-1.0, float(pos.min()) - 0.01, size=(b, n))
        sigma = batch_threshold(pos, beta=0.1)
        t = float(rng.uniform(0.0, 1.0))
        tau = float(np.exp(rng.uniform(np.log(0.01), 0.0)))
        prog, _ = progressive_loss(pos, neg, sigma, t, tau)
        plain = info_nce(pos, neg, tau)
        worst = max(worst, abs(prog - plain))
    _report(3, worst <= 1e-9, f"max |progressive - plain| {worst:.2e} over 100 easy batches")


# --- criterion 4: momentum update follows the geometric law ---------------

def test_momentum_converges_geometrically():
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9):
        for m in (0.25, 0.55, 0.8):
            state = MomentumState()
            batch = np.array([m])
            for s in range(1, 51):
                state = update_momentum(state, batch, alpha)
                expected_gap = (1.0 - alpha) ** s * m
                worst = max(worst, abs(abs(state.t - m) - expected_gap))
    _report(4, worst <= 1e-12, f"max deviation from (1-alpha)^s law {worst:.2e}")


# --- criterion 5: extreme temperature stays finite ------------------------

def test_extreme_temperature_stays_finite():
    rng = np.random.default_rng(505)
    pos = rng.uniform(-1.0, 1.0, size=1000)
    neg = rng.uniform(-1.0, 1.0, size=(1000, 1000))
    sigma = batch_threshold(pos, beta=0.1)
    value, _ = progressive_loss(pos, neg, sigma, t=0.5, tau=0.01)
    _report(5, math.isfinite(value), f"loss at tau=0.01, B=N=1000 is {value:.4e}")


# --- criterion 6: retrieval metric fixtures -------------------------------

def _ranked(doc_ids):
    scores = tuple(float(len(doc_ids) - i) for i in range(len(doc_ids)))
    return RankedList("q", tuple(doc_ids), scores)


def test_metric_fixture_values():
    checks = []

    ndcg_hit2 = ndcg_at_k(_ranked(["a", "b", "c"]), {"q": {"b": 1}}, k=10)
    checks.append(abs(ndcg_hit2 - 1.0 / math.log2(3.0)) <= 1e-12)
    checks.append(round(ndcg_hit2, 5) == 0.63093)

    ap = average_precision(_ranked(["a", "b", "c", "d"]), {"q": {"a": 1, "c": 1}})
    checks.append(abs(ap - 5.0 / 6.0) <= 1e-12)
    checks.append(round(ap, 5) == 0.83333)

    perfect = ndcg_at_k(_ranked(["a", "b"]), {"q": {"a": 1, "b": 1}}, k=10)
    checks.append(abs(perfect - 1.0) <= 1e-12)

    mrr = mrr_at_k(_ranked(["x", "y", "z", "a"]), {"q": {"a": 1}}, k=10)
    checks.append(abs(mrr - 0.25) <= 1e-12)

    rec = recall_at_k(_ranked(["a", "b", "c"]), {"q": {"a": 1, "z": 1}}, k=3)
    checks.append(abs(rec - 0.5) <= 1e-12)
    rec50 = recall_at_k(
        _ranked([f"d{i:02d}" for i in range(60)]),
        {"q": {"d05": 1, "d30": 1, "d55": 1}},
        k=50,
    )
    checks.append(abs(rec50 - 2.0 / 3.0) <= 1e-12)

    _report(
        6,
        all(checks),
        f"ndcg {ndcg_hit2:.5f}, ap {ap:.5f}, mrr {mrr:.2f}, recall fixtures exact",
    )


# --- criterion 7: mining equals the exhaustive-sort oracle ----------------

def test_mining_matches_exhaustive_oracle():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(50):
        m = int(rng.integers(100, 1001))
        d = int(rng.integers(4, 17))
        embs = rng.normal(size=(m, d))
        ids = [f"p{i:04d}" for i in range(m)]
        queries = rng.normal(size=(8, d))
        positives = [
            {ids[int(i)] for i in rng.integers(0, m, size=int(rng.integers(1, 4)))}
            for _ in queries
        ]
        all_mined = mine_hard_negatives(queries, ids, embs, positives, k=5)
        ok = ok and len(all_mined) == len(queries)
        for q, pos, mined in zip(queries, positives, all_mined):
            want = oracle_topk(q, ids, embs, pos, 5)
            ok = ok and [c.passage_id for c in mined] == [pid for pid, _ in want]
            ok = ok and all(
                abs(c.similarity - s) <= 1e-12 for c, (_, s) in zip(mined, want)
            )
    _report(7, ok, "top-5 ids and similarities of 8 queries match on 50 corpora "
                   "of 100-1000 passages")


# --- criteria 8 and 9: end-to-end synthetic retrieval ---------------------

def _retrieval_recall(seed: int, noise: float, loss_mode: str) -> float:
    data = make_clustered_corpus(
        n_clusters=8,
        gallery_size=2000,
        n_train=1600,
        n_heldout=200,
        words_per_cluster=100,
        passage_words=8,
        passage_shared=0,
        query_words=7,
        noise_rate=noise,
        seed=seed,
    )
    tok = Tokenizer.from_texts(p.text for p in data.passages)
    texts = {p.passage_id: p.text for p in data.passages}
    examples = [
        TrainingExample(
            query_id=q.query_id,
            query=tok.encode_text(q.text, 16),
            positive_id=q.positive_id,
            positive=tok.encode_text(texts[q.positive_id], 64),
        )
        for q in data.train
    ]
    enc = ToyEncoder.create(len(tok.id_to_token), 16, seed=seed)
    finetune(
        examples,
        enc,
        HyperParams(alpha=0.5, beta=0.1, tau=0.01),
        epochs=40,
        batch_size=32,
        lr=0.01,
        loss_mode=loss_mode,
        seed=seed,
    )
    gallery_ids = [p.passage_id for p in data.passages]
    gallery = np.stack(
        [encode(enc, tok.encode_text(p.text, 64)) for p in data.passages]
    )
    queries = [
        (q.query_id, encode(enc, tok.encode_text(q.text, 16))) for q in data.heldout
    ]
    report = evaluate_run(queries, gallery_ids, gallery, data.qrels(), depth=50)
    return report.macro["recall@1"]


def test_synthetic_retrieval_end_to_end():
    start = time.perf_counter()
    recall = _retrieval_recall(seed=0, noise=0.0, loss_mode="progressive")
    elapsed = time.perf_counter() - start
    _report(
        8,
        recall >= 0.9 and elapsed < 120.0,
        f"held-out recall@1 {recall:.4f} after 40 epochs in {elapsed:.0f}s",
    )


def test_noise_robustness_direction():
    start = time.perf_counter()
    seeds = range(5)
    prog = [_retrieval_recall(s, 0.2, "progressive") for s in seeds]
    plain = [_retrieval_recall(s, 0.2, "infonce") for s in seeds]
    mean_prog = sum(prog) / len(prog)
    mean_plain = sum(plain) / len(plain)
    elapsed = time.perf_counter() - start
    _report(
        9,
        mean_prog >= mean_plain and elapsed < 900.0,
        f"20% noise, 5 seeds: progressive {mean_prog:.4f} vs plain {mean_plain:.4f} "
        f"in {elapsed:.0f}s",
    )


# --- criterion 10: masked-reconstruction training sanity ------------------

def _template_corpus(seed=0, n_templates=10, copies=10, n_words=8, vocab=60):
    rng = np.random.default_rng(seed)
    words = [f"w{i:02d}" for i in range(vocab)]
    templates = [
        " ".join(words[int(j)] for j in rng.choice(vocab, n_words, replace=False))
        for _ in range(n_templates)
    ]
    texts = [templates[i % n_templates] for i in range(n_templates * copies)]
    tok = Tokenizer.from_texts(texts)
    return tok, [tok.encode_text(t, 16) for t in texts]


def test_mae_pretraining_sanity():
    tok, seqs = _template_corpus(seed=0)
    assert len(seqs) == 100

    enc = ToyEncoder.create(len(tok.id_to_token), 16, seed=0)
    dec = MaeDecoder.create(16, 16, len(tok.id_to_token), seed=0)
    result = pretrain(
        seqs, enc, dec, epochs=10, mask_ratio=0.3, batch_size=25, lr=0.1, seed=0
    )
    ratio = result.epoch_losses[-1] / result.epoch_losses[0]

    enc1 = ToyEncoder.create(len(tok.id_to_token), 16, seed=0)
    dec1 = MaeDecoder.create(16, 16, len(tok.id_to_token), seed=0)
    single = pretrain(
        seqs[:1], enc1, dec1, epochs=200, mask_ratio=0.3, batch_size=1, lr=0.05, seed=0
    )
    final = single.epoch_losses[-1]

    _report(
        10,
        ratio < 0.5 and final < 0.05,
        f"epoch-10/epoch-1 ratio {ratio:.3f}, single-sequence loss {final:.5f}",
    )


# --- criterion 11: fine-tune command determinism --------------------------

def test_finetune_command_determinism(tmp_path):
    texts = [
        "alpha beta gamma", "delta epsilon zeta", "eta theta iota",
        "kappa lam mu", "nu xi omicron", "pi rho tau",
    ]
    passages = [Passage(f"d{i}", texts[i], "src") for i in range(6)]
    tok = Tokenizer.from_texts(texts)
    enc = ToyEncoder.create(len(tok.id_to_token), 8, seed=0)
    ckpt = tmp_path / "ckpt.bin"
    save_checkpoint(ckpt, enc, tok, None)
    dataio.write_corpus(tmp_path / "passages.jsonl", passages)
    rows = [
        {
            "query_id": f"q{i}",
            "query": texts[i].split()[0],
            "positive_id": f"d{i}",
            "negative_ids": [f"d{(i + 1) % 6}", f"d{(i + 2) % 6}"],
        }
        for i in range(4)
    ]
    dataio.write_dataset(tmp_path / "dataset.jsonl", rows)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"checkpoint_path = {ckpt}",
                f"passages_path = {tmp_path / 'passages.jsonl'}",
                f"dataset_path = {tmp_path / 'dataset.jsonl'}",
                "embed_dim = 8",
                "max_passage_len = 16",
                "finetune_epochs = 3",
                "finetune_batch_size = 2",
                "optimizer = sgd",
            ]
        )
        + "\n"
    )
    rc1 = main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "out1")])
    rc2 = main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "out2")])
    same_ckpt = (tmp_path / "out1" / "checkpoint.bin").read_bytes() == (
        tmp_path / "out2" / "checkpoint.bin"
    ).read_bytes()
    same_audit = (tmp_path / "out1" / "finetune_audit.jsonl").read_bytes() == (
        tmp_path / "out2" / "finetune_audit.jsonl"
    ).read_bytes()
    _report(
        11,
        rc1 == 0 and rc2 == 0 and same_ckpt and same_audit,
        "two identical fine-tune runs yield byte-identical checkpoint and audit log",
    )
