"""Independent brute-force evaluators used as test oracles.

Everything here is deliberately naive: direct formula evaluation in
50-digit precision via mpmath, full scans for search, and central finite
differences for gradients. None of it shares code with the library paths
it checks.
"""

import mpmath

mpmath.mp.dps = 50


def mp_softmax(scores, temperature=1.0):
    exps = [mpmath.exp(mpmath.mpf(s) / mpmath.mpf(temperature)) for s in scores]
    total = sum(exps)
    return [float(e / total) for e in exps]


def mp_kl(p, q):
    total = mpmath.mpf(0)
    for pi, qi in zip(p, q):
        if pi > 0:
            total += mpmath.mpf(pi) * mpmath.log(mpmath.mpf(pi) / mpmath.mpf(qi))
    return float(total)


def mp_emdr2(logliks, probs):
    total = mpmath.mpf(0)
    for l, p in zip(logliks, probs):
        total += mpmath.exp(mpmath.mpf(l)) * mpmath.mpf(p)
    return float(mpmath.log(total))


def mp_overlap_lm(docs, output, vocab_size, smoothing):
    """The smoothed unigram-overlap LM by its formula,
    p(t|d) = lam * count_d(t)/|d| + (1 - lam)/|V|, one token at a time.

    Returns per-document, joint (documents concatenated) and
    leave-one-out log-likelihoods, and the attention relevance (mean
    in-document frequency of the output tokens; 0 for an empty document).
    """
    lam = mpmath.mpf(smoothing)

    def prob(context, token):
        freq = mpmath.mpf(0)
        if len(context) > 0:
            freq = mpmath.mpf(list(context).count(token)) / len(context)
        return lam * freq + (1 - lam) / vocab_size

    def loglik(context):
        return sum(mpmath.log(prob(context, t)) for t in output)

    def concat(ds):
        return [t for d in ds for t in d]

    rel = []
    for d in docs:
        if len(d) == 0:
            rel.append(0.0)
        else:
            rel.append(float(sum(mpmath.mpf(list(d).count(t)) / len(d)
                                 for t in output) / len(output)))
    return {
        "per_doc": [float(loglik(d)) for d in docs],
        "joint": float(loglik(concat(docs))),
        "loo": [float(loglik(concat(docs[:k] + docs[k + 1:])))
                for k in range(len(docs))],
        "relevance": rel,
    }


def counter_overlap_lm(docs, output, vocab_size, smoothing):
    """The smoothed unigram-overlap LM from token counts that
    collections.Counter takes of each document, in plain Python floats.

    Returns the (|output|, K) counts and the K lengths, then per-document,
    joint and leave-one-out log-likelihoods (a sum over the output tokens
    in order) and the attention relevance.
    """
    import math
    from collections import Counter

    counters = [Counter(d) for d in docs]
    lengths = [len(d) for d in docs]
    pooled = sum(counters, Counter())

    def loglik(counter, length):
        total = 0.0
        for t in output:
            freq = counter[t] / length if length else 0.0
            total += math.log(smoothing * freq + (1 - smoothing) / vocab_size)
        return total

    return {
        "counts": [[c[t] for c in counters] for t in output],
        "lengths": lengths,
        "per_doc": [loglik(c, n) for c, n in zip(counters, lengths)],
        "joint": loglik(pooled, sum(lengths)),
        "loo": [loglik(pooled - c, sum(lengths) - n)
                for c, n in zip(counters, lengths)],
        "relevance": [sum(c[t] for t in output) / (n * len(output)) if n
                      else 0.0 for c, n in zip(counters, lengths)],
    }


def brute_force_search(ids, vectors, q_vec, k):
    """Full scan; descending score, ties by ascending id."""
    scored = [(pid, float(vec @ q_vec)) for pid, vec in zip(ids, vectors)]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def central_difference(f, x, step=1e-5):
    """Finite-difference gradient of scalar f at 1-D point x."""
    import numpy as np
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi) - f(lo)) / (2 * step)
    return grad


def _nearest_centroid(centroids, x):
    """Row of the centroid nearest to x; the first of tied rows."""
    import numpy as np
    return int(np.argmin(np.sum((centroids - x) ** 2, axis=1)))


def reference_pq(vectors, m, k_c, iterations, seed):
    """(codebooks, codes) of product quantization written as loops: per
    subspace, farthest-point seeding from one seeded random first point
    (the random draws of `rlab.pq.train_pq`), then k-means that assigns one
    vector at a time and takes one centroid's mean at a time; a centroid
    with no members keeps its value. Codes take each vector's nearest
    centroid per subspace."""
    import numpy as np
    rng = np.random.default_rng(seed)
    n, dim = vectors.shape
    sub_dim = dim // m
    parts = [vectors[:, j * sub_dim:(j + 1) * sub_dim] for j in range(m)]
    codebooks = []
    for data in parts:
        chosen = [data[rng.integers(n)]]
        nearest = np.sum((data - chosen[0]) ** 2, axis=1)
        for _ in range(1, k_c):
            chosen.append(data[int(np.argmax(nearest))])
            nearest = np.minimum(nearest, np.sum((data - chosen[-1]) ** 2, axis=1))
        centroids = np.stack(chosen)
        for _ in range(iterations):
            assign = np.array([_nearest_centroid(centroids, x) for x in data])
            for c in range(k_c):
                members = data[assign == c]
                if len(members):
                    centroids[c] = members.mean(axis=0)
        codebooks.append(centroids)
    codes = np.array([[_nearest_centroid(cb, data[i])
                       for cb, data in zip(codebooks, parts)]
                      for i in range(n)])
    return np.stack(codebooks), codes
