"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with  pytest tests/test_acceptance.py -s  to watch the lines stream.
Statistical thresholds are fixed here; every tolerance is explicit.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from streamcolor.coloring import PartialColoring, colorful_matchings, offline_brooks
from streamcolor.decomposition import (
    classify_friendly_lonely,
    compute_decomposition,
    verify_decomposition,
)
from streamcolor.field import (
    SketchBank,
    canonical_prime,
    column_sums,
    decode_rows,
    safe_recover,
)
from streamcolor.generators import generate_instance
from streamcolor.helpers import find_critical_helper, find_friendly_helper
from streamcolor.coloring import l_perfect_matching
from streamcolor.palette import sample_palettes
from streamcolor.params import ParamSet
from streamcolor.pipeline import SUCCESS, RunConfig, color_run, verify_coloring

from conftest import (
    brute_force_decode,
    collect_samples,
    dense,
    has_edge,
    neighbors,
    oracle_from_edges,
    random_sparse_vector,
    shadow_of,
    source_of,
    syndrome_of,
)


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc} {detail}")
    assert ok, f"criterion {num}: {desc} -- {detail}"


# -- 1: sparse-recovery exactness ---------------------------------------------


def test_criterion_01_sparse_recovery_exactness():
    failures = 0
    disagreements = 0
    total = 0
    for n in (8, 16, 32, 64):
        p = canonical_prime(n)
        for k in range(1, 9):
            rng = np.random.default_rng(1000 * n + k)
            xs = [random_sparse_vector(rng, n, k, p) for _ in range(1000)]
            block = np.array([syndrome_of(x, k, p) for x in xs])
            # one decode for the whole block, as the helper search makes them
            for x, meas, row in zip(xs, block, decode_rows(block, k, p, n)):
                got = dense(row, n)
                total += 1
                if got is None or not np.array_equal(got, x):
                    failures += 1
                if k <= 3:
                    slow = brute_force_decode(meas, k, p, n)
                    if slow is None or not np.array_equal(slow, got):
                        disagreements += 1
    _verdict(
        1,
        "sparse-recovery exactness (zero tolerance)",
        failures == 0 and disagreements == 0,
        f"{total} recoveries, {failures} failures, {disagreements} oracle disagreements",
    )


# -- 2: verified-recovery safety ----------------------------------------------


def test_criterion_02_verified_recovery_safety():
    n, alpha = 32, 8
    p = canonical_prime(n)
    rng = np.random.default_rng(77)
    zseed = 1234
    wrong = 0
    refused = 0
    trials = 100_000
    by_r: dict[int, list[np.ndarray]] = {}
    for i in range(trials):
        r = int(rng.integers(2, 5))
        if i % 5 < 3:
            k = int(rng.integers(r + 1, r + 6))
            x = random_sparse_vector(rng, n, k, p)
        else:
            # difference of two indicator sets: entries 1 and p-1
            a = rng.choice(n, size=r + 2, replace=False)
            b = rng.choice(n, size=r + 2, replace=False)
            x = np.zeros(n, dtype=np.int64)
            x[a] = (x[a] + 1) % p
            x[b] = (x[b] - 1) % p
            if np.count_nonzero(x) <= r:
                continue
        by_r.setdefault(r, []).append(x)
    # one verified recovery per sparsity bound over all of its trials
    for r, xs in by_r.items():
        X = np.array(xs)
        owner, supp = np.nonzero(X)
        _, check = column_sums(p, zseed, alpha, r, owner, supp, len(xs), X[owner, supp])
        vec = np.array([syndrome_of(x, r, p) for x in xs])
        for x, got in zip(xs, safe_recover(vec, check % p, p, n, zseed, alpha)):
            if got is None:
                refused += 1
            elif not np.array_equal(dense(got, n), x):
                wrong += 1
    _verdict(
        2,
        "verified recovery never returns a wrong vector (bound ~1e5 * p^-8)",
        wrong == 0,
        f"{trials} adversarial trials, {wrong} wrong acceptances, {refused} refusals",
    )


# -- 3: matching solver soundness ----------------------------------------------


def _hall_verdict(adj, n_right) -> bool:
    nl = len(adj)
    masks = np.zeros(1 << nl, dtype=np.uint64)
    for i, row in enumerate(adj):
        bits = np.uint64(0)
        for c in row:
            bits |= np.uint64(1) << np.uint64(c)
        block = 1 << i
        masks[block : 2 * block] = masks[:block] | bits
    sizes = np.bitwise_count(np.arange(1 << nl, dtype=np.uint64))
    return bool((np.bitwise_count(masks[1:]) >= sizes[1:]).all())


def test_criterion_03_matching_agrees_with_hall():
    disagreements = 0
    for seed in range(10_000):
        rng = np.random.default_rng(seed)
        nl = int(rng.integers(1, 13))
        nr = int(rng.integers(1, 2 * nl + 2))
        density = rng.random() * 0.9 + 0.05
        adj = [
            [int(c) for c in np.flatnonzero(rng.random(nr) < density)]
            for _ in range(nl)
        ]
        found = l_perfect_matching(adj, nr) is not None
        if found != _hall_verdict(adj, nr):
            disagreements += 1
    _verdict(
        3,
        "L-perfect matching verdicts match brute-force Hall checks",
        disagreements == 0,
        f"10000 bipartite graphs with |L| <= 12, {disagreements} disagreements",
    )


# -- 4: offline fallback coloring -----------------------------------------------


def _brute_colorable(adj, n, q) -> bool:
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    colors = [0] * n

    def go(i):
        if i == n:
            return True
        v = order[i]
        used = {colors[u] for u in adj[v] if colors[u]}
        for c in range(1, q + 1):
            if c not in used:
                colors[v] = c
                if go(i + 1):
                    return True
        colors[v] = 0
        return False

    return go(0)


def test_criterion_04_offline_brooks_sweep():
    rng = np.random.default_rng(4242)
    checked = 0
    bad = 0
    target = 100_000
    while checked < target:
        n = int(rng.integers(4, 10))
        p = rng.random() * 0.7 + 0.15
        m = rng.random(size=(n, n)) < p
        adj = [set() for _ in range(n)]
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if m[u, v]:
                    adj[u].add(v)
                    adj[v].add(u)
                    edges.append((u, v))
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != n:
            continue
        if all(len(adj[v]) == n - 1 for v in range(n)):
            continue
        delta = max(len(a) for a in adj)
        if delta == 2 and n % 2 == 1 and all(len(a) == 2 for a in adj):
            continue
        checked += 1
        colors = offline_brooks(oracle_from_edges(n, edges), delta)
        proper = all(colors[u] != colors[v] for u in range(n) for v in adj[u])
        in_range = colors.min() >= 1 and colors.max() <= delta
        if not (proper and in_range and _brute_colorable(adj, n, delta)):
            bad += 1
    _verdict(
        4,
        "offline max-degree coloring on all small non-clique non-odd-cycle graphs",
        bad == 0,
        f"{checked} graphs <= 9 vertices, {bad} failures, brute-force cross-checked",
    )


# -- 5: decomposition fidelity ---------------------------------------------------


def test_criterion_05_decomposition_fidelity():
    families = {
        "clique-minus-edge": 4,
        "clique-pairs": 2,
        "lonely-clique": 2,
        "hard-phase6": 2,
    }
    violations = 0
    mismatches = 0
    cases = 0
    for family, count in families.items():
        for delta in (16, 24, 32):
            for seed in range(3):
                inst = generate_instance(family, delta, count=count, seed=seed)
                oracle = oracle_from_edges(inst.n, inst.edges)
                params = ParamSet.desk(inst.n, delta)
                dec = compute_decomposition(oracle, params, delta)
                rep = verify_decomposition(dec, oracle, params.eps, delta)
                violations += len(rep)
                got = sorted(tuple(k.vertices) for k in dec.cliques)
                want = sorted(tuple(sorted(c)) for c in inst.cores)
                if got != want:
                    mismatches += 1
                cases += 1
    _verdict(
        5,
        "decomposition verifies with zero violations and recovers each block exactly",
        violations == 0 and mismatches == 0,
        f"{cases} cases over 4 families x {{16,24,32}}, "
        f"{violations} violations, {mismatches} block mismatches",
    )


# -- 6: helper recovery -----------------------------------------------------------


def _bank_of(inst, params, seed):
    bank = SketchBank(inst.n, inst.delta, params, seed)
    for block in source_of(inst).open().chunks():
        bank.update_chunk(
            np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1])
        )
    return bank


def test_criterion_06_helper_recovery():
    delta = 16
    crit_hits = 0
    for seed in range(100):
        inst = generate_instance("clique-minus-edge", delta, count=1, seed=seed)
        oracle = oracle_from_edges(inst.n, inst.edges)
        params = ParamSet.desk(inst.n, delta)
        [h] = find_critical_helper([list(range(delta + 1))], _bank_of(inst, params, seed))
        if h is None:
            continue
        # zero-tolerance structure checks
        assert h.u != h.v and not has_edge(oracle, h.u, h.v)
        assert h.n_v == neighbors(oracle, h.v)
        crit_hits += 1

    friendly_hits = 0
    for seed in range(100):
        inst = generate_instance("hard-phase6", delta, count=1, seed=seed)
        src = source_of(inst)
        oracle = shadow_of(src)
        params = ParamSet.desk(inst.n, delta)
        dec = compute_decomposition(oracle, params, delta)
        samples = collect_samples(src.open(), params, seed, delta)
        classify_friendly_lonely(dec, samples, params, delta)
        k = dec.cliques[0]
        if k.kind != "friendly":
            continue
        [h] = find_friendly_helper([(k.vertices, k.witness)], _bank_of(inst, params, seed))
        if h is None:
            continue
        assert h.u not in k.vset and h.v in k.vset and h.w in k.vset
        assert has_edge(oracle, h.u, h.v)
        assert not has_edge(oracle, h.u, h.w)
        assert has_edge(oracle, h.v, h.w)
        assert h.n_v == neighbors(oracle, h.v)
        assert h.n_w == neighbors(oracle, h.w)
        friendly_hits += 1

    _verdict(
        6,
        "helper structures recovered in >=95/100 runs with exact neighborhoods",
        crit_hits >= 95 and friendly_hits >= 95,
        f"critical {crit_hits}/100, friendly {friendly_hits}/100",
    )


# -- 7 + 9: end-to-end coloring and the out-of-palette invariant -------------------


@dataclass
class RunStats:
    family: str
    delta: int
    seed: int
    ok: bool
    passes: int | None
    attempts: int | None
    out_of_list_violations: int
    known_set_mismatches: int


E2E_FAMILIES = {
    "clique-minus-edge": 8,
    "clique-pairs": 4,
    "lonely-clique": 4,
    "hard-phase6": 4,
    "mixed": 1,
}


@pytest.fixture(scope="module")
def e2e_stats():
    stats = []
    for family, count in E2E_FAMILIES.items():
        for delta in (16, 24, 32):
            for seed in range(100):
                spec = f"{family}:delta={delta},count={count},seed={seed}"
                res = color_run(RunConfig(source=spec, seed=seed, retries=3))
                ok = False
                out_viol = 0
                known_bad = 0
                passes = res.report.get("passes")
                attempts = res.report.get("attempts")
                if res.status == SUCCESS:
                    verified, _ = verify_coloring(spec, res.colors, delta, seed=seed)
                    ok = verified and int(res.colors.max()) <= delta
                    # out-of-palette invariant, judged against the shadow
                    pal, rec, shadow = res.palettes, res.phase_result.recovery, res.shadow
                    for v in range(res.dec.n if res.dec else 0):
                        c = int(res.colors[v])
                        word, bit = (c - 1) // 64, (c - 1) % 64
                        in_list = bool(pal.masks[v, word] >> np.uint64(bit) & np.uint64(1))
                        if not in_list:
                            if v not in rec.known or neighbors(rec, v) != neighbors(shadow, v):
                                out_viol += 1
                    for v in rec.known:
                        if neighbors(rec, v) != neighbors(shadow, v):
                            known_bad += 1
                stats.append(
                    RunStats(family, delta, seed, ok, passes, attempts, out_viol, known_bad)
                )
    return stats


def test_criterion_07_end_to_end_coloring(e2e_stats):
    lines = []
    all_ok = True
    for family in E2E_FAMILIES:
        for delta in (16, 24, 32):
            runs = [s for s in e2e_stats if s.family == family and s.delta == delta]
            good = sum(s.ok for s in runs)
            lines.append(f"{family}@{delta}:{good}/{len(runs)}")
            if good < 95:
                all_ok = False
    _verdict(
        7,
        "end-to-end coloring verified in >=95/100 seeded runs per family and delta",
        all_ok,
        " ".join(lines),
    )


def test_criterion_09_out_of_palette_invariant(e2e_stats):
    viol = sum(s.out_of_list_violations for s in e2e_stats)
    known_bad = sum(s.known_set_mismatches for s in e2e_stats)
    _verdict(
        9,
        "every vertex colored outside its lists has its full neighborhood stored",
        viol == 0 and known_bad == 0,
        f"{viol} invariant violations, {known_bad} inexact recovered neighborhoods "
        f"across {sum(1 for s in e2e_stats if s.ok)} passing runs",
    )


# -- 8: phase routing ---------------------------------------------------------------


def test_criterion_08_phase_routing_on_mixed():
    expected = {
        ("small", False, "lonely"): 2,
        ("critical", False, "lonely"): 5,
        ("small", False, "friendly"): 6,
        ("critical", True, "lonely"): 4,
    }
    mismatches = 0
    seen_kinds = set()
    for seed in range(10):
        spec = f"mixed:delta=16,seed={seed}"
        res = color_run(RunConfig(source=spec, seed=seed, retries=3))
        assert res.status == SUCCESS, res.report
        for c in res.report["cliques"]:
            key = (c["size_class"], bool(c["holey"]), c["kind"])
            seen_kinds.add(key)
            if expected.get(key) != c["responsible_phase"]:
                mismatches += 1
    _verdict(
        8,
        "per-clique responsibility tags on the mixed instance match the routing table",
        mismatches == 0 and seen_kinds == set(expected),
        f"kinds seen: {sorted(seen_kinds)}, {mismatches} mismatches",
    )


# -- 10: single-pass + space accounting -----------------------------------------------


def test_criterion_10_passes_and_space_scaling():
    delta = 16
    bits = []
    passes_ok = True
    for n in (1000, 2000, 4000):
        spec = f"random-regular:delta={delta},n={n},seed=1"
        res = color_run(RunConfig(source=spec, seed=1, retries=3))
        assert res.status == SUCCESS, res.report
        if res.report["attempts"] == 1 and res.report["passes"] != 2:
            passes_ok = False
        bits.append(res.report["space"]["total_bits"])
    ratios = [b / a for a, b in zip(bits, bits[1:])]
    growth_ok = all(r < 3.0 for r in ratios)
    _verdict(
        10,
        "two passes per run; stored bits grow < 3x per doubling of n at fixed delta",
        passes_ok and growth_ok,
        f"bits={bits} ratios={[round(r, 2) for r in ratios]}",
    )


# -- 11: colorful matching ---------------------------------------------------------


def test_criterion_11_colorful_matching_size():
    delta = 32
    t = delta
    hits = 0
    targets = set()
    for seed in range(100):
        inst = generate_instance("holey-clique", delta, count=1, seed=seed, t=t)
        oracle = oracle_from_edges(inst.n, inst.edges)
        params = ParamSet.desk(inst.n, delta)
        pal = sample_palettes(inst.n, delta, params, seed=seed)
        K = list(range(inst.n))
        F = [
            (a, b)
            for a in K
            for b in K
            if a < b and not has_edge(oracle, a, b)
        ]
        target = max(1, math.ceil(len(F) / (10 * params.eps * delta)))
        targets.add(target)
        C = PartialColoring(inst.n, delta, oracle)  # every edge stored
        trials = colorful_matchings(C, pal.l4, [F])[0]
        assert len(trials) == params.beta
        for matched in trials:
            for a, b, _ in matched:
                assert not has_edge(oracle, a, b)
        best = max(len(matched) for matched in trials)
        if best >= target:
            hits += 1
    _verdict(
        11,
        "best-of-beta shared-color non-edge matching reaches the target size in >=90/100 seeds",
        hits >= 90,
        f"{hits}/100 seeds with planted t={t} at delta={delta}, targets={sorted(targets)}",
    )
