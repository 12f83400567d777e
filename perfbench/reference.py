"""Reference results and the output checker.

The references are computed here, from the descriptor JSON, with plain numpy
(``numpy.linalg.eigvals`` for every radius, brute-force word products,
policy iteration for the simplex optimum) and never with the program's fast
paths.  They reproduce the program's conventions at the commit that defined
this benchmark: members are indexed in the program's expansion order (row
sets and deduplicated sets sorted lexicographically, IRU members enumerated
with the first row position slowest, chains kept in order), a word
(i1, ..., in) denotes A_in ... A_i1, radius sequences run over the
lexicographically least rotation of each word, and the first extremal word
or member wins.

Values are compared with the acceptance suite's tolerance, scaled to the
value: |got - want| <= 1e-8 * max(1, |want|).  Words, selections, member
indices, verdicts and exit codes are compared exactly; where the reference
finds several candidates within the value tolerance of the extremum (a tie
at that tolerance), any of them is accepted.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from pathlib import Path

import numpy as np

VALUE_TOL = 1e-8
EXIT_OK = 0
EXIT_CHECK_FAILED = 2


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


def tol_for(x: float) -> float:
    return VALUE_TOL * max(1.0, abs(float(x)))


def _close(got, want, what: str):
    if not abs(float(got) - float(want)) <= tol_for(want):
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def _equal(got, want, what: str):
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


# --------------------------------------------------------------------------
# Expansion in the program's member order.
def _lexsorted(mats: np.ndarray) -> np.ndarray:
    k = mats.shape[0]
    flat = mats.reshape(k, -1)
    scale = float(np.abs(flat).max()) if flat.size else 0.0
    tol = 1e-12 * (1.0 + scale)
    if k > 1 and np.unique(np.round(flat / tol), axis=0).shape[0] != k:
        raise ValueError("generated set has near-duplicate members")
    return mats[np.lexsort(flat.T[::-1])]


def sorted_row_sets(obj: dict) -> list[np.ndarray]:
    return [_lexsorted(np.asarray(rs, dtype=float)[:, None, :])[:, 0, :]
            for rs in obj["row_sets"]]


def expand(obj: dict) -> np.ndarray:
    """Members of a descriptor node, as a (k, n, m) array."""
    kind = obj["type"]
    if kind == "iru":
        rows = sorted_row_sets(obj)
        sizes = tuple(r.shape[0] for r in rows)
        idx = np.unravel_index(np.arange(math.prod(sizes)), sizes)
        return np.stack([r[i] for r, i in zip(rows, idx)], axis=1)
    if kind == "chain":
        return np.asarray(obj["matrices"], dtype=float)
    if kind == "explicit":
        return _lexsorted(np.asarray(obj["matrices"], dtype=float))
    if kind == "scale":
        return float(obj["factor"]) * expand(obj["child"])
    parts = [expand(c) for c in obj["children"]]
    if kind == "sum":
        def step(a, b):
            n, m = a.shape[1:]
            return _lexsorted((a[:, None] + b[None, :]).reshape(-1, n, m))
    elif kind == "product":
        def step(a, b):
            prods = np.einsum("aij,bjk->abik", a, b)
            return _lexsorted(prods.reshape(-1, a.shape[1], b.shape[2]))
    else:
        raise ValueError(f"unsupported descriptor node {kind!r}")
    return reduce(step, parts)


def radii(mats: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvals(mats)).max(axis=1)


def _ties(values: np.ndarray, extreme: float) -> np.ndarray:
    return np.flatnonzero(np.abs(values - extreme) <= tol_for(extreme))


# --------------------------------------------------------------------------
# Words.
def _word_table(mats: np.ndarray, n: int):
    """All m**n words in lexicographic order with their products."""
    m = mats.shape[0]
    prods = mats.copy()
    for _ in range(1, n):
        # word (w, a) has rank rank(w) * m + a and product A_a @ P_w
        prods = np.matmul(mats[None, :], prods[:, None]).reshape(
            -1, *mats.shape[1:])
    words = np.stack(np.unravel_index(np.arange(m ** n), (m,) * n), axis=1)
    return words, prods


def _representatives(words: np.ndarray, m: int) -> np.ndarray:
    n = words.shape[1]
    weights = m ** np.arange(n - 1, -1, -1)
    ranks = words @ weights
    keep = np.ones(len(words), dtype=bool)
    for r in range(1, n):
        keep &= ranks <= np.roll(words, -r, axis=1) @ weights
    return keep


def word_extrema(mats: np.ndarray, n: int, want_norms: bool = False) -> dict:
    """Extremal n-th root radii over cyclic representatives (with the
    candidate words within tolerance), and optionally the norm roots."""
    words, prods = _word_table(mats, n)
    reps = _representatives(words, mats.shape[0])
    vals = radii(prods[reps]) ** (1.0 / n)
    rep_words = words[reps]
    out = {}
    for direction, pick in (("max", np.argmax), ("min", np.argmin)):
        i = int(pick(vals))
        out[direction] = (
            float(vals[i]),
            {tuple(int(x) for x in rep_words[j]) for j in _ties(vals, vals[i])},
        )
    if want_norms:
        norms = np.abs(prods).sum(axis=1).max(axis=1) ** (1.0 / n)
        out["norm_max"] = float(norms.max())
        out["norm_min"] = float(norms.min())
    return out


def _check_word(got, want: tuple, what: str):
    value, candidates = want
    if tuple(got) not in candidates:
        raise Mismatch(f"{what}: word {tuple(got)} not among {sorted(candidates)}")


# --------------------------------------------------------------------------
# Simplex optimum by policy iteration with exact eigenpairs.
def _perron(a: np.ndarray) -> tuple[float, np.ndarray]:
    vals, vecs = np.linalg.eig(a)
    i = int(np.argmax(vals.real))
    v = np.abs(vecs[:, i].real)
    return float(np.abs(vals).max()), v / v.sum()


def simplex_reference(rows: list[np.ndarray], direction: str) -> dict:
    sign = 1.0 if direction == "max" else -1.0
    sel = [0] * len(rows)
    for _ in range(10_000):
        a = np.stack([r[j] for r, j in zip(rows, sel)])
        rho, v = _perron(a)
        nxt = list(sel)
        for i, r in enumerate(rows):
            scores = sign * (r @ v)
            j = int(scores.argmax())
            if scores[j] - scores[sel[i]] > 1e-13 * abs(scores[j]):
                nxt[i] = j
        if nxt == sel:
            return {"rho": rho, "selection": sel}
        sel = nxt
    raise RuntimeError("reference policy iteration did not settle")


# --------------------------------------------------------------------------
# Per-command references.
def _load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def sandwich_draws(seed: int, k: int, samples: int) -> list:
    """The (member indices, weights) of the program's convex combinations."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        idx = rng.integers(0, k, size=k)
        if k == 1:
            w = np.ones(1)
        else:
            cuts = np.sort(rng.uniform(size=k - 1))
            w = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        draws.append((idx, w))
    return draws


def _finiteness_reference(mats: np.ndarray, p: dict) -> dict:
    r = radii(mats)
    rho_min, rho_max = float(r.min()), float(r.max())
    n_max, tol = p["n_max"], p["tol"]

    def run(target, n, sandwich):
        ext = word_extrema(target, n)
        tol_n = n * tol * max(1.0, rho_max)
        cv, hv = ext["min"][0], ext["max"][0]
        return {"n": n, "sandwich": sandwich, "min": ext["min"],
                "max": ext["max"], "tol_n": tol_n,
                "ok": abs(cv - rho_min) <= tol_n and abs(hv - rho_max) <= tol_n}

    checks = [run(mats, n, False) for n in range(1, n_max + 1)]
    if p["sandwich_samples"] > 0:
        extra = [np.einsum("j,jnm->nm", w, mats[idx])
                 for idx, w in sandwich_draws(p["seed"], mats.shape[0],
                                              p["sandwich_samples"])]
        enlarged = _lexsorted(np.concatenate([mats, np.stack(extra)]))
        checks += [run(enlarged, n, True)
                   for n in range(1, min(3, n_max) + 1)]
    return {
        "rho_min": rho_min, "rho_max": rho_max,
        "argmin": set(_ties(r, rho_min).tolist()),
        "argmax": set(_ties(r, rho_max).tolist()),
        "checks": checks, "passed": all(c["ok"] for c in checks),
    }


def _probe_reference(mats: np.ndarray, trials: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    violations = []
    for t in range(trials):
        center = int(rng.integers(0, mats.shape[0]))
        u = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=mats.shape[2]))
        v = mats[center] @ u
        stol = 1e-9 * max(1.0, float(np.abs(v).max()))
        images = mats @ u
        for sign, direction in ((+1, "H1"), (-1, "H2")):
            gaps = sign * (v[None, :] - images)
            if bool((gaps <= stol).all()):
                continue
            beyond = (gaps >= -stol).all(axis=1) & (gaps.max(axis=1) > stol)
            if bool(beyond.any()):
                continue
            violations.append((t, direction, center))
    return violations


def _hausdorff_reference(a: np.ndarray, b: np.ndarray, chunk: int = 256):
    """Max-norm Hausdorff distance, chunked so memory stays small."""
    near_ab = np.empty(a.shape[0])
    near_ba = np.full(b.shape[0], np.inf)
    for s in range(0, a.shape[0], chunk):
        d = np.abs(a[s:s + chunk, None] - b[None, :]).max(axis=(2, 3))
        near_ab[s:s + chunk] = d.min(axis=1)
        near_ba = np.minimum(near_ba, d.min(axis=0))
    return near_ab, near_ba


def build_reference(op) -> dict:
    """Reference result for one workload operation."""
    p = op.params
    desc = _load(op.inputs["input"])
    if op.command == "simplex":
        rows = sorted_row_sets(desc)
        ref = simplex_reference(rows, p["direction"])
        ref["rows"] = rows
        return ref
    mats = expand(desc)
    if op.command == "jsr":
        seqs = [word_extrema(mats, n, want_norms=True)
                for n in range(1, p["n_max"] + 1)]
        return {"seqs": seqs}
    if op.command == "finiteness":
        return _finiteness_reference(mats, p)
    if op.command in ("radius", "extremal"):
        r = radii(mats)
        return {"mats": mats, "radii": r}
    if op.command == "hset-probe":
        return {"violations": _probe_reference(mats, p["trials"], p["seed"])}
    if op.command == "hausdorff":
        other = expand(_load(op.inputs["other"]))
        near_ab, near_ba = _hausdorff_reference(mats, other)
        return {"near_ab": near_ab, "near_ba": near_ba}
    raise ValueError(f"no reference for command {op.command!r}")


# --------------------------------------------------------------------------
# The checker.
def check(op, ref: dict, code: int, out: dict | None) -> None:
    """Raise Mismatch unless exit code and output match the reference."""
    expected_code = EXIT_OK
    if op.command == "finiteness" and not ref["passed"]:
        expected_code = EXIT_CHECK_FAILED
    if op.command == "hset-probe" and ref["violations"]:
        expected_code = EXIT_CHECK_FAILED
    _equal(code, expected_code, "exit code")
    if out is None:
        raise Mismatch("no JSON report on stdout")
    _equal(out.get("command"), op.command, "report command")
    res = out["results"]
    _CHECKERS[op.command](op, ref, res)


def _check_jsr(op, ref, res):
    n_max = op.params["n_max"]
    _equal(res["n_max"], n_max, "n_max")
    for key in ("rho_hat", "rho_check", "norm_upper", "norm_lower",
                "argmax_words", "argmin_words"):
        _equal(len(res[key]), n_max, f"length of {key}")
    for n, seq in enumerate(ref["seqs"]):
        _close(res["rho_hat"][n], seq["max"][0], f"rho_hat[{n + 1}]")
        _close(res["rho_check"][n], seq["min"][0], f"rho_check[{n + 1}]")
        _close(res["norm_upper"][n], seq["norm_max"], f"norm_upper[{n + 1}]")
        _close(res["norm_lower"][n], seq["norm_min"], f"norm_lower[{n + 1}]")
        _check_word(res["argmax_words"][n], seq["max"], f"argmax word n={n + 1}")
        _check_word(res["argmin_words"][n], seq["min"], f"argmin word n={n + 1}")
    _close(res["jsr_bracket"][0], max(s["max"][0] for s in ref["seqs"]),
           "jsr lower bound")
    _close(res["jsr_bracket"][1], min(s["norm_max"] for s in ref["seqs"]),
           "jsr upper bound")
    _close(res["lsr_bracket"][1], min(s["min"][0] for s in ref["seqs"]),
           "lsr upper bound")


def _check_finiteness(op, ref, res):
    _equal(res["passed"], ref["passed"], "finiteness verdict")
    _close(res["rho_min"], ref["rho_min"], "rho_min")
    _close(res["rho_max"], ref["rho_max"], "rho_max")
    _equal(len(res["checks"]), len(ref["checks"]), "number of checks")
    for got, want in zip(res["checks"], ref["checks"]):
        where = f"check n={want['n']} sandwich={want['sandwich']}"
        _equal((got["n"], got["sandwich"]), (want["n"], want["sandwich"]),
               where)
        _close(got["rho_check_n"], want["min"][0], f"{where} rho_check_n")
        _close(got["rho_hat_n"], want["max"][0], f"{where} rho_hat_n")
        _close(got["tol_n"], want["tol_n"], f"{where} tol_n")
        _check_word(got["word_min"], want["min"], f"{where} word_min")
        _check_word(got["word_max"], want["max"], f"{where} word_max")
    _equal([(f["n"], f["sandwich"]) for f in res["failures"]],
           [(c["n"], c["sandwich"]) for c in ref["checks"] if not c["ok"]],
           "failed checks")


def _check_simplex(op, ref, res):
    direction = op.params["direction"]
    _equal(res["direction"], direction, "direction")
    rows = ref["rows"]
    sel = [int(j) for j in res["selection"]]
    _equal(len(sel), len(rows), "selection length")
    if not all(0 <= j < r.shape[0] for j, r in zip(sel, rows)):
        raise Mismatch(f"selection {sel} out of range")
    member = np.stack([r[j] for r, j in zip(rows, sel)])
    if sel != ref["selection"]:
        # accepted only as a tie at the value tolerance
        _close(radii(member[None])[0], ref["rho"], "rho of tied selection")
    _close(res["rho"], ref["rho"], "rho")
    trace = [step["rho"] for step in res["trace"]]
    _equal(res["iterations"], len(trace), "iterations")
    sign = 1.0 if direction == "max" else -1.0
    if not all(sign * (b - a) > 0 for a, b in zip(trace, trace[1:])):
        raise Mismatch("simplex trace is not strictly monotone")

    # Re-verify the certificate from the descriptor rows.
    cert = res["certificate"]
    a = np.asarray(cert["matrix"], dtype=float)
    if not np.array_equal(a, member):
        raise Mismatch("certificate matrix is not the selected member")
    rho = float(cert["rho"])
    _close(rho, ref["rho"], "certificate rho")
    v = np.asarray(cert["eigenvector"], dtype=float)
    if not (np.all(v > 0) and abs(v.sum() - 1.0) <= 1e-12):
        raise Mismatch("certificate eigenvector is not positive and normalized")
    cert_tol = float(cert["cert_tol"])
    exact = 1e-13 * max(1.0, rho)
    residual = float(np.abs(a @ v - rho * v).max())
    if residual > cert_tol or abs(residual - cert["residual"]) > exact:
        raise Mismatch(f"certificate residual {residual!r} does not verify")
    c_sign = 1.0 if direction == "min" else -1.0
    margins = np.concatenate([c_sign * (r @ v - rho * v[i])
                              for i, r in enumerate(rows)])
    got = np.asarray(cert["margins"], dtype=float)
    if got.shape != margins.shape or np.abs(got - margins).max() > exact:
        raise Mismatch("certificate margins do not verify")
    if margins.min() < -cert_tol or abs(cert["worst_margin"] - margins.min()) > exact:
        raise Mismatch("certificate worst margin does not verify")


def _check_extremal(op, ref, res):
    r = ref["radii"]
    direction = op.params["direction"]
    _equal(res["direction"], direction, "direction")
    want = float(r.min() if direction == "min" else r.max())
    _close(res["rho"], want, "rho")
    idx = int(res["member_index"])
    if idx not in set(_ties(r, want).tolist()):
        raise Mismatch(f"member index {idx} is not extremal")
    got = np.asarray(res["matrix"], dtype=float)
    if got.shape != ref["mats"][idx].shape or not np.allclose(
            got, ref["mats"][idx], rtol=1e-12, atol=0.0):
        raise Mismatch("reported matrix is not the indexed member")


def _check_radius(op, ref, res):
    r = ref["radii"]
    _equal(res["count"], len(r), "member count")
    got = np.asarray(res["radii"], dtype=float)
    if np.any(np.abs(got - r) > VALUE_TOL * np.maximum(1.0, np.abs(r))):
        raise Mismatch("member radii differ from the reference")
    _close(res["rho_min"], r.min(), "rho_min")
    _close(res["rho_max"], r.max(), "rho_max")


def _check_probe(op, ref, res):
    _equal(res["trials"], op.params["trials"], "trials")
    got = [(v["trial"], v["direction"], v["center_index"])
           for v in res["violations"]]
    _equal(got, ref["violations"], "probe violations")
    _equal(res["passed"], not ref["violations"], "probe verdict")


def _check_hausdorff(op, ref, res):
    near_ab, near_ba = ref["near_ab"], ref["near_ba"]
    d_ab, d_ba = float(near_ab.max()), float(near_ba.max())
    _close(res["distance"], max(d_ab, d_ba), "distance")
    for key, near, d in (("witness_a_to_b", near_ab, d_ab),
                         ("witness_b_to_a", near_ba, d_ba)):
        idx, value = res[key]
        _close(value, d, key)
        if int(idx) not in set(_ties(near, d).tolist()):
            raise Mismatch(f"{key} index {idx} is not a maximizer")


_CHECKERS = {
    "jsr": _check_jsr,
    "finiteness": _check_finiteness,
    "simplex": _check_simplex,
    "extremal": _check_extremal,
    "radius": _check_radius,
    "hset-probe": _check_probe,
    "hausdorff": _check_hausdorff,
}


def cross_check_exhaustive(op, ref: dict) -> None:
    """Compare the simplex reference with the program's exhaustive oracle,
    ``rho_extremal_exhaustive(iru_enumerate(...))``, on a small family."""
    from hourglass.sets import IruSet, iru_enumerate
    from hourglass.spectral import rho_extremal_exhaustive

    rows = ref["rows"]
    family = iru_enumerate(IruSet(rows))
    value, index = rho_extremal_exhaustive(family, op.params["direction"])
    _close(value, ref["rho"], "exhaustive oracle rho")
    sizes = tuple(r.shape[0] for r in rows)
    want = int(np.ravel_multi_index(tuple(ref["selection"]), sizes))
    if index != want:
        member = family.matrices[index]
        _close(radii(member[None])[0], ref["rho"],
               "rho of the exhaustive oracle's tied member")
