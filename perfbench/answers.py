"""Normalize covpkit answers into the plain shapes ``verify`` checks.

An answer reaches the benchmark either as a library object (in-process
workloads) or as the JSON a ``covpkit`` process prints (the CLI workload).
Both are reduced here to the same dicts, so one set of checks serves both.
Only public attributes and the documented CLI schema are read.
"""

from __future__ import annotations

import json

ASSIGNMENT = ("axial_fast", "planar_p2", "brute")


def _verdict(holds, common_value, witness, witness_values, provisional=False, vacuous=False):
    return {
        "holds": holds, "common_value": common_value, "witness": witness,
        "witness_values": witness_values, "provisional": provisional, "vacuous": vacuous,
    }


def _alphas(blocks):
    return [([tuple(e) for e in edges], alpha) for edges, alpha in blocks]


def _certificate(cert):
    if cert is None:
        return None
    out = dict(cert)
    if "alphas" in out:
        out["alphas"] = _alphas(out["alphas"])
    return out


def from_object(op, result) -> dict:
    """Answer of an in-process call."""
    kind = op["kind"]
    if kind in ASSIGNMENT:
        witness = [list(f.tuples) for f in result.witness] if result.witness else None
        values = list(result.witness_values) if result.witness_values else None
        return _verdict(result.holds, result.common_value, witness, values,
                        result.provisional, result.vacuous)
    if kind in ("decompose", "axial_tp"):
        dec = result.decomposition
        return {
            "decomposable": dec is not None,
            "components": [(Q, list(c.data)) for Q, c in dec.components] if dec else None,
            "witness": list(result.witness) if result.witness is not None else None,
        }
    if kind == "reduce":
        return {
            "z": result.z,
            "vectors": [list(c.data) for _, c in result.vectors.components],
            "reduced": list(result.reduced.data),
        }
    if kind == "graph":
        witness = [list(sol) for sol in result.witness] if result.witness else None
        values = list(result.witness_values) if result.witness_values else None
        out = _verdict(result.holds, result.common_value, witness, values)
        out["certificate"] = _certificate(result.certificate)
        return out
    if kind == "conjecture":
        return {k: getattr(result, k) for k in
                ("solution_count", "complete", "vacuous", "covp_dim", "savs_dim", "equal")}
    if kind == "space_dimension":
        return {"dimension": result}
    if kind == "rank_md":
        seq = result.sequence
        return {"rank": result.rank, "z": list(seq.z), "u": list(seq.u), "v": list(seq.v),
                "m_prime_det": result.m_prime_det}
    raise ValueError(f"no in-process form for {kind!r}")


def from_cli(op, stdout: str) -> dict:
    """Answer printed by ``covpkit`` (default JSON output)."""
    obj = json.loads(stdout)
    kind = op["kind"]
    if kind in ASSIGNMENT:
        witness = obj.get("witness")
        if witness is not None:
            witness = [[tuple(t) for t in sol] for sol in witness]
        return _verdict(obj["holds"], obj["common_value"], witness, obj.get("witness_values"),
                        obj["provisional"], obj["vacuous"])
    if kind in ("decompose", "axial_tp"):
        ok = obj["decomposable"] if kind == "decompose" else obj["holds"]
        comps = None
        if ok:
            comps = [(tuple(c["Q"]), c["data"]) for c in obj["decomposition"]["components"]]
        return {"decomposable": ok, "components": comps, "witness": obj.get("witness")}
    if kind == "reduce":
        vectors = sorted(obj["vectors"], key=lambda v: v["axis"])
        return {"z": obj["z"], "vectors": [v["values"] for v in vectors],
                "reduced": obj["reduced"]["data"]}
    if kind == "graph":
        out = _verdict(obj["holds"], obj.get("common_value"), obj.get("witness"),
                       obj.get("witness_values"))
        cert = obj.get("certificate")
        if cert is not None and "alphas" in cert:
            cert = dict(cert, alphas=_alphas((b["edges"], b["alpha"]) for b in cert["alphas"]))
        out["certificate"] = cert
        return out
    if kind == "savs_dim":
        return {"dimension": obj["dimension"]}
    if kind == "repro":
        return {"claims": obj["claims"]}
    raise ValueError(f"no CLI form for {kind!r}")


def tally_key(answer: dict):
    """The verdict an answer states, for the per-pass tallies."""
    for key in ("holds", "decomposable"):
        if key in answer:
            return "holds" if answer[key] else "fails"
    return "answered"
