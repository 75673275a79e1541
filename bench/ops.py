"""Turn op specs into calls on the program, and results into plain data.

`prepare` runs before an op's timer starts (it builds the spectra a caller
would already hold), `call` is exactly what is timed, and `encode` turns the
result into JSON-able data for the oracle checks, after the timer stops.
Every program function is looked up at call time through its module, so the
tracing wrappers installed by `tracing.py` are the ones that run.
"""

from __future__ import annotations

import importlib
import io

import entorder.catalysis
import entorder.sampling
from entorder.spectra import make_spectrum

from workloads import STRONG_BOUNDS


def prepare(workload: str, spec: dict):
    if workload == "strong":
        return make_spectrum(spec["a"]), make_spectrum(spec["b"])
    if workload == "topk":
        return make_spectrum(spec["a"]), spec["m"], spec["k"]
    if workload == "sweep":
        return spec["n"], spec["samples"], spec["seed"]
    return list(spec["argv"]), io.StringIO(), io.StringIO()


def call(workload: str, args):
    if workload == "strong":
        return entorder.catalysis.strong_verdict(*args, **STRONG_BOUNDS)
    if workload == "topk":
        return entorder.catalysis.top_k_tensor_power(*args)
    if workload == "sweep":
        return entorder.sampling.incomparability_fraction(*args)
    # The CLI module is imported inside the op: a shell user pays for it.
    return importlib.import_module("entorder.cli").run(*args)


def encode(workload: str, args, result):
    if workload == "strong":
        out = {"outcome": result.outcome.value, "witness": None}
        witness = result.witness
        if isinstance(witness, entorder.catalysis.MultiCopyWitness):
            out["witness"] = {"direction": witness.direction.value,
                              "copies": witness.copies}
        elif isinstance(witness, entorder.catalysis.CatalystWitness):
            out["witness"] = {"direction": witness.direction.value,
                              "catalyst": witness.catalyst.values.tolist()}
        return out
    if workload == "topk":
        return result.tolist()
    if workload == "sweep":
        return {
            "incomparable": result.incomparable_count,
            "forward": result.forward_count,
            "backward": result.backward_count,
            "equivalent": result.equivalent_count,
            "samples": result.samples,
        }
    _, out, err = args
    return {"exit": result, "stdout": out.getvalue(), "stderr": err.getvalue()}
