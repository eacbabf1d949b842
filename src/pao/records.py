"""Run records: per-generation convergence history of one optimiser run,
plus JSONL persistence.

Serialised schema (one JSON object per line):

    {run_id, optimizer, problem, dim, seed, pop, gens, evals, params,
     history: [{g, best, mean, shifted_best}], duration_ms}

``params`` records the hyperparameters the run actually used.
``SERIALISED_FIELDS`` lists these keys in file order; both directions of the
round trip are built from it.  The one field kept in memory only is
``best_pos``, the best position after each generation.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields

from .benchmarks import PROBLEM_NAMES
from .settings import setting, to_int

SERIALISED_FIELDS = (
    "run_id", "optimizer", "problem", "dim", "seed", "pop", "gens", "evals", "params", "history",
    "duration_ms",
)

_HISTORY_KEYS = {"g", "best", "mean", "shifted_best"}
# plain type tests: numbers.Real checks cost about five times as much per record
_NUMBER = (int, float)
# declared type -> (the types a read value may have, its name in errors);
# tested by type(), so a bool is no count
_READ_TYPES = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    float: (_NUMBER, "a number"),
    list: ((list,), "a list"),
    dict: ((dict,), "a dict"),
}


@dataclass
class RunRecord:
    run_id: str
    optimizer: str
    problem: str
    dim: int = setting(MISSING, ">= 1")
    seed: int = setting(MISSING, ">= 0")
    pop: int = setting(MISSING, ">= 1")
    gens: int = setting(MISSING, ">= 0")
    evals: int
    history: list
    duration_ms: float = 0.0
    params: dict = field(default_factory=dict)
    # not serialised:
    best_pos: list = field(default_factory=list, repr=False)

    def final_best(self) -> float:
        return self.history[-1]["best"]

    def final_shifted_best(self) -> float:
        return self.history[-1]["shifted_best"]

    def check(self):
        """Raise ``ValueError`` naming the run if the record violates its
        contract: every serialised field of its declared type (a count is an
        int, not a bool); an optimizer name with no comma, double quote or
        line break, which would break the plot CSV; a catalogue problem; dim
        and pop >= 1, gens and seed >= 0, and the pop * (gens + 1)
        evaluations every run makes; a history list of gens + 1 entries
        ``{g, best, mean, shifted_best}``, g the entry's index, with finite
        bests and a numeric mean (the mean of finite values may overflow); a
        best that never rises; a shifted best never below zero."""
        for f in _SERIALISED:
            value = getattr(self, f.name)
            types, noun = _READ_TYPES[f.type]
            if type(value) not in types:
                raise ValueError(f"{self.run_id}: {f.name} must be {noun}, got {value!r}")
            if "domain" in f.metadata:
                to_int(f"{self.run_id}: {f.name}", value, f.metadata["domain"])
        if any(c in self.optimizer for c in ',"\r\n'):
            raise ValueError(
                f"{self.run_id}: optimizer must hold no comma, quote or line break, got {self.optimizer!r}"
            )
        if self.problem not in PROBLEM_NAMES:
            raise ValueError(f"{self.run_id}: problem must be one of {PROBLEM_NAMES}, got {self.problem!r}")
        if self.evals != self.pop * (self.gens + 1):
            raise ValueError(
                f"{self.run_id}: evals must be pop * (gens + 1) = {self.pop * (self.gens + 1)}, got {self.evals}"
            )
        for g, h in enumerate(self.history):
            if type(h) is not dict or h.keys() != _HISTORY_KEYS or type(h["g"]) is not int or h["g"] != g:
                raise ValueError(
                    f"{self.run_id}: history entry {g} is not {{g: {g}, best, mean, shifted_best}}: {h!r}"
                )
            if not (
                type(h["best"]) in _NUMBER and math.isfinite(h["best"])
                and type(h["shifted_best"]) in _NUMBER and math.isfinite(h["shifted_best"])
                and type(h["mean"]) in _NUMBER
            ):
                raise ValueError(
                    f"{self.run_id}: history entry {g} needs finite numeric bests and a numeric mean: {h!r}"
                )
        if len(self.history) != self.gens + 1:
            raise ValueError(
                f"{self.run_id}: {len(self.history)} history entries for {self.gens} generations"
            )
        best = [h["best"] for h in self.history]
        if any(b2 > b1 for b1, b2 in zip(best, best[1:])):
            raise ValueError(f"{self.run_id}: best-fitness sequence is not non-increasing")
        for h in self.history:
            # the problem's optimum is best - shifted_best
            if h["shifted_best"] < -1e-9 * max(1.0, abs(h["best"] - h["shifted_best"])):
                raise ValueError(
                    f"{self.run_id}: shifted best {h['shifted_best']} lies below the optimum at g={h['g']}"
                )

    def to_json_dict(self, include_duration: bool = True) -> dict:
        skip = () if include_duration else ("duration_ms",)
        return {key: getattr(self, key) for key in SERIALISED_FIELDS if key not in skip}


_SERIALISED = tuple(f for f in fields(RunRecord) if f.name in SERIALISED_FIELDS)
# the serialised fields without a default: a line must give each of them
_REQUIRED_FIELDS = tuple(f.name for f in _SERIALISED if f.default is MISSING and f.default_factory is MISSING)


def history_entry(g: int, best: float, mean: float, shifted_best: float) -> dict:
    return {"g": g, "best": best, "mean": mean, "shifted_best": shifted_best}


def write_jsonl(records, path):
    """Write records one JSON object per line (streams through one writer)."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict()))
            fh.write("\n")


def read_jsonl(path):
    """Read records written by :func:`write_jsonl`; a missing ``params`` or
    ``duration_ms`` takes the field's default.  A line that is not a JSON
    object (a truncated last line, as a killed run leaves, or any other
    value), that lacks any other field or whose record fails
    :meth:`RunRecord.check` raises ``ValueError`` naming the file and the
    line."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}, line {lineno}: not JSON ({err})") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}, line {lineno}: not a JSON object: {line[:80]}")
            missing = [key for key in _REQUIRED_FIELDS if key not in obj]
            if missing:
                raise ValueError(f"{path}, line {lineno}: record lacks the keys {missing}")
            rec = RunRecord(**{key: obj[key] for key in SERIALISED_FIELDS if key in obj})
            try:
                rec.check()
            except ValueError as err:
                raise ValueError(f"{path}, line {lineno}: {err}") from None
            records.append(rec)
    return records
