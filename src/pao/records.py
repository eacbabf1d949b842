"""Run records: per-generation convergence history of one optimiser run,
plus JSONL persistence.

Serialised schema (one JSON object per line):

    {run_id, optimizer, problem, dim, seed, pop, gens, evals, params,
     history: [{g, best, mean, shifted_best}], duration_ms}

``params`` records the hyperparameters the run actually used.  Extra
in-memory fields (per-generation best position, noise scale) are not
serialised.
"""

import json
from dataclasses import dataclass, field


@dataclass
class RunRecord:
    run_id: str
    optimizer: str
    problem: str
    dim: int
    seed: int
    pop: int
    gens: int
    evals: int
    history: list
    duration_ms: float = 0.0
    params: dict = field(default_factory=dict)
    # not serialised:
    best_pos: list = field(default_factory=list, repr=False)
    nu: list = field(default_factory=list, repr=False)

    def final_best(self) -> float:
        return self.history[-1]["best"]

    def final_shifted_best(self) -> float:
        return self.history[-1]["shifted_best"]

    def check(self):
        """Raise if the record violates its contract."""
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
        out = {
            "run_id": self.run_id,
            "optimizer": self.optimizer,
            "problem": self.problem,
            "dim": self.dim,
            "seed": self.seed,
            "pop": self.pop,
            "gens": self.gens,
            "evals": self.evals,
            "params": self.params,
            "history": self.history,
        }
        if include_duration:
            out["duration_ms"] = self.duration_ms
        return out


def history_entry(g: int, best: float, mean: float, shifted_best: float) -> dict:
    return {"g": g, "best": best, "mean": mean, "shifted_best": shifted_best}


def write_jsonl(records, path, include_duration: bool = True):
    """Write records one JSON object per line (streams through one writer)."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict(include_duration=include_duration)))
            fh.write("\n")


def read_jsonl(path):
    """Read records written by :func:`write_jsonl`."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            records.append(
                RunRecord(
                    run_id=obj["run_id"],
                    optimizer=obj["optimizer"],
                    problem=obj["problem"],
                    dim=obj["dim"],
                    seed=obj["seed"],
                    pop=obj["pop"],
                    gens=obj["gens"],
                    evals=obj["evals"],
                    history=obj["history"],
                    duration_ms=obj.get("duration_ms", 0.0),
                    params=obj.get("params", {}),
                )
            )
    return records
