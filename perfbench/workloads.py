"""The four benchmark workloads, each a sequence of identical units.

A workload object is built from the run seed (its set-up), hands out the
untimed inputs of unit ``i`` with ``inputs``, makes the timed public
calls with ``unit``, and checks one unit's outputs with ``check`` outside
the timed region.  ``check`` returns ``(ok, record)``: ``ok`` is the
per-unit invariant and ``record`` is the exact (integer or boolean) data
the aggregate ``gate`` needs.  ``gate`` applies the acceptance criterion's
threshold unchanged.

Layer functions are called through their module attributes, so the
traced run's wrappers see every call the benchmark makes itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from prulab import distinguisher, linalg, nets, stabilizer, tomography
from prulab.linalg import RandomSeed
from prulab.util import wilson_interval

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())["workloads"]

#: child index of the untimed warm-up unit, far from any timed unit index
WARMUP = 1 << 40


class CollideN10:
    """C1: the sqrt(d)-query collision test, PFC against Haar (urn), n = 10."""

    name = "collide-n10"

    def __init__(self, seed: int):
        self.params = SPEC[self.name]["params"]
        self.seed = RandomSeed(seed)
        p = self.params
        side = p["trials"] * p["k_blocks"]
        self.expected_counts = {
            ("distinguisher.HaarUrnOracle.draw.calls", "distinguisher.PFCOracle.draw.calls"): 2 * side,
            ("distinguisher.HaarUrnOracle.draw.shots", "distinguisher.PFCOracle.draw.shots"): 2 * side * p["t"],
            ("distinguisher.run_collision_distinguisher.calls",): 2 * p["trials"],
            ("ensembles.sample_pfc.calls",): p["trials"],
        }

    def inputs(self, i: int):
        return self.seed.child(i)

    def unit(self, seed):
        return distinguisher.pfc_distinguish_experiment(seed=seed, **self.params)

    def check(self, rep):
        ok = (rep.trials == self.params["trials"] == 1
              and rep.params.k_blocks == self.params["k_blocks"]
              and rep.haar_rate in (0.0, 1.0) and rep.pfc_rate in (0.0, 1.0))
        return ok, [int(rep.haar_rate), int(rep.pfc_rate)]

    def gate(self, records):
        n = len(records)
        haar_rate = sum(r[0] for r in records) / n
        pfc_rate = sum(r[1] for r in records) / n
        advantage = abs(haar_rate - (1.0 - pfc_rate))
        ok = haar_rate >= 0.95 and pfc_rate >= 0.25 and advantage >= 0.2
        return ok, {"trials": n, "haar_rate": haar_rate, "pfc_rate": pfc_rate,
                    "advantage": advantage}


class CliffordSupport:
    """C3: full-support statistics of uniform Cliffords at n = 2, 4, 6."""

    name = "clifford-support"

    def __init__(self, seed: int):
        self.params = SPEC[self.name]["params"]
        self.seed = RandomSeed(seed)
        draws = self.params["per_n"] * len(self.params["n_values"])
        self.expected_counts = {
            ("stabilizer.random_clifford_rng.calls",): draws,
            ("stabilizer.measurement_support.calls",): draws,
        }

    def inputs(self, i: int):
        return self.seed.child(i).generator()

    def unit(self, rng):
        per_n = self.params["per_n"]
        return [[stabilizer.measurement_support(stabilizer.random_clifford_rng(n, rng)).k_dim
                 for _ in range(per_n)]
                for n in self.params["n_values"]]

    def check(self, k_dims):
        ns = self.params["n_values"]
        ok = all(0 <= k <= n for n, ks in zip(ns, k_dims) for k in ks)
        return ok, [sum(k == n for k in ks) for n, ks in zip(ns, k_dims)]

    def gate(self, records):
        samples = len(records) * self.params["per_n"]
        ok = True
        out = {"samples_per_n": samples}
        for j, n in enumerate(self.params["n_values"]):
            rate = sum(r[j] for r in records) / samples
            lower = stabilizer.full_support_probability(n)
            ok = ok and rate >= max(lower, math.exp(-1)) - 0.02
            out[f"rate_n{n}"] = rate
            out[f"lower_n{n}"] = lower
        return ok, out


class TomographyD4:
    """C8: shadow-based unitary tomography of a Haar d = 4 channel."""

    name = "tomography-d4"

    def __init__(self, seed: int):
        self.params = SPEC[self.name]["params"]
        self.seed = RandomSeed(seed)
        p = self.params
        self.planned = tomography.planned_queries(p["d"], p["eps"], p["eta"])
        self.expected_counts = {
            ("tomography.ChannelOracle.apply.calls",): self.planned,
            ("tomography.naive_process_tomography.calls",): 1,
            ("linalg.haar_unitary.calls",): 1,
        }

    def inputs(self, i: int):
        s = self.seed.child(i)
        return s.child(0), s.child(1)

    def unit(self, seeds):
        p = self.params
        u = linalg.haar_unitary(p["d"], seeds[0])
        oracle = tomography.ChannelOracle(u)
        res = tomography.naive_process_tomography(oracle, p["eps"], p["eta"], seeds[1])
        return u, oracle, res

    def check(self, out):
        u, oracle, res = out
        ok = res.queries_used == self.planned == oracle.queries
        failed = linalg.diamond_distance_unitaries(u, res.u_hat) > self.params["eps"]
        return ok, int(failed)

    def gate(self, records):
        n = len(records)
        fails = sum(records)
        _, half = wilson_interval(fails, n)
        cap = self.params["eta"] + half
        return fails / n <= cap, {"trials": n, "failures": fails, "cap": cap}


class NetsCover:
    """C7: nearest-element distance and 2 eps pair covering against a
    2000-element d = 2 Haar net."""

    name = "nets-cover"

    def __init__(self, seed: int):
        p = self.params = SPEC[self.name]["params"]
        self.seed = RandomSeed(seed)
        d = p["d"]
        self.net = nets.NetSpec.haar_sample(d, p["net_size"], self.seed.child(0))
        tune = self.seed.child(1)
        dists = [nets.min_diamond_distance(linalg.haar_unitary(d, tune.child(i)), self.net)[0]
                 for i in range(p["tune_samples"])]
        self.eps = float(np.quantile(dists, p["tune_quantile"]))
        self.expected_counts = {
            ("nets.cover_with_product.calls",): 1,
            ("nets.cover_with_product.pairs",): p["net_size"] ** 2,
            ("nets.min_diamond_distance.calls",): 1,
            ("linalg.haar_unitary.calls",): 1,
        }

    def inputs(self, i: int):
        return self.seed.child(3).child(i)

    def unit(self, seed):
        u = linalg.haar_unitary(self.params["d"], seed)
        nearest, _ = nets.min_diamond_distance(u, self.net)
        _, _, cover = nets.cover_with_product(u, self.net)
        return nearest, cover

    def check(self, out):
        nearest, cover = out
        return cover <= 2 * self.eps, int(nearest > self.eps)

    def gate(self, records):
        p = self.params
        cov = nets.exposure_estimate(self.net, self.eps, p["exposure_samples"], self.seed.child(2))
        lo, hi = p["eta_range"]
        return lo <= cov.eta_hat <= hi, {"eps": self.eps, "eta_hat": cov.eta_hat,
                                         "unit_exposure": sum(records) / len(records)}


WORKLOADS = {w.name: w for w in (CollideN10, CliffordSupport, TomographyD4, NetsCover)}
