"""Spans and counters recorded around bifurcrl's public callables.

The wrappers are installed only in a traced run. Each one replaces a callable
where its callers look it up (a class attribute or a module attribute) and
records a span: name, start, end, parent span and the iteration id current
when it started. Spans stay in memory and are written out when the run ends.
A layer's self time is its span's duration minus the durations of its
children.
"""
from __future__ import annotations

import time
from collections import Counter

import numpy as np

from bifurcrl import actor as actor_mod
from bifurcrl import autodiff as ad
from bifurcrl import checkpoint as checkpoint_mod
from bifurcrl import critic as critic_mod
from bifurcrl import distributions as dists
from bifurcrl import nets
from bifurcrl import replay
from bifurcrl import runner
from bifurcrl import topology
from bifurcrl import trainer as trainer_mod

# iteration ids of spans outside the timed training iterations (which are
# numbered from 0)
SETUP = -1
DIAGNOSE = -2

# (owner, attribute, span name); every span of one name is one layer
SPANS = (
    (ad.Tensor, "backward", "autodiff.backward"),
    (ad, "gelu", "autodiff.gelu"),
    (ad, "matmul", "autodiff.matmul"),
    (nets.MlpNetwork, "forward", "nets.mlp_forward"),
    (nets.AdamState, "step", "nets.adam"),
    (trainer_mod, "soft_update", "nets.soft_update"),
    (nets.SpectralNormalizer, "effective_weight", "nets.spectral"),
    (nets.SpectralNormalizer, "refresh", "nets.spectral"),
    (critic_mod.CriticPair, "forward", "critic.forward"),
    (critic_mod, "critic_loss", "critic.loss"),
    (actor_mod, "reverse_kl_loss", "actor.reverse_kl"),
    (actor_mod, "forward_kl_loss", "actor.forward_kl"),
    (actor_mod.PolicyNetwork, "forward", "actor.policy_forward"),
    (dists, "gmm_sample", "distributions.sample"),
    (dists, "gmm_log_prob", "distributions.log_prob"),
    (dists, "log_prob_pre", "distributions.log_prob"),
    (dists, "squash_action", "distributions.squash"),
    (replay.ReplayBuffer, "push", "replay.push"),
    (replay.ReplayBuffer, "sample_batch", "replay.sample"),
    (trainer_mod.Trainer, "train_iteration", "trainer"),
    (trainer_mod, "evaluate", "trainer.evaluate"),
    (trainer_mod, "bifurcation_scan", "trainer.scan"),
    (topology, "infeasibility_witness", "topology.witness"),
    (checkpoint_mod, "save_checkpoint", "checkpoint.save"),
    (runner, "load_checkpoint", "checkpoint.load"),
)

# (owner, attribute, counter name): calls counted, no span
COUNTS = (
    (ad.Tensor, "__init__", "autodiff.nodes"),
    (critic_mod.CriticPair, "q_min", "critic.q_min_calls"),
)


class Tracer:
    """In-memory span and counter store with patch/unpatch of the wrappers."""

    def __init__(self):
        self.enabled = True
        self.phase = "setup"
        self.iteration_id = SETUP
        self.counts = Counter()  # (name, phase) -> count
        self._name_ids = {}
        self._names = []
        self._name = []
        self._start = []
        self._end = []
        self._parent = []
        self._iteration = []
        self._stack = []
        self._patched = []

    # -- recording -------------------------------------------------------
    def _span_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def span(self, name, fn):
        nid = self._span_id(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self._start)
            self._name.append(nid)
            self._parent.append(stack[-1] if stack else -1)
            self._iteration.append(self.iteration_id)
            self._start.append(0.0)
            self._end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self._start[idx] = t0
                self._end[idx] = t1

        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.enabled:
                counts[name, self.phase] += 1
            return fn(*args, **kwargs)

        return counted

    def langevin(self, fn):
        """Span around langevin_sample that also counts chains, chain steps
        and restarted chains (read from its return value)."""
        inner = self.span("actor.langevin", fn)
        counts = self.counts

        def traced(critic, policy, states, alpha, n_steps, *args, **kwargs):
            out = inner(critic, policy, states, alpha, n_steps, *args, **kwargs)
            if self.enabled:
                counts["actor.langevin_chains", self.phase] += len(np.atleast_2d(states))
                counts["actor.langevin_steps", self.phase] += n_steps
                counts["actor.langevin_restarts", self.phase] += out[1]
            return out

        return traced

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, env_cls):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        for owner, attr, name in COUNTS:
            self._patch(owner, attr, self.counter(name, getattr(owner, attr)))
        self._patch(actor_mod, "langevin_sample",
                    self.langevin(actor_mod.langevin_sample))
        step = self.span("envs.step", env_cls.step)
        self._patch(env_cls, "step", self.counter("envs.steps", step))
        self._patch(env_cls, "reset", self.counter("envs.resets", env_cls.reset))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name": np.asarray(self._name, dtype=np.int32),
            "start": np.asarray(self._start),
            "end": np.asarray(self._end),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "iteration": np.asarray(self._iteration, dtype=np.int64),
        }

    def self_times(self, iterations) -> dict:
        """Self seconds per span name over spans whose iteration id passes
        the `iterations` predicate (a function of the id array)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child],
                              minlength=dur.size)
        own = dur - covered
        keep = iterations(a["iteration"])
        totals = np.bincount(a["name"][keep], weights=own[keep],
                             minlength=len(self._names))
        return {name: float(totals[i]) for i, name in enumerate(self._names)}

    def durations(self, name, iterations) -> np.ndarray:
        a = self.arrays()
        keep = (a["name"] == self._name_ids[name]) & iterations(a["iteration"])
        return (a["end"] - a["start"])[keep]

    def save(self, path):
        np.savez_compressed(path, names=np.asarray(self._names), **self.arrays())
