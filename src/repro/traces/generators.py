"""Seeded trace generators: pathological channel families as time series.

Each generator returns a fully deterministic :class:`LinkTrace` — the
seed pins every sample, so a preset scenario built
from a generator replays bit-identically across runs and platforms
(samples are drawn from a named :class:`~repro.sim.rng.RngStreams`
stream, never from global randomness).

Three families extend the paper's two-path ns-2 setup with the channel
dynamics the related work argues are decisive:

* :func:`gprs_trace` — GPRS-like slow bursty link: a two-state fade
  process alternating a workable ~170 kb/s regime with deep ~30 kb/s
  fades carrying bursty loss (the Fountain-on-GPRS setting where
  rateless codes shine).
* :func:`leo_trace` — LEO-satellite handover: one-way delay climbs in a
  sawtooth as the satellite recedes, then a handover snaps it back
  through a short outage window (bandwidth floor + heavy loss).
* :func:`incast_trace` — datacenter incast: synchronized cross-traffic
  bursts periodically collapse the available bandwidth and spike loss,
  with seeded jitter on the burst times.
* :func:`cellular_trace` / :func:`wifi_trace` — bounded random-walk
  capacity traces in the style of recorded drive/walk tests; fixed
  seeds of these two are bundled as package-data CSV assets.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from repro.sim.rng import RngStreams
from repro.traces.model import LinkTrace, TraceSample


def _stream(family: str, seed: int) -> random.Random:
    return RngStreams(seed).get(f"traces:{family}")


#: How long a generated trace runs before its last sample holds.
DURATION_S = 16.0


def gprs_trace(seed: int, duration_s: float = DURATION_S) -> LinkTrace:
    """GPRS-like slow bursty channel, sampled every 0.5 s: a two-state
    fade process (fade with p 0.15 per step, recover with p 0.4) between
    ~170 kb/s at 1 % loss and ~30 kb/s at 25 % loss, with ~450 ms of
    one-way delay."""
    rng = _stream("gprs", seed)
    samples: List[TraceSample] = []
    bad = False
    t = 0.0
    while t <= duration_s:
        bad = (not bad and rng.random() < 0.15) or (bad and rng.random() >= 0.4)
        base = 30_000.0 if bad else 170_000.0
        samples.append(
            TraceSample(
                time_s=round(t, 6),
                bandwidth_bps=round(base * rng.uniform(0.85, 1.15), 1),
                delay_s=round(0.45 * rng.uniform(0.9, 1.3), 6),
                loss_rate=round(0.25 if bad else 0.01, 6),
            )
        )
        t += 0.5
    return LinkTrace(f"gprs:{seed}", samples, end_policy="hold")


def leo_trace(seed: int) -> LinkTrace:
    """LEO handover: periodic RTT sawtooth with an outage at each switch,
    sampled every 0.25 s.

    Within each ~5 s satellite pass the one-way delay climbs linearly from
    25 ms to 90 ms on a 1.5 Mb/s link; the first 0.5 s of every pass is the
    handover blackout (40 kb/s, 90 % loss). Seeded jitter perturbs each
    pass's period by ±10 %.
    """
    rng = _stream("leo", seed)
    samples: List[TraceSample] = []
    t = 0.0
    pass_start = 0.0
    period = 5.0 * rng.uniform(0.9, 1.1)
    while t <= DURATION_S:
        if t - pass_start >= period:
            pass_start = t
            period = 5.0 * rng.uniform(0.9, 1.1)
        in_outage = (t - pass_start) < 0.5
        frac = min((t - pass_start) / period, 1.0)
        samples.append(
            TraceSample(
                time_s=round(t, 6),
                bandwidth_bps=40_000.0 if in_outage else 1_500_000.0,
                delay_s=round(0.025 + (0.09 - 0.025) * frac, 6),
                loss_rate=0.9 if in_outage else 0.0,
            )
        )
        t += 0.25
    return LinkTrace(f"leo:{seed}", samples, end_policy="hold")


def incast_trace(seed: int) -> LinkTrace:
    """Datacenter incast: synchronized cross-traffic bursts.

    Every ~1.5 s (±15 % seeded jitter) a fan-in burst crushes the
    available 2 Mb/s to 150 kb/s and spikes loss to 15 % for 0.25 s;
    between bursts the channel is clean and fast.
    """
    rng = _stream("incast", seed)
    samples: List[TraceSample] = [
        TraceSample(0.0, bandwidth_bps=2_000_000.0, delay_s=0.002, loss_rate=0.0)
    ]
    t = 1.5 * rng.uniform(0.85, 1.15)
    while t <= DURATION_S:
        start = round(t, 6)
        end = round(t + 0.25, 6)
        samples.append(
            TraceSample(start, bandwidth_bps=150_000.0, delay_s=0.004, loss_rate=0.15)
        )
        if end <= DURATION_S:
            samples.append(
                TraceSample(end, bandwidth_bps=2_000_000.0, delay_s=0.002, loss_rate=0.0)
            )
        t += 1.5 * rng.uniform(0.85, 1.15)
    return LinkTrace(f"incast:{seed}", samples, end_policy="hold")


def cellular_trace(seed: int) -> LinkTrace:
    """Cellular drive-test style capacity, sampled every 0.25 s: a random
    walk from 900 kb/s bounded to [120 kb/s, 2.5 Mb/s], plus deep fades
    to 60 kb/s (p 0.04 per step)."""
    rng = _stream("cellular", seed)
    samples: List[TraceSample] = []
    level = 900_000.0
    t = 0.0
    while t <= DURATION_S:
        level *= rng.uniform(0.8, 1.25)
        level = min(max(level, 60_000.0 * 2), 2_500_000.0)
        fade = rng.random() < 0.04
        samples.append(
            TraceSample(
                time_s=round(t, 6),
                bandwidth_bps=round(60_000.0 if fade else level, 1),
                delay_s=round(0.04 * rng.uniform(0.8, 1.8), 6),
                loss_rate=round(0.08 if fade else 0.002, 6),
            )
        )
        t += 0.25
    return LinkTrace(f"cellular:{seed}", samples, end_policy="hold")


def wifi_trace(seed: int) -> LinkTrace:
    """WiFi walk-test style capacity, sampled every 0.25 s: rate steps as
    the MCS adapts, from 3 Mb/s on a ladder between 250 kb/s and 6 Mb/s."""
    rng = _stream("wifi", seed)
    # 802.11-ish rate ladder scaled into our bandwidth range.
    ladder = [250_000.0, 0.6e6, 1.2e6, 2e6, 3e6, 4.5e6, 6_000_000.0]
    rung = ladder.index(3e6)
    samples: List[TraceSample] = []
    t = 0.0
    while t <= DURATION_S:
        rung += rng.choice((-1, 0, 0, 1))
        rung = min(max(rung, 0), len(ladder) - 1)
        samples.append(
            TraceSample(
                time_s=round(t, 6),
                bandwidth_bps=float(ladder[rung]),
                delay_s=round(0.008 * rng.uniform(0.8, 2.5), 6),
                loss_rate=round(0.12 if rung == 0 else 0.005, 6),
            )
        )
        t += 0.25
    return LinkTrace(f"wifi:{seed}", samples, end_policy="hold")


#: The generator family, keyed by the name ``resolve_trace`` accepts in
#: ``"<family>:<seed>"`` specs.
TRACE_GENERATORS: Dict[str, Callable[..., LinkTrace]] = {
    "gprs": gprs_trace,
    "leo": leo_trace,
    "incast": incast_trace,
    "cellular": cellular_trace,
    "wifi": wifi_trace,
}

#: Bundled package-data assets (``repro/traces/data/<name>.csv``): fixed
#: seeds of the cellular/wifi generators committed as CSV so the replay
#: path exercises real file parsing, not just in-memory objects.
BUNDLED_TRACES = ("cellular_drive", "wifi_walk")

_BUNDLE_RECIPES = {
    "cellular_drive": lambda: cellular_trace(seed=42),
    "wifi_walk": lambda: wifi_trace(seed=42),
}


def load_bundled_trace(name: str) -> LinkTrace:
    """Load one of the bundled CSV assets from package data."""
    if name not in BUNDLED_TRACES:
        raise ValueError(
            f"unknown bundled trace {name!r} (known: {', '.join(BUNDLED_TRACES)})"
        )
    from importlib import resources

    from repro.traces.model import parse_trace_csv

    text = (
        resources.files("repro.traces").joinpath(f"data/{name}.csv").read_text()
    )
    return parse_trace_csv(text, name=name)


def regenerate_bundled_assets() -> List[str]:
    """Rewrite the bundled CSV assets from their recipes; returns paths.

    Run via ``python -m repro.traces.generators`` after changing a
    recipe, then commit the diff like any golden file.
    """
    import os

    directory = os.path.join(os.path.dirname(__file__), "data")
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, recipe in _BUNDLE_RECIPES.items():
        path = os.path.join(directory, f"{name}.csv")
        recipe().save(path)
        paths.append(path)
    return paths


def resolve_trace(spec) -> LinkTrace:
    """Turn a trace spec into a :class:`LinkTrace`.

    Accepts a :class:`LinkTrace` (returned as-is), a bundled asset name
    (``cellular_drive``), a ``"<family>:<seed>"`` generator spec
    (``gprs:7``) or a path to a CSV file (anything containing a path
    separator or ending in ``.csv``). Raises ``ValueError`` (or the
    :class:`~repro.traces.model.TraceFormatError` subclass) on junk.
    """
    if isinstance(spec, LinkTrace):
        return spec
    if not isinstance(spec, str):
        raise ValueError(
            f"trace spec must be a LinkTrace, asset name, 'family:seed' or "
            f"CSV path, got {spec!r}"
        )
    if spec in BUNDLED_TRACES:
        return load_bundled_trace(spec)
    import os

    if os.sep in spec or spec.endswith(".csv"):
        from repro.traces.model import load_trace_csv

        return load_trace_csv(spec)
    if ":" in spec:
        family, __, seed_text = spec.partition(":")
        if family in TRACE_GENERATORS:
            try:
                seed = int(seed_text)
            except ValueError:
                raise ValueError(
                    f"trace generator seed must be an int, got {seed_text!r}"
                ) from None
            return TRACE_GENERATORS[family](seed=seed)
    known = ", ".join(sorted((*TRACE_GENERATORS, *BUNDLED_TRACES)))
    raise ValueError(f"unknown trace spec {spec!r} (known: {known})")


if __name__ == "__main__":  # pragma: no cover - asset regeneration tool
    for path in regenerate_bundled_assets():
        print(f"wrote {path}")
