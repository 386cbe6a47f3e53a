"""Network construction from a declarative spec file.

A network spec is structured text with repeated ``[population]`` and
``[projection]`` sections plus ``[simulation]`` / ``[neuron_defaults]``.
Building materializes neurons and samples synapses: each ordered (pre, post)
pair is connected independently with the projection probability, weights are
normal-distributed then sign-clamped toward the source polarity (Dale's
law), and delays are normal-distributed, rounded to the nearest timestep
and clamped to the representable [1, 255] step range.

One sampler (``_sample_projection``) draws one projection at a time and
writes its synapses into the arrays of a sink.  The default ``SynapseSink``
materialises the network, for the tests and ``NetworkModel.digest``; a run
samples into ``matrices.TableSink``, the synapse table's own fields, so the
draws and both simulators' view of the synapses are the same either way.

Everything is driven by named substreams of one seed, so a (spec, seed)
pair always produces the same network, byte for byte.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .kinetics import NeuronParams, make_rng

MAX_DELAY_STEPS = 255
# the most background events per step a Poisson source may average: the run's
# Poisson bank keeps int16 counts, and at this mean a draw stays far below
# 32,767 (the mean plus ten standard deviations is 17,664)
MAX_POISSON_MEAN = 1 << 14
SAMPLE_BLOCK = 1 << 18  # connectivity draws per sampling block (2 MB of floats)


class SpecError(ValueError):
    """Raised when a spec file fails to parse or validate."""


def _require_finite(where: str, values: dict) -> None:
    """Raise a SpecError on the first of ``values`` (spec-file key -> number)
    that is not finite."""
    for key, value in values.items():
        if not math.isfinite(value):
            raise SpecError(f"{where}: {key} must be a finite number, got {value}")


@dataclass(frozen=True)
class DCInput:
    i_dc_pa: float


@dataclass(frozen=True)
class PoissonInput:
    rate_hz: float
    weight_pa: float


@dataclass(frozen=True)
class PopulationSpec:
    name: str
    size: int
    polarity: str  # "exc" | "inh"
    background: DCInput | PoissonInput
    params: NeuronParams

    def validate(self) -> None:
        bg = self.background
        _require_finite(f"population {self.name}", {
            **{k: v for k, v in asdict(self.params).items() if k != "i_dc_pa"},
            **({"poisson_rate_hz": bg.rate_hz, "poisson_weight_pa": bg.weight_pa}
               if isinstance(bg, PoissonInput) else {"dc_current_pa": bg.i_dc_pa})})
        if self.size < 1:
            raise SpecError(f"population {self.name}: size must be >= 1")
        if self.polarity not in ("exc", "inh"):
            raise SpecError(f"population {self.name}: polarity must be exc or inh")
        if isinstance(self.background, PoissonInput) and self.background.rate_hz < 0:
            raise SpecError(f"population {self.name}: negative poisson rate")


@dataclass(frozen=True)
class ProjectionSpec:
    source: str
    target: str
    probability: float
    weight_pa: float  # magnitude of the mean; sign comes from source polarity
    weight_sd_pa: float
    delay_ms: float
    delay_sd_ms: float

    @property
    def name(self) -> str:
        return f"{self.source}->{self.target}"


@dataclass(frozen=True)
class VInit:
    mode: str = "rest"  # "rest" | "normal"
    mean_mv: float = 0.0
    sd_mv: float = 0.0


@dataclass(frozen=True)
class NetworkSpec:
    dt_ms: float
    populations: tuple[PopulationSpec, ...]
    projections: tuple[ProjectionSpec, ...]
    v_init: VInit = VInit()
    scale: float = 1.0

    def validate(self) -> None:
        _require_finite("[simulation]", {"dt_ms": self.dt_ms, "scale": self.scale,
                                         "v_init_mean_mv": self.v_init.mean_mv,
                                         "v_init_sd_mv": self.v_init.sd_mv})
        if self.dt_ms <= 0:
            raise SpecError("dt_ms must be positive")
        if self.v_init.sd_mv < 0:
            raise SpecError(f"[simulation]: v_init_sd_mv must be >= 0, got {self.v_init.sd_mv}")
        names = [p.name for p in self.populations]
        if len(set(names)) != len(names):
            raise SpecError("duplicate population names")
        for p in self.populations:
            p.validate()
            if (isinstance(p.background, PoissonInput)
                    and p.background.rate_hz * self.dt_ms * 1e-3 > MAX_POISSON_MEAN):
                raise SpecError(
                    f"population {p.name}: poisson rate {p.background.rate_hz} Hz gives "
                    f"{p.background.rate_hz * self.dt_ms * 1e-3:g} events per step of "
                    f"{self.dt_ms} ms, above the {MAX_POISSON_MEAN} the 16-bit counts allow")
            try:
                p.params.validate(self.dt_ms)
            except ValueError as exc:
                raise SpecError(f"population {p.name}: {exc}") from None
        known = set(names)
        for pr in self.projections:
            _require_finite(f"projection {pr.name}", {
                k: getattr(pr, k) for k in ("probability", "weight_pa", "weight_sd_pa",
                                            "delay_ms", "delay_sd_ms")})
            if pr.source not in known or pr.target not in known:
                raise SpecError(f"projection {pr.name}: unknown population")
            if not 0.0 <= pr.probability <= 1.0:
                raise SpecError(f"projection {pr.name}: probability out of [0,1]")
            if pr.weight_sd_pa < 0 or pr.delay_sd_ms < 0:
                raise SpecError(f"projection {pr.name}: negative spread")
            if pr.weight_pa < 0:
                raise SpecError(f"projection {pr.name}: weight given as negative magnitude")
            if pr.delay_ms > MAX_DELAY_STEPS * self.dt_ms:
                raise SpecError(
                    f"projection {pr.name}: mean delay {pr.delay_ms} ms exceeds "
                    f"{MAX_DELAY_STEPS} * dt = {MAX_DELAY_STEPS * self.dt_ms} ms")

    def population(self, name: str) -> PopulationSpec:
        for p in self.populations:
            if p.name == name:
                return p
        raise KeyError(name)

    def total_neurons(self) -> int:
        return sum(p.size for p in self.populations)


def scale_network(spec: NetworkSpec, factor: float) -> NetworkSpec:
    """Uniformly scale population sizes; everything else untouched."""
    if not 0.0 < factor <= 1.0:
        raise SpecError(f"scale factor must be in (0, 1], got {factor}")
    if factor == 1.0:
        return spec
    pops = tuple(replace(p, size=max(1, round(p.size * factor))) for p in spec.populations)
    return replace(spec, populations=pops, scale=spec.scale * factor)


# ---------------------------------------------------------------------------
# Spec file parsing / serialization

_SIM_KEYS = {"dt_ms": float, "v_init": str, "v_init_mean_mv": float, "v_init_sd_mv": float,
             "scale": float}
_PARAM_KEYS = {"tau_m_ms": float, "tau_syn_ms": float, "e_rest_mv": float, "r_mohm": float,
               "v_theta_mv": float, "v_reset_mv": float, "t_ref_ms": float}
_POP_KEYS = {"name": str, "size": int, "polarity": str, "poisson_rate_hz": float,
             "poisson_weight_pa": float, "dc_current_pa": float, **_PARAM_KEYS}
_PROJ_KEYS = {"source": str, "target": str, "probability": float, "weight_pa": float,
              "weight_sd_pa": float, "delay_ms": float, "delay_sd_ms": float}


def _spec_lines(text: str, expected: str):
    """Yield ``(lineno, section, key, value)`` for each line of a spec file
    that is not blank once its ``#`` comment is cut: a ``[section]`` header
    has None for key and value, and a ``key = value`` line their stripped
    text under the last header.  Any other line, or one before the first
    header, is a SpecError: ``line N: expected 'key = value' {expected}``."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            yield lineno, section, None, None
        elif "=" not in line or section is None:
            raise SpecError(f"line {lineno}: expected 'key = value' {expected}")
        else:
            key, value = (part.strip() for part in line.split("=", 1))
            yield lineno, section, key, value


def _parse_sections(text: str) -> list[tuple[str, dict]]:
    sections: list[tuple[str, dict]] = []
    for _, section, key, value in _spec_lines(text, "inside a section"):
        if key is None:
            sections.append((section, {}))
        else:
            sections[-1][1][key] = value
    return sections


def typed_value(cast, value: str, where: str):
    """``cast(value)``; a malformed value is a SpecError naming ``where``."""
    try:
        return cast(value)
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from None


def section_entries(text: str, section: str):
    """Yield ``(lineno, key, value)`` for each ``key = value`` line of a spec
    file that holds the one section ``[section]``; ``#`` starts a comment.
    Any other section, or a line outside the section, is a SpecError naming
    its line."""
    for lineno, name, key, value in _spec_lines(text, f"in [{section}]"):
        if name != section:
            raise SpecError(f"line {lineno}: unknown section [{name}]")
        if key is not None:
            yield lineno, key, value


def _typed(section: str, data: dict, schema: dict) -> dict:
    out = {}
    for key, value in data.items():
        if key not in schema:
            raise SpecError(f"[{section}]: unknown key '{key}'")
        out[key] = typed_value(schema[key], value, f"[{section}] {key}")
    return out


def parse_network_spec(text: str, input_variant: str | None = None) -> NetworkSpec:
    """Parse a network spec; input_variant selects dc/poisson background when
    a population declares both."""
    sim: dict = {}
    defaults: dict = {}
    pops: list[PopulationSpec] = []
    projs: list[ProjectionSpec] = []
    for name, data in _parse_sections(text):
        if name == "simulation":
            sim = _typed(name, data, _SIM_KEYS)
        elif name == "neuron_defaults":
            defaults = _typed(name, data, _PARAM_KEYS)
        elif name == "population":
            d = _typed(name, data, _POP_KEYS)
            for key in ("name", "size", "polarity"):
                if key not in d:
                    raise SpecError(f"[population]: missing '{key}'")
            params_kw = {**defaults, **{k: d[k] for k in _PARAM_KEYS if k in d}}
            missing = [k for k in _PARAM_KEYS if k not in params_kw]
            if missing:
                raise SpecError(f"population {d['name']}: missing neuron params {missing}")
            background = _resolve_background(d, input_variant)
            params = NeuronParams(i_dc_pa=background.i_dc_pa if isinstance(background, DCInput) else 0.0,
                                  **params_kw)
            pops.append(PopulationSpec(d["name"], d["size"], d["polarity"], background, params))
        elif name == "projection":
            d = _typed(name, data, _PROJ_KEYS)
            missing = [k for k in _PROJ_KEYS if k not in d]
            if missing:
                raise SpecError(f"[projection]: missing {missing}")
            projs.append(ProjectionSpec(**d))
        else:
            raise SpecError(f"unknown section [{name}]")
    if "dt_ms" not in sim:
        raise SpecError("[simulation] dt_ms is required")
    v_init = VInit(sim.get("v_init", "rest"), sim.get("v_init_mean_mv", 0.0),
                   sim.get("v_init_sd_mv", 0.0))
    if v_init.mode not in ("rest", "normal"):
        raise SpecError("v_init must be 'rest' or 'normal'")
    spec = NetworkSpec(sim["dt_ms"], tuple(pops), tuple(projs), v_init, sim.get("scale", 1.0))
    spec.validate()
    return spec


def _resolve_background(d: dict, variant: str | None):
    has_poisson = "poisson_rate_hz" in d
    has_dc = "dc_current_pa" in d
    if variant == "poisson" or (variant is None and has_poisson and not has_dc):
        if not has_poisson:
            raise SpecError(f"population {d['name']}: no poisson background in spec")
        return PoissonInput(d["poisson_rate_hz"], d.get("poisson_weight_pa", 0.0))
    if variant == "dc" or (variant is None and has_dc and not has_poisson):
        if not has_dc:
            raise SpecError(f"population {d['name']}: no dc background in spec")
        return DCInput(d["dc_current_pa"])
    if variant is None:
        raise SpecError(f"population {d['name']}: declares both backgrounds; "
                        "pick an input variant")
    raise SpecError(f"unknown input variant '{variant}'")


def load_network_spec(path, input_variant: str | None = None) -> NetworkSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network_spec(fh.read(), input_variant)


def serialize_network_spec(spec: NetworkSpec) -> str:
    """Canonical text form; parse(serialize(s)) == s."""
    out = io.StringIO()
    out.write("[simulation]\n")
    out.write(f"dt_ms = {spec.dt_ms!r}\n")
    out.write(f"v_init = {spec.v_init.mode}\n")
    if spec.v_init.mode == "normal":
        out.write(f"v_init_mean_mv = {spec.v_init.mean_mv!r}\n")
        out.write(f"v_init_sd_mv = {spec.v_init.sd_mv!r}\n")
    out.write(f"scale = {spec.scale!r}\n")
    for p in spec.populations:
        out.write("\n[population]\n")
        out.write(f"name = {p.name}\nsize = {p.size}\npolarity = {p.polarity}\n")
        if isinstance(p.background, PoissonInput):
            out.write(f"poisson_rate_hz = {p.background.rate_hz!r}\n")
            out.write(f"poisson_weight_pa = {p.background.weight_pa!r}\n")
        else:
            out.write(f"dc_current_pa = {p.background.i_dc_pa!r}\n")
        for key in _PARAM_KEYS:
            out.write(f"{key} = {getattr(p.params, key)!r}\n")
    for pr in spec.projections:
        out.write("\n[projection]\n")
        out.write(f"source = {pr.source}\ntarget = {pr.target}\n")
        for key in ("probability", "weight_pa", "weight_sd_pa", "delay_ms", "delay_sd_ms"):
            out.write(f"{key} = {getattr(pr, key)!r}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Materialized network

@dataclass
class SampledProjection:
    """CSR-style synapse store for one projection: row r holds the synapses
    of source neuron r (local index) onto the target population.

    In a network that ``build_network`` materialises, the per-synapse arrays
    are views of its sink's shared arrays (targets and delays) and an array
    of the projection's own (weights).  Sampled into ``matrices.TableSink``,
    or once encoded, they are None: the synapses live in the synapse table,
    and only the float weights stay, when the sink was asked to keep them.
    """

    spec: ProjectionSpec
    source_pop: int
    target_pop: int
    row_ptr: np.ndarray    # int64[n_pre + 1]
    # the per-synapse arrays; None once in the synapse table
    post_local: np.ndarray | None  # int32, target-local neuron index
    weight_pa: np.ndarray | None  # float64, signed
    delay_steps: np.ndarray | None  # int16, [1, 255]

    @property
    def count(self) -> int:
        return int(self.row_ptr[-1])


@dataclass
class NetworkModel:
    spec: NetworkSpec
    seed: int
    offsets: np.ndarray  # int64[n_pops + 1], global index ranges per population
    v_init_mv: np.ndarray
    projections: list[SampledProjection] | None  # None when synapses not sampled

    @property
    def dt_ms(self) -> float:
        return self.spec.dt_ms

    @property
    def populations(self) -> tuple[PopulationSpec, ...]:
        return self.spec.populations

    @property
    def total_neurons(self) -> int:
        return int(self.offsets[-1])

    def synapse_count(self) -> int:
        if self.projections is None:
            raise ValueError("synapses were not sampled")
        return sum(p.count for p in self.projections)

    def pop_of_global(self, idx: int) -> tuple[int, int]:
        pop = int(np.searchsorted(self.offsets, idx, side="right")) - 1
        return pop, idx - int(self.offsets[pop])

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(serialize_network_spec(self.spec).encode())
        h.update(str(self.seed).encode())
        h.update(np.ascontiguousarray(self.v_init_mv).tobytes())
        for proj in self.projections or ():
            arrays = (proj.row_ptr, proj.post_local, proj.weight_pa, proj.delay_steps)
            if any(arr is None for arr in arrays):
                raise ValueError(f"projection {proj.spec.name}: synapses released")
            for arr in arrays:
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def synapse_bound(n_pairs: int, probability: float) -> int:
    """A deterministic upper bound on a projection's synapse count, a
    binomial count of ``n_pairs`` trials: the expected count plus six
    standard deviations (passed with odds of about one in 10**9), at most
    ``n_pairs``."""
    mean = n_pairs * probability
    return min(n_pairs, math.ceil(mean + 6.0 * math.sqrt(mean * (1.0 - probability))))


class SynapseSink:
    """Where ``build_network`` samples synapses to, projection after
    projection: an int32 target neuron and a delay per synapse, appended to
    arrays reserved once, at the sum of every projection's ``synapse_bound``,
    and grown by copying in the rare case a projection passes its bound.
    Pages never written never become resident.

    This sink materialises the network: each projection keeps views of the
    shared arrays, holding target-local neurons and int16 delays, and its
    float weights in an array of its own.  ``matrices.TableSink`` writes the
    synapse table's fields instead and encodes each projection's weights as
    soon as it is sampled.
    """

    FIELDS = ("post", "delays")  # the per-synapse arrays, grown together
    DELAY_DTYPE = np.int16
    MAX_SYNAPSES = (1 << 31) - 1  # the synapse table indexes synapses with int32

    def __init__(self, spec: NetworkSpec):
        self.capacity = sum(
            synapse_bound(spec.population(p.source).size * spec.population(p.target).size,
                          p.probability) for p in spec.projections)
        self._refuse_past_limit(self.capacity, "may hold up to")
        self.post = np.empty(self.capacity, dtype=np.int32)
        self.delays = np.empty(self.capacity, dtype=self.DELAY_DTYPE)
        self.size = 0  # synapses written
        # added to every target-local neuron, per target population
        self.post_base = np.zeros(len(spec.populations), dtype=np.int32)

    def _refuse_past_limit(self, count: int, holds: str) -> None:
        if count > self.MAX_SYNAPSES:
            raise SpecError(f"the network {holds} {count:,} synapses, more than the "
                            f"{self.MAX_SYNAPSES:,} synapses the table's int32 indices can hold")

    def room(self, k: int) -> np.ndarray:
        """``post[size:size + k]``, the targets of the next k synapses,
        growing every field by copying when the arrays hold fewer."""
        need = self.size + k
        if need > self.capacity:
            self._refuse_past_limit(need, "holds at least")
            self.capacity = min(max(need, self.capacity + self.capacity // 4), self.MAX_SYNAPSES)
            for name in self.FIELDS:
                grown = np.empty(self.capacity, dtype=getattr(self, name).dtype)
                grown[:self.size] = getattr(self, name)[:self.size]
                setattr(self, name, grown)
        return self.post[self.size:need]

    def weights(self, n: int) -> np.ndarray:
        """A float64 array for the n weights of the projection being sampled."""
        return np.empty(n)

    def keep(self, proj: SampledProjection) -> SampledProjection:
        """What the network keeps of ``proj``, whose synapses are the last
        ``proj.count`` written and whose weights are ``proj.weight_pa``."""
        lo = self.size - proj.count
        proj.post_local = self.post[lo:self.size]
        proj.delay_steps = self.delays[lo:self.size]
        return proj


def build_network(spec: NetworkSpec, seed: int, sample_synapses: bool = True,
                  sink: SynapseSink | None = None) -> NetworkModel:
    """Materialize a NetworkSpec into neurons and sampled synapses.

    The synapses are sampled one projection at a time into ``sink``: by
    default a new ``SynapseSink``, which materialises them; ``cli.run``
    passes a ``matrices.TableSink``, which writes them straight into the
    synapse table."""
    spec.validate()
    sizes = np.array([p.size for p in spec.populations], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    v_init = np.empty(int(offsets[-1]), dtype=np.float64)
    for i, pop in enumerate(spec.populations):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        if spec.v_init.mode == "normal":
            rng = make_rng(seed, "vinit", pop.name)
            v_init[lo:hi] = rng.normal(spec.v_init.mean_mv, spec.v_init.sd_mv, pop.size)
        else:
            v_init[lo:hi] = pop.params.e_rest_mv

    projections = None
    if sample_synapses:
        if sink is None:
            sink = SynapseSink(spec)
        pop_index = {p.name: i for i, p in enumerate(spec.populations)}
        # the draws of every projection's sampling blocks, and their hits
        draws = np.empty(max(SAMPLE_BLOCK, *(p.size for p in spec.populations)))
        hits = np.empty(draws.size, dtype=bool)
        projections = [_sample_projection(spec, proj, j, pop_index, seed, draws, hits, sink)
                       for j, proj in enumerate(spec.projections)]
    return NetworkModel(spec, seed, offsets, v_init, projections)


def _sample_projection(spec: NetworkSpec, proj: ProjectionSpec, index: int,
                       pop_index: dict, seed: int, draw_buf: np.ndarray,
                       hit_buf: np.ndarray, sink: SynapseSink) -> SampledProjection:
    """Sample one projection, appending its targets and delays to ``sink``
    and drawing its weights into ``sink.weights``; returns what the sink
    keeps of it."""
    src = spec.population(proj.source)
    tgt = spec.population(proj.target)
    rng = make_rng(seed, f"projection:{index}:{proj.name}")
    n_pre, n_post = src.size, tgt.size
    start = sink.size
    post_base = sink.post_base[pop_index[proj.target]]

    # rows in blocks of B: rng.random((B, n_post)) draws the stream exactly as
    # B calls of rng.random(n_post) do
    row_ptr = np.zeros(n_pre + 1, dtype=np.int64)
    if proj.probability > 0.0:
        block = max(1, SAMPLE_BLOCK // n_post)
        draws = draw_buf[:min(block, n_pre) * n_post].reshape(-1, n_post)
        hits = hit_buf[:draws.size].reshape(draws.shape)
        row_ends = np.arange(1, draws.shape[0] + 1) * n_post  # flat end of each row
        for lo in range(0, n_pre, block):
            m = min(block, n_pre - lo)
            rng.random(out=draws[:m])
            np.less(draws[:m], proj.probability, out=hits[:m])
            at = np.flatnonzero(hits[:m])
            # the block's hits before each row's end, after the projection's so far
            np.add(np.searchsorted(at, row_ends[:m]), sink.size - start,
                   out=row_ptr[lo + 1:lo + 1 + m])
            post = sink.room(at.size)
            np.remainder(at, n_post, out=post)
            if post_base:
                post += post_base
            sink.size += at.size
    total = sink.size - start

    # in blocks, in place: normal(mu, sd) is mu + sd * standard_normal, and
    # the blocks draw the stream of one call
    sign = 1.0 if src.polarity == "exc" else -1.0
    w = sink.weights(total)
    for lo in range(0, total, SAMPLE_BLOCK):
        b = w[lo:lo + SAMPLE_BLOCK]
        rng.standard_normal(out=b)
        b *= proj.weight_sd_pa
        b += sign * proj.weight_pa
        (np.maximum if sign > 0 else np.minimum)(b, 0.0, out=b)

    # delays block by block in the draw buffer, the same way
    delays = sink.delays[start:start + total]
    for lo in range(0, total, draw_buf.size):
        d = draw_buf[:min(draw_buf.size, total - lo)]
        rng.standard_normal(out=d)
        d *= proj.delay_sd_ms
        d += proj.delay_ms
        d /= spec.dt_ms
        d += 0.5
        delays[lo:lo + d.size] = np.clip(np.floor(d, out=d), 1, MAX_DELAY_STEPS, out=d)

    return sink.keep(SampledProjection(proj, pop_index[proj.source], pop_index[proj.target],
                                       row_ptr, None, w, None))
