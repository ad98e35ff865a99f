"""The config format: `load_config` reads a JSON config, `read_config`
checks every key an analysis reads, once, and `read_verify` adds the
`system` block of `eqdeg verify`.  Refused input raises a `ValueError`
(exit code 3); the messages name the key or value at fault.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, nan

from .chartab import (
    CharacterTable,
    IsotypicDecomposition,
    bundled_table,
    isotypic_multiplicities,
    permutation_character,
    table_from_json,
)
from .ddedeg import DEFAULT_TOL, LinearizationData, default_k_max, require_real_components
from .permgroup import Group, GroupTooLargeError, parse_perms


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    """A config as an analysis reads it: group is a preset name or "custom",
    matrices None in `mu` form, and s = 0 takes no resonance-avoiding route."""

    group: str
    table: CharacterTable
    decomposition: IsotypicDecomposition
    lin: LinearizationData
    matrices: list | None
    k_max: int
    s: int


@dataclass(frozen=True)
class System:
    """The `system` block of `eqdeg verify`, seed_component as a 0-based row."""

    seed_row: int
    cubic: float
    radius: float
    growth_samples: int
    fourier_modes: int
    seed_amplitude: float


def load_config(path_or_dict) -> dict:
    if isinstance(path_or_dict, dict):
        data = path_or_dict
    else:
        try:
            with open(path_or_dict) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path_or_dict}: {exc.strerror}") from exc
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("group", "delays", "linearization"):
        if key not in data:
            raise ConfigError(f"missing config key: {key}")
    delays = data["delays"]
    if not _is_int(delays) or delays < 1:
        raise ConfigError("delays must be a positive integer")
    return data


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are given once each: `json.load` would keep
    the last value of a repeated key and drop the others unseen."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"key {key!r} is given twice in one object")
        out[key] = value
    return out


def read_config(data: dict, k_max=None, s=None, tol=None) -> Config:
    """The config `data` (as `load_config` returns it) read for an
    analysis, where the k_max, s and tol given here (the --kmax, --s and
    --tol flags) take the place of the config's options when set.  Given or
    configured, k_max and s must be null or integers >= 0, where 0 picks
    the default, and tol null or a tolerance.  Complex-type rows are refused."""
    options = data.get("options", {})
    if not isinstance(options, dict) or any(
        value is not None and not (_is_int(value) and value >= 0)
        for value in (k_max, s, options.get("k_max"), options.get("s"))
    ):
        raise ConfigError(
            "options must be an object whose k_max and s are integers >= 0, as are --kmax and --s"
        )
    configured_tol = _tolerance(options.get("tol"))
    tol = _tolerance(tol) if tol else configured_tol
    name, table = _build_group_and_table(data)
    action = _representation_action(data, table.group)
    decomposition = isotypic_multiplicities(permutation_character(table, action), table)
    require_real_components(table, decomposition)
    lin, matrices = _build_linearization(data, table, decomposition, action, tol)
    k_max = k_max or options.get("k_max") or default_k_max(lin)
    return Config(name, table, decomposition, lin, matrices, k_max, s or options.get("s") or 0)


def read_verify(data: dict) -> tuple[Config, System]:
    """The config `data` read for `eqdeg verify`, its seed row checked
    against the character table before any analysis runs."""
    system = data.get("system")
    if not isinstance(system, dict) or not system:
        raise ConfigError("verification needs a 'system' block")
    if data.get("representation", "natural") != "natural":
        raise ConfigError("verification needs the natural representation")
    lin = data["linearization"]
    if not isinstance(lin, dict) or "matrices" not in lin:
        raise ConfigError("verification needs the linearization as 'matrices'")
    values = System(
        seed_row=_system_value(system, "seed_component", 5, integer=True) - 1,
        cubic=_cubic(system.get("cubic")),
        radius=_system_value(system, "radius", 4.0),
        growth_samples=_system_value(system, "growth_samples", 500, integer=True),
        fourier_modes=_system_value(system, "fourier_modes", 32, integer=True),
        seed_amplitude=_system_value(system, "seed_amplitude", 4.0),
    )
    for key in ("fourier_modes", "growth_samples"):
        if getattr(values, key) < 1:
            raise ConfigError(f"{key} must be a positive integer")
    config = read_config(data)
    l = values.seed_row
    if not 0 <= l < config.table.n_irreps:
        raise ConfigError(f"seed_component must be in 1..{config.table.n_irreps}")
    if not config.decomposition.multiplicities[l]:
        raise ConfigError(f"component {l + 1} absent from the representation")
    return config, values


def _build_group_and_table(data):
    spec = data["group"]
    if isinstance(spec, str):
        return spec, bundled_table(spec)
    if isinstance(spec, dict) and "generators" in spec:
        group = Group.make(_perm_words(spec["generators"], "generators"))
        tab_payload = data.get("character_table")
        if tab_payload is None:
            raise ConfigError("custom groups need an explicit character_table")
        return "custom", table_from_json(group, tab_payload)
    raise ConfigError("group must be a preset name or {'generators': [...]}")


def _perm_words(words, what: str) -> list:
    """words, when they are a list of cycle words or of point lists."""
    if not isinstance(words, list) or not all(
        isinstance(w, str) or isinstance(w, list) and all(map(_is_int, w)) for w in words
    ):
        raise ConfigError(f"{what} must be a list of cycle words or of point lists")
    return words


def _representation_action(data, group):
    rep = data.get("representation", "natural")
    if rep == "natural":
        return lambda g: g
    if not (isinstance(rep, dict) and "images" in rep):
        raise ConfigError("representation must be 'natural' or {'images': [...]}")
    words = _perm_words(rep["images"], "representation images")
    if len(words) != len(group.generators):
        raise ConfigError(f"expected {len(group.generators)} generator images, got {len(words)}")
    try:
        images = parse_perms(words)
    except ValueError as exc:
        raise ConfigError(f"representation images must be permutations: {exc}") from exc
    # the pairs (generator, image), as permutations of the disjoint union of
    # the two point sets, generate the graph of the map, which has |group|
    # elements exactly when the map is a homomorphism
    d = group.degree
    pairs = [g + tuple(d + x for x in image) for g, image in zip(group.generators, images)]
    try:
        graph = Group.make(pairs, cap=group.order)
    except GroupTooLargeError:
        raise ConfigError("representation images do not define a homomorphism") from None
    return {p[:d]: tuple(x - d for x in p[d:]) for p in graph.elements}.__getitem__


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _real(value) -> float:
    """value as a float; nan for a bool or what float() refuses."""
    try:
        return nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        return nan


def _system_value(system: dict, key: str, default, integer: bool = False):
    """system[key], or default when null or absent: an int (not a bool)
    when integer, else a finite number > 0."""
    value = system.get(key)
    if value is None:
        return default
    if integer:
        if not _is_int(value):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return value
    number = _real(value)
    if not 0 < number < inf:  # nan fails both comparisons
        raise ConfigError(f"{key} must be a finite number > 0, got {value!r}")
    return number


def _cubic(value) -> float:
    """The cubic coefficient as a float, 1/2 when null or absent; a value
    whose float overflows, such as "1e400", is refused."""
    number = _parse_value("1/2" if value is None else value)
    try:
        return float(number)
    except OverflowError:
        raise ConfigError(f"cubic must be within the float range, got {value!r}") from None


def _tolerance(value) -> float:
    """A zero-test tolerance: a finite number >= 0, where 0 and null pick
    the default."""
    tol = _real(DEFAULT_TOL if value is None else value)
    if not 0 <= tol < inf:  # nan fails both comparisons
        raise ConfigError(f"tol must be a finite number >= 0, got {value!r}")
    return tol or DEFAULT_TOL


def _parse_value(v):
    """A config number: a string ("p/q") or an integer read exactly, a
    finite float as it is."""
    if isinstance(v, float):
        if not isfinite(v):
            raise ConfigError(f"not a finite number: {v!r}")
        return v
    if isinstance(v, (str, int)) and not isinstance(v, bool):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"not a number: {v!r}")


def _parse_values(value, depth: int, parsed: dict):
    """Config numbers in lists nested `depth` deep.  parsed maps each
    string read so far to its number, so a string repeated in the lists
    is parsed once."""
    if depth == 0:
        if not isinstance(value, str):
            return _parse_value(value)
        number = parsed.get(value)
        if number is None:
            number = parsed[value] = _parse_value(value)
        return number
    if not isinstance(value, list):
        raise ConfigError(f"expected a list of values, got {value!r}")
    return [_parse_values(v, depth - 1, parsed) for v in value]


def _build_linearization(data, table, decomposition, action, tol):
    """The linearization data, which carries the run's one tolerance, and
    the parsed delay matrices (None in `mu` form)."""
    lin = data["linearization"]
    m = data["delays"]
    if not isinstance(lin, dict):
        raise ConfigError("linearization must be an object with 'matrices' or 'mu'")
    if "matrices" in lin:
        mats = _parse_values(lin["matrices"], 3, {})
        if len(mats) != m:
            raise ConfigError(f"expected {m} matrices, got {len(mats)}")
        return LinearizationData.from_matrices(table, decomposition, mats, tol, action), mats
    if "mu" in lin:
        if not isinstance(lin["mu"], dict):
            raise ConfigError("mu must map character rows to lists of values")
        mu, parsed = {}, {}
        for key, row in lin["mu"].items():
            # one spelling per row ("1", not "01"), so no row is given twice
            if not (isinstance(key, str) and key.isascii() and key.isdecimal() and key[0] != "0"):
                raise ConfigError(f"mu key {key!r} is not a row number 1, 2, ... without leading zeros")
            l = int(key) - 1
            if not 0 <= l < table.n_irreps:
                raise ConfigError(f"mu component {key} out of range")
            mu[l] = tuple(_parse_values(row, 1, parsed))
        return LinearizationData(m=m, mu=mu, tol=tol), None
    raise ConfigError("linearization needs 'matrices' or 'mu'")
